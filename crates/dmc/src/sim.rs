//! Shared simulation state: lattice + incrementally tracked coverage + clock.

use std::cell::Cell;

use psr_kernel::SiteKernel;
use psr_lattice::{Change, Coverage, Lattice, Site};
use psr_model::Model;
use psr_rng::SimRng;

/// The mutable state every algorithm advances: the configuration `S`, its
/// coverage counts, and the simulated time.
#[derive(Clone, Debug)]
pub struct SimState {
    /// The configuration.
    pub lattice: Lattice,
    /// Incrementally maintained per-species counts.
    pub coverage: Coverage,
    /// Simulated (real) time.
    pub time: f64,
    /// Monotone mutation epoch: bumped whenever the lattice is changed
    /// through this state's tracked entry points
    /// ([`apply_changes`](Self::apply_changes),
    /// [`randomize`](Self::randomize), or an explicit
    /// [`bump_mutations`](Self::bump_mutations) after direct lattice
    /// writes). A [`SiteKernel`] compares it against its last-seen epoch
    /// ([`SiteKernel::bind`]) to detect that the lattice changed behind its
    /// back, and then rebuilds its codes, masks and enabled-set counts.
    mutations: u64,
}

impl SimState {
    /// Wrap a lattice, computing initial coverage for `model`'s species.
    pub fn new(lattice: Lattice, model: &Model) -> Self {
        let coverage = Coverage::from_lattice(&lattice, model.species().len());
        SimState {
            lattice,
            coverage,
            time: 0.0,
            mutations: 0,
        }
    }

    /// Number of lattice sites `N`.
    pub fn num_sites(&self) -> usize {
        self.lattice.len()
    }

    /// The current mutation epoch (see the `mutations` field).
    pub fn mutation_epoch(&self) -> u64 {
        self.mutations
    }

    /// Record that the lattice was mutated outside the tracked entry
    /// points, invalidating any epoch-checked incremental caches.
    pub fn bump_mutations(&mut self) {
        self.mutations += 1;
    }

    /// Apply recorded changes to the coverage tracker.
    #[inline]
    pub fn apply_changes(&mut self, changes: &[(Site, u8, u8)]) {
        for &(_, old, new) in changes {
            self.coverage.transition(old, new);
        }
        self.mutations += changes.len() as u64;
    }

    /// One trial of `reaction` at `site` on this state's lattice:
    /// [`SiteKernel::fire`], and on a hit the journaled writes (left in
    /// `changes`, cleared first) folded into the coverage, the mutation
    /// epoch and the kernel. Returns whether the reaction executed.
    #[inline]
    pub fn fire(
        &mut self,
        kernel: &mut SiteKernel,
        site: Site,
        reaction: usize,
        changes: &mut Vec<Change>,
    ) -> bool {
        changes.clear();
        // Reader and writer share the cells; the kernel finishes reading
        // before it writes.
        let cells = Cell::from_mut(self.lattice.cells_mut()).as_slice_of_cells();
        let executed = kernel.fire(
            site,
            reaction,
            |s| cells[s.0 as usize].get(),
            |s, new| changes.push((s, cells[s.0 as usize].replace(new), new)),
        );
        if executed {
            self.apply_changes(changes);
            kernel.apply_changes(&self.lattice, changes);
            kernel.note_epoch(self.mutations);
        }
        executed
    }

    /// The debug-build check executors end a run call with: the kernel kept
    /// in `slot`, if it claims to reflect this state's mutation epoch,
    /// [`matches_scan`](SiteKernel::matches_scan) — its masks, and the
    /// enabled-set counts of weighted selection, against a recount from
    /// [`Model::enabled_mask_at`]. O(N·|T|), so once per run call, not per
    /// step.
    pub fn agrees_with(&self, slot: &Option<SiteKernel>, model: &Model) -> bool {
        slot.as_ref()
            .is_none_or(|k| k.epoch() != self.mutations || k.matches_scan(model, &self.lattice))
    }

    /// Randomise the lattice: each site takes a uniformly random state from
    /// the model's species set (used by tests; physical initial conditions
    /// are usually the empty surface).
    pub fn randomize(&mut self, model: &Model, rng: &mut SimRng) {
        let num = model.species().len();
        for i in 0..self.lattice.len() {
            let s = rng.index(num) as u8;
            let site = Site(i as u32);
            let old = self.lattice.set(site, s);
            self.coverage.transition(old, s);
        }
        self.mutations += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_lattice::Dims;
    use psr_model::library::zgb::{zgb_ziff, ZGB_SPECIES};

    #[test]
    fn new_state_has_consistent_coverage() {
        let model = zgb_ziff(0.5, 1.0);
        let state = SimState::new(Lattice::filled(Dims::new(4, 4), 0), &model);
        assert_eq!(state.coverage.count(0), 16);
        assert_eq!(state.time, 0.0);
        assert_eq!(state.num_sites(), 16);
    }

    #[test]
    fn apply_changes_updates_coverage() {
        let model = zgb_ziff(0.5, 1.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(2, 2), 0), &model);
        let co = ZGB_SPECIES.co.id();
        state.lattice.set(Site(0), co);
        state.apply_changes(&[(Site(0), 0, co)]);
        assert!(state.coverage.matches(&state.lattice));
    }

    #[test]
    fn randomize_keeps_coverage_consistent() {
        let model = zgb_ziff(0.5, 1.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(5, 5), 0), &model);
        let mut rng = psr_rng::rng_from_seed(1);
        state.randomize(&model, &mut rng);
        assert!(state.coverage.matches(&state.lattice));
    }
}
