//! The Variable Step Size Method (Gillespie's direct method).
//!
//! The paper's RSM wastes trials on disabled reactions; the rejection-free
//! VSSM (one of the 48 algorithms in the Segers taxonomy the paper cites)
//! instead maintains the set of *enabled* reactions, draws the next reaction
//! proportionally to its rate, and advances time by `Exp(R_total)` where
//! `R_total` is the summed rate of all enabled reactions. Both methods
//! simulate the same Master Equation kinetics; VSSM serves here as an
//! independent DMC baseline to validate RSM against.

use std::sync::Arc;

use crate::events::{Event, EventHook};
use crate::recorder::Recorder;
use crate::rsm::RunStats;
use crate::sim::SimState;
use psr_kernel::{CompiledModel, SiteKernel};
use psr_lattice::{Lattice, Site};
use psr_model::Model;
use psr_rng::{exponential, SimRng};

/// For one reaction type: the set of sites where it is enabled, supporting
/// O(1) insert/remove/sample (swap-remove with a position map, so the
/// insertion and removal order is part of the trajectory).
#[derive(Clone, Debug)]
struct SiteSet {
    sites: Vec<Site>,
    /// `pos[site] = index + 1` in `sites`, or 0 when absent.
    pos: Vec<u32>,
}

impl SiteSet {
    /// An empty set over a lattice of `num_sites` sites.
    fn new(num_sites: usize) -> Self {
        SiteSet {
            sites: Vec::new(),
            pos: vec![0; num_sites],
        }
    }

    /// Number of sites currently in the set.
    fn len(&self) -> usize {
        self.sites.len()
    }

    /// True when the set is empty.
    fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Membership test.
    fn contains(&self, site: Site) -> bool {
        self.pos[site.0 as usize] != 0
    }

    /// Insert `site` (no-op when already present).
    fn insert(&mut self, site: Site) {
        if !self.contains(site) {
            self.sites.push(site);
            self.pos[site.0 as usize] = self.sites.len() as u32;
        }
    }

    /// Remove `site` (no-op when absent); swap-remove, order-affecting.
    fn remove(&mut self, site: Site) {
        let p = self.pos[site.0 as usize];
        if p == 0 {
            return;
        }
        let idx = (p - 1) as usize;
        let last = self.sites.len() - 1;
        self.sites.swap(idx, last);
        let moved = self.sites[idx];
        self.pos[moved.0 as usize] = p;
        self.sites.pop();
        self.pos[site.0 as usize] = 0;
    }

    /// Draw a member uniformly (one `rng.index` consumption).
    fn sample(&self, rng: &mut SimRng) -> Site {
        self.sites[rng.index(self.sites.len())]
    }

    /// Remove every site, keeping the allocation.
    fn clear(&mut self) {
        for &s in &self.sites {
            self.pos[s.0 as usize] = 0;
        }
        self.sites.clear();
    }
}

/// VSSM's enabled-reaction index: per reaction type, the set of sites where
/// it is enabled, and the draw of the next event from those sets.
///
/// [`Vssm`] keeps one over the whole lattice; the fractional-step executor
/// in `psr-ca` keeps one over the block it is running, so its within-block
/// exact KMC consumes randomness and visits sites exactly as `Vssm` does.
#[derive(Clone, Debug)]
pub struct EnabledIndex {
    rates: Vec<f64>,
    sets: Vec<SiteSet>,
}

impl EnabledIndex {
    /// An empty index for reactions of rate constants `rates` over a
    /// lattice of `num_sites` sites.
    pub fn new(rates: &[f64], num_sites: usize) -> Self {
        EnabledIndex {
            rates: rates.to_vec(),
            sets: vec![SiteSet::new(num_sites); rates.len()],
        }
    }

    /// Empty the index, then insert every site of `sites` where
    /// `enabled(site, reaction)` holds; each set receives its sites in the
    /// order of `sites`.
    pub fn rebuild(
        &mut self,
        sites: impl IntoIterator<Item = Site>,
        enabled: impl Fn(Site, usize) -> bool,
    ) {
        for set in &mut self.sets {
            set.clear();
        }
        for site in sites {
            for (ri, set) in self.sets.iter_mut().enumerate() {
                if enabled(site, ri) {
                    set.insert(site);
                }
            }
        }
    }

    /// Re-examine the anchors whose patterns can read `changed`: for every
    /// reaction, the anchors `changed − offset` in transform order, skipping
    /// those `keep` rejects. The swap-remove sets make this visiting order
    /// part of the trajectory.
    pub fn refresh_around(
        &mut self,
        kernel: &SiteKernel,
        lattice: &Lattice,
        changed: Site,
        keep: impl Fn(Site) -> bool,
    ) {
        for (ri, set) in self.sets.iter_mut().enumerate() {
            for r in kernel.compiled().requirements(ri) {
                let anchor = kernel.anchor(changed, r.cell as usize);
                if !keep(anchor) {
                    continue;
                }
                if kernel.is_enabled(anchor, ri, |s| lattice.get(s)) {
                    set.insert(anchor);
                } else {
                    set.remove(anchor);
                }
            }
        }
    }

    /// Summed rate of the enabled reactions, `Σ k·|set|` in reaction order.
    #[inline]
    pub fn total(&self) -> f64 {
        self.rates
            .iter()
            .zip(&self.sets)
            .map(|(k, set)| k * set.len() as f64)
            .sum()
    }

    /// The [`total`](Self::total) and a waiting time `Exp(total)` drawn
    /// from it; `None`, drawing nothing, when no reaction is enabled.
    #[inline]
    pub fn waiting_time(&self, rng: &mut SimRng) -> Option<(f64, f64)> {
        let total = self.total();
        if total <= 0.0 {
            return None;
        }
        Some((total, exponential(rng, total)))
    }

    /// The event of a draw whose total is `total`: the reaction by one
    /// uniform draw scanned over `k·|set|` in reaction order — moved to the
    /// first non-empty set should float drift land on an empty one — then a
    /// uniform site of its set. `None` only when every set is empty.
    #[inline]
    pub fn pick(&self, rng: &mut SimRng, total: f64) -> Option<(usize, Site)> {
        let mut x = rng.f64() * total;
        let mut chosen = self.sets.len() - 1;
        for (ri, (k, set)) in self.rates.iter().zip(&self.sets).enumerate() {
            let w = k * set.len() as f64;
            if x < w {
                chosen = ri;
                break;
            }
            x -= w;
        }
        if self.sets[chosen].is_empty() {
            chosen = self.sets.iter().position(|s| !s.is_empty())?;
        }
        Some((chosen, self.sets[chosen].sample(rng)))
    }

    /// Number of sites where `reaction` is enabled.
    pub fn len(&self, reaction: usize) -> usize {
        self.sets[reaction].len()
    }

    /// Whether `site` is in the set of `reaction`.
    pub fn contains(&self, reaction: usize, site: Site) -> bool {
        self.sets[reaction].contains(site)
    }
}

/// VSSM simulator with an incrementally maintained enabled-reaction index.
#[derive(Clone, Debug)]
pub struct Vssm<'m> {
    model: &'m Model,
    index: EnabledIndex,
    compiled: Arc<CompiledModel>,
    /// Lattice-bound kernel, bound on every step.
    kernel: Option<SiteKernel>,
}

impl<'m> Vssm<'m> {
    /// Build the enabled index by scanning `lattice`.
    pub fn new(model: &'m Model, lattice: &Lattice) -> Self {
        let mut index = EnabledIndex::new(&model.rate_weights(), lattice.len());
        index.rebuild(lattice.dims().iter_sites(), |site, ri| {
            model.reaction(ri).is_enabled(lattice, site)
        });
        Vssm {
            model,
            index,
            compiled: Arc::new(CompiledModel::compile(model)),
            kernel: None,
        }
    }

    /// Summed rate of all enabled reactions (`Σ kSS'` of the ME, Eq. 1).
    pub fn total_propensity(&self) -> f64 {
        self.index.total()
    }

    /// Number of sites where reaction `ri` is enabled.
    pub fn enabled_count(&self, ri: usize) -> usize {
        self.index.len(ri)
    }

    /// Execute one event; returns `None` when nothing is enabled (absorbing
    /// state — e.g. a poisoned ZGB surface with no desorption).
    pub fn step(
        &mut self,
        state: &mut SimState,
        rng: &mut SimRng,
        changes: &mut Vec<(Site, u8, u8)>,
    ) -> Option<Event> {
        self.step_until(state, rng, changes, f64::INFINITY)
    }

    /// Like [`step`](Self::step), but refuses to execute an event whose time
    /// would exceed `t_end`; in that case the clock is clamped to `t_end`
    /// and `None` is returned (the exact stopping rule of event-driven DMC).
    pub fn step_until(
        &mut self,
        state: &mut SimState,
        rng: &mut SimRng,
        changes: &mut Vec<(Site, u8, u8)>,
        t_end: f64,
    ) -> Option<Event> {
        let (total, dt) = self.index.waiting_time(rng)?;
        if state.time + dt > t_end {
            state.time = t_end;
            return None;
        }
        let (chosen, site) = self.index.pick(rng, total)?;
        state.time += dt;
        let kernel = SiteKernel::bind(
            &mut self.kernel,
            &self.compiled,
            &state.lattice,
            state.mutation_epoch(),
        );
        // The kernel reflects the post-change lattice before the
        // enabled-set refresh reads it.
        let executed = state.fire(kernel, site, chosen, changes);
        debug_assert!(executed, "enabled index held a disabled reaction");
        for &(z, _, _) in changes.iter() {
            self.index
                .refresh_around(kernel, &state.lattice, z, |_| true);
        }
        Some(Event {
            time: state.time,
            site,
            reaction: chosen,
            executed: true,
        })
    }

    /// Run until `t_end` (or until no reaction is enabled).
    pub fn run_until(
        &mut self,
        state: &mut SimState,
        rng: &mut SimRng,
        t_end: f64,
        mut recorder: Option<&mut Recorder>,
        hook: &mut impl EventHook,
    ) -> RunStats {
        let mut stats = RunStats::default();
        let mut changes = Vec::with_capacity(4);
        while state.time < t_end {
            let Some(event) = self.step_until(state, rng, &mut changes, t_end) else {
                break;
            };
            if let Some(rec) = recorder.as_deref_mut() {
                // One event changes only a few sites, so sampling the grid
                // points in (t_prev, event.time] with the post-event
                // coverage is accurate to within one event.
                rec.record_until(event.time, &state.coverage);
            }
            stats.trials += 1;
            stats.executed += 1;
            hook.on_event(event);
        }
        if let Some(rec) = recorder {
            rec.record(t_end, &state.coverage);
        }
        debug_assert!(state.agrees_with(&self.kernel, self.model));
        stats
    }

    /// Consistency check: rebuild the index from scratch and compare
    /// (tests / debug only — O(N·|T|)).
    pub fn index_is_consistent(&self, lattice: &Lattice) -> bool {
        for (ri, rt) in self.model.reactions().iter().enumerate() {
            for site in lattice.dims().iter_sites() {
                if rt.is_enabled(lattice, site) != self.index.contains(ri, site) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NoHook;
    use psr_lattice::Dims;
    use psr_model::library::zgb::zgb_ziff;
    use psr_model::ModelBuilder;
    use psr_rng::rng_from_seed;

    fn ab_model() -> Model {
        ModelBuilder::new(&["*", "A", "B"])
            .reaction("A ads", 1.0, |r| {
                r.site((0, 0), "*", "A");
            })
            .reaction("A->B", 2.0, |r| {
                r.site((0, 0), "A", "B");
            })
            .reaction_rotations("AB des", 0.5, 4, |r| {
                r.site((0, 0), "A", "*").site((1, 0), "B", "*");
            })
            .build()
    }

    #[test]
    fn initial_index_matches_scan() {
        let model = ab_model();
        let lattice = Lattice::filled(Dims::new(6, 6), 0);
        let vssm = Vssm::new(&model, &lattice);
        assert!(vssm.index_is_consistent(&lattice));
        assert_eq!(vssm.enabled_count(0), 36);
        assert_eq!(vssm.enabled_count(1), 0);
        assert_eq!(vssm.total_propensity(), 36.0);
    }

    #[test]
    fn index_stays_consistent_through_events() {
        let model = ab_model();
        let lattice = Lattice::filled(Dims::new(6, 6), 0);
        let mut state = SimState::new(lattice, &model);
        let mut vssm = Vssm::new(&model, &state.lattice);
        let mut rng = rng_from_seed(21);
        let mut changes = Vec::new();
        for i in 0..500 {
            if vssm.step(&mut state, &mut rng, &mut changes).is_none() {
                break;
            }
            if i % 50 == 0 {
                assert!(
                    vssm.index_is_consistent(&state.lattice),
                    "index diverged at event {i}"
                );
            }
        }
        assert!(vssm.index_is_consistent(&state.lattice));
        assert!(state.coverage.matches(&state.lattice));
    }

    #[test]
    fn absorbing_state_stops_simulation() {
        // Pure adsorption fills the lattice and then nothing is enabled.
        let model = ModelBuilder::new(&["*", "A"])
            .reaction("ads", 1.0, |r| {
                r.site((0, 0), "*", "A");
            })
            .build();
        let mut state = SimState::new(Lattice::filled(Dims::new(4, 4), 0), &model);
        let mut vssm = Vssm::new(&model, &state.lattice);
        let mut rng = rng_from_seed(8);
        let stats = vssm.run_until(&mut state, &mut rng, 1e9, None, &mut NoHook);
        assert_eq!(stats.executed, 16, "exactly one adsorption per site");
        assert_eq!(state.coverage.count(1), 16);
        assert_eq!(vssm.total_propensity(), 0.0);
    }

    #[test]
    fn kinetics_agree_with_rsm_langmuir() {
        // VSSM and RSM must both reproduce θ(t) = 1 − e^(−t).
        let model = ModelBuilder::new(&["*", "A"])
            .reaction("ads", 1.0, |r| {
                r.site((0, 0), "*", "A");
            })
            .build();
        let mut state = SimState::new(Lattice::filled(Dims::new(80, 80), 0), &model);
        let mut vssm = Vssm::new(&model, &state.lattice);
        let mut rng = rng_from_seed(31);
        vssm.run_until(&mut state, &mut rng, 1.0, None, &mut NoHook);
        let theta = state.coverage.fraction(1);
        let expected = 1.0 - (-1.0f64).exp();
        assert!(
            (theta - expected).abs() < 0.02,
            "VSSM coverage {theta} vs analytic {expected}"
        );
    }

    #[test]
    fn zgb_vssm_runs_and_stays_consistent() {
        let model = zgb_ziff(0.5, 4.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(12, 12), 0), &model);
        let mut vssm = Vssm::new(&model, &state.lattice);
        let mut rng = rng_from_seed(77);
        vssm.run_until(&mut state, &mut rng, 2.0, None, &mut NoHook);
        assert!(vssm.index_is_consistent(&state.lattice));
    }

    #[test]
    fn site_set_insert_remove() {
        let mut set = SiteSet::new(10);
        set.insert(Site(3));
        set.insert(Site(7));
        set.insert(Site(3)); // duplicate, ignored
        assert_eq!(set.len(), 2);
        set.remove(Site(3));
        assert_eq!(set.len(), 1);
        assert!(set.contains(Site(7)));
        assert!(!set.contains(Site(3)));
        set.remove(Site(3)); // absent, ignored
        assert_eq!(set.len(), 1);
    }
}
