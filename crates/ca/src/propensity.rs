//! Incremental per-chunk propensity cache (the weighted chunk selection of
//! §5 without the per-step rescan).
//!
//! `WeightedByRates` chunk selection needs, for every chunk `P_c`, the
//! summed rate of reactions enabled at the chunk's sites:
//!
//! ```text
//! w_c = Σ_{s ∈ P_c} Σ_{Rt enabled at s} k_Rt = Σ_Rt |{s ∈ P_c : Rt enabled at s}| · k_Rt
//! ```
//!
//! Rescanning every chunk costs O(N·|T|) per draw. This cache keeps
//!
//! - per site: a bitmask of which tracked reactions are enabled there,
//! - per chunk and reaction: the *count* of sites where it is enabled,
//!
//! and updates them in O(affected sites) after each executed reaction from
//! the compiled [`SiteKernel`]: its anchor table lists the sites whose
//! patterns can read a changed cell, its masks say what is enabled there.
//!
//! Storing integer counts instead of a running float sum has two payoffs:
//! no drift (the cache stays *exactly* equal to a fresh scan, which
//! [`ChunkPropensityCache::assert_matches_scan`] checks, mirroring the VSSM
//! index consistency check in `psr-dmc`), and determinism — the weight is
//! always the same `Σ count·k` evaluated in reaction order, so the cached
//! and scanning weighted selections consume identical random numbers and
//! pick identical chunk sequences.
//!
//! Staleness: the cache records the [`SimState`](psr_dmc::sim::SimState)
//! mutation epoch it last saw; [`ensure_fresh`]
//! (ChunkPropensityCache::ensure_fresh) rebuilds by full scan when the
//! lattice changed behind its back (a different algorithm stepped the
//! state, `randomize`, direct writes + `bump_mutations`).

use crate::partition::Partition;
use psr_kernel::SiteKernel;
use psr_lattice::{Change, Lattice, Site};
use psr_model::Model;
use psr_rng::SimRng;

/// One weighted index draw: linear walk over `weights`, uniform fallback
/// when the total is non-positive (no reaction enabled anywhere). Consumes
/// exactly one random number either way, so the scanning and cached
/// weighted selections stay on the same random stream.
pub fn draw_weighted(rng: &mut SimRng, weights: &[f64]) -> usize {
    let m = weights.len();
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return rng.index(m);
    }
    let mut x = rng.f64() * total;
    let mut chosen = m - 1;
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            chosen = i;
            break;
        }
        x -= w;
    }
    chosen
}

/// Incrementally maintained per-chunk enabled-reaction rates.
#[derive(Clone, Debug)]
pub struct ChunkPropensityCache {
    /// Global reaction indices tracked by this cache (all of them for
    /// PNDCA; one subset `T_j` for the Ω×T approach).
    reaction_ids: Vec<usize>,
    /// Rate constant per tracked reaction, in `reaction_ids` order.
    rates: Vec<f64>,
    /// Per-site bitmask: bit `m` set iff `reaction_ids[m]` is enabled there.
    enabled: Vec<u64>,
    /// `counts[c * reaction_ids.len() + m]` = sites of chunk `c` where
    /// tracked reaction `m` is enabled.
    counts: Vec<u32>,
    /// Mutation epoch of the `SimState` this cache last reflected.
    epoch: u64,
}

impl ChunkPropensityCache {
    /// Build a cache over *all* reaction types of `model` by scanning
    /// `lattice` once.
    ///
    /// # Panics
    ///
    /// Panics if the model has more reaction types than enabled-set masks
    /// track ([`psr_kernel::require_masks`]), or if `partition` does not
    /// match the lattice dimensions.
    pub fn new(model: &Model, partition: &Partition, lattice: &Lattice) -> Self {
        Self::for_reactions(
            model,
            &(0..model.num_reactions()).collect::<Vec<_>>(),
            partition,
            lattice,
        )
    }

    /// Build a cache over a subset of reaction types (the Ω×T case: one
    /// cache per `T_j`, each over that subset's site partition).
    ///
    /// # Panics
    ///
    /// Panics if `reaction_ids` is empty or references an unknown reaction,
    /// or if the model fails [`psr_kernel::require_masks`].
    pub fn for_reactions(
        model: &Model,
        reaction_ids: &[usize],
        partition: &Partition,
        lattice: &Lattice,
    ) -> Self {
        assert!(
            !reaction_ids.is_empty(),
            "cache needs at least one reaction"
        );
        psr_kernel::require_masks(model.num_reactions()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            partition.dims(),
            lattice.dims(),
            "partition and lattice dimensions differ"
        );
        let rates = reaction_ids
            .iter()
            .map(|&ri| model.reaction(ri).rate())
            .collect();
        let mut cache = ChunkPropensityCache {
            reaction_ids: reaction_ids.to_vec(),
            rates,
            enabled: Vec::new(),
            counts: Vec::new(),
            epoch: 0,
        };
        cache.rebuild(model, partition, lattice);
        cache
    }

    /// Number of tracked reactions.
    pub fn num_tracked(&self) -> usize {
        self.reaction_ids.len()
    }

    /// The mutation epoch this cache last reflected.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Record the mutation epoch the cache is now consistent with.
    pub fn note_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Rebuild from scratch by one full lattice scan (O(N·|tracked|)).
    pub fn rebuild(&mut self, model: &Model, partition: &Partition, lattice: &Lattice) {
        let members = self.reaction_ids.len();
        let n = lattice.len();
        self.enabled.clear();
        self.enabled.resize(n, 0);
        self.counts.clear();
        self.counts.resize(partition.num_chunks() * members, 0);
        for i in 0..n {
            let site = Site(i as u32);
            let mask = self.site_mask(model, lattice, site);
            self.enabled[i] = mask;
            if mask != 0 {
                let base = partition.chunk_of(site) * members;
                let mut bits = mask;
                while bits != 0 {
                    let m = bits.trailing_zeros() as usize;
                    self.counts[base + m] += 1;
                    bits &= bits - 1;
                }
            }
        }
    }

    /// Rebuild only if `epoch` differs from the last-seen epoch (the
    /// lattice was mutated outside this cache's view); records `epoch`
    /// either way.
    pub fn ensure_fresh(
        &mut self,
        model: &Model,
        partition: &Partition,
        lattice: &Lattice,
        epoch: u64,
    ) {
        if self.epoch != epoch {
            self.rebuild(model, partition, lattice);
            self.epoch = epoch;
        }
    }

    /// Fold a batch of `(site, old, new)` mutation records into the cache:
    /// every anchor whose pattern can see a changed site takes its enabled
    /// set from `kernel`, which must already reflect the changes
    /// (simulators fold changes into the kernel first, then into this
    /// cache).
    ///
    /// Re-evaluation is idempotent (it diffs the stored mask against the
    /// kernel's), so overlapping neighborhoods and repeated sites across
    /// `changes` are harmless and the record order is irrelevant.
    pub fn apply_changes(
        &mut self,
        kernel: &SiteKernel,
        partition: &Partition,
        changes: &[Change],
    ) {
        for &(site, _, _) in changes {
            for &j in kernel.compiled().read_cells() {
                let anchor = kernel.anchor(site, j as usize);
                let new_mask = self.member_mask(kernel.enabled_mask(anchor));
                self.store_mask(partition, anchor, new_mask);
            }
        }
    }

    /// Project a kernel bitmask (bit = global reaction index) onto the
    /// tracked-member bit layout of this cache.
    #[inline]
    fn member_mask(&self, kernel_mask: u64) -> u64 {
        let mut mask = 0u64;
        for (m, &ri) in self.reaction_ids.iter().enumerate() {
            mask |= ((kernel_mask >> ri) & 1) << m;
        }
        mask
    }

    /// Install a freshly computed mask for `site`, adjusting counts by the
    /// diff against the stored one. Idempotent.
    #[inline]
    fn store_mask(&mut self, partition: &Partition, site: Site, new_mask: u64) {
        let members = self.reaction_ids.len();
        let old_mask = self.enabled[site.0 as usize];
        let mut diff = old_mask ^ new_mask;
        if diff == 0 {
            return;
        }
        self.enabled[site.0 as usize] = new_mask;
        let base = partition.chunk_of(site) * members;
        while diff != 0 {
            let m = diff.trailing_zeros() as usize;
            if new_mask & (1 << m) != 0 {
                self.counts[base + m] += 1;
            } else {
                self.counts[base + m] -= 1;
            }
            diff &= diff - 1;
        }
    }

    /// Bitmask of tracked reactions enabled at `site`.
    #[inline]
    fn site_mask(&self, model: &Model, lattice: &Lattice, site: Site) -> u64 {
        let mut mask = 0u64;
        for (m, &ri) in self.reaction_ids.iter().enumerate() {
            if model.reaction(ri).is_enabled(lattice, site) {
                mask |= 1 << m;
            }
        }
        mask
    }

    /// Summed enabled-reaction rate of one chunk: `Σ_m count_{c,m} · k_m`
    /// in tracked-reaction order — bit-identical to
    /// [`scan_chunk_weight`](Self::scan_chunk_weight) on the same state.
    pub fn chunk_weight(&self, chunk: usize) -> f64 {
        let members = self.reaction_ids.len();
        let base = chunk * members;
        let mut w = 0.0;
        for m in 0..members {
            w += self.counts[base + m] as f64 * self.rates[m];
        }
        w
    }

    /// Write every chunk's weight into `out` (cleared first).
    pub fn weights_into(&self, out: &mut Vec<f64>) {
        let chunks = self.counts.len() / self.reaction_ids.len();
        out.clear();
        out.extend((0..chunks).map(|c| self.chunk_weight(c)));
    }

    /// Enabled-site count for chunk `c`, tracked reaction `m` (test hook).
    pub fn count(&self, chunk: usize, member: usize) -> u32 {
        self.counts[chunk * self.reaction_ids.len() + member]
    }

    /// Weight of a single tracked reaction in one chunk: `count·k`.
    ///
    /// Bit-identical to [`scan_chunk_weight`](Self::scan_chunk_weight) with
    /// a one-element `reaction_ids` slice — the formula the Ω×T weighted
    /// chunk draw relies on (only the swept type's propensity matters
    /// there, not the subset total).
    pub fn member_weight(&self, chunk: usize, member: usize) -> f64 {
        self.counts[chunk * self.reaction_ids.len() + member] as f64 * self.rates[member]
    }

    /// Write every chunk's weight for one tracked reaction into `out`
    /// (cleared first).
    pub fn member_weights_into(&self, member: usize, out: &mut Vec<f64>) {
        let chunks = self.counts.len() / self.reaction_ids.len();
        out.clear();
        out.extend((0..chunks).map(|c| self.member_weight(c, member)));
    }

    /// The weight a fresh scan would report for `chunk`, computed with the
    /// same count-then-multiply formula as [`chunk_weight`]
    /// (Self::chunk_weight) so the two are comparable bit-for-bit.
    /// O(|chunk|·|tracked|).
    pub fn scan_chunk_weight(
        model: &Model,
        reaction_ids: &[usize],
        partition: &Partition,
        lattice: &Lattice,
        chunk: usize,
    ) -> f64 {
        let mut w = 0.0;
        for &ri in reaction_ids {
            let rt = model.reaction(ri);
            let mut count = 0u32;
            for &site in partition.chunk(chunk) {
                count += rt.is_enabled(lattice, site) as u32;
            }
            w += count as f64 * rt.rate();
        }
        w
    }

    /// True if every per-site mask and per-chunk count equals a fresh scan.
    pub fn matches_scan(&self, model: &Model, partition: &Partition, lattice: &Lattice) -> bool {
        let mut fresh = self.clone();
        fresh.rebuild(model, partition, lattice);
        fresh.enabled == self.enabled && fresh.counts == self.counts
    }

    /// Panic with a diagnostic if the cache disagrees with a fresh scan.
    ///
    /// Mirrors the VSSM index consistency check: call it (under
    /// `cfg(debug_assertions)` in hot paths) after incremental updates to
    /// catch stencil or journal bugs at the first divergence.
    pub fn assert_matches_scan(&self, model: &Model, partition: &Partition, lattice: &Lattice) {
        let mut fresh = self.clone();
        fresh.rebuild(model, partition, lattice);
        for (i, (&have, &want)) in self.enabled.iter().zip(&fresh.enabled).enumerate() {
            assert_eq!(
                have, want,
                "cache mask diverged at site {i}: cached {have:#b}, scan {want:#b}"
            );
        }
        assert_eq!(
            self.counts, fresh.counts,
            "cache counts diverged from a fresh scan"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_builder::five_coloring;
    use psr_kernel::CompiledModel;
    use psr_lattice::{Dims, Lattice};
    use psr_model::library::zgb::zgb_ziff;
    use psr_rng::rng_from_seed;
    use std::sync::Arc;

    #[test]
    fn fresh_cache_matches_scan_weights() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let partition = five_coloring(d);
        let mut lattice = Lattice::filled(d, 0);
        // Scatter some species so enabledness is non-trivial.
        let mut rng = rng_from_seed(3);
        for i in 0..lattice.len() {
            lattice.set(Site(i as u32), (rng.index(3)) as u8);
        }
        let cache = ChunkPropensityCache::new(&model, &partition, &lattice);
        cache.assert_matches_scan(&model, &partition, &lattice);
        let all: Vec<usize> = (0..model.num_reactions()).collect();
        for c in 0..partition.num_chunks() {
            let scan =
                ChunkPropensityCache::scan_chunk_weight(&model, &all, &partition, &lattice, c);
            assert_eq!(cache.chunk_weight(c), scan, "chunk {c} weight");
        }
    }

    #[test]
    fn empty_surface_counts_only_adsorption() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let partition = five_coloring(d);
        let lattice = Lattice::filled(d, 0);
        let cache = ChunkPropensityCache::new(&model, &partition, &lattice);
        // On the empty ZGB surface, CO adsorption and both O2 adsorption
        // orientations are enabled at every site; reaction patterns are not.
        let total: f64 = (0..partition.num_chunks())
            .map(|c| cache.chunk_weight(c))
            .sum();
        assert_eq!(total, model.total_propensity(&lattice));
    }

    #[test]
    fn incremental_update_tracks_executed_reactions() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let partition = five_coloring(d);
        let mut lattice = Lattice::filled(d, 0);
        let mut cache = ChunkPropensityCache::new(&model, &partition, &lattice);
        let mut kernel = SiteKernel::new(Arc::new(CompiledModel::compile(&model)), &lattice);
        let mut rng = rng_from_seed(7);
        let mut changes = Vec::new();
        // Execute 200 random enabled reactions, updating incrementally.
        for _ in 0..200 {
            let site = Site(rng.index(lattice.len()) as u32);
            let ri = rng.index(model.num_reactions());
            changes.clear();
            if model
                .reaction(ri)
                .try_execute(&mut lattice, site, &mut changes)
            {
                kernel.apply_changes(&lattice, &changes);
                cache.apply_changes(&kernel, &partition, &changes);
            }
        }
        cache.assert_matches_scan(&model, &partition, &lattice);
    }

    #[test]
    fn subset_cache_tracks_only_its_reactions() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let partition = five_coloring(d);
        let lattice = Lattice::filled(d, 0);
        let co_ads = model.reaction_index("RtCO").expect("exists");
        let cache = ChunkPropensityCache::for_reactions(&model, &[co_ads], &partition, &lattice);
        assert_eq!(cache.num_tracked(), 1);
        for c in 0..partition.num_chunks() {
            // Every vacant site enables CO adsorption.
            assert_eq!(cache.count(c, 0) as usize, partition.chunk(c).len());
            let scan =
                ChunkPropensityCache::scan_chunk_weight(&model, &[co_ads], &partition, &lattice, c);
            assert_eq!(cache.chunk_weight(c), scan);
        }
    }

    #[test]
    fn ensure_fresh_rebuilds_on_epoch_mismatch() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(5);
        let partition = five_coloring(d);
        let mut lattice = Lattice::filled(d, 0);
        let mut cache = ChunkPropensityCache::new(&model, &partition, &lattice);
        cache.note_epoch(1);
        // Mutate the lattice behind the cache's back.
        lattice.set(Site(0), 1);
        assert!(!cache.matches_scan(&model, &partition, &lattice));
        cache.ensure_fresh(&model, &partition, &lattice, 2);
        assert_eq!(cache.epoch(), 2);
        cache.assert_matches_scan(&model, &partition, &lattice);
        // Same epoch again: no rebuild needed, still consistent.
        cache.ensure_fresh(&model, &partition, &lattice, 2);
        assert!(cache.matches_scan(&model, &partition, &lattice));
    }

    #[test]
    #[should_panic(expected = "MAX_KERNEL_REACTIONS = 64")]
    fn more_reactions_than_masks_track_rejected() {
        use psr_model::ModelBuilder;
        let mut builder = ModelBuilder::new(&["*", "A"]);
        for i in 0..=psr_kernel::MAX_KERNEL_REACTIONS {
            builder = builder.reaction(format!("r{i}"), 1.0, |r| {
                r.site((0, 0), "*", "A");
            });
        }
        let model = builder.build();
        let d = Dims::square(5);
        let partition = five_coloring(d);
        let lattice = Lattice::filled(d, 0);
        ChunkPropensityCache::new(&model, &partition, &lattice);
    }
}
