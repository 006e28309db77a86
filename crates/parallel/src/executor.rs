//! The threaded PNDCA executor.
//!
//! One PNDCA step sweeps the chunks of the partition; within a chunk every
//! site gets one trial. Because same-chunk neighborhoods are disjoint
//! (partition restriction, verified on construction), the chunk sweep is
//! embarrassingly parallel: the chunk's site list is split into one slice
//! per worker and the slices run concurrently over a [`SharedCells`] view
//! of the lattice. A barrier (the join of the thread scope) separates chunks,
//! mirroring the paper's "updates in the same partition can be done
//! simultaneously".
//!
//! Every slice runs the one trial body, [`SiteKernel::fire`], against one
//! tracked kernel shared read-only across the slices: same-chunk
//! neighborhoods are disjoint, so no trial of a sweep can change what
//! another one's mask says. The slices journal their writes and the
//! barrier folds the journals into the kernel against the quiescent
//! lattice — one thread per slice, each slice's journal into its own range
//! of anchors ([`fold_journals`]) — and then, on the calling thread, into
//! the coverage and the weighted selection's propensity cache.
//!
//! Determinism: every *trial* gets its own RNG stream, keyed by
//! `(step, sweep position, site)` and derived from the master seed. Within
//! one chunk sweep the trials are order-independent (disjoint
//! neighborhoods) and their draws are keyed by the site, not the executing
//! thread — so results are a pure function of `(seed, partition)` alone,
//! regardless of thread count, OS scheduling, or how a sharded executor
//! splits the same partition across domains (psr-shard pins this with a
//! differential test).

use crate::fork_join;
use crate::shared::{Claim, ClaimTable, SharedCells};
use psr_ca::partition::Partition;
use psr_ca::pndca::ChunkSelection;
use psr_ca::propensity::{draw_weighted, ChunkPropensityCache};
use psr_dmc::recorder::Recorder;
use psr_dmc::rsm::RunStats;
use psr_dmc::sim::SimState;
use psr_kernel::{CompiledModel, SiteKernel};
use psr_lattice::{Change, Lattice, Site};
use psr_model::Model;
use psr_rng::{AliasTable, Pcg32, StreamFactory};
use std::sync::Arc;

/// Outcome of one slice sweep (and, summed, of one chunk sweep).
#[derive(Default)]
struct SliceOutcome {
    trials: u64,
    executed: u64,
    conflicts: u64,
    /// Journal of `(site, old, new)` writes, folded at the chunk barrier.
    changes: Vec<Change>,
}

/// Threaded PNDCA over a conflict-free partition.
pub struct ParallelPndca<'m, 'p> {
    model: &'m Model,
    partition: &'p Partition,
    threads: usize,
    alias: AliasTable,
    factory: StreamFactory,
    /// The claim table of checked mode; `None` runs unchecked.
    claims: Option<ClaimTable>,
    step: u64,
    conflicts: u64,
    selection: ChunkSelection,
    /// Incremental chunk weights for `WeightedByRates`, built lazily.
    cache: Option<ChunkPropensityCache>,
    compiled: Arc<CompiledModel>,
    /// Lattice-bound kernel, bound on every run.
    kernel: Option<SiteKernel>,
}

impl<'m, 'p> ParallelPndca<'m, 'p> {
    /// Build an executor with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if the partition violates the non-overlap restriction for
    /// `model` (this is the safety precondition of the unsafe shared-memory
    /// sweep, so it is enforced in all build profiles) or if `threads == 0`.
    pub fn new(model: &'m Model, partition: &'p Partition, threads: usize, seed: u64) -> Self {
        assert!(
            partition.is_valid_for(model),
            "partition violates the non-overlap restriction; \
             parallel execution would race"
        );
        // SAFETY: the partition was just validated.
        unsafe { Self::new_unvalidated(model, partition, threads, seed) }
    }

    /// Build an executor that *skips* the partition validation — only for
    /// failure-injection tests of the claim table.
    ///
    /// # Safety
    ///
    /// Running an invalid partition unchecked is a data race; callers must
    /// enable checked mode and treat the lattice as poisoned afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub unsafe fn new_unvalidated(
        model: &'m Model,
        partition: &'p Partition,
        threads: usize,
        seed: u64,
    ) -> Self {
        assert!(threads > 0, "need at least one thread");
        ParallelPndca {
            model,
            partition,
            threads,
            alias: AliasTable::new(&model.rate_weights()),
            factory: StreamFactory::new(seed),
            claims: None,
            step: 0,
            conflicts: 0,
            selection: ChunkSelection::InOrder,
            cache: None,
            compiled: Arc::new(CompiledModel::compile(model)),
            kernel: None,
        }
    }

    /// Enable the atomic claim table that dynamically verifies neighborhood
    /// disjointness (slower; for tests and debugging).
    pub fn with_conflict_checking(mut self) -> Self {
        self.claims = Some(ClaimTable::new(self.partition.dims().sites() as usize));
        self
    }

    /// Select any of the four §5 chunk-selection strategies. Every strategy
    /// keeps the executor deterministic: the chunk sequence is driven by
    /// dedicated per-step RNG streams and the trial streams are keyed by
    /// sweep *position* and site, so results remain a pure function of
    /// `(seed, partition)` even when weighted selection repeats a chunk
    /// within one step.
    pub fn with_selection(mut self, selection: ChunkSelection) -> Self {
        self.selection = selection;
        self
    }

    /// Conflicts detected by the claim table so far (0 unless the partition
    /// was invalid and validation was bypassed).
    pub fn conflicts_detected(&self) -> u64 {
        self.conflicts
    }

    /// Completed steps.
    pub fn steps_done(&self) -> u64 {
        self.step
    }

    /// Build (or refresh) the propensity cache for the current lattice.
    fn take_fresh_cache(&mut self, state: &SimState) -> ChunkPropensityCache {
        let mut cache = self.cache.take().unwrap_or_else(|| {
            let mut c = ChunkPropensityCache::new(self.model, self.partition, &state.lattice);
            c.note_epoch(state.mutation_epoch());
            c
        });
        cache.ensure_fresh(
            self.model,
            self.partition,
            &state.lattice,
            state.mutation_epoch(),
        );
        cache
    }

    /// Run `steps` parallel PNDCA steps.
    pub fn run_steps(
        &mut self,
        state: &mut SimState,
        steps: u64,
        mut recorder: Option<&mut Recorder>,
    ) -> RunStats {
        let mut stats = RunStats::default();
        let k_total = self.model.total_rate();
        let m = self.partition.num_chunks();
        // Detached while sweeping so the chunk sweep can borrow `self`.
        let mut slot = self.kernel.take();
        let kernel = SiteKernel::bind(
            &mut slot,
            &self.compiled,
            &state.lattice,
            state.mutation_epoch(),
        );
        if let Some(rec) = recorder.as_deref_mut() {
            rec.record(state.time, &state.coverage);
        }
        for _ in 0..steps {
            // The step's chunk draws come from dedicated per-step streams;
            // weighted draws depend on the weights after the previous sweep,
            // so they interleave with the chunk barriers.
            let mut cache = (self.selection == ChunkSelection::WeightedByRates)
                .then(|| self.take_fresh_cache(state));
            let mut order: Vec<usize> = (0..m).collect();
            let mut draw_rng = self.factory.stream(draw_stream_id(self.step));
            match self.selection {
                ChunkSelection::RandomOrder => {
                    let mut rng = self.factory.stream(shuffle_stream_id(self.step));
                    psr_rng::sample::shuffle(&mut rng, &mut order);
                }
                ChunkSelection::RandomWithReplacement => {
                    order.fill_with(|| draw_rng.index(m));
                }
                ChunkSelection::InOrder | ChunkSelection::WeightedByRates => {}
            }
            let mut weights = Vec::new();
            for (position, &scheduled) in order.iter().enumerate() {
                let chunk_idx = match &cache {
                    Some(cache) => {
                        cache.weights_into(&mut weights);
                        draw_weighted(&mut draw_rng, &weights)
                    }
                    None => scheduled,
                };
                let slices = self.slices_of(chunk_idx);
                let outcomes = self.sweep_chunk_parallel(kernel, state, &slices, position);
                // The barrier: the lattice is quiescent, fold the journals.
                let journals: Vec<&[Change]> =
                    outcomes.iter().map(|o| o.changes.as_slice()).collect();
                fold_journals(kernel, &state.lattice, &slices, &journals);
                for outcome in &outcomes {
                    stats.trials += outcome.trials;
                    stats.executed += outcome.executed;
                    self.conflicts += outcome.conflicts;
                    state.apply_changes(&outcome.changes);
                }
                kernel.note_epoch(state.mutation_epoch());
                if let Some(cache) = &mut cache {
                    for outcome in &outcomes {
                        cache.apply_changes(kernel, self.partition, &outcome.changes);
                    }
                    cache.note_epoch(state.mutation_epoch());
                }
                if let Some(claims) = &self.claims {
                    claims.clear();
                }
            }
            if let Some(cache) = cache {
                #[cfg(debug_assertions)]
                cache.assert_matches_scan(self.model, self.partition, &state.lattice);
                self.cache = Some(cache);
            }
            // Discretised time: one step = N trials of 1/(N·K) each = 1/K,
            // applied once per step (no float accumulation across trials).
            state.time += 1.0 / k_total;
            self.step += 1;
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record(state.time, &state.coverage);
            }
        }
        debug_assert!(kernel.matches_scan(self.model, &state.lattice));
        self.kernel = slot;
        stats
    }

    /// The chunk's site list cut into one contiguous slice per worker.
    fn slices_of(&self, chunk_idx: usize) -> Vec<&'p [Site]> {
        let chunk = self.partition.chunk(chunk_idx);
        let slice_len = chunk.len().div_ceil(self.threads);
        chunk.chunks(slice_len.max(1)).collect()
    }

    fn sweep_chunk_parallel(
        &self,
        kernel: &SiteKernel,
        state: &mut SimState,
        slices: &[&[Site]],
        position: usize,
    ) -> Vec<SliceOutcome> {
        let shared = SharedCells::new(state.lattice.cells_mut(), self.partition.dims());
        // Keyed by sweep *position*, not chunk id: weighted selection and
        // with-replacement draws can sweep the same chunk twice in a step,
        // and each sweep must consume fresh streams.
        let base_stream = trial_stream_base(
            self.step,
            self.partition.num_chunks(),
            position,
            self.partition.num_sites(),
        );
        fork_join(slices.to_vec(), |sites| {
            self.sweep_slice(kernel, &shared, sites, base_stream)
        })
    }

    /// One slice sweep: one trial per site against the shared lattice, each
    /// trial on its own site-keyed stream.
    fn sweep_slice(
        &self,
        kernel: &SiteKernel,
        shared: &SharedCells<'_>,
        sites: &[Site],
        base_stream: u64,
    ) -> SliceOutcome {
        let dims = shared.dims();
        let mut outcome = SliceOutcome::default();
        for &site in sites {
            let mut rng: Pcg32 = self.factory.stream(base_stream + site.0 as u64);
            let reaction = self.alias.sample(&mut rng);
            outcome.trials += 1;

            if let Some(table) = &self.claims {
                let mut ok = true;
                for t in self.model.reaction(reaction).transforms() {
                    let target = dims.translate(site, t.offset);
                    if let Claim::Conflict { .. } = table.claim(target, site) {
                        outcome.conflicts += 1;
                        ok = false;
                    }
                }
                if !ok {
                    continue;
                }
            }

            let changes = &mut outcome.changes;
            // SAFETY (both closures): the kernel touches only Nb(site);
            // `site` belongs to the chunk being swept and no other
            // concurrent slice holds a site whose neighborhood intersects
            // Nb(site) — guaranteed by the partition validation in
            // `ParallelPndca::new` (or detected by the claim table above
            // when validation was bypassed).
            let executed = kernel.fire(
                site,
                reaction,
                |s| unsafe { shared.get(s) },
                |s, new| changes.push((s, unsafe { shared.set(s, new) }, new)),
            );
            outcome.executed += executed as u64;
        }
        outcome
    }
}

/// Below this many journaled writes a chunk barrier folds them on the
/// calling thread: a fork-join costs about as much as folding them.
const MIN_PARALLEL_FOLD: usize = 2048;

/// The chunk barrier's kernel fold. Slice `t` swept `slices[t]`, a
/// contiguous run of the chunk's (ascending) site list, so its journal
/// lands almost entirely on the anchors between its first site and the next
/// slice's first: each such range folds its own journal on its own thread,
/// and only the entries that reach across a range border are left for the
/// calling thread — the serial part of a barrier is the border, not the
/// sweep's executed trials. Correct for any site order; an unsorted chunk
/// merely leaves more to the tail.
fn fold_journals(
    kernel: &mut SiteKernel,
    lattice: &Lattice,
    slices: &[&[Site]],
    journals: &[&[Change]],
) {
    if journals.iter().map(|j| j.len()).sum::<usize>() < MIN_PARALLEL_FOLD {
        for journal in journals {
            kernel.apply_changes(lattice, journal);
        }
        return;
    }
    let mut bound = 0;
    let bounds: Vec<u32> = slices[1..]
        .iter()
        .map(|sites| {
            bound = bound.max(sites[0].0);
            bound
        })
        .collect();
    let work: Vec<_> = kernel
        .split_anchors(&bounds)
        .into_iter()
        .zip(journals)
        .collect();
    let tails = fork_join(work, |(mut range, journal)| {
        let mut tail = Vec::new();
        range.apply_changes(lattice, journal, &mut tail);
        (range.sites(), tail)
    });
    for (sites, tail) in tails {
        kernel.apply_changes_outside(lattice, &tail, sites);
    }
}

/// Stream id for the chunk-order shuffle of a step (the high bit keeps it
/// disjoint from the trial streams, which grow from 1).
pub fn shuffle_stream_id(step: u64) -> u64 {
    0x8000_0000_0000_0000 | step
}

/// Stream id for the per-step chunk draws (weighted or with-replacement);
/// bits 63..62 keep it disjoint from both the shuffle and trial streams.
pub fn draw_stream_id(step: u64) -> u64 {
    0xC000_0000_0000_0000 | step
}

/// First trial stream id of one chunk sweep: the trial at global `site`
/// during sweep `position` of `step` draws from stream `base + site.0`.
///
/// Keying by `(step, position, site)` — never by thread or domain — is the
/// determinism contract shared with the sharded executor: any executor
/// sweeping the same `(seed, partition)` consumes identical randomness per
/// site and therefore produces identical trajectories.
pub fn trial_stream_base(step: u64, num_chunks: usize, position: usize, num_sites: usize) -> u64 {
    1 + (step * num_chunks as u64 + position as u64) * num_sites as u64
}

/// Apply a net coverage delta vector (summing to zero) as transitions.
pub fn apply_coverage_deltas(coverage: &mut psr_lattice::Coverage, deltas: &[i64]) {
    debug_assert_eq!(deltas.iter().sum::<i64>(), 0, "deltas must balance");
    let mut gains: Vec<(u8, i64)> = Vec::new();
    let mut losses: Vec<(u8, i64)> = Vec::new();
    for (species, &d) in deltas.iter().enumerate() {
        if d > 0 {
            gains.push((species as u8, d));
        } else if d < 0 {
            losses.push((species as u8, -d));
        }
    }
    let (mut gi, mut li) = (0, 0);
    while gi < gains.len() && li < losses.len() {
        let moved = gains[gi].1.min(losses[li].1);
        for _ in 0..moved {
            coverage.transition(losses[li].0, gains[gi].0);
        }
        gains[gi].1 -= moved;
        losses[li].1 -= moved;
        if gains[gi].1 == 0 {
            gi += 1;
        }
        if losses[li].1 == 0 {
            li += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_ca::partition_builder::{checkerboard, five_coloring};
    use psr_lattice::{Dims, Lattice};
    use psr_model::library::zgb::zgb_ziff;
    use psr_model::ModelBuilder;

    fn diluted_adsorption() -> Model {
        ModelBuilder::new(&["*", "A"])
            .reaction("ads", 1.0, |r| {
                r.site((0, 0), "*", "A");
            })
            .reaction("null", 99.0, |r| {
                r.site((0, 0), "*", "*");
            })
            .build()
    }

    #[test]
    fn parallel_langmuir_matches_analytic() {
        let model = diluted_adsorption();
        let d = Dims::square(50);
        let p = five_coloring(d);
        let mut exec = ParallelPndca::new(&model, &p, 2, 42);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        // K = 100, one step = 0.01 time units; 100 steps → t = 1.
        exec.run_steps(&mut state, 100, None);
        let theta = state.coverage.fraction(1);
        let expected = 1.0 - (-1.0f64).exp();
        assert!(
            (theta - expected).abs() < 0.03,
            "parallel coverage {theta} vs analytic {expected}"
        );
        assert!(state.coverage.matches(&state.lattice));
        assert!((state.time - 1.0).abs() < 1e-9);
    }

    #[test]
    fn barrier_fold_on_the_pool_keeps_the_kernel_exact() {
        // Big enough that a chunk sweep journals more than
        // MIN_PARALLEL_FOLD writes, so the barrier forks its fold; the
        // side is not a multiple of the slice count, so range borders cut
        // through lattice rows.
        let model = zgb_ziff(0.5, 0.2);
        let d = Dims::square(250);
        let p = five_coloring(d);
        let run = |threads: usize| {
            let mut exec = ParallelPndca::new(&model, &p, threads, 11);
            let mut state = SimState::new(Lattice::filled(d, 0), &model);
            let stats = exec.run_steps(&mut state, 3, None);
            assert!(
                stats.executed as usize > 3 * p.num_chunks() * MIN_PARALLEL_FOLD,
                "{}",
                stats.executed
            );
            let kernel = exec.kernel.as_ref().expect("bound by run_steps");
            kernel.assert_matches_scan(&model, &state.lattice);
            assert!(state.coverage.matches(&state.lattice));
            state.lattice
        };
        let serial_fold = run(1);
        assert_eq!(run(3), serial_fold);
        assert_eq!(run(7), serial_fold);
    }

    #[test]
    fn deterministic_for_fixed_seed_and_threads() {
        let model = zgb_ziff(0.5, 3.0);
        let d = Dims::square(20);
        let p = five_coloring(d);
        let run = |seed: u64| {
            let mut exec = ParallelPndca::new(&model, &p, 3, seed);
            let mut state = SimState::new(Lattice::filled(d, 0), &model);
            exec.run_steps(&mut state, 10, None);
            state.lattice
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn trajectories_invariant_of_thread_count() {
        // Trial streams are keyed by (step, position, site), so the thread
        // count changes only the work split, never the trajectory — the
        // same contract the sharded executor relies on.
        let model = zgb_ziff(0.5, 3.0);
        let d = Dims::square(20);
        let p = five_coloring(d);
        let run = |threads: usize, selection: ChunkSelection| {
            let mut exec = ParallelPndca::new(&model, &p, threads, 13).with_selection(selection);
            let mut state = SimState::new(Lattice::filled(d, 0), &model);
            exec.run_steps(&mut state, 12, None);
            state.lattice
        };
        for selection in [
            ChunkSelection::InOrder,
            ChunkSelection::RandomOrder,
            ChunkSelection::RandomWithReplacement,
            ChunkSelection::WeightedByRates,
        ] {
            let reference = run(1, selection);
            for threads in [2, 3, 8] {
                assert_eq!(run(threads, selection), reference, "{selection:?}");
            }
        }
    }

    #[test]
    fn trials_count_is_n_per_step() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let p = five_coloring(d);
        let mut exec = ParallelPndca::new(&model, &p, 4, 1);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let stats = exec.run_steps(&mut state, 5, None);
        assert_eq!(stats.trials, 500);
        assert_eq!(exec.steps_done(), 5);
    }

    #[test]
    fn valid_partition_never_conflicts_under_checking() {
        let model = zgb_ziff(0.5, 3.0);
        let d = Dims::square(20);
        let p = five_coloring(d);
        let mut exec = ParallelPndca::new(&model, &p, 4, 11).with_conflict_checking();
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        exec.run_steps(&mut state, 20, None);
        assert_eq!(exec.conflicts_detected(), 0);
        assert!(state.coverage.matches(&state.lattice));
    }

    #[test]
    fn failure_injection_invalid_partition_is_caught() {
        // The checkerboard violates the restriction for ZGB's pair
        // reactions: adjacent anchors share pattern sites. The claim table
        // must detect this.
        let model = zgb_ziff(0.5, 3.0);
        let d = Dims::square(20);
        let p = checkerboard(d);
        assert!(!p.is_valid_for(&model));
        // SAFETY: checked mode skips every trial whose claims conflict, so
        // no overlapping unsafe access actually happens.
        let mut exec =
            unsafe { ParallelPndca::new_unvalidated(&model, &p, 4, 5) }.with_conflict_checking();
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        exec.run_steps(&mut state, 20, None);
        assert!(
            exec.conflicts_detected() > 0,
            "claim table failed to detect the injected partition violation"
        );
    }

    #[test]
    #[should_panic(expected = "non-overlap restriction")]
    fn invalid_partition_rejected_at_construction() {
        let model = zgb_ziff(0.5, 3.0);
        let d = Dims::square(10);
        let p = checkerboard(d);
        ParallelPndca::new(&model, &p, 2, 0);
    }

    #[test]
    fn random_chunk_order_still_consistent() {
        let model = zgb_ziff(0.4, 2.0);
        let d = Dims::square(15);
        let p = five_coloring(d);
        let mut exec =
            ParallelPndca::new(&model, &p, 2, 3).with_selection(ChunkSelection::RandomOrder);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        exec.run_steps(&mut state, 10, None);
        assert!(state.coverage.matches(&state.lattice));
    }

    #[test]
    fn weighted_selection_deterministic_and_consistent() {
        // WeightedByRates results must stay a pure function of
        // (seed, partition, threads); the debug-build assert_matches_scan
        // inside run_steps verifies the barrier-merged cache as well.
        let model = zgb_ziff(0.5, 3.0);
        let d = Dims::square(20);
        let p = five_coloring(d);
        let run = |seed: u64| {
            let mut exec = ParallelPndca::new(&model, &p, 3, seed)
                .with_selection(ChunkSelection::WeightedByRates);
            let mut state = SimState::new(Lattice::filled(d, 0), &model);
            let stats = exec.run_steps(&mut state, 10, None);
            // |P| = 5 weighted sweeps of one 80-site chunk per step.
            assert_eq!(stats.trials, 10 * 400);
            assert!(state.coverage.matches(&state.lattice));
            state.lattice
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn weighted_selection_thread_count_changes_streams_not_safety() {
        let model = zgb_ziff(0.5, 3.0);
        let d = Dims::square(20);
        let p = five_coloring(d);
        for threads in [1, 2, 4] {
            let mut exec = ParallelPndca::new(&model, &p, threads, 5)
                .with_selection(ChunkSelection::WeightedByRates)
                .with_conflict_checking();
            let mut state = SimState::new(Lattice::filled(d, 0), &model);
            exec.run_steps(&mut state, 8, None);
            assert_eq!(exec.conflicts_detected(), 0);
            assert!(state.coverage.matches(&state.lattice));
        }
    }

    #[test]
    fn single_thread_executor_works() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let p = five_coloring(d);
        let mut exec = ParallelPndca::new(&model, &p, 1, 9);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let stats = exec.run_steps(&mut state, 3, None);
        assert_eq!(stats.trials, 300);
        assert!(state.coverage.matches(&state.lattice));
    }

    #[test]
    fn recorder_receives_step_samples() {
        let model = diluted_adsorption();
        let d = Dims::square(20);
        let p = five_coloring(d);
        let mut exec = ParallelPndca::new(&model, &p, 2, 21);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rec = psr_dmc::recorder::Recorder::new(2, 0.05);
        exec.run_steps(&mut state, 10, Some(&mut rec));
        // K = 100 → one step = 0.01; grid 0.05 hits every 5th step.
        assert_eq!(rec.series(0).len(), 3); // t = 0, 0.05, 0.10
    }

    #[test]
    fn more_threads_than_chunk_sites_is_fine() {
        // 5x5 lattice: chunks of 5 sites, 8 threads — slices degenerate
        // to one site each and the executor must still be correct.
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(5);
        let p = five_coloring(d);
        let mut exec = ParallelPndca::new(&model, &p, 8, 2);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let stats = exec.run_steps(&mut state, 4, None);
        assert_eq!(stats.trials, 100);
        assert!(state.coverage.matches(&state.lattice));
    }
}
