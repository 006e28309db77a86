//! Threaded execution of the Ω×T (type-partitioned) method.
//!
//! The Ω×T approach needs only **two** chunks (paper §5): each sweep
//! executes a *single* reaction type, and the checkerboard is conflict-free
//! per axis-pair type. Two chunks mean N/2 sites per parallel region and
//! only 2 barriers per step — better parallel efficiency than the 5-chunk
//! PNDCA at the cost of the burstier Ω×T kinetics.
//!
//! Safety mirrors [`crate::executor::ParallelPndca`], with the weaker
//! per-reaction precondition: during a sweep only one reaction type runs,
//! and `Partition::is_valid_for_reaction` guarantees the neighborhoods of
//! same-chunk anchors are disjoint *for that type*. Validated for every
//! (subset, type) pair at construction.

use rayon::prelude::*;

use crate::executor::fold_journals;
use crate::shared::SharedCells;
use psr_ca::tpndca::TypePartition;
use psr_dmc::recorder::Recorder;
use psr_dmc::rsm::RunStats;
use psr_dmc::sim::SimState;
use psr_kernel::{CompiledModel, SiteKernel};
use psr_lattice::{Change, Site};
use psr_model::Model;
use psr_rng::{AliasTable, StreamFactory};
use std::sync::Arc;

/// Threaded type-partitioned NDCA.
pub struct ParallelTPndca<'m> {
    model: &'m Model,
    types: TypePartition,
    subset_alias: AliasTable,
    member_alias: Vec<AliasTable>,
    pool: rayon::ThreadPool,
    threads: usize,
    factory: StreamFactory,
    step: u64,
    compiled: Arc<CompiledModel>,
    /// Lattice-bound kernel, bound on every run; shared read-only by the
    /// slices of a sweep and folded from their journals at the barrier.
    kernel: Option<SiteKernel>,
}

impl<'m> ParallelTPndca<'m> {
    /// Build the executor; validates the type partition (the per-reaction
    /// non-overlap rule, which is the safety precondition here).
    ///
    /// # Panics
    ///
    /// Panics if the type partition is invalid for `model`, or
    /// `threads == 0`.
    pub fn new(model: &'m Model, types: TypePartition, threads: usize, seed: u64) -> Self {
        assert!(threads > 0, "need at least one thread");
        types
            .validate(model)
            .unwrap_or_else(|e| panic!("invalid type partition: {e}"));
        let subset_rates: Vec<f64> = (0..types.num_subsets())
            .map(|j| types.subset_rate(model, j))
            .collect();
        let member_alias = types
            .subsets
            .iter()
            .map(|subset| {
                AliasTable::new(
                    &subset
                        .iter()
                        .map(|&ri| model.reaction(ri).rate())
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("failed to build thread pool");
        ParallelTPndca {
            model,
            subset_alias: AliasTable::new(&subset_rates),
            member_alias,
            types,
            pool,
            threads,
            factory: StreamFactory::new(seed),
            step: 0,
            compiled: Arc::new(CompiledModel::compile(model)),
            kernel: None,
        }
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `steps` steps (each: `|T|` subset draws, one parallel chunk
    /// sweep per draw).
    pub fn run_steps(
        &mut self,
        state: &mut SimState,
        steps: u64,
        mut recorder: Option<&mut Recorder>,
    ) -> RunStats {
        let mut stats = RunStats::default();
        let k_total = self.model.total_rate();
        let n = state.num_sites() as f64;
        let kernel = SiteKernel::bind(
            &mut self.kernel,
            &self.compiled,
            &state.lattice,
            state.mutation_epoch(),
        );
        if let Some(rec) = recorder.as_deref_mut() {
            rec.record(state.time, &state.coverage);
        }
        for _ in 0..steps {
            let mut draw_rng = self.factory.stream(0x4000_0000_0000_0000 | self.step);
            let mut trials_this_step = 0u64;
            for _ in 0..self.types.num_subsets() {
                let j = self.subset_alias.sample(&mut draw_rng);
                let member = self.member_alias[j].sample(&mut draw_rng);
                let ri = self.types.subsets[j][member];
                let partition = &self.types.partitions[j];
                let chunk_idx = draw_rng.index(partition.num_chunks());
                let chunk = partition.chunk(chunk_idx);

                let slice_len = chunk.len().div_ceil(self.threads).max(1);
                let slices: Vec<&[Site]> = chunk.chunks(slice_len).collect();
                let shared = SharedCells::new(state.lattice.cells_mut(), partition.dims());
                let (kernel_ref, shared_ref) = (&*kernel, &shared);

                let journals: Vec<(u64, Vec<Change>)> = self.pool.install(|| {
                    slices
                        .par_iter()
                        .map(|sites| {
                            let mut executed = 0u64;
                            let mut changes = Vec::new();
                            for &site in *sites {
                                // SAFETY (both closures): one reaction type
                                // per sweep and a per-reaction-valid
                                // partition — anchors' neighborhoods are
                                // pairwise disjoint, so concurrent access
                                // sets are disjoint.
                                executed += kernel_ref.fire(
                                    site,
                                    ri,
                                    |s| unsafe { shared_ref.get(s) },
                                    |s, new| {
                                        changes.push((s, unsafe { shared_ref.set(s, new) }, new))
                                    },
                                ) as u64;
                            }
                            (executed, changes)
                        })
                        .collect()
                });
                // The barrier: the lattice is quiescent, fold the journals.
                let writes: Vec<&[Change]> = journals.iter().map(|(_, c)| c.as_slice()).collect();
                fold_journals(&self.pool, kernel, &state.lattice, &slices, &writes);
                for (executed, changes) in &journals {
                    stats.executed += executed;
                    state.apply_changes(changes);
                }
                kernel.note_epoch(state.mutation_epoch());
                stats.trials += chunk.len() as u64;
                trials_this_step += chunk.len() as u64;
            }
            // Each trial is worth 1/(N·K) of simulated time.
            state.time += trials_this_step as f64 / (n * k_total);
            self.step += 1;
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record(state.time, &state.coverage);
            }
        }
        debug_assert!(kernel.matches_scan(self.model, &state.lattice));
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_ca::tpndca::axis_type_partition;
    use psr_lattice::{Dims, Lattice};
    use psr_model::library::zgb::zgb_ziff;

    #[test]
    fn runs_and_stays_consistent() {
        let model = zgb_ziff(0.45, 3.0);
        let dims = Dims::square(20);
        let tp = axis_type_partition(&model, dims);
        let mut exec = ParallelTPndca::new(&model, tp, 2, 7);
        let mut state = SimState::new(Lattice::filled(dims, 0), &model);
        let stats = exec.run_steps(&mut state, 20, None);
        assert!(stats.trials > 0);
        assert!(state.coverage.matches(&state.lattice));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let model = zgb_ziff(0.5, 2.0);
        let dims = Dims::square(10);
        let run = |seed| {
            let tp = axis_type_partition(&model, dims);
            let mut exec = ParallelTPndca::new(&model, tp, 3, seed);
            let mut state = SimState::new(Lattice::filled(dims, 0), &model);
            exec.run_steps(&mut state, 10, None);
            state.lattice
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn pool_fold_keeps_the_kernel_exact_for_any_thread_count() {
        // Half-lattice sweeps of an adsorption type journal far more writes
        // than the serial-fold threshold, so the barrier folds on the pool.
        let model = zgb_ziff(0.5, 0.2);
        let dims = Dims::square(150);
        let run = |threads| {
            let tp = axis_type_partition(&model, dims);
            let mut exec = ParallelTPndca::new(&model, tp, threads, 5);
            let mut state = SimState::new(Lattice::filled(dims, 0), &model);
            let stats = exec.run_steps(&mut state, 6, None);
            assert!(stats.executed > 20_000, "{}", stats.executed);
            let kernel = exec.kernel.as_ref().expect("bound by run_steps");
            kernel.assert_matches_scan(&model, &state.lattice);
            assert!(state.coverage.matches(&state.lattice));
            state.lattice
        };
        assert_eq!(run(3), run(1));
    }

    #[test]
    fn trials_per_step_sum_to_n() {
        // Each of the 2 subset draws sweeps one of 2 half-lattice chunks.
        let model = zgb_ziff(0.5, 2.0);
        let dims = Dims::square(10);
        let tp = axis_type_partition(&model, dims);
        let mut exec = ParallelTPndca::new(&model, tp, 2, 1);
        let mut state = SimState::new(Lattice::filled(dims, 0), &model);
        let stats = exec.run_steps(&mut state, 4, None);
        assert_eq!(stats.trials, 4 * 100);
    }

    #[test]
    #[should_panic(expected = "invalid type partition")]
    fn invalid_type_partition_rejected() {
        let model = zgb_ziff(0.5, 2.0);
        let dims = Dims::square(4);
        // A partition that is NOT valid for vertical pairs: rows.
        let labels: Vec<u32> = (0..16).map(|i| i / 4).collect();
        let rows = psr_ca::partition::Partition::from_labels(dims, &labels);
        let tp = psr_ca::tpndca::TypePartition {
            subsets: vec![(0..model.num_reactions()).collect()],
            partitions: vec![rows],
        };
        ParallelTPndca::new(&model, tp, 2, 0);
    }
}
