//! The Partitioned NDCA (paper §5).
//!
//! ```text
//! for each step
//!   choose a partition P;
//!   for all P_i ∈ P
//!     for each site s ∈ P_i
//!       1. select a reaction type with probability k_i / K;
//!       2. check if the reaction is enabled at s;
//!       3. if it is, execute it;
//!       4. advance the time;
//! ```
//!
//! Because the chunk is conflict-free, "for each site s ∈ P_i" can run in
//! parallel — that is what `psr-parallel` exploits. This module is the
//! sequential reference implementation, with the four chunk-selection
//! strategies of §5 ("Opportunities for improvements"):
//!
//! 1. all chunks in a predefined order,
//! 2. all chunks in random order,
//! 3. `|P|` random chunk draws with replacement (probability `1/|P|` each),
//! 4. weighted selection by the summed rates of enabled reactions per chunk.

use std::sync::Arc;

use crate::partition::Partition;
use crate::propensity::ChunkPropensityCache;
use psr_dmc::events::{Event, EventHook};
use psr_dmc::recorder::{drive_steps, drive_until, Recorder};
use psr_dmc::rsm::{RunStats, TimeMode};
use psr_dmc::sim::SimState;
use psr_kernel::{CompiledModel, SiteKernel};
use psr_lattice::Site;
use psr_model::Model;
use psr_rng::{exponential, sample::shuffle, AliasTable, SimRng};

/// Chunk-selection strategy (§5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkSelection {
    /// All chunks in index order, once per step.
    InOrder,
    /// All chunks exactly once per step, in a fresh random order.
    RandomOrder,
    /// `|P|` independent uniform draws per step (chunks may repeat/skip).
    RandomWithReplacement,
    /// `|P|` draws weighted by each chunk's summed enabled-reaction rate,
    /// served from the incremental [`ChunkPropensityCache`] (O(|P|) per
    /// draw, O(affected) per executed event).
    WeightedByRates,
}

impl std::fmt::Display for ChunkSelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ChunkSelection::InOrder => "in-order",
            ChunkSelection::RandomOrder => "random-order",
            ChunkSelection::RandomWithReplacement => "random-with-replacement",
            ChunkSelection::WeightedByRates => "weighted",
        })
    }
}

impl std::str::FromStr for ChunkSelection {
    type Err = String;

    /// Parse the kebab-case names printed by `Display` (batch spec files).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "in-order" => Ok(ChunkSelection::InOrder),
            "random-order" => Ok(ChunkSelection::RandomOrder),
            "random-with-replacement" => Ok(ChunkSelection::RandomWithReplacement),
            "weighted" => Ok(ChunkSelection::WeightedByRates),
            other => Err(format!(
                "unknown chunk selection {other:?} (expected in-order, random-order, \
                 random-with-replacement or weighted)"
            )),
        }
    }
}

/// PNDCA simulator over a fixed partition.
#[derive(Clone, Debug)]
pub struct Pndca<'m, 'p> {
    model: &'m Model,
    partition: &'p Partition,
    alias: AliasTable,
    time_mode: TimeMode,
    selection: ChunkSelection,
    /// Incremental chunk weights, built lazily on the first weighted step.
    cache: Option<ChunkPropensityCache>,
    compiled: Arc<CompiledModel>,
    /// Lattice-bound kernel, bound on every step.
    kernel: Option<SiteKernel>,
}

impl<'m, 'p> Pndca<'m, 'p> {
    /// PNDCA with in-order chunk sweeps and discretised time.
    ///
    /// The partition is not required to satisfy the non-overlap
    /// restriction: this sequential reference implementation is well
    /// defined on any cover. Conflict-freedom is what makes the chunk
    /// sweep *parallelisable*, and `psr-parallel` enforces it before
    /// spawning threads.
    pub fn new(model: &'m Model, partition: &'p Partition) -> Self {
        Pndca {
            model,
            partition,
            alias: AliasTable::new(&model.rate_weights()),
            time_mode: TimeMode::Discretized,
            selection: ChunkSelection::InOrder,
            cache: None,
            compiled: Arc::new(CompiledModel::compile(model)),
            kernel: None,
        }
    }

    /// Select the chunk-selection strategy.
    ///
    /// # Panics
    ///
    /// Panics for [`ChunkSelection::WeightedByRates`] if the model fails
    /// [`psr_kernel::require_masks`]: chunk weights are counted from
    /// enabled-set masks.
    pub fn with_selection(mut self, selection: ChunkSelection) -> Self {
        if selection == ChunkSelection::WeightedByRates {
            psr_kernel::require_masks(self.model.num_reactions()).unwrap_or_else(|e| panic!("{e}"));
        }
        self.selection = selection;
        self
    }

    /// Select the time-advance mode.
    pub fn with_time_mode(mut self, mode: TimeMode) -> Self {
        self.time_mode = mode;
        self
    }

    /// The partition in use.
    pub fn partition(&self) -> &Partition {
        self.partition
    }

    /// Simulate one chunk: one trial per site, sweeping the chunk.
    ///
    /// When a propensity cache is passed, every executed reaction's changes
    /// are folded into it too, keeping the chunk weights exact as the sweep
    /// proceeds. `nk` and `dt_disc` are the loop-invariant `N·K` and
    /// `1/(N·K)` hoisted by the caller.
    #[allow(clippy::too_many_arguments)]
    fn sweep_chunk(
        &self,
        chunk: usize,
        state: &mut SimState,
        rng: &mut SimRng,
        changes: &mut Vec<(Site, u8, u8)>,
        stats: &mut RunStats,
        hook: &mut impl EventHook,
        mut cache: Option<&mut ChunkPropensityCache>,
        kernel: &mut SiteKernel,
        nk: f64,
        dt_disc: f64,
    ) {
        for &site in self.partition.chunk(chunk) {
            let reaction = self.alias.sample(rng);
            let executed = state.fire(kernel, site, reaction, changes);
            if executed {
                if let Some(c) = cache.as_deref_mut() {
                    c.apply_changes(kernel, self.partition, changes);
                    c.note_epoch(state.mutation_epoch());
                }
            }
            state.time += match self.time_mode {
                TimeMode::Stochastic => exponential(rng, nk),
                TimeMode::Discretized => dt_disc,
            };
            stats.trials += 1;
            stats.executed += executed as u64;
            hook.on_event(Event {
                time: state.time,
                site,
                reaction,
                executed,
            });
        }
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

    /// Run one PNDCA step (each strategy performs `|P|` chunk sweeps).
    pub fn step(
        &mut self,
        state: &mut SimState,
        rng: &mut SimRng,
        hook: &mut impl EventHook,
    ) -> RunStats {
        let mut stats = RunStats::default();
        let mut changes = Vec::with_capacity(4);
        let m = self.partition.num_chunks();
        let nk = state.num_sites() as f64 * self.model.total_rate();
        let dt_disc = 1.0 / nk;
        // Detached while sweeping so `sweep_chunk` can borrow `self`.
        let mut slot = self.kernel.take();
        let kernel = SiteKernel::bind(
            &mut slot,
            &self.compiled,
            &state.lattice,
            state.mutation_epoch(),
        );
        let mut cache = (self.selection == ChunkSelection::WeightedByRates)
            .then(|| self.take_fresh_cache(state));
        let mut order: Vec<usize> = (0..m).collect();
        if self.selection == ChunkSelection::RandomOrder {
            shuffle(rng, &mut order);
        }
        let mut weights = Vec::new();
        for &scheduled in &order {
            let chunk = match (&cache, self.selection) {
                (Some(cache), _) => {
                    cache.weights_into(&mut weights);
                    crate::propensity::draw_weighted(rng, &weights)
                }
                (None, ChunkSelection::RandomWithReplacement) => rng.index(m),
                (None, _) => scheduled,
            };
            self.sweep_chunk(
                chunk,
                state,
                rng,
                &mut changes,
                &mut stats,
                hook,
                cache.as_mut(),
                kernel,
                nk,
                dt_disc,
            );
        }
        if let Some(cache) = cache {
            #[cfg(debug_assertions)]
            cache.assert_matches_scan(self.model, self.partition, &state.lattice);
            self.cache = Some(cache);
        }
        self.kernel = slot;
        stats
    }

    /// Run `steps` PNDCA steps with optional coverage recording.
    pub fn run_steps(
        &mut self,
        state: &mut SimState,
        rng: &mut SimRng,
        steps: u64,
        recorder: Option<&mut Recorder>,
        hook: &mut impl EventHook,
    ) -> RunStats {
        let stats = drive_steps(state, steps, recorder, |state| self.step(state, rng, hook));
        debug_assert!(state.agrees_with(&self.kernel, self.model));
        stats
    }

    /// Run whole steps until the clock reaches `t_end`.
    pub fn run_until(
        &mut self,
        state: &mut SimState,
        rng: &mut SimRng,
        t_end: f64,
        recorder: Option<&mut Recorder>,
        hook: &mut impl EventHook,
    ) -> RunStats {
        let k = self.model.total_rate();
        let stats = drive_until(state, t_end, k, recorder, |state| {
            self.step(state, rng, hook)
        });
        debug_assert!(state.agrees_with(&self.kernel, self.model));
        stats
    }
}

/// Run `steps` steps cycling through several PNDCA instances (one per
/// partition) — the paper's "choose a partition P" step (§5), analogous to
/// the shifting blocks of a BCA. Step `k` uses `pndcas[k % len]`.
///
/// # Panics
///
/// Panics if `pndcas` is empty.
pub fn run_alternating(
    pndcas: &mut [Pndca<'_, '_>],
    state: &mut SimState,
    rng: &mut SimRng,
    steps: u64,
    recorder: Option<&mut Recorder>,
    hook: &mut impl EventHook,
) -> RunStats {
    assert!(!pndcas.is_empty(), "need at least one partition");
    let mut k = 0;
    drive_steps(state, steps, recorder, |state| {
        let stats = pndcas[k % pndcas.len()].step(state, rng, hook);
        k += 1;
        stats
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_builder::five_coloring;
    use psr_dmc::events::NoHook;
    use psr_lattice::{Dims, Lattice};
    use psr_model::library::zgb::zgb_ziff;
    use psr_model::ModelBuilder;
    use psr_rng::rng_from_seed;

    fn adsorption(rate: f64) -> Model {
        ModelBuilder::new(&["*", "A"])
            .reaction("ads", rate, |r| {
                r.site((0, 0), "*", "A");
            })
            .build()
    }

    #[test]
    fn ordered_step_visits_each_site_once() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let partition = five_coloring(d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(1);
        let mut pndca = Pndca::new(&model, &partition);
        let mut visits = vec![0u32; 100];
        pndca.step(&mut state, &mut rng, &mut |e: Event| {
            visits[e.site.0 as usize] += 1;
        });
        assert!(visits.iter().all(|&v| v == 1));
    }

    #[test]
    fn random_order_visits_each_site_once_per_step() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let partition = five_coloring(d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(2);
        let mut pndca = Pndca::new(&model, &partition).with_selection(ChunkSelection::RandomOrder);
        let mut visits = vec![0u32; 100];
        pndca.step(&mut state, &mut rng, &mut |e: Event| {
            visits[e.site.0 as usize] += 1;
        });
        assert!(visits.iter().all(|&v| v == 1));
    }

    #[test]
    fn with_replacement_does_n_trials_but_may_skip_chunks() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let partition = five_coloring(d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(3);
        let mut pndca =
            Pndca::new(&model, &partition).with_selection(ChunkSelection::RandomWithReplacement);
        let stats = pndca.step(&mut state, &mut rng, &mut NoHook);
        assert_eq!(stats.trials, 100, "5 draws × 20-site chunks");
    }

    #[test]
    fn weighted_selection_runs() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let partition = five_coloring(d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(4);
        let mut pndca =
            Pndca::new(&model, &partition).with_selection(ChunkSelection::WeightedByRates);
        let stats = pndca.run_steps(&mut state, &mut rng, 3, None, &mut NoHook);
        assert_eq!(stats.trials, 300);
        assert!(state.coverage.matches(&state.lattice));
    }

    #[test]
    fn langmuir_kinetics_close_to_analytic_with_diluted_rates() {
        // Like NDCA, PNDCA visits each site once per step; its kinetics
        // approach the ME when k_i/K per visit is small. Dilute with a
        // null reaction so the per-visit success probability is 0.01.
        let model = ModelBuilder::new(&["*", "A"])
            .reaction("ads", 1.0, |r| {
                r.site((0, 0), "*", "A");
            })
            .reaction("null", 99.0, |r| {
                r.site((0, 0), "*", "*");
            })
            .build();
        let d = Dims::square(50);
        let partition = five_coloring(d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(5);
        let mut pndca = Pndca::new(&model, &partition);
        pndca.run_until(&mut state, &mut rng, 1.0, None, &mut NoHook);
        let theta = state.coverage.fraction(1);
        let expected = 1.0 - (-1.0f64).exp();
        assert!(
            (theta - expected).abs() < 0.03,
            "PNDCA coverage {theta} vs analytic {expected}"
        );
    }

    #[test]
    fn one_step_advances_one_over_k() {
        let model = adsorption(4.0);
        let d = Dims::square(10);
        let partition = five_coloring(d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(6);
        Pndca::new(&model, &partition).run_steps(&mut state, &mut rng, 8, None, &mut NoHook);
        assert!((state.time - 8.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn zgb_coverage_consistent_after_run() {
        let model = zgb_ziff(0.45, 3.0);
        let d = Dims::square(20);
        let partition = five_coloring(d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(7);
        let mut pndca = Pndca::new(&model, &partition).with_selection(ChunkSelection::RandomOrder);
        pndca.run_steps(&mut state, &mut rng, 20, None, &mut NoHook);
        assert!(state.coverage.matches(&state.lattice));
    }

    #[test]
    fn alternating_partitions_cycle() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let p1 = five_coloring(d);
        let p2 = crate::partition_builder::five_coloring_alt(d);
        let mut pndcas = [Pndca::new(&model, &p1), Pndca::new(&model, &p2)];
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(8);
        let stats = run_alternating(&mut pndcas, &mut state, &mut rng, 4, None, &mut NoHook);
        assert_eq!(stats.trials, 400);
        assert!(state.coverage.matches(&state.lattice));
    }
}
