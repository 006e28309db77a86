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

use crate::partition::Partition;
use crate::propensity::draw_weighted;
use crate::sweep::{CaSweep, Sites, StepSchedule, Trials};
use psr_dmc::events::EventHook;
use psr_model::Model;
use psr_rng::sample::shuffle;

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
    /// from the per-chunk counts the kernel keeps beside its masks
    /// ([`psr_kernel::SiteKernel::attach_counts`]): O(|P|) per draw, nothing
    /// extra per executed event.
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

/// PNDCA's schedule: one segment per chunk sweep, `|P|` per step.
#[derive(Clone, Debug)]
pub struct Chunks<'p> {
    partition: &'p Partition,
    selection: ChunkSelection,
}

/// PNDCA simulator over a fixed partition.
pub type Pndca<'m, 'p> = CaSweep<'m, Chunks<'p>>;

impl<'m, 'p> Pndca<'m, 'p> {
    /// PNDCA with in-order chunk sweeps and discretised time.
    ///
    /// The partition is not required to satisfy the non-overlap
    /// restriction: this sequential reference implementation is well
    /// defined on any cover. Conflict-freedom is what makes the chunk
    /// sweep *parallelisable*, and `psr-parallel` enforces it before
    /// spawning threads.
    pub fn new(model: &'m Model, partition: &'p Partition) -> Self {
        CaSweep::with_schedule(
            model,
            Chunks {
                partition,
                selection: ChunkSelection::InOrder,
            },
        )
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
        self.schedule.selection = selection;
        self
    }
}

impl StepSchedule for Chunks<'_> {
    fn step<H: EventHook>(&mut self, t: &mut Trials<'_, H>) {
        let m = self.partition.num_chunks();
        if self.selection == ChunkSelection::WeightedByRates && !t.kernel.is_counting() {
            t.kernel
                .attach_counts(self.partition.chunk_labels().to_vec(), m);
        }
        let mut order: Vec<usize> = (0..m).collect();
        let mut weights = Vec::new();
        if self.selection == ChunkSelection::RandomOrder {
            shuffle(t.rng, &mut order);
        }
        for scheduled in order {
            let chunk = match self.selection {
                ChunkSelection::WeightedByRates => {
                    let reactions = 0..t.kernel.compiled().num_reactions();
                    t.kernel.weights_into(0, reactions, &mut weights);
                    draw_weighted(t.rng, &weights)
                }
                ChunkSelection::RandomWithReplacement => t.rng.index(m),
                ChunkSelection::InOrder | ChunkSelection::RandomOrder => scheduled,
            };
            let sites = self.partition.chunk(chunk);
            t.run_alias(sites.len(), Sites::List(sites));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_builder::five_coloring;
    use psr_dmc::events::{Event, NoHook};
    use psr_dmc::sim::SimState;
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
}
