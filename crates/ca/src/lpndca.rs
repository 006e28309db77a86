//! L-PNDCA: the general partitioned structure with a trial budget `L`
//! (paper §5, "Opportunities for improvements").
//!
//! ```text
//! for each step
//!   choose a partition P;
//!   set trials to 0;
//!   repeat
//!     select P_i ∈ P (probability |P_i| / N);
//!     select L, 1 ≤ L ≤ (N − trials);
//!     set trials to trials + L;
//!     for L sites ∈ P_i           // sites drawn randomly within the chunk
//!       1. select a reaction type with probability k_i / K;
//!       2. check if the reaction is enabled at the site;
//!       3. if it is, execute it;
//!       4. advance the time;
//!   until trials = N
//! ```
//!
//! Special parameter choices recover the other algorithms (paper §5/§6):
//!
//! - `m = 1, L = N` (one chunk holding the whole lattice) — every trial
//!   picks a uniformly random site: **exactly RSM** (Fig 8);
//! - `m = N, L = 1` (singleton chunks, random chunk per trial) — again
//!   uniformly random sites: **exactly RSM** (Fig 8);
//! - `L = 1` with any partition — chunk choice weighted by size makes each
//!   trial's site uniform: matches RSM closely (Fig 9a);
//! - large `L` — long bursts inside one chunk postpone the other chunks and
//!   bias the kinetics (Fig 9b);
//! - [`ChunkVisit::RandomOnce`] with `L = N/m` — every chunk exactly once
//!   per step in random order; preserves oscillations even for the maximal
//!   `L` (Fig 10).

use crate::partition::Partition;
use crate::sweep::{CaSweep, StepSchedule, Trials};
use psr_dmc::events::EventHook;
use psr_model::Model;
use psr_rng::{sample::shuffle, SimRng};

/// How chunks are chosen within a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkVisit {
    /// Draw a chunk with probability `|P_i| / N` for each burst (the
    /// paper's default L-PNDCA reading).
    SizeWeighted,
    /// Visit every chunk exactly once per step, in a fresh random order,
    /// with `L = |P_i|` trials each (the Fig 10 variant).
    RandomOnce,
}

impl std::fmt::Display for ChunkVisit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ChunkVisit::SizeWeighted => "size-weighted",
            ChunkVisit::RandomOnce => "random-once",
        })
    }
}

impl std::str::FromStr for ChunkVisit {
    type Err = String;

    /// Parse the kebab-case names printed by `Display` (batch spec files).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "size-weighted" => Ok(ChunkVisit::SizeWeighted),
            "random-once" => Ok(ChunkVisit::RandomOnce),
            other => Err(format!(
                "unknown chunk visit {other:?} (expected size-weighted or random-once)"
            )),
        }
    }
}

/// L-PNDCA's schedule: one segment per burst of `L` uniform site draws.
#[derive(Clone, Debug)]
pub struct Bursts<'p> {
    partition: &'p Partition,
    /// Trial budget per chunk visit (clamped to the remaining step budget).
    l: usize,
    visit: ChunkVisit,
    /// Cumulative chunk-size weights for size-proportional selection.
    size_cumulative: Vec<f64>,
}

/// L-PNDCA simulator.
pub type LPndca<'m, 'p> = CaSweep<'m, Bursts<'p>>;

impl<'m, 'p> LPndca<'m, 'p> {
    /// L-PNDCA with trial budget `l` per chunk visit.
    ///
    /// The partition is *not* required to satisfy the non-overlap
    /// restriction here: sequential L-PNDCA is well defined on any cover,
    /// and the paper's limit cases (`m = 1`, the whole lattice as one
    /// chunk) deliberately violate it. Conflict-freedom only becomes a
    /// hard precondition in `psr-parallel`, which enforces it.
    ///
    /// # Panics
    ///
    /// Panics if `l == 0`.
    pub fn new(model: &'m Model, partition: &'p Partition, l: usize) -> Self {
        assert!(l > 0, "L must be at least 1");
        let mut acc = 0.0;
        let size_cumulative = partition
            .chunks()
            .iter()
            .map(|c| {
                acc += c.len() as f64;
                acc
            })
            .collect();
        CaSweep::with_schedule(
            model,
            Bursts {
                partition,
                l,
                visit: ChunkVisit::SizeWeighted,
                size_cumulative,
            },
        )
    }

    /// Select the chunk-visit mode.
    pub fn with_visit(mut self, visit: ChunkVisit) -> Self {
        self.schedule.visit = visit;
        self
    }
}

impl Bursts<'_> {
    /// `l` trials at sites drawn uniformly, with replacement, from `chunk`.
    fn burst<H: EventHook>(&self, t: &mut Trials<'_, H>, chunk: usize, l: usize) {
        let (sites, alias) = (self.partition.chunk(chunk), t.alias);
        let uniform = |_: usize, rng: &mut SimRng| sites[rng.index(sites.len())];
        t.run(l, uniform, |rng| alias.sample(rng));
    }
}

impl StepSchedule for Bursts<'_> {
    fn step<H: EventHook>(&mut self, t: &mut Trials<'_, H>) {
        match self.visit {
            ChunkVisit::SizeWeighted => {
                let n = t.state.num_sites();
                let total = *self.size_cumulative.last().expect("non-empty partition");
                let mut trials = 0usize;
                while trials < n {
                    let x = t.rng.f64() * total;
                    let chunk = self.size_cumulative.partition_point(|&c| c <= x);
                    let l = self.l.min(n - trials);
                    trials += l;
                    self.burst(t, chunk, l);
                }
            }
            ChunkVisit::RandomOnce => {
                let mut order: Vec<usize> = (0..self.partition.num_chunks()).collect();
                shuffle(t.rng, &mut order);
                for chunk in order {
                    self.burst(t, chunk, self.partition.chunk(chunk).len());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_builder::{five_coloring, single_chunk, singleton_chunks};
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
    fn step_always_does_n_trials() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let p = five_coloring(d);
        for l in [1usize, 7, 20, 100] {
            let mut state = SimState::new(Lattice::filled(d, 0), &model);
            let mut rng = rng_from_seed(l as u64);
            let stats = LPndca::new(&model, &p, l).step(&mut state, &mut rng, &mut NoHook);
            assert_eq!(stats.trials, 100, "L = {l}");
        }
    }

    #[test]
    fn random_once_does_n_trials_and_visits_all_chunks() {
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let p = five_coloring(d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(9);
        let mut lp = LPndca::new(&model, &p, 20).with_visit(ChunkVisit::RandomOnce);
        let mut chunk_hits = vec![0u32; 5];
        let stats = lp.step(&mut state, &mut rng, &mut |e: Event| {
            chunk_hits[p.chunk_of(e.site)] += 1;
        });
        assert_eq!(stats.trials, 100);
        assert!(chunk_hits.iter().all(|&h| h == 20), "{chunk_hits:?}");
    }

    #[test]
    fn singleton_partition_with_l1_matches_rsm_statistics() {
        // m = N, L = 1: every trial picks a uniform random site — that IS
        // RSM. Verify the Langmuir curve.
        let model = adsorption(1.0);
        let d = Dims::square(40);
        let p = singleton_chunks(d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(10);
        LPndca::new(&model, &p, 1).run_until(&mut state, &mut rng, 1.0, None, &mut NoHook);
        let theta = state.coverage.fraction(1);
        let expected = 1.0 - (-1.0f64).exp();
        assert!((theta - expected).abs() < 0.03, "coverage {theta}");
    }

    #[test]
    fn single_chunk_with_full_l_matches_rsm_statistics() {
        // m = 1, L = N: one burst of N uniform draws — also RSM.
        let model = adsorption(1.0);
        let d = Dims::square(40);
        let p = single_chunk(d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(11);
        LPndca::new(&model, &p, 1600).run_until(&mut state, &mut rng, 1.0, None, &mut NoHook);
        let theta = state.coverage.fraction(1);
        let expected = 1.0 - (-1.0f64).exp();
        assert!((theta - expected).abs() < 0.03, "coverage {theta}");
    }

    #[test]
    fn l_clamps_to_remaining_budget() {
        // L = 64 on N = 100: bursts 64 + 36.
        let model = zgb_ziff(0.5, 2.0);
        let d = Dims::square(10);
        let p = five_coloring(d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(12);
        let stats = LPndca::new(&model, &p, 64).step(&mut state, &mut rng, &mut NoHook);
        assert_eq!(stats.trials, 100);
    }

    #[test]
    fn coverage_stays_consistent() {
        let model = zgb_ziff(0.4, 3.0);
        let d = Dims::square(15);
        let p = singleton_chunks(d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(13);
        LPndca::new(&model, &p, 5).run_steps(&mut state, &mut rng, 10, None, &mut NoHook);
        assert!(state.coverage.matches(&state.lattice));
    }

    #[test]
    #[should_panic(expected = "L must be at least 1")]
    fn zero_l_panics() {
        let model = adsorption(1.0);
        let d = Dims::square(5);
        let p = five_coloring(d);
        LPndca::new(&model, &p, 0);
    }
}
