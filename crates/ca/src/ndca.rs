//! The Non-Deterministic Cellular Automaton (paper §4).
//!
//! ```text
//! for each step
//!   for each site s
//!     1. select a reaction type i with probability k_i / K;
//!     2. check whether the reaction is enabled at s;
//!     3. if it is, execute it;
//!     4. advance the time;
//! ```
//!
//! Compared with RSM the *site selection* differs: every site is visited
//! exactly once per step, so a site can never be selected twice in
//! succession within a step — the source of the NDCA's kinetic bias (§4).
//! The visit order is configurable: the plain row-major sweep (the CA
//! reading) or a freshly shuffled order per step, which reduces (but does
//! not remove) sweep-direction correlations.

use crate::sweep::{CaSweep, Sites, StepSchedule, Trials};
use psr_dmc::events::EventHook;
use psr_lattice::Site;
use psr_model::Model;
use psr_rng::sample::shuffle;

/// Site visit order within a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepOrder {
    /// Row-major sweep, the standard CA scan.
    RowMajor,
    /// A new random permutation of the sites every step.
    Shuffled,
}

/// NDCA's schedule: one segment per step, the whole lattice.
#[derive(Clone, Debug)]
pub struct WholeLattice {
    order: SweepOrder,
    /// The shuffled order, kept between steps to reuse its allocation.
    shuffled: Vec<Site>,
}

/// NDCA simulator.
pub type Ndca<'m> = CaSweep<'m, WholeLattice>;

impl<'m> Ndca<'m> {
    /// NDCA with row-major sweeps and discretised time.
    pub fn new(model: &'m Model) -> Self {
        CaSweep::with_schedule(
            model,
            WholeLattice {
                order: SweepOrder::RowMajor,
                shuffled: Vec::new(),
            },
        )
    }

    /// Select the sweep order.
    pub fn with_order(mut self, order: SweepOrder) -> Self {
        self.schedule.order = order;
        self
    }
}

impl StepSchedule for WholeLattice {
    const UNCLAMPED_SERIES: bool = true;

    fn step<H: EventHook>(&mut self, t: &mut Trials<'_, H>) {
        let n = t.state.num_sites();
        match self.order {
            SweepOrder::RowMajor => t.run_alias(n, Sites::Rows(0)),
            SweepOrder::Shuffled => {
                // Shuffle from the identity each step so the sweep order is
                // a pure function of the RNG state: `run_steps(a)` then
                // `run_steps(b)` must match `run_steps(a + b)` exactly
                // (checkpoint/resume relies on this).
                self.shuffled.clear();
                self.shuffled.extend((0..n as u32).map(Site));
                shuffle(t.rng, &mut self.shuffled);
                t.run_alias(n, Sites::List(&self.shuffled));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_dmc::events::{Event, NoHook};
    use psr_dmc::recorder::Recorder;
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
    fn each_step_visits_every_site_once() {
        let model = adsorption(1.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(4, 4), 0), &model);
        let mut rng = rng_from_seed(1);
        let mut ndca = Ndca::new(&model);
        let mut visits = vec![0u32; 16];
        ndca.run_steps(&mut state, &mut rng, 3, None, &mut |e: Event| {
            visits[e.site.0 as usize] += 1;
        });
        assert!(visits.iter().all(|&v| v == 3), "visits {visits:?}");
    }

    #[test]
    fn shuffled_order_also_visits_every_site_once() {
        let model = adsorption(1.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(4, 4), 0), &model);
        let mut rng = rng_from_seed(2);
        let mut ndca = Ndca::new(&model).with_order(SweepOrder::Shuffled);
        let mut visits = [0u32; 16];
        ndca.run_steps(&mut state, &mut rng, 5, None, &mut |e: Event| {
            visits[e.site.0 as usize] += 1;
        });
        assert!(visits.iter().all(|&v| v == 5));
    }

    #[test]
    fn single_type_ndca_is_maximally_biased() {
        // With one reaction type, k_i/K = 1: every site executes every
        // step — the degenerate limit the paper warns about (§4). After one
        // step (t = 1/K) the lattice is full, while the ME gives 1 − e^(−1).
        let model = adsorption(1.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(16, 16), 0), &model);
        let mut rng = rng_from_seed(3);
        Ndca::new(&model).run_steps(&mut state, &mut rng, 1, None, &mut NoHook);
        assert_eq!(state.coverage.fraction(1), 1.0);
    }

    #[test]
    fn langmuir_bias_shrinks_with_rate_ratio() {
        // Diluting adsorption with a high-rate null reaction makes
        // k_ads/K → 0 per visit; the NDCA kinetics then converge to the ME:
        // θ(1) = 1 − (1 − p)^(1/(p)) → 1 − e^(−1) as p = k/K → 0.
        let expected = 1.0 - (-1.0f64).exp();
        let mut errors = Vec::new();
        for null_rate in [3.0, 9.0, 99.0] {
            let model = ModelBuilder::new(&["*", "A"])
                .reaction("ads", 1.0, |r| {
                    r.site((0, 0), "*", "A");
                })
                .reaction("null", null_rate, |r| {
                    r.site((0, 0), "*", "*");
                })
                .build();
            let mut state = SimState::new(Lattice::filled(Dims::new(64, 64), 0), &model);
            let mut rng = rng_from_seed(3);
            Ndca::new(&model).run_until(&mut state, &mut rng, 1.0, None, &mut NoHook);
            errors.push((state.coverage.fraction(1) - expected).abs());
        }
        assert!(
            errors[2] < 0.02,
            "bias should be small at k/K = 0.01, got {}",
            errors[2]
        );
        assert!(
            errors[2] < errors[0],
            "bias should shrink with the rate ratio: {errors:?}"
        );
    }

    #[test]
    fn one_step_advances_one_over_k() {
        // N trials, each 1/(N·K): a step advances exactly 1/K.
        let model = adsorption(2.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(6, 6), 0), &model);
        let mut rng = rng_from_seed(4);
        Ndca::new(&model).run_steps(&mut state, &mut rng, 4, None, &mut NoHook);
        assert!((state.time - 4.0 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn zgb_runs_consistently() {
        let model = zgb_ziff(0.5, 5.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(20, 20), 0), &model);
        let mut rng = rng_from_seed(5);
        let mut ndca = Ndca::new(&model);
        let stats = ndca.run_steps(&mut state, &mut rng, 10, None, &mut NoHook);
        assert_eq!(stats.trials, 10 * 400);
        assert!(state.coverage.matches(&state.lattice));
    }

    #[test]
    fn recorder_gets_step_samples() {
        let model = adsorption(1.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(10, 10), 0), &model);
        let mut rng = rng_from_seed(6);
        let mut rec = Recorder::new(2, 0.5);
        Ndca::new(&model).run_steps(&mut state, &mut rng, 3, Some(&mut rec), &mut NoHook);
        // 3 steps at K=1 → t≈3; grid 0, 0.5, ..., 3.0 (the recorder's
        // epsilon absorbs the float accumulation at the last grid point).
        assert_eq!(rec.series(0).len(), 7);
    }
}
