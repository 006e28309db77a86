//! The Random Selection Method (paper §3).
//!
//! ```text
//! set time to 0;
//! repeat
//!   1. select a site s randomly with probability 1/N;
//!   2. select a reaction type i with probability k_i / K;
//!   3. check if the reaction type is enabled at s;
//!   4. if it is, execute it;
//!   5. advance the time by drawing from [1 − exp(−N·K·t)];
//! until simulation time has elapsed;
//! ```
//!
//! One *trial* is one iteration; one *MC step* is `N` trials. The paper also
//! notes the discretised reading where each trial advances time by exactly
//! `1/(N·K)` — both are available via [`TimeMode`].

use std::sync::Arc;

use crate::events::{Event, EventHook};
use crate::recorder::Recorder;
use crate::sim::SimState;
use psr_kernel::{CompiledModel, SiteKernel};
use psr_lattice::Site;
use psr_model::Model;
use psr_rng::{exponential, AliasTable, SimRng};

/// How trials advance the simulated clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeMode {
    /// Draw `Δt ~ Exp(N·K)` per trial (the Master-Equation kinetics).
    Stochastic,
    /// Advance by exactly `1/(N·K)` per trial (the time-discretised ME).
    Discretized,
}

/// Counters reported by a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Trials attempted.
    pub trials: u64,
    /// Trials whose reaction was enabled and executed.
    pub executed: u64,
}

impl std::ops::AddAssign for RunStats {
    fn add_assign(&mut self, rhs: Self) {
        self.trials += rhs.trials;
        self.executed += rhs.executed;
    }
}

/// The Random Selection Method over a model.
#[derive(Clone, Debug)]
pub struct Rsm<'m> {
    model: &'m Model,
    alias: AliasTable,
    time_mode: TimeMode,
    compiled: Arc<CompiledModel>,
    /// Lattice-bound kernel, bound on every run (the geometry is only known
    /// then) and kept fresh via the mutation-epoch protocol.
    kernel: Option<SiteKernel>,
}

impl<'m> Rsm<'m> {
    /// Prepare RSM for `model` with stochastic time.
    pub fn new(model: &'m Model) -> Self {
        Rsm {
            model,
            alias: AliasTable::new(&model.rate_weights()),
            time_mode: TimeMode::Stochastic,
            compiled: Arc::new(CompiledModel::compile(model)),
            kernel: None,
        }
    }

    /// Select the time-advance mode.
    pub fn with_time_mode(mut self, mode: TimeMode) -> Self {
        self.time_mode = mode;
        self
    }

    /// The model being simulated.
    pub fn model(&self) -> &Model {
        self.model
    }

    /// One trial: select site and reaction type, execute if enabled.
    /// Does NOT advance the clock (the caller owns time bookkeeping so it
    /// can interleave recording correctly).
    #[inline]
    fn trial(
        alias: &AliasTable,
        kernel: &mut SiteKernel,
        state: &mut SimState,
        rng: &mut SimRng,
        changes: &mut Vec<(Site, u8, u8)>,
    ) -> Event {
        let site = Site(rng.index(state.num_sites()) as u32);
        let reaction = alias.sample(rng);
        let executed = state.fire(kernel, site, reaction, changes);
        Event {
            time: state.time,
            site,
            reaction,
            executed,
        }
    }

    /// Run until the simulated clock reaches `t_end`.
    pub fn run_until(
        &mut self,
        state: &mut SimState,
        rng: &mut SimRng,
        t_end: f64,
        mut recorder: Option<&mut Recorder>,
        hook: &mut impl EventHook,
    ) -> RunStats {
        let kernel = SiteKernel::bind(
            &mut self.kernel,
            &self.compiled,
            &state.lattice,
            state.mutation_epoch(),
        );
        let mut stats = RunStats::default();
        let mut changes = Vec::with_capacity(4);
        // Hoisted out of the trial loop: same operands, same values, so the
        // trajectory is unchanged.
        let nk = state.num_sites() as f64 * self.model.total_rate();
        let dt_disc = 1.0 / nk;
        while state.time < t_end {
            let dt = match self.time_mode {
                TimeMode::Stochastic => exponential(rng, nk),
                TimeMode::Discretized => dt_disc,
            };
            let t_next = state.time + dt;
            if let Some(rec) = recorder.as_deref_mut() {
                // Grid points before the event keep the pre-event coverage.
                rec.record_until(t_next.min(t_end), &state.coverage);
            }
            if t_next > t_end {
                state.time = t_end;
                break;
            }
            state.time = t_next;
            let event = Self::trial(&self.alias, kernel, state, rng, &mut changes);
            stats.trials += 1;
            stats.executed += event.executed as u64;
            hook.on_event(event);
        }
        if let Some(rec) = recorder {
            rec.record(t_end, &state.coverage);
        }
        debug_assert!(kernel.matches_scan(self.model, &state.lattice));
        stats
    }

    /// Run exactly `steps` MC steps (`steps · N` trials), advancing the
    /// clock per trial as configured.
    pub fn run_mc_steps(
        &mut self,
        state: &mut SimState,
        rng: &mut SimRng,
        steps: u64,
        mut recorder: Option<&mut Recorder>,
        hook: &mut impl EventHook,
    ) -> RunStats {
        let kernel = SiteKernel::bind(
            &mut self.kernel,
            &self.compiled,
            &state.lattice,
            state.mutation_epoch(),
        );
        let mut stats = RunStats::default();
        let mut changes = Vec::with_capacity(4);
        let nk = state.num_sites() as f64 * self.model.total_rate();
        let dt_disc = 1.0 / nk;
        let trials = steps * state.num_sites() as u64;
        for _ in 0..trials {
            let dt = match self.time_mode {
                TimeMode::Stochastic => exponential(rng, nk),
                TimeMode::Discretized => dt_disc,
            };
            let t_next = state.time + dt;
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record_until(t_next, &state.coverage);
            }
            state.time = t_next;
            let event = Self::trial(&self.alias, kernel, state, rng, &mut changes);
            stats.trials += 1;
            stats.executed += event.executed as u64;
            hook.on_event(event);
        }
        if let Some(rec) = recorder {
            rec.record(state.time, &state.coverage);
        }
        debug_assert!(kernel.matches_scan(self.model, &state.lattice));
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NoHook;
    use psr_lattice::{Dims, Lattice};
    use psr_model::library::zgb::{zgb_ziff, ZGB_SPECIES};
    use psr_model::ModelBuilder;
    use psr_rng::rng_from_seed;

    fn adsorption_only(rate: f64) -> psr_model::Model {
        ModelBuilder::new(&["*", "A"])
            .reaction("ads", rate, |r| {
                r.site((0, 0), "*", "A");
            })
            .build()
    }

    #[test]
    fn run_stats_accumulate() {
        let mut total = RunStats::default();
        total += RunStats {
            trials: 3,
            executed: 1,
        };
        total += RunStats {
            trials: 7,
            executed: 2,
        };
        assert_eq!(
            total,
            RunStats {
                trials: 10,
                executed: 3
            }
        );
    }

    #[test]
    fn adsorption_saturates_lattice() {
        let model = adsorption_only(1.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(10, 10), 0), &model);
        let mut rng = rng_from_seed(7);
        let mut rsm = Rsm::new(&model);
        rsm.run_until(&mut state, &mut rng, 20.0, None, &mut NoHook);
        // After t = 20 (rate 1 ⇒ P(still empty) = e^-20), essentially full.
        assert!(state.coverage.fraction(1) > 0.99);
        assert!(state.coverage.matches(&state.lattice));
    }

    #[test]
    fn adsorption_kinetics_match_analytic_solution() {
        // Langmuir adsorption: θ(t) = 1 − exp(−k t); check at t = 1 with
        // k = 1 over a large lattice (law of large numbers).
        let model = adsorption_only(1.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(100, 100), 0), &model);
        let mut rng = rng_from_seed(11);
        let mut rsm = Rsm::new(&model);
        rsm.run_until(&mut state, &mut rng, 1.0, None, &mut NoHook);
        let theta = state.coverage.fraction(1);
        let expected = 1.0 - (-1.0f64).exp();
        assert!(
            (theta - expected).abs() < 0.02,
            "coverage {theta} vs analytic {expected}"
        );
    }

    #[test]
    fn discretized_time_is_deterministic_per_trial() {
        let model = adsorption_only(2.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(5, 5), 0), &model);
        let mut rng = rng_from_seed(3);
        let mut rsm = Rsm::new(&model).with_time_mode(TimeMode::Discretized);
        let stats = rsm.run_mc_steps(&mut state, &mut rng, 2, None, &mut NoHook);
        // 2 MC steps = 2·25 trials, each advancing 1/(25·2) = 0.02.
        assert_eq!(stats.trials, 50);
        assert!((state.time - 1.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_samples_on_grid() {
        let model = adsorption_only(1.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(8, 8), 0), &model);
        let mut rng = rng_from_seed(5);
        let mut rsm = Rsm::new(&model);
        let mut rec = Recorder::new(2, 0.5);
        rsm.run_until(&mut state, &mut rng, 2.0, Some(&mut rec), &mut NoHook);
        assert_eq!(rec.series(0).times(), &[0.0, 0.5, 1.0, 1.5, 2.0]);
        let vacant = rec.series(0).values();
        assert_eq!(vacant[0], 1.0);
        // Vacancy fraction decreases monotonically under pure adsorption.
        for w in vacant.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn zgb_run_reaches_steady_activity() {
        let model = zgb_ziff(0.5, 10.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(20, 20), 0), &model);
        let mut rng = rng_from_seed(13);
        let mut rsm = Rsm::new(&model);
        let stats = rsm.run_until(&mut state, &mut rng, 5.0, None, &mut NoHook);
        assert!(stats.trials > 0);
        assert!(stats.executed > 0);
        assert!(stats.executed <= stats.trials);
        assert!(state.coverage.matches(&state.lattice));
        // Something adsorbed.
        let occupied = 1.0 - state.coverage.fraction(ZGB_SPECIES.vacant.id());
        assert!(occupied > 0.1);
    }

    #[test]
    fn reproducible_across_runs() {
        let model = zgb_ziff(0.45, 5.0);
        let run = || {
            let mut state = SimState::new(Lattice::filled(Dims::new(16, 16), 0), &model);
            let mut rng = rng_from_seed(99);
            Rsm::new(&model).run_until(&mut state, &mut rng, 2.0, None, &mut NoHook);
            state.lattice
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hook_sees_every_trial() {
        let model = adsorption_only(1.0);
        let mut state = SimState::new(Lattice::filled(Dims::new(4, 4), 0), &model);
        let mut rng = rng_from_seed(2);
        let mut rsm = Rsm::new(&model);
        let mut count = 0u64;
        let stats = rsm.run_mc_steps(&mut state, &mut rng, 3, None, &mut |_e: Event| count += 1);
        assert_eq!(count, stats.trials);
        assert_eq!(count, 3 * 16);
    }
}
