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

use std::sync::Arc;

use psr_dmc::events::{Event, EventHook};
use psr_dmc::recorder::{drive_until, Recorder};
use psr_dmc::rsm::{RunStats, TimeMode};
use psr_dmc::sim::SimState;
use psr_kernel::{CompiledModel, SiteKernel};
use psr_lattice::Site;
use psr_model::Model;
use psr_rng::{exponential, sample::shuffle, AliasTable, SimRng};

/// Site visit order within a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepOrder {
    /// Row-major sweep, the standard CA scan.
    RowMajor,
    /// A new random permutation of the sites every step.
    Shuffled,
}

/// NDCA simulator.
#[derive(Clone, Debug)]
pub struct Ndca<'m> {
    model: &'m Model,
    alias: AliasTable,
    time_mode: TimeMode,
    order: SweepOrder,
    compiled: Arc<CompiledModel>,
    /// Lattice-bound kernel, bound on every run (the geometry is only known
    /// then) and kept fresh via the mutation-epoch protocol.
    kernel: Option<SiteKernel>,
}

impl<'m> Ndca<'m> {
    /// NDCA with row-major sweeps and discretised time.
    pub fn new(model: &'m Model) -> Self {
        Ndca {
            model,
            alias: AliasTable::new(&model.rate_weights()),
            time_mode: TimeMode::Discretized,
            order: SweepOrder::RowMajor,
            compiled: Arc::new(CompiledModel::compile(model)),
            kernel: None,
        }
    }

    /// Select the time-advance mode.
    pub fn with_time_mode(mut self, mode: TimeMode) -> Self {
        self.time_mode = mode;
        self
    }

    /// Select the sweep order.
    pub fn with_order(mut self, order: SweepOrder) -> Self {
        self.order = order;
        self
    }

    /// Run `steps` CA steps (each visits all N sites once).
    pub fn run_steps(
        &mut self,
        state: &mut SimState,
        rng: &mut SimRng,
        steps: u64,
        recorder: Option<&mut Recorder>,
        hook: &mut impl EventHook,
    ) -> RunStats {
        let stats = self.advance(state, rng, steps, recorder, hook);
        debug_assert!(state.agrees_with(&self.kernel, self.model));
        stats
    }

    /// [`run_steps`](Self::run_steps) without its closing debug-build
    /// kernel check, so `run_until` can step without a scan per step.
    fn advance(
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
        let n = state.num_sites();
        // Hoisted out of the trial loop: same operands, same values, so the
        // trajectory is unchanged.
        let nk = n as f64 * self.model.total_rate();
        let dt_disc = 1.0 / nk;
        let mut order: Vec<u32> = (0..n as u32).collect();
        if let Some(rec) = recorder.as_deref_mut() {
            rec.record(state.time, &state.coverage);
        }
        for _ in 0..steps {
            if self.order == SweepOrder::Shuffled {
                // Shuffle from the identity each step so the sweep order is
                // a pure function of the RNG state — `run_steps(a)` then
                // `run_steps(b)` must match `run_steps(a + b)` exactly
                // (checkpoint/resume relies on this).
                for (i, v) in order.iter_mut().enumerate() {
                    *v = i as u32;
                }
                shuffle(rng, &mut order);
            }
            // Row-major sweeps take the monomorphized sequential path: no
            // per-trial indirection through the order array.
            if !kernel.is_tracked() {
                // No masks to scan: every trial asks the kernel.
                for &site_id in &order {
                    let site = Site(site_id);
                    let reaction = self.alias.sample(rng);
                    let executed = state.fire(kernel, site, reaction, &mut changes);
                    state.time += match self.time_mode {
                        TimeMode::Stochastic => exponential(rng, nk),
                        TimeMode::Discretized => dt_disc,
                    };
                    stats.executed += executed as u64;
                    hook.on_event(Event {
                        time: state.time,
                        site,
                        reaction,
                        executed,
                    });
                }
                stats.trials += n as u64;
            } else if self.order == SweepOrder::RowMajor {
                Self::sweep_tracked(
                    &self.alias,
                    self.time_mode,
                    kernel,
                    Sequential(n),
                    state,
                    rng,
                    &mut changes,
                    &mut stats,
                    hook,
                    nk,
                    dt_disc,
                );
            } else {
                Self::sweep_tracked(
                    &self.alias,
                    self.time_mode,
                    kernel,
                    order.as_slice(),
                    state,
                    rng,
                    &mut changes,
                    &mut stats,
                    hook,
                    nk,
                    dt_disc,
                );
            }
            if let Some(rec) = recorder.as_deref_mut() {
                rec.record(state.time, &state.coverage);
            }
        }
        stats
    }

    /// One sweep over `order` with a tracked kernel: the tuned T(1,N) loop.
    ///
    /// Trial-for-trial this performs the exact operations of the per-trial
    /// loop — same RNG draws in the same order, same event sequence — but
    /// non-executing trials are scanned against the borrowed mask slice and
    /// the kernel fires only on a hit.
    #[allow(clippy::too_many_arguments)]
    fn sweep_tracked(
        alias: &psr_rng::AliasTable,
        time_mode: TimeMode,
        kernel: &mut SiteKernel,
        order: impl SweepSites,
        state: &mut SimState,
        rng: &mut SimRng,
        changes: &mut Vec<(Site, u8, u8)>,
        stats: &mut RunStats,
        hook: &mut impl EventHook,
        nk: f64,
        dt_disc: f64,
    ) {
        // A register-local clone of the generator and clock: borrows through
        // `rng`/`state` would otherwise force both serial chains through
        // memory every trial.
        let mut local_rng = rng.clone();
        let mut time = state.time;
        let n = order.len();
        let mut i = 0usize;
        'sweep: while i < n {
            // Fast scan over non-executing trials: the masks slice is
            // borrowed once, so the check is one load with no per-trial
            // bounds check, and the kernel stays immutable until a hit.
            let hit_site;
            let hit_reaction;
            {
                let masks = kernel.enabled_masks();
                loop {
                    if i >= n {
                        break 'sweep;
                    }
                    let site = Site(order.site(i));
                    i += 1;
                    let reaction = alias.sample(&mut local_rng);
                    if (masks[site.0 as usize] >> reaction) & 1 != 0 {
                        hit_site = site;
                        hit_reaction = reaction;
                        break;
                    }
                    time += match time_mode {
                        TimeMode::Stochastic => exponential(&mut local_rng, nk),
                        TimeMode::Discretized => dt_disc,
                    };
                    hook.on_event(Event {
                        time,
                        site,
                        reaction,
                        executed: false,
                    });
                }
            }
            let executed = state.fire(kernel, hit_site, hit_reaction, changes);
            debug_assert!(executed, "mask and kernel disagree");
            stats.executed += 1;
            time += match time_mode {
                TimeMode::Stochastic => exponential(&mut local_rng, nk),
                TimeMode::Discretized => dt_disc,
            };
            hook.on_event(Event {
                time,
                site: hit_site,
                reaction: hit_reaction,
                executed: true,
            });
        }
        // Every site is trialed exactly once per sweep; counting them here
        // instead of per trial leaves the scan loop two instructions lighter
        // and the total is identical.
        stats.trials += n as u64;
        state.time = time;
        *rng = local_rng;
    }

    /// Run until the simulated clock reaches `t_end` (whole steps).
    pub fn run_until(
        &mut self,
        state: &mut SimState,
        rng: &mut SimRng,
        t_end: f64,
        mut recorder: Option<&mut Recorder>,
        hook: &mut impl EventHook,
    ) -> RunStats {
        // The sweep samples for itself, unclamped: grid points a last step
        // overshoots past `t_end` are part of the recorded series.
        let k = self.model.total_rate();
        let stats = drive_until(state, t_end, k, None, |state| {
            self.advance(state, rng, 1, recorder.as_deref_mut(), hook)
        });
        debug_assert!(state.agrees_with(&self.kernel, self.model));
        stats
    }
}

/// Site-visit order for a compiled sweep, monomorphized so the row-major
/// case compiles to `site = i` with no load from the order array.
trait SweepSites {
    fn len(&self) -> usize;
    fn site(&self, i: usize) -> u32;
}

/// Row-major order: site `i` is just `i`.
struct Sequential(usize);

impl SweepSites for Sequential {
    #[inline(always)]
    fn len(&self) -> usize {
        self.0
    }
    #[inline(always)]
    fn site(&self, i: usize) -> u32 {
        i as u32
    }
}

impl SweepSites for &[u32] {
    #[inline(always)]
    fn len(&self) -> usize {
        (*self).len()
    }
    #[inline(always)]
    fn site(&self, i: usize) -> u32 {
        self[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
