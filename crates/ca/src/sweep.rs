//! The one partitioned sweep (paper §5): NDCA, PNDCA, L-PNDCA and Ω×T are
//! schedules over one trial loop.
//!
//! A step is a sequence of segments, each a site source and a reaction
//! source handed to the loop in [`Trials`]. A [`StepSchedule`] makes the
//! draws between segments (a shuffle, a chunk pick, a size-weighted burst, a
//! subset, member and chunk); [`CaSweep`] owns the rest: the alias table,
//! time mode, compiled model, lattice-bound kernel and the run drivers.
//!
//! The loop scans a tracked kernel's enabled-set masks and calls
//! [`SimState::fire`] only on a hit; an untracked kernel fires every trial.
//! The two are trial-for-trial identical: `fire` draws no randomness and
//! writes nothing where the reaction's mask bit is clear.

use std::sync::Arc;

use psr_dmc::events::{Event, EventHook};
use psr_dmc::recorder::{drive_steps, drive_until, Recorder};
use psr_dmc::rsm::{RunStats, TimeMode};
use psr_dmc::sim::SimState;
use psr_kernel::{CompiledModel, SiteKernel};
use psr_lattice::{Change, Site};
use psr_model::Model;
use psr_rng::{exponential, AliasTable, SimRng};

/// A CA executor: the schedule `S` driving the shared trial loop.
#[derive(Clone, Debug)]
pub struct CaSweep<'m, S> {
    pub(crate) model: &'m Model,
    alias: AliasTable,
    time_mode: TimeMode,
    compiled: Arc<CompiledModel>,
    /// Bound to the lattice every step; kept fresh by the mutation epoch.
    kernel: Option<SiteKernel>,
    pub(crate) schedule: S,
}

/// The draws one CA step makes between its segments.
pub trait StepSchedule {
    /// Whether `run_until` leaves the sampling to each step, unclamped, so
    /// grid points a last step overshoots past `t_end` are part of the
    /// recorded series (NDCA's series), instead of clamping them onto it.
    const UNCLAMPED_SERIES: bool = false;

    /// One step: each segment is handed to [`Trials`].
    fn step<H: EventHook>(&mut self, trials: &mut Trials<'_, H>);
}

impl<'m, S: StepSchedule> CaSweep<'m, S> {
    /// Discretised time, the `k_i / K` alias table and `model` compiled.
    pub(crate) fn with_schedule(model: &'m Model, schedule: S) -> Self {
        CaSweep {
            model,
            alias: AliasTable::new(&model.rate_weights()),
            time_mode: TimeMode::Discretized,
            compiled: Arc::new(CompiledModel::compile(model)),
            kernel: None,
            schedule,
        }
    }

    /// Select the time-advance mode.
    pub fn with_time_mode(mut self, mode: TimeMode) -> Self {
        self.time_mode = mode;
        self
    }

    /// Run one step (`N` trials for every schedule but PNDCA's with
    /// replacement, whose chunks differ in size).
    pub fn step(
        &mut self,
        state: &mut SimState,
        rng: &mut SimRng,
        hook: &mut impl EventHook,
    ) -> RunStats {
        let kernel = SiteKernel::bind(
            &mut self.kernel,
            &self.compiled,
            &state.lattice,
            state.mutation_epoch(),
        );
        let mut trials = Trials {
            alias: &self.alias,
            kernel,
            time_mode: self.time_mode,
            nk: state.num_sites() as f64 * self.model.total_rate(),
            state,
            rng,
            hook,
            changes: Vec::with_capacity(4),
            stats: RunStats::default(),
        };
        self.schedule.step(&mut trials);
        trials.stats
    }

    /// Run `steps` steps with optional coverage recording.
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
        let (clamped, mut unclamped) = if S::UNCLAMPED_SERIES {
            (None, recorder)
        } else {
            (recorder, None)
        };
        let k = self.model.total_rate();
        let stats = drive_until(state, t_end, k, clamped, |state| {
            drive_steps(state, 1, unclamped.as_deref_mut(), |state| {
                self.step(state, rng, hook)
            })
        });
        debug_assert!(state.agrees_with(&self.kernel, self.model));
        stats
    }
}

/// One step's trial loop, bound to the state, generator, kernel and hook.
pub struct Trials<'a, H> {
    /// The global `k_i / K` reaction draw.
    pub(crate) alias: &'a AliasTable,
    /// The lattice-bound kernel (weighted schedules read its chunk counts).
    pub(crate) kernel: &'a mut SiteKernel,
    pub(crate) state: &'a mut SimState,
    pub(crate) rng: &'a mut SimRng,
    hook: &'a mut H,
    time_mode: TimeMode,
    /// `N·K`: a trial advances the clock by `Exp(N·K)` or `1/(N·K)`.
    nk: f64,
    changes: Vec<Change>,
    stats: RunStats,
}

impl<H: EventHook> Trials<'_, H> {
    /// One segment of `n` trials, trial `i` at `site(i, rng)` (row-major, a
    /// list, or a uniform draw) of `reaction(rng)` drawn after it (the
    /// `k_i / K` alias or one fixed type).
    pub(crate) fn run(
        &mut self,
        n: usize,
        site: impl Fn(usize, &mut SimRng) -> Site,
        reaction: impl Fn(&mut SimRng) -> usize,
    ) {
        let Trials {
            kernel,
            state,
            rng,
            hook,
            time_mode,
            nk,
            changes,
            stats,
            ..
        } = self;
        // Hoisted out of the trial loop: same operands, same values.
        let (mode, nk, dt) = (*time_mode, *nk, 1.0 / *nk);
        stats.trials += n as u64;
        // Every trial ends alike: counted, the clock advanced, the hook told.
        let mut end = |time: &mut f64, rng: &mut SimRng, site, reaction, executed| {
            stats.executed += executed as u64;
            *time += match mode {
                TimeMode::Stochastic => exponential(rng, nk),
                TimeMode::Discretized => dt,
            };
            hook.on_event(Event {
                time: *time,
                site,
                reaction,
                executed,
            });
        };
        // A register-local clone of the generator and clock: borrows through
        // `rng`/`state` would otherwise force both serial chains through
        // memory every trial.
        let mut local_rng = (*rng).clone();
        let mut time = state.time;
        if !kernel.is_tracked() {
            // No masks to scan: every trial asks the kernel.
            for i in 0..n {
                let (s, r) = (site(i, &mut local_rng), reaction(&mut local_rng));
                let executed = state.fire(kernel, s, r, changes);
                end(&mut time, &mut local_rng, s, r, executed);
            }
        } else {
            let mut i = 0usize;
            'sweep: while i < n {
                // Fast scan over non-executing trials: the masks slice is
                // borrowed once, so the check is one load, and the kernel
                // stays immutable until a hit.
                let hit;
                {
                    let masks = kernel.enabled_masks();
                    loop {
                        if i >= n {
                            break 'sweep;
                        }
                        let s = site(i, &mut local_rng);
                        i += 1;
                        let r = reaction(&mut local_rng);
                        if (masks[s.0 as usize] >> r) & 1 != 0 {
                            hit = (s, r);
                            break;
                        }
                        end(&mut time, &mut local_rng, s, r, false);
                    }
                }
                let executed = state.fire(kernel, hit.0, hit.1, changes);
                debug_assert!(executed, "mask and kernel disagree");
                end(&mut time, &mut local_rng, hit.0, hit.1, true);
            }
        }
        state.time = time;
        **rng = local_rng;
    }
}
