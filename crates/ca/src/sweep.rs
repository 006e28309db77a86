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
//!
//! A segment over a row range or a site list that draws from the global
//! alias (`Trials::run_alias`) runs in the AVX-512 lanes of its one
//! sequential stream where the host has avx512f and avx512dq: lane `k` of
//! a block is the generator `k` draws ahead (Brown's jump-ahead), each
//! block draws eight reactions at once and tests eight masks, and hits are
//! fired in lane order, each later lane re-testing its re-read mask with
//! the draw it already has. Same draws, same order, same clock ticks, same
//! hook calls: the trajectory is the scalar loop's. The scalar loop stays
//! the runtime fallback and serves stochastic time, untracked kernels,
//! L-PNDCA's drawn sites and Ω×T's fixed types.

use std::sync::Arc;

use psr_dmc::events::{Event, EventHook};
use psr_dmc::recorder::{drive_steps, drive_until, Recorder};
use psr_dmc::rsm::{RunStats, TimeMode};
use psr_dmc::sim::SimState;
use psr_kernel::{CompiledModel, SiteKernel};
use psr_lattice::{Change, Site};
use psr_model::Model;
use psr_rng::{exponential, AliasTable, SimRng};

#[cfg(test)]
mod differential;
#[cfg(target_arch = "x86_64")]
mod lanes;

/// A CA executor: the schedule `S` driving the shared trial loop.
#[derive(Clone, Debug)]
pub struct CaSweep<'m, S> {
    pub(crate) model: &'m Model,
    alias: AliasTable,
    time_mode: TimeMode,
    compiled: Arc<CompiledModel>,
    /// Bound to the lattice every step; kept fresh by the mutation epoch.
    kernel: Option<SiteKernel>,
    /// Whether alias segments run the lane sweep: the host has it and the
    /// alias table fits it.
    lanes: bool,
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
        let alias = AliasTable::new(&model.rate_weights());
        #[cfg(target_arch = "x86_64")]
        let lanes = alias.len() <= lanes::MAX_REACTIONS && lanes::available();
        #[cfg(not(target_arch = "x86_64"))]
        let lanes = false;
        CaSweep {
            model,
            lanes,
            alias,
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

    /// The scalar trial loop for every segment: the reference the lane
    /// sweep is compared against.
    #[cfg(test)]
    pub(crate) fn without_lanes(mut self) -> Self {
        self.lanes = false;
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
            lanes: self.lanes,
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

/// Whether a CA sweep of `model` takes the lane sweep on this host.
#[cfg(test)]
fn lanes_selected(model: &Model) -> bool {
    crate::Ndca::new(model).lanes
}

/// The lane sweep's segments and short-interval blocks on this thread.
#[cfg(test)]
fn lanes_counts() -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    return lanes::COUNTS.with(std::cell::Cell::get);
    #[cfg(not(target_arch = "x86_64"))]
    (0, 0)
}

/// One step's trial loop, bound to the state, generator, kernel and hook.
pub struct Trials<'a, H> {
    /// The global `k_i / K` reaction draw.
    pub(crate) alias: &'a AliasTable,
    lanes: bool,
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

/// Where a segment's trial `i` happens.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Sites<'s> {
    /// Site `start + i`: a row-major run of the lattice.
    Rows(u32),
    /// Site `list[i]`: a shuffled order or a chunk.
    List(&'s [Site]),
}

impl<H: EventHook> Trials<'_, H> {
    /// One segment of `n` trials at `sites`, each drawing its reaction from
    /// the global `k_i / K` alias: the lane sweep where the host, the time
    /// mode and the kernel allow it, else [`run`](Self::run). Both consume
    /// the stream, tick the clock and tell the hook alike.
    pub(crate) fn run_alias(&mut self, n: usize, sites: Sites<'_>) {
        #[cfg(target_arch = "x86_64")]
        if self.lanes && self.kernel.is_tracked() && self.time_mode == TimeMode::Discretized {
            // SAFETY: `lanes` is set only where `lanes::available` found
            // avx512f and avx512dq, for at most `MAX_REACTIONS` entries.
            return unsafe { lanes::run(self, n, sites) };
        }
        let alias = self.alias;
        match sites {
            Sites::Rows(start) => self.run(n, |i, _| Site(start + i as u32), |r| alias.sample(r)),
            Sites::List(list) => self.run(n, |i, _| list[i], |rng| alias.sample(rng)),
        }
    }

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
