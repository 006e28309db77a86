//! Step-wise, checkpointable simulation sessions.
//!
//! [`crate::Simulator::run_until`] is fire-and-forget: it owns the state and
//! RNG for the whole run. Long ensemble jobs (the `psr-engine` experiment
//! engine) instead need to *pause* a simulation at an arbitrary step,
//! serialise everything required to continue it bit-identically — lattice,
//! clock, step count, RNG stream — and pick it up later, possibly in a
//! different process. [`SimSession`] provides that: it runs a configured
//! algorithm in blocks of whole steps and implements [`Checkpointable`].
//!
//! Resume fidelity relies on two properties of the step-driven algorithms:
//! the RNG consumption of a step depends only on the (state, RNG) pair at
//! its start — there is no hidden cross-step generator state — and every
//! auxiliary structure (kernel masks and enabled-set counts, alias tables)
//! is a pure function of the model and lattice, so it can be rebuilt after
//! a restore. The
//! free-running event-driven algorithms (VSSM, FRM) carry pending-event
//! queues that are *not* pure functions of the lattice; they are rejected
//! at session construction. The fractional-step splitting executor
//! (`fskmc`) runs exact KMC *inside* each window but keys every RNG stream
//! by `(window, slot, block)`, so window boundaries are clean checkpoint
//! seams: one session step = one whole window, resumable from
//! `(lattice, window count)` alone.

use crate::simulator::{sides_divisible, Algorithm};
use psr_ca::lpndca::LPndca;
use psr_ca::ndca::{Ndca, SweepOrder};
use psr_ca::partition::Partition;
use psr_ca::pndca::Pndca;
use psr_ca::splitting::{FractionalStepKmc, SplitPlan};
use psr_ca::tpndca::{axis_type_partition, TPndca, TypePartition};
use psr_dmc::events::EventHook;
use psr_dmc::frm::Frm;
use psr_dmc::recorder::Recorder;
use psr_dmc::rsm::{Rsm, RunStats, TimeMode};
use psr_dmc::sim::SimState;
use psr_dmc::vssm::Vssm;
use psr_dmc::VssmTree;
use psr_lattice::{Dims, Lattice};
use psr_model::Model;
use psr_parallel::executor::ParallelPndca;
use psr_rng::{rng_from_seed, Pcg32, SimRng};
use psr_shard::{CommStats, ShardGrid, ShardedPndca};

/// Everything needed to continue a [`SimSession`] bit-identically: the
/// configuration, the clock, the step count, and the serialised RNG.
///
/// The model and algorithm are *not* part of the checkpoint — a checkpoint
/// only resumes correctly into a session built with the same configuration.
/// `psr-engine` guarantees this by keeping the job's canonical spec text
/// beside its checkpoint and refusing to resume under a different one.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionCheckpoint {
    /// The lattice configuration.
    pub lattice: Lattice,
    /// Simulated clock.
    pub time: f64,
    /// Whole algorithm steps completed since the initial state.
    pub steps: u64,
    /// Serialised RNG state words ([`Pcg32::state`]).
    pub rng: [u64; 2],
}

/// Save/restore hook for resumable simulations.
pub trait Checkpointable {
    /// Capture everything needed to continue bit-identically.
    fn checkpoint(&self) -> SessionCheckpoint;

    /// Resume from a checkpoint captured on an identically configured
    /// instance.
    ///
    /// # Errors
    ///
    /// Rejects checkpoints whose lattice dimensions disagree with the
    /// configuration or whose RNG words are corrupt.
    fn restore(&mut self, ck: &SessionCheckpoint) -> Result<(), String>;
}

/// What an algorithm builds once from `(model, dims)` and keeps across
/// blocks; the executors themselves borrow it and are rebuilt per block.
#[derive(Clone, Debug)]
enum Parts {
    None,
    Sites(Partition),
    Types(TypePartition),
    Blocks(SplitPlan),
    Shards(Partition, ShardGrid),
}

impl Parts {
    /// Build the parts of `algorithm`, rejecting what it cannot run.
    fn prepare(algorithm: &Algorithm, model: &Model, dims: Dims) -> Result<Self, String> {
        Ok(match algorithm {
            Algorithm::Pndca { partition, .. }
            | Algorithm::LPndca { partition, .. }
            | Algorithm::Parallel { partition, .. } => Parts::Sites(partition.build(dims, model)?),
            Algorithm::TPndca => {
                sides_divisible(dims, 2, "tpndca's checkerboard")?;
                Parts::Types(axis_type_partition(model, dims))
            }
            Algorithm::Fskmc { gx, gy, window, .. } => {
                if !window.is_finite() || *window <= 0.0 {
                    return Err(format!(
                        "fskmc window must be positive and finite (got {window})"
                    ));
                }
                Parts::Blocks(
                    SplitPlan::new(dims, *gx, *gy, model.interaction_radius())
                        .map_err(|e| format!("fskmc: {e}"))?,
                )
            }
            Algorithm::Sharded {
                partition, workers, ..
            } => {
                if *workers == 0 {
                    return Err("sharded pndca needs at least one worker".to_owned());
                }
                let grid = ShardGrid::for_workers(*workers);
                grid.check(dims, model.interaction_radius())?;
                let sites = partition.build(dims, model)?;
                if !sites.is_valid_for(model) {
                    return Err(format!(
                        "partition {partition} violates the non-overlap restriction; \
                         sharded execution would race across domain edges"
                    ));
                }
                Parts::Shards(sites, grid)
            }
            _ => Parts::None,
        })
    }
}

/// How far one [`SimSession::advance`] call runs.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Span {
    /// This many whole algorithm steps.
    Steps(u64),
    /// Until the simulated clock reaches this time.
    Until(f64),
}

/// A paused/resumable simulation: state + RNG + algorithm configuration,
/// advanced in blocks of whole steps.
///
/// One *step* is the algorithm's natural unit: `N` trials for RSM (one MC
/// step), one full sweep for NDCA, one chunk schedule for the partitioned
/// variants, one window for `fskmc`.
#[derive(Clone, Debug)]
pub struct SimSession {
    model: Model,
    algorithm: Algorithm,
    dims: Dims,
    parts: Parts,
    /// Master seed: the counter-keyed executors (`Fskmc`, `Sharded`,
    /// `Parallel`) derive their streams from it and leave the free-running
    /// `rng` below untouched.
    seed: u64,
    state: SimState,
    rng: SimRng,
    steps_done: u64,
    totals: RunStats,
    /// Shard communication since the last [`take_comm`](Self::take_comm).
    comm: CommStats,
}

impl SimSession {
    /// Build a session from simulator configuration; any algorithm, the
    /// step-wise check is [`crate::Simulator::into_session`]'s.
    ///
    /// # Errors
    ///
    /// A block or shard grid that does not tile the lattice, a partition
    /// the sharded executor cannot use, a mismatched initial lattice.
    pub(crate) fn from_parts(
        model: Model,
        dims: Dims,
        seed: u64,
        algorithm: Algorithm,
        initial: Option<Lattice>,
    ) -> Result<Self, String> {
        let parts = Parts::prepare(&algorithm, &model, dims)?;
        let lattice = initial.unwrap_or_else(|| Lattice::filled(dims, 0));
        if lattice.dims() != dims {
            return Err(format!(
                "initial lattice dimensions disagree with the configured dims: {:?} vs {dims:?}",
                lattice.dims()
            ));
        }
        let state = SimState::new(lattice, &model);
        Ok(SimSession {
            model,
            algorithm,
            dims,
            parts,
            seed,
            state,
            rng: rng_from_seed(seed),
            steps_done: 0,
            totals: RunStats::default(),
            comm: CommStats::default(),
        })
    }

    /// The model being simulated.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The current simulation state.
    pub fn state(&self) -> &SimState {
        &self.state
    }

    pub(crate) fn into_state(self) -> SimState {
        self.state
    }

    /// Simulated clock.
    pub fn time(&self) -> f64 {
        self.state.time
    }

    /// Whole steps completed since the initial state (survives restore).
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// Trial/event counters accumulated by this instance (reset on
    /// restore: they count work done by this process, not by the job).
    pub fn totals(&self) -> RunStats {
        self.totals
    }

    /// Drain the shard communication counters accumulated since the last
    /// call (all zero unless the algorithm is sharded).
    pub fn take_comm(&mut self) -> CommStats {
        std::mem::take(&mut self.comm)
    }

    /// Advance by `steps` whole algorithm steps, reporting every trial to
    /// `hook` (the sharded executor reports none: its workers run in other
    /// threads or processes, and the returned totals are all there is).
    pub fn run_blocks(&mut self, steps: u64, hook: &mut impl EventHook) -> RunStats {
        let stats = self.advance(Span::Steps(steps), None, hook);
        self.steps_done += steps;
        self.totals += stats;
        stats
    }

    /// Build the algorithm's executor over the prepared parts and run it
    /// for `span`: the one place an [`Algorithm`] becomes running code.
    pub(crate) fn advance(
        &mut self,
        span: Span,
        recorder: Option<&mut Recorder>,
        hook: &mut impl EventHook,
    ) -> RunStats {
        let (model, seed, state, rng) = (&self.model, self.seed, &mut self.state, &mut self.rng);
        // The step-driven executors share a calling convention; `$steps`
        // names the whole-step method.
        macro_rules! run {
            ($exec:expr, $steps:ident) => {{
                let mut exec = $exec;
                match span {
                    Span::Steps(n) => exec.$steps(state, rng, n, recorder, hook),
                    Span::Until(t) => exec.run_until(state, rng, t, recorder, hook),
                }
            }};
        }
        // The event-driven executors carry pending-event queues and only
        // run to a time; the step-keyed ones only run whole steps of 1/K.
        let until = || match span {
            Span::Until(t) => t,
            Span::Steps(_) => unreachable!("into_session rejects the event-driven algorithms"),
        };
        let whole_steps = || match span {
            Span::Steps(n) => n,
            Span::Until(t) => (t * model.total_rate()).ceil() as u64,
        };
        match (&self.algorithm, &self.parts) {
            (Algorithm::Rsm, _) => run!(Rsm::new(model), run_mc_steps),
            (Algorithm::RsmDiscretized, _) => run!(
                Rsm::new(model).with_time_mode(TimeMode::Discretized),
                run_mc_steps
            ),
            (Algorithm::Vssm, _) => {
                Vssm::new(model, &state.lattice).run_until(state, rng, until(), recorder, hook)
            }
            (Algorithm::VssmTree, _) => {
                VssmTree::new(model, &state.lattice).run_until(state, rng, until(), recorder, hook)
            }
            (Algorithm::Frm, _) => Frm::new(model, &state.lattice, 0.0, rng).run_until(
                state,
                rng,
                until(),
                recorder,
                hook,
            ),
            (Algorithm::Ndca { shuffled }, _) => {
                let order = if *shuffled {
                    SweepOrder::Shuffled
                } else {
                    SweepOrder::RowMajor
                };
                run!(Ndca::new(model).with_order(order), run_steps)
            }
            (Algorithm::Pndca { selection, .. }, Parts::Sites(p)) => {
                run!(Pndca::new(model, p).with_selection(*selection), run_steps)
            }
            (Algorithm::LPndca { l, visit, .. }, Parts::Sites(p)) => {
                run!(LPndca::new(model, p, *l).with_visit(*visit), run_steps)
            }
            (Algorithm::TPndca, Parts::Types(tp)) => {
                run!(TPndca::new(model, tp.clone()), run_steps)
            }
            (Algorithm::Parallel { threads, .. }, Parts::Sites(p)) => ParallelPndca::new(
                model, p, *threads, seed,
            )
            .run_steps(state, whole_steps(), recorder),
            (
                Algorithm::Sharded {
                    selection, mode, ..
                },
                Parts::Shards(p, grid),
            ) => {
                let mut exec = ShardedPndca::new(model, p, *grid, seed)
                    .with_selection(*selection)
                    .with_mode(*mode);
                exec.set_start_step(self.steps_done);
                let stats = exec.run_steps(state, whole_steps(), recorder);
                self.comm += exec.comm_stats();
                stats
            }
            (
                Algorithm::Fskmc {
                    schedule, window, ..
                },
                Parts::Blocks(plan),
            ) => {
                // Streams are keyed on (window, slot, block), which is what
                // makes the window boundary a checkpoint seam.
                let mut exec = FractionalStepKmc::new(model, plan, *schedule, *window, seed);
                exec.set_start_window(self.steps_done);
                match span {
                    Span::Steps(n) => exec.run_windows(state, n, recorder, hook),
                    Span::Until(t) => exec.run_until(state, t, recorder, hook),
                }
            }
            (algorithm, parts) => unreachable!("{parts:?} were not prepared for {algorithm}"),
        }
    }
}

impl Checkpointable for SimSession {
    fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            lattice: self.state.lattice.clone(),
            time: self.state.time,
            steps: self.steps_done,
            rng: self.rng.state(),
        }
    }

    fn restore(&mut self, ck: &SessionCheckpoint) -> Result<(), String> {
        if ck.lattice.dims() != self.dims {
            return Err(format!(
                "checkpoint lattice is {:?}, session dims are {:?}",
                ck.lattice.dims(),
                self.dims
            ));
        }
        self.rng = Pcg32::from_state(ck.rng)?;
        self.state = SimState::new(ck.lattice.clone(), &self.model);
        self.state.time = ck.time;
        self.steps_done = ck.steps;
        self.totals = RunStats::default();
        self.comm = CommStats::default();
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::simulator::{PartitionSpec, Simulator};
    use psr_ca::lpndca::ChunkVisit;
    use psr_ca::pndca::ChunkSelection;
    use psr_ca::splitting::Schedule;
    use psr_dmc::events::NoHook;
    use psr_model::library::zgb::zgb_ziff;
    use psr_shard::{ScheduleMode, Wire};

    fn sharded(workers: u32, mode: ScheduleMode) -> Algorithm {
        Algorithm::Sharded {
            partition: PartitionSpec::FiveColoring,
            selection: ChunkSelection::RandomOrder,
            workers,
            mode,
        }
    }

    fn session(algorithm: Algorithm) -> SimSession {
        Simulator::new(zgb_ziff(0.5, 5.0))
            .dims(Dims::square(20))
            .seed(11)
            .algorithm(algorithm)
            .into_session()
            .expect("steppable algorithm")
    }

    /// One of each step-resumable kind (also what the `Simulator` tests run).
    pub(crate) fn steppable_algorithms() -> Vec<Algorithm> {
        vec![
            Algorithm::Rsm,
            Algorithm::RsmDiscretized,
            Algorithm::Ndca { shuffled: false },
            Algorithm::Ndca { shuffled: true },
            Algorithm::Pndca {
                partition: PartitionSpec::FiveColoring,
                selection: ChunkSelection::RandomOrder,
            },
            Algorithm::Pndca {
                partition: PartitionSpec::FiveColoring,
                selection: ChunkSelection::WeightedByRates,
            },
            Algorithm::LPndca {
                partition: PartitionSpec::FiveColoring,
                l: 5,
                visit: ChunkVisit::SizeWeighted,
            },
            Algorithm::LPndca {
                partition: PartitionSpec::FiveColoring,
                l: 1,
                visit: ChunkVisit::SizeWeighted,
            },
            Algorithm::LPndca {
                partition: PartitionSpec::FiveColoring,
                l: 80,
                visit: ChunkVisit::RandomOnce,
            },
            Algorithm::TPndca,
            // The window-boundary checkpoint seam: exact KMC inside each
            // window, yet fully steppable (one step = one window).
            Algorithm::Fskmc {
                gx: 2,
                gy: 2,
                schedule: Schedule::Lie,
                window: 0.2,
            },
            Algorithm::Fskmc {
                gx: 2,
                gy: 2,
                schedule: Schedule::Strang,
                window: 0.2,
            },
            // Streams keyed by the absolute step: resumable from
            // (lattice, time, steps) at any worker grid.
            sharded(4, ScheduleMode::Inline),
        ]
    }

    #[test]
    fn block_splitting_does_not_change_the_trajectory() {
        for algorithm in steppable_algorithms() {
            let label = format!("{algorithm:?}");
            let mut split = session(algorithm.clone());
            split.run_blocks(3, &mut NoHook);
            split.run_blocks(7, &mut NoHook);
            let mut whole = session(algorithm);
            whole.run_blocks(10, &mut NoHook);
            assert_eq!(
                split.state().lattice,
                whole.state().lattice,
                "{label}: lattice diverged"
            );
            assert_eq!(
                split.time().to_bits(),
                whole.time().to_bits(),
                "{label}: clock diverged"
            );
            assert_eq!(
                split.checkpoint().rng,
                whole.checkpoint().rng,
                "{label}: RNG diverged"
            );
            assert_eq!(split.totals(), whole.totals(), "{label}: stats diverged");
        }
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        for algorithm in steppable_algorithms() {
            let label = format!("{algorithm:?}");
            let mut original = session(algorithm.clone());
            original.run_blocks(5, &mut NoHook);
            let ck = original.checkpoint();
            assert_eq!(ck.steps, 5, "{label}");
            original.run_blocks(5, &mut NoHook);

            let mut resumed = session(algorithm);
            resumed.restore(&ck).expect("restore");
            assert_eq!(resumed.steps_done(), 5, "{label}");
            resumed.run_blocks(5, &mut NoHook);

            assert_eq!(
                resumed.state().lattice,
                original.state().lattice,
                "{label}: lattice diverged after resume"
            );
            assert_eq!(
                resumed.time().to_bits(),
                original.time().to_bits(),
                "{label}: clock diverged after resume"
            );
            assert_eq!(
                resumed.checkpoint().rng,
                original.checkpoint().rng,
                "{label}: RNG diverged after resume"
            );
            assert!(
                resumed.state().coverage.matches(&resumed.state().lattice),
                "{label}: coverage inconsistent after resume"
            );
        }
    }

    #[test]
    fn event_driven_algorithms_are_rejected() {
        for algorithm in [
            Algorithm::Vssm,
            Algorithm::VssmTree,
            Algorithm::Frm,
            Algorithm::Parallel {
                partition: PartitionSpec::FiveColoring,
                threads: 2,
            },
        ] {
            let err = Simulator::new(zgb_ziff(0.5, 5.0))
                .dims(Dims::square(20))
                .algorithm(algorithm)
                .into_session()
                .unwrap_err();
            assert!(err.contains("step-wise"), "unexpected error: {err}");
        }
    }

    #[test]
    fn sharded_sessions_resume_bit_identically_inline_and_over_sockets() {
        let mut whole = session(sharded(4, ScheduleMode::Inline));
        whole.run_blocks(30, &mut NoHook);
        // One process per worker keeps the same checkpoint contract — a
        // SIGKILLed hub resumed from its last checkpoint must land on the
        // uninterrupted inline trajectory.
        for mode in [ScheduleMode::Inline, ScheduleMode::Socket(Wire::Unix)] {
            let mut split = session(sharded(4, mode));
            split.run_blocks(12, &mut NoHook);
            let ck = split.checkpoint();
            assert_eq!(ck.steps, 12);
            let mut resumed = session(sharded(4, mode));
            resumed.restore(&ck).expect("restore");
            resumed.run_blocks(18, &mut NoHook);

            let (a, b) = (whole.checkpoint(), resumed.checkpoint());
            assert_eq!(a.lattice, b.lattice, "{mode}: resumed trajectory diverged");
            assert_eq!(a.time.to_bits(), b.time.to_bits(), "{mode}");
            assert_eq!(a.steps, b.steps, "{mode}");
            // Only the socket path has wire traffic to measure.
            let comm = resumed.take_comm();
            let wired = mode != ScheduleMode::Inline;
            assert_eq!(comm.wire_frames > 0, wired, "{mode}: wire frames");
            assert_eq!(comm.wire_flushes > 0, wired, "{mode}: wire flushes");
        }
    }

    #[test]
    fn sharded_session_measures_communication() {
        let mut session = session(sharded(4, ScheduleMode::Inline));
        let stats = session.run_blocks(10, &mut NoHook);
        assert!(stats.trials > 0);
        let comm = session.take_comm();
        assert!(comm.halo_messages > 0, "2x2 grid must exchange frames");
        assert!(comm.boundary_trials > 0);
        assert_eq!(comm.local_trials + comm.boundary_trials, stats.trials);
        // Drained: a second take returns zeros.
        assert_eq!(session.take_comm(), CommStats::default());
    }

    #[test]
    fn bad_shard_grids_are_rejected_at_build() {
        // 20×20 over 3 workers: 3 does not divide 20.
        let build = |algorithm| {
            Simulator::new(zgb_ziff(0.5, 5.0))
                .dims(Dims::square(20))
                .algorithm(algorithm)
                .into_session()
        };
        let err = build(sharded(3, ScheduleMode::Inline)).unwrap_err();
        assert!(err.contains("does not divide"), "got {err}");
        // A partition whose chunks overlap under the model cannot shard.
        let err = build(Algorithm::Sharded {
            partition: PartitionSpec::SingleChunk,
            selection: ChunkSelection::InOrder,
            workers: 4,
            mode: ScheduleMode::Inline,
        })
        .unwrap_err();
        assert!(err.contains("non-overlap"), "got {err}");
    }

    #[test]
    fn partitions_that_do_not_fit_the_lattice_are_rejected_at_build() {
        let build = |side, algorithm| {
            Simulator::new(zgb_ziff(0.5, 5.0))
                .dims(Dims::square(side))
                .algorithm(algorithm)
                .into_session()
        };
        let pndca = |partition| Algorithm::Pndca {
            partition,
            selection: ChunkSelection::InOrder,
        };
        for (side, algorithm, needs) in [
            (12, pndca(PartitionSpec::FiveColoring), "divisible by 5"),
            (11, pndca(PartitionSpec::Checkerboard), "divisible by 2"),
            (11, Algorithm::TPndca, "divisible by 2"),
        ] {
            let err = build(side, algorithm).unwrap_err();
            assert!(err.contains(needs), "got {err}");
        }
    }

    #[test]
    fn bad_fskmc_configurations_are_rejected_at_build() {
        // 3 does not divide 20.
        let err = Simulator::new(zgb_ziff(0.5, 5.0))
            .dims(Dims::square(20))
            .algorithm(Algorithm::Fskmc {
                gx: 3,
                gy: 2,
                schedule: Schedule::Lie,
                window: 0.1,
            })
            .into_session()
            .unwrap_err();
        assert!(err.contains("divide"), "unexpected error: {err}");
        let err = Simulator::new(zgb_ziff(0.5, 5.0))
            .dims(Dims::square(20))
            .algorithm(Algorithm::Fskmc {
                gx: 2,
                gy: 2,
                schedule: Schedule::Lie,
                window: 0.0,
            })
            .into_session()
            .unwrap_err();
        assert!(err.contains("window"), "unexpected error: {err}");
    }

    #[test]
    fn fskmc_session_leaves_the_free_running_rng_untouched() {
        // All fskmc draws come from counter-keyed streams; the session rng
        // must stay at its seed state so checkpoints are trivially stable.
        let algorithm = Algorithm::Fskmc {
            gx: 2,
            gy: 2,
            schedule: Schedule::Strang,
            window: 0.2,
        };
        let mut s = session(algorithm);
        let before = s.checkpoint().rng;
        let stats = s.run_blocks(5, &mut NoHook);
        assert!(stats.executed > 0, "no events in 5 windows");
        assert_eq!(s.checkpoint().rng, before);
        assert_eq!(s.time().to_bits(), (0.2f64 * 5.0).to_bits());
    }

    #[test]
    fn restore_rejects_wrong_dims_and_bad_rng() {
        let mut s = session(Algorithm::Rsm);
        let mut ck = s.checkpoint();
        ck.lattice = Lattice::filled(Dims::square(10), 0);
        assert!(s.restore(&ck).unwrap_err().contains("dims"));
        let mut ck = s.checkpoint();
        ck.rng[1] &= !1; // even increment: corrupt
        assert!(s.restore(&ck).unwrap_err().contains("even"));
    }
}
