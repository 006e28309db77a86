//! The sharded PNDCA executor: per-worker domains, message-only boundary
//! state, and three interchangeable schedulers of one worker step machine.
//!
//! [`ShardedPndca`] splits the lattice over a [`ShardGrid`] of workers.
//! Each worker keeps the protocol order itself (see the `worker` module):
//! its step machine runs phases until a frame it needs has not arrived.
//! The schedulers only move bytes:
//!
//! - **Inline** — every machine in turn in the calling thread, frames
//!   routed between them as encoded byte messages, phases charged on the
//!   wall clock (one worker runs at a time);
//! - **Threaded** — one OS thread per worker, which also builds that
//!   worker, mpsc channel inboxes, phases charged on each thread's on-CPU
//!   clock; a thread that ends, by error or panic, hangs up on its peers
//!   and the hub as a closed socket does;
//! - **Socket** — one OS process per worker over real sockets
//!   ([`crate::net`]).
//!
//! Every report and gather goes to one hub fold in the calling thread. It
//! re-orders reports by step, checks that all workers swept the same
//! chunks, and accumulates the *critical path* (Σ over phases of the
//! slowest worker, plus exchange rounds × measured wire latency) — the
//! honest strong-scaling measure on a machine with fewer cores than
//! workers.
//!
//! All three produce bit-identical trajectories — nothing random depends
//! on scheduling — and match the shared-lattice
//! [`ParallelPndca`](psr_parallel::ParallelPndca) on the same
//! `(seed, partition)`, which `tests/differential.rs` pins across grids
//! and all four chunk-selection strategies.

use crate::domain::ShardGrid;
use crate::frame::{self, FrameSink, StepReport, KIND_GATHER, KIND_REPORT};
use crate::net::{self, Wire};
use crate::worker::{Delivery, Worker};
use psr_ca::partition::Partition;
use psr_ca::pndca::ChunkSelection;
use psr_dmc::recorder::Recorder;
use psr_dmc::rsm::RunStats;
use psr_dmc::sim::SimState;
use psr_kernel::CompiledModel;
use psr_lattice::Lattice;
use psr_model::Model;
use psr_parallel::{apply_coverage_deltas, CommStats};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the worker phase machines are driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Every worker in turn in the calling thread, phases timed on the wall
    /// clock.
    Inline,
    /// One OS thread per worker over mpsc channels.
    Threaded,
    /// One OS *process* per worker over sockets (see [`crate::net`]): the
    /// hub spawns `psr-shard-worker` children, the boundary frames cross
    /// real kernel sockets with per-peer write coalescing, and the
    /// critical path charges measured on-CPU phase times plus the
    /// transport's measured per-exchange latency.
    Socket(Wire),
}

impl std::fmt::Display for ScheduleMode {
    /// The `transport =` token of engine specs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScheduleMode::Inline => "inline",
            ScheduleMode::Threaded => "threaded",
            ScheduleMode::Socket(wire) => wire.token(),
        })
    }
}

impl std::str::FromStr for ScheduleMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "inline" => Ok(ScheduleMode::Inline),
            "threaded" => Ok(ScheduleMode::Threaded),
            other => Wire::parse(other).map(ScheduleMode::Socket).map_err(|_| {
                format!("unknown transport {other:?} (expected inline|threaded|unix|tcp)")
            }),
        }
    }
}

/// Sharded PNDCA over a conflict-free partition and a worker grid.
pub struct ShardedPndca<'m, 'p> {
    model: &'m Model,
    partition: &'p Partition,
    grid: ShardGrid,
    seed: u64,
    selection: ChunkSelection,
    mode: ScheduleMode,
    compiled: Arc<CompiledModel>,
    step: u64,
    comm: CommStats,
    reaction_executed: Vec<u64>,
    critical_seconds: f64,
    recv_timeout: Duration,
    wire_latency: Option<f64>,
}

impl<'m, 'p> ShardedPndca<'m, 'p> {
    /// Build a sharded executor.
    ///
    /// # Panics
    ///
    /// Panics if the partition violates the non-overlap restriction for
    /// `model` (the same precondition as the shared-lattice executor: it
    /// is what makes one sweep's write sets globally disjoint, which the
    /// write-back protocol relies on), if the grid does not evenly tile
    /// the lattice with domains larger than twice the interaction radius,
    /// or if the model fails [`psr_kernel::require_masks`] (workers exchange
    /// enabled-set counts and trust their kernels' masks).
    pub fn new(model: &'m Model, partition: &'p Partition, grid: ShardGrid, seed: u64) -> Self {
        assert!(
            partition.is_valid_for(model),
            "partition violates the non-overlap restriction; \
             sharded execution would race across domain edges"
        );
        grid.validate(partition.dims(), model.interaction_radius());
        psr_kernel::require_masks(model.num_reactions()).unwrap_or_else(|e| panic!("{e}"));
        let compiled = Arc::new(CompiledModel::compile(model));
        ShardedPndca {
            model,
            partition,
            grid,
            seed,
            selection: ChunkSelection::InOrder,
            mode: ScheduleMode::Threaded,
            compiled,
            step: 0,
            comm: CommStats::default(),
            reaction_executed: vec![0; model.num_reactions()],
            critical_seconds: 0.0,
            recv_timeout: Duration::from_secs(60),
            wire_latency: None,
        }
    }

    /// Select any of the four §5 chunk-selection strategies.
    pub fn with_selection(mut self, selection: ChunkSelection) -> Self {
        self.selection = selection;
        self
    }

    /// Choose the scheduler (default: [`ScheduleMode::Threaded`]).
    pub fn with_mode(mut self, mode: ScheduleMode) -> Self {
        self.mode = mode;
        self
    }

    /// Deadline for every blocking receive of the Threaded and Socket
    /// schedulers (default 60 s): a worker that sends nothing for this long
    /// fails the run instead of hanging it. Fault tests shorten it; the
    /// Inline scheduler has no receive to time out.
    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = timeout;
        self
    }

    /// Continue a run at absolute step `step` (checkpoint resume): the
    /// per-step RNG streams are keyed by absolute step, so resuming at the
    /// recorded step reproduces the uninterrupted trajectory.
    pub fn set_start_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Measured communication totals, summed over workers: interior vs
    /// boundary trials plus every frame (and its encoded bytes) that
    /// crossed a worker boundary.
    pub fn comm_stats(&self) -> CommStats {
        self.comm
    }

    /// Executions per reaction type so far (rate observables).
    pub fn reaction_executions(&self) -> &[u64] {
        &self.reaction_executed
    }

    /// Critical path accumulated so far: Σ over phases of the slowest
    /// worker's time — the wall-clock a fully parallel machine would need,
    /// measurable on any host. Inline workers are timed on the wall clock,
    /// thread and process workers on their own on-CPU clock; socket runs
    /// add the transport's measured latency per exchange round.
    pub fn critical_path_seconds(&self) -> f64 {
        self.critical_seconds
    }

    /// Measured one-way frame latency of the last socket handshake,
    /// seconds — the real per-exchange wire cost the Segers model charges
    /// for. `None` until a socket run has handshaken.
    pub fn wire_latency_seconds(&self) -> Option<f64> {
        self.wire_latency
    }

    /// Run `steps` sharded PNDCA steps, scattering from and gathering back
    /// into `state.lattice`.
    ///
    /// # Panics
    ///
    /// Panics if a Threaded or Socket worker died or went silent; use
    /// [`try_run_steps`](Self::try_run_steps) to handle that as an error
    /// instead.
    pub fn run_steps(
        &mut self,
        state: &mut SimState,
        steps: u64,
        recorder: Option<&mut Recorder>,
    ) -> RunStats {
        match self.try_run_steps(state, steps, recorder) {
            Ok(stats) => stats,
            Err(e) => panic!("sharded run failed: {e}"),
        }
    }

    /// [`run_steps`](Self::run_steps), with worker failures as errors,
    /// reported after joining or killing the remaining workers.
    ///
    /// # Errors
    ///
    /// The first worker failure observed: a dead thread or process, a
    /// protocol violation, a receive deadline expiring, or the
    /// `PSR_SHARD_FAIL_AT` fault hook.
    pub fn try_run_steps(
        &mut self,
        state: &mut SimState,
        steps: u64,
        mut recorder: Option<&mut Recorder>,
    ) -> Result<RunStats, String> {
        assert_eq!(
            state.lattice.dims(),
            self.partition.dims(),
            "state and partition dimensions differ"
        );
        if let Some(rec) = recorder.as_deref_mut() {
            rec.record(state.time, &state.coverage);
        }
        let build = self.worker_builder(steps);
        let stats = match self.mode {
            ScheduleMode::Inline => self.run_inline(&build, state, steps, recorder)?,
            ScheduleMode::Threaded => self.run_threaded(&build, state, steps, recorder)?,
            ScheduleMode::Socket(wire) => self.run_socket(wire, state, steps, recorder)?,
        };
        state.bump_mutations();
        Ok(stats)
    }

    /// Builds worker `id`, for the next `steps` steps, scattered from a
    /// lattice. It borrows nothing of `self`, so the Threaded scheduler's
    /// threads can build their workers while the hub holds `self` mutably.
    fn worker_builder(
        &self,
        steps: u64,
    ) -> impl Fn(&Lattice, u32) -> Worker<'m> + Sync + use<'m, 'p> {
        let (model, partition, compiled) = (self.model, self.partition, self.compiled.clone());
        let (grid, seed, selection) = (self.grid, self.seed, self.selection);
        let window = self.step..self.step + steps;
        move |lattice, id| {
            Worker::new(
                model,
                partition,
                compiled.clone(),
                lattice,
                grid,
                id,
                seed,
                selection,
                window.clone(),
            )
        }
    }

    /// Fold one step's reports, one per worker, into the state, stats,
    /// counters and critical path: per phase slot the slowest worker's
    /// shipped time, plus one wire `latency` per exchange round when
    /// workers are apart.
    fn apply_step_reports(
        &mut self,
        state: &mut SimState,
        reports: &[StepReport],
        latency: f64,
        stats: &mut RunStats,
        recorder: &mut Option<&mut Recorder>,
    ) -> Result<(), String> {
        // Every worker summed the same counts and drew from its own copy of
        // the same stream — any divergence is a determinism bug.
        if reports.iter().any(|r| r.chunks != reports[0].chunks) {
            return Err(format!(
                "step {}: workers swept different chunks (weighted draw diverged)",
                self.step
            ));
        }
        // Every worker's machine reports the same slots.
        for s in 0..reports[0].phase_busy.len() {
            self.critical_seconds += reports
                .iter()
                .map(|r| r.phase_busy.get(s).copied().unwrap_or(0.0))
                .fold(0.0, f64::max);
        }
        // Exchange rounds per sweep: write-backs and halos, plus the counts
        // all-gather when weighted. Flushes to different peers overlap on a
        // parallel machine, so each round costs one frame latency — none
        // when every send is local.
        if reports.len() > 1 {
            let weighted = self.selection == ChunkSelection::WeightedByRates;
            let rounds = if weighted { 3.0 } else { 2.0 };
            self.critical_seconds += rounds * self.partition.num_chunks() as f64 * latency;
        }
        let mut deltas = vec![0i64; self.model.species().len()];
        for rep in reports {
            stats.trials += rep.trials;
            stats.executed += rep.executed;
            for (d, rd) in deltas.iter_mut().zip(&rep.deltas) {
                *d += rd;
            }
            for (x, rx) in self
                .reaction_executed
                .iter_mut()
                .zip(&rep.reaction_executed)
            {
                *x += rx;
            }
            self.comm += rep.comm;
        }
        // Workers' own vectors need not balance (boundary reactions split
        // across owners); only the shard-wide sum does, which is what
        // apply_coverage_deltas requires.
        apply_coverage_deltas(&mut state.coverage, &deltas);
        state.time += 1.0 / self.model.total_rate();
        if let Some(rec) = recorder.as_deref_mut() {
            rec.record(state.time, &state.coverage);
        }
        self.step += 1;
        Ok(())
    }

    /// Write one worker's gathered owned rectangle into the global lattice.
    fn apply_gather(&self, lattice: &mut Lattice, src: u32, payload: &[u8]) -> Result<(), String> {
        let dims = lattice.dims();
        let (x0, y0, bw, bh) = self.grid.domain_of(dims, src);
        if payload.len() != (bw * bh) as usize {
            return Err(format!(
                "worker {src}: torn gather of {} bytes for a {bw}×{bh} domain",
                payload.len()
            ));
        }
        let gw = dims.width() as usize;
        for row in 0..bh as usize {
            let dst = (y0 as usize + row) * gw + x0 as usize;
            let src_off = row * bw as usize;
            lattice.cells_mut()[dst..dst + bw as usize]
                .copy_from_slice(&payload[src_off..src_off + bw as usize]);
        }
        Ok(())
    }

    /// Every worker's machine in turn in the calling thread, each frame
    /// routed straight into its receiver's pending map. One worker runs at
    /// a time, so the wall clock charges each only for its own phases — a
    /// `/proc` read per phase would cost more than a small sweep.
    fn run_inline(
        &mut self,
        build: &impl Fn(&Lattice, u32) -> Worker<'m>,
        state: &mut SimState,
        steps: u64,
        recorder: Option<&mut Recorder>,
    ) -> Result<RunStats, String> {
        let mut workers: Vec<Worker<'m>> = (0..self.grid.workers())
            .map(|id| build(&state.lattice, id))
            .collect();
        let epoch = Instant::now();
        let clock = || epoch.elapsed().as_secs_f64();
        let mut sink = InlineSink::default();
        self.consume_reports(state, steps, recorder, 0.0, |_| loop {
            if let Some(bytes) = sink.hub.pop_front() {
                return Ok(bytes);
            }
            let mut moved = false;
            for id in 0..workers.len() {
                workers[id].advance(&mut sink, &clock)?;
                moved |= !sink.frames.is_empty() || !sink.hub.is_empty();
                for (dest, bytes) in sink.frames.drain(..) {
                    workers[dest as usize].deliver((id as u32, Ok(bytes)))?;
                }
            }
            if !moved {
                return Err("inline workers stalled: each waits for a frame".into());
            }
        })
    }

    /// Each worker is built inside its own thread, from a snapshot of the
    /// starting lattice: the hub writes gathers into `state.lattice` while
    /// slower workers may still be scattering.
    fn run_threaded(
        &mut self,
        build: &(impl Fn(&Lattice, u32) -> Worker<'m> + Sync),
        state: &mut SimState,
        steps: u64,
        recorder: Option<&mut Recorder>,
    ) -> Result<RunStats, String> {
        let timeout = self.recv_timeout;
        let (hub_tx, hub_rx) = mpsc::channel::<Delivery>();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..self.grid.workers())
            .map(|_| mpsc::channel::<Delivery>())
            .unzip();
        let snapshot = state.lattice.clone();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..)
                .zip(rxs)
                .map(|(id, inbox)| {
                    let mut sink = ChannelSink {
                        id,
                        peers: txs.clone(),
                        hub: hub_tx.clone(),
                        out: Vec::new(),
                    };
                    let snapshot = &snapshot;
                    scope.spawn(move || build(snapshot, id).run(&mut sink, &inbox, timeout))
                })
                .collect();
            drop((hub_tx, txs));
            let hub = self.consume_reports(state, steps, recorder, 0.0, |done| {
                recv_from_workers(&hub_rx, done, timeout)
            });
            // Dropped before the joins so that, after a hub failure, every
            // worker fails at its next report instead of finishing the run.
            drop(hub_rx);
            let mut failed = None;
            for (id, handle) in handles.into_iter().enumerate() {
                let died = match handle.join() {
                    Ok(Ok(())) => continue,
                    Ok(Err(e)) => e,
                    Err(_) => "panicked".to_owned(),
                };
                failed.get_or_insert(format!("worker {id}: {died}"));
            }
            match (hub, failed) {
                (hub, None) => hub,
                (Ok(_), Some(worker)) => Err(worker),
                (Err(e), Some(worker)) => Err(format!("{e}; {worker}")),
            }
        })
    }

    /// Spawn the worker process fleet and fold its reports and gathers.
    fn run_socket(
        &mut self,
        wire: Wire,
        state: &mut SimState,
        steps: u64,
        recorder: Option<&mut Recorder>,
    ) -> Result<RunStats, String> {
        let blob = net::config::encode_config(
            self.model,
            self.partition,
            &state.lattice,
            self.grid,
            self.seed,
            self.selection,
            self.step,
            steps,
            self.recv_timeout.as_millis() as u64,
        );
        let hub = net::hub::Hub::launch(wire, self.grid.workers(), &blob)?;
        self.wire_latency = Some(hub.latency);
        let timeout = self.recv_timeout;
        let stats = self.consume_reports(state, steps, recorder, hub.latency, |done| {
            recv_from_workers(&hub.rx, done, timeout)
        })?;
        hub.finish()?;
        Ok(stats)
    }

    /// The hub of every scheduler: take frames from `recv` until every
    /// step's reports (re-ordered by step) and every worker's gather have
    /// been folded into the state, stats and counters.
    ///
    /// `recv` is handed the workers whose gather has arrived: such a worker
    /// may hang up while slower peers are still reporting, which is its
    /// end, not a failure. Worker bytes are outside input here: a malformed
    /// report, a torn gather, an unknown sender, a second report or gather
    /// from one worker, or a report outside the step window is an `Err`.
    fn consume_reports(
        &mut self,
        state: &mut SimState,
        steps: u64,
        mut recorder: Option<&mut Recorder>,
        latency: f64,
        mut recv: impl FnMut(&[bool]) -> Result<Vec<u8>, String>,
    ) -> Result<RunStats, String> {
        let p = self.grid.workers() as usize;
        let end = self.step + steps;
        let mut stats = RunStats::default();
        let mut by_step: BTreeMap<u64, Vec<Option<StepReport>>> = BTreeMap::new();
        let mut done = vec![false; p];
        while done.contains(&false) || self.step < end {
            let bytes = recv(&done)?;
            let (header, payload) = frame::try_decode(&bytes)?;
            let (src, step) = (header.src as usize, header.step);
            if src >= p {
                return Err(format!("frame from worker {src} of a {p}-worker grid"));
            }
            match header.kind {
                KIND_REPORT if (self.step..end).contains(&step) => {
                    let slot = &mut by_step.entry(step).or_insert_with(|| vec![None; p])[src];
                    if slot.replace(StepReport::try_decode(payload)?).is_some() {
                        return Err(format!("worker {src} reported step {step} twice"));
                    }
                    while let Some(entry) = by_step
                        .first_entry()
                        .filter(|e| *e.key() == self.step && e.get().iter().all(Option::is_some))
                    {
                        let reports: Vec<StepReport> =
                            entry.remove().into_iter().flatten().collect();
                        self.apply_step_reports(
                            state,
                            &reports,
                            latency,
                            &mut stats,
                            &mut recorder,
                        )?;
                    }
                }
                KIND_REPORT => {
                    return Err(format!("worker {src} reported step {step} out of turn"))
                }
                KIND_GATHER if !done[src] => {
                    self.apply_gather(&mut state.lattice, header.src, payload)?;
                    done[src] = true;
                }
                kind => return Err(format!("worker {src} sent the hub frame kind {kind}")),
            }
        }
        Ok(stats)
    }
}

/// The next report or gather from any worker, waiting at most `timeout`.
/// A worker's hang-up (a socket's EOF, a thread's drop guard) is its end
/// once its gather is `done`, and a failure before.
fn recv_from_workers(
    rx: &mpsc::Receiver<Delivery>,
    done: &[bool],
    timeout: Duration,
) -> Result<Vec<u8>, String> {
    loop {
        match rx
            .recv_timeout(timeout)
            .map_err(|e| format!("no worker frame within {timeout:?}: {e}"))?
        {
            (_, Ok(bytes)) => return Ok(bytes),
            (id, Err(_)) if done.get(id as usize) == Some(&true) => {}
            (id, Err(e)) => return Err(format!("worker {id} failed: {e}")),
        }
    }
}

/// The Inline transport: peer frames collected for routing, hub frames
/// queued for the fold.
#[derive(Default)]
struct InlineSink {
    frames: Vec<(u32, Vec<u8>)>,
    hub: VecDeque<Vec<u8>>,
}

impl FrameSink for InlineSink {
    fn frame(&mut self, dest: u32, frame: Vec<u8>) {
        self.frames.push((dest, frame));
    }

    fn to_hub(&mut self, frame: Vec<u8>) -> Result<(), String> {
        self.hub.push_back(frame);
        Ok(())
    }
}

/// The Threaded transport: each phase's frames into their receivers'
/// inboxes at the flush. Dropped, on return or unwind, it hangs up on the
/// hub and every peer, as a closed socket does.
struct ChannelSink {
    id: u32,
    peers: Vec<mpsc::Sender<Delivery>>,
    hub: mpsc::Sender<Delivery>,
    out: Vec<(u32, Vec<u8>)>,
}

impl FrameSink for ChannelSink {
    fn frame(&mut self, dest: u32, frame: Vec<u8>) {
        self.out.push((dest, frame));
    }

    fn flush(&mut self, _comm: &mut CommStats) -> Result<(), String> {
        for (dest, frame) in self.out.drain(..) {
            // A receiver that is gone has hung up: whoever waits on it fails.
            let _ = self.peers[dest as usize].send((self.id, Ok(frame)));
        }
        Ok(())
    }

    fn to_hub(&mut self, frame: Vec<u8>) -> Result<(), String> {
        self.hub
            .send((self.id, Ok(frame)))
            .map_err(|_| "hub hung up".to_owned())
    }
}

impl Drop for ChannelSink {
    fn drop(&mut self) {
        // The hub first: it hears of a failure before any peer it fails.
        for tx in std::iter::once(&self.hub).chain(&self.peers) {
            let _ = tx.send((self.id, Err("hung up".to_owned())));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::NO_DIR;
    use psr_ca::partition_builder::{five_coloring, greedy_coloring};
    use psr_lattice::Dims;
    use psr_model::library::zgb::zgb_ziff;

    /// A report frame of worker `src` for `step`, with its chunk sequence.
    fn report(src: u32, step: u64, chunks: &[u64]) -> Vec<u8> {
        let report = StepReport {
            chunks: chunks.to_vec(),
            ..StepReport::zeroed(3, 4)
        };
        frame::encode(KIND_REPORT, NO_DIR, src, step, 0, &report.encode())
    }

    /// A gather frame of worker `src` with `cells` cells.
    fn gather(src: u32, cells: usize) -> Vec<u8> {
        frame::encode(KIND_GATHER, NO_DIR, src, 1, 0, &vec![0; cells])
    }

    /// Feed `frames` to the hub fold of a one-step run on a 2×1 grid of
    /// 10×20 domains.
    fn fold(frames: Vec<Vec<u8>>) -> Result<RunStats, String> {
        let model = zgb_ziff(0.5, 2.0);
        let dims = Dims::square(20);
        let partition = five_coloring(dims);
        let mut exec = ShardedPndca::new(&model, &partition, ShardGrid::new(2, 1), 7);
        let mut state = SimState::new(Lattice::filled(dims, 0), &model);
        let mut frames = frames.into_iter();
        exec.consume_reports(&mut state, 1, None, 0.0, |_| {
            frames.next().ok_or_else(|| "out of frames".to_owned())
        })
    }

    #[test]
    fn hub_fold_takes_one_report_and_one_gather_per_worker() {
        let frames = vec![
            report(1, 0, &[2, 0]),
            gather(1, 200),
            report(0, 0, &[2, 0]),
            gather(0, 200),
        ];
        fold(frames).expect("a well-formed step folds");
    }

    #[test]
    fn hub_fold_refuses_an_unknown_sender() {
        let err = fold(vec![report(0, 0, &[1]), report(5, 0, &[1])]).unwrap_err();
        assert!(err.contains("worker 5"), "{err}");
        let err = fold(vec![gather(2, 200)]).unwrap_err();
        assert!(err.contains("worker 2"), "{err}");
    }

    #[test]
    fn hub_fold_refuses_a_second_report_for_one_step() {
        let err = fold(vec![report(0, 0, &[1]), report(0, 0, &[1])]).unwrap_err();
        assert!(err.contains("worker 0 reported step 0 twice"), "{err}");
    }

    #[test]
    fn hub_fold_refuses_a_torn_gather() {
        let err = fold(vec![gather(1, 199)]).unwrap_err();
        assert!(err.contains("worker 1: torn gather"), "{err}");
    }

    #[test]
    fn hub_fold_refuses_a_malformed_report() {
        // Zero lengths, then one comm word of the eight even an empty
        // report carries.
        let bytes = frame::encode(KIND_REPORT, NO_DIR, 0, 0, 0, &[0; 56]);
        let err = fold(vec![bytes]).unwrap_err();
        assert!(err.contains("length mismatch"), "{err}");
    }

    /// Every scheduler's reports go through this fold, so this is the check
    /// for Socket runs too.
    #[test]
    fn hub_fold_refuses_workers_that_swept_different_chunks() {
        let err = fold(vec![report(0, 0, &[1, 2]), report(1, 0, &[2, 1])]).unwrap_err();
        assert!(err.contains("step 0"), "{err}");
    }

    /// The in-process schedulers on a real divergence: worker 1 keyed by
    /// another seed shuffles another chunk order.
    #[test]
    fn workers_that_swept_different_chunks_fail_inline_and_threaded_runs() {
        let model = zgb_ziff(0.5, 2.0);
        let dims = Dims::square(20);
        let partition = five_coloring(dims);
        let exec = |seed| {
            ShardedPndca::new(&model, &partition, ShardGrid::new(2, 1), seed)
                .with_selection(ChunkSelection::RandomOrder)
        };
        let (honest, skewed) = (exec(7).worker_builder(3), exec(8).worker_builder(3));
        let build = |lattice: &Lattice, id| match id {
            1 => skewed(lattice, id),
            _ => honest(lattice, id),
        };
        for mode in [ScheduleMode::Inline, ScheduleMode::Threaded] {
            let mut state = SimState::new(Lattice::filled(dims, 0), &model);
            let mut exec = exec(7);
            let err = match mode {
                ScheduleMode::Inline => exec.run_inline(&build, &mut state, 3, None),
                _ => exec.run_threaded(&build, &mut state, 3, None),
            }
            .expect_err("diverged workers must fail the run");
            assert!(
                err.contains("step 0: workers swept different chunks"),
                "{mode}: {err}"
            );
        }
    }

    #[test]
    fn threaded_critical_path_is_measured_within_the_wall_time() {
        let model = zgb_ziff(0.5, 2.0);
        let dims = Dims::square(40);
        let partition = five_coloring(dims);
        let mut exec = ShardedPndca::new(&model, &partition, ShardGrid::new(2, 2), 7)
            .with_mode(ScheduleMode::Threaded);
        let mut state = SimState::new(Lattice::filled(dims, 0), &model);
        let started = Instant::now();
        exec.run_steps(&mut state, 40, None);
        let (cp, wall) = (
            exec.critical_path_seconds(),
            started.elapsed().as_secs_f64(),
        );
        assert!(cp > 0.0 && cp <= wall, "critical path {cp} s in {wall} s");
    }

    #[test]
    fn threaded_run_past_its_receive_deadline_is_an_error() {
        let model = zgb_ziff(0.5, 2.0);
        let dims = Dims::square(512);
        let partition = greedy_coloring(dims, &model);
        // No 512² sweep finishes in 20 µs: the hub's wait for the first
        // report (or a worker's wait for its neighbour's write-backs) must
        // give up rather than block until the frame arrives.
        let mut exec = ShardedPndca::new(&model, &partition, ShardGrid::new(2, 1), 7)
            .with_mode(ScheduleMode::Threaded)
            .with_recv_timeout(Duration::from_micros(20));
        let mut state = SimState::new(Lattice::filled(dims, 0), &model);
        let err = exec
            .try_run_steps(&mut state, 3, None)
            .expect_err("a 20 µs deadline cannot be met");
        assert!(
            err.contains("within 20µs") || err.contains("timed out"),
            "{err}"
        );
    }
}
