//! The sharded PNDCA executor: per-worker domains, message-only boundary
//! state, and two interchangeable schedulers.
//!
//! [`ShardedPndca`] splits the lattice over a [`ShardGrid`] of workers and
//! drives the worker phase protocol (see [`crate::worker`]) with one of:
//!
//! - **Inline** — a lockstep loop over the workers inside the calling
//!   thread. Frames still flow as encoded byte messages, so the protocol
//!   exercised is exactly the threaded one, but phases are timed per
//!   worker and the *critical path* (Σ over phases of the slowest worker)
//!   is accumulated — the honest strong-scaling measure on a machine with
//!   fewer cores than workers.
//! - **Threaded** — one OS thread per worker, mpsc channel inboxes, and a
//!   hub (the calling thread) that consumes per-step reports and the final
//!   gather. Workers demux out-of-order frames with a pending map keyed by
//!   `(kind, step, pos, dir, src)`; adjacent workers may drift by at most
//!   one sweep, non-adjacent ones further, and the hub re-orders reports
//!   by step.
//!
//! Both schedulers produce bit-identical trajectories — nothing random
//! depends on scheduling — and both match the shared-lattice
//! [`ParallelPndca`](psr_parallel::ParallelPndca) on the same
//! `(seed, partition)`, which `tests/differential.rs` pins across grids
//! and all four chunk-selection strategies.

use crate::domain::ShardGrid;
use crate::frame::{self, StepReport, KIND_GATHER, KIND_REPORT};
use crate::net::{self, Wire};
use crate::worker::Worker;
use psr_ca::partition::Partition;
use psr_ca::pndca::ChunkSelection;
use psr_dmc::recorder::Recorder;
use psr_dmc::rsm::RunStats;
use psr_dmc::sim::SimState;
use psr_kernel::CompiledModel;
use psr_model::Model;
use psr_parallel::{apply_coverage_deltas, CommStats};
use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the worker phase machines are driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Lockstep in the calling thread, with per-phase critical-path timing.
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

    /// Deadline for every socket receive (default 60 s): a peer that sends
    /// nothing for this long fails the run instead of hanging it. Fault
    /// tests shorten it; the in-process schedulers ignore it.
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

    /// Completed steps.
    pub fn steps_done(&self) -> u64 {
        self.step
    }

    /// The worker grid.
    pub fn grid(&self) -> ShardGrid {
        self.grid
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
    /// measurable on any host. Inline mode times phases in the calling
    /// thread; socket mode sums the workers' shipped on-CPU phase times
    /// plus the transport's measured per-exchange latency.
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
    /// Panics if the socket transport fails (a worker process died or went
    /// silent); use [`try_run_steps`](Self::try_run_steps) to handle that
    /// as an error instead.
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

    /// [`run_steps`](Self::run_steps), with transport failures as errors.
    /// The in-process schedulers cannot fail; the socket transport reports
    /// dead or silent workers here after tearing the fleet down.
    ///
    /// # Errors
    ///
    /// The first worker failure observed: process death, protocol
    /// violation, or a receive deadline expiring.
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
        let build_workers = |exec: &Self, lattice: &psr_lattice::Lattice| -> Vec<Worker<'m>> {
            (0..exec.grid.workers())
                .map(|id| {
                    Worker::new(
                        exec.model,
                        exec.partition,
                        exec.compiled.clone(),
                        lattice,
                        exec.grid,
                        id,
                        exec.seed,
                        exec.selection,
                    )
                })
                .collect()
        };
        let stats = match self.mode {
            ScheduleMode::Inline => {
                let workers = build_workers(self, &state.lattice);
                self.run_inline(workers, state, steps, recorder)
            }
            ScheduleMode::Threaded => {
                let workers = build_workers(self, &state.lattice);
                self.run_threaded(workers, state, steps, recorder)
            }
            ScheduleMode::Socket(wire) => self.run_socket(wire, state, steps, recorder)?,
        };
        state.bump_mutations();
        Ok(stats)
    }

    /// Fold one step's worker reports into the state, stats, and counters.
    fn apply_step_reports(
        &mut self,
        state: &mut SimState,
        reports: &[StepReport],
        stats: &mut RunStats,
        recorder: &mut Option<&mut Recorder>,
    ) {
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
    }

    /// Write one worker's gathered owned rectangle into the global lattice.
    fn apply_gather(&self, lattice: &mut psr_lattice::Lattice, src: u32, payload: &[u8]) {
        let dims = lattice.dims();
        let (x0, y0, bw, bh) = self.grid.domain_of(dims, src);
        assert_eq!(payload.len(), (bw * bh) as usize, "torn gather payload");
        let gw = dims.width() as usize;
        for row in 0..bh as usize {
            let dst = (y0 as usize + row) * gw + x0 as usize;
            let src_off = row * bw as usize;
            lattice.cells_mut()[dst..dst + bw as usize]
                .copy_from_slice(&payload[src_off..src_off + bw as usize]);
        }
    }

    fn run_inline(
        &mut self,
        mut workers: Vec<Worker<'m>>,
        state: &mut SimState,
        steps: u64,
        mut recorder: Option<&mut Recorder>,
    ) -> RunStats {
        let mut stats = RunStats::default();
        let m = self.partition.num_chunks();
        let weighted = self.selection == ChunkSelection::WeightedByRates;
        for _ in 0..steps {
            let step = self.step;
            for w in workers.iter_mut() {
                w.begin_step(step);
            }
            let order: Vec<usize> = if weighted {
                Vec::new()
            } else {
                workers[0].chunk_order(step)
            };
            for pos in 0..m as u32 {
                let chunk = if weighted {
                    self.exchange_inline(&mut workers, |w, sink| w.counts_frames(step, pos, sink));
                    let mut chunk = None;
                    let mut max = 0.0f64;
                    for w in workers.iter_mut() {
                        let t = Instant::now();
                        let c = w.weighted_draw();
                        max = max.max(t.elapsed().as_secs_f64());
                        // Every worker summed the same counts and drew from
                        // its own copy of the same stream — any divergence
                        // is a determinism bug.
                        assert_eq!(*chunk.get_or_insert(c), c, "weighted draw diverged");
                    }
                    self.critical_seconds += max;
                    chunk.expect("at least one worker")
                } else {
                    order[pos as usize]
                };
                self.timed_phase(&mut workers, |w| w.sweep(step, pos, chunk));
                self.exchange_inline(&mut workers, |w, sink| w.wb_frames(step, pos, sink));
                self.exchange_inline(&mut workers, |w, sink| w.halo_frames(step, pos, sink));
                self.timed_phase(&mut workers, |w| w.fold());
            }
            let reports: Vec<StepReport> = workers
                .iter_mut()
                .map(|w| {
                    let bytes = w.report_frame(step);
                    let (_, payload) = frame::decode(&bytes);
                    StepReport::decode(payload)
                })
                .collect();
            self.apply_step_reports(state, &reports, &mut stats, &mut recorder);
            self.step += 1;
        }
        for w in &workers {
            let bytes = w.gather_frame(self.step);
            let (header, payload) = frame::decode(&bytes);
            self.apply_gather(&mut state.lattice, header.src, payload);
        }
        stats
    }

    /// One timed lockstep phase: run `f` on every worker, add the slowest
    /// worker's time to the critical path.
    fn timed_phase(&mut self, workers: &mut [Worker<'m>], mut f: impl FnMut(&mut Worker<'m>)) {
        let mut max = 0.0f64;
        for w in workers.iter_mut() {
            let t = Instant::now();
            f(w);
            max = max.max(t.elapsed().as_secs_f64());
        }
        self.critical_seconds += max;
    }

    /// One timed frame exchange: produce every worker's frames, route them
    /// to per-worker inboxes, then let every worker accept its inbox.
    fn exchange_inline(
        &mut self,
        workers: &mut [Worker<'m>],
        mut produce: impl FnMut(&mut Worker<'m>, &mut frame::VecSink),
    ) {
        let p = workers.len();
        let mut inboxes: Vec<Vec<Vec<u8>>> = vec![Vec::new(); p];
        let mut max = 0.0f64;
        for w in workers.iter_mut() {
            let mut sink = frame::VecSink::default();
            let t = Instant::now();
            produce(w, &mut sink);
            max = max.max(t.elapsed().as_secs_f64());
            for (dest, bytes) in sink.0 {
                inboxes[dest as usize].push(bytes);
            }
        }
        self.critical_seconds += max;
        let mut max = 0.0f64;
        for w in workers.iter_mut() {
            let inbox = std::mem::take(&mut inboxes[w.id() as usize]);
            let t = Instant::now();
            for bytes in &inbox {
                w.accept(bytes);
            }
            max = max.max(t.elapsed().as_secs_f64());
        }
        self.critical_seconds += max;
    }

    fn run_threaded(
        &mut self,
        workers: Vec<Worker<'m>>,
        state: &mut SimState,
        steps: u64,
        mut recorder: Option<&mut Recorder>,
    ) -> RunStats {
        let p = workers.len();
        let start = self.step;
        let m = self.partition.num_chunks();
        let weighted = self.selection == ChunkSelection::WeightedByRates;
        let (report_tx, report_rx) = mpsc::channel::<Vec<u8>>();
        let mut txs = Vec::with_capacity(p);
        let mut rxs = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = mpsc::channel::<Vec<u8>>();
            txs.push(tx);
            rxs.push(rx);
        }
        let mut stats = RunStats::default();
        std::thread::scope(|scope| {
            for (worker, rx) in workers.into_iter().zip(rxs) {
                let txs = txs.clone();
                let report_tx = report_tx.clone();
                scope.spawn(move || {
                    worker_thread(worker, rx, txs, report_tx, start, steps, m, weighted, p)
                });
            }
            drop(report_tx);
            drop(txs);
            // Hub: consume reports (re-ordered by step) and the gathers.
            let mut by_step: BTreeMap<u64, Vec<StepReport>> = BTreeMap::new();
            let mut next = start;
            let mut gathers = 0;
            while gathers < p || next < start + steps {
                let bytes = report_rx.recv().expect("a worker died mid-run");
                let (header, payload) = frame::decode(&bytes);
                match header.kind {
                    KIND_REPORT => {
                        let entry = by_step.entry(header.step).or_default();
                        entry.push(StepReport::decode(payload));
                        while by_step.get(&next).is_some_and(|r| r.len() == p) {
                            let reports = by_step.remove(&next).expect("just checked");
                            self.apply_step_reports(state, &reports, &mut stats, &mut recorder);
                            self.step += 1;
                            next += 1;
                        }
                    }
                    KIND_GATHER => {
                        self.apply_gather(&mut state.lattice, header.src, payload);
                        gathers += 1;
                    }
                    kind => panic!("hub cannot accept frame kind {kind}"),
                }
            }
            assert!(by_step.is_empty(), "reports left over past the last step");
        });
        stats
    }

    /// Drive one socket run: spawn the worker fleet, consume its reports
    /// and gathers, account the critical path from the workers' shipped
    /// on-CPU phase times plus the measured per-exchange wire latency.
    fn run_socket(
        &mut self,
        wire: Wire,
        state: &mut SimState,
        steps: u64,
        mut recorder: Option<&mut Recorder>,
    ) -> Result<RunStats, String> {
        let p = self.grid.workers() as usize;
        let m = self.partition.num_chunks();
        let start = self.step;
        let blob = net::config::encode_config(
            self.model,
            self.partition,
            &state.lattice,
            self.grid,
            self.seed,
            self.selection,
            start,
            steps,
            self.recv_timeout.as_millis() as u64,
        );
        let hub = net::hub::Hub::launch(wire, p as u32, &blob, self.recv_timeout)?;
        let latency = hub.latency;
        self.wire_latency = Some(latency);
        // Exchanges per step on the critical path: write-backs and halos
        // per sweep position, plus the counts all-gather when weighted.
        // Flushes to different peers overlap on a parallel machine, so
        // each exchange phase costs one frame latency — none at all when
        // the grid has a single worker (every send is local).
        let weighted = self.selection == ChunkSelection::WeightedByRates;
        let exchanges_per_step = if p > 1 {
            m as f64 * if weighted { 3.0 } else { 2.0 }
        } else {
            0.0
        };
        let mut stats = RunStats::default();
        let mut by_step: BTreeMap<u64, Vec<StepReport>> = BTreeMap::new();
        let mut next = start;
        let mut gathers = 0;
        // A worker whose final gather has arrived may exit and close its
        // connection while slower peers are still reporting; `done` lets
        // the hub treat that EOF as completion rather than failure.
        let mut done = vec![false; p];
        while gathers < p || next < start + steps {
            let bytes = hub.recv(&done)?;
            let (header, payload) = frame::try_decode(&bytes)?;
            match header.kind {
                KIND_REPORT => {
                    let entry = by_step.entry(header.step).or_default();
                    entry.push(StepReport::decode(payload));
                    while by_step.get(&next).is_some_and(|r| r.len() == p) {
                        let reports = by_step.remove(&next).expect("just checked");
                        let slots = reports
                            .iter()
                            .map(|r| r.phase_busy.len())
                            .max()
                            .unwrap_or(0);
                        for s in 0..slots {
                            let worst = reports
                                .iter()
                                .map(|r| r.phase_busy.get(s).copied().unwrap_or(0.0))
                                .fold(0.0, f64::max);
                            self.critical_seconds += worst;
                        }
                        self.critical_seconds += exchanges_per_step * latency;
                        self.apply_step_reports(state, &reports, &mut stats, &mut recorder);
                        self.step += 1;
                        next += 1;
                    }
                }
                KIND_GATHER => {
                    self.apply_gather(&mut state.lattice, header.src, payload);
                    done[header.src as usize] = true;
                    gathers += 1;
                }
                kind => return Err(format!("hub cannot accept frame kind {kind}")),
            }
        }
        if !by_step.is_empty() {
            return Err("reports left over past the last step".into());
        }
        hub.finish()?;
        Ok(stats)
    }
}

/// The body of one threaded worker: the same phase order as the inline
/// scheduler, with channel sends and a pending-map demux on receive.
#[allow(clippy::too_many_arguments)]
fn worker_thread(
    mut worker: Worker<'_>,
    rx: mpsc::Receiver<Vec<u8>>,
    txs: Vec<mpsc::Sender<Vec<u8>>>,
    report_tx: mpsc::Sender<Vec<u8>>,
    start: u64,
    steps: u64,
    num_chunks: usize,
    weighted: bool,
    num_workers: usize,
) {
    let mut pending: HashMap<frame::FrameKey, Vec<u8>> = HashMap::new();
    let mut sink = frame::VecSink::default();
    let send = |txs: &[mpsc::Sender<Vec<u8>>], sink: &mut frame::VecSink| {
        for (dest, bytes) in sink.0.drain(..) {
            txs[dest as usize].send(bytes).expect("peer inbox closed");
        }
    };
    for step in start..start + steps {
        worker.begin_step(step);
        let order: Vec<usize> = if weighted {
            Vec::new()
        } else {
            worker.chunk_order(step)
        };
        for pos in 0..num_chunks as u32 {
            let chunk = if weighted {
                worker.counts_frames(step, pos, &mut sink);
                send(&txs, &mut sink);
                for src in 0..num_workers as u32 {
                    let bytes = recv_keyed(
                        &rx,
                        &mut pending,
                        (frame::KIND_COUNTS, step, pos, frame::NO_DIR, src),
                    );
                    worker.accept(&bytes);
                }
                worker.weighted_draw()
            } else {
                order[pos as usize]
            };
            worker.sweep(step, pos, chunk);
            worker.wb_frames(step, pos, &mut sink);
            send(&txs, &mut sink);
            recv_directional(
                &rx,
                &mut pending,
                &mut worker,
                frame::KIND_WRITEBACK,
                step,
                pos,
            );
            worker.halo_frames(step, pos, &mut sink);
            send(&txs, &mut sink);
            recv_directional(&rx, &mut pending, &mut worker, frame::KIND_HALO, step, pos);
            worker.fold();
        }
        report_tx
            .send(worker.report_frame(step))
            .expect("hub closed");
    }
    report_tx
        .send(worker.gather_frame(start + steps))
        .expect("hub closed");
}

/// Receive-and-accept the eight directional frames of one phase.
fn recv_directional(
    rx: &mpsc::Receiver<Vec<u8>>,
    pending: &mut HashMap<frame::FrameKey, Vec<u8>>,
    worker: &mut Worker<'_>,
    kind: u8,
    step: u64,
    pos: u32,
) {
    for dir in 0..8u8 {
        let src = worker.neighbor(dir as usize);
        let bytes = recv_keyed(rx, pending, (kind, step, pos, dir, src));
        worker.accept(&bytes);
    }
}

/// Blocking receive of the frame with exactly `key`, buffering every other
/// frame that arrives first.
fn recv_keyed(
    rx: &mpsc::Receiver<Vec<u8>>,
    pending: &mut HashMap<frame::FrameKey, Vec<u8>>,
    key: frame::FrameKey,
) -> Vec<u8> {
    if let Some(bytes) = pending.remove(&key) {
        return bytes;
    }
    loop {
        let bytes = rx.recv().expect("peer hung up mid-sweep");
        let (header, _) = frame::decode(&bytes);
        if header.key() == key {
            return bytes;
        }
        let clash = pending.insert(header.key(), bytes);
        assert!(clash.is_none(), "duplicate frame for {:?}", header.key());
    }
}
