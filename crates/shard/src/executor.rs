//! The sharded PNDCA executor: per-worker domains, message-only boundary
//! state, and two interchangeable schedulers.
//!
//! [`ShardedPndca`] splits the lattice over a [`ShardGrid`] of workers and
//! drives the worker phase protocol (see the `worker` module) with one of:
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
use crate::net::worker_proc::{recv_keyed, Delivery};
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

    /// [`run_steps`](Self::run_steps), with worker failures as errors. The
    /// Inline scheduler cannot fail; the Threaded and Socket ones report
    /// dead or silent workers here after joining or killing the rest.
    ///
    /// # Errors
    ///
    /// The first worker failure observed: a dead thread or process, a
    /// protocol violation, or a receive deadline expiring.
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
                self.run_threaded(workers, state, steps, recorder)?
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
        recorder: Option<&mut Recorder>,
    ) -> Result<RunStats, String> {
        let p = workers.len();
        let start = self.step;
        let m = self.partition.num_chunks();
        let weighted = self.selection == ChunkSelection::WeightedByRates;
        let timeout = self.recv_timeout;
        let (report_tx, report_rx) = mpsc::channel::<Vec<u8>>();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..p).map(|_| mpsc::channel::<Delivery>()).unzip();
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .zip(rxs)
                .map(|(worker, rx)| {
                    let txs = txs.clone();
                    let report_tx = report_tx.clone();
                    scope.spawn(move || {
                        worker_thread(
                            worker, rx, txs, report_tx, start, steps, m, weighted, timeout,
                        )
                    })
                })
                .collect();
            drop(report_tx);
            drop(txs);
            let hub = self.consume_reports(state, steps, recorder, 0.0, |_| {
                report_rx
                    .recv_timeout(timeout)
                    .map_err(|e| format!("no worker report within {timeout:?}: {e}"))
            });
            // Dropped before the joins so that, after a hub failure, every
            // worker fails at its next report instead of finishing the run.
            drop(report_rx);
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

    /// Drive one socket run: spawn the worker fleet, consume its reports
    /// and gathers, account the critical path from the workers' shipped
    /// on-CPU phase times plus the measured per-exchange wire latency.
    fn run_socket(
        &mut self,
        wire: Wire,
        state: &mut SimState,
        steps: u64,
        recorder: Option<&mut Recorder>,
    ) -> Result<RunStats, String> {
        let p = self.grid.workers() as usize;
        let m = self.partition.num_chunks();
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
        let stats = self.consume_reports(
            state,
            steps,
            recorder,
            exchanges_per_step * latency,
            |done| hub.recv(done),
        )?;
        hub.finish()?;
        Ok(stats)
    }

    /// The hub side of a threaded or socket run: take frames from `recv`
    /// until every step's reports (re-ordered by step) and every worker's
    /// gather have been applied. Each step adds the slowest worker's shipped
    /// phase times plus `wire_seconds_per_step` to the critical path.
    ///
    /// `recv` is handed the workers whose gather has arrived: such a worker
    /// may exit and close its connection while slower peers are still
    /// reporting, and the socket hub treats that EOF as completion rather
    /// than failure.
    fn consume_reports(
        &mut self,
        state: &mut SimState,
        steps: u64,
        mut recorder: Option<&mut Recorder>,
        wire_seconds_per_step: f64,
        mut recv: impl FnMut(&[bool]) -> Result<Vec<u8>, String>,
    ) -> Result<RunStats, String> {
        let p = self.grid.workers() as usize;
        let end = self.step + steps;
        let mut stats = RunStats::default();
        let mut by_step: BTreeMap<u64, Vec<StepReport>> = BTreeMap::new();
        let mut gathers = 0;
        let mut done = vec![false; p];
        while gathers < p || self.step < end {
            let bytes = recv(&done)?;
            let (header, payload) = frame::try_decode(&bytes)?;
            match header.kind {
                KIND_REPORT => {
                    let entry = by_step.entry(header.step).or_default();
                    entry.push(StepReport::decode(payload));
                    while by_step.get(&self.step).is_some_and(|r| r.len() == p) {
                        let reports = by_step.remove(&self.step).expect("just checked");
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
                        self.critical_seconds += wire_seconds_per_step;
                        self.apply_step_reports(state, &reports, &mut stats, &mut recorder);
                        self.step += 1;
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
        Ok(stats)
    }
}

/// The body of one threaded worker: the same phase order as the inline
/// scheduler, with channel sends and the socket workers' keyed,
/// deadline-bearing demux on receive.
#[allow(clippy::too_many_arguments)]
fn worker_thread(
    mut worker: Worker<'_>,
    rx: mpsc::Receiver<Delivery>,
    txs: Vec<mpsc::Sender<Delivery>>,
    report_tx: mpsc::Sender<Vec<u8>>,
    start: u64,
    steps: u64,
    num_chunks: usize,
    weighted: bool,
    timeout: Duration,
) -> Result<(), String> {
    let id = worker.id();
    let mut pending: HashMap<frame::FrameKey, Vec<u8>> = HashMap::new();
    let mut closed = vec![false; txs.len()];
    let mut sink = frame::VecSink::default();
    let send = |sink: &mut frame::VecSink| {
        for (dest, bytes) in sink.0.drain(..) {
            txs[dest as usize]
                .send((id, Ok(bytes)))
                .map_err(|_| format!("worker {dest} hung up mid-sweep"))?;
        }
        Ok::<(), String>(())
    };
    let mut recv = |worker: &mut Worker<'_>, key: frame::FrameKey| {
        let bytes = recv_keyed(&rx, &mut pending, &mut closed, key, timeout)?;
        worker.accept(&bytes);
        Ok::<(), String>(())
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
                send(&mut sink)?;
                for src in 0..txs.len() as u32 {
                    recv(
                        &mut worker,
                        (frame::KIND_COUNTS, step, pos, frame::NO_DIR, src),
                    )?;
                }
                worker.weighted_draw()
            } else {
                order[pos as usize]
            };
            worker.sweep(step, pos, chunk);
            for kind in [frame::KIND_WRITEBACK, frame::KIND_HALO] {
                if kind == frame::KIND_WRITEBACK {
                    worker.wb_frames(step, pos, &mut sink);
                } else {
                    worker.halo_frames(step, pos, &mut sink);
                }
                send(&mut sink)?;
                for dir in 0..8u8 {
                    let src = worker.neighbor(dir as usize);
                    recv(&mut worker, (kind, step, pos, dir, src))?;
                }
            }
            worker.fold();
        }
        report_tx
            .send(worker.report_frame(step))
            .map_err(|_| "hub hung up")?;
    }
    report_tx
        .send(worker.gather_frame(start + steps))
        .map_err(|_| "hub hung up")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_ca::partition_builder::greedy_coloring;
    use psr_lattice::{Dims, Lattice};
    use psr_model::library::zgb::zgb_ziff;

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
