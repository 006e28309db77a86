//! One shard worker: a halo-padded sub-lattice, its compiled kernel, and
//! the phase methods of the sweep protocol.
//!
//! A worker advances by the same `(step, position, chunk)` schedule as the
//! shared-lattice executor, but only trials anchored at sites it *owns*.
//! Per sweep it runs the phases, in order:
//!
//! 1. **sweep** — one trial per owned site of the chunk, interior strip
//!    first, then the boundary strip, each through [`SiteKernel::fire`].
//!    The enabled test is the kernel's mask of the owned anchor (folded up
//!    to the end of the previous sweep, and same-chunk neighborhoods are
//!    disjoint, so nothing in this sweep can stale it); writes to owned
//!    cells land immediately, writes into halo cells are *deferred* into
//!    per-direction write-back buffers (the owner applies them — the local
//!    halo copy is refreshed by the owner's strip in phase 3).
//! 2. **write-backs** — send the 8 buffers, apply the 8 received ones to
//!    owned cells. Within one sweep all write sets are globally disjoint
//!    (the partition restriction), so application order is irrelevant and
//!    the pre-write state read while applying is the true old state.
//! 3. **halo strips** — send the now fully up-to-date owned border in all
//!    8 directions, diff-apply the received strips into the halo ring.
//!    After this phase every copy of every global cell agrees again.
//! 4. **fold** — push the sweep's accumulated change journal (own writes,
//!    applied write-backs, halo diffs) through the compiled kernel's code
//!    tables, masks and — for weighted selection — enabled-site counts.
//!
//! For `WeightedByRates` chunk selection the kernel counts enabled sites
//! per (chunk, reaction) over the worker's *owned* sites: its group map
//! gives every owned site its global chunk id and every halo cell
//! [`NO_GROUP`] (halo-cell codes may be wrap-corrupted at the padded edge
//! and are never trusted). A counts exchange precedes each sweep: workers
//! all-gather those counts, sum them (integer adds — order-free) into the
//! shared-lattice executor's counts, and evaluate the *same*
//! [`group_weights`], so every worker draws the identical chunk from its
//! private copy of the per-step draw stream.
//!
//! The protocol order is written here once, as a step machine that never
//! blocks ([`Worker::advance`]); the schedulers only move bytes.

use crate::domain::{dir_index, opposite, ShardGrid, DIRS};
use crate::frame::{
    self, FrameKey, FrameSink, StepReport, KIND_COUNTS, KIND_GATHER, KIND_HALO, KIND_REPORT,
    KIND_WRITEBACK, NO_DIR,
};
use crate::net::BusyClock;
use psr_ca::partition::Partition;
use psr_ca::pndca::ChunkSelection;
use psr_ca::propensity::draw_weighted;
use psr_kernel::{group_weights, CompiledModel, SiteKernel, NO_GROUP};
use psr_lattice::{Change, Lattice, Site, SubLattice};
use psr_model::Model;
use psr_parallel::{draw_stream_id, shuffle_stream_id, trial_stream_base};
use psr_rng::{AliasTable, Pcg32, StreamFactory};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The `(x0, y0, w, h)` rectangle, in padded-local coordinates, that the
/// halo ring occupies toward direction `dir` — where the strip from the
/// neighbor in that direction lands.
fn halo_rect(bw: u32, bh: u32, r: u32, dir: usize) -> (u32, u32, u32, u32) {
    let (dx, dy) = DIRS[dir];
    let (x0, w) = match dx {
        -1 => (0, r),
        0 => (r, bw),
        _ => (r + bw, r),
    };
    let (y0, h) = match dy {
        -1 => (0, r),
        0 => (r, bh),
        _ => (r + bh, r),
    };
    (x0, y0, w, h)
}

/// The `(x0, y0, w, h)` owned border strip, in padded-local coordinates,
/// facing direction `dir` — what gets packed and sent toward that neighbor.
fn border_rect(bw: u32, bh: u32, r: u32, dir: usize) -> (u32, u32, u32, u32) {
    let (dx, dy) = DIRS[dir];
    let (x0, w) = match dx {
        -1 => (r, r),
        0 => (r, bw),
        _ => (bw, r),
    };
    let (y0, h) = match dy {
        -1 => (r, r),
        0 => (r, bh),
        _ => (bh, r),
    };
    (x0, y0, w, h)
}

/// An owned rectangle `(x0, y0, w, h)` in global coordinates.
type Domain = (u32, u32, u32, u32);

/// Per chunk: owned `(local, global)` sites.
type SiteLists = Vec<Vec<(Site, Site)>>;

/// The site lists of the owned rectangle `domain`, padded by `radius`:
/// `.0` holds the sites whose neighborhood stays inside the rectangle, `.1`
/// the outer `radius` ring. A row-major scan of the rectangle's chunk
/// labels fills them (after one more that sizes them), so each list is in
/// ascending global order — a label-built partition's own chunk order. (Any
/// order would do: same-chunk neighborhoods are disjoint and trial streams
/// are keyed by global site.)
fn site_lists(partition: &Partition, domain: Domain, radius: u32) -> (SiteLists, SiteLists) {
    let (x0, y0, bw, bh) = domain;
    let (gw, pw) = (partition.dims().width(), bw + 2 * radius);
    // Per row: its first global site, its labels, and its column segments,
    // each flagged when it lies on the ring (all of a row in the top and
    // bottom `radius` rows).
    let rows = || {
        (0..bh).map(move |ly| {
            let start = (y0 + ly) * gw + x0;
            let labels = &partition.chunk_labels()[start as usize..(start + bw) as usize];
            let inner = if ly < radius || ly >= bh - radius {
                0..0
            } else {
                radius..bw - radius
            };
            let segments = [
                (0..inner.start, true),
                (inner.clone(), false),
                (inner.end..bw, true),
            ];
            (ly, start, labels, segments)
        })
    };
    // Counted first: no list reallocates, and none holds spare capacity
    // for the whole run.
    let mut sizes = vec![[0; 2]; partition.num_chunks()];
    for (_, _, labels, segments) in rows() {
        for (columns, ring) in segments {
            for lx in columns {
                sizes[labels[lx as usize] as usize][usize::from(ring)] += 1;
            }
        }
    }
    let mut lists =
        [0, 1].map(|k| -> SiteLists { sizes.iter().map(|s| Vec::with_capacity(s[k])).collect() });
    for (ly, start, labels, segments) in rows() {
        let local_row = (ly + radius) * pw + radius;
        for (columns, ring) in segments {
            let lists = &mut lists[usize::from(ring)];
            for lx in columns {
                let c = labels[lx as usize] as usize;
                lists[c].push((Site(local_row + lx), Site(start + lx)));
            }
        }
    }
    let [interior, boundary] = lists;
    (interior, boundary)
}

/// The weighted-selection group map of the padded sub-lattice: each owned
/// site's global chunk, [`NO_GROUP`] on the halo ring. Rows of the label
/// array copied into place.
fn group_map(partition: &Partition, domain: Domain, radius: u32) -> Vec<u32> {
    let (x0, y0, bw, bh) = domain;
    let gw = partition.dims().width() as usize;
    let (pw, r) = ((bw + 2 * radius) as usize, radius as usize);
    let (x0, y0, bw) = (x0 as usize, y0 as usize, bw as usize);
    let mut group_of = vec![NO_GROUP; pw * (bh as usize + 2 * r)];
    for ly in 0..bh as usize {
        let row = (y0 + ly) * gw + x0;
        let local = (ly + r) * pw + r;
        group_of[local..local + bw].copy_from_slice(&partition.chunk_labels()[row..row + bw]);
    }
    group_of
}

/// What a worker's inbox carries: the sending worker with a frame, or with
/// the reason it will send no more (a socket reader's EOF, a worker
/// thread's drop guard).
pub(crate) type Delivery = (u32, Result<Vec<u8>, String>);

/// Phase slots per sweep position in a step report's `phase_busy`: the
/// three exchanges at their frame kind's index (halo, write-back, counts —
/// the last weighted selection only), then sweep and fold.
const PHASES: usize = 5;
const SWEEP: usize = 3;
const FOLD: usize = 4;

/// Where a worker's step machine stands.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Start the current position (a fresh report and chunk order at
    /// position 0, the counts all-gather when weighted), or send the
    /// gather once the step window is done.
    Enter,
    /// Draw or look up the chunk, sweep it, send the write-backs.
    Sweep,
    /// Accept the current position's frames of one kind, in key order.
    Await(u8),
    /// The gather has gone to the hub.
    Done,
}

/// One shard worker: its sub-lattice and kernel, the phase methods, and
/// the step machine that runs them in protocol order over its step window.
pub(crate) struct Worker<'m> {
    id: u32,
    model: &'m Model,
    grid: ShardGrid,
    sub: SubLattice,
    kernel: SiteKernel,
    alias: AliasTable,
    factory: StreamFactory,
    selection: ChunkSelection,
    num_chunks: usize,
    num_sites_global: usize,
    radius: u32,
    bw: u32,
    bh: u32,
    /// Per chunk: owned sites whose neighborhood stays inside the owned
    /// rectangle.
    chunk_interior: SiteLists,
    /// Per chunk: owned sites within `radius` of the domain border.
    chunk_boundary: SiteLists,
    // Per-step / per-sweep scratch.
    draw_rng: Option<Pcg32>,
    order: Vec<usize>,
    journal: Vec<Change>,
    wb_out: Vec<Vec<u8>>,
    counts_total: Vec<u32>,
    weights: Vec<f64>,
    report: StepReport,
    // The step machine.
    steps: Range<u64>,
    step: u64,
    pos: u32,
    stage: Stage,
    /// Frames of the awaited kind accepted so far at this position.
    awaited: u32,
    /// Frames that arrived before the phase that takes them.
    pending: HashMap<FrameKey, Vec<u8>>,
    /// Per peer: why it will send no more, once it said so. Not fatal by
    /// itself — a fast peer finishes and exits while its last frames are
    /// still pending here — only a frame that must come from it is.
    closed: Vec<Option<String>>,
    /// The clock reading the current phase is charged from.
    since: f64,
    /// The step at which the `PSR_SHARD_FAIL_AT` hook fails this worker.
    fail_at: Option<u64>,
}

/// Parse `PSR_SHARD_FAIL_AT="id:step"` — the deterministic fault hook the
/// kill tests use to make one worker die mid-step.
fn fail_at_from_env() -> Option<(u32, u64)> {
    let v = std::env::var("PSR_SHARD_FAIL_AT").ok()?;
    let (id, step) = v.split_once(':')?;
    Some((id.parse().ok()?, step.parse().ok()?))
}

impl<'m> Worker<'m> {
    /// Worker `id`, scattered from `global`, to run the absolute steps
    /// `steps`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        model: &'m Model,
        partition: &Partition,
        compiled: Arc<CompiledModel>,
        global: &Lattice,
        grid: ShardGrid,
        id: u32,
        seed: u64,
        selection: ChunkSelection,
        steps: Range<u64>,
    ) -> Self {
        let dims = global.dims();
        let radius = model.interaction_radius();
        let domain = grid.domain_of(dims, id);
        let (x0, y0, bw, bh) = domain;
        let sub = SubLattice::scatter(global, x0, y0, bw, bh, radius);
        let mut kernel = SiteKernel::new(compiled, sub.lattice());
        let m = partition.num_chunks();
        let (chunk_interior, chunk_boundary) = site_lists(partition, domain, radius);
        let species = model.species().len();
        let reactions = model.num_reactions();
        let mut counts_len = 0;
        if selection == ChunkSelection::WeightedByRates {
            kernel.attach_counts(group_map(partition, domain, radius), m);
            counts_len = m * reactions;
        }
        Worker {
            id,
            model,
            grid,
            sub,
            kernel,
            alias: AliasTable::new(&model.rate_weights()),
            factory: StreamFactory::new(seed),
            selection,
            num_chunks: m,
            num_sites_global: partition.num_sites(),
            radius,
            bw,
            bh,
            chunk_interior,
            chunk_boundary,
            draw_rng: None,
            order: Vec::new(),
            journal: Vec::new(),
            wb_out: vec![Vec::new(); 8],
            counts_total: vec![0; counts_len],
            weights: Vec::new(),
            report: StepReport::zeroed(species, reactions),
            step: steps.start,
            steps,
            pos: 0,
            stage: Stage::Enter,
            awaited: 0,
            pending: HashMap::new(),
            closed: vec![None; grid.workers() as usize],
            since: 0.0,
            fail_at: fail_at_from_env().and_then(|(w, step)| (w == id).then_some(step)),
        }
    }

    /// Run phases until the next frame this worker needs has not arrived,
    /// and return its key; `None` once the gather has gone to the hub.
    /// Each phase's time on `clock` (seconds) goes into its slot of the
    /// step report; time between calls is charged to nothing. Fails when a
    /// peer hung up before sending a frame this worker needs, when `sink`
    /// fails, or at the `PSR_SHARD_FAIL_AT` fault hook.
    pub(crate) fn advance(
        &mut self,
        sink: &mut impl FrameSink,
        clock: &impl Fn() -> f64,
    ) -> Result<Option<FrameKey>, String> {
        self.since = clock();
        loop {
            match self.stage {
                Stage::Enter if self.step == self.steps.end => {
                    sink.to_hub(self.gather_frame())?;
                    self.stage = Stage::Done;
                }
                Stage::Enter => {
                    if self.pos == 0 {
                        self.begin_step();
                    }
                    self.stage = Stage::Sweep;
                    if self.selection == ChunkSelection::WeightedByRates {
                        self.counts_frames(sink);
                        self.stage = Stage::Await(KIND_COUNTS);
                        sink.flush(&mut self.report.comm)?;
                    }
                }
                Stage::Sweep => {
                    let chunk = match self.selection {
                        ChunkSelection::WeightedByRates => self.weighted_draw(),
                        _ => self.order[self.pos as usize],
                    };
                    self.sweep(chunk);
                    self.charge(SWEEP, clock);
                    if self.fail_at == Some(self.step) && self.pos == 0 {
                        // Fault hook: die after sweeping, before the
                        // write-back exchange — peers blocked on this
                        // worker's frames must fail on its hang-up, not on
                        // a timeout.
                        return Err(format!("PSR_SHARD_FAIL_AT fault at step {}", self.step));
                    }
                    self.wb_frames(sink);
                    self.stage = Stage::Await(KIND_WRITEBACK);
                    sink.flush(&mut self.report.comm)?;
                }
                Stage::Await(kind) => {
                    let missing = self.take_frames(kind)?;
                    self.charge(kind as usize, clock);
                    if missing.is_some() {
                        return Ok(missing);
                    }
                    self.stage = match kind {
                        KIND_COUNTS => Stage::Sweep,
                        KIND_WRITEBACK => {
                            self.halo_frames(sink);
                            sink.flush(&mut self.report.comm)?;
                            Stage::Await(KIND_HALO)
                        }
                        _ => {
                            self.fold();
                            self.charge(FOLD, clock);
                            self.pos += 1;
                            if self.pos as usize == self.num_chunks {
                                sink.to_hub(self.report_frame())?;
                                (self.step, self.pos) = (self.step + 1, 0);
                            }
                            Stage::Enter
                        }
                    };
                }
                Stage::Done => return Ok(None),
            }
        }
    }

    /// Drive [`advance`](Self::advance) to the end of the step window from
    /// a blocking inbox, on this thread's on-CPU clock: the loop of a
    /// worker thread or process.
    pub(crate) fn run(
        mut self,
        sink: &mut impl FrameSink,
        inbox: &mpsc::Receiver<Delivery>,
        timeout: Duration,
    ) -> Result<(), String> {
        let busy = BusyClock::new();
        while let Some(key) = self.advance(sink, &|| busy.now())? {
            let first = inbox.recv_timeout(timeout);
            let first = first.map_err(|_| format!("timed out waiting for frame {key:?}"))?;
            // Everything else already queued goes in before the next
            // advance: a phase's frames mostly arrive together.
            for delivery in std::iter::once(first).chain(inbox.try_iter()) {
                self.deliver(delivery)?;
            }
        }
        Ok(())
    }

    /// Take one delivery: a frame for the pending map, or its sender's
    /// notice that it will send no more. Frames from one peer arrive in
    /// order, so at that notice everything it sent is already pending.
    pub(crate) fn deliver(&mut self, (from, item): Delivery) -> Result<(), String> {
        match item {
            Ok(bytes) => {
                let key = frame::try_decode(&bytes)?.0.key();
                if self.pending.insert(key, bytes).is_some() {
                    return Err(format!("duplicate frame for {key:?}"));
                }
            }
            Err(why) => self.closed[from as usize] = Some(why),
        }
        Ok(())
    }

    /// Accept the current position's frames of `kind` — one from every
    /// worker for counts, one per direction otherwise — and return the key
    /// of the first that has not arrived.
    fn take_frames(&mut self, kind: u8) -> Result<Option<FrameKey>, String> {
        let n = match kind {
            KIND_COUNTS => self.grid.workers(),
            _ => 8,
        };
        while self.awaited < n {
            let (dir, src) = match kind {
                KIND_COUNTS => (NO_DIR, self.awaited),
                _ => (self.awaited as u8, self.neighbor(self.awaited as usize)),
            };
            let key = (kind, self.step, self.pos, dir, src);
            let Some(bytes) = self.pending.remove(&key) else {
                return match &self.closed[src as usize] {
                    Some(why) => Err(format!(
                        "peer {src} closed before sending frame {key:?}: {why}"
                    )),
                    None => Ok(Some(key)),
                };
            };
            self.accept(&bytes)?;
            self.awaited += 1;
        }
        self.awaited = 0;
        Ok(None)
    }

    /// Charge the clock since the last reading to `phase` at the current
    /// position.
    fn charge(&mut self, phase: usize, clock: &impl Fn() -> f64) {
        let now = clock();
        self.report.phase_busy[self.pos as usize * PHASES + phase] += now - self.since;
        self.since = now;
    }

    fn neighbor(&self, dir: usize) -> u32 {
        self.grid.neighbor(self.id, dir)
    }

    /// A fresh report, and the step's chunk schedule: a pure function of
    /// `(seed, step)` for the stateless selections, so every worker
    /// computes it locally; weighted selection draws per position instead,
    /// after the counts all-gather.
    fn begin_step(&mut self) {
        let (m, step) = (self.num_chunks, self.step);
        self.report = StepReport {
            phase_busy: vec![0.0; PHASES * m],
            ..StepReport::zeroed(self.model.species().len(), self.model.num_reactions())
        };
        self.draw_rng = None;
        self.order = match self.selection {
            ChunkSelection::InOrder => (0..m).collect(),
            ChunkSelection::RandomOrder => {
                let mut order: Vec<usize> = (0..m).collect();
                let mut rng = self.factory.stream(shuffle_stream_id(step));
                psr_rng::sample::shuffle(&mut rng, &mut order);
                order
            }
            ChunkSelection::RandomWithReplacement => {
                let mut rng = self.factory.stream(draw_stream_id(step));
                (0..m).map(|_| rng.index(m)).collect()
            }
            ChunkSelection::WeightedByRates => {
                self.draw_rng = Some(self.factory.stream(draw_stream_id(step)));
                Vec::new()
            }
        };
    }

    /// Send one frame of the current position: straight into this worker's
    /// own pending map when addressed to itself (torus wraps, 1×N grids),
    /// else counted as halo traffic and handed to `sink`.
    fn send(&mut self, sink: &mut impl FrameSink, dest: u32, kind: u8, dir: u8, payload: &[u8]) {
        let (src, step, pos) = (self.id, self.step, self.pos);
        let bytes = frame::encode(kind, dir, src, step, pos, payload);
        if dest == src {
            let key = (kind, step, pos, dir, src);
            let twice = self.pending.insert(key, bytes).is_some();
            assert!(!twice, "two local frames for {key:?}");
        } else {
            self.report.comm.halo_messages += 1;
            self.report.comm.halo_bytes += bytes.len() as u64;
            sink.frame(dest, bytes);
        }
    }

    /// Counts frames for the pre-sweep all-gather (weighted selection):
    /// one to every worker, own id included for a uniform receive loop.
    fn counts_frames(&mut self, sink: &mut impl FrameSink) {
        let payload: Vec<u8> = self
            .kernel
            .counts(0)
            .iter()
            .flat_map(|c| c.to_le_bytes())
            .collect();
        for dest in 0..self.grid.workers() {
            self.send(sink, dest, KIND_COUNTS, NO_DIR, &payload);
        }
    }

    /// Draw the next chunk after all counts frames were accepted.
    fn weighted_draw(&mut self) -> usize {
        let rates = self.kernel.compiled().rates();
        group_weights(&self.counts_total, rates, 0..rates.len(), &mut self.weights);
        for t in &mut self.counts_total {
            *t = 0;
        }
        let rng = self.draw_rng.as_mut().expect("weighted only");
        draw_weighted(rng, &self.weights)
    }

    /// Phase 1: one trial per owned site of `chunk_idx`, interior first,
    /// then the boundary strip.
    fn sweep(&mut self, chunk_idx: usize) {
        self.report.chunks.push(chunk_idx as u64);
        let base = trial_stream_base(
            self.step,
            self.num_chunks,
            self.pos as usize,
            self.num_sites_global,
        );
        let mut writes: Vec<(Site, u8)> = Vec::with_capacity(4);
        for boundary in [false, true] {
            // Detach the site list so the trial body can borrow the rest
            // of the worker mutably; restored below.
            let sites = std::mem::take(if boundary {
                &mut self.chunk_boundary[chunk_idx]
            } else {
                &mut self.chunk_interior[chunk_idx]
            });
            for &(local, global) in &sites {
                let mut rng: Pcg32 = self.factory.stream(base + global.0 as u64);
                let reaction = self.alias.sample(&mut rng);
                self.report.trials += 1;
                if boundary {
                    self.report.comm.boundary_trials += 1;
                } else {
                    self.report.comm.local_trials += 1;
                }
                let lattice = self.sub.lattice();
                writes.clear();
                if !self.kernel.fire(
                    local,
                    reaction,
                    |s| lattice.get(s),
                    |s, new| writes.push((s, new)),
                ) {
                    continue;
                }
                for &(target, new) in &writes {
                    if self.sub.is_owned(target) {
                        let old = self.sub.lattice_mut().set(target, new);
                        self.report.deltas[old as usize] -= 1;
                        self.report.deltas[new as usize] += 1;
                        if old != new {
                            self.journal.push((target, old, new));
                        }
                    } else {
                        // Deferred write into a neighbor-owned cell: the
                        // owner applies it (and counts the coverage move);
                        // our halo copy is refreshed by the owner's strip.
                        let d = self.halo_dir_of(target);
                        let g = self.sub.to_global(target);
                        self.wb_out[d].extend_from_slice(&g.0.to_le_bytes());
                        self.wb_out[d].push(new);
                    }
                }
                self.report.executed += 1;
                self.report.reaction_executed[reaction] += 1;
            }
            if boundary {
                self.chunk_boundary[chunk_idx] = sites;
            } else {
                self.chunk_interior[chunk_idx] = sites;
            }
        }
    }

    /// Direction of the halo region containing local site `target`.
    fn halo_dir_of(&self, target: Site) -> usize {
        let pw = self.sub.padded_w();
        let lx = target.0 % pw;
        let ly = target.0 / pw;
        let r = self.radius;
        let dx = if lx < r {
            -1
        } else if lx >= r + self.bw {
            1
        } else {
            0
        };
        let dy = if ly < r {
            -1
        } else if ly >= r + self.bh {
            1
        } else {
            0
        };
        dir_index(dx, dy)
    }

    /// Phase 2a: the write-back frames, one per direction (possibly empty).
    fn wb_frames(&mut self, sink: &mut impl FrameSink) {
        for d in 0..8 {
            let payload = std::mem::take(&mut self.wb_out[d]);
            let (dest, dir) = (self.neighbor(d), opposite(d) as u8);
            self.send(sink, dest, KIND_WRITEBACK, dir, &payload);
        }
    }

    /// Phase 3a: the halo-strip frames — the owned border after all
    /// write-backs of the sweep were applied, so receivers see a fully
    /// consistent image of this worker's cells.
    fn halo_frames(&mut self, sink: &mut impl FrameSink) {
        let mut payload = Vec::new();
        for d in 0..8 {
            let (x0, y0, w, h) = border_rect(self.bw, self.bh, self.radius, d);
            payload.clear();
            self.sub.pack_rect(x0, y0, w, h, &mut payload);
            let (dest, dir) = (self.neighbor(d), opposite(d) as u8);
            self.send(sink, dest, KIND_HALO, dir, &payload);
        }
    }

    /// Accept one frame (phases 2b, 3b, and the counts all-gather). The
    /// machine takes, per phase, exactly the frames of that phase — any
    /// order would do, since write sets are disjoint, strip rectangles are
    /// disjoint, and count sums commute.
    ///
    /// # Errors
    ///
    /// A payload of the wrong length, a write-back into a cell this worker
    /// does not own, or a state outside the model's species: the peer's
    /// bytes are corrupt, and the worker can go no further.
    fn accept(&mut self, bytes: &[u8]) -> Result<(), String> {
        let (header, payload) = frame::decode(bytes);
        let species = self.model.species().len();
        let fault = |what: String| format!("worker {}: {what} from peer {}", self.id, header.src);
        match header.kind {
            KIND_WRITEBACK => {
                if payload.len() % 5 != 0 {
                    return Err(fault(format!("torn write-back of {} bytes", payload.len())));
                }
                for entry in payload.chunks_exact(5) {
                    let g = Site(u32::from_le_bytes(entry[0..4].try_into().unwrap()));
                    let new = entry[4];
                    let Some(local) = self.sub.owned_local(g) else {
                        return Err(fault(format!("write-back into unowned site {}", g.0)));
                    };
                    if usize::from(new) >= species {
                        return Err(fault(format!("write-back of state {new} ≥ {species}")));
                    }
                    let old = self.sub.lattice().get(local);
                    self.report.deltas[old as usize] -= 1;
                    self.report.deltas[new as usize] += 1;
                    if old != new {
                        self.sub.lattice_mut().set(local, new);
                        self.journal.push((local, old, new));
                    }
                }
            }
            KIND_HALO => {
                let (x0, y0, w, h) = halo_rect(self.bw, self.bh, self.radius, header.dir as usize);
                if payload.len() != (w * h) as usize {
                    let len = payload.len();
                    return Err(fault(format!(
                        "halo strip of {len} bytes for a {w}×{h} rectangle"
                    )));
                }
                if let Some(state) = payload.iter().find(|&&s| usize::from(s) >= species) {
                    return Err(fault(format!("halo strip with state {state} ≥ {species}")));
                }
                self.sub
                    .unpack_rect_diff(x0, y0, w, h, payload, &mut self.journal);
            }
            KIND_COUNTS => {
                if payload.len() != 4 * self.counts_total.len() {
                    let (len, want) = (payload.len(), 4 * self.counts_total.len());
                    return Err(fault(format!("counts of {len} bytes, not {want}")));
                }
                for (t, chunk) in self.counts_total.iter_mut().zip(payload.chunks_exact(4)) {
                    *t += u32::from_le_bytes(chunk.try_into().unwrap());
                }
            }
            kind => return Err(fault(format!("frame of kind {kind}"))),
        }
        Ok(())
    }

    /// Phase 4: fold the sweep's change journal into the kernel's codes,
    /// masks and owned enabled-site counts. After this the worker is ready
    /// for the next draw/sweep.
    fn fold(&mut self) {
        self.kernel.apply_changes(self.sub.lattice(), &self.journal);
        self.journal.clear();
    }

    /// The step's report frame for the hub.
    fn report_frame(&self) -> Vec<u8> {
        let payload = self.report.encode();
        frame::encode(KIND_REPORT, NO_DIR, self.id, self.step, 0, &payload)
    }

    /// The final owned-rectangle frame for the hub's gather.
    fn gather_frame(&self) -> Vec<u8> {
        let r = self.radius;
        let mut payload = Vec::with_capacity((self.bw * self.bh) as usize);
        self.sub.pack_rect(r, r, self.bw, self.bh, &mut payload);
        frame::encode(KIND_GATHER, NO_DIR, self.id, self.step, 0, &payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use psr_lattice::Dims;

    /// The site lists as they were built before the label scan: every
    /// chunk's sites pushed through `owned_local`, split by padded-local
    /// coordinates.
    fn filtered_site_lists(partition: &Partition, sub: &SubLattice) -> (SiteLists, SiteLists) {
        let (r, bw, bh) = (sub.halo(), sub.owned_w(), sub.owned_h());
        let m = partition.num_chunks();
        let mut chunk_interior = vec![Vec::new(); m];
        let mut chunk_boundary = vec![Vec::new(); m];
        for c in 0..m {
            for &g in partition.chunk(c) {
                if let Some(local) = sub.owned_local(g) {
                    let pw = sub.padded_w();
                    let lx = local.0 % pw;
                    let ly = local.0 / pw;
                    let interior = lx >= 2 * r && lx < bw && ly >= 2 * r && ly < bh;
                    if interior {
                        chunk_interior[c].push((local, g));
                    } else {
                        chunk_boundary[c].push((local, g));
                    }
                }
            }
        }
        (chunk_interior, chunk_boundary)
    }

    /// The group map as it was built before: one `to_global` per owned
    /// padded site.
    fn filtered_group_map(partition: &Partition, sub: &SubLattice) -> Vec<u32> {
        (0..sub.lattice().len() as u32)
            .map(|i| match Site(i) {
                local if sub.is_owned(local) => partition.chunk_of(sub.to_global(local)) as u32,
                _ => NO_GROUP,
            })
            .collect()
    }

    proptest! {
        // Random label partitions on every grid from 1×1 to 3×2, halo
        // radius 1 and 2: the scan yields the filter's sites in its order.
        #[test]
        fn label_scan_lists_equal_the_filtered_ones(
            gx in 1u32..4,
            gy in 1u32..3,
            radius in 1u32..3,
            extra_w in 1u32..6,
            extra_h in 1u32..6,
            k in 1u32..12,
            raw in prop::collection::vec(0u32..1 << 16, 1..400usize),
        ) {
            let (bw, bh) = (2 * radius + extra_w, 2 * radius + extra_h);
            let dims = Dims::new(gx * bw, gy * bh);
            let mut dense = vec![u32::MAX; k as usize];
            let mut next = 0;
            let labels: Vec<u32> = raw
                .iter()
                .cycle()
                .take(dims.sites() as usize)
                .map(|&l| {
                    let slot = &mut dense[(l % k) as usize];
                    if *slot == u32::MAX {
                        *slot = next;
                        next += 1;
                    }
                    *slot
                })
                .collect();
            let partition = Partition::from_labels(dims, &labels);
            let global = Lattice::filled(dims, 0);
            let grid = ShardGrid::new(gx, gy);
            for id in 0..grid.workers() {
                let domain = grid.domain_of(dims, id);
                let (x0, y0, w, h) = domain;
                let sub = SubLattice::scatter(&global, x0, y0, w, h, radius);
                prop_assert_eq!(
                    site_lists(&partition, domain, radius),
                    filtered_site_lists(&partition, &sub)
                );
                prop_assert_eq!(
                    group_map(&partition, domain, radius),
                    filtered_group_map(&partition, &sub)
                );
            }
        }
    }

    /// Worker 0 of a 2×1 grid over a 10×10 ZGB lattice (owning columns
    /// 0–4), counting enabled sites for weighted selection.
    fn zgb_worker(model: &Model) -> Worker<'_> {
        let dims = Dims::square(10);
        let partition = psr_ca::five_coloring(dims);
        let compiled = Arc::new(CompiledModel::compile(model));
        let global = Lattice::filled(dims, 0);
        let grid = ShardGrid::new(2, 1);
        let selection = ChunkSelection::WeightedByRates;
        Worker::new(
            model,
            &partition,
            compiled,
            &global,
            grid,
            0,
            7,
            selection,
            0..1,
        )
    }

    /// Deliver one frame of `kind` from peer 1 to worker 0: it must be an
    /// `Err` naming the peer and containing `expect`, never a panic, and
    /// leave the lattice untouched.
    fn assert_rejected(kind: u8, payload: &[u8], expect: &str) {
        let model = psr_model::library::zgb::zgb_ziff(0.5, 10.0);
        let mut worker = zgb_worker(&model);
        let before = worker.sub.lattice().cells().to_vec();
        let bytes = frame::encode(kind, EAST, 1, 0, 0, payload);
        let err = worker.accept(&bytes).expect_err(expect);
        assert!(err.contains(expect) && err.contains("from peer 1"), "{err}");
        assert_eq!(worker.sub.lattice().cells(), before, "{expect}");
    }

    /// `dir_index(1, 0)`.
    const EAST: u8 = 4;
    /// ZGB's species count: the first state id outside the model.
    const SPECIES: u8 = 3;

    fn writeback(site: u32, state: u8) -> Vec<u8> {
        [&site.to_le_bytes()[..], &[state]].concat()
    }

    /// The east halo strip's size on worker 0 (a 5×10 domain, radius 1).
    fn east_strip() -> usize {
        assert_eq!(dir_index(1, 0), EAST as usize);
        let (_, _, w, h) = halo_rect(5, 10, 1, EAST as usize);
        (w * h) as usize
    }

    #[test]
    fn torn_write_back_is_an_error() {
        assert_rejected(KIND_WRITEBACK, &[0; 7], "torn write-back");
    }

    #[test]
    fn write_back_into_an_unowned_cell_is_an_error() {
        // Site 37 is (7, 3): worker 1's.
        assert_rejected(KIND_WRITEBACK, &writeback(37, 1), "unowned site 37");
    }

    #[test]
    fn write_back_of_an_unknown_state_is_an_error() {
        // Site 32 is (2, 3): worker 0's own.
        let expect = "write-back of state 3";
        assert_rejected(KIND_WRITEBACK, &writeback(32, SPECIES), expect);
    }

    #[test]
    fn halo_strip_of_the_wrong_length_is_an_error() {
        assert_rejected(KIND_HALO, &vec![0; east_strip() - 1], "halo strip of");
    }

    #[test]
    fn halo_strip_with_an_unknown_state_is_an_error() {
        let mut strip = vec![0; east_strip()];
        strip[1] = SPECIES;
        assert_rejected(KIND_HALO, &strip, "halo strip with state 3");
    }

    #[test]
    fn counts_of_the_wrong_length_are_an_error() {
        assert_rejected(KIND_COUNTS, &[0; 3], "counts of 3 bytes");
    }

    #[test]
    fn halo_and_border_rects_mirror_each_other() {
        // The strip packed toward `d` must have the shape the receiver
        // unpacks for its halo toward `opposite(d)` — that is the protocol
        // invariant that makes payload sizes line up.
        let (bw, bh, r) = (10, 6, 2);
        for d in 0..8 {
            let (_, _, sw, sh) = border_rect(bw, bh, r, d);
            let (_, _, hw, hh) = halo_rect(bw, bh, r, opposite(d));
            assert_eq!((sw, sh), (hw, hh), "direction {d}");
        }
    }

    #[test]
    fn rects_cover_expected_regions() {
        let (bw, bh, r) = (8, 8, 1);
        // East halo sits just right of the owned columns.
        assert_eq!(halo_rect(bw, bh, r, dir_index(1, 0)), (9, 1, 1, 8));
        // East border is the right-most owned column.
        assert_eq!(border_rect(bw, bh, r, dir_index(1, 0)), (8, 1, 1, 8));
        // North-west corner halo.
        assert_eq!(halo_rect(bw, bh, r, dir_index(-1, -1)), (0, 0, 1, 1));
        // Zero radius: all strips are empty.
        for d in 0..8 {
            let (_, _, w, h) = halo_rect(bw, bh, 0, d);
            assert_eq!(w.min(h), 0);
        }
    }
}
