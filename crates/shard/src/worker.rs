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

use crate::domain::{dir_index, opposite, ShardGrid, DIRS};
use crate::frame::{
    self, FrameSink, StepReport, KIND_COUNTS, KIND_GATHER, KIND_HALO, KIND_REPORT, KIND_WRITEBACK,
    NO_DIR,
};
use psr_ca::partition::Partition;
use psr_ca::pndca::ChunkSelection;
use psr_ca::propensity::draw_weighted;
use psr_kernel::{group_weights, CompiledModel, SiteKernel, NO_GROUP};
use psr_lattice::{Change, Lattice, Site, SubLattice};
use psr_model::Model;
use psr_parallel::{draw_stream_id, shuffle_stream_id, trial_stream_base};
use psr_rng::{AliasTable, Pcg32, StreamFactory};
use std::sync::Arc;

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

/// One shard worker. The executor (inline or threaded) drives the phase
/// methods in protocol order; the worker itself never blocks.
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
    /// Per chunk: owned `(local, global)` sites whose neighborhood stays
    /// inside the owned rectangle.
    chunk_interior: Vec<Vec<(Site, Site)>>,
    /// Per chunk: owned sites within `radius` of the domain border.
    chunk_boundary: Vec<Vec<(Site, Site)>>,
    // Per-step / per-sweep scratch.
    draw_rng: Option<Pcg32>,
    journal: Vec<Change>,
    wb_out: Vec<Vec<u8>>,
    counts_total: Vec<u32>,
    weights: Vec<f64>,
    report: StepReport,
}

impl<'m> Worker<'m> {
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
    ) -> Self {
        let dims = global.dims();
        let radius = model.interaction_radius();
        let (x0, y0, bw, bh) = grid.domain_of(dims, id);
        let sub = SubLattice::scatter(global, x0, y0, bw, bh, radius);
        let mut kernel = SiteKernel::new(compiled, sub.lattice());
        let m = partition.num_chunks();
        let mut chunk_interior = vec![Vec::new(); m];
        let mut chunk_boundary = vec![Vec::new(); m];
        for c in 0..m {
            for &g in partition.chunk(c) {
                if let Some(local) = sub.owned_local(g) {
                    let pw = sub.padded_w();
                    let lx = local.0 % pw;
                    let ly = local.0 / pw;
                    // Owned coords run [r, r+bw) × [r, r+bh); the boundary
                    // strip is the outer `radius` ring of that rectangle.
                    let interior = lx >= 2 * radius && lx < bw && ly >= 2 * radius && ly < bh;
                    if interior {
                        chunk_interior[c].push((local, g));
                    } else {
                        chunk_boundary[c].push((local, g));
                    }
                }
            }
        }
        let species = model.species().len();
        let reactions = model.num_reactions();
        let mut counts_len = 0;
        if selection == ChunkSelection::WeightedByRates {
            let group_of = (0..sub.lattice().len() as u32)
                .map(|i| match Site(i) {
                    local if sub.is_owned(local) => partition.chunk_of(sub.to_global(local)) as u32,
                    _ => NO_GROUP,
                })
                .collect();
            kernel.attach_counts(group_of, m);
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
            journal: Vec::new(),
            wb_out: vec![Vec::new(); 8],
            counts_total: vec![0; counts_len],
            weights: Vec::new(),
            report: StepReport::zeroed(species, reactions),
        }
    }

    pub(crate) fn id(&self) -> u32 {
        self.id
    }

    pub(crate) fn neighbor(&self, dir: usize) -> u32 {
        self.grid.neighbor(self.id, dir)
    }

    /// The step report under construction — the socket worker stamps its
    /// measured per-phase busy times and wire-level comm stats into it
    /// before shipping the report frame.
    pub(crate) fn report_mut(&mut self) -> &mut StepReport {
        &mut self.report
    }

    pub(crate) fn begin_step(&mut self, step: u64) {
        self.report = StepReport::zeroed(self.model.species().len(), self.model.num_reactions());
        self.draw_rng = (self.selection == ChunkSelection::WeightedByRates)
            .then(|| self.factory.stream(draw_stream_id(step)));
    }

    /// The step's chunk schedule for the stateless selections — a pure
    /// function of `(seed, step)`, so every worker computes it locally.
    ///
    /// # Panics
    ///
    /// Panics for `WeightedByRates`, whose draws interleave with sweeps.
    pub(crate) fn chunk_order(&self, step: u64) -> Vec<usize> {
        let m = self.num_chunks;
        match self.selection {
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
                panic!("weighted selection draws per position, not per step")
            }
        }
    }

    /// Counts frames for the pre-sweep all-gather (weighted selection):
    /// one to every worker, own id included for a uniform receive loop.
    pub(crate) fn counts_frames(&mut self, step: u64, pos: u32, sink: &mut impl FrameSink) {
        let payload: Vec<u8> = self
            .kernel
            .counts(0)
            .iter()
            .flat_map(|c| c.to_le_bytes())
            .collect();
        for dest in 0..self.grid.workers() {
            self.note_sent(dest, frame::HEADER_LEN + payload.len());
            sink.frame(dest, KIND_COUNTS, NO_DIR, self.id, step, pos, &payload);
        }
    }

    /// Draw the next chunk after all counts frames were accepted.
    pub(crate) fn weighted_draw(&mut self) -> usize {
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
    pub(crate) fn sweep(&mut self, step: u64, position: u32, chunk_idx: usize) {
        let base = trial_stream_base(
            step,
            self.num_chunks,
            position as usize,
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
    pub(crate) fn wb_frames(&mut self, step: u64, pos: u32, sink: &mut impl FrameSink) {
        for d in 0..8 {
            let payload = std::mem::take(&mut self.wb_out[d]);
            let dest = self.neighbor(d);
            self.note_sent(dest, frame::HEADER_LEN + payload.len());
            sink.frame(
                dest,
                KIND_WRITEBACK,
                opposite(d) as u8,
                self.id,
                step,
                pos,
                &payload,
            );
        }
    }

    /// Phase 3a: the halo-strip frames — the owned border after all
    /// write-backs of the sweep were applied, so receivers see a fully
    /// consistent image of this worker's cells.
    pub(crate) fn halo_frames(&mut self, step: u64, pos: u32, sink: &mut impl FrameSink) {
        let mut payload = Vec::new();
        for d in 0..8 {
            let (x0, y0, w, h) = border_rect(self.bw, self.bh, self.radius, d);
            payload.clear();
            self.sub.pack_rect(x0, y0, w, h, &mut payload);
            let dest = self.neighbor(d);
            self.note_sent(dest, frame::HEADER_LEN + payload.len());
            sink.frame(
                dest,
                KIND_HALO,
                opposite(d) as u8,
                self.id,
                step,
                pos,
                &payload,
            );
        }
    }

    fn note_sent(&mut self, dest: u32, bytes: usize) {
        if dest != self.id {
            self.report.comm.halo_messages += 1;
            self.report.comm.halo_bytes += bytes as u64;
        }
    }

    /// Accept one frame (phases 2b, 3b, and the counts all-gather). The
    /// scheduler is responsible for delivering, per phase, exactly the
    /// frames of that phase — in any order, since write sets are disjoint,
    /// strip rectangles are disjoint, and count sums commute.
    pub(crate) fn accept(&mut self, bytes: &[u8]) {
        let (header, payload) = frame::decode(bytes);
        match header.kind {
            KIND_WRITEBACK => {
                assert_eq!(payload.len() % 5, 0, "torn write-back payload");
                for entry in payload.chunks_exact(5) {
                    let g = Site(u32::from_le_bytes(entry[0..4].try_into().unwrap()));
                    let new = entry[4];
                    let local = self
                        .sub
                        .owned_local(g)
                        .expect("write-back for a cell this worker does not own");
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
                self.sub
                    .unpack_rect_diff(x0, y0, w, h, payload, &mut self.journal);
            }
            KIND_COUNTS => {
                assert_eq!(payload.len(), 4 * self.counts_total.len());
                for (t, chunk) in self.counts_total.iter_mut().zip(payload.chunks_exact(4)) {
                    *t += u32::from_le_bytes(chunk.try_into().unwrap());
                }
            }
            kind => panic!("worker cannot accept frame kind {kind}"),
        }
    }

    /// Phase 4: fold the sweep's change journal into the kernel's codes,
    /// masks and owned enabled-site counts. After this the worker is ready
    /// for the next draw/sweep.
    pub(crate) fn fold(&mut self) {
        self.kernel.apply_changes(self.sub.lattice(), &self.journal);
        self.journal.clear();
    }

    /// The step's report frame for the hub.
    pub(crate) fn report_frame(&mut self, step: u64) -> Vec<u8> {
        frame::encode(KIND_REPORT, NO_DIR, self.id, step, 0, &self.report.encode())
    }

    /// The final owned-rectangle frame for the hub's gather.
    pub(crate) fn gather_frame(&self, step: u64) -> Vec<u8> {
        let r = self.radius;
        let mut payload = Vec::with_capacity((self.bw * self.bh) as usize);
        self.sub.pack_rect(r, r, self.bw, self.bh, &mut payload);
        frame::encode(KIND_GATHER, NO_DIR, self.id, step, 0, &payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
