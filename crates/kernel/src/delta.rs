//! Compiled deltas: one reaction's fire, far from every edge, as
//! straight-line adds.
//!
//! A reaction of a LUT-compiled model writes fixed cells and moves the codes
//! of fixed anchors by fixed amounts: the write of cell `q` (`src → tgt`) at
//! `site + cells[q]` adds `weight_j · (tgt − src)` to the anchor
//! `site + cells[q] − cells[j]` for every read cell `j`. [`Deltas`] compiles
//! both lists once per geometry, per reaction:
//!
//! - the writes, as `(flat offset, src → tgt)` in transform order (the order
//!   the change journal keeps);
//! - the anchor code deltas merged by anchor, as `(flat offset,
//!   Σ weight_j·(tgt − src))`, net-zero entries dropped. ZGB and Kuzovkov
//!   need at most 8.
//!
//! A flat offset is `dy·w + dx` as a wrapping `u32` add. It is exact at a
//! site at least the lists' reach (at most twice the stencil's) from every
//! edge: no offset wraps, and distinct offsets reach distinct sites, so the
//! merged deltas are the per-change fold's deltas summed. The fold's codes
//! are wrapping sums of commuting digit changes, and its masks are the LUT
//! rows of the final codes, so one LUT load per anchor lands where the
//! per-change fold lands; `count_diff` of each anchor's first and last mask
//! is the telescoped sum of the fold's per-change count steps.

use crate::compiled::CompiledModel;
use psr_lattice::{Dims, Offset, Site, Stencil};

/// One write of a compiled fire: cell `site + offset` holds `src` and
/// becomes `tgt`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaWrite {
    /// `dy·w + dx`, a wrapping add to the fired site.
    pub offset: u32,
    /// The state the reaction requires there.
    pub src: u8,
    /// The state it writes.
    pub tgt: u8,
}

/// One anchor of a compiled fire: the code of `site + offset` moves by
/// `delta` (wrapping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnchorDelta {
    /// `dy·w + dx`, a wrapping add to the fired site.
    pub offset: u32,
    /// The merged code change of the anchor.
    pub delta: u32,
}

/// The writes and anchor deltas of a compiled fire.
pub type Fire<'d> = (&'d [DeltaWrite], &'d [AnchorDelta]);

/// The compiled fires of every reaction on one geometry (see the module
/// docs).
#[derive(Clone, Debug)]
pub struct Deltas {
    /// A stencil whose reach is the largest offset of any list: its interior
    /// sites are where the flat offsets are exact.
    deep: Stencil,
    reach: u32,
    /// Per reaction, `writes[w0..w1]` and `anchors[a0..a1]`; `None` for a
    /// reaction with two transforms on one cell, which the general fold
    /// serves.
    spans: Vec<Option<[u32; 4]>>,
    writes: Vec<DeltaWrite>,
    anchors: Vec<AnchorDelta>,
}

impl Deltas {
    /// Compile every reaction of `compiled` for `dims`; `None` without a
    /// LUT (mask mode and untracked models have no codes to move).
    pub fn new(compiled: &CompiledModel, dims: Dims) -> Option<Self> {
        compiled.lut_masks()?;
        let cells = compiled.cells();
        let width = i64::from(dims.width());
        let flat = |o: Offset| (i64::from(o.dy) * width + i64::from(o.dx)) as u32;
        let (mut spans, mut writes, mut anchors) = (Vec::new(), Vec::new(), Vec::new());
        let mut reach = 0;
        for reaction in 0..compiled.num_reactions() {
            let reqs = compiled.requirements(reaction);
            let distinct = reqs
                .iter()
                .enumerate()
                .all(|(i, a)| reqs[..i].iter().all(|b| b.cell != a.cell));
            if !distinct {
                spans.push(None);
                continue;
            }
            let w0 = writes.len() as u32;
            let mut merged: Vec<(Offset, u32)> = Vec::new();
            for r in reqs {
                let at = cells[r.cell as usize];
                reach = reach.max(at.linf_norm());
                writes.push(DeltaWrite {
                    offset: flat(at),
                    src: r.src,
                    tgt: r.tgt,
                });
                for &j in compiled.read_cells() {
                    let read = cells[j as usize];
                    let anchor = Offset::new(at.dx - read.dx, at.dy - read.dy);
                    let weight = compiled.weight(j as usize);
                    let delta = weight
                        .wrapping_mul(u32::from(r.tgt))
                        .wrapping_sub(weight.wrapping_mul(u32::from(r.src)));
                    match merged.iter_mut().find(|(o, _)| *o == anchor) {
                        Some((_, d)) => *d = d.wrapping_add(delta),
                        None => merged.push((anchor, delta)),
                    }
                }
            }
            let (w1, a0) = (writes.len() as u32, anchors.len() as u32);
            for (anchor, delta) in merged.into_iter().filter(|&(_, d)| d != 0) {
                reach = reach.max(anchor.linf_norm());
                anchors.push(AnchorDelta {
                    offset: flat(anchor),
                    delta,
                });
            }
            spans.push(Some([w0, w1, a0, anchors.len() as u32]));
        }
        Some(Deltas {
            deep: Stencil::new(dims, &[Offset::new(reach as i32, 0)]),
            reach,
            spans,
            writes,
            anchors,
        })
    }

    /// The compiled fire of `reaction` at `site`, or `None` where the
    /// general fold must serve it: `site` lies within the lists' reach of
    /// an edge, or the reaction is not compiled.
    #[inline]
    pub fn at(&self, site: Site, reaction: usize) -> Option<Fire<'_>> {
        let [w0, w1, a0, a1] = self.spans[reaction]?;
        self.deep.locate(site).is_interior().then(|| {
            (
                &self.writes[w0 as usize..w1 as usize],
                &self.anchors[a0 as usize..a1 as usize],
            )
        })
    }

    /// The largest offset of any list: a site this far from every edge
    /// takes compiled fires.
    pub fn reach(&self) -> u32 {
        self.reach
    }
}
