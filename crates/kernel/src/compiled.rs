//! Model compilation: patterns → stencil cells, base-S codes, reaction LUT.
//!
//! A [`CompiledModel`] is built once per [`Model`] and contains everything
//! that does not depend on the lattice geometry:
//!
//! - the **stencil**: the deduplicated, sorted union of all transform
//!   offsets *and their negations*. The offsets themselves are the **read
//!   cells** — what a source pattern can read; the negations close the
//!   stencil under point reflection so that the anchors reading a site are
//!   among that site's own stencil cells (one addressing serves both
//!   directions, see [`SiteKernel`](crate::SiteKernel)). A symmetric
//!   stencil, as in every library model, has nothing but read cells;
//! - per-reaction **requirements**: each transform re-expressed as
//!   `(stencil cell index, required state, target state)`;
//! - the **reaction LUT**: for every base-S *neighborhood code* (the packed
//!   radix-S encoding of the read cells' states, S = number of species),
//!   the bitmask of enabled reactions and the summed rate of that enabled
//!   set. The LUT has `S^|read cells|` entries (ZGB: 3⁵ = 243); when that
//!   exceeds [`DEFAULT_LUT_CAP`] (large state spaces à la Kuzovkov's
//!   phase-augmented models with wide stencils) compilation falls back to
//!   per-reaction requirement masks evaluated on demand — still
//!   division-free and allocation-free, just not a single table load.
//!
//! A model with more than [`MAX_KERNEL_REACTIONS`] types compiles too, but
//! its enabled sets do not fit a `u64`: it gets the stencil and the
//! requirements only, and every kernel bound to it is *untracked* (see
//! [`SiteKernel`](crate::SiteKernel)).

use psr_lattice::Offset;
use psr_model::Model;

/// Largest LUT entry count compiled eagerly (mask + rate per entry ⇒ 16 MiB
/// at the cap). Beyond this the kernel uses per-reaction requirement masks.
pub const DEFAULT_LUT_CAP: usize = 1 << 20;

/// Reaction bitmasks are `u64`: kernels track the enabled sets of at most
/// 64 types. Larger models still compile and run, untracked.
pub const MAX_KERNEL_REACTIONS: usize = 64;

/// `Err` with the one message every mask-dependent consumer (weighted
/// chunk selection, the sharded and batched executors) reports for a model
/// with too many reaction types for enabled-set bitmasks.
pub fn require_masks(num_reactions: usize) -> Result<(), String> {
    if num_reactions <= MAX_KERNEL_REACTIONS {
        Ok(())
    } else {
        Err(format!(
            "model has {num_reactions} reaction types; enabled-set masks track at most \
             MAX_KERNEL_REACTIONS = {MAX_KERNEL_REACTIONS}"
        ))
    }
}

/// One transform of a reaction, on stencil coordinates: cell `cell` must
/// hold `src` for the reaction to be enabled, and holds `tgt` after it
/// fires. A reaction's requirements keep its transforms' order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Requirement {
    /// Index into [`CompiledModel::cells`].
    pub cell: u16,
    /// Required state id.
    pub src: u8,
    /// State id written on execution.
    pub tgt: u8,
}

/// The full enabled-set lookup table, indexed by neighborhood code.
#[derive(Clone, Debug)]
struct Lut {
    /// Bit `i` set ⇔ reaction `i` enabled for this code.
    mask: Vec<u64>,
    /// Summed rate of the enabled set (the cumulative-rate row): equals
    /// `Σ_i rate_i · bit_i` accumulated in reaction order.
    rate_sum: Vec<f64>,
}

/// A [`Model`] compiled for table-driven pattern matching.
#[derive(Clone, Debug)]
pub struct CompiledModel {
    num_reactions: usize,
    num_states: u32,
    cells: Vec<Offset>,
    /// The stencil cells some transform sits on, ascending: the digits of
    /// the neighborhood code.
    read_cells: Vec<u16>,
    /// Radix weight of stencil cell `j` in the code: `S^k` for the `k`-th
    /// read cell, 0 for a cell that is in the stencil only as a reflection.
    weights: Vec<u32>,
    rates: Vec<f64>,
    /// Requirements of reaction `i` are
    /// `reqs[req_ranges[i].0 .. req_ranges[i].1]`.
    req_ranges: Vec<(u32, u32)>,
    reqs: Vec<Requirement>,
    table: Option<Lut>,
}

impl CompiledModel {
    /// Compile `model` with the default LUT size cap.
    pub fn compile(model: &Model) -> Self {
        Self::compile_with_cap(model, DEFAULT_LUT_CAP)
    }

    /// Compile with an explicit LUT entry cap (`0` forces the per-reaction
    /// fallback; used by the differential tests to exercise both paths).
    pub fn compile_with_cap(model: &Model, lut_cap: usize) -> Self {
        let mut cells: Vec<Offset> = model
            .reactions()
            .iter()
            .flat_map(|rt| rt.transforms().iter())
            .flat_map(|t| [t.offset, t.offset.negated()])
            .collect();
        cells.sort_unstable();
        cells.dedup();
        // Sorted and reflection-closed: negation reverses the order, which
        // is how `SiteKernel::anchor` finds `site − cells[j]` as
        // `site + cells[c − 1 − j]`.
        assert!(
            cells
                .iter()
                .zip(cells.iter().rev())
                .all(|(a, b)| *a == b.negated()),
            "stencil order is not reversed by negation"
        );
        assert!(
            cells.len() <= u16::MAX as usize,
            "stencil of {} cells exceeds u16 indexing",
            cells.len()
        );
        let num_states = model.species().len() as u32;

        let mut req_ranges = Vec::with_capacity(model.num_reactions());
        let mut reqs = Vec::new();
        for rt in model.reactions() {
            let start = reqs.len() as u32;
            for t in rt.transforms() {
                let cell = cells.binary_search(&t.offset).expect("offset in stencil") as u16;
                reqs.push(Requirement {
                    cell,
                    src: t.src.id(),
                    tgt: t.tgt.id(),
                });
            }
            req_ranges.push((start, reqs.len() as u32));
        }

        let mut read_cells: Vec<u16> = reqs.iter().map(|r| r.cell).collect();
        read_cells.sort_unstable();
        read_cells.dedup();

        // Radix weights S^k over the read cells; also detects code overflow
        // (u32 codes).
        let mut weights = vec![0u32; cells.len()];
        let mut entries: Option<usize> = Some(1);
        let mut w: Option<u32> = Some(1);
        for &j in &read_cells {
            weights[j as usize] = w.unwrap_or(0);
            entries = entries.and_then(|e| e.checked_mul(num_states as usize));
            w = w.and_then(|w| w.checked_mul(num_states));
        }
        let tracks_masks = model.num_reactions() <= MAX_KERNEL_REACTIONS;
        let lut_entries = entries.filter(|&e| tracks_masks && e <= lut_cap && w.is_some());

        let rates: Vec<f64> = model.reactions().iter().map(|rt| rt.rate()).collect();
        let mut compiled = CompiledModel {
            num_reactions: model.num_reactions(),
            num_states,
            cells,
            read_cells,
            weights,
            rates,
            req_ranges,
            reqs,
            table: None,
        };
        if let Some(entries) = lut_entries {
            compiled.table = Some(compiled.build_lut(entries));
        }
        compiled
    }

    /// Enumerate every code with an odometer over the read cells' digits
    /// and evaluate all reactions' requirements against it.
    fn build_lut(&self, entries: usize) -> Lut {
        let mut mask = Vec::with_capacity(entries);
        let mut rate_sum = Vec::with_capacity(entries);
        let mut digits = vec![0u8; self.cells.len()];
        for code in 0..entries {
            let m = self.eval(|cell| digits[cell as usize]);
            mask.push(m);
            rate_sum.push(self.rate_of_mask(m));
            // Advance the odometer (skip after the last code).
            if code + 1 < entries {
                for &j in &self.read_cells {
                    let d = &mut digits[j as usize];
                    *d += 1;
                    if u32::from(*d) < self.num_states {
                        break;
                    }
                    *d = 0;
                }
            }
        }
        Lut { mask, rate_sum }
    }

    /// Number of reaction types.
    pub fn num_reactions(&self) -> usize {
        self.num_reactions
    }

    /// True when the enabled set of a site fits a `u64` bitmask, so kernels
    /// can track per-site masks (at most [`MAX_KERNEL_REACTIONS`] types).
    #[inline]
    pub fn tracks_masks(&self) -> bool {
        self.num_reactions <= MAX_KERNEL_REACTIONS
    }

    /// Number of states `S` (the code radix).
    pub fn num_states(&self) -> u32 {
        self.num_states
    }

    /// The stencil cells, sorted, deduplicated and closed under negation:
    /// `cells[len − 1 − j] == −cells[j]`.
    pub fn cells(&self) -> &[Offset] {
        &self.cells
    }

    /// Indices into [`cells`](Self::cells) of the cells a source pattern
    /// can read (some transform's offset), ascending. Only the anchors
    /// `site − cells[j]` for these `j` see a change at `site`.
    pub fn read_cells(&self) -> &[u16] {
        &self.read_cells
    }

    /// Radix weight of stencil cell `j` in the neighborhood code: `S^k` for
    /// the `k`-th read cell, 0 for a cell no pattern reads.
    #[inline]
    pub fn weight(&self, cell: usize) -> u32 {
        self.weights[cell]
    }

    /// Rate constant of reaction `i`.
    pub fn rate(&self, reaction: usize) -> f64 {
        self.rates[reaction]
    }

    /// The rate constants, in reaction order.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// True when the full-code LUT was compiled (vs the per-reaction
    /// requirement fallback).
    pub fn has_lut(&self) -> bool {
        self.table.is_some()
    }

    /// Number of LUT entries (`S^|read cells|`), or 0 in fallback mode.
    pub fn lut_entries(&self) -> usize {
        self.table.as_ref().map_or(0, |t| t.mask.len())
    }

    /// The requirements of reaction `i`.
    pub fn requirements(&self, reaction: usize) -> &[Requirement] {
        let (start, end) = self.req_ranges[reaction];
        &self.reqs[start as usize..end as usize]
    }

    /// Enabled-reaction bitmask for a neighborhood code (LUT mode only).
    #[inline]
    pub fn mask_for_code(&self, code: u32) -> u64 {
        self.table.as_ref().expect("LUT compiled").mask[code as usize]
    }

    /// The whole mask table, `None` in fallback mode. `SiteKernel` keeps its
    /// own copy so the per-trial check reads one flat slice instead of
    /// chasing `Arc → table → mask`.
    pub fn lut_masks(&self) -> Option<&[u64]> {
        self.table.as_ref().map(|t| t.mask.as_slice())
    }

    /// Summed enabled rate for a neighborhood code (LUT mode only).
    #[inline]
    pub fn rate_for_code(&self, code: u32) -> f64 {
        self.table.as_ref().expect("LUT compiled").rate_sum[code as usize]
    }

    /// Evaluate the enabled-reaction bitmask from a cell-state oracle
    /// (`get(cell)` returns the state of stencil cell `cell`). Used to build
    /// the LUT, to rebuild site masks in fallback mode, and by tests.
    /// Requires [`tracks_masks`](Self::tracks_masks).
    #[inline]
    pub fn eval(&self, get: impl Fn(u16) -> u8) -> u64 {
        debug_assert!(self.tracks_masks());
        let mut mask = 0u64;
        for (ri, &(start, end)) in self.req_ranges.iter().enumerate() {
            let ok = self.reqs[start as usize..end as usize]
                .iter()
                .all(|r| get(r.cell) == r.src);
            mask |= (ok as u64) << ri;
        }
        mask
    }

    /// Summed rate of the reactions set in `mask`, accumulated in reaction
    /// order (bit-identical to the LUT's cumulative-rate row).
    #[inline]
    pub fn rate_of_mask(&self, mask: u64) -> f64 {
        let mut sum = 0.0;
        let mut bits = mask;
        while bits != 0 {
            let ri = bits.trailing_zeros() as usize;
            sum += self.rates[ri];
            bits &= bits - 1;
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_model::library::zgb::zgb_ziff;
    use psr_model::ModelBuilder;

    #[test]
    fn zgb_compiles_to_von_neumann_lut() {
        let model = zgb_ziff(0.5, 2.0);
        let c = CompiledModel::compile(&model);
        assert_eq!(c.num_states(), 3);
        assert_eq!(c.cells().len(), 5, "von Neumann stencil");
        assert!(c.has_lut());
        assert_eq!(c.lut_entries(), 243, "3^5 codes");
        assert_eq!(c.num_reactions(), 7);
    }

    #[test]
    fn lut_mask_matches_direct_evaluation() {
        let model = zgb_ziff(0.45, 10.0);
        let c = CompiledModel::compile(&model);
        let s = c.num_states();
        for code in 0..c.lut_entries() as u32 {
            // Decode digits the slow way and re-evaluate.
            let digit = |cell: u16| ((code / c.weight(cell as usize)) % s) as u8;
            assert_eq!(c.mask_for_code(code), c.eval(digit), "code {code}");
            assert_eq!(c.rate_for_code(code), c.rate_of_mask(c.eval(digit)));
        }
    }

    #[test]
    fn cap_forces_fallback() {
        let model = zgb_ziff(0.5, 2.0);
        let c = CompiledModel::compile_with_cap(&model, 100);
        assert!(!c.has_lut());
        assert_eq!(c.lut_entries(), 0);
        // Requirements still compiled: CO adsorption needs vacant origin.
        assert_eq!(
            c.requirements(0),
            &[Requirement {
                cell: 2,
                src: 0,
                tgt: 1
            }]
        );
    }

    #[test]
    fn single_site_model_compiles() {
        let model = ModelBuilder::new(&["*", "A"])
            .reaction("ads", 1.0, |r| {
                r.site((0, 0), "*", "A");
            })
            .build();
        let c = CompiledModel::compile(&model);
        assert_eq!(c.cells().len(), 1);
        assert_eq!(c.lut_entries(), 2);
        assert_eq!(c.mask_for_code(0), 1, "vacant origin enables adsorption");
        assert_eq!(c.mask_for_code(1), 0);
        assert_eq!(c.rate_for_code(0), 1.0);
    }
}
