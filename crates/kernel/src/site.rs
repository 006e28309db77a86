//! Per-site kernel state: neighbor tables, neighborhood codes, masks — and
//! the one trial body, [`SiteKernel::fire`].
//!
//! A [`SiteKernel`] binds a [`CompiledModel`] to one lattice geometry. At
//! construction it precomputes, for every site, the flat indices of its
//! stencil cells — so the hot loop never touches `Dims::translate`'s
//! div/mod arithmetic. The stencil is closed under point reflection, so
//! the same row read backwards lists the anchors that read the site: a
//! firing trial writes through it and folds the write back from it.
//!
//! A **tracked** kernel additionally scans the lattice once to seed the
//! per-site neighborhood codes (LUT mode) or enabled-reaction masks
//! (fallback mode) and is maintained *incrementally* from the change lists
//! the simulators journal: a change `(x, old → new)` at site `x` adds
//! `weight_j · (new − old)` to the code of every anchor `x − cells[j]`, `j`
//! over the read cells — exact in wrapping `u32` arithmetic because each
//! digit transitions independently, even when torus aliasing folds several
//! cells of one anchor onto `x`. Its enabled test is one mask load.
//!
//! An **untracked** kernel holds the tables only and answers the enabled
//! test by walking the reaction's requirements through the neighbor table
//! and the caller's cell reader — the single requirement-walk scan in the
//! workspace. A kernel is untracked exactly when it has no masks to
//! consult: the model has more than
//! [`MAX_KERNEL_REACTIONS`](crate::MAX_KERNEL_REACTIONS) types.
//!
//! A tracked kernel can also keep per-(group, reaction) enabled-site
//! counts ([`SiteKernel::attach_counts`]): every fold that replaces an
//! anchor's mask hands the old and the new mask to
//! [`count_diff`], so the counts cost no walk of their own.
//!
//! Freshness follows a mutation-epoch protocol: simulators call
//! [`SiteKernel::bind`] with the state's `mutation_epoch()` before a sweep
//! and [`SiteKernel::note_epoch`] after applying changes through the
//! kernel; a rebuild re-derives codes, masks and counts together.

use std::ops::Range;
use std::sync::Arc;

use crate::compiled::{require_masks, CompiledModel};
use crate::counts::count_diff;
use psr_lattice::{Change, Dims, Lattice, Site};
use psr_model::Model;

/// Row `site` of the neighbor table: the flat indices of `site + cells[j]`.
/// Because `cells[c − 1 − j] == −cells[j]`, entry `c − 1 − j` is also the
/// anchor `site − cells[j]` whose stencil cell `j` reads `site`.
#[inline]
fn neighbors_of(table: &[u32], c: usize, site: usize) -> &[u32] {
    &table[site * c..site * c + c]
}

/// A [`CompiledModel`] instantiated for one lattice geometry.
#[derive(Clone, Debug)]
pub struct SiteKernel {
    compiled: Arc<CompiledModel>,
    dims: Dims,
    /// `table[site·C + j]` = flat index of `site + cells[j]` (see
    /// [`neighbors_of`]).
    table: Vec<u32>,
    /// LUT mode: the base-S neighborhood code of every site.
    codes: Vec<u32>,
    /// LUT mode: a flat copy of the compiled mask table (refresh source for
    /// `masks`, no `Arc` chase).
    lut_mask: Vec<u64>,
    /// The enabled-reaction bitmask of every site, in *both* modes: the
    /// per-trial check is a single dependent load. In LUT mode the mask is
    /// refreshed from `lut_mask[codes[anchor]]` whenever an anchor's code
    /// changes — executions are rare next to trials, so paying a table load
    /// per touched anchor is far cheaper than one per trial.
    masks: Vec<u64>,
    /// Mutation epoch of the `SimState` this kernel last reflected.
    epoch: u64,
    /// `compiled.tracks_masks()`, kept here so the per-trial branch does
    /// not chase the `Arc`.
    tracked: bool,
    /// The site → group maps of [`attach_counts`](Self::attach_counts).
    group_maps: Vec<Vec<u32>>,
    /// Per map: `counts[g · R + r]` = sites of group `g` where reaction `r`
    /// is enabled.
    counts: Vec<Vec<u32>>,
}

/// Exclusive access to the codes and masks of the anchors in one contiguous
/// site range of a tracked kernel: all of them for the kernel's own folds,
/// one slice's share for an [`AnchorRange`]. Owns nothing, so the per-event
/// fold builds and drops it for free.
struct Anchors<'k> {
    compiled: &'k CompiledModel,
    table: &'k [u32],
    lut_mask: &'k [u64],
    /// First site of the range; `codes[i]`/`masks[i]` belong to `lo + i`.
    lo: u32,
    codes: &'k mut [u32],
    masks: &'k mut [u64],
    /// The kernel's site → group maps.
    group_maps: &'k [Vec<u32>],
}

/// One of the disjoint site ranges of a tracked [`SiteKernel`] that
/// concurrent folds work on (see [`SiteKernel::split_anchors`]).
pub struct AnchorRange<'k> {
    anchors: Anchors<'k>,
    /// Per map, the count changes of this range's folds (wrapping; added to
    /// the kernel's counts by [`SiteKernel::apply_tail`]).
    deltas: Vec<Vec<u32>>,
}

/// What a fold over an [`AnchorRange`] leaves for the calling thread (see
/// [`SiteKernel::apply_tail`]).
pub struct RangeTail {
    sites: Range<u32>,
    /// The changes that also reach an anchor outside `sites`.
    spill: Vec<Change>,
    deltas: Vec<Vec<u32>>,
}

impl AnchorRange<'_> {
    /// The sites whose codes and masks this range holds.
    pub fn sites(&self) -> Range<u32> {
        self.anchors.sites()
    }

    /// Fold `changes` into the anchors of this range, and return what is
    /// left for [`SiteKernel::apply_tail`]: every entry that also reaches
    /// an anchor outside the range, and the range's count changes.
    /// `lattice` must reflect the changes and be quiescent.
    pub fn apply_changes(self, lattice: &Lattice, changes: &[Change]) -> RangeTail {
        let AnchorRange {
            mut anchors,
            mut deltas,
        } = self;
        let sites = anchors.sites();
        let mut spill = Vec::new();
        let mut spilled = false;
        for change in changes {
            let keep = |anchor| {
                let mine = sites.contains(&anchor);
                spilled |= !mine;
                mine
            };
            anchors.fold(lattice, std::slice::from_ref(change), keep, &mut deltas);
            if std::mem::take(&mut spilled) {
                spill.push(*change);
            }
        }
        RangeTail {
            sites,
            spill,
            deltas,
        }
    }
}

impl Anchors<'_> {
    fn sites(&self) -> Range<u32> {
        self.lo..self.lo + self.masks.len() as u32
    }

    /// Update the anchors reading each changed site, `keep` deciding which
    /// of them (all of those it keeps must lie in this range), and carry
    /// every mask change into `counts` (one vector per group map). Without
    /// group maps the count step compiles away.
    #[inline]
    fn fold(
        &mut self,
        lattice: &Lattice,
        changes: &[Change],
        keep: impl FnMut(u32) -> bool,
        counts: &mut [Vec<u32>],
    ) {
        if self.group_maps.is_empty() {
            self.fold_masks(lattice, changes, keep, |_, _, _| {});
        } else {
            self.fold_counting(lattice, changes, keep, counts);
        }
    }

    /// [`fold`](Self::fold) with group maps; kept out of line so that the
    /// callers' unattached fold compiles to the mask walk alone.
    #[inline(never)]
    fn fold_counting(
        &mut self,
        lattice: &Lattice,
        changes: &[Change],
        keep: impl FnMut(u32) -> bool,
        counts: &mut [Vec<u32>],
    ) {
        let (maps, reactions) = (self.group_maps, self.compiled.num_reactions());
        self.fold_masks(lattice, changes, keep, |anchor, old, new| {
            for (map, counts) in maps.iter().zip(counts.iter_mut()) {
                count_diff(counts, reactions, map[anchor as usize], old, new);
            }
        });
    }

    /// The fold proper: `tally(anchor, old, new)` sees every mask it
    /// changes.
    #[inline(always)]
    fn fold_masks(
        &mut self,
        lattice: &Lattice,
        changes: &[Change],
        mut keep: impl FnMut(u32) -> bool,
        mut tally: impl FnMut(u32, u64, u64),
    ) {
        let c = self.compiled.cells().len();
        let reads = self.compiled.read_cells();
        // `row[c − 1 − j]` is the anchor `site − cells[j]`, which reads
        // `site` as its cell `j`.
        if self.compiled.has_lut() {
            for &(site, old, new) in changes {
                if old == new {
                    continue;
                }
                let row = neighbors_of(self.table, c, site.0 as usize);
                for &j in reads {
                    let anchor = row[c - 1 - j as usize];
                    if !keep(anchor) {
                        continue;
                    }
                    let w = self.compiled.weight(j as usize);
                    let delta = w
                        .wrapping_mul(u32::from(new))
                        .wrapping_sub(w.wrapping_mul(u32::from(old)));
                    let code = &mut self.codes[(anchor - self.lo) as usize];
                    *code = code.wrapping_add(delta);
                    let mask = self.lut_mask[*code as usize];
                    let was = std::mem::replace(&mut self.masks[(anchor - self.lo) as usize], mask);
                    if was != mask {
                        tally(anchor, was, mask);
                    }
                }
            }
        } else {
            for &(site, _, _) in changes {
                let row = neighbors_of(self.table, c, site.0 as usize);
                for &j in reads {
                    let anchor = row[c - 1 - j as usize];
                    if !keep(anchor) {
                        continue;
                    }
                    let nb = neighbors_of(self.table, c, anchor as usize);
                    let mask = self
                        .compiled
                        .eval(|cell| lattice.cells()[nb[cell as usize] as usize]);
                    let was = std::mem::replace(&mut self.masks[(anchor - self.lo) as usize], mask);
                    if was != mask {
                        tally(anchor, was, mask);
                    }
                }
            }
        }
    }
}

impl SiteKernel {
    /// Build the kernel for `lattice`'s geometry and, when the compiled
    /// model tracks masks, seed it from the current configuration.
    pub fn new(compiled: Arc<CompiledModel>, lattice: &Lattice) -> Self {
        let dims = lattice.dims();
        let n = lattice.len();
        let c = compiled.cells().len();
        let mut table = vec![0u32; n * c];
        let wrap = lattice.wrap_tables();
        for (j, &offset) in compiled.cells().iter().enumerate() {
            if wrap.covers(offset) {
                // Division-free: sweep coordinates row-major and translate
                // through the wrap tables.
                let mut site = 0usize;
                for y in 0..dims.height() {
                    for x in 0..dims.width() {
                        table[site * c + j] = wrap.translate_xy(x, y, offset).0;
                        site += 1;
                    }
                }
            } else {
                // Wide stencil cell: exact one-time fallback.
                for site in dims.iter_sites() {
                    table[site.0 as usize * c + j] = dims.translate(site, offset).0;
                }
            }
        }
        let lut_mask = compiled
            .lut_masks()
            .map(<[u64]>::to_vec)
            .unwrap_or_default();
        let mut kernel = SiteKernel {
            tracked: compiled.tracks_masks(),
            compiled,
            dims,
            table,
            codes: Vec::new(),
            lut_mask,
            masks: Vec::new(),
            epoch: 0,
            group_maps: Vec::new(),
            counts: Vec::new(),
        };
        kernel.rebuild(lattice);
        kernel
    }

    /// The compiled model this kernel instantiates.
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// The geometry this kernel was built for.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// The mutation epoch this kernel last reflected.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when the kernel maintains per-site enabled masks (see the
    /// module docs); false when every enabled test is a requirement walk.
    #[inline]
    pub fn is_tracked(&self) -> bool {
        self.tracked
    }

    /// Make `slot` hold a kernel for `compiled` that is bound to
    /// `lattice`'s geometry and reflects its cells at mutation `epoch`:
    /// built on first use or after a geometry change, rebuilt when the
    /// lattice was mutated behind its back, untouched otherwise.
    pub fn bind<'a>(
        slot: &'a mut Option<SiteKernel>,
        compiled: &Arc<CompiledModel>,
        lattice: &Lattice,
        epoch: u64,
    ) -> &'a mut SiteKernel {
        match slot {
            Some(k) if k.dims == lattice.dims() => k.ensure_fresh(lattice, epoch),
            _ => *slot = None,
        }
        slot.get_or_insert_with(|| {
            let mut k = SiteKernel::new(Arc::clone(compiled), lattice);
            k.epoch = epoch;
            k
        })
    }

    /// Record the mutation epoch the kernel is now consistent with.
    pub fn note_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Rebuild only if `epoch` differs from the last-seen epoch (the lattice
    /// was mutated outside this kernel's view); records `epoch` either way.
    pub fn ensure_fresh(&mut self, lattice: &Lattice, epoch: u64) {
        if self.epoch != epoch {
            self.rebuild(lattice);
            self.epoch = epoch;
        }
    }

    /// Re-derive all codes, masks and counts from the lattice (cold path;
    /// nothing to derive for an untracked kernel).
    ///
    /// # Panics
    ///
    /// Panics if a cell holds a state outside the compiled model's domain.
    pub fn rebuild(&mut self, lattice: &Lattice) {
        assert_eq!(self.dims, lattice.dims(), "kernel built for other dims");
        if !self.is_tracked() {
            return;
        }
        let n = lattice.len();
        let c = self.compiled.cells().len();
        let num_states = self.compiled.num_states();
        for (i, &s) in lattice.cells().iter().enumerate() {
            assert!(
                u32::from(s) < num_states,
                "site {i} holds state {s} outside the compiled domain (< {num_states})"
            );
        }
        if self.compiled.has_lut() {
            self.codes.clear();
            self.codes.resize(n, 0);
            for (site, code) in self.codes.iter_mut().enumerate() {
                let row = neighbors_of(&self.table, c, site);
                let mut acc = 0u32;
                for (j, &nb) in row.iter().enumerate() {
                    acc += self.compiled.weight(j) * u32::from(lattice.cells()[nb as usize]);
                }
                *code = acc;
            }
            self.masks.clear();
            self.masks
                .extend(self.codes.iter().map(|&code| self.lut_mask[code as usize]));
        } else {
            self.codes.clear();
            self.masks.clear();
            self.masks.resize(n, 0);
            for site in 0..n {
                let row = neighbors_of(&self.table, c, site);
                self.masks[site] = self
                    .compiled
                    .eval(|cell| lattice.cells()[row[cell as usize] as usize]);
            }
        }
        self.counts = self.recount(&self.masks);
    }

    /// The counts of every attached map, derived afresh from `masks`.
    fn recount(&self, masks: &[u64]) -> Vec<Vec<u32>> {
        let reactions = self.compiled.num_reactions();
        self.group_maps
            .iter()
            .zip(&self.counts)
            .map(|(map, counts)| {
                let mut fresh = vec![0; counts.len()];
                for (&group, &mask) in map.iter().zip(masks) {
                    count_diff(&mut fresh, reactions, group, 0, mask);
                }
                fresh
            })
            .collect()
    }

    /// Keep, from now on, per-(group, reaction) counts of the enabled sites
    /// over `group_of` (`group_of[site]` in `0..groups`, or
    /// [`NO_GROUP`](crate::NO_GROUP) for a site no group counts): the
    /// weights of weighted chunk selection. Every fold and rebuild keeps
    /// them exact. Returns the map's index for [`counts`](Self::counts).
    ///
    /// # Panics
    ///
    /// Panics if the model fails [`require_masks`] (the counts are read off
    /// the masks) or `group_of` does not give one group per site.
    pub fn attach_counts(&mut self, group_of: Vec<u32>, groups: usize) -> usize {
        require_masks(self.compiled.num_reactions()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(group_of.len(), self.masks.len(), "one group per site");
        self.group_maps.push(group_of);
        self.counts
            .push(vec![0; groups * self.compiled.num_reactions()]);
        self.counts = self.recount(&self.masks);
        self.counts.len() - 1
    }

    /// True once [`attach_counts`](Self::attach_counts) gave this kernel a
    /// group map.
    pub fn is_counting(&self) -> bool {
        !self.counts.is_empty()
    }

    /// The counts over map `map`: `counts(map)[g · R + r]` sites of group
    /// `g` have reaction `r` enabled.
    pub fn counts(&self, map: usize) -> &[u32] {
        &self.counts[map]
    }

    /// The [`group_weights`](crate::group_weights) of map `map` over the
    /// reactions in `reactions`, into `out`.
    pub fn weights_into(&self, map: usize, reactions: Range<usize>, out: &mut Vec<f64>) {
        crate::group_weights(&self.counts[map], self.compiled.rates(), reactions, out);
    }

    /// Fold a batch of executed changes into the kernel.
    ///
    /// `lattice` must already reflect the changes (call after
    /// `SimState::apply_changes`). Duplicate sites in `changes` are fine:
    /// each entry records the true before/after states, so the code deltas
    /// compose.
    #[inline]
    pub fn apply_changes(&mut self, lattice: &Lattice, changes: &[Change]) {
        if self.is_tracked() {
            let (mut all, counts) = self.all_anchors();
            all.fold(lattice, changes, |_| true, counts);
        }
    }

    /// Finish an [`AnchorRange::apply_changes`] on the calling thread:
    /// fold its spilled changes into the anchors *outside* its range and
    /// add its count changes.
    pub fn apply_tail(&mut self, lattice: &Lattice, tail: RangeTail) {
        let (mut all, counts) = self.all_anchors();
        let outside = |anchor| !tail.sites.contains(&anchor);
        all.fold(lattice, &tail.spill, outside, counts);
        for (counts, deltas) in counts.iter_mut().zip(&tail.deltas) {
            for (c, d) in counts.iter_mut().zip(deltas) {
                *c = c.wrapping_add(*d);
            }
        }
    }

    /// Split the codes and masks at the ascending site indices `bounds`
    /// into `bounds.len() + 1` disjoint [`AnchorRange`]s covering every
    /// site, so that concurrent writers over disjoint site ranges can each
    /// fold their own journal. Empty for an untracked kernel (nothing to
    /// fold).
    pub fn split_anchors(&mut self, bounds: &[u32]) -> Vec<AnchorRange<'_>> {
        if !self.is_tracked() {
            return Vec::new();
        }
        let n = self.masks.len() as u32;
        let (mut codes, mut masks) = (self.codes.as_mut_slice(), self.masks.as_mut_slice());
        let mut ranges = Vec::with_capacity(bounds.len() + 1);
        let mut lo = 0u32;
        for &hi in bounds.iter().chain([&n]) {
            assert!(lo <= hi && hi <= n, "bounds must ascend within the lattice");
            let len = (hi - lo) as usize;
            // Mask mode keeps no codes.
            let (c, c_rest) = codes.split_at_mut(len.min(codes.len()));
            let (m, m_rest) = masks.split_at_mut(len);
            (codes, masks) = (c_rest, m_rest);
            ranges.push(AnchorRange {
                anchors: Anchors {
                    compiled: &self.compiled,
                    table: &self.table,
                    lut_mask: &self.lut_mask,
                    lo,
                    codes: c,
                    masks: m,
                    group_maps: &self.group_maps,
                },
                deltas: self.counts.iter().map(|c| vec![0; c.len()]).collect(),
            });
            lo = hi;
        }
        ranges
    }

    /// Every anchor, and the counts its folds update in place.
    fn all_anchors(&mut self) -> (Anchors<'_>, &mut [Vec<u32>]) {
        let all = Anchors {
            compiled: &self.compiled,
            table: &self.table,
            lut_mask: &self.lut_mask,
            lo: 0,
            codes: &mut self.codes,
            masks: &mut self.masks,
            group_maps: &self.group_maps,
        };
        (all, &mut self.counts)
    }

    /// The one trial: if `reaction` is enabled at `site`, write its target
    /// states — in transform order, through the neighbor table — into
    /// `write` and return true; otherwise write nothing and return false.
    ///
    /// `read` and `write` are the caller's cells: a plain lattice, a shared
    /// one, a shard's owned-or-deferred write-back. `read` is consulted only
    /// by an untracked kernel. A tracked kernel trusts its masks, so the
    /// caller folds the writes back with
    /// [`apply_changes`](Self::apply_changes) before any trial whose
    /// pattern can see them.
    #[inline]
    pub fn fire(
        &self,
        site: Site,
        reaction: usize,
        read: impl Fn(Site) -> u8,
        mut write: impl FnMut(Site, u8),
    ) -> bool {
        if !self.is_enabled(site, reaction, read) {
            return false;
        }
        let c = self.compiled.cells().len();
        let row = neighbors_of(&self.table, c, site.0 as usize);
        for r in self.compiled.requirements(reaction) {
            write(Site(row[r.cell as usize]), r.tgt);
        }
        true
    }

    /// Is `reaction` enabled at `site`? One mask load when tracked; the
    /// requirement walk over `read` when not.
    #[inline]
    pub fn is_enabled(&self, site: Site, reaction: usize, read: impl Fn(Site) -> u8) -> bool {
        if self.is_tracked() {
            return (self.masks[site.0 as usize] >> reaction) & 1 != 0;
        }
        let c = self.compiled.cells().len();
        let row = neighbors_of(&self.table, c, site.0 as usize);
        self.compiled
            .requirements(reaction)
            .iter()
            .all(|r| read(Site(row[r.cell as usize])) == r.src)
    }

    /// Enabled-reaction bitmask at `site` (bit `i` ↔ reaction `i`).
    /// Tracked kernels only.
    #[inline]
    pub fn enabled_mask(&self, site: Site) -> u64 {
        self.masks[site.0 as usize]
    }

    /// The per-site enabled-reaction bitmasks, indexed by flat site id
    /// (empty for an untracked kernel).
    ///
    /// Trial loops borrow this once per scan so the per-trial check is a
    /// single indexed load with the bounds check lifted out of the loop.
    #[inline]
    pub fn enabled_masks(&self) -> &[u64] {
        &self.masks
    }

    /// Summed rate of the reactions enabled at `site` (the LUT's
    /// cumulative-rate row; recomputed from the mask in fallback mode).
    /// Tracked kernels only.
    #[inline]
    pub fn enabled_rate_sum(&self, site: Site) -> f64 {
        if self.compiled.has_lut() {
            self.compiled.rate_for_code(self.codes[site.0 as usize])
        } else {
            self.compiled.rate_of_mask(self.masks[site.0 as usize])
        }
    }

    /// The anchor `site − cells[cell]` from the precomputed table (used by
    /// VSSM's enabled-set maintenance to avoid repeated translation).
    #[inline]
    pub fn anchor(&self, site: Site, cell: usize) -> Site {
        let c = self.compiled.cells().len();
        Site(neighbors_of(&self.table, c, site.0 as usize)[c - 1 - cell])
    }

    /// The neighbor `site + cells[cell]` from the precomputed table.
    #[inline]
    pub fn neighbor(&self, site: Site, cell: usize) -> Site {
        let c = self.compiled.cells().len();
        Site(neighbors_of(&self.table, c, site.0 as usize)[cell])
    }

    /// Every site's enabled mask by the model's own per-reaction scan.
    fn scan(model: &Model, lattice: &Lattice) -> Vec<u64> {
        lattice
            .dims()
            .iter_sites()
            .map(|site| model.enabled_mask_at(lattice, site))
            .collect()
    }

    /// Check every site's mask against the model's own per-reaction scan,
    /// and every attached count against a recount of that scan; true iff
    /// they all agree (an untracked kernel has no masks to go stale, so it
    /// always does).
    pub fn matches_scan(&self, model: &Model, lattice: &Lattice) -> bool {
        if !self.is_tracked() {
            return true;
        }
        let scanned = Self::scan(model, lattice);
        scanned == self.masks && self.recount(&scanned) == self.counts
    }

    /// Assert [`matches_scan`](Self::matches_scan), reporting the first
    /// disagreeing site.
    pub fn assert_matches_scan(&self, model: &Model, lattice: &Lattice) {
        if !self.is_tracked() {
            return;
        }
        let scanned = Self::scan(model, lattice);
        for (site, (&compiled, &naive)) in self.masks.iter().zip(&scanned).enumerate() {
            assert_eq!(
                compiled, naive,
                "kernel mask {compiled:#b} != naive {naive:#b} at site {site}"
            );
        }
        assert_eq!(
            self.counts,
            self.recount(&scanned),
            "enabled-set counts diverged from a recount"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_model::library::zgb::zgb_ziff;

    fn checker_lattice(dims: Dims) -> Lattice {
        let cells = (0..dims.sites()).map(|i| (i % 3) as u8).collect();
        Lattice::from_cells(dims, cells)
    }

    #[test]
    fn fresh_kernel_matches_naive_scan() {
        let model = zgb_ziff(0.5, 2.0);
        let lattice = checker_lattice(Dims::new(8, 6));
        let kernel = SiteKernel::new(Arc::new(CompiledModel::compile(&model)), &lattice);
        kernel.assert_matches_scan(&model, &lattice);
    }

    #[test]
    fn fallback_kernel_matches_naive_scan() {
        let model = zgb_ziff(0.5, 2.0);
        let lattice = checker_lattice(Dims::new(8, 6));
        let compiled = CompiledModel::compile_with_cap(&model, 0);
        assert!(!compiled.has_lut());
        let kernel = SiteKernel::new(Arc::new(compiled), &lattice);
        kernel.assert_matches_scan(&model, &lattice);
    }

    #[test]
    fn incremental_updates_track_executions() {
        let model = zgb_ziff(0.4, 3.0);
        let mut lattice = Lattice::filled(Dims::new(6, 6), 0);
        let mut kernel = SiteKernel::new(Arc::new(CompiledModel::compile(&model)), &lattice);
        let mut changes = Vec::new();
        // Execute a few reactions by hand and fold each change batch in.
        for (site, ri) in [(0u32, 0usize), (7, 1), (14, 0), (20, 1), (7, 3)] {
            let site = Site(site);
            let rt = model.reaction(ri);
            changes.clear();
            if rt.is_enabled(&lattice, site) {
                rt.execute(&mut lattice, site, &mut changes);
                kernel.apply_changes(&lattice, &changes);
            }
            kernel.assert_matches_scan(&model, &lattice);
        }
    }

    #[test]
    fn incremental_updates_on_tiny_aliased_lattice() {
        // 2×2 torus: stencil cells alias heavily; digits must still track.
        let model = zgb_ziff(0.5, 2.0);
        let mut lattice = Lattice::filled(Dims::new(2, 2), 0);
        let mut kernel = SiteKernel::new(Arc::new(CompiledModel::compile(&model)), &lattice);
        let mut changes = Vec::new();
        for site in 0..4u32 {
            let site = Site(site);
            for ri in 0..model.num_reactions() {
                changes.clear();
                if model
                    .reaction(ri)
                    .try_execute(&mut lattice, site, &mut changes)
                {
                    kernel.apply_changes(&lattice, &changes);
                }
                kernel.assert_matches_scan(&model, &lattice);
            }
        }
    }

    #[test]
    fn range_folds_plus_their_tails_equal_one_fold() {
        // Three ranges each fold "their" journal (here: the changes at
        // sites they hold), the tails go through `apply_tail`. The torus
        // wrap reaches from the last range into the first, and the bounds
        // cut through lattice rows; LUT and mask mode. The kernel counts
        // over a group map with `NO_GROUP` holes, which the range deltas
        // must carry exactly.
        let model = zgb_ziff(0.4, 3.0);
        for cap in [crate::DEFAULT_LUT_CAP, 0] {
            let compiled = Arc::new(CompiledModel::compile_with_cap(&model, cap));
            let mut lattice = checker_lattice(Dims::new(7, 12));
            let mut kernel = SiteKernel::new(Arc::clone(&compiled), &lattice);
            let groups = (0..84).map(|s| if s % 5 == 4 { crate::NO_GROUP } else { s % 3 });
            kernel.attach_counts(groups.collect(), 3);
            let mut changes = Vec::new();
            for site in (0..84u32).step_by(2) {
                let old = lattice.get(Site(site));
                lattice.set(Site(site), (old + 1) % 3);
                changes.push((Site(site), old, (old + 1) % 3));
            }
            let mut tails = Vec::new();
            for range in kernel.split_anchors(&[27, 58]) {
                let sites = range.sites();
                let journal: Vec<Change> = changes
                    .iter()
                    .copied()
                    .filter(|(s, _, _)| sites.contains(&s.0))
                    .collect();
                let tail = range.apply_changes(&lattice, &journal);
                assert!(
                    tail.spill.len() < journal.len(),
                    "interior changes stay home"
                );
                tails.push(tail);
            }
            assert_eq!(tails.len(), 3);
            for tail in tails {
                kernel.apply_tail(&lattice, tail);
            }
            kernel.assert_matches_scan(&model, &lattice);
        }
    }

    #[test]
    fn bind_builds_once_and_rescans_on_epoch_or_geometry_change() {
        let model = zgb_ziff(0.5, 2.0);
        let compiled = Arc::new(CompiledModel::compile(&model));
        let mut lattice = Lattice::filled(Dims::new(4, 4), 0);
        let mut slot = None;
        assert_eq!(
            SiteKernel::bind(&mut slot, &compiled, &lattice, 1).epoch(),
            1
        );
        // Mutate behind the kernel's back: same epoch trusts the stale
        // masks, a new epoch rescans.
        lattice.set(Site(5), 1);
        let kernel = SiteKernel::bind(&mut slot, &compiled, &lattice, 1);
        assert!(!kernel.matches_scan(&model, &lattice));
        let kernel = SiteKernel::bind(&mut slot, &compiled, &lattice, 2);
        assert_eq!(kernel.epoch(), 2);
        kernel.assert_matches_scan(&model, &lattice);
        // Another geometry: a new kernel.
        let wide = Lattice::filled(Dims::new(6, 4), 0);
        let kernel = SiteKernel::bind(&mut slot, &compiled, &wide, 2);
        assert_eq!(kernel.dims(), wide.dims());
        kernel.assert_matches_scan(&model, &wide);
    }

    #[test]
    fn rate_sum_matches_enabled_set() {
        let model = zgb_ziff(0.3, 5.0);
        let lattice = checker_lattice(Dims::new(5, 5));
        let kernel = SiteKernel::new(Arc::new(CompiledModel::compile(&model)), &lattice);
        for site in lattice.dims().iter_sites() {
            let expected: f64 = model
                .enabled_at(&lattice, site)
                .iter()
                .map(|&ri| model.reaction(ri).rate())
                .sum();
            assert_eq!(kernel.enabled_rate_sum(site), expected);
        }
    }

    #[test]
    fn halo_diffs_keep_codes_fresh_across_domain_edges() {
        // The sharded executor maintains one kernel per worker on a
        // halo-padded sub-lattice and folds *halo-cell* diffs (from a
        // neighbor's strip) exactly like owned writes. Codes of owned sites
        // near the edge must come out identical to a fresh scan.
        use psr_lattice::SubLattice;
        let model = zgb_ziff(0.5, 2.0);
        let global = checker_lattice(Dims::new(8, 8));
        let mut sub = SubLattice::scatter(&global, 4, 4, 4, 4, 1);
        let mut kernel = SiteKernel::new(Arc::new(CompiledModel::compile(&model)), sub.lattice());
        // A remote reaction changed global cells that live in our halo
        // ring: apply the strip diff and fold it through the kernel.
        let mut changes = Vec::new();
        let strip: Vec<u8> = (0..6).map(|i| (i % 2 + 1) as u8).collect();
        sub.unpack_rect_diff(0, 0, 6, 1, &strip, &mut changes);
        assert!(!changes.is_empty(), "diff must report the halo writes");
        kernel.apply_changes(sub.lattice(), &changes);
        let fresh = SiteKernel::new(Arc::new(CompiledModel::compile(&model)), sub.lattice());
        for ly in 1..5u32 {
            for lx in 1..5u32 {
                let site = sub.lattice().dims().site_at(lx as i64, ly as i64);
                assert_eq!(
                    kernel.enabled_mask(site),
                    fresh.enabled_mask(site),
                    "stale code at owned ({lx},{ly}) after halo diff"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the compiled domain")]
    fn out_of_domain_state_panics() {
        let model = zgb_ziff(0.5, 2.0);
        let lattice = Lattice::filled(Dims::new(3, 3), 7);
        SiteKernel::new(Arc::new(CompiledModel::compile(&model)), &lattice);
    }
}
