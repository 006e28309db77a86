//! Sub-lattice views with halo padding (domain decomposition substrate).
//!
//! A sharded executor splits the torus into per-worker rectangular domains.
//! Each worker owns a [`SubLattice`]: a private copy of its domain plus a
//! halo ring of `halo` cells mirroring the neighboring domains' border
//! state. The view is a real [`Lattice`] (padded dimensions), so compiled
//! kernels bind to it unchanged; the halo guarantees that any pattern
//! anchored at an *owned* site reads only cells present in the view, and
//! because owned cells sit at least `halo` away from the padded edge, those
//! reads never wrap — the torus wrap of the padded lattice only ever
//! affects halo cells' own (unused) neighborhoods.
//!
//! Boundary state moves through [`SubLattice::pack_rect`] /
//! [`SubLattice::unpack_rect_diff`]: row-major byte strips suitable for
//! message frames. Unpacking reports the cells that actually changed as a
//! `(site, old, new)` journal, which is exactly what incremental kernels
//! consume — halo maintenance is change-journal maintenance across the
//! domain edge.

use crate::geometry::{Dims, Site};
use crate::lattice::{Change, Lattice};

/// A halo-padded private copy of one rectangular domain of a global lattice.
#[derive(Clone, Debug)]
pub struct SubLattice {
    /// The padded `(w + 2·halo) × (h + 2·halo)` lattice.
    lattice: Lattice,
    /// Halo ring width (the model's interaction radius).
    halo: u32,
    /// Global coordinates of the owned rectangle's top-left cell.
    origin_x: u32,
    origin_y: u32,
    /// Owned rectangle size.
    owned_w: u32,
    owned_h: u32,
    /// Geometry of the global lattice this view was cut from.
    global: Dims,
}

impl SubLattice {
    /// Cut the `w × h` rectangle at `(x0, y0)` out of `global`, copying the
    /// owned cells and a surrounding halo ring of width `halo` (wrapped on
    /// the torus).
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is empty, exceeds the lattice, or `2·halo`
    /// is not strictly smaller than both rectangle sides (a wider halo
    /// would fold one neighbor strip onto several, breaking the one-frame-
    /// per-direction exchange protocol).
    pub fn scatter(global: &Lattice, x0: u32, y0: u32, w: u32, h: u32, halo: u32) -> Self {
        let dims = global.dims();
        assert!(w > 0 && h > 0, "sub-lattice must be non-empty");
        assert!(
            x0 + w <= dims.width() && y0 + h <= dims.height(),
            "sub-lattice {w}x{h}@({x0},{y0}) exceeds {}x{}",
            dims.width(),
            dims.height()
        );
        assert!(
            w > 2 * halo && h > 2 * halo,
            "domain {w}x{h} too small for halo {halo}"
        );
        let pw = w + 2 * halo;
        let ph = h + 2 * halo;
        // Row by row, as up to three slices of the wrapped global row.
        let (gw, gh) = (dims.width() as usize, i64::from(dims.height()));
        let mut cells = Vec::with_capacity(pw as usize * ph as usize);
        for ly in 0..ph {
            let gy = (i64::from(y0) + i64::from(ly) - i64::from(halo)).rem_euclid(gh) as usize;
            let row = &global.cells()[gy * gw..(gy + 1) * gw];
            let (mut gx, mut left) = ((x0 as usize + gw - halo as usize) % gw, pw as usize);
            while left > 0 {
                let n = left.min(gw - gx);
                cells.extend_from_slice(&row[gx..gx + n]);
                (gx, left) = (0, left - n);
            }
        }
        SubLattice {
            lattice: Lattice::from_cells(Dims::new(pw, ph), cells),
            halo,
            origin_x: x0,
            origin_y: y0,
            owned_w: w,
            owned_h: h,
            global: dims,
        }
    }

    /// The padded lattice view (kernels bind to this).
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Mutable padded lattice view.
    pub fn lattice_mut(&mut self) -> &mut Lattice {
        &mut self.lattice
    }

    /// Halo ring width.
    pub fn halo(&self) -> u32 {
        self.halo
    }

    /// Owned rectangle width.
    pub fn owned_w(&self) -> u32 {
        self.owned_w
    }

    /// Owned rectangle height.
    pub fn owned_h(&self) -> u32 {
        self.owned_h
    }

    /// Padded width.
    pub fn padded_w(&self) -> u32 {
        self.owned_w + 2 * self.halo
    }

    /// The local (padded) site at padded coordinates `(lx, ly)`.
    #[inline]
    pub fn local_site(&self, lx: u32, ly: u32) -> Site {
        Site(ly * self.padded_w() + lx)
    }

    /// Is a local site inside the owned rectangle (not halo)?
    #[inline]
    pub fn is_owned(&self, local: Site) -> bool {
        let pw = self.padded_w();
        let lx = local.0 % pw;
        let ly = local.0 / pw;
        lx >= self.halo
            && lx < self.halo + self.owned_w
            && ly >= self.halo
            && ly < self.halo + self.owned_h
    }

    /// Map a local (padded) site to the global site it mirrors.
    #[inline]
    pub fn to_global(&self, local: Site) -> Site {
        let pw = self.padded_w();
        let lx = local.0 % pw;
        let ly = local.0 / pw;
        self.global.site_at(
            self.origin_x as i64 + lx as i64 - self.halo as i64,
            self.origin_y as i64 + ly as i64 - self.halo as i64,
        )
    }

    /// Map a global site to the local *owned* site holding it, if this
    /// sub-lattice owns it.
    #[inline]
    pub fn owned_local(&self, global: Site) -> Option<Site> {
        let gx = global.0 % self.global.width();
        let gy = global.0 / self.global.width();
        let dx = gx.wrapping_sub(self.origin_x);
        let dy = gy.wrapping_sub(self.origin_y);
        if dx < self.owned_w && dy < self.owned_h {
            Some(self.local_site(dx + self.halo, dy + self.halo))
        } else {
            None
        }
    }

    /// Copy the owned rectangle back into the global lattice.
    pub fn gather_into(&self, global: &mut Lattice) {
        assert_eq!(global.dims(), self.global, "gather into foreign lattice");
        let pw = self.padded_w() as usize;
        let gw = self.global.width() as usize;
        for ly in 0..self.owned_h {
            let src = (ly + self.halo) as usize * pw + self.halo as usize;
            let dst = (self.origin_y + ly) as usize * gw + self.origin_x as usize;
            let row = &self.lattice.cells()[src..src + self.owned_w as usize];
            global.cells_mut()[dst..dst + self.owned_w as usize].copy_from_slice(row);
        }
    }

    /// Append the `w × h` local rectangle at `(lx0, ly0)` (padded
    /// coordinates) to `out`, row-major. An empty rectangle appends nothing.
    pub fn pack_rect(&self, lx0: u32, ly0: u32, w: u32, h: u32, out: &mut Vec<u8>) {
        let pw = self.padded_w() as usize;
        debug_assert!(
            lx0 + w <= self.padded_w() && (ly0 + h) * self.padded_w() <= self.lattice.len() as u32
        );
        for ly in ly0..ly0 + h {
            let start = ly as usize * pw + lx0 as usize;
            out.extend_from_slice(&self.lattice.cells()[start..start + w as usize]);
        }
    }

    /// Overwrite the `w × h` local rectangle at `(lx0, ly0)` with `data`
    /// (row-major), appending a `(site, old, new)` record to `changes` for
    /// every cell whose state actually changed.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `w · h` bytes.
    pub fn unpack_rect_diff(
        &mut self,
        lx0: u32,
        ly0: u32,
        w: u32,
        h: u32,
        data: &[u8],
        changes: &mut Vec<Change>,
    ) {
        assert_eq!(data.len(), (w * h) as usize, "halo payload size mismatch");
        let pw = self.padded_w();
        let mut i = 0;
        for ly in ly0..ly0 + h {
            for lx in lx0..lx0 + w {
                let site = Site(ly * pw + lx);
                let new = data[i];
                i += 1;
                let old = self.lattice.get(site);
                if old != new {
                    self.lattice.set(site, new);
                    changes.push((site, old, new));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(dims: Dims) -> Lattice {
        let cells = (0..dims.sites()).map(|i| (i % 7) as u8).collect();
        Lattice::from_cells(dims, cells)
    }

    #[test]
    fn scatter_copies_owned_and_wrapped_halo() {
        let g = numbered(Dims::new(8, 6));
        let sub = SubLattice::scatter(&g, 4, 0, 4, 3, 1);
        // Owned corner (4, 0) global == local (1, 1).
        assert_eq!(
            sub.lattice().get(sub.local_site(1, 1)),
            g.get(g.dims().site_at(4, 0))
        );
        // Halo above the top row wraps to global row 5.
        assert_eq!(
            sub.lattice().get(sub.local_site(1, 0)),
            g.get(g.dims().site_at(4, 5))
        );
        // Halo right of the owned region wraps to global column 0.
        assert_eq!(
            sub.lattice().get(sub.local_site(5, 1)),
            g.get(g.dims().site_at(8, 0))
        );
    }

    #[test]
    fn scatter_matches_per_cell_wrapping() {
        // Rectangles inside the lattice, against its seams, and as wide or
        // tall as the whole lattice (the halo wraps onto the far side).
        let g = numbered(Dims::new(9, 7));
        for (x0, y0, w, h, halo) in [
            (0, 0, 9, 7, 3),
            (2, 1, 5, 3, 1),
            (6, 4, 3, 3, 1),
            (0, 0, 3, 7, 1),
            (4, 2, 5, 5, 2),
            (3, 0, 1, 1, 0),
        ] {
            let sub = SubLattice::scatter(&g, x0, y0, w, h, halo);
            for ly in 0..h + 2 * halo {
                for lx in 0..w + 2 * halo {
                    let gx = i64::from(x0) + i64::from(lx) - i64::from(halo);
                    let gy = i64::from(y0) + i64::from(ly) - i64::from(halo);
                    assert_eq!(
                        sub.lattice().get(sub.local_site(lx, ly)),
                        g.get(g.dims().site_at(gx, gy)),
                        "{w}x{h}@({x0},{y0}) halo {halo}: local ({lx}, {ly})"
                    );
                }
            }
        }
    }

    #[test]
    fn to_global_and_owned_local_roundtrip() {
        let g = numbered(Dims::new(10, 10));
        let sub = SubLattice::scatter(&g, 5, 5, 5, 5, 2);
        for ly in 2..7u32 {
            for lx in 2..7u32 {
                let local = sub.local_site(lx, ly);
                assert!(sub.is_owned(local));
                let global = sub.to_global(local);
                assert_eq!(sub.owned_local(global), Some(local));
                assert_eq!(sub.lattice().get(local), g.get(global));
            }
        }
        // A halo cell maps to a global site this shard does not own.
        let halo_cell = sub.local_site(0, 3);
        assert!(!sub.is_owned(halo_cell));
        assert_eq!(sub.owned_local(sub.to_global(halo_cell)), None);
    }

    #[test]
    fn gather_restores_the_global_lattice() {
        let g = numbered(Dims::new(6, 4));
        let mut out = Lattice::filled(Dims::new(6, 4), 9);
        for (x0, y0) in [(0, 0), (3, 0), (0, 2), (3, 2)] {
            let sub = SubLattice::scatter(&g, x0, y0, 3, 2, 0);
            sub.gather_into(&mut out);
        }
        assert_eq!(out, g);
    }

    #[test]
    fn pack_unpack_reports_diffs_only() {
        let g = numbered(Dims::new(8, 8));
        let a = SubLattice::scatter(&g, 0, 0, 4, 4, 1);
        let mut b = a.clone();
        let mut strip = Vec::new();
        a.pack_rect(1, 1, 4, 1, &mut strip);
        assert_eq!(strip.len(), 4);
        // Identical content: no changes recorded.
        let mut changes = Vec::new();
        b.unpack_rect_diff(1, 1, 4, 1, &strip, &mut changes);
        assert!(changes.is_empty());
        // Mutate one cell; the diff journal pins exactly that cell.
        let site = b.local_site(2, 1);
        let old = b.lattice().get(site);
        b.lattice_mut().set(site, 6);
        let mut changes = Vec::new();
        b.unpack_rect_diff(1, 1, 4, 1, &strip, &mut changes);
        assert_eq!(changes, vec![(site, 6, old)]);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn oversized_halo_rejected() {
        let g = numbered(Dims::new(8, 8));
        SubLattice::scatter(&g, 0, 0, 4, 4, 2);
    }
}
