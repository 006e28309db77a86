//! Strength-reduced torus translation via precomputed wrap tables.
//!
//! [`Dims::translate`](crate::geometry::Dims::translate) pays three integer
//! divisions per call (one to split the flat site index into coordinates,
//! two `rem_euclid` to wrap them). Pattern matching and neighbor
//! addressing perform millions of translations with *small* offsets, for
//! which the wrapped coordinate can be read from a table instead: for every
//! raw coordinate `x + dx` with `|dx| ≤ radius` the wrapped column is
//! `x_wrap[x + dx + radius]`, and likewise for rows — with the row table
//! pre-multiplied by the lattice width so the translated site index is a
//! plain sum of two table loads.
//!
//! Offsets beyond the table radius fall back to the exact `Dims` arithmetic,
//! so a [`WrapTables`] is correct for *any* offset and merely fastest for
//! the common small ones.
//!
//! A [`Stencil`] addresses one fixed list of offsets without any per-site
//! table: a site at least the stencil's reach from every edge reaches
//! `site + offset` by one add of the precomputed `dy·w + dx`; only the
//! edge band goes through wrap tables built with that reach.

use crate::geometry::{Dims, Offset, Site};
use std::ops::Range;

/// Precomputed wrapped row/column lookup tables for one lattice geometry.
#[derive(Clone, Debug)]
pub struct WrapTables {
    dims: Dims,
    radius: i32,
    /// `x_wrap[x + radius + dx]` = wrapped column of `x + dx`, for
    /// `x ∈ [0, w)` and `|dx| ≤ radius`.
    x_wrap: Vec<u32>,
    /// `y_wrap[y + radius + dy]` = wrapped row of `y + dy`, **pre-multiplied
    /// by the width** so it is directly the row base of the flat index.
    y_wrap: Vec<u32>,
}

impl WrapTables {
    /// Build tables covering displacements up to `radius` per axis.
    pub fn new(dims: Dims, radius: u32) -> Self {
        let w = dims.width();
        let h = dims.height();
        let r = radius as i64;
        let x_wrap = (-r..w as i64 + r)
            .map(|x| x.rem_euclid(w as i64) as u32)
            .collect();
        let y_wrap = (-r..h as i64 + r)
            .map(|y| y.rem_euclid(h as i64) as u32 * w)
            .collect();
        WrapTables {
            dims,
            radius: radius as i32,
            x_wrap,
            y_wrap,
        }
    }

    /// The geometry the tables were built for.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Largest per-axis displacement served from the tables.
    pub fn radius(&self) -> u32 {
        self.radius as u32
    }

    /// True if `offset` is within the table radius on both axes.
    #[inline]
    pub fn covers(&self, offset: Offset) -> bool {
        offset.dx.abs() <= self.radius && offset.dy.abs() <= self.radius
    }

    /// Translate wrapped coordinates `(x, y)` by `offset` (must be covered).
    ///
    /// No division: two table loads and an add. Callers that sweep the
    /// lattice row-major can carry `(x, y)` along and skip the index split
    /// entirely.
    #[inline]
    pub fn translate_xy(&self, x: u32, y: u32, offset: Offset) -> Site {
        debug_assert!(self.covers(offset), "offset {offset:?} outside tables");
        let col = self.x_wrap[(x as i32 + self.radius + offset.dx) as usize];
        let row = self.y_wrap[(y as i32 + self.radius + offset.dy) as usize];
        Site(row + col)
    }

    /// Translate `site` by `offset` with periodic wrapping.
    ///
    /// One division (splitting the flat index) instead of three; offsets
    /// outside the table radius take the exact [`Dims::translate`] path.
    #[inline]
    pub fn translate(&self, site: Site, offset: Offset) -> Site {
        if !self.covers(offset) {
            return self.dims.translate(site, offset);
        }
        let w = self.dims.width();
        self.translate_xy(site.0 % w, site.0 / w, offset)
    }
}

/// A site and its coordinates, located once for any number of
/// [`Stencil::at`] lookups.
#[derive(Clone, Copy, Debug)]
pub struct Locus {
    site: u32,
    x: u32,
    y: u32,
    /// At least the stencil's reach from every edge: every offset is one add.
    interior: bool,
}

impl Locus {
    /// The located site.
    #[inline]
    pub fn site(self) -> Site {
        Site(self.site)
    }

    /// True when the site is at least the stencil's reach from every edge:
    /// no offset wraps, so `site + offset` orders like the offset itself.
    #[inline]
    pub fn is_interior(self) -> bool {
        self.interior
    }
}

/// Table-free addressing of `site + offsets[j]` for one list of offsets on
/// one geometry (see the module docs).
#[derive(Clone, Debug)]
pub struct Stencil {
    offsets: Vec<Offset>,
    /// `dy·w + dx` per offset, as a wrapping `u32` add: exact for an
    /// interior site.
    flat: Vec<u32>,
    reach: u32,
    width: u32,
    /// Interior extent per axis: `width − 2·reach` and `height − 2·reach`,
    /// 0 when no site is interior.
    inner: (u32, u32),
    /// `u64::MAX / width`: `y = ⌊recip · (site + 1) / 2⁶⁴⌋` for every site
    /// of a `u32`-indexed lattice (a multiply-high instead of a division).
    recip: u64,
    /// Wrap tables with radius `reach`, for the edge band.
    wrap: WrapTables,
}

impl Stencil {
    /// Address `offsets` (in this order) on `dims`.
    pub fn new(dims: Dims, offsets: &[Offset]) -> Self {
        let reach = offsets.iter().map(|o| o.linf_norm()).max().unwrap_or(0);
        let (w, h) = (dims.width(), dims.height());
        let flat = offsets
            .iter()
            .map(|o| (i64::from(o.dy) * i64::from(w) + i64::from(o.dx)) as u32)
            .collect();
        let inner = |side: u32| u64::from(side).saturating_sub(2 * u64::from(reach)) as u32;
        Stencil {
            offsets: offsets.to_vec(),
            flat,
            reach,
            width: w,
            inner: (inner(w), inner(h)),
            recip: u64::MAX / u64::from(w),
            wrap: WrapTables::new(dims, reach),
        }
    }

    /// The geometry addressed.
    pub fn dims(&self) -> Dims {
        self.wrap.dims()
    }

    /// Locate a site from its coordinates (no division: row sweeps carry
    /// `(x, y)` along).
    #[inline]
    pub fn locate_xy(&self, x: u32, y: u32) -> Locus {
        let interior =
            x.wrapping_sub(self.reach) < self.inner.0 && y.wrapping_sub(self.reach) < self.inner.1;
        Locus {
            site: y * self.width + x,
            x,
            y,
            interior,
        }
    }

    /// Locate a site: its row by one multiply-high.
    #[inline]
    pub fn locate(&self, site: Site) -> Locus {
        let y = ((u128::from(self.recip) * (u128::from(site.0) + 1)) >> 64) as u32;
        self.locate_xy(site.0 - y * self.width, y)
    }

    /// `locus + offsets[j]`, wrapped onto the torus.
    #[inline]
    pub fn at(&self, locus: Locus, j: usize) -> Site {
        if locus.interior {
            Site(locus.site.wrapping_add(self.flat[j]))
        } else {
            self.at_edge(locus, j)
        }
    }

    /// [`at`](Self::at) in the edge band, kept out of line so that callers
    /// inline only the one-add interior path.
    #[cold]
    #[inline(never)]
    fn at_edge(&self, locus: Locus, j: usize) -> Site {
        self.wrap.translate_xy(locus.x, locus.y, self.offsets[j])
    }

    /// `site + offsets[j]`, wrapped onto the torus.
    #[inline]
    pub fn neighbor(&self, site: Site, j: usize) -> Site {
        self.at(self.locate(site), j)
    }

    /// Every site, row-major, located without a division.
    pub fn loci(&self) -> impl Iterator<Item = Locus> + '_ {
        let dims = self.dims();
        (0..dims.height()).flat_map(move |y| (0..dims.width()).map(move |x| self.locate_xy(x, y)))
    }

    /// The translation by `offsets[j]` of every site, as runs of
    /// consecutive sites: each `(sites, to)` sends `sites` to
    /// `to..to + sites.len()`, in order. Row-major, at most two runs per row
    /// (the row's cells shifted by `dx`, split where they wrap), so a sweep
    /// over all sites can work on contiguous slices.
    pub fn runs(&self, j: usize) -> impl Iterator<Item = (Range<usize>, usize)> {
        let (w, h) = (i64::from(self.width), i64::from(self.dims().height()));
        let o = self.offsets[j];
        let dx = i64::from(o.dx).rem_euclid(w) as usize;
        let dy = i64::from(o.dy);
        let w = w as usize;
        (0..h).flat_map(move |y| {
            let (row, to) = (y as usize * w, (y + dy).rem_euclid(h) as usize * w);
            [(row..row + w - dx, to + dx), (row + w - dx..row + w, to)]
                .into_iter()
                .filter(|(sites, _)| !sites.is_empty())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_dims_translate_inside_radius() {
        let dims = Dims::new(7, 5);
        let wrap = WrapTables::new(dims, 3);
        for site in dims.iter_sites() {
            for dx in -3..=3 {
                for dy in -3..=3 {
                    let o = Offset::new(dx, dy);
                    assert_eq!(
                        wrap.translate(site, o),
                        dims.translate(site, o),
                        "site {site:?} offset {o:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn falls_back_beyond_radius() {
        let dims = Dims::new(9, 4);
        let wrap = WrapTables::new(dims, 2);
        let big = Offset::new(-13, 7);
        assert!(!wrap.covers(big));
        for site in dims.iter_sites() {
            assert_eq!(wrap.translate(site, big), dims.translate(site, big));
        }
    }

    #[test]
    fn translate_xy_matches_translate() {
        let dims = Dims::new(6, 6);
        let wrap = WrapTables::new(dims, 2);
        for y in 0..6 {
            for x in 0..6 {
                let site = dims.site_at(x as i64, y as i64);
                let o = Offset::new(-2, 1);
                assert_eq!(wrap.translate_xy(x, y, o), dims.translate(site, o));
            }
        }
    }

    #[test]
    fn stencil_agrees_with_dims_translate_on_every_geometry() {
        // Sides below, at and beyond 2·reach + 1, so some lattices have no
        // interior sites and others have both kinds.
        let offsets = [
            Offset::new(0, 0),
            Offset::new(1, 0),
            Offset::new(-2, 1),
            Offset::new(0, -2),
            Offset::new(2, 2),
        ];
        for (w, h) in [
            (1, 1),
            (1, 9),
            (9, 1),
            (2, 3),
            (4, 5),
            (5, 5),
            (6, 7),
            (13, 8),
        ] {
            let dims = Dims::new(w, h);
            let stencil = Stencil::new(dims, &offsets);
            assert_eq!(stencil.reach, 2);
            let loci: Vec<Locus> = stencil.loci().collect();
            assert_eq!(loci.len(), dims.sites() as usize);
            for (site, row_major) in dims.iter_sites().zip(loci) {
                assert_eq!(row_major.site(), site);
                let located = stencil.locate(site);
                for (j, &o) in offsets.iter().enumerate() {
                    let want = dims.translate(site, o);
                    assert_eq!(stencil.at(row_major, j), want, "{w}x{h} {site:?} {o:?}");
                    assert_eq!(stencil.at(located, j), want, "{w}x{h} {site:?} {o:?}");
                    assert_eq!(stencil.neighbor(site, j), want);
                }
            }
            for (j, &o) in offsets.iter().enumerate() {
                let mut covered = 0;
                for (sites, to) in stencil.runs(j) {
                    assert_eq!(sites.start, covered, "runs are row-major and gapless");
                    covered = sites.end;
                    for (k, site) in sites.enumerate() {
                        let want = dims.translate(Site(site as u32), o);
                        assert_eq!(to + k, want.0 as usize, "{w}x{h} run of {o:?}");
                    }
                }
                assert_eq!(covered, dims.sites() as usize);
            }
        }
    }

    #[test]
    fn stencil_locates_rows_exactly_on_wide_lattices() {
        // The multiply-high row split against a division, where the site
        // index nears 2³² and for power-of-two and odd widths.
        for (w, h) in [
            (1, 1 << 20),
            (2, 1 << 20),
            (65_536, 65_535),
            (65_537, 65_535),
        ] {
            let dims = Dims::new(w, h);
            let stencil = Stencil::new(dims, &[Offset::ZERO]);
            let n = u64::from(dims.sites());
            let probes = (0..4096u64)
                .chain((n - 4096)..n)
                .chain((1..=64).map(|k| k * n / 65 + k));
            for s in probes {
                let site = Site(s as u32);
                let locus = stencil.locate(site);
                assert_eq!((locus.x, locus.y), (site.0 % w, site.0 / w), "{w}x{h} {s}");
            }
        }
    }

    #[test]
    fn tables_handle_lattices_smaller_than_radius() {
        // 2-wide torus with radius 4: +1 and -1 alias to the same column.
        let dims = Dims::new(2, 2);
        let wrap = WrapTables::new(dims, 4);
        for site in dims.iter_sites() {
            for dx in -4..=4 {
                for dy in -4..=4 {
                    let o = Offset::new(dx, dy);
                    assert_eq!(wrap.translate(site, o), dims.translate(site, o));
                }
            }
        }
    }
}
