//! Torus geometry: dimensions, sites, coordinates and offsets.
//!
//! Sites are stored as flat row-major indices ([`Site`]); the conversion to
//! `(x, y)` coordinates and back, and the periodic translation by an
//! [`Offset`], live on [`Dims`]. All reaction-type neighborhoods in the paper
//! are defined by offsets relative to a site (`s + (1,0)` etc.), and the
//! translation-invariance property of §2 is automatic because offsets are
//! applied modulo the lattice dimensions.

/// Lattice dimensions `L0 × L1` (width × height) with periodic wrapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Dims {
    width: u32,
    height: u32,
}

/// A lattice site as a flat row-major index: `index = y * width + x`.
/// Transparent, so a site list is a `u32` list to vector loads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Site(pub u32);

/// Integer coordinates of a site, `x` along `L0`, `y` along `L1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column, in `[0, L0)` after wrapping.
    pub x: i64,
    /// Row, in `[0, L1)` after wrapping.
    pub y: i64,
}

/// A translation-invariant displacement between sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Offset {
    /// Displacement along `x`.
    pub dx: i32,
    /// Displacement along `y`.
    pub dy: i32,
}

impl Offset {
    /// The zero offset (a site relative to itself).
    pub const ZERO: Offset = Offset { dx: 0, dy: 0 };

    /// Construct an offset.
    pub const fn new(dx: i32, dy: i32) -> Self {
        Offset { dx, dy }
    }

    /// Component-wise sum.
    pub fn plus(self, other: Offset) -> Offset {
        Offset::new(self.dx + other.dx, self.dy + other.dy)
    }

    /// The opposite displacement.
    pub fn negated(self) -> Offset {
        Offset::new(-self.dx, -self.dy)
    }

    /// Manhattan (L1) norm — the lattice distance spanned by this offset.
    pub fn l1_norm(self) -> u32 {
        self.dx.unsigned_abs() + self.dy.unsigned_abs()
    }

    /// Chebyshev (L∞) norm.
    pub fn linf_norm(self) -> u32 {
        self.dx.unsigned_abs().max(self.dy.unsigned_abs())
    }

    /// Rotate the offset by 90° counter-clockwise `quarter_turns` times.
    ///
    /// Used to generate the orientation variants of a reaction pattern
    /// (Table I has four rotations of the CO+O pattern).
    pub fn rotated(self, quarter_turns: u32) -> Offset {
        let mut o = self;
        for _ in 0..(quarter_turns % 4) {
            o = Offset::new(-o.dy, o.dx);
        }
        o
    }
}

impl Dims {
    /// Create dimensions `width × height`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the site count overflows `u32`.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(
            width > 0 && height > 0,
            "lattice dimensions must be positive"
        );
        assert!(
            (width as u64) * (height as u64) <= u32::MAX as u64,
            "lattice of {width}x{height} sites exceeds u32 indexing"
        );
        Dims { width, height }
    }

    /// Square lattice `side × side`.
    pub fn square(side: u32) -> Self {
        Dims::new(side, side)
    }

    /// Width `L0`.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height `L1`.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of sites `N = L0 · L1`.
    pub fn sites(&self) -> u32 {
        self.width * self.height
    }

    /// Wrap arbitrary integer coordinates onto the torus and return the site.
    pub fn site_at(&self, x: i64, y: i64) -> Site {
        let w = self.width as i64;
        let h = self.height as i64;
        let x = x.rem_euclid(w) as u32;
        let y = y.rem_euclid(h) as u32;
        Site(y * self.width + x)
    }

    /// Coordinates of a site.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the site is out of range for these dimensions.
    pub fn coord(&self, site: Site) -> Coord {
        debug_assert!(site.0 < self.sites(), "site {} out of range", site.0);
        Coord {
            x: (site.0 % self.width) as i64,
            y: (site.0 / self.width) as i64,
        }
    }

    /// Translate `site` by `offset` with periodic wrapping.
    #[inline]
    pub fn translate(&self, site: Site, offset: Offset) -> Site {
        let c = self.coord(site);
        self.site_at(c.x + offset.dx as i64, c.y + offset.dy as i64)
    }

    /// Iterate over all sites in row-major order.
    pub fn iter_sites(&self) -> impl Iterator<Item = Site> + '_ {
        (0..self.sites()).map(Site)
    }

    /// True if `site` is a valid index for these dimensions.
    pub fn contains(&self, site: Site) -> bool {
        site.0 < self.sites()
    }

    /// The periodic (toroidal) L1 distance between two sites.
    pub fn torus_l1_distance(&self, a: Site, b: Site) -> u32 {
        let ca = self.coord(a);
        let cb = self.coord(b);
        let w = self.width as i64;
        let h = self.height as i64;
        let dx = (ca.x - cb.x).rem_euclid(w);
        let dy = (ca.y - cb.y).rem_euclid(h);
        let dx = dx.min(w - dx) as u32;
        let dy = dy.min(h - dy) as u32;
        dx + dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_coord_roundtrip() {
        let d = Dims::new(7, 5);
        for s in d.iter_sites() {
            let c = d.coord(s);
            assert_eq!(d.site_at(c.x, c.y), s);
        }
    }

    #[test]
    fn wrapping_is_periodic() {
        let d = Dims::new(10, 10);
        assert_eq!(d.site_at(-1, 0), d.site_at(9, 0));
        assert_eq!(d.site_at(10, 3), d.site_at(0, 3));
        assert_eq!(d.site_at(0, -1), d.site_at(0, 9));
        assert_eq!(d.site_at(25, 31), d.site_at(5, 1));
    }

    #[test]
    fn translate_is_invertible() {
        let d = Dims::new(8, 6);
        let o = Offset::new(3, -2);
        for s in d.iter_sites() {
            assert_eq!(d.translate(d.translate(s, o), o.negated()), s);
        }
    }

    #[test]
    fn translation_invariance() {
        // Nb(s + t) = Nb(s) + t for any offset, paper §2 property 2.
        let d = Dims::new(9, 9);
        let nb = [Offset::new(1, 0), Offset::new(0, 1), Offset::new(-1, 0)];
        let s = d.site_at(2, 3);
        let t = Offset::new(4, 5);
        let st = d.translate(s, t);
        for o in nb {
            assert_eq!(d.translate(st, o), d.translate(d.translate(s, o), t));
        }
    }

    #[test]
    fn offset_rotation_cycles() {
        let o = Offset::new(1, 0);
        assert_eq!(o.rotated(1), Offset::new(0, 1));
        assert_eq!(o.rotated(2), Offset::new(-1, 0));
        assert_eq!(o.rotated(3), Offset::new(0, -1));
        assert_eq!(o.rotated(4), o);
    }

    #[test]
    fn offset_norms() {
        let o = Offset::new(-3, 2);
        assert_eq!(o.l1_norm(), 5);
        assert_eq!(o.linf_norm(), 3);
        assert_eq!(Offset::ZERO.l1_norm(), 0);
    }

    #[test]
    fn torus_distance_wraps_around() {
        let d = Dims::new(10, 10);
        let a = d.site_at(0, 0);
        let b = d.site_at(9, 0);
        assert_eq!(d.torus_l1_distance(a, b), 1);
        let c = d.site_at(5, 5);
        assert_eq!(d.torus_l1_distance(a, c), 10);
        assert_eq!(d.torus_l1_distance(a, a), 0);
    }

    #[test]
    fn torus_distance_symmetric() {
        let d = Dims::new(7, 11);
        let a = d.site_at(1, 2);
        let b = d.site_at(6, 9);
        assert_eq!(d.torus_l1_distance(a, b), d.torus_l1_distance(b, a));
    }

    #[test]
    fn rectangular_dims() {
        let d = Dims::new(4, 3);
        assert_eq!(d.sites(), 12);
        assert_eq!(d.width(), 4);
        assert_eq!(d.height(), 3);
        assert_eq!(d.iter_sites().count(), 12);
        assert!(d.contains(Site(11)));
        assert!(!d.contains(Site(12)));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_panics() {
        Dims::new(0, 5);
    }

    #[test]
    fn offset_plus() {
        assert_eq!(
            Offset::new(1, 2).plus(Offset::new(-3, 4)),
            Offset::new(-2, 6)
        );
    }
}
