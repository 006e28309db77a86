//! The configuration `S : Ω → D` as a flat array of state ids.

use crate::geometry::{Dims, Offset, Site};
use crate::wrap::WrapTables;

/// A state id — an element of the domain `D` (paper §2).
///
/// The mapping between ids and chemical species (`*`, `CO`, `O`, …) is owned
/// by `psr-model`; the lattice only stores the ids. `u8` keeps a 1000×1000
/// lattice at 1 MB, which fits in L2 on most machines.
pub type State = u8;

/// A `(site, old_state, new_state)` mutation record: what simulators
/// journal as they write, and what the kernel folds back in.
pub type Change = (Site, State, State);

/// Per-axis displacement served by every lattice's built-in wrap tables
/// without falling back to division (larger offsets remain correct via
/// [`Dims::translate`]). Covers every pattern in the model library.
const WRAP_RADIUS: u32 = 4;

/// A complete assignment of states to sites.
///
/// Equality and hashing consider only the geometry and the cell states; the
/// precomputed wrap tables are derived data.
#[derive(Clone, Debug)]
pub struct Lattice {
    dims: Dims,
    cells: Vec<State>,
    /// Strength-reduced torus translation (see [`WrapTables`]); derived
    /// from `dims`, rebuilt on construction, excluded from comparisons.
    wrap: WrapTables,
}

impl PartialEq for Lattice {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims && self.cells == other.cells
    }
}

impl Eq for Lattice {}

impl Lattice {
    /// Create a lattice with every site in state `fill`.
    pub fn filled(dims: Dims, fill: State) -> Self {
        Lattice {
            dims,
            cells: vec![fill; dims.sites() as usize],
            wrap: WrapTables::new(dims, WRAP_RADIUS),
        }
    }

    /// Create a lattice from an explicit cell vector (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `cells.len() != dims.sites()`.
    pub fn from_cells(dims: Dims, cells: Vec<State>) -> Self {
        assert_eq!(
            cells.len(),
            dims.sites() as usize,
            "cell vector length does not match dimensions"
        );
        Lattice {
            dims,
            cells,
            wrap: WrapTables::new(dims, WRAP_RADIUS),
        }
    }

    /// Lattice dimensions.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Number of sites `N`.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always false: lattices have at least one site.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// State of a site.
    #[inline]
    pub fn get(&self, site: Site) -> State {
        self.cells[site.0 as usize]
    }

    /// Set the state of a site, returning the previous state.
    #[inline]
    pub fn set(&mut self, site: Site, state: State) -> State {
        std::mem::replace(&mut self.cells[site.0 as usize], state)
    }

    /// State at `site + offset` (periodic), served from the wrap tables.
    #[inline]
    pub fn get_rel(&self, site: Site, offset: Offset) -> State {
        self.get(self.wrap.translate(site, offset))
    }

    /// Translate `site` by `offset` using the precomputed wrap tables (one
    /// division instead of the three in [`Dims::translate`]; exact for any
    /// offset, fastest for `|d| ≤ 4` per axis).
    #[inline]
    pub fn translate(&self, site: Site, offset: Offset) -> Site {
        self.wrap.translate(site, offset)
    }

    /// The lattice's precomputed wrap tables (the batched engine addresses
    /// its neighbors through them).
    pub fn wrap_tables(&self) -> &WrapTables {
        &self.wrap
    }

    /// Raw row-major cell slice.
    pub fn cells(&self) -> &[State] {
        &self.cells
    }

    /// Mutable raw cell slice (used by the parallel executor).
    pub fn cells_mut(&mut self) -> &mut [State] {
        &mut self.cells
    }

    /// Count sites currently in `state`.
    pub fn count(&self, state: State) -> usize {
        self.cells.iter().filter(|&&c| c == state).count()
    }

    /// Fraction of sites in `state` (the paper's "coverage").
    pub fn fraction(&self, state: State) -> f64 {
        self.count(state) as f64 / self.len() as f64
    }

    /// Counts for every state id up to `num_states`.
    pub fn histogram(&self, num_states: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_states];
        self.histogram_into(&mut counts);
        counts
    }

    /// Count every state id into a caller-provided buffer (zeroed first) —
    /// the allocation-free variant of [`histogram`](Self::histogram) for
    /// observers called once per sample.
    ///
    /// # Panics
    ///
    /// Panics if a cell holds a state id `>= counts.len()`.
    pub fn histogram_into(&self, counts: &mut [usize]) {
        counts.fill(0);
        let num_states = counts.len();
        for &c in &self.cells {
            let idx = c as usize;
            assert!(
                idx < num_states,
                "state id {idx} out of range (< {num_states})"
            );
            counts[idx] += 1;
        }
    }

    /// Iterate `(site, state)` pairs in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Site, State)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, &s)| (Site(i as u32), s))
    }

    /// Sites currently in `state` (allocating; see
    /// [`iter_sites_in_state`](Self::iter_sites_in_state) for the lazy
    /// variant observers should prefer).
    pub fn sites_in_state(&self, state: State) -> Vec<Site> {
        self.iter_sites_in_state(state).collect()
    }

    /// Iterate the sites currently in `state`, row-major, without
    /// materialising a vector.
    pub fn iter_sites_in_state(&self, state: State) -> impl Iterator<Item = Site> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(move |&(_, &s)| s == state)
            .map(|(i, _)| Site(i as u32))
    }

    /// Overwrite every site with `state`.
    pub fn fill(&mut self, state: State) {
        self.cells.fill(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_lattice_is_uniform() {
        let l = Lattice::filled(Dims::new(4, 4), 2);
        assert_eq!(l.count(2), 16);
        assert_eq!(l.count(0), 0);
        assert_eq!(l.fraction(2), 1.0);
    }

    #[test]
    fn set_returns_previous() {
        let mut l = Lattice::filled(Dims::new(3, 3), 0);
        let s = Site(4);
        assert_eq!(l.set(s, 7), 0);
        assert_eq!(l.set(s, 1), 7);
        assert_eq!(l.get(s), 1);
    }

    #[test]
    fn get_rel_wraps() {
        let d = Dims::new(3, 3);
        let mut l = Lattice::filled(d, 0);
        l.set(d.site_at(0, 0), 5);
        assert_eq!(l.get_rel(d.site_at(2, 0), Offset::new(1, 0)), 5);
        assert_eq!(l.get_rel(d.site_at(0, 2), Offset::new(0, 1)), 5);
    }

    #[test]
    fn histogram_counts_everything() {
        let d = Dims::new(2, 2);
        let l = Lattice::from_cells(d, vec![0, 1, 1, 2]);
        assert_eq!(l.histogram(3), vec![1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn histogram_rejects_out_of_range_state() {
        let d = Dims::new(2, 1);
        let l = Lattice::from_cells(d, vec![0, 5]);
        l.histogram(3);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_cells_length_mismatch_panics() {
        Lattice::from_cells(Dims::new(2, 2), vec![0; 3]);
    }

    #[test]
    fn sites_in_state_finds_all() {
        let d = Dims::new(3, 1);
        let l = Lattice::from_cells(d, vec![1, 0, 1]);
        assert_eq!(l.sites_in_state(1), vec![Site(0), Site(2)]);
        assert_eq!(l.sites_in_state(0), vec![Site(1)]);
        assert!(l.sites_in_state(9).is_empty());
    }

    #[test]
    fn fill_overwrites() {
        let mut l = Lattice::from_cells(Dims::new(2, 1), vec![1, 2]);
        l.fill(3);
        assert_eq!(l.count(3), 2);
    }

    #[test]
    fn iter_sites_in_state_matches_vec_variant() {
        let d = Dims::new(4, 2);
        let l = Lattice::from_cells(d, vec![1, 0, 1, 2, 1, 0, 0, 1]);
        for state in 0..3 {
            assert_eq!(
                l.iter_sites_in_state(state).collect::<Vec<_>>(),
                l.sites_in_state(state)
            );
        }
    }

    #[test]
    fn histogram_into_reuses_buffer() {
        let d = Dims::new(2, 2);
        let l = Lattice::from_cells(d, vec![0, 1, 1, 2]);
        let mut buf = vec![9usize; 3];
        l.histogram_into(&mut buf);
        assert_eq!(buf, vec![1, 2, 1]);
    }

    #[test]
    fn lattice_translate_matches_dims_translate() {
        let d = Dims::new(5, 3);
        let l = Lattice::filled(d, 0);
        for s in d.iter_sites() {
            for o in [
                Offset::ZERO,
                Offset::new(1, 0),
                Offset::new(-4, 4),
                Offset::new(7, -9), // beyond the wrap-table radius
            ] {
                assert_eq!(l.translate(s, o), d.translate(s, o));
            }
        }
    }

    #[test]
    fn equality_ignores_wrap_tables() {
        let d = Dims::new(3, 3);
        assert_eq!(Lattice::filled(d, 1), Lattice::from_cells(d, vec![1; 9]));
        assert_ne!(Lattice::filled(d, 1), Lattice::filled(d, 0));
        assert_ne!(
            Lattice::filled(Dims::new(9, 1), 1),
            Lattice::filled(Dims::new(1, 9), 1)
        );
    }

    #[test]
    fn iter_visits_in_row_major_order() {
        let d = Dims::new(2, 2);
        let l = Lattice::from_cells(d, vec![9, 8, 7, 6]);
        let collected: Vec<(u32, State)> = l.iter().map(|(s, v)| (s.0, v)).collect();
        assert_eq!(collected, vec![(0, 9), (1, 8), (2, 7), (3, 6)]);
    }
}
