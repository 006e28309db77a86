//! Partitions: chunks of mutually conflict-free sites (paper §5).
//!
//! A partition `P` is a collection of disjoint chunks `P_i` covering the
//! lattice. The restriction that makes chunks parallelisable:
//!
//! > for all `s, t ∈ P_i`, `s ≠ t`, and all reaction types `Rt, Rt'`:
//! > `Nb_Rt(s) ∩ Nb_Rt'(t) = ∅`
//!
//! i.e. reactions anchored at two different sites of the same chunk can
//! never touch a common lattice site.

use psr_lattice::{Dims, Site};
use psr_model::Model;

/// A partition of the lattice sites into chunks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    dims: Dims,
    chunks: Vec<Vec<Site>>,
    /// chunk index per site.
    chunk_of: Vec<u32>,
}

impl Partition {
    /// Build a partition from explicit chunks.
    ///
    /// # Panics
    ///
    /// Panics where [`try_new`](Self::try_new) errs.
    pub fn new(dims: Dims, chunks: Vec<Vec<Site>>) -> Self {
        Self::try_new(dims, chunks).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) for chunks that arrive from outside the program.
    ///
    /// # Errors
    ///
    /// The chunks are not non-empty, disjoint, and covering every site of
    /// `dims` exactly once.
    pub fn try_new(dims: Dims, chunks: Vec<Vec<Site>>) -> Result<Self, String> {
        let n = dims.sites() as usize;
        let mut chunk_of = vec![u32::MAX; n];
        for (ci, chunk) in chunks.iter().enumerate() {
            if chunk.is_empty() {
                return Err(format!("chunk {ci} is empty"));
            }
            for &site in chunk {
                if !dims.contains(site) {
                    return Err(format!("site {} out of range", site.0));
                }
                if chunk_of[site.0 as usize] != u32::MAX {
                    return Err(format!("site {} appears in two chunks", site.0));
                }
                chunk_of[site.0 as usize] = ci as u32;
            }
        }
        if chunk_of.contains(&u32::MAX) {
            return Err("partition does not cover the lattice".into());
        }
        Ok(Partition {
            dims,
            chunks,
            chunk_of,
        })
    }

    /// Build from a per-site chunk label array (labels `0..m` dense).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != dims.sites()` or labels are not dense.
    pub fn from_labels(dims: Dims, labels: &[u32]) -> Self {
        assert_eq!(labels.len(), dims.sites() as usize, "label count mismatch");
        let m = *labels.iter().max().expect("non-empty") as usize + 1;
        let mut chunks = vec![Vec::new(); m];
        for (i, &l) in labels.iter().enumerate() {
            chunks[l as usize].push(Site(i as u32));
        }
        Partition::new(dims, chunks)
    }

    /// Lattice dimensions.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Number of chunks `m = |P|`.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The sites of chunk `i`.
    pub fn chunk(&self, i: usize) -> &[Site] {
        &self.chunks[i]
    }

    /// All chunks.
    pub fn chunks(&self) -> &[Vec<Site>] {
        &self.chunks
    }

    /// The chunk index a site belongs to.
    pub fn chunk_of(&self, site: Site) -> usize {
        self.chunk_of[site.0 as usize] as usize
    }

    /// The chunk index of every site, by flat site id.
    pub fn chunk_labels(&self) -> &[u32] {
        &self.chunk_of
    }

    /// Total number of sites.
    pub fn num_sites(&self) -> usize {
        self.chunk_of.len()
    }

    /// Size of the largest chunk (bounds per-step parallel work).
    pub fn max_chunk_size(&self) -> usize {
        self.chunks.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Verify the paper's non-overlap restriction for `model`.
    ///
    /// Returns the first violating pair `(s, t)` found, or `None` when the
    /// partition is conflict-free. Cost: O(N · |Nb|²) using a site-marking
    /// sweep per chunk.
    pub fn find_conflict(&self, model: &Model) -> Option<(Site, Site)> {
        // Union of all reaction neighborhoods; two same-chunk sites conflict
        // iff their combined neighborhoods intersect. A per-site (owner,
        // chunk-stamp) pair avoids clearing the scratch array per chunk.
        let nb = model.combined_neighborhood();
        let mut owner: Vec<u32> = vec![u32::MAX; self.num_sites()];
        let mut stamp: Vec<u32> = vec![u32::MAX; self.num_sites()];
        for (ci, chunk) in self.chunks.iter().enumerate() {
            for &site in chunk {
                for covered in nb.sites_at(self.dims, site) {
                    let idx = covered.0 as usize;
                    if stamp[idx] == ci as u32 && owner[idx] != site.0 {
                        return Some((Site(owner[idx]), site));
                    }
                    stamp[idx] = ci as u32;
                    owner[idx] = site.0;
                }
            }
        }
        None
    }

    /// True if the non-overlap restriction holds for `model`.
    pub fn is_valid_for(&self, model: &Model) -> bool {
        self.find_conflict(model).is_none()
    }

    /// Validate against a *single* reaction type's neighborhood (the weaker
    /// requirement of the Ω×T approach, §5: non-overlap only within the
    /// selected `T_j`).
    pub fn is_valid_for_reaction(&self, model: &Model, reaction: usize) -> bool {
        let nb = model.reaction(reaction).neighborhood();
        let mut owner: Vec<u32> = vec![u32::MAX; self.num_sites()];
        let mut stamp: Vec<u32> = vec![u32::MAX; self.num_sites()];
        for (ci, chunk) in self.chunks.iter().enumerate() {
            for &site in chunk {
                for covered in nb.sites_at(self.dims, site) {
                    let idx = covered.0 as usize;
                    if stamp[idx] == ci as u32 && owner[idx] != site.0 {
                        return false;
                    }
                    stamp[idx] = ci as u32;
                    owner[idx] = site.0;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_model::library::zgb::zgb_ziff;

    fn row_partition(dims: Dims) -> Partition {
        // One chunk per row — NOT conflict-free for pair reactions within a
        // row, but a valid cover.
        let labels: Vec<u32> = (0..dims.sites()).map(|i| i / dims.width()).collect();
        Partition::from_labels(dims, &labels)
    }

    #[test]
    fn from_labels_builds_cover() {
        let d = Dims::new(4, 3);
        let p = row_partition(d);
        assert_eq!(p.num_chunks(), 3);
        assert_eq!(p.chunk(0).len(), 4);
        assert_eq!(p.chunk_of(Site(5)), 1);
        assert_eq!(p.max_chunk_size(), 4);
        assert_eq!(p.num_sites(), 12);
    }

    #[test]
    fn row_partition_conflicts_for_zgb() {
        let model = zgb_ziff(0.5, 1.0);
        let p = row_partition(Dims::new(10, 10));
        assert!(!p.is_valid_for(&model));
        let (a, b) = p.find_conflict(&model).expect("conflict exists");
        assert_eq!(p.chunk_of(a), p.chunk_of(b));
    }

    #[test]
    fn singleton_chunks_always_valid() {
        let model = zgb_ziff(0.5, 1.0);
        let d = Dims::new(5, 5);
        let labels: Vec<u32> = (0..25).collect();
        let p = Partition::from_labels(d, &labels);
        assert_eq!(p.num_chunks(), 25);
        assert!(p.is_valid_for(&model));
    }

    #[test]
    #[should_panic(expected = "two chunks")]
    fn overlapping_chunks_panic() {
        let d = Dims::new(2, 1);
        Partition::new(d, vec![vec![Site(0), Site(1)], vec![Site(1)]]);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn incomplete_cover_panics() {
        let d = Dims::new(2, 1);
        Partition::new(d, vec![vec![Site(0)]]);
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn empty_chunk_panics() {
        let d = Dims::new(1, 1);
        Partition::new(d, vec![vec![Site(0)], vec![]]);
    }

    #[test]
    fn per_reaction_validity_is_weaker() {
        // Checkerboard is invalid for the full ZGB neighborhood but valid
        // for each *individual* horizontal pair reaction.
        let model = zgb_ziff(0.5, 1.0);
        let d = Dims::new(6, 6);
        let labels: Vec<u32> = (0..d.sites())
            .map(|i| {
                let x = i % d.width();
                let y = i / d.width();
                (x + y) % 2
            })
            .collect();
        let p = Partition::from_labels(d, &labels);
        assert!(!p.is_valid_for(&model));
        let h_pair = model.reaction_index("RtO2[0]").expect("exists");
        assert!(p.is_valid_for_reaction(&model, h_pair));
        let single = model.reaction_index("RtCO").expect("exists");
        assert!(p.is_valid_for_reaction(&model, single));
    }
}
