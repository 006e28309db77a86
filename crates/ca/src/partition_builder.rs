//! Partition constructions (paper §5).
//!
//! - [`five_coloring`] — the optimal 5-chunk partition for von Neumann
//!   neighborhoods (Fig 4). The color classes `(x + 2y) mod 5` form perfect
//!   Lee codes: the radius-1 L1 balls of one class tile the plane, so the
//!   closed neighborhoods of same-chunk sites are disjoint — exactly the
//!   non-overlap restriction, with the minimum possible number of chunks.
//! - [`greedy_coloring`] — conflict-graph greedy coloring for *any* model:
//!   two sites conflict when their combined neighborhoods overlap (valid,
//!   not minimal: 9 chunks for von Neumann models).
//! - [`checkerboard`] — the 2-chunk partition used by the Ω×T approach
//!   (Fig 6).
//! - [`single_chunk`] / [`singleton_chunks`] — the degenerate `m = 1` and
//!   `m = N` partitions; with them L-PNDCA reduces to (biased) NDCA and to
//!   RSM respectively (Fig 8).

use crate::partition::Partition;
use psr_lattice::{Dims, Stencil};
use psr_model::Model;

/// The 5-chunk von Neumann partition of Fig 4: chunk of `(x, y)` is
/// `(x + 2y) mod 5`.
///
/// # Panics
///
/// Panics unless both lattice dimensions are multiples of 5 (otherwise the
/// coloring does not wrap consistently on the torus).
pub fn five_coloring(dims: Dims) -> Partition {
    assert!(
        dims.width().is_multiple_of(5) && dims.height().is_multiple_of(5),
        "the 5-coloring needs dimensions divisible by 5, got {}x{}",
        dims.width(),
        dims.height()
    );
    let labels: Vec<u32> = (0..dims.sites())
        .map(|i| {
            let x = i % dims.width();
            let y = i / dims.width();
            (x + 2 * y) % 5
        })
        .collect();
    Partition::from_labels(dims, &labels)
}

/// A second, independent 5-chunk von Neumann partition: `(2x + y) mod 5`.
///
/// Same-chunk sites again sit at torus L1 distance >= 3 (the minimal
/// solutions of `2*dx + dy == 0 (mod 5)` are `(1,3)`-type and `(2,1)`-type
/// vectors), so the partition is conflict-free for radius-1 models like
/// [`five_coloring`] -- but its chunk boundaries fall elsewhere. PNDCA's
/// "choose a partition P" step (§5) can alternate between the two to decay
/// chunk-boundary correlations.
///
/// # Panics
///
/// Panics unless both dimensions are multiples of 5.
pub fn five_coloring_alt(dims: Dims) -> Partition {
    assert!(
        dims.width().is_multiple_of(5) && dims.height().is_multiple_of(5),
        "the 5-coloring needs dimensions divisible by 5, got {}x{}",
        dims.width(),
        dims.height()
    );
    let labels: Vec<u32> = (0..dims.sites())
        .map(|i| {
            let x = i % dims.width();
            let y = i / dims.width();
            (2 * x + y) % 5
        })
        .collect();
    Partition::from_labels(dims, &labels)
}

/// The 7-chunk partition for triangular (6-neighbor) models:
/// chunk of `(x, y)` is `(2x + y) mod 7`.
///
/// The triangular closed neighborhood has 7 sites; its perfect code needs 7
/// colors — one more instance of the paper's §5 observation that "larger
/// patterns lead to more chunks" (von Neumann: 5, triangular: 7).
///
/// # Panics
///
/// Panics unless both dimensions are multiples of 7.
pub fn seven_coloring(dims: Dims) -> Partition {
    assert!(
        dims.width().is_multiple_of(7) && dims.height().is_multiple_of(7),
        "the 7-coloring needs dimensions divisible by 7, got {}x{}",
        dims.width(),
        dims.height()
    );
    let labels: Vec<u32> = (0..dims.sites())
        .map(|i| {
            let x = i % dims.width();
            let y = i / dims.width();
            (2 * x + y) % 7
        })
        .collect();
    Partition::from_labels(dims, &labels)
}

/// The 2-chunk checkerboard `(x + y) mod 2`.
///
/// Not conflict-free for a full von Neumann model, but valid per single
/// axis-pair reaction type — the partition of the Ω×T approach (Fig 6).
///
/// # Panics
///
/// Panics unless both dimensions are even (torus wrap consistency).
pub fn checkerboard(dims: Dims) -> Partition {
    assert!(
        dims.width().is_multiple_of(2) && dims.height().is_multiple_of(2),
        "checkerboard needs even dimensions, got {}x{}",
        dims.width(),
        dims.height()
    );
    let labels: Vec<u32> = (0..dims.sites())
        .map(|i| {
            let x = i % dims.width();
            let y = i / dims.width();
            (x + y) % 2
        })
        .collect();
    Partition::from_labels(dims, &labels)
}

/// The trivial 1-chunk partition (`m = 1`): all sites in one chunk.
pub fn single_chunk(dims: Dims) -> Partition {
    Partition::from_labels(dims, &vec![0; dims.sites() as usize])
}

/// The discrete partition (`m = N`): every site its own chunk. With random
/// chunk selection, L-PNDCA over this partition *is* RSM (paper §5).
pub fn singleton_chunks(dims: Dims) -> Partition {
    let labels: Vec<u32> = (0..dims.sites()).collect();
    Partition::from_labels(dims, &labels)
}

/// Greedy conflict-graph coloring for an arbitrary model.
///
/// Two sites conflict when some pair of reaction neighborhoods anchored at
/// them overlaps; equivalently, when their combined-neighborhood stencils
/// intersect. Sites are visited in row-major order and each takes the
/// smallest color unused among its already-colored conflicting sites, so
/// the partition is valid but not minimal: at most one color more than
/// the conflict stencil has offsets (13 for von Neumann). Von Neumann
/// models (ZGB, Kuzovkov) get 9 chunks at every side measured from 20 to
/// 1024 and 10 at side 10, against [`five_coloring`]'s optimal 5: six or
/// seven large color classes, plus small ones whose sites all lie within
/// three sites of the lattice edge, where the row-major order meets the
/// torus wrap (at side 1024: six of about 174 k sites, then 1 769, 340 and
/// 171).
pub fn greedy_coloring(dims: Dims, model: &Model) -> Partition {
    // Conflict stencil: N(s) of site s and N(t) of t overlap iff
    // t − s = a − b for offsets a ∈ N, b ∈ N. Precompute that difference
    // set once.
    let nb = model.combined_neighborhood();
    let mut diff_offsets = Vec::new();
    for &a in nb.offsets() {
        for &b in nb.offsets() {
            let d = a.plus(b.negated());
            if (d.dx != 0 || d.dy != 0) && !diff_offsets.contains(&d) {
                diff_offsets.push(d);
            }
        }
    }
    // Row-major order: the offsets that point at earlier sites first. At an
    // interior site the others reach sites not colored yet, so only this
    // half can hold a color; the set is closed under negation, so it is
    // exactly half.
    diff_offsets.sort_unstable_by_key(|d| (d.dy, d.dx));
    let behind = diff_offsets.len() / 2;
    let stencil = Stencil::new(dims, &diff_offsets);
    let mut labels = vec![u32::MAX; dims.sites() as usize];
    for at in stencil.loci() {
        let checked = if at.is_interior() {
            behind
        } else {
            diff_offsets.len()
        };
        // The colors in use among the conflicts, one 64-color word at a
        // time (an uncolored site's `u32::MAX` falls in no word). A site has
        // at most `diff_offsets.len()` colored conflicts, so a free color
        // turns up by that word.
        let color = (0..=diff_offsets.len() as u32 / 64)
            .find_map(|word| {
                let mut used = 0u64;
                for j in 0..checked {
                    let l = labels[stencil.at(at, j).0 as usize];
                    if l / 64 == word {
                        used |= 1 << (l % 64);
                    }
                }
                (used != u64::MAX).then(|| word * 64 + used.trailing_ones())
            })
            .expect("a free color within the conflict count");
        labels[at.site().0 as usize] = color;
    }
    Partition::from_labels(dims, &labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_model::library::diffusion::diffusion_model;
    use psr_model::library::zgb::zgb_ziff;
    use psr_model::ModelBuilder;

    #[test]
    fn five_coloring_matches_fig4() {
        // Fig 4 shows a 5×5 tile where every chunk has exactly 5 sites and
        // row r is row 0 shifted; our (x + 2y) mod 5 has the same structure.
        let p = five_coloring(Dims::new(5, 5));
        assert_eq!(p.num_chunks(), 5);
        for i in 0..5 {
            assert_eq!(p.chunk(i).len(), 5);
        }
    }

    #[test]
    fn five_coloring_is_conflict_free_for_zgb() {
        let model = zgb_ziff(0.5, 1.0);
        for side in [5u32, 10, 25, 100] {
            let p = five_coloring(Dims::square(side));
            assert!(
                p.is_valid_for(&model),
                "5-coloring invalid on {side}x{side}"
            );
        }
    }

    #[test]
    fn five_coloring_is_minimal_for_von_neumann() {
        // No 4-chunk partition can satisfy the restriction: each site's
        // closed ball has 5 sites and balls of same-chunk sites must be
        // disjoint, so each chunk holds at most N/5 sites; a cover needs at
        // least 5 chunks. Check our partition achieves exactly that bound.
        let p = five_coloring(Dims::square(10));
        assert_eq!(p.num_chunks(), 5);
        assert_eq!(p.max_chunk_size(), 20); // N/5
    }

    #[test]
    #[should_panic(expected = "divisible by 5")]
    fn five_coloring_rejects_bad_dims() {
        five_coloring(Dims::new(6, 5));
    }

    #[test]
    fn seven_coloring_valid_for_triangular_but_five_is_not() {
        // §5: "larger patterns lead to more chunks". A 6-neighbor hop
        // model needs 7 chunks; the von Neumann 5-coloring fails for it.
        use psr_model::library::diffusion::triangular_diffusion_model;
        let model = triangular_diffusion_model(1.0);
        let d = Dims::new(35, 35); // divisible by 5 and 7
        let seven = seven_coloring(d);
        assert_eq!(seven.num_chunks(), 7);
        assert!(
            seven.is_valid_for(&model),
            "7-coloring must be conflict-free"
        );
        let five = five_coloring(d);
        assert!(
            !five.is_valid_for(&model),
            "the von Neumann 5-coloring cannot serve a triangular model"
        );
        // And the 7-coloring of course also covers the smaller pattern.
        let zgb = zgb_ziff(0.5, 1.0);
        assert!(seven.is_valid_for(&zgb));
    }

    #[test]
    fn greedy_needs_at_least_seven_for_triangular() {
        use psr_model::library::diffusion::triangular_diffusion_model;
        let model = triangular_diffusion_model(1.0);
        let p = greedy_coloring(Dims::new(14, 14), &model);
        assert!(p.is_valid_for(&model));
        assert!(p.num_chunks() >= 7, "got {}", p.num_chunks());
    }

    #[test]
    fn five_coloring_alt_is_valid_and_different() {
        let model = zgb_ziff(0.5, 1.0);
        let d = Dims::square(10);
        let a = five_coloring(d);
        let b = five_coloring_alt(d);
        assert!(b.is_valid_for(&model));
        assert_eq!(b.num_chunks(), 5);
        assert_ne!(a, b, "the two colorings must differ");
    }

    #[test]
    fn checkerboard_validity() {
        let model = zgb_ziff(0.5, 1.0);
        let p = checkerboard(Dims::new(6, 6));
        assert_eq!(p.num_chunks(), 2);
        assert!(!p.is_valid_for(&model));
        for name in ["RtO2[0]", "RtO2[1]", "RtCO", "RtCO+O[0]", "RtCO+O[2]"] {
            let ri = model.reaction_index(name).expect("exists");
            assert!(
                p.is_valid_for_reaction(&model, ri),
                "checkerboard invalid for {name}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "even dimensions")]
    fn checkerboard_rejects_odd() {
        checkerboard(Dims::new(5, 4));
    }

    #[test]
    fn degenerate_partitions() {
        let d = Dims::new(4, 4);
        assert_eq!(single_chunk(d).num_chunks(), 1);
        assert_eq!(singleton_chunks(d).num_chunks(), 16);
        let model = zgb_ziff(0.5, 1.0);
        assert!(singleton_chunks(d).is_valid_for(&model));
        assert!(!single_chunk(d).is_valid_for(&model));
    }

    #[test]
    fn greedy_coloring_is_valid_for_zgb() {
        let model = zgb_ziff(0.5, 1.0);
        let p = greedy_coloring(Dims::new(10, 10), &model);
        assert!(p.is_valid_for(&model));
        // Greedy is not minimal (the optimum is 5) but must stay within the
        // conflict-degree bound: ≤ |difference stencil| + 1 = 13 colors for
        // the von Neumann stencil; in practice it lands well under that.
        assert!(
            p.num_chunks() <= 12,
            "greedy used {} chunks",
            p.num_chunks()
        );
    }

    #[test]
    fn greedy_coloring_uses_nine_chunks_for_zgb_at_side_100() {
        // Not five: the greedy order is valid, not optimal (see the doc).
        let model = zgb_ziff(0.5, 1.0);
        let p = greedy_coloring(Dims::square(100), &model);
        assert_eq!(p.num_chunks(), 9);
        assert!(p.is_valid_for(&model));
    }

    #[test]
    fn greedy_coloring_handles_awkward_dims() {
        let model = zgb_ziff(0.5, 1.0);
        // 7x9: not divisible by 5, the perfect coloring doesn't apply.
        let p = greedy_coloring(Dims::new(7, 9), &model);
        assert!(p.is_valid_for(&model));
    }

    #[test]
    fn greedy_coloring_single_site_model_uses_one_chunk() {
        let model = ModelBuilder::new(&["*", "A"])
            .reaction("ads", 1.0, |r| {
                r.site((0, 0), "*", "A");
            })
            .build();
        let p = greedy_coloring(Dims::new(6, 6), &model);
        assert_eq!(p.num_chunks(), 1);
        assert!(p.is_valid_for(&model));
    }

    #[test]
    fn greedy_coloring_diffusion_model() {
        let model = diffusion_model(1.0);
        let p = greedy_coloring(Dims::new(10, 10), &model);
        assert!(p.is_valid_for(&model));
    }
}
