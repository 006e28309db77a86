//! `greedy_coloring` against the row-major `Dims::translate` colouring it
//! replaced, kept here as the reference: the labels — and with them every
//! partition-dependent trajectory — must come out identical.
//!
//! The proptest runs in the default test command; the production sizes are
//! `#[ignore]`d there and run in release by `scripts/ci.sh`:
//!
//! ```text
//! cargo test -q --release -p psr-ca --test coloring_identity -- --include-ignored
//! ```

use proptest::prelude::*;
use psr_ca::partition::Partition;
use psr_ca::partition_builder::greedy_coloring;
use psr_lattice::Dims;
use psr_model::library::diffusion::{diffusion_model, triangular_diffusion_model};
use psr_model::library::kuzovkov::{kuzovkov_model, KuzovkovParams};
use psr_model::library::zgb::zgb_ziff;
use psr_model::{Model, ModelBuilder};

/// The colouring as it was written before table-free addressing: translate
/// every conflict offset with `Dims::translate`, collect the neighbours'
/// colours in a list, take the smallest colour not in it.
fn reference_greedy_coloring(dims: Dims, model: &Model) -> Partition {
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
    let n = dims.sites() as usize;
    let mut labels = vec![u32::MAX; n];
    let mut used = Vec::new();
    for site in dims.iter_sites() {
        used.clear();
        for &d in &diff_offsets {
            let other = dims.translate(site, d);
            let l = labels[other.0 as usize];
            if l != u32::MAX && !used.contains(&l) {
                used.push(l);
            }
        }
        let mut color = 0u32;
        while used.contains(&color) {
            color += 1;
        }
        labels[site.0 as usize] = color;
    }
    Partition::from_labels(dims, &labels)
}

fn assert_same_labels(name: &str, dims: Dims, model: &Model) {
    let got = greedy_coloring(dims, model);
    let want = reference_greedy_coloring(dims, model);
    assert!(
        got.chunk_labels() == want.chunk_labels(),
        "{name} {}x{}: labels differ from the reference",
        dims.width(),
        dims.height()
    );
}

/// A random model whose reactions each read the origin and up to two more
/// sites within reach 3: conflict stencils of up to 42 offsets reaching up
/// to 6 sites, wider than many of the lattices they are coloured on.
fn wide_model_strategy() -> impl Strategy<Value = Model> {
    prop::collection::vec(prop::collection::vec((-3i32..4, -3i32..4), 0..3), 1..4).prop_map(
        |reactions| {
            let mut b = ModelBuilder::new(&["*", "A"]);
            for (i, extra) in reactions.into_iter().enumerate() {
                let mut offsets = vec![(0, 0)];
                for o in extra {
                    if !offsets.contains(&o) {
                        offsets.push(o);
                    }
                }
                b = b.reaction(format!("r{i}"), 1.0, |r| {
                    for &o in &offsets {
                        r.site(o, "*", "A");
                    }
                });
            }
            b.build()
        },
    )
}

fn library_model(pick: u32) -> (&'static str, Model) {
    match pick {
        0 => ("zgb", zgb_ziff(0.5, 2.0)),
        1 => ("kuzovkov", kuzovkov_model(KuzovkovParams::default())),
        2 => ("diffusion", diffusion_model(1.0)),
        _ => ("triangular", triangular_diffusion_model(1.0)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn labels_equal_the_reference_on_random_models_and_dims(
        pick in 0u32..5,
        wide in wide_model_strategy(),
        w in 1u32..41,
        h in 1u32..41,
    ) {
        let (name, model) = if pick < 4 { library_model(pick) } else { ("random", wide) };
        assert_same_labels(name, Dims::new(w, h), &model);
    }
}

#[test]
fn labels_equal_the_reference_at_awkward_small_sides() {
    for pick in 0..4 {
        let (name, model) = library_model(pick);
        for (w, h) in [
            (1, 1),
            (2, 3),
            (7, 9),
            (10, 10),
            (13, 5),
            (1, 17),
            (100, 37),
        ] {
            assert_same_labels(name, Dims::new(w, h), &model);
        }
    }
}

/// The sizes the benchmark and the examples colour: seconds in release,
/// minutes in a debug build.
#[test]
#[ignore]
fn labels_equal_the_reference_at_production_sizes() {
    for pick in [0, 1] {
        let (name, model) = library_model(pick);
        for side in [1000, 1024] {
            assert_same_labels(name, Dims::square(side), &model);
        }
    }
    let (name, model) = library_model(3);
    for side in [35, 128] {
        assert_same_labels(name, Dims::square(side), &model);
    }
}

#[test]
fn colors_beyond_one_bitset_word_match_the_reference() {
    // One reaction over the whole 5×5 block: 80 conflict offsets, and on a
    // 9×9 torus every site conflicts with every other, so 81 colors.
    let model = ModelBuilder::new(&["*", "A"])
        .reaction("block", 1.0, |r| {
            for dy in -2..=2 {
                for dx in -2..=2 {
                    r.site((dx, dy), "*", "A");
                }
            }
        })
        .build();
    assert_eq!(greedy_coloring(Dims::square(9), &model).num_chunks(), 81);
    for (w, h) in [(1, 1), (3, 4), (9, 9), (12, 10), (23, 17)] {
        assert_same_labels("block", Dims::new(w, h), &model);
    }
}
