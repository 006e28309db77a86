//! `Partition::find_conflict` and `is_valid_for_reaction` against the
//! site-marking sweep they replaced, kept here as the reference: the
//! verdict on every partition must come out identical, and any pair the
//! run-sliced check reports must be a real conflict.
//!
//! The proptest runs in the default test command; the production sizes are
//! `#[ignore]`d there and run in release by `scripts/ci.sh`:
//!
//! ```text
//! cargo test -q --release -p psr-ca --test conflict_identity -- --include-ignored
//! ```

use proptest::prelude::*;
use psr_ca::partition::Partition;
use psr_ca::partition_builder::{
    checkerboard, five_coloring, five_coloring_alt, greedy_coloring, seven_coloring, single_chunk,
    singleton_chunks,
};
use psr_lattice::{Dims, Neighborhood, Offset, Site};
use psr_model::library::diffusion::{diffusion_model, triangular_diffusion_model};
use psr_model::library::kuzovkov::{kuzovkov_model, KuzovkovParams};
use psr_model::library::zgb::zgb_ziff;
use psr_model::{Model, ModelBuilder};

/// The check as it was written before the run-sliced compare: every site of
/// a chunk marks each site of its neighborhood with (owner, chunk); a mark
/// of the same chunk by another owner is a conflict.
fn reference_find_overlap(p: &Partition, nb: &Neighborhood) -> Option<(Site, Site)> {
    let mut owner: Vec<u32> = vec![u32::MAX; p.num_sites()];
    let mut stamp: Vec<u32> = vec![u32::MAX; p.num_sites()];
    for (ci, chunk) in p.chunks().iter().enumerate() {
        for &site in chunk {
            for covered in nb.sites_at(p.dims(), site) {
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

/// Same verdict as the reference for the whole model and for every single
/// reaction; a reported pair is two distinct sites of one chunk whose
/// neighborhoods overlap.
fn assert_same_verdicts(name: &str, p: &Partition, model: &Model) {
    let dims = p.dims();
    let at = format!(
        "{name} {}x{} ({} chunks)",
        dims.width(),
        dims.height(),
        p.num_chunks()
    );
    let nb = model.combined_neighborhood();
    let got = p.find_conflict(model);
    let want = reference_find_overlap(p, &nb);
    assert_eq!(
        got.is_some(),
        want.is_some(),
        "{at}: verdict differs from the reference"
    );
    if let Some((a, b)) = got {
        assert_ne!(a, b, "{at}: a site reported against itself");
        assert_eq!(
            p.chunk_of(a),
            p.chunk_of(b),
            "{at}: {a:?} and {b:?} in different chunks"
        );
        assert!(
            nb.overlaps_at(dims, a, &nb, b),
            "{at}: {a:?} and {b:?} do not overlap"
        );
    }
    for r in 0..model.num_reactions() {
        let nb = model.reaction(r).neighborhood();
        assert_eq!(
            p.is_valid_for_reaction(model, r),
            reference_find_overlap(p, &nb).is_none(),
            "{at}: verdict for reaction {r} differs from the reference"
        );
    }
}

/// Every builder whose divisibility precondition `dims` meets.
fn builders(dims: Dims, model: &Model) -> Vec<(&'static str, Partition)> {
    let (w, h) = (dims.width(), dims.height());
    let mut out = vec![
        ("greedy", greedy_coloring(dims, model)),
        ("single", single_chunk(dims)),
        ("singletons", singleton_chunks(dims)),
    ];
    if w % 2 == 0 && h % 2 == 0 {
        out.push(("checkerboard", checkerboard(dims)));
    }
    if w % 5 == 0 && h % 5 == 0 {
        out.push(("five", five_coloring(dims)));
        out.push(("five_alt", five_coloring_alt(dims)));
    }
    if w % 7 == 0 && h % 7 == 0 {
        out.push(("seven", seven_coloring(dims)));
    }
    out
}

/// A partition from raw labels taken modulo `k`, renumbered densely in
/// order of first appearance.
fn label_partition(dims: Dims, raw: &[u32], k: u32) -> Partition {
    let mut dense = vec![u32::MAX; k as usize];
    let mut next = 0;
    let labels: Vec<u32> = raw
        .iter()
        .cycle()
        .take(dims.sites() as usize)
        .map(|&l| {
            let slot = &mut dense[(l % k) as usize];
            if *slot == u32::MAX {
                *slot = next;
                next += 1;
            }
            *slot
        })
        .collect();
    Partition::from_labels(dims, &labels)
}

/// A random model whose reactions each read the origin and up to two more
/// sites within reach 3: conflict offsets reaching up to 6 sites, wider
/// than many of the lattices they are checked on.
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn verdicts_equal_the_reference_on_random_models_dims_and_labels(
        pick in 0u32..5,
        wide in wide_model_strategy(),
        w in 1u32..41,
        h in 1u32..41,
        k in 1u32..64,
        raw in prop::collection::vec(0u32..1 << 16, 1..1601usize),
    ) {
        let (name, model) = if pick < 4 { library_model(pick) } else { ("random", wide) };
        let dims = Dims::new(w, h);
        assert_same_verdicts(name, &label_partition(dims, &raw, k), &model);
        for (builder, p) in builders(dims, &model) {
            assert_same_verdicts(&format!("{name}/{builder}"), &p, &model);
        }
    }
}

#[test]
fn verdicts_equal_the_reference_at_awkward_small_sides() {
    for pick in 0..4 {
        let (name, model) = library_model(pick);
        for (w, h) in [
            (1, 1),
            (2, 3),
            (1, 17),
            (17, 1),
            (2, 2),
            (5, 5),
            (7, 7),
            (10, 10),
            (13, 5),
            (14, 35),
        ] {
            let dims = Dims::new(w, h);
            for (builder, p) in builders(dims, &model) {
                assert_same_verdicts(&format!("{name}/{builder}"), &p, &model);
            }
        }
    }
}

#[test]
fn a_reported_pair_is_a_conflict_of_one_chunk() {
    // One chunk per row: horizontal pair reactions conflict inside a row.
    let model = zgb_ziff(0.5, 1.0);
    let dims = Dims::new(10, 10);
    let labels: Vec<u32> = (0..dims.sites()).map(|i| i / dims.width()).collect();
    assert_same_verdicts("zgb/rows", &Partition::from_labels(dims, &labels), &model);
    assert!(Partition::from_labels(dims, &labels)
        .find_conflict(&model)
        .is_some());
}

#[test]
fn one_relabelled_site_is_found_anywhere_in_a_long_row() {
    // Rows longer than one compare block: a conflict planted at each site of
    // an otherwise valid partition in turn, wherever it falls in its run.
    let model = zgb_ziff(0.5, 1.0);
    for dims in [Dims::new(150, 4), Dims::new(3, 140)] {
        let valid = greedy_coloring(dims, &model);
        assert!(valid.is_valid_for(&model));
        for site in dims.iter_sites() {
            let mut labels = valid.chunk_labels().to_vec();
            labels[site.0 as usize] = labels[dims.translate(site, Offset::new(1, 0)).0 as usize];
            let p = Partition::from_labels(dims, &labels);
            assert!(p.find_conflict(&model).is_some(), "{site:?} relabelled");
            assert_same_verdicts("zgb/relabelled", &p, &model);
        }
    }
}

/// The sizes the benchmark and the examples check: seconds in release,
/// minutes in a debug build.
#[test]
#[ignore]
fn verdicts_equal_the_reference_at_production_sizes() {
    for pick in [0, 1] {
        let (name, model) = library_model(pick);
        let dims = Dims::square(1024);
        assert_same_verdicts(
            &format!("{name}/greedy"),
            &greedy_coloring(dims, &model),
            &model,
        );
    }
    let (name, model) = library_model(3);
    let dims = Dims::square(128);
    assert_same_verdicts(
        &format!("{name}/greedy"),
        &greedy_coloring(dims, &model),
        &model,
    );
}
