//! Differential tests: compiled kernels vs the model's own per-reaction
//! matcher — the one reference comparison.
//!
//! Every library model is compiled both ways (full LUT and the per-reaction
//! fallback via a zero cap) and checked against `Model::enabled_mask_at` on
//! random lattices — for the full scan, for summed enabled rates, and for
//! incremental maintenance under random reaction executions. The trial body
//! `SiteKernel::fire` is checked against `ReactionType::try_execute` in all
//! three kernel modes: tracked LUT, tracked masks, and untracked.

use proptest::prelude::*;
use psr_kernel::{CompiledModel, SiteKernel, MAX_KERNEL_REACTIONS};
use psr_lattice::{Change, Dims, Lattice, Site};
use psr_model::library::{
    ab_annihilation, diffusion_model, ising_glauber, kuzovkov_model, single_file_model,
    triangular_diffusion_model, zgb_ziff, KuzovkovParams,
};
use psr_model::{Model, ModelBuilder};
use std::cell::Cell;
use std::sync::Arc;

/// Every model shipped in `psr_model::library`, by name.
fn library_models() -> Vec<(&'static str, Model)> {
    vec![
        ("zgb", zgb_ziff(0.45, 10.0)),
        ("kuzovkov", kuzovkov_model(KuzovkovParams::default())),
        ("diffusion", diffusion_model(1.0)),
        ("triangular-diffusion", triangular_diffusion_model(1.0)),
        ("single-file", single_file_model(1.0)),
        ("ising", ising_glauber(2.0)),
        ("annihilation", ab_annihilation(1.0, 2.0)),
    ]
}

/// A model whose patterns all reach east and north of the anchor: seven
/// read cells, none of them the reflection of another except the origin, so
/// the reflection-closed stencil has thirteen. No library model is like
/// this (their stencils are symmetric).
fn one_sided_model() -> Model {
    ModelBuilder::new(&["*", "A", "B"])
        .reaction("ads", 1.0, |r| {
            r.site((0, 0), "*", "A");
        })
        .reaction("hop-east", 2.0, |r| {
            r.site((0, 0), "A", "*").site((1, 0), "*", "A");
        })
        .reaction("jump-east", 0.5, |r| {
            r.site((0, 0), "A", "B").site((2, 0), "*", "B");
        })
        .reaction("hop-north", 1.5, |r| {
            r.site((0, 0), "B", "*").site((0, 1), "*", "A");
        })
        .reaction("jump-north", 0.7, |r| {
            r.site((0, 0), "A", "*").site((0, 2), "B", "*");
        })
        .reaction("knight", 3.0, |r| {
            r.site((0, 0), "*", "*")
                .site((1, 1), "A", "B")
                .site((2, 1), "*", "A");
        })
        .build()
}

fn random_lattice(model: &Model, dims: Dims, seed: u64) -> Lattice {
    let mut rng = psr_rng::rng_from_seed(seed);
    let s = model.species().len();
    let n = (dims.width() * dims.height()) as usize;
    let cells = (0..n).map(|_| rng.index(s) as u8).collect();
    Lattice::from_cells(dims, cells)
}

/// The kernel (in the given LUT mode) agrees with the naive matcher at
/// every site of `lattice`, for both the enabled masks and the rate sums.
fn assert_agrees(name: &str, model: &Model, lattice: &Lattice, lut_cap: usize) {
    let compiled = Arc::new(CompiledModel::compile_with_cap(model, lut_cap));
    let kernel = SiteKernel::new(Arc::clone(&compiled), lattice);
    for site in lattice.dims().iter_sites() {
        let naive = model.enabled_mask_at(lattice, site);
        assert_eq!(
            kernel.enabled_mask(site),
            naive,
            "{name} (cap {lut_cap}): mask mismatch at {site:?}"
        );
        assert_eq!(
            kernel.enabled_rate_sum(site),
            compiled.rate_of_mask(naive),
            "{name} (cap {lut_cap}): rate-sum mismatch at {site:?}"
        );
    }
}

/// Execute `steps` random (site, reaction) trials, keeping the kernel up to
/// date from the change journal, and check it still matches a fresh scan.
fn assert_incremental(name: &str, model: &Model, lattice: &mut Lattice, lut_cap: usize, seed: u64) {
    let compiled = Arc::new(CompiledModel::compile_with_cap(model, lut_cap));
    let mut kernel = SiteKernel::new(compiled, lattice);
    let mut rng = psr_rng::rng_from_seed(seed);
    let mut changes = Vec::new();
    let n = lattice.len();
    for _ in 0..200 {
        let site = Site(rng.index(n) as u32);
        let reaction = rng.index(model.num_reactions());
        changes.clear();
        if model
            .reaction(reaction)
            .try_execute(lattice, site, &mut changes)
        {
            kernel.apply_changes(lattice, &changes);
        }
    }
    kernel.assert_matches_scan(model, lattice);
    for site in lattice.dims().iter_sites() {
        assert_eq!(
            kernel.enabled_mask(site),
            model.enabled_mask_at(lattice, site),
            "{name} (cap {lut_cap}): incremental mask diverged at {site:?}"
        );
    }
}

#[test]
fn library_models_compile_and_agree_on_random_lattices() {
    for (name, model) in library_models() {
        let lattice = random_lattice(&model, Dims::square(12), 0xC0FFEE);
        // Full LUT when it fits, and the per-reaction fallback (cap 0).
        assert_agrees(name, &model, &lattice, psr_kernel::DEFAULT_LUT_CAP);
        assert_agrees(name, &model, &lattice, 0);
    }
}

#[test]
fn library_models_stay_exact_under_incremental_updates() {
    for (name, model) in library_models() {
        for cap in [psr_kernel::DEFAULT_LUT_CAP, 0] {
            let mut lattice = random_lattice(&model, Dims::square(10), 0xBEEF);
            assert_incremental(name, &model, &mut lattice, cap, 7);
        }
    }
}

/// The same physics with more than `MAX_KERNEL_REACTIONS` types (the
/// reaction list repeated), which is what makes a kernel untracked.
fn widened(model: &Model) -> Model {
    let reactions = model
        .reactions()
        .iter()
        .cycle()
        .take(MAX_KERNEL_REACTIONS + 1 + model.num_reactions())
        .cloned()
        .collect();
    Model::new(model.species().clone(), reactions)
}

/// `SiteKernel::fire` on a plain lattice, journaling `(site, old, new)`.
fn fire_on(
    kernel: &SiteKernel,
    lattice: &mut Lattice,
    site: Site,
    reaction: usize,
    changes: &mut Vec<Change>,
) -> bool {
    let cells = Cell::from_mut(lattice.cells_mut()).as_slice_of_cells();
    kernel.fire(
        site,
        reaction,
        |s| cells[s.0 as usize].get(),
        |s, new| changes.push((s, cells[s.0 as usize].replace(new), new)),
    )
}

/// `fire` ≡ `try_execute` over random (site, reaction) trials: same
/// verdict, same cells written in the same order, and the kernel — folded
/// from the journal after every hit — still matches a fresh scan. Runs the
/// tracked LUT mode, the tracked mask mode and the untracked mode; returns
/// the fewest executed trials any mode saw.
fn assert_fire_is_try_execute(name: &str, model: &Model, start: &Lattice, seed: u64) -> u32 {
    let wide = widened(model);
    let modes = [
        ("lut", model, CompiledModel::compile(model)),
        ("masks", model, CompiledModel::compile_with_cap(model, 0)),
        ("untracked", &wide, CompiledModel::compile(&wide)),
    ];
    let mut fewest_hits = u32::MAX;
    for (mode, model, compiled) in modes {
        assert_eq!(compiled.tracks_masks(), mode != "untracked", "{name}");
        let mut lattice = start.clone();
        let mut reference = start.clone();
        let mut kernel = SiteKernel::new(Arc::new(compiled), &lattice);
        let mut rng = psr_rng::rng_from_seed(seed);
        let (mut changes, mut expected) = (Vec::new(), Vec::new());
        let mut hits = 0;
        for _ in 0..300 {
            let site = Site(rng.index(lattice.len()) as u32);
            let reaction = rng.index(model.num_reactions());
            changes.clear();
            expected.clear();
            let want = model
                .reaction(reaction)
                .try_execute(&mut reference, site, &mut expected);
            let got = fire_on(&kernel, &mut lattice, site, reaction, &mut changes);
            assert_eq!(
                got, want,
                "{name}/{mode}: verdict at {site:?}, type {reaction}"
            );
            assert_eq!(
                changes, expected,
                "{name}/{mode}: written cells at {site:?}"
            );
            kernel.apply_changes(&lattice, &changes);
            hits += got as u32;
        }
        assert_eq!(lattice, reference, "{name}/{mode}");
        assert!(kernel.matches_scan(model, &lattice), "{name}/{mode}");
        fewest_hits = fewest_hits.min(hits);
    }
    fewest_hits
}

#[test]
fn fire_is_try_execute_on_library_models() {
    for (name, model) in library_models() {
        let lattice = random_lattice(&model, Dims::square(10), 0xF1BE);
        let hits = assert_fire_is_try_execute(name, &model, &lattice, 11);
        assert!(hits > 0, "{name}: no trial executed");
    }
}

/// The LUT is sized by what patterns read, not by the reflection-closed
/// stencil the tables are addressed through: a one-sided model keeps its
/// `S^|read cells|` table, and every kernel mode stays exact on it.
#[test]
fn one_sided_stencil_keeps_its_lut_and_stays_exact() {
    let model = one_sided_model();
    let compiled = CompiledModel::compile(&model);
    assert_eq!(compiled.read_cells().len(), 7);
    assert_eq!(compiled.cells().len(), 13, "closed under reflection");
    assert!(compiled.has_lut());
    assert_eq!(compiled.lut_entries(), 3usize.pow(7));

    for cap in [psr_kernel::DEFAULT_LUT_CAP, 0] {
        let mut lattice = random_lattice(&model, Dims::new(11, 9), 0xA51);
        assert_agrees("one-sided", &model, &lattice, cap);
        assert_incremental("one-sided", &model, &mut lattice, cap, 5);
    }
    let lattice = random_lattice(&model, Dims::new(11, 9), 0xA52);
    let hits = assert_fire_is_try_execute("one-sided", &model, &lattice, 13);
    assert!(hits > 0, "no trial executed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Random geometry × random fill × both LUT modes, for the two models
    // with the richest stencils (ZGB's von Neumann bimolecular patterns,
    // Kuzovkov's 5-species phase-augmented patterns). Sides run from 1 to
    // well beyond 2·reach + 2, so lattices with no interior site (every
    // neighbor through the wrap tables) mix with ones that have both kinds.
    #[test]
    fn scan_agreement_on_random_geometries(
        w in 1u32..14,
        h in 1u32..14,
        seed in 0u64..1_000_000,
        cap_zero in prop::bool::ANY,
    ) {
        let dims = Dims::new(w, h);
        let cap = if cap_zero { 0 } else { psr_kernel::DEFAULT_LUT_CAP };
        for (name, model) in [
            ("zgb", zgb_ziff(0.45, 10.0)),
            ("kuzovkov", kuzovkov_model(KuzovkovParams::default())),
        ] {
            let lattice = random_lattice(&model, dims, seed);
            assert_agrees(name, &model, &lattice, cap);
        }
    }

    // Incremental maintenance under random executions matches a fresh
    // rebuild, on random geometries (exercises torus aliasing: widths and
    // heights below the stencil diameter).
    #[test]
    fn incremental_agreement_on_random_geometries(
        w in 1u32..12,
        h in 1u32..12,
        seed in 0u64..1_000_000,
        cap_zero in prop::bool::ANY,
    ) {
        let dims = Dims::new(w, h);
        let cap = if cap_zero { 0 } else { psr_kernel::DEFAULT_LUT_CAP };
        for (name, model) in [
            ("zgb", zgb_ziff(0.45, 10.0)),
            ("single-file", single_file_model(1.0)),
            ("one-sided", one_sided_model()),
        ] {
            let mut lattice = random_lattice(&model, dims, seed);
            assert_incremental(name, &model, &mut lattice, cap, seed ^ 0x5EED);
        }
    }

    // The trial body against the model's matcher on random geometries
    // (torus aliasing included), in all three kernel modes.
    #[test]
    fn fire_agreement_on_random_geometries(
        w in 1u32..12,
        h in 1u32..12,
        seed in 0u64..1_000_000,
    ) {
        for (name, model) in [
            ("zgb", zgb_ziff(0.45, 10.0)),
            ("kuzovkov", kuzovkov_model(KuzovkovParams::default())),
            ("single-file", single_file_model(1.0)),
            ("one-sided", one_sided_model()),
        ] {
            let lattice = random_lattice(&model, Dims::new(w, h), seed);
            assert_fire_is_try_execute(name, &model, &lattice, seed ^ 0xF12E);
        }
    }
}

/// Compiled delta ≡ general fold: `SiteKernel::execute` (compiled fires
/// away from the edges) against `fire` + `apply_changes` (the general
/// fold) on every library model, on sides where no site, some sites and
/// most sites take compiled fires; with and without attached counts; in
/// LUT and mask mode (which has no compiled fires). Lattice, coverage,
/// codes, masks, counts and the change journal must agree after every
/// trial.
#[test]
fn compiled_deltas_match_the_general_fold() {
    use psr_kernel::Deltas;
    for (name, model) in library_models() {
        for side in (2..=9).chain([16]) {
            let dims = Dims::square(side);
            for cap in [psr_kernel::DEFAULT_LUT_CAP, 0] {
                for counting in [false, true] {
                    let compiled = Arc::new(CompiledModel::compile_with_cap(&model, cap));
                    let deltas = Deltas::new(&compiled, dims);
                    assert_eq!(
                        deltas.is_some(),
                        compiled.has_lut(),
                        "{name}: deltas iff a LUT"
                    );
                    let mut fast_lattice = random_lattice(&model, dims, u64::from(side) * 31 + 7);
                    let mut slow_lattice = fast_lattice.clone();
                    let mut fast = SiteKernel::new(Arc::clone(&compiled), &fast_lattice);
                    let mut slow = SiteKernel::new(Arc::clone(&compiled), &slow_lattice);
                    if counting && compiled.tracks_masks() {
                        let groups: Vec<u32> = (0..dims.sites()).map(|s| s % 3).collect();
                        fast.attach_counts(groups.clone(), 3);
                        slow.attach_counts(groups, 3);
                    }
                    let species = model.species().len();
                    let cover = |l: &Lattice| {
                        let mut c = vec![0usize; species];
                        l.cells().iter().for_each(|&s| c[s as usize] += 1);
                        c
                    };
                    let (mut fast_cover, mut slow_cover) =
                        (cover(&fast_lattice), cover(&slow_lattice));
                    let mut rng = psr_rng::rng_from_seed(u64::from(side));
                    let (mut fast_changes, mut slow_changes) = (Vec::new(), Vec::new());
                    let mut compiled_fires = 0;
                    for _ in 0..400 {
                        let site = Site(rng.index(dims.sites() as usize) as u32);
                        let reaction = rng.index(model.num_reactions());
                        fast_changes.clear();
                        slow_changes.clear();
                        let a = fast.execute(&mut fast_lattice, site, reaction, &mut fast_changes);
                        let cells = Cell::from_mut(slow_lattice.cells_mut()).as_slice_of_cells();
                        let b = slow.fire(
                            site,
                            reaction,
                            |s| cells[s.0 as usize].get(),
                            |s, new| slow_changes.push((s, cells[s.0 as usize].replace(new), new)),
                        );
                        if b {
                            slow.apply_changes(&slow_lattice, &slow_changes);
                        }
                        let interior = deltas
                            .as_ref()
                            .is_some_and(|d| d.at(site, reaction).is_some());
                        compiled_fires += usize::from(a && interior);
                        for (cover, changes) in [
                            (&mut fast_cover, &fast_changes),
                            (&mut slow_cover, &slow_changes),
                        ] {
                            for &(_, old, new) in changes.iter() {
                                cover[old as usize] -= 1;
                                cover[new as usize] += 1;
                            }
                        }
                        let what = format!(
                            "{name} {side}² cap {cap} counting {counting} at {site:?} r{reaction}"
                        );
                        assert_eq!(a, b, "{what}: verdict");
                        assert_eq!(fast_changes, slow_changes, "{what}: journal");
                        assert_eq!(fast_lattice, slow_lattice, "{what}: lattice");
                        assert_eq!(fast_cover, slow_cover, "{what}: coverage");
                        assert_eq!(fast.codes(), slow.codes(), "{what}: codes");
                        assert_eq!(fast.enabled_masks(), slow.enabled_masks(), "{what}: masks");
                        if fast.is_counting() {
                            assert_eq!(fast.counts(0), slow.counts(0), "{what}: counts");
                        }
                    }
                    fast.assert_matches_scan(&model, &fast_lattice);
                    if let Some(d) = &deltas {
                        if side > 2 * d.reach() + 2 {
                            assert!(compiled_fires > 0, "{name} {side}²: no compiled fire taken");
                        }
                        if side <= 2 * d.reach() {
                            assert_eq!(compiled_fires, 0, "{name} {side}²: no site is interior");
                        }
                    }
                }
            }
        }
    }
}
