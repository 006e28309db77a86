//! Batch-vs-single bit-identity: slot `r` of a batch seeded `(seed, r)`
//! must match a single-replica run with the same seed exactly — lattice,
//! clock bits, RNG words, trial/executed counts — for every supported
//! algorithm, and independently of batch width.

use proptest::prelude::*;
use psr_batch::engine::NoBatchHook;
use psr_batch::{BatchAlgorithm, BatchSim};
use psr_ca::ndca::SweepOrder;
use psr_ca::pndca::ChunkSelection;
use psr_ca::{five_coloring, greedy_coloring, Ndca, Pndca};
use psr_dmc::events::NoHook;
use psr_dmc::sim::SimState;
use psr_lattice::{Dims, Lattice};
use psr_model::library::kuzovkov::{kuzovkov_model, KuzovkovParams};
use psr_model::library::zgb::zgb_ziff;
use psr_model::library::{
    ab_annihilation, diffusion_model, ising_glauber, single_file_model, triangular_diffusion_model,
};
use psr_model::Model;
use psr_rng::rng_from_seed;

/// Everything a trajectory comparison needs, bit-exact.
#[derive(Debug, PartialEq)]
struct Snapshot {
    cells: Vec<u8>,
    time_bits: u64,
    rng_words: [u64; 2],
    trials: u64,
    executed: u64,
}

fn single_snapshot(
    model: &Model,
    dims: Dims,
    algorithm: &BatchAlgorithm,
    seed: u64,
    steps: u64,
) -> Snapshot {
    single_snapshot_from(model, &Lattice::filled(dims, 0), algorithm, seed, steps)
}

/// [`single_snapshot`] from an explicit initial lattice.
fn single_snapshot_from(
    model: &Model,
    lattice: &Lattice,
    algorithm: &BatchAlgorithm,
    seed: u64,
    steps: u64,
) -> Snapshot {
    let mut state = SimState::new(lattice.clone(), model);
    let mut rng = rng_from_seed(seed);
    let stats = match algorithm {
        BatchAlgorithm::Ndca { shuffled } => {
            let order = if *shuffled {
                SweepOrder::Shuffled
            } else {
                SweepOrder::RowMajor
            };
            Ndca::new(model).with_order(order).run_steps(
                &mut state,
                &mut rng,
                steps,
                None,
                &mut NoHook,
            )
        }
        BatchAlgorithm::Pndca {
            partition,
            selection,
        } => Pndca::new(model, partition)
            .with_selection(*selection)
            .run_steps(&mut state, &mut rng, steps, None, &mut NoHook),
    };
    Snapshot {
        cells: state.lattice.cells().to_vec(),
        time_bits: state.time.to_bits(),
        rng_words: rng.state(),
        trials: stats.trials,
        executed: stats.executed,
    }
}

fn batch_snapshot(sim: &BatchSim, slot: usize) -> Snapshot {
    Snapshot {
        cells: sim.lattice_of(slot).cells().to_vec(),
        time_bits: sim.time(slot).to_bits(),
        rng_words: sim.rng_words(slot),
        trials: sim.trials(slot),
        executed: sim.executed(slot),
    }
}

fn assert_batch_matches_single(
    model: &Model,
    dims: Dims,
    algorithm: BatchAlgorithm,
    seeds: &[u64],
    steps: u64,
) {
    let mut sim = BatchSim::new(model, dims, algorithm.clone(), seeds);
    sim.run_steps(steps, &mut NoBatchHook);
    for (slot, &seed) in seeds.iter().enumerate() {
        let want = single_snapshot(model, dims, &algorithm, seed, steps);
        let got = batch_snapshot(&sim, slot);
        assert_eq!(
            got, want,
            "slot {slot} (seed {seed}) diverged from the single-replica run"
        );
    }
}

#[test]
fn ndca_rowmajor_zgb_slots_match_single() {
    let model = zgb_ziff(0.5, 10.0);
    let seeds: Vec<u64> = (100..112).collect(); // 12 replicas pad to 16 slots
    assert_batch_matches_single(
        &model,
        Dims::square(10),
        BatchAlgorithm::Ndca { shuffled: false },
        &seeds,
        300,
    );
}

/// A model whose patterns reach only east and north: its read cells are not
/// closed under reflection, the kernel's stencil is. The LUT follows the
/// read cells (3⁴ codes), so the batch engine still builds and tracks it.
#[test]
fn one_sided_stencil_slots_match_single() {
    let model = psr_model::ModelBuilder::new(&["*", "A", "B"])
        .reaction("ads", 1.0, |r| {
            r.site((0, 0), "*", "A");
        })
        .reaction("jump-east", 2.0, |r| {
            r.site((0, 0), "A", "*").site((2, 0), "*", "B");
        })
        .reaction("hop-north", 1.5, |r| {
            r.site((0, 0), "B", "*").site((0, 1), "*", "A");
        })
        .reaction("react", 3.0, |r| {
            r.site((0, 0), "A", "*").site((1, 1), "B", "*");
        })
        .build();
    let seeds: Vec<u64> = (40..45).collect();
    assert_batch_matches_single(
        &model,
        Dims::new(9, 7),
        BatchAlgorithm::Ndca { shuffled: false },
        &seeds,
        200,
    );
}

#[test]
fn ndca_shuffled_zgb_slots_match_single() {
    let model = zgb_ziff(0.45, 5.0);
    let seeds: Vec<u64> = (7..16).collect();
    assert_batch_matches_single(
        &model,
        Dims::square(10),
        BatchAlgorithm::Ndca { shuffled: true },
        &seeds,
        200,
    );
}

#[test]
fn pndca_every_selection_matches_single() {
    let model = zgb_ziff(0.52, 10.0);
    let dims = Dims::square(10);
    let partition = five_coloring(dims);
    for selection in [
        ChunkSelection::InOrder,
        ChunkSelection::RandomOrder,
        ChunkSelection::RandomWithReplacement,
        ChunkSelection::WeightedByRates,
    ] {
        let seeds: Vec<u64> = (40..46).collect();
        assert_batch_matches_single(
            &model,
            dims,
            BatchAlgorithm::Pndca {
                partition: partition.clone(),
                selection,
            },
            &seeds,
            150,
        );
    }
}

#[test]
fn kuzovkov_ndca_and_weighted_pndca_match_single() {
    let model = kuzovkov_model(KuzovkovParams::default());
    let dims = Dims::square(10);
    let seeds: Vec<u64> = (900..905).collect();
    assert_batch_matches_single(
        &model,
        dims,
        BatchAlgorithm::Ndca { shuffled: false },
        &seeds,
        100,
    );
    assert_batch_matches_single(
        &model,
        dims,
        BatchAlgorithm::Pndca {
            partition: five_coloring(dims),
            selection: ChunkSelection::WeightedByRates,
        },
        &seeds,
        80,
    );
}

/// Batch width must not change any slot's trajectory: the same seed gives
/// the same snapshot whether it shares the batch with 0, 7, 31 or 63 others
/// (64 is the widest batch the SIMD sweep takes).
#[test]
fn batch_width_does_not_change_trajectories() {
    let model = zgb_ziff(0.5, 10.0);
    let dims = Dims::square(10);
    let algorithm = BatchAlgorithm::Ndca { shuffled: false };
    let steps = 250;
    let seed = 1234u64;
    let mut reference = None;
    for width in [1usize, 5, 8, 17, 32, 64] {
        // Place the probed seed at a different slot each time.
        let at = (width - 1) / 2;
        let seeds: Vec<u64> = (0..width as u64)
            .map(|i| if i == at as u64 { seed } else { 5000 + i })
            .collect();
        let mut sim = BatchSim::new(&model, dims, algorithm.clone(), &seeds);
        sim.run_steps(steps, &mut NoBatchHook);
        let snap = batch_snapshot(&sim, at);
        match &reference {
            None => reference = Some(snap),
            Some(want) => assert_eq!(
                &snap, want,
                "width {width} changed the trajectory of seed {seed}"
            ),
        }
    }
}

/// Every kind of batch step, over lattices whose PNDCA chunks are equal
/// (the five-colouring) and unequal (the greedy colouring of a 10×10 ZGB
/// lattice: chunks of 1 to 16 sites, so lanes run out of window mid-round).
fn every_kind(dims: Dims, model: &Model) -> Vec<BatchAlgorithm> {
    let mut kinds = vec![
        BatchAlgorithm::Ndca { shuffled: false },
        BatchAlgorithm::Ndca { shuffled: true },
    ];
    for partition in [five_coloring(dims), greedy_coloring(dims, model)] {
        for selection in [
            ChunkSelection::InOrder,
            ChunkSelection::RandomOrder,
            ChunkSelection::RandomWithReplacement,
            ChunkSelection::WeightedByRates,
        ] {
            kinds.push(BatchAlgorithm::Pndca {
                partition: partition.clone(),
                selection,
            });
        }
    }
    kinds
}

/// The AVX-512 sweep must be bit-identical to the scalar lockstep path,
/// including frozen-lane handling, for every kind and batch width.
#[test]
fn simd_sweep_matches_scalar_sweep() {
    let model = zgb_ziff(0.5, 10.0);
    let mut cases = vec![(
        Dims::square(20),
        BatchAlgorithm::Ndca { shuffled: false },
        16usize,
        [120u64, 80, 40],
    )];
    let dims = Dims::square(10);
    for algorithm in every_kind(dims, &model) {
        for width in [1usize, 9, 64] {
            cases.push((dims, algorithm.clone(), width, [30, 20, 10]));
        }
    }
    for (dims, algorithm, width, [before, frozen, after]) in cases {
        let seeds: Vec<u64> = (0..width as u64).collect();
        let mut simd = BatchSim::new(&model, dims, algorithm.clone(), &seeds);
        if !simd.simd_active() {
            eprintln!("avx512 not available; simd arm not exercised");
            return;
        }
        let mut scalar = BatchSim::new(&model, dims, algorithm.clone(), &seeds);
        scalar.set_simd(false);
        assert!(!scalar.simd_active());
        let ragged: Vec<usize> = [0usize, 3, 8, 15]
            .into_iter()
            .filter(|&s| s < simd.slots())
            .collect();
        for sim in [&mut simd, &mut scalar] {
            sim.run_steps(before, &mut NoBatchHook);
            // Freeze a ragged subset mid-run: frozen lanes must hold their
            // clock and RNG words bit-still through masked updates.
            for &slot in &ragged {
                sim.set_active(slot, false);
            }
            sim.run_steps(frozen, &mut NoBatchHook);
            for &slot in &ragged {
                sim.set_active(slot, true);
            }
            sim.run_steps(after, &mut NoBatchHook);
        }
        for slot in 0..seeds.len() {
            assert_eq!(
                batch_snapshot(&simd, slot),
                batch_snapshot(&scalar, slot),
                "slot {slot} of {width} diverged between SIMD and scalar sweeps ({algorithm:?})"
            );
        }
    }
}

/// A host with AVX-512 sweeps every kind of ZGB batch with SIMD, however
/// wide: no kind may fall back to the scalar loop unnoticed.
#[test]
#[cfg(target_arch = "x86_64")]
fn every_kind_takes_the_simd_sweep_where_avx512_is_detected() {
    if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")) {
        return;
    }
    let model = zgb_ziff(0.5, 10.0);
    let dims = Dims::square(10);
    for algorithm in every_kind(dims, &model) {
        for width in [1u64, 9, 64, 72] {
            let seeds: Vec<u64> = (0..width).collect();
            let sim = BatchSim::new(&model, dims, algorithm.clone(), &seeds);
            assert!(
                sim.simd_active(),
                "{width} replicas of {algorithm:?} run scalar"
            );
        }
    }
}

/// Past 64 replicas the sweep takes its lane groups in blocks; slot r of a
/// 72-replica batch still equals its lone run, for every kind.
#[test]
fn slots_of_a_72_replica_batch_match_single() {
    let model = zgb_ziff(0.5, 10.0);
    let dims = Dims::square(10);
    let seeds: Vec<u64> = (300..372).collect();
    for algorithm in every_kind(dims, &model) {
        assert_batch_matches_single(&model, dims, algorithm, &seeds, 40);
    }
}

/// Every library model the batch takes, on lattices that lie (almost)
/// entirely in the stencil's edge band, where `Stencil::at` goes through
/// the wrap tables: at reach 1 no site of a 2×2 lattice is interior, one of
/// a 3×3 and five of a 3×7. Every kind, SIMD (where the host and the
/// model's alias table allow it) and scalar, from a seeded random fill so
/// that the hop, annihilation and spin models have something to move.
#[test]
fn library_models_on_edge_band_lattices_match_single() {
    let models = [
        ("zgb", zgb_ziff(0.5, 10.0)),
        ("kuzovkov", kuzovkov_model(KuzovkovParams::default())),
        ("diffusion", diffusion_model(1.0)),
        ("triangular-diffusion", triangular_diffusion_model(1.0)),
        ("single-file", single_file_model(1.0)),
        ("ab-annihilation", ab_annihilation(1.0, 2.0)),
        ("ising", ising_glauber(2.0)),
    ];
    // Nine replicas: a full lane group and a padded one.
    let seeds: Vec<u64> = (70..79).collect();
    let steps = 40;
    for (name, model) in &models {
        for dims in [Dims::square(2), Dims::square(3), Dims::new(3, 7)] {
            let mut rng = rng_from_seed(u64::from(dims.sites()));
            let species = model.species().len();
            let cells = (0..dims.sites()).map(|_| rng.index(species) as u8);
            let lattice = Lattice::from_cells(dims, cells.collect());
            let mut kinds = vec![
                BatchAlgorithm::Ndca { shuffled: false },
                BatchAlgorithm::Ndca { shuffled: true },
            ];
            for selection in [
                ChunkSelection::InOrder,
                ChunkSelection::RandomOrder,
                ChunkSelection::RandomWithReplacement,
                ChunkSelection::WeightedByRates,
            ] {
                kinds.push(BatchAlgorithm::Pndca {
                    partition: greedy_coloring(dims, model),
                    selection,
                });
            }
            for algorithm in kinds {
                let want: Vec<Snapshot> = seeds
                    .iter()
                    .map(|&seed| single_snapshot_from(model, &lattice, &algorithm, seed, steps))
                    .collect();
                for simd in [true, false] {
                    let mut sim =
                        BatchSim::with_initial(model, &lattice, algorithm.clone(), &seeds);
                    sim.set_simd(simd);
                    sim.run_steps(steps, &mut NoBatchHook);
                    for (slot, want) in want.iter().enumerate() {
                        assert_eq!(
                            &batch_snapshot(&sim, slot),
                            want,
                            "{name} on {dims:?}, {algorithm:?}, simd {}: slot {slot}",
                            sim.simd_active()
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // ≥1000-step identity over (model, side, batch width, replica index).
    #[test]
    fn slot_matches_single_replica(
        kuzovkov in proptest::bool::ANY,
        side_sel in 0u32..2,
        width in 1usize..10,
        slot_frac in 0.0f64..1.0,
        seed in 0u64..1_000_000,
        steps in 1000u64..1300,
    ) {
        let model = if kuzovkov {
            kuzovkov_model(KuzovkovParams::default())
        } else {
            zgb_ziff(0.5, 10.0)
        };
        // Kuzovkov's 52 reaction types make debug-mode trials ~10x dearer;
        // the step floor still holds.
        let steps = if kuzovkov { steps / 4 + 1000 } else { steps };
        let side = [5u32, 10][side_sel as usize];
        let dims = Dims::square(side);
        let slot = ((width as f64 * slot_frac) as usize).min(width - 1);
        let seeds: Vec<u64> = (0..width as u64).map(|i| seed + i).collect();
        let algorithm = BatchAlgorithm::Ndca { shuffled: false };
        let mut sim = BatchSim::new(&model, dims, algorithm.clone(), &seeds);
        sim.run_steps(steps, &mut NoBatchHook);
        let want = single_snapshot(&model, dims, &algorithm, seeds[slot], steps);
        prop_assert_eq!(batch_snapshot(&sim, slot), want);
    }
}
