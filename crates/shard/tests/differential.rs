//! The determinism contract of the sharded executor, pinned differentially:
//! on the same `(seed, partition)`, sharding the lattice over any worker
//! grid — with either scheduler — produces the *bit-identical* trajectory
//! of the shared-lattice `ParallelPndca`.

use proptest::prelude::*;
use psr_ca::partition_builder::{five_coloring, greedy_coloring, seven_coloring};
use psr_ca::pndca::ChunkSelection;
use psr_ca::Partition;
use psr_dmc::sim::SimState;
use psr_lattice::{Dims, Lattice, Site};
use psr_model::library::zgb::zgb_ziff;
use psr_model::{Model, ModelBuilder};
use psr_parallel::ParallelPndca;
use psr_shard::{ScheduleMode, ShardGrid, ShardedPndca, Wire};

/// Run the shared-lattice reference executor.
fn run_shared(
    model: &Model,
    partition: &Partition,
    lattice: &Lattice,
    selection: ChunkSelection,
    seed: u64,
    steps: u64,
) -> (SimState, u64, u64) {
    let mut exec = ParallelPndca::new(model, partition, 2, seed).with_selection(selection);
    let mut state = SimState::new(lattice.clone(), model);
    let stats = exec.run_steps(&mut state, steps, None);
    (state, stats.trials, stats.executed)
}

/// Run the sharded executor on `grid` with the given scheduler.
#[allow(clippy::too_many_arguments)]
fn run_sharded(
    model: &Model,
    partition: &Partition,
    lattice: &Lattice,
    selection: ChunkSelection,
    seed: u64,
    steps: u64,
    grid: ShardGrid,
    mode: ScheduleMode,
) -> (SimState, u64, u64) {
    let mut exec = ShardedPndca::new(model, partition, grid, seed)
        .with_selection(selection)
        .with_mode(mode);
    let mut state = SimState::new(lattice.clone(), model);
    let stats = exec.run_steps(&mut state, steps, None);
    assert!(state.coverage.matches(&state.lattice));
    (state, stats.trials, stats.executed)
}

fn assert_identical(
    reference: &(SimState, u64, u64),
    sharded: &(SimState, u64, u64),
    context: &str,
) {
    assert_eq!(
        reference.0.lattice, sharded.0.lattice,
        "lattice diverged: {context}"
    );
    assert_eq!(reference.1, sharded.1, "trials diverged: {context}");
    assert_eq!(reference.2, sharded.2, "executed diverged: {context}");
    assert!(
        (reference.0.time - sharded.0.time).abs() < 1e-12,
        "time diverged: {context}"
    );
}

const ALL_SELECTIONS: [ChunkSelection; 4] = [
    ChunkSelection::InOrder,
    ChunkSelection::RandomOrder,
    ChunkSelection::RandomWithReplacement,
    ChunkSelection::WeightedByRates,
];

/// The headline acceptance test: a long ZGB run (1000 steps = 400k trials)
/// on a 2×2 shard grid, for every chunk-selection strategy, both schedulers.
#[test]
fn zgb_1000_steps_matches_shared_lattice() {
    let model = zgb_ziff(0.5, 2.0);
    let d = Dims::square(20);
    let partition = five_coloring(d);
    let lattice = Lattice::filled(d, 0);
    for selection in ALL_SELECTIONS {
        let reference = run_shared(&model, &partition, &lattice, selection, 2024, 1000);
        assert!(reference.2 > 0, "reference run executed nothing");
        for mode in [ScheduleMode::Inline, ScheduleMode::Threaded] {
            let sharded = run_sharded(
                &model,
                &partition,
                &lattice,
                selection,
                2024,
                1000,
                ShardGrid::new(2, 2),
                mode,
            );
            assert_identical(&reference, &sharded, &format!("{selection:?} / {mode:?}"));
        }
    }
}

/// Degenerate and wrapping grids: 1×1 (every direction a self-send), 1×N
/// and N×1 (double wrap on one axis), 2×2.
#[test]
fn trajectories_invariant_of_shard_grid() {
    let model = zgb_ziff(0.55, 3.0);
    let d = Dims::new(20, 10);
    let partition = five_coloring(d);
    let lattice = Lattice::filled(d, 0);
    for selection in ALL_SELECTIONS {
        let reference = run_shared(&model, &partition, &lattice, selection, 7, 60);
        for (gx, gy) in [(1, 1), (1, 2), (2, 1), (4, 1), (2, 2), (4, 2)] {
            let sharded = run_sharded(
                &model,
                &partition,
                &lattice,
                selection,
                7,
                60,
                ShardGrid::new(gx, gy),
                ScheduleMode::Inline,
            );
            assert_identical(&reference, &sharded, &format!("{selection:?} on {gx}x{gy}"));
        }
    }
}

/// Resuming at the recorded absolute step reproduces the uninterrupted
/// trajectory (the engine's checkpoint path).
#[test]
fn split_run_matches_uninterrupted() {
    let model = zgb_ziff(0.5, 2.0);
    let d = Dims::square(20);
    let partition = five_coloring(d);
    let lattice = Lattice::filled(d, 0);
    let grid = ShardGrid::new(2, 2);
    let full = run_sharded(
        &model,
        &partition,
        &lattice,
        ChunkSelection::InOrder,
        5,
        40,
        grid,
        ScheduleMode::Inline,
    );
    let mut exec = ShardedPndca::new(&model, &partition, grid, 5);
    let mut state = SimState::new(lattice.clone(), &model);
    exec.run_steps(&mut state, 15, None);
    let mut resumed = ShardedPndca::new(&model, &partition, grid, 5);
    resumed.set_start_step(15);
    resumed.run_steps(&mut state, 25, None);
    assert_eq!(state.lattice, full.0.lattice);
}

/// Measured communication: trials split interior/boundary, frames counted
/// only between distinct workers, and a 1×1 grid (self-sends only) pays no
/// messages at all.
#[test]
fn comm_stats_are_measured() {
    let model = zgb_ziff(0.5, 2.0);
    let d = Dims::square(20);
    let partition = five_coloring(d);
    let lattice = Lattice::filled(d, 0);
    let mut solo = ShardedPndca::new(&model, &partition, ShardGrid::new(1, 1), 3)
        .with_mode(ScheduleMode::Inline);
    let mut state = SimState::new(lattice.clone(), &model);
    solo.run_steps(&mut state, 10, None);
    let comm = solo.comm_stats();
    assert_eq!(comm.halo_messages, 0, "self-sends must not count");
    assert_eq!(comm.halo_bytes, 0);
    assert_eq!(comm.local_trials + comm.boundary_trials, 10 * 400);

    let mut sharded = ShardedPndca::new(&model, &partition, ShardGrid::new(2, 2), 3)
        .with_mode(ScheduleMode::Inline);
    let mut state = SimState::new(lattice.clone(), &model);
    sharded.run_steps(&mut state, 10, None);
    let comm = sharded.comm_stats();
    // 2×2 blocks of 10×10, radius 1: the static boundary fraction is
    // 1 − (8/10)² = 0.36 of all trials, exactly (sweeps visit every site).
    assert_eq!(comm.local_trials + comm.boundary_trials, 10 * 400);
    assert_eq!(comm.boundary_trials, (10.0f64 * 400.0 * 0.36) as u64);
    // 4 workers × 8 directions × 2 frame kinds × 5 sweeps × 10 steps, all
    // between distinct workers on a 2×2 grid.
    assert_eq!(comm.halo_messages, 4 * 8 * 2 * 5 * 10);
    assert!(
        comm.halo_bytes > comm.halo_messages * 22,
        "headers + payload"
    );
    // Per-reaction execution counts are surfaced and sum to `executed`.
    let per_reaction: u64 = sharded.reaction_executions().iter().sum();
    assert!(per_reaction > 0);
}

#[test]
#[should_panic(expected = "MAX_KERNEL_REACTIONS = 64")]
fn more_reaction_types_than_masks_track_are_rejected_at_construction() {
    let mut builder = ModelBuilder::new(&["*", "A"]);
    for i in 0..=psr_kernel::MAX_KERNEL_REACTIONS {
        builder = builder.reaction(format!("r{i}"), 1.0, |r| {
            r.site((0, 0), "*", "A");
        });
    }
    let model = builder.build();
    let partition = five_coloring(Dims::square(20));
    ShardedPndca::new(&model, &partition, ShardGrid::new(2, 2), 1);
}

/// A radius-0 model (single-site patterns only): empty halo strips, no
/// write-backs, still identical to the shared executor.
#[test]
fn radius_zero_model_needs_no_halo() {
    let model = ModelBuilder::new(&["*", "A"])
        .reaction("ads", 1.0, |r| {
            r.site((0, 0), "*", "A");
        })
        .reaction("des", 0.5, |r| {
            r.site((0, 0), "A", "*");
        })
        .build();
    let d = Dims::square(12);
    let partition = greedy_coloring(d, &model);
    let lattice = Lattice::filled(d, 0);
    for selection in [ChunkSelection::InOrder, ChunkSelection::WeightedByRates] {
        let reference = run_shared(&model, &partition, &lattice, selection, 11, 50);
        let sharded = run_sharded(
            &model,
            &partition,
            &lattice,
            selection,
            11,
            50,
            ShardGrid::new(3, 2),
            ScheduleMode::Inline,
        );
        assert_identical(&reference, &sharded, &format!("radius 0, {selection:?}"));
    }
}

/// A toy model family with tunable rates for the property test.
fn random_model(ads: f64, des: f64, pair: f64) -> Model {
    ModelBuilder::new(&["*", "A", "B"])
        .reaction("adsA", ads, |r| {
            r.site((0, 0), "*", "A");
        })
        .reaction("adsB", 1.0, |r| {
            r.site((0, 0), "*", "B");
        })
        .reaction("desA", des, |r| {
            r.site((0, 0), "A", "*");
        })
        .reaction("react", pair, |r| {
            r.site((0, 0), "A", "*");
            r.site((1, 0), "B", "*");
        })
        .reaction("swap", 0.7, |r| {
            r.site((0, 0), "B", "A");
            r.site((0, 1), "*", "B");
        })
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Random models, lattice sizes, occupancies, grids (including 1×1,
    // 1×N, N×M), selections, and seeds: the sharded trajectory always
    // equals the shared-lattice one.
    #[test]
    fn sharded_matches_shared_on_random_runs(
        seed in 0u64..1_000_000,
        ads in 0.3f64..3.0,
        des in 0.1f64..1.0,
        pair in 0.5f64..5.0,
        use_zgb in proptest::bool::ANY,
        seven in proptest::bool::ANY,
        geometry_idx in 0usize..6,
        fill in 0u8..3,
        selection_idx in 0usize..4,
        steps in 5u64..20,
    ) {
        // Lattice sides divisible by 5 (the coloring) and by the grid with
        // blocks wider than 2r: degenerate 1×1, strip 1×N / N×1, and
        // general N×M grids. The 35-side entry is also divisible by 7 so
        // the 7-coloring can exercise it.
        const GEOMETRIES: [(u32, u32, u32); 6] = [
            (20, 1, 1),
            (20, 1, 2),
            (20, 4, 1),
            (20, 2, 2),
            (20, 4, 2),
            (35, 5, 7),
        ];
        let (side, gx, gy) = GEOMETRIES[geometry_idx];
        let model = if use_zgb {
            zgb_ziff(0.4 + ads / 10.0, pair)
        } else {
            random_model(ads, des, pair)
        };
        let d = Dims::square(side);
        let partition = if seven && side % 7 == 0 {
            seven_coloring(d)
        } else {
            five_coloring(d)
        };
        // A mixed starting surface so pair reactions fire early.
        let mut lattice = Lattice::filled(d, 0);
        let species = model.species().len() as u32;
        for i in 0..lattice.len() {
            let s = ((i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(seed as u32)
                >> 7)
                % (species + 1);
            lattice.set(Site(i as u32), (s % species).min(fill as u32) as u8);
        }
        let selection = ALL_SELECTIONS[selection_idx];
        let reference = run_shared(&model, &partition, &lattice, selection, seed, steps);
        let sharded = run_sharded(
            &model, &partition, &lattice, selection, seed, steps,
            ShardGrid::new(gx, gy), ScheduleMode::Inline,
        );
        assert_identical(&reference, &sharded, &format!("{selection:?} {gx}x{gy} side {side}"));
        // Spot-check the threaded scheduler on a subset (it is slower).
        if seed % 5 == 0 {
            let threaded = run_sharded(
                &model, &partition, &lattice, selection, seed, steps,
                ShardGrid::new(gx, gy), ScheduleMode::Threaded,
            );
            assert_identical(&reference, &threaded, "threaded");
        }
        // And the socket transport on a sparser subset (process spawns
        // per case): random models must survive the CONFIG round trip.
        if seed % 11 == 0 {
            let socket = run_sharded(
                &model, &partition, &lattice, selection, seed, steps,
                ShardGrid::new(gx, gy), ScheduleMode::Socket(Wire::Unix),
            );
            assert_identical(&reference, &socket, "socket");
        }
    }
}
