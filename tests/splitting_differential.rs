//! Differential suite for the fractional-step operator-splitting executor
//! (`psr_ca::splitting`), pinning its three load-bearing contracts:
//!
//! - **degeneracy** — with a single block the fractional-step loop *is*
//!   plain VSSM: same lattice, same event times (to the bit), same final
//!   clock, under either schedule;
//! - **consistency** — as `Δt → 0` the Lie scheme converges to DMC
//!   observables (TOST equivalence on ZGB coverages), and at a matched
//!   coarse `Δt` the Strang composition's `O(Δt²)` bias is smaller than
//!   Lie's `O(Δt)` bias on a fixture with a nonzero commutator between
//!   block generators;
//! - **determinism** — the trajectory is a pure function of
//!   `(seed, partition, schedule, window)`: splitting a run into separate
//!   `run_windows` calls, or resuming a fresh executor at a window
//!   boundary, changes nothing (property-tested over random models,
//!   block grids and windows; the kernel's agreement with the recorded
//!   requirement-walk trajectories is pinned in `trajectory_pins.rs`).

use proptest::prelude::*;
use surface_reactions::crates::ca::splitting::FS_STREAM_NAMESPACE;
use surface_reactions::crates::dmc::events::{Event, EventHook, NoHook};
use surface_reactions::crates::stats::{tost_mean_difference, Verdict};
use surface_reactions::prelude::*;

/// Records `(time bits, site, reaction)` per executed event — bit equality
/// of two recordings means the trajectories are the *same*, not similar.
#[derive(Default)]
struct RecordEvents(Vec<(u64, u32, usize)>);

impl EventHook for RecordEvents {
    fn on_event(&mut self, event: Event) {
        self.0
            .push((event.time.to_bits(), event.site.0, event.reaction));
    }
}

#[test]
fn single_chunk_fskmc_is_bit_identical_to_plain_vssm() {
    let model = zgb_ziff(0.5, 4.0);
    let dims = Dims::square(12);
    let plan = SplitPlan::new(dims, 1, 1, model.interaction_radius()).expect("plan");
    let window = 0.3;
    let windows = 10u64;
    let seed = 99;

    for schedule in [Schedule::Lie, Schedule::Strang] {
        let mut fs_state = SimState::new(Lattice::filled(dims, 0), &model);
        let mut fs_events = RecordEvents::default();
        let mut exec = FractionalStepKmc::new(&model, &plan, schedule, window, seed);
        assert_eq!(exec.slots_per_window(), 1, "one group degenerates to Lie");
        exec.run_windows(&mut fs_state, windows, None, &mut fs_events);

        // Reference: plain VSSM, restarted at every window boundary on the
        // identical `(window, slot 0, block 0)` RNG stream. The stream
        // keying is the public contract (`FractionalStepKmc::stream`), and
        // the factory salt is `FS_STREAM_NAMESPACE`.
        let factory = StreamFactory::new(seed ^ FS_STREAM_NAMESPACE);
        let mut ref_state = SimState::new(Lattice::filled(dims, 0), &model);
        let mut ref_events = RecordEvents::default();
        for w in 0..windows {
            let mut rng = factory.stream(w);
            let mut vssm = Vssm::new(&model, &ref_state.lattice);
            ref_state.time = window * w as f64;
            vssm.run_until(
                &mut ref_state,
                &mut rng,
                window * (w + 1) as f64,
                None,
                &mut ref_events,
            );
        }

        assert!(!fs_events.0.is_empty(), "{schedule}: no events executed");
        assert_eq!(
            fs_events.0, ref_events.0,
            "{schedule}: event sequence diverged from plain VSSM"
        );
        assert_eq!(fs_state.lattice, ref_state.lattice, "{schedule}");
        assert_eq!(fs_state.time.to_bits(), ref_state.time.to_bits());
    }
}

/// Tail-mean CO coverage of one 40×40 ZGB replica (same job shape as the
/// validate tier's statistical arm).
fn zgb_tail_theta_co(algorithm: Algorithm, seed: u64) -> f64 {
    let out = Simulator::new(zgb_ziff(0.5, 10.0))
        .dims(Dims::square(40))
        .seed(seed)
        .algorithm(algorithm)
        .sample_dt(0.25)
        .run_until(6.0);
    out.series(1).after(3.0).mean().expect("tail samples")
}

#[test]
fn small_window_lie_converges_to_dmc_observables() {
    // Δt → 0 consistency: at a fine window even the first-order Lie
    // scheme must be statistically equivalent to the DMC reference.
    let replicas = 10u64;
    let dmc: Vec<f64> = (0..replicas)
        .map(|i| zgb_tail_theta_co(Algorithm::Rsm, 100 + i))
        .collect();
    let lie = Algorithm::Fskmc {
        gx: 2,
        gy: 2,
        schedule: Schedule::Lie,
        window: 0.05,
    };
    let fskmc: Vec<f64> = (0..replicas)
        .map(|i| zgb_tail_theta_co(lie.clone(), 200 + i))
        .collect();
    let tost = tost_mean_difference(&dmc, &fskmc, 0.03, 0.05);
    assert_eq!(
        tost.verdict,
        Verdict::Equivalent,
        "diff = {:+.4}, CI [{:+.4}, {:+.4}]",
        tost.diff,
        tost.ci_lo,
        tost.ci_hi
    );
}

/// Ensemble mean of the final CO coverage under one splitting config.
fn mean_final_theta_co(
    model: &Model,
    dims: Dims,
    grid: (u32, u32),
    schedule: Schedule,
    window: f64,
    replicas: u64,
    seed0: u64,
) -> f64 {
    let plan = SplitPlan::new(dims, grid.0, grid.1, model.interaction_radius()).expect("plan");
    let mut acc = 0.0;
    for i in 0..replicas {
        let mut state = SimState::new(Lattice::filled(dims, 0), model);
        FractionalStepKmc::new(model, &plan, schedule, window, seed0 + i).run_until(
            &mut state,
            3.0,
            None,
            &mut NoHook,
        );
        acc += state.coverage.fraction(1);
    }
    acc / replicas as f64
}

#[test]
fn strang_error_is_below_lie_error_at_a_matched_coarse_window() {
    // The fixture needs a nonzero commutator between block generators —
    // ZGB's dimer adsorption and CO+O reaction straddle block boundaries,
    // and a 4×4 grid on a 12×12 lattice makes boundary sites the majority,
    // so at Δt = 1.5 the splitting bias (Lie ≈ 0.03, Strang ≈ 0.01 in CO
    // coverage) dominates the ensemble-mean noise (SE ≈ 0.004 at 128
    // replicas).
    let model = zgb_ziff(0.5, 8.0);
    let dims = Dims::square(12);
    let replicas = 128;
    // A single block is exact KMC whatever the window: the unbiased
    // reference for both schedules.
    let exact = mean_final_theta_co(&model, dims, (1, 1), Schedule::Lie, 1.5, replicas, 9000);
    let lie = mean_final_theta_co(&model, dims, (4, 4), Schedule::Lie, 1.5, replicas, 1000);
    let strang = mean_final_theta_co(&model, dims, (4, 4), Schedule::Strang, 1.5, replicas, 2000);
    let (err_lie, err_strang) = ((lie - exact).abs(), (strang - exact).abs());
    assert!(
        err_strang < err_lie,
        "Strang error {err_strang:.4} not below Lie error {err_lie:.4} \
         (exact {exact:.4}, lie {lie:.4}, strang {strang:.4})"
    );
}

#[test]
fn trajectories_are_pure_functions_of_seed_partition_and_schedule() {
    let model = zgb_ziff(0.5, 4.0);
    let dims = Dims::square(12);
    let plan = SplitPlan::new(dims, 2, 2, model.interaction_radius()).expect("plan");
    for schedule in [Schedule::Lie, Schedule::Strang] {
        // One uninterrupted run of 10 windows...
        let mut whole = SimState::new(Lattice::filled(dims, 0), &model);
        let mut whole_events = RecordEvents::default();
        FractionalStepKmc::new(&model, &plan, schedule, 0.2, 5).run_windows(
            &mut whole,
            10,
            None,
            &mut whole_events,
        );

        // ...must match the same executor driven in two calls...
        let mut split = SimState::new(Lattice::filled(dims, 0), &model);
        let mut split_events = RecordEvents::default();
        let mut exec = FractionalStepKmc::new(&model, &plan, schedule, 0.2, 5);
        exec.run_windows(&mut split, 3, None, &mut split_events);
        exec.run_windows(&mut split, 7, None, &mut split_events);
        assert_eq!(whole_events.0, split_events.0, "{schedule}: split run");
        assert_eq!(whole.lattice, split.lattice);
        assert_eq!(whole.time.to_bits(), split.time.to_bits());

        // ...and a *fresh* executor resumed at a window boundary with
        // nothing but (lattice, window index) — the checkpoint contract.
        let mut resumed = SimState::new(Lattice::filled(dims, 0), &model);
        let mut resumed_events = RecordEvents::default();
        FractionalStepKmc::new(&model, &plan, schedule, 0.2, 5).run_windows(
            &mut resumed,
            4,
            None,
            &mut resumed_events,
        );
        let mut second = FractionalStepKmc::new(&model, &plan, schedule, 0.2, 5);
        second.set_start_window(4);
        second.run_windows(&mut resumed, 6, None, &mut resumed_events);
        assert_eq!(whole_events.0, resumed_events.0, "{schedule}: resume");
        assert_eq!(whole.lattice, resumed.lattice);
        assert_eq!(whole.time.to_bits(), resumed.time.to_bits());
    }
}

/// A random model whose patterns are single sites or von Neumann pairs
/// (interaction radius ≤ 1), the same family the CA property tests use.
fn model_strategy() -> impl Strategy<Value = Model> {
    prop::collection::vec(
        (
            prop::bool::ANY,                  // pair?
            0u32..4,                          // orientation
            (0u8..3, 0u8..3, 0u8..3, 0u8..3), // src/tgt for both sites
            0.01f64..5.0,
        ),
        1..6,
    )
    .prop_map(|specs| {
        let names = ["*", "A", "B"];
        let mut b = ModelBuilder::new(&names);
        for (i, (pair, orient, (s0, t0, s1, t1), rate)) in specs.into_iter().enumerate() {
            let name = format!("r{i}");
            b = b.reaction(name, rate, |r| {
                r.site((0, 0), names[s0 as usize], names[t0 as usize]);
                if pair {
                    let off = match orient {
                        0 => (1, 0),
                        1 => (0, 1),
                        2 => (-1, 0),
                        _ => (0, -1),
                    };
                    r.site(off, names[s1 as usize], names[t1 as usize]);
                }
            });
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Over random models × block grids × windows × schedules: a split
    // run equals an uninterrupted one, window boundaries are pure
    // functions of the window index, and the incremental coverage stays
    // consistent with the lattice.
    #[test]
    fn fskmc_invariants_hold_for_random_models_partitions_and_windows(
        model in model_strategy(),
        grid_idx in 0usize..4,
        window in 0.05f64..0.8,
        strang in prop::bool::ANY,
        seed in 0u64..1_000_000,
    ) {
        let grid = [(1u32, 1u32), (2, 1), (2, 2), (4, 2)][grid_idx];
        let schedule = if strang { Schedule::Strang } else { Schedule::Lie };
        let dims = Dims::square(12);
        let plan = SplitPlan::new(dims, grid.0, grid.1, model.interaction_radius())
            .expect("12 is divisible by 1, 2 and 4; sides exceed 2·radius");
        let windows = 4u64;

        let run = |split: bool| {
            let mut state = SimState::new(Lattice::filled(dims, 0), &model);
            let mut events = RecordEvents::default();
            let mut exec = FractionalStepKmc::new(&model, &plan, schedule, window, seed);
            if split {
                exec.run_windows(&mut state, 1, None, &mut events);
                exec.run_windows(&mut state, windows - 1, None, &mut events);
            } else {
                exec.run_windows(&mut state, windows, None, &mut events);
            }
            (state, events.0)
        };

        let (whole, whole_events) = run(false);
        let (split, split_events) = run(true);

        prop_assert_eq!(&whole_events, &split_events, "whole vs split run");
        prop_assert_eq!(&whole.lattice, &split.lattice);
        prop_assert_eq!(whole.time.to_bits(), (window * windows as f64).to_bits());
        prop_assert!(whole.coverage.matches(&whole.lattice));
    }
}
