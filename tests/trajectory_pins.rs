//! Trajectory pins: one digest per executor × model × mode, recorded from
//! the requirement-walk ("naive") matcher before the executors were ported
//! onto `SiteKernel::fire`.
//!
//! Each digest folds the final lattice cells, `time.to_bits()`, the next
//! RNG word and — for the event-driven executors — every executed event.
//! The kernel must reproduce them bit for bit: the enabled check consumes
//! no randomness and the write order of a reaction's targets is part of
//! the change journal the enabled-set executors replay. On a mismatch the
//! failure message prints the whole computed table.

use surface_reactions::crates::ca::ndca::SweepOrder;
use surface_reactions::crates::dmc::events::{Event, EventHook};
use surface_reactions::crates::dmc::Frm;
use surface_reactions::prelude::*;

/// FNV-1a over little-endian words: stable, dependency-free, and a one-bit
/// change anywhere in the trajectory changes the digest.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    fn state(&mut self, state: &SimState) {
        self.bytes(state.lattice.cells());
        self.word(state.time.to_bits());
    }
}

impl EventHook for Digest {
    fn on_event(&mut self, event: Event) {
        if event.executed {
            self.word(event.time.to_bits());
            self.word(u64::from(event.site.0));
            self.word(event.reaction as u64);
        }
    }
}

/// Run one serial executor from the empty lattice on a seeded generator and
/// digest (every executed event, cells, clock, next RNG word). The events
/// matter: ZGB poisons on small lattices, after which the final state and
/// the RNG position no longer depend on the path taken.
fn serial(
    model: &Model,
    dims: Dims,
    seed: u64,
    run: impl FnOnce(&mut SimState, &mut SimRng, &mut Digest),
) -> u64 {
    let mut state = SimState::new(Lattice::filled(dims, 0), model);
    let mut rng = rng_from_seed(seed);
    let mut digest = Digest::new();
    run(&mut state, &mut rng, &mut digest);
    digest.state(&state);
    digest.word(rng.f64().to_bits());
    digest.0
}

/// A three-species model mixing single-site and all four pair orientations
/// (the family the splitting proptest draws from), including a state-
/// preserving transform so `old == new` journal entries are exercised.
fn mixed_pair_model() -> Model {
    ModelBuilder::new(&["*", "A", "B"])
        .reaction("adsA", 1.3, |r| {
            r.site((0, 0), "*", "A");
        })
        .reaction("pairE", 0.7, |r| {
            r.site((0, 0), "A", "B");
            r.site((1, 0), "*", "*");
        })
        .reaction("pairS", 2.1, |r| {
            r.site((0, 0), "B", "*");
            r.site((0, 1), "A", "B");
        })
        .reaction("pairW", 0.4, |r| {
            r.site((0, 0), "B", "A");
            r.site((-1, 0), "B", "*");
        })
        .reaction("pairN", 1.1, |r| {
            r.site((0, 0), "*", "B");
            r.site((0, -1), "*", "A");
        })
        .build()
}

fn computed() -> Vec<(String, u64)> {
    let zgb = zgb_ziff(0.45, 10.0);
    let kuzovkov = kuzovkov_model(KuzovkovParams::default());
    let mut out: Vec<(String, u64)> = Vec::new();

    // NDCA: order × time mode on ZGB, plus Kuzovkov.
    for order in [SweepOrder::RowMajor, SweepOrder::Shuffled] {
        for mode in [TimeMode::Discretized, TimeMode::Stochastic] {
            let d = serial(&zgb, Dims::square(12), 0xD1CE, |state, rng, events| {
                Ndca::new(&zgb)
                    .with_order(order)
                    .with_time_mode(mode)
                    .run_steps(state, rng, 1000, None, events);
            });
            out.push((format!("ndca/zgb/{order:?}/{mode:?}"), d));
        }
    }
    let d = serial(&kuzovkov, Dims::square(12), 0xD1CE, |state, rng, events| {
        Ndca::new(&kuzovkov).run_steps(state, rng, 300, None, events);
    });
    out.push(("ndca/kuzovkov".into(), d));

    // PNDCA: the four chunk selections.
    let dims10 = Dims::square(10);
    let five = five_coloring(dims10);
    for selection in [
        ChunkSelection::InOrder,
        ChunkSelection::RandomOrder,
        ChunkSelection::RandomWithReplacement,
        ChunkSelection::WeightedByRates,
    ] {
        // The weighted arm re-verifies its cache against a full scan every
        // step in debug builds; keep it affordable.
        let steps = if selection == ChunkSelection::WeightedByRates {
            250
        } else {
            1000
        };
        let d = serial(&zgb, dims10, 0xD1CE, |state, rng, events| {
            Pndca::new(&zgb, &five)
                .with_selection(selection)
                .run_steps(state, rng, steps, None, events);
        });
        out.push((format!("pndca/zgb/{selection}"), d));
    }

    // L-PNDCA: visit × L.
    for (visit, l) in [
        (ChunkVisit::SizeWeighted, 1),
        (ChunkVisit::SizeWeighted, 16),
        (ChunkVisit::RandomOnce, 16),
    ] {
        let d = serial(&zgb, dims10, 0xD1CE, |state, rng, events| {
            LPndca::new(&zgb, &five, l)
                .with_visit(visit)
                .run_steps(state, rng, 1000, None, events);
        });
        out.push((format!("lpndca/zgb/{visit}/L{l}"), d));
    }

    // Ω×T: weighted chunks × time mode.
    for weighted in [false, true] {
        for mode in [TimeMode::Discretized, TimeMode::Stochastic] {
            let d = serial(&zgb, dims10, 0xD1CE, |state, rng, events| {
                TPndca::new(&zgb, axis_type_partition(&zgb, dims10))
                    .with_time_mode(mode)
                    .with_weighted_chunks(weighted)
                    .run_steps(state, rng, 1000, None, events);
            });
            out.push((format!("tpndca/zgb/weighted={weighted}/{mode:?}"), d));
        }
    }

    // RSM: time modes.
    for mode in [TimeMode::Discretized, TimeMode::Stochastic] {
        let d = serial(&zgb, Dims::square(12), 0xFACE, |state, rng, events| {
            Rsm::new(&zgb)
                .with_time_mode(mode)
                .run_mc_steps(state, rng, 1000, None, events);
        });
        out.push((format!("rsm/zgb/{mode:?}"), d));
    }

    // VSSM: 1000 events, every event digested.
    for (name, model) in [("zgb", &zgb), ("kuzovkov", &kuzovkov)] {
        let d = serial(model, Dims::square(12), 0xFACE, |state, rng, events| {
            let mut vssm = Vssm::new(model, &state.lattice);
            let mut changes = Vec::new();
            for _ in 0..1000 {
                match vssm.step(state, rng, &mut changes) {
                    Some(e) => events.on_event(e),
                    None => break,
                }
            }
        });
        out.push((format!("vssm/{name}"), d));
    }

    // Segers decomposition (RSM + communication accounting).
    {
        let model = zgb_ziff(0.5, 2.0);
        let dims = Dims::new(20, 20);
        let d = serial(&model, dims, 23, |state, rng, events| {
            let mut seg = SegersDecomposition::new(&model, dims, 2, 2);
            let (stats, comm) = seg.run_mc_steps(state, rng, 5, None, events);
            for w in [
                stats.trials,
                stats.executed,
                comm.local_trials,
                comm.boundary_trials,
            ] {
                events.word(w);
            }
        });
        out.push(("segers/zgb/2x2".into(), d));
    }

    // Fractional-step KMC: grids × schedules, every event digested; the
    // executor draws from its own counter-keyed streams.
    let mixed = mixed_pair_model();
    let zgb_fs = zgb_ziff(0.5, 4.0);
    for (name, model) in [("zgb", &zgb_fs), ("mixed", &mixed)] {
        let dims = Dims::square(12);
        for grid in [(1u32, 1u32), (2, 2), (4, 2)] {
            let plan = SplitPlan::new(dims, grid.0, grid.1, model.interaction_radius())
                .expect("12 is divisible by 1, 2 and 4; sides exceed 2·radius");
            for schedule in [Schedule::Lie, Schedule::Strang] {
                let mut state = SimState::new(Lattice::filled(dims, 0), model);
                let mut digest = Digest::new();
                FractionalStepKmc::new(model, &plan, schedule, 0.25, 42).run_windows(
                    &mut state,
                    8,
                    None,
                    &mut digest,
                );
                digest.state(&state);
                out.push((
                    format!("fskmc/{name}/{}x{}/{schedule}", grid.0, grid.1),
                    digest.0,
                ));
            }
        }
    }

    // Stochastic time on the chunk schedules of PNDCA and L-PNDCA.
    let d = serial(&zgb, dims10, 0xD1CE, |state, rng, events| {
        Pndca::new(&zgb, &five)
            .with_selection(ChunkSelection::RandomOrder)
            .with_time_mode(TimeMode::Stochastic)
            .run_steps(state, rng, 1000, None, events);
    });
    out.push(("pndca/zgb/random-order/Stochastic".into(), d));
    let d = serial(&zgb, dims10, 0xD1CE, |state, rng, events| {
        LPndca::new(&zgb, &five, 16)
            .with_visit(ChunkVisit::SizeWeighted)
            .with_time_mode(TimeMode::Stochastic)
            .run_steps(state, rng, 1000, None, events);
    });
    out.push(("lpndca/zgb/size-weighted/L16/Stochastic".into(), d));

    // The event-driven executors: FRM's queue and tree-VSSM's index, 1000
    // events each, every event digested.
    for (name, model) in [("zgb", &zgb), ("kuzovkov", &kuzovkov)] {
        let d = serial(model, Dims::square(12), 0xFACE, |state, rng, events| {
            let mut frm = Frm::new(model, &state.lattice, state.time, rng);
            let mut changes = Vec::new();
            for _ in 0..1000 {
                match frm.step_until(state, rng, &mut changes, f64::INFINITY) {
                    Some(e) => events.on_event(e),
                    None => break,
                }
            }
        });
        out.push((format!("frm/{name}"), d));
    }
    for (name, model) in [("zgb", &zgb), ("kuzovkov", &kuzovkov)] {
        let d = serial(model, Dims::square(12), 0xFACE, |state, rng, events| {
            let mut tree = VssmTree::new(model, &state.lattice);
            let mut changes = Vec::new();
            for _ in 0..1000 {
                match tree.step_until(state, rng, &mut changes, f64::INFINITY) {
                    Some(e) => events.on_event(e),
                    None => break,
                }
            }
        });
        out.push((format!("vssm-tree/{name}"), d));
    }

    // Kuzovkov's 52 reaction types over a site list: a shuffled NDCA order
    // and PNDCA's random-order chunks of the greedy colouring.
    let dims12 = Dims::square(12);
    let d = serial(&kuzovkov, dims12, 0xD1CE, |state, rng, events| {
        Ndca::new(&kuzovkov)
            .with_order(SweepOrder::Shuffled)
            .run_steps(state, rng, 300, None, events);
    });
    out.push(("ndca/kuzovkov/Shuffled".into(), d));
    let greedy = greedy_coloring(dims12, &kuzovkov);
    let d = serial(&kuzovkov, dims12, 0xD1CE, |state, rng, events| {
        Pndca::new(&kuzovkov, &greedy)
            .with_selection(ChunkSelection::RandomOrder)
            .run_steps(state, rng, 300, None, events);
    });
    out.push(("pndca/kuzovkov/random-order".into(), d));
    out
}

/// Recorded at the parent of the `SiteKernel::fire` port, with the
/// since-removed naive-matching hatch set on every executor.
const PINS: &[(&str, u64)] = &[
    ("ndca/zgb/RowMajor/Discretized", 0x1709dc019e000ebb),
    ("ndca/zgb/RowMajor/Stochastic", 0xe3fb25972f1ca975),
    ("ndca/zgb/Shuffled/Discretized", 0xc163a0445486e867),
    ("ndca/zgb/Shuffled/Stochastic", 0x76e83a3f6c53f0f0),
    ("ndca/kuzovkov", 0xbc1baa7e9c631064),
    ("pndca/zgb/in-order", 0x49e8382044611cb8),
    ("pndca/zgb/random-order", 0x07f6147e5a858772),
    ("pndca/zgb/random-with-replacement", 0x7eac5f2d9e0b7a2c),
    ("pndca/zgb/weighted", 0x53a2705fd18924b0),
    ("lpndca/zgb/size-weighted/L1", 0x6b09c0087265d923),
    ("lpndca/zgb/size-weighted/L16", 0xe4c217ff4f00b3b0),
    ("lpndca/zgb/random-once/L16", 0x27de2a0c7a15f4fe),
    ("tpndca/zgb/weighted=false/Discretized", 0x7921327b75d67051),
    ("tpndca/zgb/weighted=false/Stochastic", 0x238e7440b26b1b4c),
    ("tpndca/zgb/weighted=true/Discretized", 0x6275897860d92ef0),
    ("tpndca/zgb/weighted=true/Stochastic", 0x238e7440b26b1b4c),
    ("rsm/zgb/Discretized", 0xc43aa7c6fe2d30fa),
    ("rsm/zgb/Stochastic", 0xfb2c66ab1dda3c4d),
    ("vssm/zgb", 0x741ee71c5b2452a6),
    ("vssm/kuzovkov", 0x20e04c0590803417),
    ("segers/zgb/2x2", 0x89010b61cef16c6a),
    ("fskmc/zgb/1x1/lie", 0x65a6fe4535fa4186),
    ("fskmc/zgb/1x1/strang", 0x65a6fe4535fa4186),
    ("fskmc/zgb/2x2/lie", 0xa052211d3bdadcae),
    ("fskmc/zgb/2x2/strang", 0x8acd22c9a6f41e20),
    ("fskmc/zgb/4x2/lie", 0x3b12d32e44f4fbbc),
    ("fskmc/zgb/4x2/strang", 0x9a5284cfc92d154f),
    ("fskmc/mixed/1x1/lie", 0xecd51bf8f9ca7015),
    ("fskmc/mixed/1x1/strang", 0xecd51bf8f9ca7015),
    ("fskmc/mixed/2x2/lie", 0x5a0af2aee24908ef),
    ("fskmc/mixed/2x2/strang", 0x197514e6671da63f),
    ("fskmc/mixed/4x2/lie", 0x57a35d6ad606e592),
    ("fskmc/mixed/4x2/strang", 0x3d2bc87b17841131),
    // Recorded before PNDCA and L-PNDCA shared NDCA's trial loop.
    ("pndca/zgb/random-order/Stochastic", 0x28a6a599de3a30d0),
    (
        "lpndca/zgb/size-weighted/L16/Stochastic",
        0x2d050476546c19c2,
    ),
    // Recorded before psr-rng exported its word-level PCG step and alias
    // draw (the generator both event-driven executors draw from).
    ("frm/zgb", 0x4789989f99f6bf44),
    ("frm/kuzovkov", 0xaea66b6ffdaf8578),
    ("vssm-tree/zgb", 0x84f1a724e69fc344),
    ("vssm-tree/kuzovkov", 0x38360ed6039bfff0),
    // Recorded before the serial sweep drew its reactions in lanes of one
    // stream and fired interior sites through compiled deltas.
    ("ndca/kuzovkov/Shuffled", 0x07d0a64a7d0dd5a2),
    ("pndca/kuzovkov/random-order", 0xb19480b7bfcff3cd),
];

#[test]
fn every_executor_reproduces_its_recorded_naive_trajectory() {
    let computed = computed();
    let table: String = computed
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(
        computed.len(),
        PINS.len(),
        "pin table out of date; computed:\n{table}"
    );
    for ((name, digest), (pin_name, pin)) in computed.iter().zip(PINS) {
        assert_eq!(name, pin_name, "pin order changed; computed:\n{table}");
        assert_eq!(
            digest, pin,
            "{name}: trajectory diverged from the recorded naive run; computed:\n{table}"
        );
    }
}
