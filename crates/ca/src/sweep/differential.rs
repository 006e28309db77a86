//! Lanes ≡ scalar: the lane sweep against the scalar trial loop, trial for
//! trial — every event the hook sees, the generator words, the clock bits
//! and the lattice — on every library model, on sides below, at and past
//! one block of lanes, for NDCA in both orders and PNDCA under all four
//! chunk selections. On a host without AVX-512 both sides are the scalar
//! loop and agree trivially; `lanes_are_selected_where_the_host_has_them`
//! fails when the host has the lanes and a sweep did not take them.

use proptest::prelude::*;

use crate::ndca::SweepOrder;
use crate::pndca::ChunkSelection;
use crate::{greedy_coloring, Ndca, Pndca};
use psr_dmc::events::CollectHook;
use psr_dmc::sim::SimState;
use psr_lattice::{Dims, Lattice};
use psr_model::library::{
    ab_annihilation, diffusion_model, ising_glauber, kuzovkov_model, triangular_diffusion_model,
    zgb_ziff, KuzovkovParams,
};
use psr_model::Model;
use psr_rng::{rng_from_seed, SimRng};

fn models() -> Vec<Model> {
    vec![
        zgb_ziff(0.45, 10.0),
        kuzovkov_model(KuzovkovParams::default()),
        diffusion_model(1.0),
        triangular_diffusion_model(1.0),
        ab_annihilation(1.0, 2.0),
        ising_glauber(2.0),
    ]
}

/// The executors: NDCA row-major and shuffled, then PNDCA by selection.
const EXECUTORS: usize = 6;

/// Everything a trajectory comparison needs, bit-exact.
type Run = (Vec<psr_dmc::Event>, [u64; 2], u64, Vec<u8>);

/// `steps` steps of executor `which` from `lattice` and `rng`, through the
/// lanes or (`scalar`) the scalar loop.
fn run(
    model: &Model,
    lattice: &Lattice,
    rng: &SimRng,
    which: usize,
    steps: u64,
    scalar: bool,
) -> Run {
    let mut state = SimState::new(lattice.clone(), model);
    let mut rng = rng.clone();
    let mut hook = CollectHook::default();
    let partition = greedy_coloring(lattice.dims(), model);
    if which < 2 {
        let order = [SweepOrder::RowMajor, SweepOrder::Shuffled][which];
        let ndca = Ndca::new(model).with_order(order);
        let mut ndca = if scalar { ndca.without_lanes() } else { ndca };
        ndca.run_steps(&mut state, &mut rng, steps, None, &mut hook);
    } else {
        let selection = [
            ChunkSelection::InOrder,
            ChunkSelection::RandomOrder,
            ChunkSelection::RandomWithReplacement,
            ChunkSelection::WeightedByRates,
        ][which - 2];
        let pndca = Pndca::new(model, &partition).with_selection(selection);
        let mut pndca = if scalar { pndca.without_lanes() } else { pndca };
        pndca.run_steps(&mut state, &mut rng, steps, None, &mut hook);
    }
    (
        hook.events,
        rng.state(),
        state.time.to_bits(),
        state.lattice.cells().to_vec(),
    )
}

fn random_lattice(model: &Model, dims: Dims, seed: u64) -> Lattice {
    let mut rng = rng_from_seed(seed);
    let s = model.species().len();
    let cells = (0..dims.sites()).map(|_| rng.index(s) as u8).collect();
    Lattice::from_cells(dims, cells)
}

fn assert_lanes_match(model: &Model, lattice: &Lattice, rng: &SimRng, which: usize, steps: u64) {
    let lanes = run(model, lattice, rng, which, steps, false);
    let scalar = run(model, lattice, rng, which, steps, true);
    let dims = lattice.dims();
    assert!(
        lanes == scalar,
        "executor {which} on {dims:?}: lanes and scalar diverge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lanes_match_the_scalar_loop(
        m in 0..6usize,
        side in 0..4usize,
        which in 0..EXECUTORS,
        seed in 0..u64::MAX,
    ) {
        let model = &models()[m];
        let dims = [Dims::new(2, 2), Dims::new(3, 7), Dims::new(9, 9), Dims::new(10, 13)][side];
        let lattice = random_lattice(model, dims, seed);
        assert_lanes_match(model, &lattice, &rng_from_seed(seed ^ 0x5EED), which, 12);
    }
}

/// A stream state whose `k`-th next draw comes from LCG state 0: its
/// bucket word is 0, in the short interval of every table size that does
/// not divide 2³².
fn planted(k: u64) -> SimRng {
    let inc = rng_from_seed(3).state()[1];
    let (_, plus) = psr_rng::jump(0u64.wrapping_sub(2 * k), inc);
    SimRng::from_state([plus, inc]).expect("odd increment")
}

#[test]
fn short_interval_draws_match_in_every_lane() {
    // ZGB (7 types, the table in a register) and Kuzovkov (52, gathered),
    // row-major and shuffled NDCA; the shuffle's draws come first, so the
    // planted draw lands in a lane of the sweep only for row-major.
    for model in [
        zgb_ziff(0.45, 10.0),
        kuzovkov_model(KuzovkovParams::default()),
    ] {
        let lattice = random_lattice(&model, Dims::new(9, 9), 17);
        for k in 0..8 {
            let before = super::lanes_counts();
            for which in 0..EXECUTORS {
                assert_lanes_match(&model, &lattice, &planted(k), which, 3);
            }
            let after = super::lanes_counts();
            if super::lanes_selected(&model) {
                assert!(
                    after.1 > before.1,
                    "lane {k}: no short-interval block was taken"
                );
            }
        }
    }
}

#[test]
fn lanes_are_selected_where_the_host_has_them() {
    let model = zgb_ziff(0.45, 10.0);
    #[cfg(target_arch = "x86_64")]
    let has = std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq");
    #[cfg(not(target_arch = "x86_64"))]
    let has = false;
    if !has {
        eprintln!("host without avx512f+dq: the lane sweep is not built here");
        return;
    }
    assert!(super::lanes_selected(&model));
    let before = super::lanes_counts();
    let lattice = random_lattice(&model, Dims::new(16, 16), 5);
    for which in 0..EXECUTORS {
        run(&model, &lattice, &rng_from_seed(9), which, 2, false);
    }
    let after = super::lanes_counts();
    assert!(
        after.0 >= before.0 + EXECUTORS as u64,
        "a sweep took the scalar loop on a host with AVX-512"
    );
}
