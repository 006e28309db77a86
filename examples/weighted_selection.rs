//! Rate-weighted chunk selection (§5 strategy 4) end to end: sequential
//! PNDCA served by the incremental propensity cache, the same strategy on
//! the threaded executor, and the Ω×T weighted chunk draw.
//!
//! ```text
//! cargo run --release --example weighted_selection
//! ```

use surface_reactions::crates::ca::pndca::ChunkSelection;
use surface_reactions::crates::ca::tpndca::{axis_type_partition, TPndca};
use surface_reactions::crates::dmc::events::NoHook;
use surface_reactions::prelude::*;

fn main() {
    let model = zgb_ziff(0.45, 10.0);
    let dims = Dims::square(60);
    let partition = five_coloring(dims);

    // Sequential weighted PNDCA: every draw is served from the incremental
    // cache (debug builds re-verify it against a full scan after each step).
    let mut pndca = Pndca::new(&model, &partition).with_selection(ChunkSelection::WeightedByRates);
    let mut state = SimState::new(Lattice::filled(dims, 0), &model);
    let mut rng = rng_from_seed(7);
    pndca.run_steps(&mut state, &mut rng, 20, None, &mut NoHook);
    println!(
        "sequential weighted PNDCA, 20 steps: CO {:.3}, O {:.3}",
        state.coverage.fraction(1),
        state.coverage.fraction(2),
    );

    // Threaded executor with the same strategy: pure function of
    // (seed, partition, threads); thread count changes the slice streams
    // but never safety or the per-step trial count.
    for threads in [1usize, 4] {
        let mut exec = ParallelPndca::new(&model, &partition, threads, 11)
            .with_selection(ChunkSelection::WeightedByRates);
        let mut state = SimState::new(Lattice::filled(dims, 0), &model);
        let stats = exec.run_steps(&mut state, 20, None);
        println!(
            "parallel weighted, {threads} thread(s): {} trials, {} executed — CO {:.3}, O {:.3}",
            stats.trials,
            stats.executed,
            state.coverage.fraction(1),
            state.coverage.fraction(2),
        );
    }

    // Ω×T: weight the chunk draw by the swept type's enabled propensity.
    // Note the weighting only steers *which chunk* a selected type sweeps;
    // the type draw itself is rate-proportional as in the paper, so with
    // k_react = 10 most sweeps still pick a (rarely enabled) CO+O type —
    // hence the longer run.
    let tp = axis_type_partition(&model, dims);
    let mut sim = TPndca::new(&model, tp).with_weighted_chunks(true);
    let mut state = SimState::new(Lattice::filled(dims, 0), &model);
    let mut rng = rng_from_seed(5);
    let stats = sim.run_steps(&mut state, &mut rng, 400, None, &mut NoHook);
    println!(
        "TPNDCA weighted chunks, 400 steps: {} executed — CO {:.3}, O {:.3}",
        stats.executed,
        state.coverage.fraction(1),
        state.coverage.fraction(2),
    );
}
