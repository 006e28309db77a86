//! Regenerates **Fig 7**: the speedup surface `T(1,N)/T(p,N)` of the
//! PNDCA over system size `N` (lattice side 200…1000) and processor count
//! `p` (2…10).
//!
//! Three parts (see DESIGN.md substitution 1 and "Experiment engine"):
//! 0. **reference trajectories** — the sequential PNDCA runs of the sweep,
//!    executed as a durable `psr-engine` batch (checkpointed, journalled,
//!    resumable; delete `results/fig7_engine/` to recompute);
//! 1. **measured** — real threaded executor wall-clock on this host (the
//!    curve saturates at the physical core count);
//! 2. **modelled** — the machine model with the work term calibrated from
//!    the measured sequential trial cost, evaluated across the paper's
//!    full (N, p) grid.

use psr_bench::{results_dir, text_table, write_csv};
use psr_core::prelude::*;
use psr_engine::{BatchSpec, Engine, EngineConfig, JobSpec, ModelSpec, RunOptions};
use psr_parallel::measure_speedup;
use std::time::Duration;

/// Part 0: run the sweep's sequential reference trajectories through the
/// experiment engine — two workers, periodic checkpoints, a JSONL journal
/// and a live dashboard. A rerun picks up finished jobs from their `.done`
/// snapshots instead of recomputing them.
fn engine_reference_batch() {
    let engine_dir = results_dir().join("fig7_engine");
    let algorithm: Algorithm = "pndca five random-order".parse().expect("valid algorithm");
    let jobs = [100u32, 200]
        .iter()
        .map(|&side| {
            let mut job = JobSpec::new(
                &format!("kuzovkov_n{side}"),
                ModelSpec::Kuzovkov,
                algorithm.clone(),
                side,
                7,
                40,
            );
            job.checkpoint_every = 10;
            job
        })
        .collect();
    let batch = BatchSpec {
        engine: EngineConfig {
            workers: 2,
            checkpoint_dir: engine_dir.clone(),
            ..EngineConfig::default()
        },
        jobs,
    };
    println!("running the reference trajectories as a psr-engine batch:\n");
    let engine = Engine::new(batch.engine.clone());
    let report = engine
        .run_with_status(
            &batch,
            &RunOptions {
                status_every: Some(Duration::from_millis(250)),
                ..RunOptions::default()
            },
            |frame| print!("{frame}"),
        )
        .expect("engine batch");
    assert!(report.all_completed(), "engine batch failed: {report:?}");
    println!(
        "snapshots + journal in {} (delete to recompute)\n",
        engine_dir.display()
    );
}

fn main() {
    engine_reference_batch();

    let model = kuzovkov_model(KuzovkovParams::default());

    // Part 1: honest hardware measurement (small grid — 1 core host).
    let threads = [1usize, 2, 4];
    println!("measured wall-clock speedup on this host (PNDCA, Kuzovkov model):\n");
    let rows = measure_speedup(&model, &[100, 200], &threads, 10, 7);
    let mut printed = Vec::new();
    for r in &rows {
        printed.push(vec![
            r.side.to_string(),
            r.threads.to_string(),
            format!("{:.4}", r.t1),
            format!("{:.4}", r.tp),
            format!("{:.2}", r.speedup()),
        ]);
    }
    print!(
        "{}",
        text_table(
            &["N (side)", "threads", "T(1) s", "T(p) s", "speedup"],
            &printed
        )
    );
    write_csv(
        &results_dir().join("fig7_measured.csv"),
        &["side", "threads", "t1_s", "tp_s", "speedup"],
        &printed,
    );

    // Part 2: calibrated model over the paper's grid.
    let params = MachineParams::calibrate(&model, Dims::square(100), 5, 7);
    println!(
        "\ncalibrated trial cost: {:.1} ns/site; barrier model {:.0} + {:.0}·p µs\n",
        params.t_site * 1e9,
        params.sync_alpha * 1e6,
        params.sync_beta * 1e6
    );
    let machine = SimulatedMachine::new(params);
    let sides = [200u32, 300, 400, 500, 600, 700, 800, 900, 1000];
    let procs = [2usize, 3, 4, 5, 6, 7, 8, 9, 10];

    println!("modelled speedup surface T(1,N)/T(p,N)  (Fig 7):\n");
    print!("  N \\ p |");
    for p in procs {
        print!(" {p:>5}");
    }
    println!();
    println!("  ------+{}", "-".repeat(6 * procs.len()));
    let mut csv_rows = Vec::new();
    for &side in &sides {
        print!("  {side:>5} |");
        for &p in &procs {
            let s = machine.speedup(p, side as u64 * side as u64, 5);
            print!(" {s:>5.2}");
            csv_rows.push(vec![side.to_string(), p.to_string(), format!("{s:.4}")]);
        }
        println!();
    }
    write_csv(
        &results_dir().join("fig7_modeled.csv"),
        &["side", "p", "speedup"],
        &csv_rows,
    );
    println!(
        "\nshape check vs the paper: speedup grows with N, approaches p for\n\
         N = 1000, and bends over for small N where synchronisation dominates.\n\
         wrote {} and fig7_measured.csv",
        results_dir().join("fig7_modeled.csv").display()
    );
}
