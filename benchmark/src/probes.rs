//! Per-layer metrics of the traced run: door self times from the spans,
//! and short direct probes of every layer's public functions, each the
//! median of repeated calls. All timing is taken here; no crate is edited.

use crate::trace::{self, Span, Tracer, NO_PARENT};
use crate::workloads::replica::{self, ReplicaEnsemble};
use crate::workloads::serial::{kuzovkov, ndca, pndca_greedy, session, thermalised, zgb};
use crate::workloads::served::{self, serve_job, Server};
use crate::workloads::sharded::{self, sharded};
use crate::{host, metric, stats, Metric};
use psr_batch::{BatchAlgorithm, BatchSim, NoBatchHook};
use psr_ca::pndca::ChunkSelection;
use psr_ca::{
    axis_type_partition, greedy_coloring, FractionalStepKmc, LPndca, Ndca, Partition, Pndca,
    Schedule, SplitPlan, TPndca,
};
use psr_core::{Checkpointable, SessionCheckpoint};
use psr_dmc::{NoHook, Rsm, RunStats, SimState, Vssm};
use psr_engine::{BatchSpec, CheckpointStore, Engine, EngineConfig, RunOptions};
use psr_kernel::{CompiledModel, SiteKernel};
use psr_lattice::io::{from_text_v2, to_text_v2, SnapshotMeta};
use psr_lattice::{Dims, Lattice, SubLattice};
use psr_model::Model;
use psr_parallel::{run_replicas, ParallelPndca};
use psr_rng::{rng_from_seed, AliasTable, Pcg32, StreamFactory};
use psr_serve::cache::ResultCache;
use psr_serve::client::Pool;
use psr_serve::queue::Queue;
use psr_serve::request::JobRequest;
use psr_shard::frame;
use psr_shard::{ScheduleMode, Wire};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cost of recording one span, nanoseconds.
pub fn span_ns() -> f64 {
    const N: u32 = 100_000;
    let tracer = Tracer::new(true);
    let t = Instant::now();
    for i in 0..N {
        drop(tracer.span("probe", i, NO_PARENT));
    }
    let ns = t.elapsed().as_nanos() as f64 / f64::from(N);
    black_box(tracer.take());
    ns
}

/// Each door's self time as a share of the time jobs took, plus the
/// harness's own share (snapshot clone, digest, checks): what of a job a
/// faster layer can save when nothing contends.
pub fn door_fractions(spans: &[Span]) -> Vec<Metric> {
    let self_ns = trace::self_times(spans);
    let jobs_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "job")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    [
        ("bench.door_harness_frac", "job"),
        ("psr-core.door_session_build_frac", "core.session_build"),
        ("psr-core.door_run_blocks_frac", "core.run_blocks"),
        ("psr-parallel.door_run_steps_frac", "parallel.run_steps"),
        ("psr-shard.door_run_steps_frac", "shard.run_steps"),
        ("psr-batch.door_ensemble_run_frac", "batch.ensemble_run"),
        ("psr-serve.door_submit_frac", "serve.submit"),
        ("psr-serve.door_wait_frac", "serve.wait"),
        ("psr-serve.door_result_frac", "serve.result"),
    ]
    .into_iter()
    .map(|(name, door)| {
        let ns = self_ns
            .iter()
            .find(|(n, _)| *n == door)
            .map_or(0, |(_, ns)| *ns);
        metric(name, ns as f64 / jobs_ns.max(1) as f64, "ratio")
    })
    .collect()
}

/// Median seconds of `reps` calls of `f`, after one untimed call when the
/// probe keeps state that the first call builds.
fn timed(reps: usize, warm: bool, mut f: impl FnMut()) -> f64 {
    if warm {
        f();
    }
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// What the probes share: the model, thermalised lattices, the partition.
struct Bed {
    reps: usize,
    zgb: Model,
    l256: Lattice,
    l1024: Lattice,
    greedy1024: Partition,
}

fn ns_per(seconds: f64, count: u64) -> f64 {
    seconds * 1e9 / count.max(1) as f64
}

fn rng_layer(bed: &Bed) -> Vec<Metric> {
    const N: u64 = 2_000_000;
    let mut rng = Pcg32::new(1, 2);
    // `f64()` is one 64-bit draw plus a shift and a multiply; the draw
    // itself is only reachable through the vendored `rand` trait.
    let draw = timed(bed.reps, true, || {
        let mut acc = 0.0;
        for _ in 0..N {
            acc += rng.f64();
        }
        black_box(acc);
    });
    let table = AliasTable::new(&bed.zgb.rate_weights());
    let alias = timed(bed.reps, true, || {
        let mut acc = 0;
        for _ in 0..N {
            acc += table.sample(&mut rng);
        }
        black_box(acc);
    });
    let factory = StreamFactory::new(7);
    let stream = timed(bed.reps, true, || {
        for i in 0..N {
            black_box(factory.stream(i));
        }
    });
    vec![
        metric("psr-rng.pcg_next_u64_ns", ns_per(draw, N), "ns"),
        metric("psr-rng.alias_sample_ns", ns_per(alias, N), "ns"),
        metric("psr-rng.stream_new_ns", ns_per(stream, N), "ns"),
    ]
}

/// ZGB and Kuzovkov together: the two models every workload builds.
fn model_and_kernel_layers(bed: &Bed) -> Vec<Metric> {
    let build = timed(bed.reps, true, || {
        black_box((zgb(), kuzovkov()));
    });
    let kuz = kuzovkov();
    let compile = timed(bed.reps, true, || {
        black_box((
            CompiledModel::compile(&bed.zgb),
            CompiledModel::compile(&kuz),
        ));
    });
    let compiled = Arc::new(CompiledModel::compile(&bed.zgb));
    let lut = compiled.lut_entries() + CompiledModel::compile(&kuz).lut_entries();
    let kernel = timed(bed.reps, true, || {
        black_box(SiteKernel::new(Arc::clone(&compiled), &bed.l256));
    });
    vec![
        metric("psr-model.build_us", build * 1e6, "us"),
        metric("psr-kernel.compile_us", compile * 1e6, "us"),
        metric(
            "psr-kernel.site_kernel_new_ns_per_site",
            ns_per(kernel, bed.l256.len() as u64),
            "ns",
        ),
        metric("psr-kernel.lut_entries", lut as f64, "count"),
    ]
}

fn lattice_layer(bed: &Bed) -> Vec<Metric> {
    let meta = SnapshotMeta {
        time: 1.5,
        steps: 16,
        rng: [1, 3],
    };
    let sites = bed.l256.len() as u64;
    let mut text = String::new();
    let write = timed(bed.reps, true, || text = to_text_v2(&bed.l256, &meta));
    let read = timed(bed.reps, true, || {
        black_box(from_text_v2(&text).expect("a snapshot just written parses"));
    });
    // One worker's half of the L=1024 lattice with a one-site halo.
    let (w, h) = (sharded::SIDE / 2, sharded::SIDE);
    let mut sub = SubLattice::scatter(&bed.l1024, 0, 0, w, h, 1);
    let scatter = timed(bed.reps, true, || {
        sub = SubLattice::scatter(&bed.l1024, 0, 0, w, h, 1);
    });
    let mut global = bed.l1024.clone();
    let gather = timed(bed.reps, true, || sub.gather_into(&mut global));
    let owned = u64::from(w * h);
    vec![
        metric(
            "psr-lattice.snapshot_write_ns_per_site",
            ns_per(write, sites),
            "ns",
        ),
        metric(
            "psr-lattice.snapshot_read_ns_per_site",
            ns_per(read, sites),
            "ns",
        ),
        metric(
            "psr-lattice.snapshot_bytes_per_site",
            text.len() as f64 / sites as f64,
            "B",
        ),
        metric(
            "psr-lattice.scatter_ns_per_site",
            ns_per(scatter, owned),
            "ns",
        ),
        metric(
            "psr-lattice.gather_ns_per_site",
            ns_per(gather, owned),
            "ns",
        ),
    ]
}

fn dmc_layer(bed: &Bed) -> Vec<Metric> {
    let mut rng = rng_from_seed(3);
    let mut state = SimState::new(bed.l1024.clone(), &bed.zgb);
    let mut rsm = Rsm::new(&bed.zgb);
    let mut trials = 0;
    let rsm_s = timed(bed.reps, true, || {
        trials = rsm
            .run_mc_steps(&mut state, &mut rng, 2, None, &mut NoHook)
            .trials;
    });

    const EVENTS: u64 = 200_000;
    let mut state = SimState::new(bed.l256.clone(), &bed.zgb);
    let mut vssm = Vssm::new(&bed.zgb, &state.lattice);
    let mut changes = Vec::new();
    let mut events = 0;
    let vssm_s = timed(bed.reps, true, || {
        events = 0;
        for _ in 0..EVENTS {
            changes.clear();
            if vssm.step(&mut state, &mut rng, &mut changes).is_none() {
                break;
            }
            events += 1;
        }
    });

    let mut spares: Vec<Lattice> = (0..=bed.reps).map(|_| bed.l1024.clone()).collect();
    let new_s = timed(bed.reps, true, || {
        let lattice = spares.pop().expect("one spare per call");
        black_box(SimState::new(lattice, &bed.zgb));
    });
    vec![
        metric(
            "psr-dmc.rsm_ns_per_trial.l1024",
            ns_per(rsm_s, trials),
            "ns",
        ),
        metric(
            "psr-dmc.vssm_ns_per_event.l256",
            ns_per(vssm_s, events),
            "ns",
        ),
        metric(
            "psr-dmc.simstate_new_ns_per_site",
            ns_per(new_s, bed.l1024.len() as u64),
            "ns",
        ),
    ]
}

/// Time `run` (which advances a persistent executor) and return
/// (ns per trial, executed / trials).
fn sweep(reps: usize, mut run: impl FnMut() -> RunStats) -> (f64, f64) {
    let mut last = RunStats::default();
    let seconds = timed(reps, true, || last = run());
    (
        ns_per(seconds, last.trials),
        last.executed as f64 / last.trials.max(1) as f64,
    )
}

/// Also returns the best serial PNDCA at L=1024, ns per trial.
fn ca_layer(bed: &Bed) -> (Vec<Metric>, f64) {
    let zgb = bed.zgb.clone();
    let reps = bed.reps;
    let d256 = Dims::square(256);
    let greedy256 = greedy_coloring(d256, &zgb);
    let mut rng = rng_from_seed(5);
    let small = || SimState::new(bed.l256.clone(), &zgb);
    let large = || SimState::new(bed.l1024.clone(), &zgb);
    let random = ChunkSelection::RandomOrder;

    let (mut st, mut exec) = (small(), Ndca::new(&zgb));
    let (ndca_256, accept) = sweep(reps, || {
        exec.run_steps(&mut st, &mut rng, 16, None, &mut NoHook)
    });
    let (mut st, mut exec) = (large(), Ndca::new(&zgb));
    let (ndca_1024, _) = sweep(reps, || {
        exec.run_steps(&mut st, &mut rng, 2, None, &mut NoHook)
    });

    let (mut st, mut exec) = (small(), Pndca::new(&zgb, &greedy256).with_selection(random));
    let (pndca_256, _) = sweep(reps, || {
        exec.run_steps(&mut st, &mut rng, 16, None, &mut NoHook)
    });
    let (mut st, mut exec) = (
        large(),
        Pndca::new(&zgb, &bed.greedy1024).with_selection(random),
    );
    let (pndca_1024, _) = sweep(reps, || {
        exec.run_steps(&mut st, &mut rng, 2, None, &mut NoHook)
    });
    let (mut st, mut exec) = (
        large(),
        Pndca::new(&zgb, &bed.greedy1024).with_selection(ChunkSelection::WeightedByRates),
    );
    let (weighted_1024, _) = sweep(reps, || {
        exec.run_steps(&mut st, &mut rng, 2, None, &mut NoHook)
    });

    let (mut st, mut exec) = (small(), LPndca::new(&zgb, &greedy256, 64));
    let (lpndca_256, _) = sweep(reps, || {
        exec.run_steps(&mut st, &mut rng, 16, None, &mut NoHook)
    });
    let (mut st, mut exec) = (small(), TPndca::new(&zgb, axis_type_partition(&zgb, d256)));
    let (tpndca_256, _) = sweep(reps, || {
        exec.run_steps(&mut st, &mut rng, 16, None, &mut NoHook)
    });

    let plan = SplitPlan::new(d256, 4, 4, zgb.interaction_radius()).expect("256 splits 4 x 4");
    let (mut st, mut exec) = (
        small(),
        FractionalStepKmc::new(&zgb, &plan, Schedule::Strang, 0.5, 9),
    );
    let (fskmc_256, _) = sweep(reps, || exec.run_windows(&mut st, 1, None, &mut NoHook));

    let d512 = Dims::square(512);
    let coloring = timed(reps, true, || {
        black_box(greedy_coloring(d512, &zgb));
    });

    let metrics = vec![
        metric("psr-ca.ndca_ns_per_trial.l256", ndca_256, "ns"),
        metric("psr-ca.ndca_ns_per_trial.l1024", ndca_1024, "ns"),
        metric("psr-ca.pndca_ns_per_trial.l256", pndca_256, "ns"),
        metric("psr-ca.pndca_ns_per_trial.l1024", pndca_1024, "ns"),
        metric(
            "psr-ca.pndca_weighted_ns_per_trial.l1024",
            weighted_1024,
            "ns",
        ),
        metric("psr-ca.lpndca_ns_per_trial.l256", lpndca_256, "ns"),
        metric("psr-ca.tpndca_ns_per_trial.l256", tpndca_256, "ns"),
        metric("psr-ca.fskmc_strang_ns_per_event.l256", fskmc_256, "ns"),
        metric(
            "psr-ca.greedy_coloring_ns_per_site",
            ns_per(coloring, u64::from(d512.sites())),
            "ns",
        ),
        metric("psr-ca.accept_ratio", accept, "ratio"),
    ];
    (metrics, pndca_1024)
}

fn core_layer(bed: &Bed) -> Result<Vec<Metric>, String> {
    let build = timed(bed.reps, true, || {
        black_box(session(&bed.zgb, 1024, pndca_greedy(), 1, Some(&bed.l1024)).map(|_| ()))
            .expect("pndca sessions build");
    });
    // The same 16 NDCA steps as sixteen blocks of one and as one block of
    // sixteen: the difference is what a block boundary costs (the executor
    // and its site kernel are rebuilt on every `run_blocks` call).
    const STEPS: u64 = 16;
    let mut s = session(&bed.zgb, 256, ndca(), 1, Some(&bed.l256))?;
    let single = timed(bed.reps, true, || {
        for _ in 0..STEPS {
            s.run_blocks(1, &mut NoHook);
        }
    });
    let long = timed(bed.reps, true, || {
        s.run_blocks(STEPS, &mut NoHook);
    });
    let sites = bed.l256.len() as u64;
    Ok(vec![
        metric("psr-core.session_build_ms.l1024", build * 1e3, "ms"),
        metric(
            "psr-core.block1_ns_per_trial.l256",
            ns_per(single, STEPS * sites),
            "ns",
        ),
        metric(
            "psr-core.block_rebuild_ns_per_site",
            ns_per(single - long, (STEPS - 1) * sites),
            "ns",
        ),
    ])
}

fn batch_layer(bed: &Bed) -> Result<Vec<Metric>, String> {
    let model = replica::model();
    let dims = Dims::square(replica::SIDE);
    let seeds: Vec<u64> = (0..replica::REPLICAS).collect();
    let algorithm = BatchAlgorithm::Ndca { shuffled: false };
    let mut sim = BatchSim::new(&model, dims, algorithm.clone(), &seeds);
    let pack = timed(bed.reps, true, || {
        sim = BatchSim::new(&model, dims, algorithm.clone(), &seeds);
    });
    const STEPS: u64 = 100;
    let trials = |sim: &BatchSim| (0..sim.replicas()).map(|s| sim.trials(s)).sum::<u64>();
    let sweep = |sim: &mut BatchSim| {
        let mut done = 0;
        let seconds = timed(bed.reps, true, || {
            let before = trials(sim);
            sim.run_steps(STEPS, &mut NoBatchHook);
            done = trials(sim) - before;
        });
        ns_per(seconds, done)
    };
    let simd_active = sim.simd_active();
    let simd = sweep(&mut sim);
    sim.set_simd(false);
    let scalar = sweep(&mut sim);

    let workload = ReplicaEnsemble::new();
    let mut failed = None;
    let ensemble = timed(bed.reps, true, || {
        failed = workload.ensemble(0, 11, None).err();
    });
    if let Some(e) = failed {
        return Err(format!("batch probe: {e}"));
    }
    Ok(vec![
        metric("psr-batch.simd_ns_per_trial", simd, "ns"),
        metric("psr-batch.scalar_ns_per_trial", scalar, "ns"),
        metric(
            "psr-batch.simd_active",
            f64::from(u8::from(simd_active)),
            "count",
        ),
        metric("psr-batch.pack_us", pack * 1e6, "us"),
        metric(
            "psr-batch.replicas_per_s",
            replica::REPLICAS as f64 / ensemble,
            "1/s",
        ),
    ])
}

fn parallel_layer(bed: &Bed, serial_pndca_ns: f64) -> Vec<Metric> {
    let threads = |t: usize| {
        let mut state = SimState::new(bed.l1024.clone(), &bed.zgb);
        let mut exec = ParallelPndca::new(&bed.zgb, &bed.greedy1024, t, 3)
            .with_selection(ChunkSelection::RandomOrder);
        sweep(bed.reps, || exec.run_steps(&mut state, 2, None)).0
    };
    let (t1, t2) = (threads(1), threads(2));
    // Lone sessions fanned over two threads: the arm `psr-batch` replaces.
    let model = replica::model();
    let stride = replica::block(&model);
    let mut trials = 0u64;
    let replicas = timed(bed.reps, true, || {
        trials = run_replicas(replica::REPLICAS, 2, |i| {
            let mut s =
                session(&model, replica::SIDE, ndca(), 100 + i, None).expect("ndca sessions build");
            while s.time() < replica::T_END {
                s.run_blocks(stride, &mut NoHook);
            }
            s.totals().trials
        })
        .iter()
        .sum();
    });
    vec![
        metric("psr-parallel.pndca_t1_ns_per_trial", t1, "ns"),
        metric("psr-parallel.pndca_t2_ns_per_trial", t2, "ns"),
        metric(
            "psr-parallel.t2_efficiency",
            serial_pndca_ns / (2.0 * t2),
            "ratio",
        ),
        metric(
            "psr-parallel.replicas_t2_ns_per_trial",
            ns_per(replicas, trials),
            "ns",
        ),
    ]
}

/// One timed sharded arm: median wall seconds, with the trials, CPUs kept
/// busy, critical path and communication of the last run.
struct ShardRun {
    wall_s: f64,
    trials: u64,
    busy_cpus: f64,
    critical_s: f64,
    comm: psr_shard::CommStats,
    wire_latency_s: f64,
}

fn shard_run(
    bed: &Bed,
    workers: u32,
    mode: ScheduleMode,
    selection: ChunkSelection,
    steps: u64,
) -> Result<ShardRun, String> {
    let mut run = ShardRun {
        wall_s: 0.0,
        trials: 0,
        busy_cpus: 0.0,
        critical_s: 0.0,
        comm: psr_shard::CommStats::default(),
        wire_latency_s: 0.0,
    };
    let snapshot = SimState::new(bed.l1024.clone(), &bed.zgb);
    let mut failed = None;
    // Not warmed: a job builds its executor, and its worker fleet, anew.
    run.wall_s = timed(bed.reps, false, || {
        let (cpu0, t0) = (host::cpu_seconds(), Instant::now());
        let mut state = snapshot.clone();
        let mut exec = sharded(&bed.zgb, &bed.greedy1024, workers, mode, selection, 3);
        match exec.try_run_steps(&mut state, steps, None) {
            Ok(stats) => run.trials = stats.trials,
            Err(e) => failed = Some(e),
        }
        run.busy_cpus = (host::cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64();
        run.critical_s = exec.critical_path_seconds();
        run.comm = exec.comm_stats();
        run.wire_latency_s = exec.wire_latency_seconds().unwrap_or(0.0);
    });
    match failed {
        Some(e) => Err(format!("shard probe ({mode:?}): {e}")),
        None => Ok(run),
    }
}

fn shard_layer(bed: &Bed, serial_pndca_ns: f64) -> Result<Vec<Metric>, String> {
    let random = ChunkSelection::RandomOrder;
    let unix = ScheduleMode::Socket(Wire::Unix);
    let inline = shard_run(bed, 1, ScheduleMode::Inline, random, 4)?;
    let threaded1 = shard_run(bed, 2, ScheduleMode::Threaded, random, 1)?;
    let threaded9 = shard_run(bed, 2, ScheduleMode::Threaded, random, 9)?;
    let unix1 = shard_run(bed, 2, unix, random, 1)?;
    let unix9 = shard_run(bed, 2, unix, random, 9)?;
    let weighted = shard_run(
        bed,
        2,
        ScheduleMode::Threaded,
        ChunkSelection::WeightedByRates,
        4,
    )?;
    // A job of s steps costs fixed + s * per_step; two sizes give both.
    let fixed_ms =
        |one: &ShardRun, nine: &ShardRun| (one.wall_s - (nine.wall_s - one.wall_s) / 8.0) * 1e3;
    let threaded_ns = ns_per(threaded9.wall_s, threaded9.trials);

    let payload = [7u8; 150];
    const N: u64 = 200_000;
    let encode = timed(bed.reps, true, || {
        for step in 0..N {
            black_box(frame::encode(frame::KIND_HALO, 0, 1, step, 2, &payload));
        }
    });
    let bytes = frame::encode(frame::KIND_HALO, 0, 1, 5, 2, &payload);
    let decode = timed(bed.reps, true, || {
        for _ in 0..N {
            black_box(frame::try_decode(black_box(&bytes)).expect("a frame just encoded decodes"));
        }
    });
    Ok(vec![
        metric(
            "psr-shard.inline_w1_ns_per_trial",
            ns_per(inline.wall_s, inline.trials),
            "ns",
        ),
        metric(
            "psr-shard.inline_w1_cp_ns_per_trial",
            ns_per(inline.critical_s, inline.trials),
            "ns",
        ),
        metric("psr-shard.threaded_w2_ns_per_trial", threaded_ns, "ns"),
        metric(
            "psr-shard.unix_w2_ns_per_trial",
            ns_per(unix9.wall_s, unix9.trials),
            "ns",
        ),
        metric(
            "psr-shard.weighted_w2_ns_per_trial",
            ns_per(weighted.wall_s, weighted.trials),
            "ns",
        ),
        metric(
            "psr-shard.w2_efficiency",
            serial_pndca_ns / (2.0 * threaded_ns),
            "ratio",
        ),
        // Of the two workers' wall time, the share not spent on a CPU:
        // waiting for the other worker, or for the hub to scatter and gather.
        metric(
            "psr-shard.wait_frac",
            1.0 - threaded9.busy_cpus / 2.0,
            "ratio",
        ),
        metric(
            "psr-shard.job_fixed_ms",
            fixed_ms(&threaded1, &threaded9),
            "ms",
        ),
        // What a one-step job pays for processes and sockets over threads.
        metric(
            "psr-shard.spawn_ms",
            (unix1.wall_s - threaded1.wall_s) * 1e3,
            "ms",
        ),
        metric(
            "psr-shard.halo_bytes_per_step",
            threaded9.comm.halo_bytes as f64 / 9.0,
            "B",
        ),
        metric(
            "psr-shard.halo_msgs_per_step",
            threaded9.comm.halo_messages as f64 / 9.0,
            "count",
        ),
        metric(
            "psr-shard.boundary_frac",
            threaded9.comm.boundary_fraction(),
            "ratio",
        ),
        metric(
            "psr-shard.wire_frames_per_flush",
            unix9.comm.wire_frames as f64 / unix9.comm.wire_flushes.max(1) as f64,
            "count",
        ),
        metric(
            "psr-shard.wire_latency_us",
            unix9.wire_latency_s * 1e6,
            "us",
        ),
        metric("psr-shard.frame_encode_ns", ns_per(encode, N), "ns"),
        metric("psr-shard.frame_decode_ns", ns_per(decode, N), "ns"),
    ])
}

/// The cold-NDCA served spec as a one-job engine batch.
fn engine_batch(dir: &Path, seed: u64) -> String {
    format!(
        "[engine]\nworkers = 1\ncheckpoint_dir = {}\n\n[job probe]\n{}",
        dir.display(),
        served::spec(served::NDCA, seed).0
    )
}

/// Also returns the side-128 checkpoint the serve probes render, and the
/// bare session's milliseconds on the spec.
fn engine_layer(bed: &Bed, dir: &Path) -> Result<(Vec<Metric>, SessionCheckpoint, f64), String> {
    let text = engine_batch(dir, 1);
    let parse = timed(bed.reps, true, || {
        black_box(BatchSpec::parse(&text).expect("the probe's own spec parses"));
    });
    // Spec text -> `.done`, each time in a directory of its own.
    let mut run = 0;
    let mut failed = None;
    let job = timed(bed.reps, true, || {
        run += 1;
        let job_dir = dir.join(format!("engine{run}"));
        let outcome = BatchSpec::parse(&engine_batch(&job_dir, 1)).and_then(|batch| {
            let config = EngineConfig {
                checkpoint_dir: job_dir,
                ..batch.engine.clone()
            };
            Engine::new(config).run(&batch, &RunOptions::default())
        });
        match outcome {
            Ok(report) if report.all_completed() => {}
            Ok(report) => failed = Some(format!("{:?}", report.jobs)),
            Err(e) => failed = Some(e),
        }
    });
    if let Some(e) = failed {
        return Err(format!("engine probe: {e}"));
    }
    // The same simulation with nothing around it.
    let mut done = None;
    let bare = timed(bed.reps, true, || {
        let mut s = session(&bed.zgb, served::SIDE, ndca(), 1, None).expect("ndca sessions build");
        s.run_blocks(300, &mut NoHook);
        done = Some(s.checkpoint());
    });
    let ck = done.expect("the bare run ran");

    let store = CheckpointStore::open(&dir.join("ckpts")).map_err(|e| format!("ckpt dir: {e}"))?;
    let mut bytes = 0;
    let mut io_failed = None;
    let save = timed(bed.reps, true, || match store.save("probe", &ck) {
        Ok(n) => bytes = n,
        Err(e) => io_failed = Some(e),
    });
    let load = timed(bed.reps, true, || match store.load("probe") {
        Ok(loaded) => {
            black_box(loaded);
        }
        Err(e) => io_failed = Some(e),
    });
    if let Some(e) = io_failed {
        return Err(format!("checkpoint probe: {e}"));
    }
    Ok((
        vec![
            metric("psr-engine.spec_parse_us", parse * 1e6, "us"),
            metric("psr-engine.job_ms", job * 1e3, "ms"),
            metric("psr-engine.overhead_frac", (job - bare) / bare, "ratio"),
            metric("psr-engine.ckpt_save_ms", save * 1e3, "ms"),
            metric("psr-engine.ckpt_load_ms", load * 1e3, "ms"),
            metric("psr-engine.ckpt_bytes", bytes as f64, "B"),
        ],
        ck,
        bare * 1e3,
    ))
}

/// A counter of the server's `/metrics` page, 0 when absent.
fn counter(page: &str, name: &str) -> f64 {
    page.lines()
        .find_map(|l| l.strip_prefix(&format!("c.{name} ")))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

fn serve_layer(
    bed: &Bed,
    dir: &Path,
    ck: &SessionCheckpoint,
    bare_spec_ms: f64,
) -> Result<Vec<Metric>, String> {
    const N: u64 = 200;
    let io = |what: &str, e: std::io::Error| format!("serve probe: {what}: {e}");
    let body = served::spec(served::NDCA, 1).0;
    let parse = timed(bed.reps, true, || {
        black_box(JobRequest::parse(&body).expect("the probe's own spec parses"));
    });
    let request = JobRequest::parse(&body)?;
    let key = timed(bed.reps, true, || {
        black_box(request.cache_key());
    });
    // Journaled submissions, each a spec of its own.
    let queue = Queue::open(&dir.join("queue.jsonl")).map_err(|e| io("queue", e))?;
    let requests: Vec<JobRequest> = (0..N)
        .map(|seed| JobRequest::parse(&served::spec(served::NDCA, seed).0))
        .collect::<Result<_, _>>()?;
    let t = Instant::now();
    for r in &requests {
        queue.submit("bench", r).map_err(|e| io("submit", e))?;
    }
    let submit = t.elapsed().as_secs_f64() / N as f64;

    let line = psr_serve::observe::line(bed.zgb.species().len(), ck);
    let observe = timed(bed.reps, true, || {
        black_box(psr_serve::observe::line(bed.zgb.species().len(), ck));
    });
    // A result is one observable line per block: eleven for these specs.
    let result = format!("{line}\n").repeat(11).into_bytes();
    let cache = ResultCache::open(&dir.join("cache"), 64 << 20).map_err(|e| io("cache", e))?;
    let keys: Vec<String> = requests.iter().map(JobRequest::cache_key).collect();
    let t = Instant::now();
    for k in &keys {
        cache.put(k, &result).map_err(|e| io("put", e))?;
    }
    let put = t.elapsed().as_secs_f64() / N as f64;
    let t = Instant::now();
    for k in &keys {
        black_box(
            cache
                .get(k)
                .ok_or("serve probe: a key just put is missing")?,
        );
    }
    let get = t.elapsed().as_secs_f64() / N as f64;

    // One unloaded client against a fresh server: six hits on one warmed
    // spec and six cold NDCA jobs, in turn.
    let server = Server::start(&dir.join("serve-state"))?;
    let pool = Pool::new(&server.addr, Duration::from_secs(10));
    let mut rtts = Vec::new();
    for _ in 0..N {
        let t = Instant::now();
        let r = pool.get("/healthz")?;
        if r.status != 200 {
            return Err(format!("serve probe: healthz {}", r.status));
        }
        rtts.push(t.elapsed().as_secs_f64());
    }
    serve_job(&pool, &served::spec(served::NDCA, 1).0, None)?;
    let (mut hits, mut colds, mut all) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..6 {
        hits.push(serve_job(&pool, &served::spec(served::NDCA, 1).0, None)?);
        colds.push(serve_job(
            &pool,
            &served::spec(served::NDCA, 1000 + i).0,
            None,
        )?);
    }
    let page = pool.get("/metrics")?.text();
    drop(pool);
    drop(server);
    let secs = |d: &Duration| d.as_secs_f64();
    let cold_p50_ms = stats::median(
        &colds
            .iter()
            .map(|s| secs(&s.total) * 1e3)
            .collect::<Vec<_>>(),
    );
    all.extend(hits.iter().chain(&colds));
    let (served_hits, served_misses) =
        (counter(&page, "serve.hits"), counter(&page, "serve.misses"));
    Ok(vec![
        metric("psr-serve.request_parse_us", parse * 1e6, "us"),
        metric("psr-serve.cache_key_us", key * 1e6, "us"),
        metric("psr-serve.queue_submit_us", submit * 1e6, "us"),
        metric("psr-serve.cache_put_us", put * 1e6, "us"),
        metric("psr-serve.cache_get_us", get * 1e6, "us"),
        metric("psr-serve.observe_line_us", observe * 1e6, "us"),
        metric("psr-serve.healthz_rtt_us", stats::median(&rtts) * 1e6, "us"),
        metric(
            "psr-serve.submit_ack_us",
            stats::median(
                &all.iter()
                    .map(|s| secs(&s.submit) * 1e6)
                    .collect::<Vec<_>>(),
            ),
            "us",
        ),
        metric(
            "psr-serve.result_fetch_us",
            stats::median(&all.iter().map(|s| secs(&s.fetch) * 1e6).collect::<Vec<_>>()),
            "us",
        ),
        metric(
            "psr-serve.polls_per_job",
            colds.iter().map(|s| f64::from(s.polls)).sum::<f64>() / colds.len() as f64,
            "count",
        ),
        metric(
            "psr-serve.hit_p50_us",
            stats::median(
                &hits
                    .iter()
                    .map(|s| secs(&s.total) * 1e6)
                    .collect::<Vec<_>>(),
            ),
            "us",
        ),
        metric("psr-serve.cold_p50_ms", cold_p50_ms, "ms"),
        metric(
            "psr-serve.hit_rate",
            served_hits / (served_hits + served_misses).max(1.0),
            "ratio",
        ),
        metric(
            "psr-serve.shed_429",
            all.iter().map(|s| f64::from(s.shed_429)).sum(),
            "count",
        ),
        metric(
            "psr-serve.overhead_frac",
            (cold_p50_ms - bare_spec_ms) / bare_spec_ms,
            "ratio",
        ),
    ])
}

/// Every layer's probes, in dependency order.
pub fn all(dir: &Path, smoke: bool) -> Result<Vec<Metric>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let zgb = zgb();
    let bed = Bed {
        reps: if smoke { 1 } else { 3 },
        l256: thermalised(&zgb, 256, ndca())?,
        l1024: thermalised(&zgb, 1024, pndca_greedy())?,
        greedy1024: greedy_coloring(Dims::square(1024), &zgb),
        zgb,
    };
    let mut metrics = rng_layer(&bed);
    metrics.extend(model_and_kernel_layers(&bed));
    metrics.extend(lattice_layer(&bed));
    metrics.extend(dmc_layer(&bed));
    let (ca, serial_pndca_ns) = ca_layer(&bed);
    metrics.extend(ca);
    metrics.extend(core_layer(&bed)?);
    metrics.extend(batch_layer(&bed)?);
    metrics.extend(parallel_layer(&bed, serial_pndca_ns));
    metrics.extend(shard_layer(&bed, serial_pndca_ns)?);
    let (engine, checkpoint, bare_spec_ms) = engine_layer(&bed, dir)?;
    metrics.extend(engine);
    metrics.extend(serve_layer(&bed, dir, &checkpoint, bare_spec_ms)?);
    Ok(metrics)
}
