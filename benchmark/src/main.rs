//! `psr-benchmark`: the workspace's absolute benchmark.
//!
//! ```text
//! psr-benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
//! ```
//!
//! One run = one workload: set-up, a closed loop over a job list that
//! `(seed, seconds)` fixes, cross-job checks, and one `name value unit`
//! line per metric, the last stdout line being the same as one JSON
//! object. Untraced runs print the end-to-end metrics; traced runs record
//! spans around every door call, run the direct probes of every layer, and
//! print the per-layer metrics. See `README.md` beside this package.

mod host;
mod jobs;
mod probes;
mod stats;
mod trace;
mod watchdog;
mod workloads;

use jobs::Job;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use trace::{JobCtx, Tracer, NO_PARENT};
use watchdog::Watchdog;
use workloads::replica::ReplicaEnsemble;
use workloads::serial::SerialLattice;
use workloads::served::ServedJobs;
use workloads::sharded::ShardedLattice;
use workloads::{Outcome, Workload};

/// Where results, traces and this run's scratch state go, relative to the
/// checkout root `run.sh` changes into. Relative on purpose: Unix socket
/// paths below it stay short whatever the checkout's own path is.
const OUT_DIR: &str = "benchmark/out";
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 16.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A pass stops starting jobs once it has run this many times `--seconds`
/// (a host far slower than the reference one still ends in time).
const OVERRUN: f64 = 2.5;
/// `--smoke` runs one job in this many.
const SMOKE_SHARE: usize = 20;
/// Share of the job list the traced run first executes untraced, to put a
/// number on what tracing costs.
const OVERHEAD_SHARE: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must lie in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                // A bare `--trace` means on; the driver passes 0 or 1.
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

/// A metric as printed: name, value, unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Report {
    attempted: usize,
    /// One line per failed job, violated check or process left behind;
    /// their number is the result's `failed`.
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

struct JobResult {
    latency_s: f64,
    outcome: Result<Outcome, String>,
}

/// One closed-loop execution of a job list.
struct Pass {
    /// Per job, in list order; `None` where the overrun cut the pass short.
    results: Vec<Option<JobResult>>,
    wall_s: f64,
    cpu_s: f64,
}

impl Pass {
    fn outcomes(&self) -> Vec<Option<Outcome>> {
        self.results
            .iter()
            .map(|r| r.as_ref().and_then(|r| r.outcome.as_ref().ok().copied()))
            .collect()
    }

    /// Latencies of the first `n` jobs, summed; `None` unless all succeeded.
    fn latency_of_first(&self, n: usize) -> Option<f64> {
        self.results[..n]
            .iter()
            .map(|r| {
                r.as_ref()
                    .filter(|r| r.outcome.is_ok())
                    .map(|r| r.latency_s)
            })
            .sum()
    }
}

fn run_pass<W: Workload>(
    workload: &W,
    jobs: &[Job],
    tracer: &Tracer,
    watchdog: &Watchdog,
    budget: Duration,
) -> Pass {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<JobResult>>> = Mutex::new(jobs.iter().map(|_| None).collect());
    let cpu0 = host::cpu_seconds();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..W::CLIENTS {
            let (next, results) = (&next, &results);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() || t0.elapsed() > budget {
                    break;
                }
                let job = &jobs[i];
                let _watched = watchdog.watch(format!(
                    "job {} (class {}, seed {})",
                    job.id,
                    W::CLASSES[job.class].name,
                    job.seed
                ));
                let started = Instant::now();
                let outcome = {
                    let span = tracer.span("job", job.id, NO_PARENT);
                    workload.run_job(
                        job,
                        JobCtx {
                            tracer,
                            job: job.id,
                            parent: span.id(),
                            client,
                        },
                    )
                };
                let latency_s = started.elapsed().as_secs_f64();
                results.lock().expect("no client panics holding it")[i] =
                    Some(JobResult { latency_s, outcome });
            });
        }
    });
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu0,
        results: results.into_inner().expect("clients have ended"),
    }
}

/// A repeated (class, seed) job must reproduce its digest.
fn check_repeats<W: Workload>(jobs: &[Job], outcomes: &[Option<Outcome>]) -> Vec<String> {
    let mut first = BTreeMap::new();
    let mut errors = Vec::new();
    for (job, outcome) in jobs.iter().zip(outcomes) {
        let (Some(outcome), true) = (outcome, W::CLASSES[job.class].repeats) else {
            continue;
        };
        let seen = *first.entry((job.class, job.seed)).or_insert(*outcome);
        if seen != *outcome {
            errors.push(format!(
                "job {} ({}, seed {}) did not reproduce its earlier digest",
                job.id,
                W::CLASSES[job.class].name,
                job.seed
            ));
        }
    }
    errors
}

fn drive<W: Workload>(
    args: &Args,
    tmp: &Path,
    started: Instant,
    watchdog: &Watchdog,
) -> Result<Report, String> {
    // Set up several times, each in a directory of its own, and keep the
    // last. The previous one is dropped first: two servers never coexist.
    let before_setup = started.elapsed().as_secs_f64();
    let mut setup_times = Vec::new();
    let mut workload = None;
    for k in 0..if args.smoke { 1 } else { SETUPS } {
        drop(workload.take());
        let dir = tmp.join(format!("setup{k}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir: {e}"))?;
        let _watched = watchdog.watch("set-up".to_owned());
        let t = Instant::now();
        workload = Some(W::setup(&dir)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let workload = workload.expect("at least one set-up ran");
    let setup_s = before_setup + stats::median(&setup_times);

    let blocks = (args.seconds * W::JOBS_PER_SECOND / jobs::BLOCK as f64)
        .round()
        .max(1.0);
    let mut n = blocks as usize * jobs::BLOCK;
    if args.smoke {
        n = (n / SMOKE_SHARE).max(2 * W::CLIENTS);
    }
    let jobs = jobs::generate(args.seed, W::CLASSES, n);
    let budget = Duration::from_secs_f64(args.seconds * OVERRUN);

    // The traced run first executes the head of the list untraced, with
    // other simulation seeds (the same ones would hit the served cache).
    let head = (n / OVERHEAD_SHARE).max(1);
    let untraced_head = args.trace.then(|| {
        let twins: Vec<Job> = jobs[..head]
            .iter()
            .map(|j| Job {
                id: j.id + n as u32,
                seed: j.seed ^ 0x5555_5555,
                ..j.clone()
            })
            .collect();
        run_pass(&workload, &twins, &Tracer::new(false), watchdog, budget)
    });
    let tracer = Tracer::new(args.trace);
    let pass = run_pass(&workload, &jobs, &tracer, watchdog, budget);
    let peak_rss_mb = host::peak_rss_mb();

    let outcomes = pass.outcomes();
    let mut errors: Vec<String> = pass
        .results
        .iter()
        .zip(&jobs)
        .filter_map(|(r, job)| {
            let e = r.as_ref()?.outcome.as_ref().err()?;
            Some(format!(
                "job {} ({}): {e}",
                job.id,
                W::CLASSES[job.class].name
            ))
        })
        .collect();
    errors.extend(check_repeats::<W>(&jobs, &outcomes));
    {
        let _watched = watchdog.watch("verify".to_owned());
        errors.extend(workload.verify(&jobs, &outcomes));
    }
    let attempted = pass.results.iter().flatten().count();
    if attempted < n {
        eprintln!("overran {OVERRUN} x --seconds: stopped after {attempted} of {n} jobs");
    }
    for (i, class) in W::CLASSES.iter().enumerate() {
        let of_class: Vec<f64> = pass
            .results
            .iter()
            .zip(&jobs)
            .filter(|(_, job)| job.class == i)
            .filter_map(|(r, _)| Some(r.as_ref()?.latency_s * 1e3))
            .collect();
        if !of_class.is_empty() {
            eprintln!(
                "class {} jobs {} median_ms {:.3}",
                class.name,
                of_class.len(),
                stats::median(&of_class)
            );
        }
    }
    let mut latencies_ms: Vec<f64> = pass
        .results
        .iter()
        .flatten()
        .filter(|r| r.outcome.is_ok())
        .map(|r| r.latency_s * 1e3)
        .collect();
    latencies_ms.sort_by(f64::total_cmp);
    let trials: u64 = outcomes.iter().flatten().map(|o| o.trials).sum();
    if trials == 0 {
        return Err(format!("no job succeeded: {}", errors.join("; ")));
    }

    let metrics = if args.trace {
        let spans = tracer.take();
        std::fs::write(
            Path::new(OUT_DIR).join(format!("{}.trace.jsonl", W::NAME)),
            trace::to_jsonl(&spans),
        )
        .map_err(|e| format!("writing the trace: {e}"))?;
        let overhead = untraced_head
            .and_then(|h| Some((h.latency_of_first(head)?, pass.latency_of_first(head)?)))
            .map_or(0.0, |(off, on)| (on - off) / off);
        let mut metrics = vec![
            metric("bench.jobs", attempted as f64, "count"),
            metric("bench.trials", trials as f64, "count"),
            metric("bench.trace_overhead_frac", overhead, "ratio"),
            metric("bench.span_ns", probes::span_ns(), "ns"),
            metric("bench.nproc", host::nproc() as f64, "count"),
        ];
        metrics.extend(probes::door_fractions(&spans));
        drop(workload);
        let _watched = watchdog.watch("probes".to_owned());
        metrics.extend(probes::all(&tmp.join("probes"), args.smoke)?);
        metrics
    } else {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("trials_per_s", trials as f64 / pass.wall_s, "1/s"),
            metric("cpu_ns_per_trial", pass.cpu_s * 1e9 / trials as f64, "ns"),
            metric("job_p50_ms", stats::percentile(&latencies_ms, 0.5), "ms"),
            metric("job_p90_ms", stats::percentile(&latencies_ms, 0.9), "ms"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    Ok(Report {
        attempted,
        errors,
        metrics,
    })
}

fn json_object(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.errors.is_empty(),
        report.attempted,
        report.errors.len(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "psr-benchmark: {e}\nusage: psr-benchmark --workload \
                 serial_lattice|sharded_lattice|replica_ensemble|served_jobs \
                 [--seed N] [--seconds S] [--trace [0|1]] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    let tag = format!("tmp.{}", std::process::id());
    let tmp = PathBuf::from(OUT_DIR).join(&tag);
    let worker = match std::fs::create_dir_all(&tmp)
        .map_err(|e| format!("mkdir {}: {e}", tmp.display()))
        .and_then(|()| host::worker_binary())
    {
        Ok(worker) => worker,
        Err(e) => {
            eprintln!("psr-benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    // Before any thread starts: the shard hub finds its worker binary and
    // makes its socket directory through these.
    std::env::set_var("PSR_SHARD_WORKER", worker);
    std::env::set_var("TMPDIR", &tmp);

    let watchdog = Watchdog::start(tag.clone(), tmp.clone());
    let result = match args.workload.as_str() {
        SerialLattice::NAME => drive::<SerialLattice>(&args, &tmp, started, &watchdog),
        ShardedLattice::NAME => drive::<ShardedLattice>(&args, &tmp, started, &watchdog),
        ReplicaEnsemble::NAME => drive::<ReplicaEnsemble>(&args, &tmp, started, &watchdog),
        ServedJobs::NAME => drive::<ServedJobs>(&args, &tmp, started, &watchdog),
        other => Err(format!("unknown workload {other}")),
    };
    watchdog.stop();
    // A correct run leaves no process behind; one that does has failed.
    let orphans = host::kill_stragglers(&tag);
    let _ = std::fs::remove_dir_all(&tmp);

    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("psr-benchmark: {e}");
            return ExitCode::from(1);
        }
    };
    report
        .errors
        .extend((0..orphans).map(|_| "a process was left behind".to_owned()));
    for e in &report.errors {
        eprintln!("FAILED {e}");
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("psr-benchmark: metric {} is not finite", m.name);
        return ExitCode::from(1);
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "fail_frac {} ratio",
        report.errors.len() as f64 / report.attempted.max(1) as f64
    );
    let line = json_object(&report);
    let file = format!(
        "{}{}.json",
        args.workload,
        if args.trace { ".trace" } else { "" }
    );
    if let Err(e) = std::fs::write(Path::new(OUT_DIR).join(file), format!("{line}\n")) {
        eprintln!("psr-benchmark: writing the result: {e}");
        return ExitCode::from(1);
    }
    println!("{line}");
    ExitCode::SUCCESS
}
