//! `psr-engine` — run durable batches of surface-reaction simulations.
//!
//! ```text
//! psr-engine run <spec-file> [options]
//! psr-engine check <spec-file>
//!
//! options:
//!   --resume            continue from existing checkpoints (append journal)
//!   --workers N         override [engine] workers
//!   --ckpt-dir DIR      override [engine] checkpoint_dir
//!   --journal PATH      override the journal path
//!   --ignore-faults     strip fail_at_step/abort_at_step (reference run)
//!   --status-secs S     print an ASCII dashboard every S seconds
//!   --quiet             suppress the dashboard and per-job summary
//! ```
//!
//! Exit codes: `0` all jobs completed, `1` usage/spec errors, `2` at least
//! one job failed, `3` the batch was interrupted resumably (rerun with
//! `--resume` to continue).

use psr_engine::{BatchSpec, Engine, JobStatus, RunOptions};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: psr-engine run <spec-file> [--resume] [--workers N] \
[--ckpt-dir DIR] [--journal PATH] [--ignore-faults] [--status-secs S] [--quiet]
       psr-engine check <spec-file>";

struct Cli {
    command: String,
    spec_path: PathBuf,
    resume: bool,
    ignore_faults: bool,
    quiet: bool,
    workers: Option<usize>,
    ckpt_dir: Option<PathBuf>,
    journal: Option<PathBuf>,
    status_secs: Option<f64>,
}

fn parse_cli(mut args: std::env::Args) -> Result<Cli, String> {
    let _ = args.next(); // program name
    let command = args.next().ok_or(USAGE)?;
    if !matches!(command.as_str(), "run" | "check") {
        return Err(format!("unknown command {command:?}\n{USAGE}"));
    }
    let spec_path = PathBuf::from(args.next().ok_or(USAGE)?);
    let mut cli = Cli {
        command,
        spec_path,
        resume: false,
        ignore_faults: false,
        quiet: false,
        workers: None,
        ckpt_dir: None,
        journal: None,
        status_secs: None,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--resume" => cli.resume = true,
            "--ignore-faults" => cli.ignore_faults = true,
            "--quiet" => cli.quiet = true,
            "--workers" => {
                cli.workers = Some(
                    value("--workers")?
                        .parse()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            "--ckpt-dir" => cli.ckpt_dir = Some(PathBuf::from(value("--ckpt-dir")?)),
            "--journal" => cli.journal = Some(PathBuf::from(value("--journal")?)),
            "--status-secs" => {
                cli.status_secs = Some(
                    value("--status-secs")?
                        .parse()
                        .map_err(|e| format!("--status-secs: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// Suppress panic spew from injected faults (they are engine-internal
/// control flow, caught and retried); real panics still print.
fn install_quiet_fault_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("injected fault") {
            default_hook(info);
        }
    }));
}

fn run(cli: Cli) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(&cli.spec_path)
        .map_err(|e| format!("reading {}: {e}", cli.spec_path.display()))?;
    let mut batch = BatchSpec::parse(&text)?;
    if let Some(w) = cli.workers {
        batch.engine.workers = w;
    }
    if let Some(dir) = &cli.ckpt_dir {
        batch.engine.checkpoint_dir = dir.clone();
    }
    if let Some(path) = &cli.journal {
        batch.engine.journal_path = Some(path.clone());
    }

    if cli.command == "check" {
        println!(
            "ok: {} jobs, {} workers, checkpoints in {}",
            batch.jobs.len(),
            batch.engine.workers,
            batch.engine.checkpoint_dir.display()
        );
        // Each job as a section with every default resolved, ready to be
        // pasted back into a spec file.
        for job in &batch.jobs {
            print!("\n{job}");
        }
        return Ok(ExitCode::SUCCESS);
    }

    install_quiet_fault_hook();
    let opts = RunOptions {
        resume: cli.resume,
        ignore_faults: cli.ignore_faults,
        status_every: if cli.quiet {
            None
        } else {
            Some(Duration::from_secs_f64(cli.status_secs.unwrap_or(5.0)))
        },
    };
    let engine = Engine::new(batch.engine.clone());
    let report = engine.run_with_status(&batch, &opts, |frame| print!("{frame}"))?;

    if !cli.quiet {
        for job in &report.jobs {
            match &job.status {
                JobStatus::Completed => {
                    println!("{}: completed ({} attempt(s))", job.name, job.attempts)
                }
                JobStatus::Interrupted(reason) => println!(
                    "{}: interrupted ({}) — rerun with --resume",
                    job.name,
                    reason.as_str()
                ),
                JobStatus::Failed(e) => println!("{}: FAILED: {e}", job.name),
            }
        }
        println!(
            "journal: {}  checkpoints: {}",
            batch.engine.journal().display(),
            batch.engine.checkpoint_dir.display()
        );
    }

    Ok(if report.any_failed() {
        ExitCode::from(2)
    } else if report.any_interrupted() {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match parse_cli(std::env::args()).and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("psr-engine: {e}");
            ExitCode::FAILURE
        }
    }
}
