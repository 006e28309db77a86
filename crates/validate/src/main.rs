//! `psr-validate` — statistical validation harness CLI.
//!
//! ```text
//! psr-validate [options]
//!
//! options:
//!   --smoke             small/fast budgets; writes VALIDATE_smoke.json
//!   --tier T            run only tier T (repeatable):
//!                       exact | segers | statistical | kink
//!   --out FILE          override the JSON output path
//!   --seed N            harness master seed (default 1)
//!   --workers N         replica worker threads (default: available cores)
//!   --quiet             suppress the per-check summary and the wall
//!                       times of each tier and statistical-tier arm
//! ```
//!
//! Exit codes: `0` all checks passed, `1` usage error, `2` at least one
//! check failed.

use psr_validate::exact::{exact_checks, ExactConfig};
use psr_validate::kink::{kink_checks, KinkConfig};
use psr_validate::segers::{segers_checks, SegersConfig};
use psr_validate::statistical::{statistical_checks, StatisticalConfig};
use psr_validate::Report;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: psr-validate [--smoke] [--tier exact|segers|statistical|kink] \
[--out FILE] [--seed N] [--workers N] [--quiet]";

const TIERS: [&str; 4] = ["exact", "segers", "statistical", "kink"];

struct Cli {
    smoke: bool,
    tiers: Vec<String>,
    out: Option<PathBuf>,
    seed: u64,
    workers: usize,
    quiet: bool,
}

fn parse_cli(mut args: std::env::Args) -> Result<Cli, String> {
    let _ = args.next(); // program name
    let mut cli = Cli {
        smoke: false,
        tiers: Vec::new(),
        out: None,
        seed: 1,
        workers: std::thread::available_parallelism().map_or(2, usize::from),
        quiet: false,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--smoke" => cli.smoke = true,
            "--quiet" => cli.quiet = true,
            "--tier" => {
                let tier = value("--tier")?;
                if !TIERS.contains(&tier.as_str()) {
                    return Err(format!("unknown tier {tier:?}\n{USAGE}"));
                }
                cli.tiers.push(tier);
            }
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--workers" => {
                cli.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
                if cli.workers == 0 {
                    return Err("--workers must be positive".into());
                }
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if cli.tiers.is_empty() {
        cli.tiers = TIERS.iter().map(|t| t.to_string()).collect();
    }
    Ok(cli)
}

/// Default output path: `VALIDATE.json` (or `VALIDATE_smoke.json` for
/// `--smoke`, so a CI smoke run never clobbers the committed full
/// report) at the workspace root.
fn default_out(smoke: bool) -> PathBuf {
    let name = if smoke {
        "VALIDATE_smoke.json"
    } else {
        "VALIDATE.json"
    };
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(name)
}

fn run(cli: &Cli) -> Result<Report, String> {
    let mut report = Report::new();
    for tier in &cli.tiers {
        if !cli.quiet {
            eprintln!("validate: running tier {tier}...");
        }
        let start = std::time::Instant::now();
        let checks = match tier.as_str() {
            "exact" => {
                let cfg = if cli.smoke {
                    ExactConfig::smoke(cli.seed, cli.workers)
                } else {
                    ExactConfig::full(cli.seed, cli.workers)
                };
                exact_checks(&cfg)
            }
            "segers" => {
                let cfg = if cli.smoke {
                    SegersConfig::smoke(cli.seed)
                } else {
                    SegersConfig::full(cli.seed)
                };
                segers_checks(&cfg)
            }
            "statistical" => {
                let mut cfg = if cli.smoke {
                    StatisticalConfig::smoke(cli.seed, cli.workers)
                } else {
                    StatisticalConfig::full(cli.seed, cli.workers)
                };
                cfg.log_times = !cli.quiet;
                statistical_checks(&cfg)
            }
            "kink" => {
                let cfg = if cli.smoke {
                    KinkConfig::smoke(cli.seed)
                } else {
                    KinkConfig::full(cli.seed)
                };
                kink_checks(&cfg)
            }
            other => return Err(format!("unknown tier {other:?}")),
        };
        if !cli.quiet {
            let seconds = start.elapsed().as_secs_f64();
            eprintln!(
                "validate: tier {tier}: {} checks, {seconds:.1} s",
                checks.len()
            );
        }
        report.extend(checks);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args()) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(1);
        }
    };
    let report = match run(&cli) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("validate: {e}");
            return ExitCode::from(1);
        }
    };
    if !cli.quiet {
        print!("{}", report.render_summary());
    }
    let out = cli.out.clone().unwrap_or_else(|| default_out(cli.smoke));
    let json = report.to_json(cli.smoke, cli.seed);
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("validate: writing {}: {e}", out.display());
        return ExitCode::from(1);
    }
    if !cli.quiet {
        eprintln!("validate: wrote {}", out.display());
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
