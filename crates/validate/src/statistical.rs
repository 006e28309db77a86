//! The statistical tier: TOST equivalence gates of CA variants vs DMC.
//!
//! For each CA variant, replica ensembles of the ZGB job are compared
//! against the DMC (RSM) reference ensemble observable-by-observable:
//!
//! - **TOST equivalence** — the gate. A variant passes only when the
//!   `(1−2α)` CI of the mean difference sits inside `(−ε, ε)`, i.e. the
//!   data *demonstrates* agreement within the margin. An underpowered
//!   ensemble yields `Inconclusive`, which fails — precision problems
//!   are surfaced, not absorbed;
//! - **two-sample KS** — a distribution-shape cross-check at the 1%
//!   level (replica counts are small, so this catches gross shape
//!   differences, not subtleties).
//!
//! The full tier also runs the Kuzovkov oscillation job and gates on
//! the §6 question: does the variant oscillate like the reference
//! (indicator fraction), with equivalent period and amplitude?
//!
//! T-PNDCA is gated in the *opposite direction*: its ZGB deviation is
//! a documented property of the whole-chunk type sweeps, so the check
//! requires the TOST verdict `Different` (see `deviation_checks`'s
//! doc comment and `tests/equivalence.rs`).

use crate::ensemble::{run_sequential, run_sequential_batched, EnsembleOutcome, SequentialConfig};
use crate::observables::{
    batch_algorithm_for, deviation_algorithms, oscillation_replica, reference_algorithm,
    splitting_algorithm, variant_algorithms, zgb_replica, zgb_replica_sharded, zgb_replicas_batch,
    OscillationJob, ZgbJob,
};
use crate::verdict::Check;
use psr_core::Algorithm;
use psr_lattice::Dims;
use psr_model::library::zgb::zgb_ziff;
use psr_stats::{ks_two_sample, tost_mean_difference, Verdict};

const TIER: &str = "statistical";

/// Equivalence margins per observable, in the observable's own units.
#[derive(Clone, Copy, Debug)]
pub struct Margins {
    /// Coverage margin ε for `theta_co` / `theta_o` / `theta_vacant`.
    pub coverage: f64,
    /// CO₂ turnover margin (events / site / time).
    pub co2_rate: f64,
    /// Oscillation period margin (time units).
    pub period: f64,
    /// Oscillation amplitude margin (coverage units).
    pub amplitude: f64,
}

impl Default for Margins {
    fn default() -> Self {
        Margins {
            coverage: 0.03,
            co2_rate: 0.03,
            period: 10.0,
            amplitude: 0.05,
        }
    }
}

/// Parameters of the statistical tier.
#[derive(Clone, Debug)]
pub struct StatisticalConfig {
    /// The ZGB ensemble job.
    pub zgb: ZgbJob,
    /// The oscillation job (`None` skips it — the smoke tier).
    pub oscillation: Option<OscillationJob>,
    /// Sequential-sampling budget.
    pub seq: SequentialConfig,
    /// Equivalence margins.
    pub margins: Margins,
    /// TOST significance level (per one-sided test).
    pub alpha: f64,
    /// Print each ensemble arm's replica count and wall time to stderr.
    pub log_times: bool,
}

impl StatisticalConfig {
    /// Full-tier parameters.
    pub fn full(base_seed: u64, workers: usize) -> Self {
        StatisticalConfig {
            zgb: ZgbJob::full(),
            oscillation: Some(OscillationJob::full()),
            seq: SequentialConfig::full(base_seed, workers),
            margins: Margins::default(),
            alpha: 0.05,
            log_times: false,
        }
    }

    /// Smoke-tier parameters: smaller lattice, shorter horizon, no
    /// oscillation job, looser margins (the small job is noisier).
    pub fn smoke(base_seed: u64, workers: usize) -> Self {
        StatisticalConfig {
            zgb: ZgbJob::smoke(),
            oscillation: None,
            seq: SequentialConfig::smoke(base_seed, workers),
            margins: Margins {
                coverage: 0.06,
                co2_rate: 0.06,
                ..Margins::default()
            },
            alpha: 0.05,
            log_times: false,
        }
    }
}

/// Sequential-precision targets: stop adding replicas once the
/// coverage and rate CIs are comfortably inside the margin.
fn zgb_targets(margins: &Margins) -> Vec<(&'static str, f64)> {
    vec![
        ("theta_co", margins.coverage / 3.0),
        ("theta_o", margins.coverage / 3.0),
        ("co2_rate", margins.co2_rate / 3.0),
    ]
}

/// Run one ensemble arm, and report its replicas and wall time on stderr
/// when `cfg.log_times` is set.
fn timed(
    cfg: &StatisticalConfig,
    arm: &str,
    run: impl FnOnce() -> EnsembleOutcome,
) -> EnsembleOutcome {
    let start = std::time::Instant::now();
    let outcome = run();
    if cfg.log_times {
        let seconds = start.elapsed().as_secs_f64();
        eprintln!(
            "validate:   arm {arm}: {} replicas, {seconds:.1} s",
            outcome.replicas
        );
    }
    outcome
}

fn run_zgb_ensemble(cfg: &StatisticalConfig, algorithm: &Algorithm, salt: u64) -> EnsembleOutcome {
    let mut seq = cfg.seq.clone();
    seq.base_seed = cfg.seq.base_seed + salt * 1_000_000;
    let targets = zgb_targets(&cfg.margins);
    // Lockstep-capable variants (NDCA, PNDCA) run through the batch
    // engine: same seeds, bit-identical per-replica observables (pinned
    // by `zgb_batch_matches_single_replicas_bit_exactly`), so routing
    // cannot change any verdict — only the wall clock.
    let model = zgb_ziff(cfg.zgb.y, cfg.zgb.k_react);
    if batch_algorithm_for(algorithm, Dims::square(cfg.zgb.side), &model).is_some() {
        run_sequential_batched(&seq, &targets, |count, base| {
            zgb_replicas_batch(&cfg.zgb, algorithm, count, base).expect("lockstep-capable")
        })
    } else {
        run_sequential(&seq, &targets, |seed| {
            zgb_replica(&cfg.zgb, algorithm, seed)
        })
    }
}

fn equivalence_check(
    name: String,
    reference: &EnsembleOutcome,
    variant: &EnsembleOutcome,
    observable: &str,
    margin: f64,
    alpha: f64,
) -> Check {
    let a = reference
        .observable(observable)
        .expect("reference observable")
        .finite_samples();
    let b = variant
        .observable(observable)
        .expect("variant observable")
        .finite_samples();
    let tost = tost_mean_difference(&a, &b, margin, alpha);
    Check::new(
        TIER,
        name,
        tost.verdict == Verdict::Equivalent,
        format!(
            "{observable}: diff = {:+.4}, {:.0}% CI [{:+.4}, {:+.4}], margin ±{margin} -> {}",
            tost.diff,
            (1.0 - 2.0 * alpha) * 100.0,
            tost.ci_lo,
            tost.ci_hi,
            tost.verdict
        ),
    )
    .metric("diff", tost.diff)
    .metric("ci_lo", tost.ci_lo)
    .metric("ci_hi", tost.ci_hi)
    // Headroom of the equivalence verdict: how deep the CI sits inside
    // the band (negative when it pokes out or the test is underpowered).
    .metric("margin", (tost.ci_lo + margin).min(margin - tost.ci_hi))
}

fn ks_check(
    name: String,
    reference: &EnsembleOutcome,
    variant: &EnsembleOutcome,
    observable: &str,
) -> Check {
    let a = reference
        .observable(observable)
        .expect("reference observable")
        .finite_samples();
    let b = variant
        .observable(observable)
        .expect("variant observable")
        .finite_samples();
    let ks = ks_two_sample(&a, &b);
    Check::new(
        TIER,
        name,
        ks.accepts(0.01),
        format!(
            "{observable}: two-sample KS D = {:.3} (scaled {:.3}) over {}+{} replicas",
            ks.statistic, ks.scaled, ks.n, ks.m
        ),
    )
    .metric("ks_scaled", ks.scaled)
    .metric("margin", ks.margin(0.01))
}

/// Run the statistical tier and return its checks.
pub fn statistical_checks(cfg: &StatisticalConfig) -> Vec<Check> {
    let mut checks = Vec::new();
    let (ref_name, ref_algorithm) = reference_algorithm();
    let reference = timed(cfg, &format!("zgb-{ref_name}"), || {
        run_zgb_ensemble(cfg, &ref_algorithm, 0)
    });
    checks.push(
        Check::new(
            TIER,
            format!("zgb-{ref_name}-converged"),
            reference.converged,
            format!(
                "reference ensemble {} its precision targets after {} replicas",
                if reference.converged { "met" } else { "missed" },
                reference.replicas
            ),
        )
        .metric("replicas", reference.replicas as f64),
    );

    for (salt, (name, algorithm)) in variant_algorithms().into_iter().enumerate() {
        let variant = timed(cfg, &format!("zgb-{name}"), || {
            run_zgb_ensemble(cfg, &algorithm, 1 + salt as u64)
        });
        for observable in ["theta_co", "theta_o", "co2_rate"] {
            let margin = if observable == "co2_rate" {
                cfg.margins.co2_rate
            } else {
                cfg.margins.coverage
            };
            checks.push(equivalence_check(
                format!("zgb-{name}-{observable}"),
                &reference,
                &variant,
                observable,
                margin,
                cfg.alpha,
            ));
        }
        checks.push(ks_check(
            format!("zgb-{name}-ks-theta_co"),
            &reference,
            &variant,
            "theta_co",
        ));
    }

    // The sharded-executor arm: ZGB on `psr-shard`'s domain-decomposed
    // PNDCA (4 workers, halo-frame boundary exchange). The protocol is
    // pinned bit-identically against the shared-lattice executor by
    // `psr-shard`'s differential tests; this gate asks the independent
    // question — that the *physics* matches DMC within the margins.
    {
        let mut seq = cfg.seq.clone();
        seq.base_seed = cfg.seq.base_seed + 50 * 1_000_000;
        let targets = zgb_targets(&cfg.margins);
        let zgb = cfg.zgb;
        let sharded = timed(cfg, "zgb-sharded", || {
            run_sequential(&seq, &targets, move |seed| {
                zgb_replica_sharded(&zgb, 4, seed)
            })
        });
        for observable in ["theta_co", "theta_o", "co2_rate"] {
            let margin = if observable == "co2_rate" {
                cfg.margins.co2_rate
            } else {
                cfg.margins.coverage
            };
            checks.push(equivalence_check(
                format!("zgb-sharded-{observable}"),
                &reference,
                &sharded,
                observable,
                margin,
                cfg.alpha,
            ));
        }
        checks.push(ks_check(
            "zgb-sharded-ks-theta_co".to_owned(),
            &reference,
            &sharded,
            "theta_co",
        ));
    }

    // The operator-splitting arm: fractional-step KMC (Strang, 2×2).
    // `batch_algorithm_for` has no lockstep equivalent for it, so the
    // ensemble routes through the single-replica session path — the same
    // code the engine checkpoints at window boundaries. The gate is the
    // usual equivalence question: at this window the O(Δt²) splitting
    // bias must be statistically indistinguishable from DMC.
    {
        let (name, algorithm) = splitting_algorithm();
        let variant = timed(cfg, &format!("zgb-{name}"), || {
            run_zgb_ensemble(cfg, &algorithm, 60)
        });
        for observable in ["theta_co", "theta_o", "co2_rate"] {
            let margin = if observable == "co2_rate" {
                cfg.margins.co2_rate
            } else {
                cfg.margins.coverage
            };
            checks.push(equivalence_check(
                format!("zgb-{name}-{observable}"),
                &reference,
                &variant,
                observable,
                margin,
                cfg.alpha,
            ));
        }
        checks.push(ks_check(
            format!("zgb-{name}-ks-theta_co"),
            &reference,
            &variant,
            "theta_co",
        ));
    }

    checks.extend(deviation_checks(cfg, &reference));

    if let Some(osc) = &cfg.oscillation {
        checks.extend(oscillation_checks(cfg, osc));
    }
    checks
}

/// Documented-deviation gates: T-PNDCA's whole-chunk type sweeps bias
/// ZGB toward CO poisoning (the accuracy-for-parallelism trade of the
/// paper's §6, pinned by the tier-1 test
/// `tpndca_on_zgb_shows_the_accuracy_trade`). The gate direction is
/// *reversed*: the check fails if the variant's CO coverage becomes
/// statistically equivalent to DMC, which would mean the algorithm
/// silently changed. The TOST verdict must be `Different` — the CI of
/// the mean difference entirely outside the equivalence band — so an
/// underpowered (`Inconclusive`) ensemble also fails.
fn deviation_checks(cfg: &StatisticalConfig, reference: &EnsembleOutcome) -> Vec<Check> {
    let mut checks = Vec::new();
    for (salt, (name, algorithm)) in deviation_algorithms().into_iter().enumerate() {
        // The deviation signal is O(1), far above replica noise: no
        // sequential refinement needed, so run with no precision
        // targets (stops at min_replicas).
        let mut seq = cfg.seq.clone();
        seq.base_seed = cfg.seq.base_seed + (500 + salt as u64) * 1_000_000;
        let algorithm = algorithm.clone();
        let variant = timed(cfg, &format!("zgb-{name}"), || {
            run_sequential(&seq, &[], move |seed| {
                zgb_replica(&cfg.zgb, &algorithm, seed)
            })
        });
        let a = reference
            .observable("theta_co")
            .expect("reference observable")
            .finite_samples();
        let b = variant
            .observable("theta_co")
            .expect("variant observable")
            .finite_samples();
        let tost = tost_mean_difference(&a, &b, cfg.margins.coverage, cfg.alpha);
        checks.push(
            Check::new(
                TIER,
                format!("zgb-{name}-deviates"),
                tost.verdict == Verdict::Different,
                format!(
                    "theta_co: diff = {:+.4}, CI [{:+.4}, {:+.4}] vs band ±{} -> {} \
                     (expected deviation: whole-chunk type sweeps trade accuracy for parallelism)",
                    tost.diff, tost.ci_lo, tost.ci_hi, cfg.margins.coverage, tost.verdict
                ),
            )
            .metric("diff", tost.diff)
            .metric("ci_lo", tost.ci_lo)
            .metric("ci_hi", tost.ci_hi)
            // Reversed gate: headroom is how far the CI clears the band.
            .metric(
                "margin",
                (tost.ci_lo - cfg.margins.coverage).max(-cfg.margins.coverage - tost.ci_hi),
            ),
        );
    }
    checks
}

/// Oscillation survival: the §6 observable. L-PNDCA with a unit trial
/// budget is the variant the paper says preserves oscillations.
fn oscillation_checks(cfg: &StatisticalConfig, job: &OscillationJob) -> Vec<Check> {
    use psr_ca::lpndca::ChunkVisit;
    use psr_core::PartitionSpec;
    let lpndca = Algorithm::LPndca {
        partition: PartitionSpec::FiveColoring,
        l: 1,
        visit: ChunkVisit::SizeWeighted,
    };
    let (_, ref_algorithm) = reference_algorithm();
    let mut seq = cfg.seq.clone();
    // Oscillation replicas are expensive; the indicator needs no
    // sequential refinement, so pin the budget to the minimum.
    seq.max_replicas = seq.min_replicas;
    let run = |algorithm: &Algorithm, salt: u64| {
        let mut s = seq.clone();
        s.base_seed = seq.base_seed + salt * 1_000_000;
        let algorithm = algorithm.clone();
        run_sequential(&s, &[], move |seed| {
            oscillation_replica(job, &algorithm, seed)
        })
    };
    let reference = timed(cfg, "osc-dmc", || run(&ref_algorithm, 100));
    let variant = timed(cfg, "osc-lpndca", || run(&lpndca, 101));

    let mut checks = Vec::new();
    for (name, out) in [("dmc", &reference), ("lpndca", &variant)] {
        let indicator = out.observable("oscillating").expect("indicator");
        let fraction = indicator.samples.iter().sum::<f64>() / indicator.samples.len() as f64;
        checks.push(
            Check::new(
                TIER,
                format!("osc-{name}-oscillates"),
                fraction >= 0.7,
                format!(
                    "{:.0}% of {} replicas oscillate (need 70%)",
                    fraction * 100.0,
                    indicator.samples.len()
                ),
            )
            .metric("fraction", fraction)
            .metric("margin", fraction - 0.7),
        );
    }
    for (observable, margin) in [
        ("period", cfg.margins.period),
        ("amplitude", cfg.margins.amplitude),
    ] {
        checks.push(equivalence_check(
            format!("osc-lpndca-{observable}"),
            &reference,
            &variant,
            observable,
            margin,
            cfg.alpha,
        ));
    }
    checks
}
