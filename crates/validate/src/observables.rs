//! Replica jobs: what one validation replica simulates and measures.
//!
//! Two production models anchor the statistical tier:
//!
//! - **ZGB** (Figs 2–3): steady-state coverages `θ_CO`, `θ_O`, `θ_*`
//!   and the CO₂ turnover frequency inside the reactive window;
//! - **Kuzovkov/Kortlüke Pt(100)**: global CO-coverage oscillations —
//!   period, amplitude and whether oscillation survives at all (the §6
//!   observable that large-`l` L-PNDCA destroys).
//!
//! Each replica runs one algorithm through the step-wise
//! [`SimSession`](psr_core::session::SimSession) (so the harness
//! exercises the exact code path the engine checkpoints), samples
//! coverages on a fixed block grid, and reduces to scalar observables
//! that [`run_sequential`](crate::ensemble::run_sequential) can
//! bootstrap.

use psr_batch::{BatchAlgorithm, BatchEnsemble, BatchRateMeter};
use psr_ca::lpndca::ChunkVisit;
use psr_ca::pndca::ChunkSelection;
use psr_ca::splitting::Schedule;
use psr_core::{Algorithm, PartitionSpec, Simulator};
use psr_dmc::rate_meter::RateMeter;
use psr_lattice::Dims;
use psr_model::library::kuzovkov::{co_coverage, kuzovkov_model, KuzovkovParams};
use psr_model::library::zgb::{co2_reaction_indices, zgb_ziff};
use psr_model::Model;
use psr_stats::{detect_peaks, TimeSeries};

/// The CA variants gated for *equivalence* against the DMC reference,
/// with display names.
///
/// RSM is the reference itself; the list is every sequential algorithm
/// family from the paper that the session layer can run and that is
/// expected to reproduce DMC physics: NDCA (§4), PNDCA on the
/// 5-coloring (§5), and L-PNDCA with a unit trial budget. Lattice
/// sides must be divisible by 5 (five-coloring) and even (checkerboard
/// in T-PNDCA's per-type partitions).
///
/// T-PNDCA is deliberately *not* here: its whole-chunk type sweeps are
/// a documented accuracy-for-parallelism trade on strongly nonlinear
/// models (a CO-adsorption sweep fills every vacant site of one
/// checkerboard colour in `1/(2K)` time, which pushes ZGB toward CO
/// poisoning). It is gated by [`deviation_algorithms`] instead, which
/// asserts the deviation is *present* — the same contract as the
/// tier-1 test `tpndca_on_zgb_shows_the_accuracy_trade`.
pub fn variant_algorithms() -> Vec<(&'static str, Algorithm)> {
    vec![
        ("ndca", Algorithm::Ndca { shuffled: false }),
        (
            "pndca",
            Algorithm::Pndca {
                partition: PartitionSpec::FiveColoring,
                selection: ChunkSelection::RandomOrder,
            },
        ),
        (
            "lpndca",
            Algorithm::LPndca {
                partition: PartitionSpec::FiveColoring,
                l: 1,
                visit: ChunkVisit::SizeWeighted,
            },
        ),
    ]
}

/// Variants whose *documented deviation* from DMC is the gate: the
/// validation fails if they silently start matching the reference,
/// because that would mean the algorithm changed underneath us.
pub fn deviation_algorithms() -> Vec<(&'static str, Algorithm)> {
    vec![("tpndca", Algorithm::TPndca)]
}

/// The DMC reference algorithm the variants are compared against.
pub fn reference_algorithm() -> (&'static str, Algorithm) {
    ("dmc-rsm", Algorithm::Rsm)
}

/// The operator-splitting arm: fractional-step KMC on a 2×2 block grid
/// with the Strang (palindromic, `O(Δt²)`) schedule. The window is kept
/// fine enough that the splitting bias from frozen boundary events sits
/// well inside the statistical tier's coverage margins; the `Δt`
/// error-ordering itself is pinned by `tests/splitting_differential.rs`.
pub fn splitting_algorithm() -> (&'static str, Algorithm) {
    (
        "fskmc",
        Algorithm::Fskmc {
            gx: 2,
            gy: 2,
            schedule: Schedule::Strang,
            window: 0.1,
        },
    )
}

/// Parameters of one ZGB ensemble job.
#[derive(Clone, Copy, Debug)]
pub struct ZgbJob {
    /// CO gas-phase fraction `y` (must sit inside the reactive window).
    pub y: f64,
    /// CO+O reaction rate per orientation.
    pub k_react: f64,
    /// Lattice side (divisible by 5 and even).
    pub side: u32,
    /// Simulated horizon; observables average over the second half.
    pub t_end: f64,
}

impl ZgbJob {
    /// Full-tier job: a production-sized lattice well inside the
    /// reactive window.
    pub fn full() -> Self {
        ZgbJob {
            y: 0.5,
            k_react: 10.0,
            side: 40,
            t_end: 25.0,
        }
    }

    /// Smoke-tier job: small and short, for CI.
    pub fn smoke() -> Self {
        ZgbJob {
            y: 0.5,
            k_react: 10.0,
            side: 20,
            t_end: 8.0,
        }
    }
}

/// Run one ZGB replica of `algorithm` and reduce to scalar observables:
/// `theta_co`, `theta_o`, `theta_vacant` (tail-mean coverages) and
/// `co2_rate` (CO₂ events / site / time over the tail window).
pub fn zgb_replica(job: &ZgbJob, algorithm: &Algorithm, seed: u64) -> Vec<(String, f64)> {
    let model = zgb_ziff(job.y, job.k_react);
    let co2_group = co2_reaction_indices(&model);
    let num_reactions = model.num_reactions();
    let sites = (job.side as usize).pow(2);
    let mut meter = RateMeter::new(num_reactions, sites, 0.5, &[&co2_group]);

    let k_total = model.total_rate();
    let mut session = Simulator::new(model)
        .dims(Dims::square(job.side))
        .seed(seed)
        .algorithm(algorithm.clone())
        .into_session()
        .expect("validation algorithms support sessions");

    // One block ≈ 0.25 time units: step-driven algorithms advance ~1/K
    // of simulated time per whole step, while one fractional-step
    // "step" is a whole window of Δt simulated time.
    let block = match algorithm {
        Algorithm::Fskmc { window, .. } => (0.25 / window).ceil().max(1.0) as u64,
        _ => (0.25 * k_total).ceil().max(1.0) as u64,
    };
    let mut co = TimeSeries::new();
    let mut o = TimeSeries::new();
    let mut vacant = TimeSeries::new();
    while session.time() < job.t_end {
        session.run_blocks(block, &mut meter);
        let cov = &session.state().coverage;
        co.push(session.time(), cov.fraction(1));
        o.push(session.time(), cov.fraction(2));
        vacant.push(session.time(), cov.fraction(0));
    }

    let tail = job.t_end * 0.5;
    let tail_mean = |s: &TimeSeries| s.after(tail).mean().unwrap_or(f64::NAN);
    let co2_rate = meter.rate_series(0).after(tail).mean().unwrap_or(0.0);
    vec![
        ("theta_co".into(), tail_mean(&co)),
        ("theta_o".into(), tail_mean(&o)),
        ("theta_vacant".into(), tail_mean(&vacant)),
        ("co2_rate".into(), co2_rate),
    ]
}

/// The lockstep-batch equivalent of `algorithm`, when the batch engine
/// supports it (NDCA and PNDCA — the step-driven CA variants whose RNG
/// consumption the engine replicates exactly). `None` routes the
/// algorithm through the single-replica path, which also reports a
/// partition that does not fit `dims`.
pub fn batch_algorithm_for(
    algorithm: &Algorithm,
    dims: Dims,
    model: &Model,
) -> Option<BatchAlgorithm> {
    match algorithm {
        Algorithm::Ndca { shuffled } => Some(BatchAlgorithm::Ndca {
            shuffled: *shuffled,
        }),
        Algorithm::Pndca {
            partition,
            selection,
        } => Some(BatchAlgorithm::Pndca {
            partition: partition.build(dims, model).ok()?,
            selection: *selection,
        }),
        _ => None,
    }
}

/// Run `count` ZGB replicas seeded `base_seed..base_seed + count` through
/// the lockstep batch engine and reduce each to the same observables as
/// [`zgb_replica`] — bit-identically: slot `i` samples coverages on the
/// same block grid and meters CO₂ events in the same windows as a
/// single-replica run with seed `base_seed + i`, so every returned value
/// is `==` the single-replica one (pinned by the
/// `zgb_batch_matches_single_replicas_bit_exactly` test).
///
/// Returns `None` when `algorithm` has no lockstep equivalent.
pub fn zgb_replicas_batch(
    job: &ZgbJob,
    algorithm: &Algorithm,
    count: u64,
    base_seed: u64,
) -> Option<Vec<Vec<(String, f64)>>> {
    let model = zgb_ziff(job.y, job.k_react);
    let dims = Dims::square(job.side);
    let batch_algorithm = batch_algorithm_for(algorithm, dims, &model)?;
    let co2_group = co2_reaction_indices(&model);
    let sites = (job.side as usize).pow(2);
    let slots = BatchEnsemble::slots_for(count);
    let mut meter = BatchRateMeter::new(model.num_reactions(), sites, 0.5, &co2_group, slots);
    let block = (0.25 * model.total_rate()).ceil().max(1.0) as u64;
    let ensemble = BatchEnsemble::new(&model, dims, batch_algorithm, block, job.t_end);

    // Per slot: (θ_CO, θ_O, θ_*) series on the per-stride grid.
    let mut series = vec![[(); 3].map(|_| TimeSeries::new()); slots];
    let final_times = ensemble.run(
        count,
        base_seed,
        &mut meter,
        |sim, slot| {
            let t = sim.time(slot);
            series[slot][0].push(t, sim.coverage_fraction(slot, 1));
            series[slot][1].push(t, sim.coverage_fraction(slot, 2));
            series[slot][2].push(t, sim.coverage_fraction(slot, 0));
        },
        |sim, slot| sim.time(slot),
    );

    let tail = job.t_end * 0.5;
    let tail_mean = |s: &TimeSeries| s.after(tail).mean().unwrap_or(f64::NAN);
    Some(
        final_times
            .iter()
            .enumerate()
            .map(|(slot, &final_time)| {
                let co2_rate = meter
                    .rate_series(slot, final_time)
                    .after(tail)
                    .mean()
                    .unwrap_or(0.0);
                vec![
                    ("theta_co".into(), tail_mean(&series[slot][0])),
                    ("theta_o".into(), tail_mean(&series[slot][1])),
                    ("theta_vacant".into(), tail_mean(&series[slot][2])),
                    ("co2_rate".into(), co2_rate),
                ]
            })
            .collect(),
    )
}

/// Run one ZGB replica on the *sharded* executor (`psr-shard`): the
/// lattice tiled over `shards` domain-decomposed workers, PNDCA with
/// random chunk order on the 5-coloring, boundary state moving through
/// the halo-frame protocol. Reduces to the same observables as
/// [`zgb_replica`].
///
/// The CO₂ rate comes from the executor's per-reaction execution
/// counters instead of a per-event meter: cumulative counts are sampled
/// at block boundaries and the tail rate is events / site / time over
/// the tail window — the same expectation the reference's windowed
/// meter estimates.
pub fn zgb_replica_sharded(job: &ZgbJob, shards: u32, seed: u64) -> Vec<(String, f64)> {
    use psr_dmc::sim::SimState;
    use psr_lattice::Lattice;
    use psr_shard::{ShardGrid, ShardedPndca};

    let model = zgb_ziff(job.y, job.k_react);
    let dims = Dims::square(job.side);
    let grid = ShardGrid::for_workers(shards);
    grid.validate(dims, model.interaction_radius());
    let partition = PartitionSpec::FiveColoring
        .build(dims, &model)
        .unwrap_or_else(|e| panic!("{e}"));
    let co2_group = co2_reaction_indices(&model);
    let sites = (job.side as u64).pow(2) as f64;

    let block = (0.25 * model.total_rate()).ceil().max(1.0) as u64;
    let mut exec = ShardedPndca::new(&model, &partition, grid, seed)
        .with_selection(ChunkSelection::RandomOrder);
    let mut state = SimState::new(Lattice::filled(dims, 0), &model);

    let mut co = TimeSeries::new();
    let mut o = TimeSeries::new();
    let mut vacant = TimeSeries::new();
    let mut co2_cum = TimeSeries::new();
    co2_cum.push(0.0, 0.0);
    while state.time < job.t_end {
        exec.run_steps(&mut state, block, None);
        let cov = &state.coverage;
        co.push(state.time, cov.fraction(1));
        o.push(state.time, cov.fraction(2));
        vacant.push(state.time, cov.fraction(0));
        let events: u64 = co2_group
            .iter()
            .map(|&ri| exec.reaction_executions()[ri])
            .sum();
        co2_cum.push(state.time, events as f64);
    }

    let tail = job.t_end * 0.5;
    let tail_mean = |s: &TimeSeries| s.after(tail).mean().unwrap_or(f64::NAN);
    let tail_counts = co2_cum.after(tail);
    let co2_rate = if tail_counts.len() >= 2 {
        let (t, c) = (tail_counts.times(), tail_counts.values());
        let span = t[t.len() - 1] - t[0];
        (c[c.len() - 1] - c[0]) / sites / span
    } else {
        0.0
    };
    vec![
        ("theta_co".into(), tail_mean(&co)),
        ("theta_o".into(), tail_mean(&o)),
        ("theta_vacant".into(), tail_mean(&vacant)),
        ("co2_rate".into(), co2_rate),
    ]
}

/// Parameters of one Kuzovkov oscillation job.
#[derive(Clone, Copy, Debug)]
pub struct OscillationJob {
    /// Lattice side (divisible by 5 and even).
    pub side: u32,
    /// Simulated horizon; peaks are detected after the first quarter.
    pub t_end: f64,
}

impl OscillationJob {
    /// Full-tier job: long enough for ~4 oscillation periods.
    pub fn full() -> Self {
        OscillationJob {
            side: 40,
            t_end: 160.0,
        }
    }

    /// Smoke-tier job (period detection still possible, barely).
    pub fn smoke() -> Self {
        OscillationJob {
            side: 30,
            t_end: 90.0,
        }
    }
}

/// Run one Kuzovkov replica and reduce to `period`, `amplitude` (NaN
/// when undetectable — excluded from CIs upstream) and `oscillating`
/// (0/1 indicator).
pub fn oscillation_replica(
    job: &OscillationJob,
    algorithm: &Algorithm,
    seed: u64,
) -> Vec<(String, f64)> {
    let model = kuzovkov_model(KuzovkovParams::default());
    let k_total = model.total_rate();
    let mut session = Simulator::new(model)
        .dims(Dims::square(job.side))
        .seed(seed)
        .algorithm(algorithm.clone())
        .into_session()
        .expect("validation algorithms support sessions");

    let block = (0.5 * k_total).ceil().max(1.0) as u64;
    let mut co = TimeSeries::new();
    // One fractions buffer for the whole run: the 52-state Kuzovkov model
    // samples thousands of blocks per replica, and a fresh Vec per sample
    // is the kind of ensemble-loop allocation the batch engine exists to
    // avoid.
    let mut fractions = Vec::new();
    while session.time() < job.t_end {
        session.run_blocks(block, &mut psr_dmc::events::NoHook);
        session.state().coverage.fractions_into(&mut fractions);
        co.push(session.time(), co_coverage(&fractions));
    }

    // Same detector settings as the tier-1 oscillation tests: moving
    // average half-width 5 samples, 0.04 hysteresis prominence.
    let summary = detect_peaks(&co.after(job.t_end * 0.25), 5, 0.04);
    vec![
        ("period".into(), summary.period.unwrap_or(f64::NAN)),
        ("amplitude".into(), summary.amplitude.unwrap_or(f64::NAN)),
        (
            "oscillating".into(),
            if summary.is_oscillating(3, 0.03) {
                1.0
            } else {
                0.0
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zgb_replica_reports_all_observables() {
        let job = ZgbJob {
            y: 0.5,
            k_react: 5.0,
            side: 10,
            t_end: 2.0,
        };
        let (_, reference) = reference_algorithm();
        let obs = zgb_replica(&job, &reference, 3);
        let names: Vec<&str> = obs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["theta_co", "theta_o", "theta_vacant", "co2_rate"]);
        let theta: f64 = obs[..3].iter().map(|(_, v)| v).sum();
        assert!((theta - 1.0).abs() < 1e-9, "coverages must sum to 1");
        assert!(obs[3].1 >= 0.0);
    }

    #[test]
    fn zgb_replica_is_deterministic_in_the_seed() {
        let job = ZgbJob {
            y: 0.5,
            k_react: 5.0,
            side: 10,
            t_end: 1.0,
        };
        let algorithm = Algorithm::Ndca { shuffled: false };
        assert_eq!(
            zgb_replica(&job, &algorithm, 9),
            zgb_replica(&job, &algorithm, 9)
        );
    }

    #[test]
    fn every_variant_runs_a_small_zgb_replica() {
        let job = ZgbJob {
            y: 0.5,
            k_react: 5.0,
            side: 10,
            t_end: 1.0,
        };
        let all = variant_algorithms()
            .into_iter()
            .chain(deviation_algorithms())
            .chain([splitting_algorithm()]);
        for (name, algorithm) in all {
            let obs = zgb_replica(&job, &algorithm, 1);
            assert_eq!(obs.len(), 4, "{name}");
            assert!(obs.iter().all(|(_, v)| v.is_finite()), "{name}");
        }
    }

    /// The batched ZGB runner must agree with `zgb_replica` *exactly* —
    /// not statistically: same seeds, same sampling grid, same windows,
    /// bit-identical trajectories, so `==` on every observable.
    #[test]
    fn zgb_batch_matches_single_replicas_bit_exactly() {
        let job = ZgbJob {
            y: 0.5,
            k_react: 5.0,
            side: 10,
            t_end: 2.0,
        };
        let algorithms = [
            Algorithm::Ndca { shuffled: false },
            Algorithm::Ndca { shuffled: true },
            Algorithm::Pndca {
                partition: PartitionSpec::FiveColoring,
                selection: ChunkSelection::RandomOrder,
            },
        ];
        for algorithm in algorithms {
            let rows = zgb_replicas_batch(&job, &algorithm, 10, 400).expect("lockstep-capable");
            assert_eq!(rows.len(), 10);
            for (i, row) in rows.iter().enumerate() {
                let single = zgb_replica(&job, &algorithm, 400 + i as u64);
                assert_eq!(row, &single, "replica {i} of {algorithm:?}");
            }
        }
    }

    #[test]
    fn sharded_replica_reports_all_observables_deterministically() {
        let job = ZgbJob {
            y: 0.5,
            k_react: 5.0,
            side: 10,
            t_end: 2.0,
        };
        let obs = zgb_replica_sharded(&job, 4, 3);
        let names: Vec<&str> = obs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["theta_co", "theta_o", "theta_vacant", "co2_rate"]);
        let theta: f64 = obs[..3].iter().map(|(_, v)| v).sum();
        assert!((theta - 1.0).abs() < 1e-9, "coverages must sum to 1");
        assert!(obs[3].1 >= 0.0);
        assert_eq!(obs, zgb_replica_sharded(&job, 4, 3), "seed determinism");
    }

    #[test]
    fn non_lockstep_algorithms_fall_back() {
        let job = ZgbJob {
            y: 0.5,
            k_react: 5.0,
            side: 10,
            t_end: 1.0,
        };
        for algorithm in [Algorithm::Rsm, deviation_algorithms()[0].1.clone()] {
            assert!(zgb_replicas_batch(&job, &algorithm, 2, 1).is_none());
        }
    }

    #[test]
    fn oscillation_replica_reports_indicator() {
        // Far too short to oscillate — the point is the observable
        // contract: period/amplitude NaN, indicator 0.
        let job = OscillationJob {
            side: 10,
            t_end: 3.0,
        };
        let (_, reference) = reference_algorithm();
        let obs = oscillation_replica(&job, &reference, 2);
        let names: Vec<&str> = obs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["period", "amplitude", "oscillating"]);
        assert_eq!(obs[2].1, 0.0);
    }
}
