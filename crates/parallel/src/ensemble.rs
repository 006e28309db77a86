//! Replica-level parallelism: the paper's "third way".
//!
//! §1 of the paper lists three ways to parallelise: exploit concurrency in
//! the algorithm, change the model (the partitioned CA), or "obtain the
//! necessary statistics from the averaging of a large number of small,
//! independent simulations". This module is that third way: run `R`
//! independent replicas of any `Simulator`-style closure concurrently
//! (they share nothing, so this parallelises perfectly) and average their
//! coverage series pointwise.

use crate::fork_join;
use psr_stats::{Summary, TimeSeries};

/// Mean ± standard error of an observable across replicas, per time point.
#[derive(Clone, Debug)]
pub struct EnsembleSeries {
    times: Vec<f64>,
    summaries: Vec<Summary>,
}

impl EnsembleSeries {
    /// Average `series` (which must share one time grid) pointwise.
    ///
    /// # Panics
    ///
    /// Panics if `series` is empty or the grids disagree.
    pub fn from_series(series: &[TimeSeries]) -> Self {
        assert!(!series.is_empty(), "need at least one replica");
        let times = series[0].times().to_vec();
        for s in series {
            assert_eq!(s.times(), times.as_slice(), "replica grids differ");
        }
        let mut summaries = vec![Summary::new(); times.len()];
        for s in series {
            for (summary, &v) in summaries.iter_mut().zip(s.values()) {
                summary.add(v);
            }
        }
        EnsembleSeries { times, summaries }
    }

    /// Number of replicas that were averaged.
    pub fn replicas(&self) -> u64 {
        self.summaries.first().map_or(0, Summary::count)
    }

    /// The ensemble-mean series.
    pub fn mean(&self) -> TimeSeries {
        let mut out = TimeSeries::new();
        for (&t, s) in self.times.iter().zip(&self.summaries) {
            out.push(t, s.mean().expect("non-empty ensemble"));
        }
        out
    }

    /// The standard error of the mean, per time point.
    pub fn std_error(&self) -> TimeSeries {
        let mut out = TimeSeries::new();
        for (&t, s) in self.times.iter().zip(&self.summaries) {
            out.push(t, s.std_error().unwrap_or(0.0));
        }
        out
    }
}

/// Run `replicas` independent simulations concurrently on `threads`
/// threads, collecting whatever each replica returns, in replica order
/// (results are deterministic regardless of scheduling). The indices are
/// cut into `threads` contiguous batches, one per thread.
///
/// The closure receives the replica index (use it to derive the seed).
/// This is the generic engine under [`run_ensemble`]; the `psr-validate`
/// harness uses it directly for replica distributions that are not time
/// series.
///
/// # Panics
///
/// Panics if `replicas == 0` or `threads == 0`.
pub fn run_replicas<T, F>(replicas: u64, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    assert!(replicas > 0, "need at least one replica");
    assert!(threads > 0, "need at least one thread");
    let batch = replicas.div_ceil(threads as u64);
    let batches = (0..replicas)
        .step_by(batch as usize)
        .map(|start| start..replicas.min(start + batch))
        .collect();
    fork_join(batches, |batch| batch.map(&run).collect::<Vec<T>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Run `replicas` independent simulations concurrently on `threads`
/// threads and average the series each returns.
///
/// The closure receives the replica index (use it to derive the seed) and
/// returns that replica's sampled observable. Replicas must sample on the
/// same time grid (use a fixed `sample_dt` and horizon).
///
/// # Panics
///
/// Panics if `replicas == 0` or `threads == 0`, or if replica grids differ.
pub fn run_ensemble<F>(replicas: u64, threads: usize, run: F) -> EnsembleSeries
where
    F: Fn(u64) -> TimeSeries + Sync,
{
    let series = run_replicas(replicas, threads, run);
    EnsembleSeries::from_series(&series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_dmc::events::NoHook;
    use psr_dmc::recorder::Recorder;
    use psr_dmc::rsm::Rsm;
    use psr_dmc::sim::SimState;
    use psr_lattice::{Dims, Lattice};
    use psr_model::ModelBuilder;
    use psr_rng::rng_from_seed;

    fn langmuir_replica(seed: u64, side: u32, t_end: f64) -> TimeSeries {
        let model = ModelBuilder::new(&["*", "A"])
            .reaction("ads", 1.0, |r| {
                r.site((0, 0), "*", "A");
            })
            .build();
        let mut state = SimState::new(Lattice::filled(Dims::square(side), 0), &model);
        let mut rng = rng_from_seed(seed);
        let mut rec = Recorder::new(2, 0.25);
        Rsm::new(&model).run_until(&mut state, &mut rng, t_end, Some(&mut rec), &mut NoHook);
        rec.series(1).clone()
    }

    #[test]
    fn ensemble_mean_matches_analytic_langmuir() {
        // Averaging beats a single small replica: 32 replicas of a tiny
        // 8×8 lattice recover θ(t) = 1 − e^(−t) tightly.
        let ens = run_ensemble(32, 2, |i| langmuir_replica(1000 + i, 8, 1.0));
        assert_eq!(ens.replicas(), 32);
        let mean = ens.mean();
        let expected = 1.0 - (-1.0f64).exp();
        let last = *mean.values().last().expect("samples");
        assert!(
            (last - expected).abs() < 0.03,
            "ensemble mean {last} vs analytic {expected}"
        );
        // Standard error shrinks with replicas: should be well below the
        // single-replica fluctuation scale sqrt(p(1-p)/64) ≈ 0.06.
        let se = *ens.std_error().values().last().expect("samples");
        assert!(se < 0.02, "standard error {se}");
    }

    #[test]
    fn ensemble_is_deterministic_in_seeds() {
        let a = run_ensemble(8, 2, |i| langmuir_replica(i, 6, 0.5)).mean();
        let b = run_ensemble(8, 2, |i| langmuir_replica(i, 6, 0.5)).mean();
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn more_replicas_reduce_standard_error() {
        let few = run_ensemble(4, 1, |i| langmuir_replica(i, 6, 1.0));
        let many = run_ensemble(32, 1, |i| langmuir_replica(i, 6, 1.0));
        let se_few: f64 =
            few.std_error().values().iter().sum::<f64>() / few.std_error().len() as f64;
        let se_many: f64 =
            many.std_error().values().iter().sum::<f64>() / many.std_error().len() as f64;
        assert!(
            se_many < se_few,
            "SE should fall with replicas: {se_few} vs {se_many}"
        );
    }

    #[test]
    fn replicas_come_back_in_replica_order() {
        let expected: Vec<u64> = (0..7).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(run_replicas(7, threads, |i| i * i), expected, "{threads}");
        }
    }

    #[test]
    fn two_threads_run_on_two_os_threads() {
        let ids = run_replicas(2, 2, |_| std::thread::current().id());
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    #[should_panic(expected = "replica 5 failed")]
    fn a_panicking_replica_surfaces_its_own_message() {
        run_replicas(7, 3, |i| {
            assert_ne!(i, 5, "replica 5 failed");
            i
        });
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_panics() {
        run_ensemble(0, 1, |_| TimeSeries::new());
    }

    #[test]
    #[should_panic(expected = "grids differ")]
    fn mismatched_grids_panic() {
        let a = TimeSeries::from_points(vec![0.0, 1.0], vec![0.0, 0.0]);
        let b = TimeSeries::from_points(vec![0.0, 2.0], vec![0.0, 0.0]);
        EnsembleSeries::from_series(&[a, b]);
    }
}
