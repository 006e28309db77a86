//! Parallel execution of partitioned CA simulations.
//!
//! The point of the paper's partitions: all sites of a chunk can be updated
//! *simultaneously* because their reaction neighborhoods are disjoint. This
//! crate turns that property into actual parallelism:
//!
//! - [`shared`] — a `Sync` view of the lattice cells whose safety contract
//!   is exactly the partition non-overlap restriction, plus an atomic claim
//!   table that *verifies* the contract at runtime in checked mode;
//! - [`executor`] — a threaded PNDCA: each chunk's sweep is split into one
//!   slice per thread, forked and joined on `std::thread::scope`, with
//!   per-trial deterministic RNG streams;
//! - [`machine`] — an analytical parallel-machine model `T(p, N)` calibrated
//!   against the sequential executor, used to regenerate the paper's Fig 7
//!   speedup surface on hardware with fewer cores than the 2003 testbed
//!   (see DESIGN.md, substitution 1);
//! - [`segers`] — the domain-decomposition baseline the paper contrasts
//!   against (§3): block-parallel RSM with an interior/boundary split and
//!   explicit accounting of the communication the block boundaries force;
//! - [`speedup`] — wall-clock measurement harness `T(1,N)/T(p,N)`.

#![warn(missing_docs)]

pub mod ensemble;
pub mod executor;
pub mod machine;
pub mod segers;
pub mod shared;
pub mod speedup;

pub use ensemble::{run_ensemble, run_replicas, EnsembleSeries};
pub use executor::{
    apply_coverage_deltas, draw_stream_id, shuffle_stream_id, trial_stream_base, ParallelPndca,
};
pub use machine::{MachineParams, SimulatedMachine};
pub use segers::{CommStats, SegersDecomposition};
pub use speedup::{measure_speedup, SpeedupRow};

/// Apply `f` to every item, one scoped thread per item, and return the
/// results in item order. Item 0 runs on the calling thread (a single item
/// spawns nothing); a worker's panic resumes on the caller with that
/// worker's own payload.
pub(crate) fn fork_join<I: Send, R: Send>(items: Vec<I>, f: impl Fn(I) -> R + Sync) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else {
        return Vec::new();
    };
    if items.as_slice().is_empty() {
        return vec![f(first)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = items.map(|item| scope.spawn(move || f(item))).collect();
        let mut results = Vec::with_capacity(workers.len() + 1);
        results.push(f(first));
        for worker in workers {
            match worker.join() {
                Ok(r) => results.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results
    })
}
