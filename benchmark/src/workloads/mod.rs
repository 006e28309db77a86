//! The four workloads. Each is a closed loop of jobs over one door of the
//! workspace; see the README for why these four.

pub mod replica;
pub mod serial;
pub mod served;
pub mod sharded;

use crate::jobs::{ClassDef, Job};
use crate::trace::JobCtx;
use psr_lattice::{Coverage, Lattice};
use std::path::Path;

/// What a finished job reports: the trials it simulated (exact, from the
/// program's own counters or the spec) and a digest of what it produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub trials: u64,
    pub digest: u64,
}

pub trait Workload: Sized + Sync {
    const NAME: &'static str;
    const CLASSES: &'static [ClassDef];
    /// Closed-loop clients; never more than 2 generate load.
    const CLIENTS: usize;
    /// Jobs per measured second on the 2-core reference host. The job
    /// count of a run is `seconds` times this, rounded to whole blocks, so
    /// the work of a run is fixed by `(seed, seconds)` alone.
    const JOBS_PER_SECOND: f64;

    /// Everything before the first job: models, partitions, thermalised
    /// snapshots, server start, warm-up. `dir` is fresh and the set-up's own.
    fn setup(dir: &Path) -> Result<Self, String>;

    /// One job, request to checked result. An `Err` is a failed job.
    fn run_job(&self, job: &Job, ctx: JobCtx<'_>) -> Result<Outcome, String>;

    /// Cross-job checks after the measured phase, against references
    /// computed here and not timed, beyond the harness's own check that a
    /// repeated (class, seed) job reproduces its digest. Returns one line
    /// per violation.
    fn verify(&self, _jobs: &[Job], _outcomes: &[Option<Outcome>]) -> Vec<String> {
        Vec::new()
    }
}

/// Coverage counts must sum to N and agree with the lattice they describe.
pub fn check_coverage(coverage: &Coverage, lattice: &Lattice) -> Result<(), String> {
    if coverage.total() != lattice.len() || !coverage.matches(lattice) {
        return Err(format!(
            "coverage counts sum to {} on a lattice of {} sites, or disagree with it",
            coverage.total(),
            lattice.len()
        ));
    }
    Ok(())
}
