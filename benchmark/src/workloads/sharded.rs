//! `sharded_lattice`: T(p,N) on the wall clock, p = 2.
//!
//! One L=1024 ZGB lattice, thermalised at set-up, advanced 4 PNDCA steps
//! per job over the greedy partition by each of the repo's 2-worker
//! executors. `psr-shard` and `psr-parallel` dominate — per-trial stream
//! construction, halo frames, scatter and gather, process spawn — and the
//! compiled serial sweep of `serial_lattice` is bypassed, so a shard-only
//! change must move this workload and leave that one flat.

use super::{check_coverage, Outcome, Workload};
use crate::jobs::{ClassDef, Job};
use crate::stats::state_digest;
use crate::trace::JobCtx;
use psr_ca::greedy_coloring;
use psr_ca::partition::Partition;
use psr_ca::pndca::ChunkSelection;
use psr_dmc::SimState;
use psr_lattice::{Dims, Lattice};
use psr_model::Model;
use psr_parallel::ParallelPndca;
use psr_shard::{ScheduleMode, ShardGrid, ShardedPndca, Wire};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

pub const SIDE: u32 = 1024;
/// PNDCA steps per job.
const STEPS: u64 = 4;
const THERMAL_STEPS: u64 = 16;
/// A silent worker fails its job after this long instead of hanging it.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// The sharded executor as every job and probe of the benchmark builds it.
pub fn sharded<'a>(
    model: &'a Model,
    partition: &'a Partition,
    workers: u32,
    mode: ScheduleMode,
    selection: ChunkSelection,
    seed: u64,
) -> ShardedPndca<'a, 'a> {
    ShardedPndca::new(model, partition, ShardGrid::for_workers(workers), seed)
        .with_selection(selection)
        .with_mode(mode)
        .with_recv_timeout(RECV_TIMEOUT)
}

pub struct ShardedLattice {
    model: Model,
    partition: Partition,
    snapshot: SimState,
}

impl ShardedLattice {
    /// The 1-worker Inline run every 2-worker class must reproduce.
    fn reference(&self, selection: ChunkSelection, seed: u64) -> u64 {
        let mut state = self.snapshot.clone();
        sharded(
            &self.model,
            &self.partition,
            1,
            ScheduleMode::Inline,
            selection,
            seed,
        )
        .run_steps(&mut state, STEPS, None);
        state_digest(state.lattice.cells(), state.time)
    }
}

const WEIGHTED: usize = 3;

impl Workload for ShardedLattice {
    const NAME: &'static str = "sharded_lattice";
    // Ascending job time; the 50th percentile falls inside the second
    // class and the 90th inside the fourth.
    const CLASSES: &'static [ClassDef] = &[
        ClassDef {
            name: "parallel_t2",
            per_block: 8,
            repeats: true,
        },
        ClassDef {
            name: "shard_threaded_w2",
            per_block: 5,
            repeats: true,
        },
        ClassDef {
            name: "shard_unix_w2",
            per_block: 3,
            repeats: true,
        },
        ClassDef {
            name: "shard_weighted_w2",
            per_block: 4,
            repeats: true,
        },
    ];
    const CLIENTS: usize = 1;
    const JOBS_PER_SECOND: f64 = 6.25;

    fn setup(_dir: &Path) -> Result<Self, String> {
        let model = super::serial::zgb();
        let dims = Dims::square(SIDE);
        let partition = greedy_coloring(dims, &model);
        let mut snapshot = SimState::new(Lattice::filled(dims, 0), &model);
        ParallelPndca::new(&model, &partition, 2, 1)
            .with_selection(ChunkSelection::RandomOrder)
            .run_steps(&mut snapshot, THERMAL_STEPS, None);
        Ok(ShardedLattice {
            model,
            partition,
            snapshot,
        })
    }

    fn run_job(&self, job: &Job, ctx: JobCtx<'_>) -> Result<Outcome, String> {
        let mut state = self.snapshot.clone();
        let (model, partition) = (&self.model, &self.partition);
        let shard = |mode, selection, state: &mut SimState| {
            let _door = ctx.span("shard.run_steps");
            sharded(model, partition, 2, mode, selection, job.seed)
                .try_run_steps(state, STEPS, None)
        };
        let random = ChunkSelection::RandomOrder;
        let stats = match job.class {
            0 => {
                let _door = ctx.span("parallel.run_steps");
                ParallelPndca::new(model, partition, 2, job.seed)
                    .with_selection(random)
                    .run_steps(&mut state, STEPS, None)
            }
            1 => shard(ScheduleMode::Threaded, random, &mut state)?,
            2 => shard(ScheduleMode::Socket(Wire::Unix), random, &mut state)?,
            _ => shard(
                ScheduleMode::Threaded,
                ChunkSelection::WeightedByRates,
                &mut state,
            )?,
        };
        check_coverage(&state.coverage, &state.lattice)?;
        Ok(Outcome {
            trials: stats.trials,
            digest: state_digest(state.lattice.cells(), state.time),
        })
    }

    /// Jobs of one seed and selection must end bit-identical whatever the
    /// executor (free: the digests are at hand), and the first seed of each
    /// selection must also match a 1-worker Inline run made here.
    fn verify(&self, jobs: &[Job], outcomes: &[Option<Outcome>]) -> Vec<String> {
        let mut expected = BTreeMap::new();
        let mut referenced = [false; 2];
        let mut errors = Vec::new();
        for (job, outcome) in jobs.iter().zip(outcomes) {
            let Some(outcome) = outcome else { continue };
            let weighted = job.class == WEIGHTED;
            let want = *expected.entry((weighted, job.seed)).or_insert_with(|| {
                if std::mem::replace(&mut referenced[usize::from(weighted)], true) {
                    return outcome.digest;
                }
                let selection = if weighted {
                    ChunkSelection::WeightedByRates
                } else {
                    ChunkSelection::RandomOrder
                };
                self.reference(selection, job.seed)
            });
            if outcome.digest != want {
                errors.push(format!(
                    "job {} ({}, seed {}) ended on {:016x}, others of its seed on {want:016x}",
                    job.id,
                    Self::CLASSES[job.class].name,
                    job.seed,
                    outcome.digest
                ));
            }
        }
        errors
    }
}
