//! `replica_ensemble`: the paper's "third way", many small replicas.
//!
//! Two client threads. A job is a 32-replica ensemble of 40x40 ZGB to
//! t = 25 through `BatchEnsemble::run` with a rate-meter hook and coverage
//! sampled every stride, the way `psr-validate` drives it. `psr-batch`
//! (SoA packing, AVX-512 sweep) does the work on a working set that fits
//! L1/L2, and model compile and packing are paid per job, so it punishes an
//! optimisation that buys sweep speed with heavier construction.

use super::{Outcome, Workload};
use crate::jobs::{ClassDef, Job};
use crate::stats::{fnv1a, state_digest, FNV_OFFSET};
use crate::trace::JobCtx;
use psr_batch::{BatchAlgorithm, BatchEnsemble, BatchRateMeter};
use psr_ca::five_coloring;
use psr_ca::pndca::ChunkSelection;
use psr_core::{Algorithm, PartitionSpec};
use psr_dmc::NoHook;
use psr_lattice::Dims;
use psr_model::library::zgb::{co2_reaction_indices, zgb_ziff};
use psr_model::Model;
use std::collections::BTreeSet;
use std::path::Path;

pub const REPLICAS: u64 = 32;
pub const SIDE: u32 = 40;
pub const T_END: f64 = 25.0;
/// Distinct (class, seed) ensembles re-run against a lone session.
const LONE_CHECKS: usize = 6;

pub fn model() -> Model {
    zgb_ziff(0.5, 10.0)
}

/// Steps per sampling stride: about 0.25 time units, as `psr-validate`.
pub fn block(model: &Model) -> u64 {
    (0.25 * model.total_rate()).ceil().max(1.0) as u64
}

pub struct ReplicaEnsemble {
    model: Model,
}

/// One ensemble's result: the job outcome plus each slot's own digest.
pub struct Ensemble {
    outcome: Outcome,
    slots: Vec<u64>,
}

impl ReplicaEnsemble {
    /// Batch and lone-session form of a job class.
    fn algorithms(class: usize) -> (BatchAlgorithm, Algorithm) {
        match class {
            1 => (
                BatchAlgorithm::Pndca {
                    partition: five_coloring(Dims::square(SIDE)),
                    selection: ChunkSelection::RandomOrder,
                },
                Algorithm::Pndca {
                    partition: PartitionSpec::FiveColoring,
                    selection: ChunkSelection::RandomOrder,
                },
            ),
            class => {
                let shuffled = class == 2;
                (
                    BatchAlgorithm::Ndca { shuffled },
                    Algorithm::Ndca { shuffled },
                )
            }
        }
    }

    pub fn new() -> Self {
        ReplicaEnsemble { model: model() }
    }

    /// One job of `class`: the ensemble seeded `seed..seed + 32`.
    pub fn ensemble(
        &self,
        class: usize,
        seed: u64,
        ctx: Option<JobCtx<'_>>,
    ) -> Result<Ensemble, String> {
        let model = &self.model;
        let dims = Dims::square(SIDE);
        let sites = dims.sites() as usize;
        let slots = BatchEnsemble::slots_for(REPLICAS);
        let mut meter = BatchRateMeter::new(
            model.num_reactions(),
            sites,
            0.5,
            &co2_reaction_indices(model),
            slots,
        );
        let ensemble =
            BatchEnsemble::new(model, dims, Self::algorithms(class).0, block(model), T_END);
        // Per slot: (t, theta_CO, theta_O, theta_*) on the per-stride grid.
        let mut series: Vec<Vec<[f64; 4]>> = vec![Vec::new(); slots];
        let finished = {
            let _door = ctx.map(|c| c.span("batch.ensemble_run"));
            ensemble.run(
                REPLICAS,
                seed,
                &mut meter,
                |sim, slot| {
                    series[slot].push([
                        sim.time(slot),
                        sim.coverage_fraction(slot, 1),
                        sim.coverage_fraction(slot, 2),
                        sim.coverage_fraction(slot, 0),
                    ]);
                },
                |sim, slot| {
                    let covered: u64 = sim.coverage_counts(slot).iter().sum();
                    let digest = state_digest(sim.lattice_of(slot).cells(), sim.time(slot));
                    (sim.trials(slot), covered, digest, sim.time(slot))
                },
            )
        };
        let mut trials = 0;
        let mut digest = FNV_OFFSET;
        let mut slot_digests = Vec::with_capacity(finished.len());
        for (slot, &(slot_trials, covered, slot_digest, time)) in finished.iter().enumerate() {
            if covered != sites as u64 {
                return Err(format!(
                    "slot {slot}: coverage counts sum to {covered}, not {sites}"
                ));
            }
            if time < T_END || series[slot].is_empty() {
                return Err(format!("slot {slot} stopped at t = {time}"));
            }
            // The rate series is part of what the user asked for; folding
            // it into the digest keeps the meter honest.
            let rate = meter.rate_series(slot, time);
            trials += slot_trials;
            digest = fnv1a(digest, &slot_digest.to_le_bytes());
            digest = fnv1a(digest, &(rate.len() as u64).to_le_bytes());
            slot_digests.push(slot_digest);
        }
        Ok(Ensemble {
            outcome: Outcome { trials, digest },
            slots: slot_digests,
        })
    }

    /// Slot `r` of the batch must equal a lone session seeded `base + r`
    /// driven by the same stride loop.
    fn lone_digest(&self, class: usize, seed: u64) -> Result<u64, String> {
        let mut session =
            super::serial::session(&self.model, SIDE, Self::algorithms(class).1, seed, None)?;
        let stride = block(&self.model);
        while session.time() < T_END {
            session.run_blocks(stride, &mut NoHook);
        }
        let state = session.state();
        Ok(state_digest(state.lattice.cells(), state.time))
    }
}

impl Workload for ReplicaEnsemble {
    const NAME: &'static str = "replica_ensemble";
    // Ascending job time; the 50th percentile falls inside the second
    // class and the 90th inside the third.
    const CLASSES: &'static [ClassDef] = &[
        ClassDef {
            name: "ndca",
            per_block: 8,
            repeats: true,
        },
        ClassDef {
            name: "pndca_five_random",
            per_block: 7,
            repeats: true,
        },
        ClassDef {
            name: "ndca_shuffled",
            per_block: 5,
            repeats: true,
        },
    ];
    const CLIENTS: usize = 2;
    const JOBS_PER_SECOND: f64 = 6.25;

    /// One ensemble of each class warms the code paths and the allocator.
    fn setup(_dir: &Path) -> Result<Self, String> {
        let workload = ReplicaEnsemble::new();
        for class in 0..Self::CLASSES.len() {
            workload.ensemble(class, 1, None)?;
        }
        Ok(workload)
    }

    fn run_job(&self, job: &Job, ctx: JobCtx<'_>) -> Result<Outcome, String> {
        Ok(self.ensemble(job.class, job.seed, Some(ctx))?.outcome)
    }

    fn verify(&self, jobs: &[Job], outcomes: &[Option<Outcome>]) -> Vec<String> {
        let mut errors = Vec::new();
        let mut seen = BTreeSet::new();
        for (job, outcome) in jobs.iter().zip(outcomes) {
            let Some(outcome) = outcome else { continue };
            if seen.len() == LONE_CHECKS || !seen.insert((job.class, job.seed)) {
                continue;
            }
            let r = job.seed % REPLICAS;
            let checked = self
                .ensemble(job.class, job.seed, None)
                .and_then(|again| Ok((again, self.lone_digest(job.class, job.seed + r)?)));
            match checked {
                Ok((again, lone)) => {
                    if again.outcome != *outcome {
                        errors.push(format!("job {} did not reproduce its ensemble", job.id));
                    }
                    if again.slots[r as usize] != lone {
                        errors.push(format!(
                            "job {} ({}): batch slot {r} differs from the lone run seeded {}",
                            job.id,
                            Self::CLASSES[job.class].name,
                            job.seed + r
                        ));
                    }
                }
                Err(e) => errors.push(format!("job {}: {e}", job.id)),
            }
        }
        errors
    }
}
