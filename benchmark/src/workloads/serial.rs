//! `serial_lattice`: T(1,N), the best serial code, through `psr-core`.
//!
//! One thread. A job builds a `SimSession` on a thermalised snapshot and
//! runs 12 x 2^20 trials in a single `run_blocks` call: NDCA on L=256, where
//! lattice and kernel codes stay in cache, and PNDCA over the greedy
//! partition on L=1024, where they do not; each on ZGB and on Kuzovkov.
//! `psr-kernel`, `psr-ca` and `psr-rng` do nearly all the work;
//! `psr-shard`, `psr-engine` and `psr-serve` do none.

use super::{check_coverage, Outcome, Workload};
use crate::jobs::{ClassDef, Job};
use crate::stats::state_digest;
use crate::trace::JobCtx;
use psr_ca::pndca::ChunkSelection;
use psr_core::{Algorithm, PartitionSpec, SimSession, Simulator};
use psr_dmc::NoHook;
use psr_lattice::{Dims, Lattice};
use psr_model::library::kuzovkov::{kuzovkov_model, KuzovkovParams};
use psr_model::library::zgb::zgb_ziff;
use psr_model::Model;
use std::path::Path;

/// Trials per job.
const TRIALS: u64 = 12 << 20;
/// Steps from the empty surface to the snapshot jobs start from.
const THERMAL_STEPS: u64 = 24;

pub fn zgb() -> Model {
    zgb_ziff(0.5, 2.0)
}

pub fn kuzovkov() -> Model {
    kuzovkov_model(KuzovkovParams::default())
}

pub fn ndca() -> Algorithm {
    Algorithm::Ndca { shuffled: false }
}

pub fn pndca_greedy() -> Algorithm {
    Algorithm::Pndca {
        partition: PartitionSpec::Greedy,
        selection: ChunkSelection::RandomOrder,
    }
}

/// A session of `algorithm` on `model`, from `initial` or the empty surface.
pub fn session(
    model: &Model,
    side: u32,
    algorithm: Algorithm,
    seed: u64,
    initial: Option<&Lattice>,
) -> Result<SimSession, String> {
    let mut sim = Simulator::new(model.clone())
        .dims(Dims::square(side))
        .seed(seed)
        .algorithm(algorithm);
    if let Some(lattice) = initial {
        sim = sim.initial_lattice(lattice.clone());
    }
    sim.into_session()
}

/// The surface after [`THERMAL_STEPS`] steps of `algorithm` from empty:
/// what jobs and probes start from.
pub fn thermalised(model: &Model, side: u32, algorithm: Algorithm) -> Result<Lattice, String> {
    let mut warm = session(model, side, algorithm, 1, None)?;
    warm.run_blocks(THERMAL_STEPS, &mut NoHook);
    Ok(warm.state().lattice.clone())
}

struct Class {
    model: Model,
    side: u32,
    algorithm: Algorithm,
    snapshot: Lattice,
}

pub struct SerialLattice {
    classes: Vec<Class>,
}

impl Workload for SerialLattice {
    const NAME: &'static str = "serial_lattice";
    // Ascending job time; the 50th percentile falls inside the second
    // class and the 90th inside the fourth, ten points from any boundary.
    const CLASSES: &'static [ClassDef] = &[
        ClassDef {
            name: "ndca_kuzovkov_l256",
            per_block: 8,
            repeats: true,
        },
        ClassDef {
            name: "ndca_zgb_l256",
            per_block: 5,
            repeats: true,
        },
        ClassDef {
            name: "pndca_kuzovkov_l1024",
            per_block: 3,
            repeats: true,
        },
        ClassDef {
            name: "pndca_zgb_l1024",
            per_block: 4,
            repeats: true,
        },
    ];
    const CLIENTS: usize = 1;
    const JOBS_PER_SECOND: f64 = 6.25;

    fn setup(_dir: &Path) -> Result<Self, String> {
        let mut classes = Vec::new();
        for (model, side, algorithm) in [
            (kuzovkov(), 256, ndca()),
            (zgb(), 256, ndca()),
            (kuzovkov(), 1024, pndca_greedy()),
            (zgb(), 1024, pndca_greedy()),
        ] {
            classes.push(Class {
                snapshot: thermalised(&model, side, algorithm.clone())?,
                model,
                side,
                algorithm,
            });
        }
        Ok(SerialLattice { classes })
    }

    fn run_job(&self, job: &Job, ctx: JobCtx<'_>) -> Result<Outcome, String> {
        let class = &self.classes[job.class];
        let mut session = {
            let _door = ctx.span("core.session_build");
            session(
                &class.model,
                class.side,
                class.algorithm.clone(),
                job.seed,
                Some(&class.snapshot),
            )?
        };
        let steps = TRIALS / u64::from(class.side * class.side);
        let stats = {
            let _door = ctx.span("core.run_blocks");
            session.run_blocks(steps, &mut NoHook)
        };
        let state = session.state();
        check_coverage(&state.coverage, &state.lattice)?;
        if stats.trials != TRIALS {
            return Err(format!("ran {} trials, asked for {TRIALS}", stats.trials));
        }
        Ok(Outcome {
            trials: stats.trials,
            digest: state_digest(state.lattice.cells(), state.time),
        })
    }
}
