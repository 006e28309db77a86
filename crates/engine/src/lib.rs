//! Fault-tolerant experiment engine for surface-reaction simulations.
//!
//! Research sweeps (the Fig 7 efficiency scans, the oscillation studies)
//! are long batches of independent simulation jobs. This crate makes such
//! batches *durable* and *observable*:
//!
//! - **Declarative specs** ([`spec`]): a batch is a text file of jobs —
//!   model, algorithm, lattice size, seed, steps, checkpoint interval —
//!   plus engine settings (workers, retries, deadlines).
//! - **Durability** ([`checkpoint`], [`runner`], [`engine`]): jobs
//!   checkpoint periodically through `psr-core`'s [`psr_core::SimSession`]
//!   (lattice + clock + step count + RNG stream, the v2 snapshot format of
//!   `psr-lattice::io`), so a killed batch resumes *bit-identically*;
//!   panicking jobs are retried from their last checkpoint with capped
//!   backoff; a cancellation flag checkpoints in-flight jobs and drains the
//!   queue.
//! - **Observability** ([`metrics`], [`journal`], [`dashboard`]): a
//!   lock-cheap metrics registry, an append-only JSONL event journal, and a
//!   periodic ASCII status dashboard.
//!
//! The `psr-engine` binary wires these together behind a small CLI; the
//! pieces are ordinary library types, so benches and the `repro_*` binaries
//! can embed the engine directly.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod dashboard;
pub mod engine;
pub mod journal;
pub mod metrics;
pub mod runner;
pub mod spec;

pub use checkpoint::CheckpointStore;
pub use engine::{BatchReport, Engine, JobReport, JobStatus, RunOptions};
pub use journal::{Journal, JsonLine};
pub use metrics::{MetricsSnapshot, Registry};
pub use runner::{BlockObserver, Interrupt, JobRun, NoObserver, RunOutcome};
pub use spec::{BatchSpec, EngineConfig, JobSpec, ModelSpec};
