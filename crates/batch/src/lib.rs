//! Batched many-replica lockstep engine (the paper's "third way" to
//! parallelism, in-process).
//!
//! Replica ensembles — dozens of small independent runs of one model — are
//! how the validate statistical tier estimates coverages and turnover
//! frequencies. Run one at a time, each replica re-derives everything the
//! others already computed: the compiled LUT, the alias table, the initial
//! codes and masks, and (worst) a serially dependent RNG→sample→mask chain whose
//! latency the CPU cannot hide because there is only one chain.
//!
//! This crate steps `LANES`-wide groups of replicas in lockstep over a
//! structure-of-arrays state:
//!
//! - **Shared, read-only:** the kernel's own tables — one
//!   [`CompiledModel`](psr_kernel::CompiledModel) (requirements, digit
//!   weights, the code→mask LUT), one [`Stencil`](psr_lattice::Stencil)
//!   addressing its cells, and the packed alias table — serve every
//!   replica; the generator is `psr-rng`'s.
//! - **Per-replica, packed:** lattice cells, neighborhood codes, enabled
//!   masks, one Pcg32 stream, a clock, and coverage counters live in flat
//!   arrays indexed `(group · n_sites + site) · LANES + lane`, so one
//!   site's eight masks are one cache line (and one AVX-512 register).
//!
//! The per-trial recurrence of every replica is independent of its
//! neighbors in the batch, so interleaving eight of them turns the serial
//! latency chain into throughput — and on AVX-512 hardware the whole
//! trial (PCG advance, alias sample, mask test, clock tick) of every kind
//! — row-major and shuffled NDCA, PNDCA — runs eight replicas per
//! instruction sequence ([`simd`]) for models of up to eight reactions.
//!
//! **Correctness bar:** slot `r` of a batch seeded `(seed, r)` is
//! bit-identical — lattice, clock bits, RNG state, observables — to a
//! single-replica run with the same seed. The engine replicates the exact
//! RNG consumption order of [`Ndca`](psr_ca::Ndca) and
//! [`Pndca`](psr_ca::Pndca) (discretized time), which the `identity` test
//! suite and the benchmark's `replica_ensemble` workload pin down.

#![warn(missing_docs)]

pub mod engine;
pub mod ensemble;
#[cfg(target_arch = "x86_64")]
pub mod simd;

pub use engine::{BatchAlgorithm, BatchHook, BatchSim, NoBatchHook, LANES};
pub use ensemble::{run_lockstep, BatchEnsemble, BatchRateMeter};
