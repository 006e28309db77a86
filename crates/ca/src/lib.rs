//! Cellular-automaton simulation methods with partitions — the paper's
//! contribution (§4–5).
//!
//! The Master-Equation algorithms in `psr-dmc` are inherently sequential;
//! the CA family trades kinetic accuracy for parallel structure:
//!
//! - [`sweep`] — the one partitioned sweep: the CA methods below are
//!   schedules of segments over the trial loop of [`CaSweep`];
//! - [`ndca`] — the Non-Deterministic Cellular Automaton: every site is
//!   visited once per step, reaction types chosen with probability
//!   `k_i / K` (§4);
//! - [`bca`] — Block Cellular Automata with shifting block boundaries, the
//!   classical conflict-avoidance scheme the partition concept generalises
//!   (§5, Fig 3);
//! - [`partition`] — partitions of the lattice into conflict-free chunks and
//!   their validation (§5, the non-overlap restriction);
//! - [`partition_builder`] — the 5-chunk von Neumann partition of Fig 4
//!   (a perfect Lee code), greedy graph-coloring for arbitrary models,
//!   checkerboards, and the degenerate `m = 1` / `m = N` partitions;
//! - [`pndca`] — the Partitioned NDCA with the four chunk-selection
//!   strategies of §5;
//! - [`propensity`] — the weighted chunk draw, over the per-chunk counts
//!   the kernel keeps beside its masks (O(|P|) per draw, nothing extra per
//!   event);
//! - [`lpndca`] — L-PNDCA: the general structure with a per-chunk trial
//!   budget `L` interpolating between PNDCA and RSM;
//! - [`tpndca`] — the Ω×T approach: partitioning the *reaction types* too,
//!   which shrinks the partition to 2 chunks for pair-reaction models
//!   (§5, Table II / Fig 6, the Kortlüke generalisation);
//! - [`conflict`] — the conflict detector used to demonstrate Fig 2 and to
//!   check partition safety in tests and in the parallel executor;
//! - [`splitting`] — fractional-step operator-splitting KMC
//!   (Arampatzis/Katsoulakis/Plecháč): exact VSSM within rectangular blocks
//!   for a window Δt, Lie or Strang group schedule — a *tunably accurate*
//!   point between exact DMC and the approximate CA family.

#![warn(missing_docs)]

pub mod bca;
pub mod conflict;
pub mod lpndca;
pub mod ndca;
pub mod partition;
pub mod partition_builder;
pub mod pndca;
pub mod propensity;
pub mod splitting;
pub mod sweep;
pub mod tpndca;

pub use conflict::ConflictDetector;
pub use lpndca::{ChunkVisit, LPndca};
pub use ndca::Ndca;
pub use partition::Partition;
pub use partition_builder::{
    checkerboard, five_coloring, five_coloring_alt, greedy_coloring, seven_coloring, single_chunk,
    singleton_chunks,
};
pub use pndca::{ChunkSelection, Pndca};
pub use splitting::{squarest_grid, FractionalStepKmc, Schedule, SplitPlan, FS_STREAM_NAMESPACE};
pub use sweep::CaSweep;
pub use tpndca::{axis_type_partition, TPndca, TypePartition};
