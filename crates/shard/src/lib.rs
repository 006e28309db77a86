//! Sharded PNDCA: per-worker lattice domains with a halo-exchange message
//! protocol.
//!
//! The shared-lattice executor in `psr-parallel` splits each chunk sweep
//! over threads of one address space. This crate is the distributed
//! counterpart the paper's §3/§6 machinery points at: the torus is tiled
//! into rectangular domains, each worker owns a private halo-padded copy
//! of its domain ([`SubLattice`](psr_lattice::SubLattice)), its own
//! compiled-kernel code tables, and its own deterministic RNG streams —
//! and *all* boundary state moves through serializable byte frames
//! ([`frame`]), never shared memory, so the in-process transport is one
//! swap away from sockets.
//!
//! Determinism contract: every trial draws from a stream keyed by
//! `(step, sweep position, global site)` — the same
//! [`trial_stream_base`](psr_parallel::trial_stream_base) scheme as the
//! shared-lattice executor — and weighted chunk draws are replicated on
//! every worker from integer count sums. Trajectories are therefore a pure
//! function of `(seed, partition)`: invariant to thread count, scheduler
//! choice, and the shard grid, which the differential tests pin.
//!
//! Modules:
//!
//! - [`domain`] — the worker grid and direction algebra;
//! - [`frame`] — the wire format (halo strips, write-backs, counts,
//!   reports, gathers, socket handshake);
//! - [`executor`] — [`ShardedPndca`]: the inline, threaded and
//!   multi-process socket schedulers of the one worker step machine, and the
//!   hub fold that applies reports and accounts the critical path;
//! - [`net`] — the socket transport: hub, worker-process body, coalesced
//!   per-peer frame batching, and the CONFIG/PEERS handshake codec.

#![warn(missing_docs)]

pub mod domain;
pub mod executor;
pub mod frame;
pub mod net;
mod worker;

pub use domain::{dir_index, opposite, ShardGrid, DIRS};
pub use executor::{ScheduleMode, ShardedPndca};
pub use frame::{FrameHeader, StepReport};
pub use net::Wire;
pub use psr_parallel::CommStats;
