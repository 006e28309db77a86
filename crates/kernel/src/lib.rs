//! Compiled reaction kernels: the one trial body and the tables under it.
//!
//! Every method of the paper is the same trial — *test a reaction type's
//! source pattern at a site, write its target pattern* — under a different
//! schedule of sites. This crate holds that trial once:
//!
//! 1. [`CompiledModel`] — lattice-independent: the stencil (the
//!    reflection-closed union of all pattern offsets), per-reaction
//!    requirements `(cell, src, tgt)`, and the reaction LUT mapping every
//!    base-S neighborhood code (over the cells some pattern reads) to an
//!    enabled-reaction bitmask plus its summed rate. Falls back to
//!    per-reaction requirement masks when `S^|read cells|` exceeds
//!    [`DEFAULT_LUT_CAP`].
//! 2. [`SiteKernel`] — lattice-bound: the incrementally maintained
//!    per-site codes and masks (no per-site neighbor table: a
//!    [`psr_lattice::Stencil`] computes `site + cell` with one add away from
//!    the edges), and [`SiteKernel::fire`]: enabled test, then the target
//!    states written to the stencil's cells through the caller's writer —
//!    a plain lattice, a shared one, a shard's owned-or-deferred
//!    write-back. [`SiteKernel::bind`] is the one build-or-refresh step;
//!    [`SiteKernel::split_anchors`] lends disjoint site ranges of the codes
//!    and masks to concurrent folds ([`AnchorRange`]).
//!    [`SiteKernel::execute`] fires on a plain lattice and folds, through
//!    the [`delta`] tables away from the edges.
//! 3. [`counts`] — per-(group, reaction) enabled-site counts, kept by a
//!    kernel beside its masks once [`SiteKernel::attach_counts`] gives it a
//!    site → group map, and the `Σ count·k` weights of weighted chunk
//!    selection.
//!
//! A kernel is *tracked* (the enabled test is one mask load) unless the
//! model has more than [`MAX_KERNEL_REACTIONS`] types; then it is
//! *untracked* and walks the reaction's requirements instead — the only
//! such scan outside `psr-model`'s own matcher, which stays as the
//! independent reference the differential tests compare against. Either
//! way the verdict equals `ReactionType::is_enabled`, consumes no
//! randomness, and the writes keep transform order, so trajectories do not
//! depend on the kernel.

#![warn(missing_docs)]

pub mod compiled;
pub mod counts;
pub mod delta;
pub mod site;

pub use compiled::{
    require_masks, CompiledModel, Requirement, DEFAULT_LUT_CAP, MAX_KERNEL_REACTIONS,
};
pub use counts::{count_diff, group_weights, NO_GROUP};
pub use delta::{AnchorDelta, DeltaWrite, Deltas};
pub use site::{fold_anchor, fold_code, AnchorRange, RangeTail, SiteKernel};
