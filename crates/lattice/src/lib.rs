//! Two-dimensional periodic lattice substrate.
//!
//! The paper (§2) models a catalyst surface as a lattice `Ω` of
//! `N = L0 × L1` sites, each holding a value from a finite domain `D` of
//! particle types. This crate provides exactly that substrate, independent of
//! any chemistry:
//!
//! - [`Dims`] / [`Site`] / [`Coord`] / [`Offset`] — torus geometry with
//!   periodic boundary conditions and translation-invariant offsets;
//! - [`Lattice`] — the configuration `S : Ω → D`, stored as a flat `Vec<u8>`
//!   of state ids for cache-friendly sweeps, and the [`Change`] records
//!   simulators journal as they mutate it;
//! - [`neighborhood`] — von Neumann / Moore / custom offset stencils;
//! - [`wrap`] — torus translation without division: [`WrapTables`], and
//!   [`Stencil`], which addresses a fixed offset list with one add per
//!   lookup away from the edges and no per-site table;
//! - [`coverage`] — incremental per-state occupation counting (the observable
//!   every figure in the paper plots);
//! - [`cluster`] — connected-component analysis of same-state islands;
//! - [`halo`] — halo-padded sub-lattice views with pack/unpack strips for
//!   sharded domain decomposition;
//! - [`region`] — rectangular blocks for block partitions and domain
//!   decomposition;
//! - [`render`] — ASCII visualisation used by the examples.

#![warn(missing_docs)]

pub mod cluster;
pub mod correlation;
pub mod coverage;
pub mod geometry;
pub mod halo;
pub mod io;
pub mod lattice;
pub mod neighborhood;
pub mod region;
pub mod render;
pub mod wrap;

pub use cluster::{ClusterStats, Clusters};
pub use correlation::{correlation_profile, pair_correlation};
pub use coverage::Coverage;
pub use geometry::{Coord, Dims, Offset, Site};
pub use halo::SubLattice;
pub use lattice::{Change, Lattice, State};
pub use neighborhood::Neighborhood;
pub use region::Region;
pub use wrap::{Locus, Stencil, WrapTables};
