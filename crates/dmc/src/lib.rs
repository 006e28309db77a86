//! Dynamic Monte Carlo simulation of surface reactions.
//!
//! Implements the DMC side of the paper (§2–3):
//!
//! - [`rsm`] — the **Random Selection Method**, the paper's reference
//!   algorithm: pick a random site, pick a reaction type with probability
//!   `k_i / K`, execute if enabled, advance time by `Exp(N·K)`;
//! - [`vssm`] — the Variable Step Size Method (Gillespie's direct method)
//!   over an incrementally maintained enabled-reaction index; a rejection-
//!   free baseline from the Segers taxonomy the paper builds on;
//! - [`frm`] — the First Reaction Method with a lazy-deletion event queue;
//! - [`master_equation`] — an **exact** Master Equation integrator for tiny
//!   lattices (full state-space enumeration + RK4), the ground truth that
//!   the §6 correctness criteria compare against;
//! - [`correctness`] — Segers' two criteria: exponential waiting times and
//!   rate-proportional selection;
//! - [`recorder`] — coverage sampling shared by all algorithms (DMC and CA);
//! - [`events`] — the execution hook used by probes and tests.
//!
//! All algorithms simulate the same [`psr_model::Model`] on the same
//! [`psr_lattice::Lattice`] and are statistically equivalent; they differ in
//! cost per event and in how they extend to parallelism (`psr-ca`,
//! `psr-parallel`).

#![warn(missing_docs)]

pub mod correctness;
pub mod events;
pub mod frm;
pub mod master_equation;
pub mod propensity_tree;
pub mod rate_meter;
pub mod recorder;
pub mod rsm;
pub mod sim;
pub mod vssm;
pub mod vssm_tree;

pub use events::{Event, EventHook, NoHook};
pub use frm::Frm;
pub use master_equation::MasterEquation;
pub use propensity_tree::PropensityTree;
pub use rate_meter::RateMeter;
pub use recorder::Recorder;
pub use rsm::{Rsm, RunStats, TimeMode};
pub use sim::SimState;
pub use vssm::{EnabledIndex, Vssm};
pub use vssm_tree::VssmTree;
