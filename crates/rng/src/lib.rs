//! Reproducible random-number infrastructure for the PSR workspace.
//!
//! Stochastic lattice simulations need three things from their RNG that a
//! general-purpose thread RNG does not give directly:
//!
//! 1. **Reproducibility** — a simulation must be exactly repeatable from a
//!    single `u64` seed so that experiments in `EXPERIMENTS.md` can be
//!    regenerated bit-for-bit.
//! 2. **Splittable streams** — the parallel chunk executor gives every chunk
//!    (or worker) its own statistically independent stream derived from the
//!    master seed, so results do not depend on thread scheduling.
//! 3. **Fast kinetic sampling** — selecting a reaction type with probability
//!    `k_i / K` happens once per trial; we provide both a linear-scan
//!    cumulative table and an O(1) Walker alias table.
//!
//! [`lanes`] holds the AVX-512 forms of the generator: eight streams per
//! register, or eight consecutive draws of one stream.
//!
//! The generator is our own minimal PCG-XSH-RR 64/32 implementation (public
//! domain algorithm by M.E. O'Neill); the crate depends on std alone.

#![warn(missing_docs)]

pub mod alias;
pub mod lanes;
pub mod pcg;
pub mod sample;
pub mod split;

pub use alias::{draw_alias, AliasTable};
pub use lanes::StreamLanes;
pub use pcg::{draw_u64, jump, Pcg32};
pub use sample::{exponential, CumulativeTable};
pub use split::{SplitMix64, StreamFactory};

/// The RNG type used throughout the workspace.
pub type SimRng = Pcg32;

/// Create the canonical simulation RNG from a master seed.
///
/// Equivalent to [`StreamFactory::new(seed).stream(0)`](StreamFactory::stream).
pub fn rng_from_seed(seed: u64) -> SimRng {
    StreamFactory::new(seed).stream(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_from_seed_is_reproducible() {
        let mut a = rng_from_seed(42);
        let mut b = rng_from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "seeds 1 and 2 produced nearly identical output");
    }
}
