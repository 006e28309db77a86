//! Stream derivation: turning one master seed into many independent RNGs.
//!
//! The parallel chunk executor (psr-parallel) hands every chunk its own
//! generator so that simulation output is a pure function of the master seed
//! and the partition, never of thread interleaving. Streams are derived by
//! running the master seed through SplitMix64 — the standard seeding
//! scrambler (Steele, Lea & Flood 2014) — once per stream index.

use crate::pcg::Pcg32;

/// SplitMix64: a tiny, well-mixed 64-bit generator used for seed derivation.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a SplitMix64 with the given state.
    pub fn new(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// Produce the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Derives independent [`Pcg32`] streams from one master seed.
///
/// `StreamFactory::new(seed).stream(i)` is deterministic in `(seed, i)` and
/// two distinct indices yield generators on distinct PCG streams with
/// independently scrambled states.
#[derive(Clone, Debug)]
pub struct StreamFactory {
    master_seed: u64,
}

impl StreamFactory {
    /// Create a factory for the given master seed.
    pub fn new(master_seed: u64) -> Self {
        StreamFactory { master_seed }
    }

    /// The master seed this factory derives from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Derive the generator for stream index `index`.
    pub fn stream(&self, index: u64) -> Pcg32 {
        // Scramble (seed, index) into a state seed; use the index itself
        // (scrambled) as the PCG stream selector so streams never collide
        // even if the scrambled states happened to.
        let mut mix = SplitMix64::new(self.master_seed ^ index.wrapping_mul(0xa076_1d64_78bd_642f));
        let state = mix.next_u64();
        let stream = mix.next_u64() ^ index;
        Pcg32::new(state, stream)
    }

    /// Derive `n` generators for stream indices `0..n`.
    pub fn streams(&self, n: usize) -> Vec<Pcg32> {
        (0..n as u64).map(|i| self.stream(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_values() {
        // Reference output of SplitMix64 with state 0 (Vigna's reference
        // implementation; also Java SplittableRandom's test vector).
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220A8397B1DCDAF);
        assert_eq!(sm.next_u64(), 0x6E789E6AA1B965F4);
    }

    #[test]
    fn streams_deterministic() {
        let f = StreamFactory::new(99);
        let mut a = f.stream(3);
        let mut b = f.stream(3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn streams_distinct() {
        let f = StreamFactory::new(99);
        let mut rngs = f.streams(16);
        let outputs: Vec<u64> = rngs.iter_mut().map(|r| r.next_u64()).collect();
        for i in 0..outputs.len() {
            for j in (i + 1)..outputs.len() {
                assert_ne!(outputs[i], outputs[j], "streams {i} and {j} collided");
            }
        }
    }

    #[test]
    fn stream_pairwise_correlation_is_low() {
        let f = StreamFactory::new(2023);
        let mut a = f.stream(0);
        let mut b = f.stream(1);
        let n = 10_000;
        let mut dot = 0.0;
        for _ in 0..n {
            let x = (a.next_u64() as f64 / u64::MAX as f64) - 0.5;
            let y = (b.next_u64() as f64 / u64::MAX as f64) - 0.5;
            dot += x * y;
        }
        let corr = dot / n as f64 / (1.0 / 12.0); // normalize by variance of U(-.5,.5)
        assert!(corr.abs() < 0.05, "correlation {corr} too high");
    }
}
