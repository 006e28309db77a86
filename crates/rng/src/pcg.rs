//! Minimal PCG-XSH-RR 64/32 generator.
//!
//! PCG ("permuted congruential generator", O'Neill 2014) combines a 64-bit
//! LCG state with an output permutation. It is small (16 bytes), fast
//! (one multiply + shift/rotate per 32-bit output), passes TestU01 BigCrush,
//! and supports 2^63 independent *streams* selected by the increment — the
//! property the parallel executor relies on.

/// The LCG multiplier (O'Neill's default for 64-bit state).
pub const MULTIPLIER: u64 = 6364136223846793005;
/// `MULTIPLIER²` (wrapping): the LCG multiplier for a fused double step.
pub const MULTIPLIER_SQ: u64 = MULTIPLIER.wrapping_mul(MULTIPLIER);

/// PCG-XSH-RR 64/32: 64-bit state, 32-bit output, selectable stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pcg32 {
    pub(crate) state: u64,
    /// Odd increment; (increment >> 1) is the stream id.
    pub(crate) inc: u64,
}

/// The XSH-RR output permutation of a state word.
#[inline(always)]
fn permute(state: u64) -> u32 {
    let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
    let rot = (state >> 59) as u32;
    xorshifted.rotate_right(rot)
}

/// [`Pcg32::next_u64`] on bare words `(state, inc)`, for callers that keep
/// generators packed rather than as `Pcg32` structs (the batched engine).
#[inline(always)]
pub fn draw_u64(state: &mut u64, inc: u64) -> u64 {
    // Fused double step: s₂ = M·(M·s₀ + inc) + inc = M²·s₀ + (M+1)·inc
    // (wrapping), so the cross-call dependency is one multiply-add
    // instead of two — the trial loops of NDCA/RSM are serialized on
    // this chain. Outputs are bit-identical to two `next_output` calls.
    let s0 = *state;
    let s1 = s0.wrapping_mul(MULTIPLIER).wrapping_add(inc);
    *state = s0
        .wrapping_mul(MULTIPLIER_SQ)
        .wrapping_add(MULTIPLIER.wrapping_add(1).wrapping_mul(inc));
    (u64::from(permute(s1)) << 32) | u64::from(permute(s0))
}

impl Pcg32 {
    /// Create a generator from a state seed and a stream id.
    ///
    /// Two generators with different `stream` values produce statistically
    /// independent sequences even for identical `seed`s.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        // Standard PCG seeding dance: advance once, add seed, advance again.
        rng.step();
        rng.state = rng.state.wrapping_add(seed);
        rng.step();
        rng
    }

    /// The stream id this generator draws from.
    pub fn stream(&self) -> u64 {
        self.inc >> 1
    }

    /// Serialise the full generator state as two words `[state, inc]`.
    ///
    /// Together with [`from_state`](Self::from_state) this lets checkpoints
    /// resume the *exact* random stream: a generator rebuilt from these
    /// words produces the same outputs as the original from this point on.
    pub fn state(&self) -> [u64; 2] {
        [self.state, self.inc]
    }

    /// Rebuild a generator from [`state`](Self::state) words.
    ///
    /// # Errors
    ///
    /// Rejects an even increment word: every valid PCG increment is odd, so
    /// an even value means the words are corrupt (e.g. a truncated or
    /// hand-edited checkpoint), not a serialised generator.
    pub fn from_state(words: [u64; 2]) -> Result<Self, String> {
        if words[1] & 1 == 0 {
            return Err(format!(
                "invalid PCG state: increment {:#x} is even",
                words[1]
            ));
        }
        Ok(Pcg32 {
            state: words[0],
            inc: words[1],
        })
    }

    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(MULTIPLIER).wrapping_add(self.inc);
    }

    /// Produce the next 32-bit output.
    #[inline]
    pub fn next_output(&mut self) -> u32 {
        let old = self.state;
        self.step();
        permute(old)
    }

    /// Produce the next 64-bit output: two 32-bit outputs, the first in
    /// the low half ([`draw_u64`] on this generator's words).
    #[inline(always)]
    pub fn next_u64(&mut self) -> u64 {
        draw_u64(&mut self.state, self.inc)
    }

    /// Uniform `u64` in `[0, bound)` without modulo bias (Lemire reduction
    /// on a 64-bit draw with rejection).
    #[inline]
    pub fn gen_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "gen_below bound must be positive");
        // 128-bit multiply-shift; only a low word below `bound` can fall in
        // the short interval, whose exact size is 2⁶⁴ mod bound.
        let mut m = (self.next_u64() as u128) * bound as u128;
        if (m as u64) < bound {
            let t = bound.wrapping_neg() % bound;
            while (m as u64) < t {
                m = (self.next_u64() as u128) * bound as u128;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.gen_below(n as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 random bits.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Jump the generator forward by `delta` steps in O(log delta).
    ///
    /// Implements the LCG jump-ahead of Brown ("Random number generation
    /// with arbitrary strides", 1994).
    pub fn advance(&mut self, delta: u64) {
        let (mult, plus) = jump(delta, self.inc);
        self.state = mult.wrapping_mul(self.state).wrapping_add(plus);
    }
}

/// The LCG jump-ahead of Brown ("Random number generation with arbitrary
/// strides", 1994): `delta` steps of a generator with increment `inc` map
/// its state `s` to `mult·s + plus` (wrapping), in O(log delta).
pub fn jump(mut delta: u64, inc: u64) -> (u64, u64) {
    let mut cur_mult = MULTIPLIER;
    let mut cur_plus = inc;
    let mut acc_mult: u64 = 1;
    let mut acc_plus: u64 = 0;
    while delta > 0 {
        if delta & 1 == 1 {
            acc_mult = acc_mult.wrapping_mul(cur_mult);
            acc_plus = acc_plus.wrapping_mul(cur_mult).wrapping_add(cur_plus);
        }
        cur_plus = cur_mult.wrapping_add(1).wrapping_mul(cur_plus);
        cur_mult = cur_mult.wrapping_mul(cur_mult);
        delta >>= 1;
    }
    (acc_mult, acc_plus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_values_stream_54() {
        // Reference sequence for pcg32 with seed 42, stream 54 from the
        // canonical C implementation (pcg_basic demo output).
        let mut rng = Pcg32::new(42, 54);
        let expected: [u32; 6] = [
            0xa15c02b7, 0x7b47f409, 0xba1d3330, 0x83d2f293, 0xbfa4784b, 0xcbed606e,
        ];
        for &e in &expected {
            assert_eq!(rng.next_output(), e);
        }
    }

    #[test]
    fn streams_are_independent() {
        let mut a = Pcg32::new(7, 1);
        let mut b = Pcg32::new(7, 2);
        let collisions = (0..1000)
            .filter(|_| a.next_output() == b.next_output())
            .count();
        assert!(collisions < 3);
    }

    #[test]
    fn advance_matches_stepping() {
        let mut a = Pcg32::new(99, 3);
        let mut b = a.clone();
        for _ in 0..1000 {
            a.next_output();
        }
        b.advance(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn gen_below_is_in_range_and_covers() {
        let mut rng = Pcg32::new(5, 5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.gen_below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn f64_in_unit_interval_with_sane_mean() {
        let mut rng = Pcg32::new(11, 0);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn state_roundtrip_resumes_exact_stream() {
        let mut rng = Pcg32::new(42, 54);
        for _ in 0..37 {
            rng.next_output();
        }
        let words = rng.state();
        let mut resumed = Pcg32::from_state(words).expect("valid state");
        assert_eq!(resumed, rng);
        for _ in 0..1000 {
            assert_eq!(resumed.next_output(), rng.next_output());
        }
        // The stream id survives the round trip too.
        assert_eq!(resumed.stream(), 54);
    }

    #[test]
    fn from_state_rejects_even_increment() {
        let err = Pcg32::from_state([1, 2]).unwrap_err();
        assert!(err.contains("even"), "unexpected error: {err}");
    }

    #[test]
    fn next_u64_is_two_outputs_low_first() {
        let mut a = Pcg32::new(42, 54);
        let mut b = a.clone();
        for _ in 0..100 {
            let lo = b.next_output() as u64;
            let hi = b.next_output() as u64;
            assert_eq!(a.next_u64(), (hi << 32) | lo);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn gen_below_has_no_bias_at_huge_bounds() {
        // At bound = 2⁶³ + 1 the rejected short interval is almost half of
        // all draws, so a threshold taken from the draw instead of the
        // bound skews the output: [2⁶¹, 2⁶²) then comes up a third of the
        // time instead of a quarter.
        let bound = (1u64 << 63) + 1;
        let mut rng = Pcg32::new(3, 17);
        let n = 100_000;
        let hits = (0..n)
            .filter(|_| (1u64 << 61..1u64 << 62).contains(&rng.gen_below(bound)))
            .count();
        let freq = hits as f64 / n as f64;
        assert!(
            (freq - 0.25).abs() < 0.01,
            "frequency {freq}, expected 0.25"
        );
    }
}
