//! Eight PCG draws per AVX-512 register, in two layouts that share the
//! per-lane arithmetic:
//!
//! - **one generator per lane** ([`draw8`]): eight independent streams,
//!   each lane advanced by one fused double step (psr-batch's replicas);
//! - **lanes of one stream** ([`StreamLanes`], [`stream8`]): lane `k`
//!   holds the stream `k` draws ahead, whose state is `A_k·s + B_k` with
//!   `(A_k, B_k)` the [`jump`] of `2k` LCG steps (`A_k = M²ᵏ`). One
//!   block is the stream's next eight draws, in order, exactly as eight
//!   [`draw_u64`](crate::draw_u64) calls give them; the next block starts
//!   at the [`jump`] of sixteen steps. No lane waits on another, so the
//!   serial chain is one scalar multiply-add per eight draws.
//!
//! The XSH-RR permutation is computed on whole qwords; only the low dword
//! of each lane is meaningful afterwards. `vprorvd` rotates the garbage high
//! dword too, which consumers must mask or ignore (a `vpmuludq` reads low
//! dwords only).

use crate::pcg::{jump, MULTIPLIER};

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Lanes per register: eight 64-bit words.
pub const LANES: usize = 8;

/// The jump constants of eight consecutive draws of one stream (see the
/// module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamLanes {
    /// Lane `k`'s first-output state is `mult[k]·s + plus[k]`.
    mult: [u64; LANES],
    plus: [u64; LANES],
    /// Its second-output state, one LCG step further.
    mult1: [u64; LANES],
    plus1: [u64; LANES],
    /// A whole block: eight draws, sixteen steps.
    block: (u64, u64),
}

impl StreamLanes {
    /// The constants of the stream with increment `inc`.
    pub fn new(inc: u64) -> Self {
        let mut lanes = StreamLanes {
            mult: [0; LANES],
            plus: [0; LANES],
            mult1: [0; LANES],
            plus1: [0; LANES],
            block: jump(2 * LANES as u64, inc),
        };
        for k in 0..LANES {
            let (m, p) = jump(2 * k as u64, inc);
            (lanes.mult[k], lanes.plus[k]) = (m, p);
            lanes.mult1[k] = MULTIPLIER.wrapping_mul(m);
            lanes.plus1[k] = MULTIPLIER.wrapping_mul(p).wrapping_add(inc);
        }
        lanes
    }

    /// The stream's state eight draws after `state`.
    #[inline(always)]
    pub fn next_block(&self, state: u64) -> u64 {
        self.block.0.wrapping_mul(state).wrapping_add(self.block.1)
    }

    /// The per-lane constants as vectors, for [`stream8`].
    ///
    /// # Safety
    ///
    /// Requires `avx512f`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    pub unsafe fn vectors(&self) -> [__m512i; 4] {
        let v = |w: &[u64; LANES]| _mm512_loadu_si512(w.as_ptr().cast());
        [v(&self.mult), v(&self.plus), v(&self.mult1), v(&self.plus1)]
    }
}

/// XSH-RR output permutation of eight packed LCG states; the low dword of
/// each lane holds the 32-bit output, the high dword is garbage.
///
/// # Safety
///
/// Requires `avx512f`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub unsafe fn permute8(s: __m512i) -> __m512i {
    let x = _mm512_srli_epi64(_mm512_xor_si512(_mm512_srli_epi64(s, 18), s), 27);
    let rot = _mm512_srli_epi64(s, 59);
    _mm512_rorv_epi32(x, rot)
}

/// One 64-bit draw per lane from states `s0` of eight generators with
/// increments `inc` and fused two-step constants `inc2 = (M+1)·inc`: the
/// advanced states and the draw's two 32-bit outputs, low then high.
/// s1 = s0·M + inc gives the second output; the next state s0·M² +
/// (M+1)·inc skips it in one step.
///
/// # Safety
///
/// Requires `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub unsafe fn draw8(s0: __m512i, inc: __m512i, inc2: __m512i) -> [__m512i; 3] {
    let s1 = _mm512_mullo_epi64(s0, _mm512_set1_epi64(crate::pcg::MULTIPLIER as i64));
    let s2 = _mm512_mullo_epi64(s0, _mm512_set1_epi64(crate::pcg::MULTIPLIER_SQ as i64));
    let s1 = _mm512_add_epi64(s1, inc);
    [_mm512_add_epi64(s2, inc2), permute8(s0), permute8(s1)]
}

/// The next eight draws of the stream at `state`, lane `k` the `k`-th: each
/// draw's low and high 32-bit outputs (in low dwords), from the
/// [`StreamLanes::vectors`] of its increment.
///
/// # Safety
///
/// Requires `avx512f` and `avx512dq`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub unsafe fn stream8(state: u64, [mult, plus, mult1, plus1]: &[__m512i; 4]) -> [__m512i; 2] {
    let s = _mm512_set1_epi64(state as i64);
    let s0 = _mm512_add_epi64(_mm512_mullo_epi64(s, *mult), *plus);
    let s1 = _mm512_add_epi64(_mm512_mullo_epi64(s, *mult1), *plus1);
    [permute8(s0), permute8(s1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcg::{draw_u64, Pcg32};

    #[test]
    fn block_jump_is_eight_draws() {
        let rng = Pcg32::new(42, 54);
        let [mut state, inc] = rng.state();
        let lanes = StreamLanes::new(inc);
        let start = state;
        for _ in 0..LANES {
            draw_u64(&mut state, inc);
        }
        assert_eq!(lanes.next_block(start), state);
    }

    /// Lane `k` of a block is the stream's `k`-th next draw, from states
    /// spanning the multiply's carries.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn stream_lanes_are_consecutive_draws() {
        if !(is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")) {
            return;
        }
        #[target_feature(enable = "avx512f", enable = "avx512dq")]
        unsafe fn block(state: u64, lanes: &StreamLanes) -> [[u64; LANES]; 2] {
            let [lo, hi] = stream8(state, &lanes.vectors());
            std::mem::transmute::<[__m512i; 2], [[u64; LANES]; 2]>([lo, hi])
        }
        for (seed, stream) in [(1, 0), (42, 54), (u64::MAX, 1 << 62)] {
            let [mut state, inc] = Pcg32::new(seed, stream).state();
            let lanes = StreamLanes::new(inc);
            for _ in 0..64 {
                // SAFETY: the features were detected above.
                let [lo, hi] = unsafe { block(state, &lanes) };
                let next = lanes.next_block(state);
                for k in 0..LANES {
                    let want = draw_u64(&mut state, inc);
                    let got = (hi[k] << 32) | (lo[k] & 0xFFFF_FFFF);
                    assert_eq!(got, want, "seed {seed}, lane {k}");
                }
                assert_eq!(next, state);
            }
        }
    }
}
