//! AVX-512 lockstep sweep: eight replicas per instruction stream.
//!
//! The single-replica trial is a serially dependent chain —
//! PCG advance → alias sample → mask load → branch — that leaves most of
//! the core idle. Packing eight replicas into the 64-bit lanes of one zmm
//! register turns that latency chain into throughput: one
//! `vpmullq`/`vpaddq` pair advances eight generators, one `vpermq` serves
//! eight alias-table loads from a register-resident table (which is why
//! this path requires `alias.len() <= LANES`), and the eight enabled masks
//! are one 64-byte row load when every lane visits the same site
//! (row-major NDCA), else one `vpgatherqq` at sites gathered from each
//! lane's window of the site table (shuffled NDCA, PNDCA chunks).
//!
//! Bit-exactness notes:
//!
//! - The generators are psr-rng's [`draw8`], one per lane; its XSH-RR
//!   outputs carry a garbage high dword — harmless, because the bucket
//!   product uses `vpmuludq` (reads low dwords only) and the accept compare
//!   masks the qword to 32 bits first.
//! - Lemire short-interval rejection (`lo < n`, probability ~`n/2^32`) is
//!   detected with one compare+`kortest` and patched on a scalar side
//!   path that replays the exact redraw loop of `AliasTable::sample`; the
//!   shuffle's `gen_below` does the same with `Pcg32::gen_below`'s loop.
//! - Frozen lanes (`active == false`), and lanes past the end of a window
//!   shorter than the position, keep their RNG words and clocks via masked
//!   updates — they draw nothing, exactly like a finished replica.
//!
//! Executed trials (a few percent) exit to the same scalar
//! `BatchSim::execute` the scalar path uses.

use std::arch::x86_64::*;
use std::mem::transmute;
use std::ops::Range;

use crate::engine::{soa_index, BatchHook, BatchSim, LANES};
use psr_lattice::Site;
use psr_rng::draw_u64;
use psr_rng::lanes::draw8;
use psr_rng::pcg::MULTIPLIER;

/// Lane groups one register-array block holds (64 replicas). Wider batches
/// are swept block after block; groups are independent, so the blocking
/// moves no trajectory.
pub const MAX_GROUPS: usize = 8;

/// The first eight words of `w` as one vector.
#[inline(always)]
unsafe fn fill(w: &[u64]) -> __m512i {
    _mm512_loadu_si512(w[..LANES].as_ptr().cast())
}

/// A vector's eight lanes.
#[inline(always)]
unsafe fn spill(v: __m512i) -> [u64; LANES] {
    transmute::<__m512i, [u64; LANES]>(v)
}

/// Eight packed generators from their state and increment words: states,
/// increments, and the fused two-step constants `(M+1)·inc`.
#[inline(always)]
unsafe fn load_rng(state: &[u64], inc: &[u64]) -> [__m512i; 3] {
    let inc2: [u64; LANES] = std::array::from_fn(|l| (MULTIPLIER + 1).wrapping_mul(inc[l]));
    [fill(state), fill(inc), fill(&inc2)]
}

/// Lanes set in a lane mask, lowest first (not a branch per lane).
fn lanes(mut k: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let l = k.trailing_zeros() as usize;
        k &= k.wrapping_sub(1);
        (l < LANES).then_some(l)
    })
}

/// Active-lane mask of lane group `g`.
fn active_lanes(sim: &BatchSim, g: usize) -> u8 {
    (0..LANES).fold(0, |k, l| k | u8::from(sim.active[g * LANES + l]) << l)
}

/// One lockstep sweep of every active slot's site window (see
/// `BatchSim::sweep`) over the lane groups `groups`, at most
/// [`MAX_GROUPS`] of them.
///
/// The loop is position-outer, group-inner: each group's generator chain
/// is serially dependent position to position (`vpmullq` latency ~15
/// cycles on Skylake-X-class cores), so sweeping one group at a time is
/// latency bound. Interleaving the block's groups at each position keeps
/// up to [`MAX_GROUPS`] independent chains in flight, which pushes the
/// sweep toward the multiplier's throughput instead. Group state lives in
/// small stack arrays between positions — L1-resident, off the critical
/// path, and (unlike register residency) not spilled around the scalar
/// `execute` call.
///
/// # Safety
///
/// Requires runtime-detected `avx512f` and `avx512dq`, a sim built with
/// `alias.len() <= LANES`, and `table` entries below `n_sites`.
#[target_feature(enable = "avx512f", enable = "avx512dq")]
pub(crate) unsafe fn sweep(
    sim: &mut BatchSim,
    groups: Range<usize>,
    table: Option<&[u32]>,
    hook: &mut dyn BatchHook,
) {
    assert!(groups.len() <= MAX_GROUPS);
    let n = sim.n_sites;
    let alias = sim.alias.entries();
    let n_react = alias.len() as u64;

    // Register-resident alias table: bucket indices are < n_react <= 8, so
    // the padding entries are never selected.
    let mut entries = [alias[0]; LANES];
    entries[..alias.len()].copy_from_slice(alias);
    let ventries = _mm512_loadu_si512(entries.as_ptr().cast());
    let vn = _mm512_set1_epi64(n_react as i64);
    let vlow32 = _mm512_set1_epi64(0xFFFF_FFFF);
    let vone = _mm512_set1_epi64(1);
    let vdt = _mm512_set1_pd(sim.dt);
    let lane_ids = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);

    // Per-group sweep state: generator words, clocks, and each lane's site
    // window (a frozen lane's window is empty, so it never takes a trial).
    let mut rngs = [[_mm512_setzero_si512(); 3]; MAX_GROUPS];
    let mut tms = [_mm512_setzero_pd(); MAX_GROUPS];
    let mut bases = [_mm512_setzero_si512(); MAX_GROUPS];
    let mut lens = [_mm512_setzero_si512(); MAX_GROUPS];
    let mut longest = 0;
    for (i, g) in groups.clone().enumerate() {
        rngs[i] = load_rng(&sim.rng_state[g * LANES..], &sim.rng_inc[g * LANES..]);
        tms[i] = _mm512_loadu_pd(sim.time[g * LANES..].as_ptr());
        let (mut base, mut len) = ([0u64; LANES], [0u64; LANES]);
        for l in lanes(active_lanes(sim, g)) {
            let (b, w) = sim.windows[g * LANES + l];
            let end = table.map_or(n, <[u32]>::len);
            assert!(b as usize + w as usize <= end, "window out of its table");
            (base[l], len[l], longest) = (b.into(), w.into(), longest.max(w as usize));
        }
        (bases[i], lens[i]) = (fill(&base), fill(&len));
    }

    // The hot loop reads `masks` through a raw pointer so the optimizer
    // does not re-load `sim`'s field pointers (and re-check slice bounds)
    // every iteration to account for the cold `execute`/hook calls. The
    // buffer is never reallocated — `execute` only writes elements — but
    // the pointer is still re-derived after every `execute` so no stale
    // provenance crosses a `&mut sim` use.
    let mut masks_ptr = sim.masks.as_ptr();

    for k in 0..longest {
        let vk = _mm512_set1_epi64(k as i64);
        for (i, g) in groups.clone().enumerate() {
            // Lanes whose window reaches position k.
            let k_act = _mm512_cmpgt_epu64_mask(*lens.get_unchecked(i), vk);
            if k_act == 0 {
                continue;
            }
            let [s0, inc, inc2] = *rngs.get_unchecked(i);
            let [s2, lo_out, hi_out] = draw8(s0, inc, inc2);
            let mut st = if k_act == 0xFF {
                s2
            } else {
                _mm512_mask_blend_epi64(k_act, s0, s2)
            };
            let accept_bits = _mm512_and_epi64(hi_out, vlow32);
            // Lemire bucket: m = lo32 · n, bucket = m >> 32. The explicit
            // mask keeps the lowering on one `vpmuludq` (the garbage high
            // dwords of `lo_out` otherwise force a full 64-bit multiply).
            let mut m = _mm512_mul_epu32(_mm512_and_epi64(lo_out, vlow32), vn);
            let k_rej = _mm512_mask_cmplt_epu64_mask(k_act, _mm512_and_epi64(m, vlow32), vn);
            if k_rej != 0 {
                // Short interval (~n/2³² per lane): replay the exact
                // scalar redraw loop for the flagged lanes.
                let (mut stw, mut ms) = (spill(st), spill(m));
                let t = ((1u64 << 32) - n_react) % n_react;
                for l in lanes(k_rej) {
                    let inc = sim.rng_inc[g * LANES + l];
                    while ms[l] & 0xFFFF_FFFF < t {
                        ms[l] = (draw_u64(&mut stw[l], inc) & 0xFFFF_FFFF) * n_react;
                    }
                }
                (st, m) = (fill(&stw), fill(&ms));
            }
            rngs.get_unchecked_mut(i)[0] = st;
            let bucket = _mm512_srli_epi64(m, 32);
            // Packed table lookup + branchless accept-vs-alias.
            let e = _mm512_permutexvar_epi64(bucket, ventries);
            let alias = _mm512_srli_epi64(e, 32);
            let threshold = _mm512_and_epi64(e, vlow32);
            let k_acc = _mm512_cmplt_epu64_mask(accept_bits, threshold);
            let reaction = _mm512_mask_blend_epi64(k_acc, alias, bucket);
            // Each lane's site and enabled mask: one 64-byte row load at a
            // shared site k, else sites gathered from the lanes' windows and
            // masks at `(g·n + site)·LANES + l` (`<< 3` is `· LANES`).
            let (site, mvec) = match table {
                None => {
                    let row = masks_ptr.add(soa_index(k, n, g, 0));
                    (vk, _mm512_loadu_si512(row.cast()))
                }
                Some(t) => {
                    let at = _mm512_add_epi64(*bases.get_unchecked(i), vk);
                    let zero = _mm256_setzero_si256();
                    let site = _mm512_mask_i64gather_epi32(zero, k_act, at, t.as_ptr().cast(), 4);
                    let site = _mm512_cvtepu32_epi64(site);
                    let row = _mm512_add_epi64(_mm512_set1_epi64((g * n * LANES) as i64), lane_ids);
                    // Lanes off their window read site 0's row, in bounds.
                    let idx = _mm512_add_epi64(_mm512_slli_epi64(site, 3), row);
                    (site, _mm512_i64gather_epi64(idx, masks_ptr.cast(), 8))
                }
            };
            let k_en = _mm512_mask_test_epi64_mask(k_act, _mm512_srlv_epi64(mvec, reaction), vone);
            let tm = _mm512_mask_add_pd(*tms.get_unchecked(i), k_act, *tms.get_unchecked(i), vdt);
            *tms.get_unchecked_mut(i) = tm;
            if k_en != 0 {
                let (rs, ss) = (spill(reaction), spill(site));
                let ts: [f64; LANES] = transmute(tm);
                for l in lanes(k_en) {
                    let slot = g * LANES + l;
                    sim.execute(g, l, ss[l] as usize, rs[l] as usize);
                    sim.executed[slot] += 1;
                    hook.on_exec(slot, ts[l], Site(ss[l] as u32), rs[l] as usize);
                }
                masks_ptr = sim.masks.as_ptr();
            }
        }
    }
    for (i, g) in groups.enumerate() {
        _mm512_storeu_si512(sim.rng_state[g * LANES..].as_mut_ptr().cast(), rngs[i][0]);
        _mm512_storeu_pd(sim.time[g * LANES..].as_mut_ptr(), tms[i]);
    }
}

/// `gen_below(bound)` on eight packed generators (`1 <= bound < 2³²`),
/// lanes outside `act` untouched: the advanced states and the draws. The
/// 64×32-bit Lemire product x·b = (x_hi·b)·2³² + x_lo·b splits into two
/// exact `vpmuludq`; the rare short-interval redraw (`low64 < bound`)
/// replays `Pcg32::gen_below`'s loop on the scalar side.
#[inline(always)]
unsafe fn below8(rng: [__m512i; 3], bound: u64, act: u8, inc: &[u64]) -> (__m512i, __m512i) {
    let vlow32 = _mm512_set1_epi64(0xFFFF_FFFF);
    let vb = _mm512_set1_epi64(bound as i64);
    let [s2, lo, hi] = draw8(rng[0], rng[1], rng[2]);
    let st = _mm512_mask_blend_epi64(act, rng[0], s2);
    let (p_lo, p_hi) = (_mm512_mul_epu32(lo, vb), _mm512_mul_epu32(hi, vb));
    let mid = _mm512_add_epi64(_mm512_srli_epi64(p_lo, 32), _mm512_and_epi64(p_hi, vlow32));
    let j = _mm512_add_epi64(_mm512_srli_epi64(p_hi, 32), _mm512_srli_epi64(mid, 32));
    let low = _mm512_or_epi64(_mm512_slli_epi64(mid, 32), _mm512_and_epi64(p_lo, vlow32));
    let k_rej = _mm512_mask_cmplt_epu64_mask(act, low, vb);
    if k_rej == 0 {
        return (st, j);
    }
    let (mut sts, mut js, mut lows) = (spill(st), spill(j), spill(low));
    let t = bound.wrapping_neg() % bound;
    for l in lanes(k_rej) {
        while lows[l] < t {
            let m = u128::from(draw_u64(&mut sts[l], inc[l])) * u128::from(bound);
            (lows[l], js[l]) = (m as u64, (m >> 64) as u64);
        }
    }
    (fill(&sts), fill(&js))
}

/// Fisher–Yates shuffle of every active slot's `orders` row of `len` (at
/// most `n_sites`, so below 2³²) entries, bit-identical to `shuffle` on the
/// slot's stream: a group's eight lanes draw their `gen_below(i + 1)` at
/// once, then swap one by one.
///
/// # Safety
///
/// Requires runtime-detected `avx512f` and `avx512dq`.
#[target_feature(enable = "avx512f", enable = "avx512dq")]
pub(crate) unsafe fn shuffle_orders(sim: &mut BatchSim, len: usize) {
    for g in 0..sim.groups {
        let (act, inc) = (active_lanes(sim, g), &sim.rng_inc[g * LANES..][..LANES]);
        if act == 0 {
            continue;
        }
        let mut rng = load_rng(&sim.rng_state[g * LANES..], inc);
        // One slice per lane: swapping by index into `sim.orders` measured
        // slower than the scalar shuffle.
        let rows = sim.orders[g * LANES * len..][..LANES * len].chunks_exact_mut(len);
        let mut rows: Vec<&mut [u32]> = rows.collect();
        for i in (1..len).rev() {
            let j;
            (rng[0], j) = below8(rng, i as u64 + 1, act, inc);
            let js = spill(j);
            for l in lanes(act) {
                rows[l].swap(i, js[l] as usize);
            }
        }
        _mm512_storeu_si512(sim.rng_state[g * LANES..].as_mut_ptr().cast(), rng[0]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_rng::SimRng;

    /// One `below8` draw for lane group 0: its states and draws.
    #[target_feature(enable = "avx512f", enable = "avx512dq")]
    unsafe fn below(sim: &BatchSim, bound: u64) -> [[u64; LANES]; 2] {
        let rng = load_rng(&sim.rng_state, &sim.rng_inc);
        let (st, j) = below8(rng, bound, active_lanes(sim, 0), &sim.rng_inc);
        [spill(st), spill(j)]
    }

    /// Lane draws are `Pcg32::gen_below` and lane shuffles `shuffle`, slot
    /// for slot; a frozen slot draws nothing. Lane 7 restarts at state 0,
    /// increment 1, whose first draw is 0: a short-interval hit at every
    /// bound, redrawn where 2⁶⁴ mod bound > 0 (1 600 and 2³² − 1).
    #[test]
    fn lane_draws_match_gen_below_and_shuffle() {
        let model = psr_model::library::zgb::zgb_ziff(0.5, 10.0);
        let dims = psr_lattice::Dims::square(10);
        let algorithm = crate::BatchAlgorithm::Ndca { shuffled: true };
        let mut sim = BatchSim::new(&model, dims, algorithm, &[1, 2, 3, 4, 5, 6, 7, 8]);
        if !sim.simd_active() {
            return;
        }
        sim.set_active(2, false);
        let refs = |sim: &BatchSim| -> Vec<SimRng> {
            (0..LANES)
                .map(|s| SimRng::from_state(sim.rng_words(s)).expect("odd inc"))
                .collect()
        };
        for bound in [1u64, 2, 1600, u32::MAX.into()] {
            (sim.rng_state[7], sim.rng_inc[7]) = (0, 1);
            let mut rngs = refs(&sim);
            for draw in 0..64 {
                // SAFETY: `simd_active` implies avx512f and avx512dq.
                let [states, draws] = unsafe { below(&sim, bound) };
                for (slot, rng) in rngs.iter_mut().enumerate() {
                    let want = sim.is_active(slot).then(|| rng.gen_below(bound));
                    let got = (states[slot], want.map(|_| draws[slot]));
                    assert_eq!(got, (rng.state()[0], want), "bound {bound}, {slot}, {draw}");
                }
                sim.rng_state[..LANES].copy_from_slice(&states);
            }
        }
        for len in [2usize, 1600] {
            let mut rngs = refs(&sim);
            sim.shuffle_orders(len);
            for (slot, rng) in rngs.iter_mut().enumerate() {
                if sim.is_active(slot) {
                    let mut want: Vec<u32> = (0..len as u32).collect();
                    psr_rng::sample::shuffle(rng, &mut want);
                    assert_eq!(sim.orders[slot * len..][..len], want[..], "slot {slot}");
                }
                assert_eq!(sim.rng_words(slot), rng.state(), "slot {slot}, len {len}");
            }
        }
    }
}
