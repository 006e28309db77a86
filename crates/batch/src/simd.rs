//! AVX-512 lockstep sweep: eight replicas per instruction stream.
//!
//! The single-replica NDCA trial is a serially dependent chain —
//! PCG advance → alias sample → mask load → branch — that leaves most of
//! the core idle. Packing eight replicas into the 64-bit lanes of one zmm
//! register turns that latency chain into throughput: one
//! `vpmullq`/`vpaddq` pair advances eight generators, one `vpermq` serves
//! eight alias-table loads from a register-resident table (which is why
//! this path requires `alias.len() <= LANES`), and one 64-byte load
//! fetches eight enabled masks (the site-row layout of
//! [`BatchSim`]).
//!
//! Bit-exactness notes:
//!
//! - The XSH-RR permutation is computed on whole qwords; only the low
//!   dword of each lane is meaningful afterwards. `vprorvd` rotates the
//!   garbage high dword too — harmless, because the bucket product uses
//!   `vpmuludq` (reads low dwords only) and the accept compare masks the
//!   qword to 32 bits first.
//! - Lemire short-interval rejection (`lo < n`, probability ~`n/2^32`) is
//!   detected with one compare+`kortest` and patched on a scalar side
//!   path that replays the exact redraw loop of `AliasTable::sample`.
//! - Frozen lanes (`active == false`) keep their RNG words and clocks via
//!   masked updates — they draw nothing, exactly like a finished replica.
//!
//! Executed trials (a few percent) exit to the same scalar
//! `BatchSim::execute` the scalar path uses.

use std::arch::x86_64::*;

use crate::engine::{pcg_next_u64, soa_index, BatchHook, BatchSim, LANES, PCG_MULT, PCG_MULT_SQ};
use psr_lattice::Site;

/// Lane groups the register-array sweep supports (64 replicas). Wider
/// batches fall back to the scalar lockstep path.
pub const MAX_GROUPS: usize = 8;

/// XSH-RR output permutation of eight packed LCG states; low dword of each
/// lane holds the 32-bit output, high dword is garbage (see module docs).
#[inline(always)]
unsafe fn permute8(s: __m512i) -> __m512i {
    let x = _mm512_xor_si512(_mm512_srli_epi64(s, 18), s);
    let x = _mm512_srli_epi64(x, 27);
    let rot = _mm512_srli_epi64(s, 59);
    _mm512_rorv_epi32(x, rot)
}

/// One row-major NDCA sweep over all sites for every lane group.
///
/// The loop is site-outer, group-inner: each group's generator chain is
/// serially dependent site to site (`vpmullq` latency ~15 cycles on
/// Skylake-X-class cores), so sweeping one group at a time is latency
/// bound. Interleaving all groups at each site keeps up to
/// [`MAX_GROUPS`] independent chains in flight, which pushes the sweep
/// toward the multiplier's throughput instead. Group state lives in small
/// stack arrays between sites — L1-resident, off the critical path, and
/// (unlike register residency) not spilled around the scalar `execute`
/// call.
///
/// # Safety
///
/// Requires runtime-detected `avx512f` and `avx512dq`, and a sim built
/// with `alias.len() <= LANES` and `groups <= MAX_GROUPS` (enforced by
/// `BatchSim::simd_available`).
#[target_feature(enable = "avx512f", enable = "avx512dq")]
pub unsafe fn step_ndca_rowmajor(sim: &mut BatchSim, hook: &mut dyn BatchHook) {
    let n = sim.n_sites;
    let groups = sim.groups;
    let n_react = sim.alias_entries.len() as u64;

    // Register-resident alias table: bucket indices are < n_react <= 8, so
    // the padding entries are never selected.
    let mut table = [sim.alias_entries[0]; LANES];
    table[..sim.alias_entries.len()].copy_from_slice(&sim.alias_entries);
    let ventries = _mm512_loadu_si512(table.as_ptr() as *const __m512i);
    let vn = _mm512_set1_epi64(n_react as i64);
    let vlow32 = _mm512_set1_epi64(0xFFFF_FFFF);
    let vone = _mm512_set1_epi64(1);
    let vmul = _mm512_set1_epi64(PCG_MULT as i64);
    let vmul_sq = _mm512_set1_epi64(PCG_MULT_SQ as i64);
    let vdt = _mm512_set1_pd(sim.dt);

    // Per-group sweep state: active masks, generator states, increments
    // and their fused two-step constant `(M+1)·inc`, and the clocks.
    let mut acts = [0u8; MAX_GROUPS];
    let mut sts = [_mm512_setzero_si512(); MAX_GROUPS];
    let mut incs = [_mm512_setzero_si512(); MAX_GROUPS];
    let mut inc2s = [_mm512_setzero_si512(); MAX_GROUPS];
    let mut tms = [_mm512_setzero_pd(); MAX_GROUPS];
    let mut any: u8 = 0;
    for g in 0..groups {
        let base_slot = g * LANES;
        for l in 0..LANES {
            acts[g] |= u8::from(sim.active[base_slot + l]) << l;
        }
        any |= acts[g];
        sts[g] = _mm512_loadu_si512(sim.rng_state[base_slot..].as_ptr() as *const __m512i);
        incs[g] = _mm512_loadu_si512(sim.rng_inc[base_slot..].as_ptr() as *const __m512i);
        let mut w = [0u64; LANES];
        for (l, wl) in w.iter_mut().enumerate() {
            *wl = PCG_MULT
                .wrapping_add(1)
                .wrapping_mul(sim.rng_inc[base_slot + l]);
        }
        inc2s[g] = _mm512_loadu_si512(w.as_ptr() as *const __m512i);
        tms[g] = _mm512_loadu_pd(sim.time[base_slot..].as_ptr());
    }
    if any == 0 {
        return;
    }
    assert!(groups <= MAX_GROUPS);
    assert!(sim.masks.len() >= groups * n * LANES);

    // The hot loop reads `masks` through a raw pointer so the optimizer
    // does not re-load `sim`'s field pointers (and re-check slice bounds)
    // every iteration to account for the cold `execute`/hook calls. The
    // buffer is never reallocated — `execute` only writes elements — but
    // the pointer is still re-derived after every `execute` so no stale
    // provenance crosses a `&mut sim` use.
    let mut masks_ptr = sim.masks.as_ptr();

    for site in 0..n {
        for g in 0..groups {
            let k_act = *acts.get_unchecked(g);
            if k_act == 0 {
                continue;
            }
            // PCG advance: s1 = s0·M + inc (second 32-bit output), next
            // state = s0·M² + (M+1)·inc — both outputs of one 64-bit draw.
            let s0 = *sts.get_unchecked(g);
            let s1 = _mm512_add_epi64(_mm512_mullo_epi64(s0, vmul), *incs.get_unchecked(g));
            let s2 = _mm512_add_epi64(_mm512_mullo_epi64(s0, vmul_sq), *inc2s.get_unchecked(g));
            let mut st = if k_act == 0xFF {
                s2
            } else {
                _mm512_mask_blend_epi64(k_act, s0, s2)
            };
            let lo_out = permute8(s0);
            let accept_bits = _mm512_and_epi64(permute8(s1), vlow32);
            // Lemire bucket: m = lo32 · n, bucket = m >> 32. The explicit
            // mask keeps the lowering on one `vpmuludq` (the garbage high
            // dwords of `lo_out` otherwise force a full 64-bit multiply).
            let mut m = _mm512_mul_epu32(_mm512_and_epi64(lo_out, vlow32), vn);
            let k_rej = _mm512_mask_cmplt_epu64_mask(k_act, _mm512_and_epi64(m, vlow32), vn);
            if k_rej != 0 {
                // Short interval (~n/2³² per lane): replay the exact
                // scalar redraw loop for the flagged lanes.
                let base_slot = g * LANES;
                let mut stw = [0u64; LANES];
                let mut ms = [0u64; LANES];
                _mm512_storeu_si512(stw.as_mut_ptr() as *mut __m512i, st);
                _mm512_storeu_si512(ms.as_mut_ptr() as *mut __m512i, m);
                let mut k = k_rej;
                while k != 0 {
                    let l = k.trailing_zeros() as usize;
                    k &= k - 1;
                    let inc = sim.rng_inc[base_slot + l];
                    let t = ((1u64 << 32) - n_react) % n_react;
                    let mut mm = ms[l];
                    let mut lo = mm & 0xFFFF_FFFF;
                    while lo < t {
                        mm = (pcg_next_u64(&mut stw[l], inc) & 0xFFFF_FFFF) * n_react;
                        lo = mm & 0xFFFF_FFFF;
                    }
                    ms[l] = mm;
                }
                st = _mm512_loadu_si512(stw.as_ptr() as *const __m512i);
                m = _mm512_loadu_si512(ms.as_ptr() as *const __m512i);
            }
            *sts.get_unchecked_mut(g) = st;
            let bucket = _mm512_srli_epi64(m, 32);
            // Packed table lookup + branchless accept-vs-alias.
            let e = _mm512_permutexvar_epi64(bucket, ventries);
            let alias = _mm512_srli_epi64(e, 32);
            let threshold = _mm512_and_epi64(e, vlow32);
            let k_acc = _mm512_cmplt_epu64_mask(accept_bits, threshold);
            let reaction = _mm512_mask_blend_epi64(k_acc, alias, bucket);
            // Eight enabled masks in one 64-byte row load.
            let row = soa_index(site, n, g, 0);
            let mvec = _mm512_loadu_si512(masks_ptr.add(row) as *const __m512i);
            let k_en = _mm512_mask_test_epi64_mask(k_act, _mm512_srlv_epi64(mvec, reaction), vone);
            let tm = _mm512_mask_add_pd(*tms.get_unchecked(g), k_act, *tms.get_unchecked(g), vdt);
            *tms.get_unchecked_mut(g) = tm;
            if k_en != 0 {
                let base_slot = g * LANES;
                let mut rs = [0u64; LANES];
                let mut ts = [0f64; LANES];
                _mm512_storeu_si512(rs.as_mut_ptr() as *mut __m512i, reaction);
                _mm512_storeu_pd(ts.as_mut_ptr(), tm);
                let mut k = k_en;
                while k != 0 {
                    let l = k.trailing_zeros() as usize;
                    k &= k - 1;
                    let slot = base_slot + l;
                    sim.execute(g, l, site, rs[l] as usize);
                    sim.executed[slot] += 1;
                    hook.on_exec(slot, ts[l], Site(site as u32), rs[l] as usize);
                }
                masks_ptr = sim.masks.as_ptr();
            }
        }
    }
    for g in 0..groups {
        if acts[g] == 0 {
            continue;
        }
        let base_slot = g * LANES;
        _mm512_storeu_si512(
            sim.rng_state[base_slot..].as_mut_ptr() as *mut __m512i,
            sts[g],
        );
        _mm512_storeu_pd(sim.time[base_slot..].as_mut_ptr(), tms[g]);
    }
    sim.bump_trials(n as u64);
}
