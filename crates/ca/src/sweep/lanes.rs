//! The lane sweep: a segment's trials eight at a time, in the AVX-512
//! lanes of one sequential stream (see the `sweep` module docs).

use std::arch::x86_64::*;
use std::mem::transmute;

use super::{Sites, Trials};
use psr_dmc::events::{Event, EventHook};
use psr_dmc::sim::SimState;
use psr_kernel::SiteKernel;
use psr_lattice::{Change, Site};
use psr_rng::lanes::{stream8, StreamLanes, LANES};
use psr_rng::{draw_alias, SimRng};

/// Largest alias table the lanes draw from: up to [`LANES`] entries sit in
/// one register, up to this many are gathered from L1.
pub(super) const MAX_REACTIONS: usize = 64;

/// Whether this host runs the lane sweep.
pub(super) fn available() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
}

#[cfg(test)]
thread_local! {
    /// Segments swept in lanes, and blocks a short-interval draw sent to
    /// the scalar trial, on this thread.
    pub(super) static COUNTS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// One trial of `reaction` at `site`, its draw made: the mask test, the
/// fire on a hit, the clock tick and the hook. Returns whether it executed.
#[inline(always)]
fn trial<H: EventHook>(
    kernel: &mut SiteKernel,
    state: &mut SimState,
    changes: &mut Vec<Change>,
    hook: &mut H,
    (site, reaction): (Site, usize),
    dt: f64,
    time: &mut f64,
) -> bool {
    let hit = (kernel.enabled_masks()[site.0 as usize] >> reaction) & 1 != 0;
    if hit {
        let executed = state.fire(kernel, site, reaction, changes);
        debug_assert!(executed, "mask and kernel disagree");
    }
    *time += dt;
    hook.on_event(Event {
        time: *time,
        site,
        reaction,
        executed: hit,
    });
    hit
}

/// [`Trials::run`] of `n` trials at `sites`, each drawing its reaction from
/// the global alias table, on discretised time and a tracked kernel.
///
/// Each block of eight trials draws its eight reactions at once from the
/// stream's next eight draws, loads or gathers the eight sites' masks and
/// tests them. A block without a hit only ticks the clock and tells the
/// hook. A block with one takes its trials in lane order: each re-reads its
/// site's mask, which an earlier fire may have changed, and keeps its draw,
/// which no fire can. A block whose bucket draw falls in the short interval
/// of the Lemire reduction (a redraw, which shifts every later lane's
/// draws), and the last `n mod 8` trials, draw one by one.
///
/// # Safety
///
/// Requires `avx512f` and `avx512dq`, and an alias table of at most
/// [`MAX_REACTIONS`] entries.
#[target_feature(enable = "avx512f", enable = "avx512dq")]
pub(super) unsafe fn run<H: EventHook>(t: &mut Trials<'_, H>, n: usize, sites: Sites<'_>) {
    let Trials {
        alias,
        kernel,
        state,
        rng,
        hook,
        nk,
        changes,
        stats,
        ..
    } = t;
    let hook = &mut **hook;
    let entries = alias.entries();
    assert!(entries.len() <= MAX_REACTIONS);
    let n_sites = kernel.enabled_masks().len();
    match sites {
        Sites::Rows(start) => assert!(start as usize + n <= n_sites, "rows past the lattice"),
        Sites::List(list) => assert!(n <= list.len(), "trials past the site list"),
    }
    #[cfg(test)]
    COUNTS.with(|c| c.set((c.get().0 + 1, c.get().1)));
    let site_of = |i: usize| match sites {
        Sites::Rows(start) => Site(start + i as u32),
        Sites::List(list) => list[i],
    };
    let dt = 1.0 / *nk;
    stats.trials += n as u64;
    let mut executed = 0u64;
    let mut time = state.time;
    let [mut s, inc] = rng.state();
    let lanes = StreamLanes::new(inc);
    let consts = lanes.vectors();

    // `draw_alias`'s bucket draw redraws exactly when its low word falls
    // below `(2³² − R) mod R`.
    let r = entries.len() as u64;
    let short = _mm512_set1_epi64((((1u64 << 32) - r) % r) as i64);
    let vr = _mm512_set1_epi64(r as i64);
    let low32 = _mm512_set1_epi64(0xFFFF_FFFF);
    let one = _mm512_set1_epi64(1);
    let last_site = _mm256_set1_epi32(n_sites.saturating_sub(1) as i32);
    // Up to eight entries in one register: bucket indices are < R, so the
    // padding is never selected.
    let mut packed = [entries[0]; LANES];
    let in_register = entries.len() <= LANES;
    if in_register {
        packed[..entries.len()].copy_from_slice(entries);
    }
    let table = _mm512_loadu_si512(packed.as_ptr().cast());

    // The reactions of the block at `s`, and `s` moved past it; `None`, and
    // `s` unmoved, when a lane's bucket draw falls in the short interval.
    let draw = |s: &mut u64| {
        let [lo, hi] = stream8(*s, &consts);
        // Lemire bucket: m = lo32 · R, bucket = m >> 32.
        let m = _mm512_mul_epu32(_mm512_and_si512(lo, low32), vr);
        if _mm512_cmplt_epu64_mask(_mm512_and_si512(m, low32), short) != 0 {
            return None;
        }
        *s = lanes.next_block(*s);
        let bucket = _mm512_srli_epi64(m, 32);
        let e = if in_register {
            _mm512_permutexvar_epi64(bucket, table)
        } else {
            _mm512_i64gather_epi64(bucket, entries.as_ptr().cast(), 8)
        };
        // Accept the bucket when the high word is below its threshold, else
        // take its alias.
        let keep = _mm512_cmplt_epu64_mask(_mm512_and_si512(hi, low32), _mm512_and_si512(e, low32));
        Some(_mm512_mask_blend_epi64(
            keep,
            _mm512_srli_epi64(e, 32),
            bucket,
        ))
    };

    let mut i = 0;
    let mut ahead = None;
    while i + LANES <= n {
        let Some(reaction) = ahead.take().or_else(|| draw(&mut s)) else {
            // A redraw in one lane shifts every later lane's draws: this
            // block draws one by one.
            for j in i..i + LANES {
                let reaction = draw_alias(entries, &mut s, inc);
                let at = (site_of(j), reaction);
                executed += u64::from(trial(kernel, state, changes, hook, at, dt, &mut time));
            }
            #[cfg(test)]
            COUNTS.with(|c| c.set((c.get().0, c.get().1 + 1)));
            i += LANES;
            continue;
        };
        // The next block's draws before this block's hit test: they do not
        // depend on the lattice, and a mispredicted test then does not
        // re-run their latency chain.
        if i + 2 * LANES <= n {
            ahead = draw(&mut s);
        }
        // The lanes whose site has the drawn reaction enabled.
        let hits = |masks: *const u64| {
            let mvec = match sites {
                Sites::Rows(start) => _mm512_loadu_si512(masks.add(start as usize + i).cast()),
                Sites::List(list) => {
                    // Clamped: a list that outruns the lattice reads a real
                    // mask, and its hit panics on a bounds check.
                    let at = _mm256_loadu_si256(list.as_ptr().add(i).cast());
                    let at = _mm256_min_epu32(at, last_site);
                    _mm512_i32gather_epi64(at, masks.cast(), 8)
                }
            };
            _mm512_test_epi64_mask(_mm512_srlv_epi64(mvec, reaction), one)
        };
        // The block's clock, one tick per trial, also ahead of the test.
        let times: [f64; LANES] = std::array::from_fn(|_| {
            time += dt;
            time
        });
        let reactions = transmute::<__m512i, [u64; LANES]>(reaction);
        let null = |hook: &mut H, k: usize| {
            hook.on_event(Event {
                time: times[k],
                site: site_of(i + k),
                reaction: reactions[k] as usize,
                executed: false,
            })
        };
        let mut pending = hits(kernel.enabled_masks().as_ptr());
        let mut k = 0;
        while pending != 0 {
            let hit = pending.trailing_zeros() as usize;
            (k..hit).for_each(|k| null(hook, k));
            let (site, reaction) = (site_of(i + hit), reactions[hit] as usize);
            let fired = state.fire(kernel, site, reaction, changes);
            debug_assert!(fired, "mask and kernel disagree");
            executed += 1;
            hook.on_event(Event {
                time: times[hit],
                site,
                reaction,
                executed: true,
            });
            // The fire may have changed later lanes' masks; their draws
            // stand.
            k = hit + 1;
            pending = hits(kernel.enabled_masks().as_ptr()) & (0xFF00u16 >> (LANES - k)) as u8;
        }
        (k..LANES).for_each(|k| null(hook, k));
        i += LANES;
    }
    for j in i..n {
        let reaction = draw_alias(entries, &mut s, inc);
        let at = (site_of(j), reaction);
        executed += u64::from(trial(kernel, state, changes, hook, at, dt, &mut time));
    }
    stats.executed += executed;
    state.time = time;
    **rng = SimRng::from_state([s, inc]).expect("the stream's increment is odd");
}
