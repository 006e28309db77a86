//! Enabled-set counts per group of sites, and the weights drawn from them.
//!
//! Weighted chunk selection (paper §5, strategy 4) needs, for every chunk
//! `P_c`, the summed rate of the reactions enabled at its sites:
//!
//! ```text
//! w_c = Σ_{s ∈ P_c} Σ_{Rt enabled at s} k_Rt = Σ_Rt |{s ∈ P_c : Rt enabled at s}| · k_Rt
//! ```
//!
//! The counts are kept as integers, one row of `|T|` per group, and moved by
//! enabled-mask changes ([`count_diff`]); the weight is always the same
//! `Σ count·k` accumulated in reaction order ([`group_weights`]). Integer
//! counts never drift, and every executor that evaluates the one formula on
//! the same counts draws the same chunk from the same random number.

use std::ops::Range;

/// The group of a site that no group counts (a shard's halo cells).
pub const NO_GROUP: u32 = u32::MAX;

/// Add one site's enabled-mask change `old → new` to `counts`, which holds
/// one row of `reactions` counts per group: +1 for every reaction that
/// turned on at the site, −1 for every one that turned off, nothing for a
/// site of [`NO_GROUP`]. The arithmetic wraps, so count changes collected
/// apart (one vector per concurrent fold) add back in any order.
#[inline]
pub fn count_diff(counts: &mut [u32], reactions: usize, group: u32, old: u64, new: u64) {
    if group == NO_GROUP {
        return;
    }
    let row = &mut counts[group as usize * reactions..][..reactions];
    let mut diff = old ^ new;
    while diff != 0 {
        let r = diff.trailing_zeros() as usize;
        row[r] = if (new >> r) & 1 != 0 {
            row[r].wrapping_add(1)
        } else {
            row[r].wrapping_sub(1)
        };
        diff &= diff - 1;
    }
}

/// Every group's weight `Σ count·k` over the reactions in `reactions`,
/// accumulated in reaction order, into `out` (cleared first). `counts`
/// holds one row of `rates.len()` counts per group.
pub fn group_weights(counts: &[u32], rates: &[f64], reactions: Range<usize>, out: &mut Vec<f64>) {
    out.clear();
    out.extend(counts.chunks_exact(rates.len()).map(|row| {
        let mut w = 0.0;
        for r in reactions.clone() {
            w += f64::from(row[r]) * rates[r];
        }
        w
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diffs_telescope_and_skip_ungrouped_sites() {
        let mut counts = vec![0u32; 2 * 3];
        count_diff(&mut counts, 3, 1, 0, 0b101);
        count_diff(&mut counts, 3, 1, 0b101, 0b110);
        count_diff(&mut counts, 3, NO_GROUP, 0, 0b111);
        assert_eq!(counts, [0, 0, 0, 0, 1, 1]);
        // A decrement collected apart wraps, and adds back exactly.
        let mut delta = vec![0u32; 6];
        count_diff(&mut delta, 3, 1, 0b110, 0);
        for (c, d) in counts.iter_mut().zip(&delta) {
            *c = c.wrapping_add(*d);
        }
        assert_eq!(counts, [0; 6]);
    }

    #[test]
    fn weights_sum_count_times_rate_over_the_range() {
        let (counts, rates) = ([1, 2, 3, 4, 5, 6], [0.5, 2.0, 10.0]);
        let mut out = vec![9.0];
        group_weights(&counts, &rates, 0..3, &mut out);
        assert_eq!(out, [0.5 + 4.0 + 30.0, 2.0 + 10.0 + 60.0]);
        group_weights(&counts, &rates, 1..2, &mut out);
        assert_eq!(out, [4.0, 10.0]);
    }
}
