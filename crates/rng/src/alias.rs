//! Walker alias method for O(1) sampling from a discrete distribution.
//!
//! Step 1 of every RSM / NDCA trial is "select a reaction type `i` with
//! probability `k_i / K`" (paper §3). With a handful of reaction types a
//! linear scan is fine, but models with many types (orientation variants,
//! phase-dependent rates) benefit from the alias method: after O(n) setup,
//! each sample costs one random index + one random comparison.

use crate::pcg::{draw_u64, Pcg32};

/// Precomputed alias table over weights `w_0..w_{n-1}`.
///
/// Sampling returns index `i` with probability `w_i / sum(w)`.
#[derive(Clone, Debug)]
pub struct AliasTable {
    prob: Vec<f64>,
    /// One packed word per bucket — `alias << 32 | threshold` — so a sample
    /// is a *single* dependent table load: the accept test is
    /// `u32 draw < threshold` with `threshold = ceil(prob · 2³²)`, and
    /// certain-accept buckets (`prob == 1`) store `alias = i`, making the
    /// (saturated) threshold irrelevant to the outcome.
    entries: Vec<u64>,
    total: f64,
}

impl AliasTable {
    /// Build the table from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        for &w in weights {
            assert!(
                w.is_finite() && w >= 0.0,
                "weights must be finite and >= 0, got {w}"
            );
        }
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");

        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|&w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];

        // Partition indices into under-full and over-full buckets, then pair
        // them off (Vose's stable formulation of Walker's method).
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            alias[s] = l;
            prob[l] -= 1.0 - prob[s];
            if prob[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers are exactly 1.0 up to rounding.
        for &i in small.iter().chain(large.iter()) {
            prob[i] = 1.0;
        }

        assert!(n <= u32::MAX as usize, "alias table too large");
        let entries = prob
            .iter()
            .zip(&alias)
            .enumerate()
            .map(|(i, (&p, &a))| {
                // A certain-accept bucket aliases to itself, so saturating
                // its threshold at u32::MAX cannot change any outcome.
                let (a, t) = if p >= 1.0 {
                    (i as u64, u32::MAX as u64)
                } else {
                    let t = (p * (1u64 << 32) as f64).ceil() as u64;
                    (a as u64, t.min(u32::MAX as u64))
                };
                (a << 32) | t
            })
            .collect();
        AliasTable {
            prob,
            entries,
            total,
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True if the table has no categories (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Total weight the table was built from.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// The packed `alias << 32 | threshold` word per bucket.
    ///
    /// What [`draw_alias`] draws from; exposed for samplers that keep the
    /// table elsewhere (the batched lockstep engine holds it in a vector
    /// register): bucket `i` accepts iff the high 32 draw bits are below
    /// `entries()[i] & 0xFFFF_FFFF`, else yields `entries()[i] >> 32`.
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// Draw a category index with probability proportional to its weight
    /// ([`draw_alias`] on this table's entries and `rng`'s words).
    #[inline(always)]
    pub fn sample(&self, rng: &mut Pcg32) -> usize {
        draw_alias(&self.entries, &mut rng.state, rng.inc)
    }
}

/// [`AliasTable::sample`] on bare words: the packed `entries` of a table
/// and the state and increment of the generator it draws from.
///
/// One 64-bit draw per sample: the low 32 bits pick the bucket (Lemire
/// reduction with exact rejection), the high 32 bits decide accept vs
/// alias against the packed integer threshold — the two halves are
/// consecutive independent 32-bit outputs of the generator. Alias and
/// threshold share one table word, so the whole decision costs a single
/// dependent load, and the accept/alias choice is computed branchlessly:
/// it is a coin flip the branch predictor cannot learn, and in trial-loop
/// callers (NDCA/RSM) mispredictions would dominate the whole sample cost.
#[inline(always)]
pub fn draw_alias(entries: &[u64], state: &mut u64, inc: u64) -> usize {
    let n = entries.len() as u64;
    let x = draw_u64(state, inc);
    let accept_bits = x >> 32;
    let mut m = (x & 0xFFFF_FFFF) * n;
    let mut lo = m & 0xFFFF_FFFF;
    if lo < n {
        // Short interval: fall back to the exact rejection bound. The
        // redraw consumes a fresh 64-bit word (probability ~n/2³²), and
        // the first draw's high half still decides accept vs alias.
        let t = ((1u64 << 32) - n) % n;
        while lo < t {
            m = (draw_u64(state, inc) & 0xFFFF_FFFF) * n;
            lo = m & 0xFFFF_FFFF;
        }
    }
    let i = (m >> 32) as usize;
    let e = entries[i];
    let a = (e >> 32) as usize;
    let accept = (accept_bits < (e & 0xFFFF_FFFF)) as usize;
    // accept ? i : a, as arithmetic so it compiles to a select.
    a ^ ((i ^ a) & accept.wrapping_neg())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical(weights: &[f64], draws: usize) -> Vec<f64> {
        let table = AliasTable::new(weights);
        let mut rng = Pcg32::new(314, 15);
        let mut counts = vec![0usize; weights.len()];
        for _ in 0..draws {
            counts[table.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn uniform_weights_sample_uniformly() {
        let freq = empirical(&[1.0, 1.0, 1.0, 1.0], 100_000);
        for f in freq {
            assert!((f - 0.25).abs() < 0.01, "frequency {f} far from 0.25");
        }
    }

    #[test]
    fn skewed_weights_match_ratios() {
        let w = [1.0, 2.0, 7.0];
        let freq = empirical(&w, 200_000);
        assert!((freq[0] - 0.1).abs() < 0.01);
        assert!((freq[1] - 0.2).abs() < 0.01);
        assert!((freq[2] - 0.7).abs() < 0.01);
    }

    #[test]
    fn zero_weight_categories_never_drawn() {
        let freq = empirical(&[0.0, 1.0, 0.0], 10_000);
        assert_eq!(freq[0], 0.0);
        assert_eq!(freq[2], 0.0);
        assert_eq!(freq[1], 1.0);
    }

    #[test]
    fn single_category_always_drawn() {
        let freq = empirical(&[3.5], 100);
        assert_eq!(freq[0], 1.0);
    }

    #[test]
    fn total_weight_reported() {
        let t = AliasTable::new(&[1.5, 2.5]);
        assert!((t.total_weight() - 4.0).abs() < 1e-12);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_weights_panic() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn all_zero_weights_panic() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_weight_panics() {
        AliasTable::new(&[1.0, -0.5]);
    }

    #[test]
    fn many_categories_probabilities_hold() {
        let w: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        let total: f64 = w.iter().sum();
        let freq = empirical(&w, 500_000);
        for (i, f) in freq.iter().enumerate() {
            let expect = w[i] / total;
            assert!(
                (f - expect).abs() < 0.005,
                "category {i}: got {f}, expected {expect}"
            );
        }
    }
}
