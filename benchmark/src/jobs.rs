//! From a seed to the list of jobs a run executes.
//!
//! A job is one simulation a user asked for. A workload has three or four
//! job classes with fixed shares; the list is built from shuffled blocks of
//! [`BLOCK`] jobs that each hold every class in exactly its share, so a run
//! of any whole number of blocks has the same class mix, and the seed only
//! decides order and simulation seeds.

use crate::stats::SplitMix;

/// Jobs per block; shares are given in units of one job per block.
pub const BLOCK: usize = 20;

/// Distinct simulation seeds a repeatable class draws from, so that the
/// same (class, seed) job recurs within a run and its digest can be
/// compared with its earlier self.
pub const SEED_POOL: usize = 4;

pub struct ClassDef {
    pub name: &'static str,
    /// Jobs of this class per block of [`BLOCK`].
    pub per_block: usize,
    /// Draw the simulation seed from the pool (repeats) or make it unique.
    pub repeats: bool,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    pub id: u32,
    pub class: usize,
    pub seed: u64,
}

/// The first `n` jobs of the endless list `seed` defines.
pub fn generate(seed: u64, classes: &[ClassDef], n: usize) -> Vec<Job> {
    assert_eq!(
        classes.iter().map(|c| c.per_block).sum::<usize>(),
        BLOCK,
        "class shares must fill a block"
    );
    let mut rng = SplitMix(seed);
    // Simulation seeds stay below 2^32 so `base + replica` sums and spec
    // files hold them without surprises.
    let pool: Vec<u64> = (0..SEED_POOL).map(|_| rng.next() >> 32).collect();
    let mut jobs = Vec::with_capacity(n + BLOCK);
    while jobs.len() < n {
        let mut block: Vec<usize> = classes
            .iter()
            .enumerate()
            .flat_map(|(i, c)| std::iter::repeat_n(i, c.per_block))
            .collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        for class in block {
            let draw = rng.next();
            let seed = if classes[class].repeats {
                pool[(draw % SEED_POOL as u64) as usize]
            } else {
                draw >> 32
            };
            jobs.push(Job {
                id: jobs.len() as u32,
                class,
                seed,
            });
        }
    }
    jobs.truncate(n);
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLASSES: [ClassDef; 3] = [
        ClassDef {
            name: "a",
            per_block: 8,
            repeats: true,
        },
        ClassDef {
            name: "b",
            per_block: 7,
            repeats: true,
        },
        ClassDef {
            name: "c",
            per_block: 5,
            repeats: false,
        },
    ];

    #[test]
    fn same_seed_same_jobs_and_a_prefix_is_a_prefix() {
        let a = generate(42, &CLASSES, 60);
        assert_eq!(a, generate(42, &CLASSES, 60));
        assert_eq!(a[..25], generate(42, &CLASSES, 25)[..]);
        assert_ne!(a, generate(43, &CLASSES, 60));
    }

    #[test]
    fn every_block_holds_each_class_in_its_share() {
        let jobs = generate(7, &CLASSES, 3 * BLOCK);
        for block in jobs.chunks(BLOCK) {
            for (i, c) in CLASSES.iter().enumerate() {
                assert_eq!(
                    block.iter().filter(|j| j.class == i).count(),
                    c.per_block,
                    "class {}",
                    c.name
                );
            }
        }
        let pooled: std::collections::BTreeSet<u64> = jobs
            .iter()
            .filter(|j| CLASSES[j.class].repeats)
            .map(|j| j.seed)
            .collect();
        assert!(pooled.len() <= SEED_POOL);
    }
}
