//! The Ω×T approach: partitioning reaction types as well as sites
//! (paper §5 "Another approach using partitions", Table II / Fig 6).
//!
//! Large patterns force many chunks; partitioning the reaction-type set `T`
//! into subsets `T_j` relaxes the non-overlap rule to hold only *within the
//! selected `T_j`* (in fact within the single reaction type being swept), so
//! fewer chunks suffice — two for the ZGB model's axis-pair patterns instead
//! of five. The algorithm (a generalisation of Kortlüke's):
//!
//! ```text
//! for each step
//!   for |T| times
//!     select T_j ∈ T with probability K_Tj / K;
//!     select a reaction type from T_j with probability k_i / K_Tj;
//!     select P_i ∈ P
//!     for each site s ∈ P_i
//!       1. check if the reaction is enabled at s;
//!       2. if it is, execute it;
//!       3. advance the time;
//! ```

use crate::partition::Partition;
use crate::partition_builder::checkerboard;
use crate::propensity::draw_weighted;
use crate::sweep::{CaSweep, StepSchedule, Trials};
use psr_dmc::events::EventHook;
use psr_lattice::Offset;
use psr_model::Model;
use psr_rng::AliasTable;

/// A partition of the reaction-type set into subsets `T_j`, each paired
/// with a site partition that is conflict-free for every type in the subset.
#[derive(Clone, Debug)]
pub struct TypePartition {
    /// For each subset: the reaction-type indices it contains.
    pub subsets: Vec<Vec<usize>>,
    /// The site partition used when sweeping a type of subset `j`.
    pub partitions: Vec<Partition>,
}

impl TypePartition {
    /// Number of subsets `|T|`.
    pub fn num_subsets(&self) -> usize {
        self.subsets.len()
    }

    /// Validate: subsets cover all reaction types exactly once and each
    /// partition satisfies the per-reaction non-overlap rule for its types.
    pub fn validate(&self, model: &Model) -> Result<(), String> {
        let mut seen = vec![false; model.num_reactions()];
        for (j, subset) in self.subsets.iter().enumerate() {
            for &ri in subset {
                if ri >= model.num_reactions() {
                    return Err(format!("subset {j} references unknown reaction {ri}"));
                }
                if seen[ri] {
                    return Err(format!("reaction {ri} appears in two subsets"));
                }
                seen[ri] = true;
                if !self.partitions[j].is_valid_for_reaction(model, ri) {
                    return Err(format!(
                        "partition of subset {j} conflicts for reaction {:?}",
                        model.reaction(ri).name()
                    ));
                }
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("reaction {missing} not assigned to any subset"));
        }
        Ok(())
    }

    /// Summed rate `K_Tj` of one subset.
    pub fn subset_rate(&self, model: &Model, j: usize) -> f64 {
        self.subsets[j]
            .iter()
            .map(|&ri| model.reaction(ri).rate())
            .sum()
    }
}

/// Build the axis type partition of Table II: subset 0 holds horizontal
/// pair patterns and all single-site types, subset 1 holds vertical pair
/// patterns; both use the 2-chunk checkerboard.
///
/// # Panics
///
/// Panics if a reaction's pattern is neither single-site nor an axis pair
/// (use a custom [`TypePartition`] then), or if the checkerboard does not
/// exist (odd dimensions).
pub fn axis_type_partition(model: &Model, dims: psr_lattice::Dims) -> TypePartition {
    let mut horizontal = Vec::new();
    let mut vertical = Vec::new();
    for (ri, rt) in model.reactions().iter().enumerate() {
        let offsets: Vec<Offset> = rt.transforms().iter().map(|t| t.offset).collect();
        let is_single = offsets.len() == 1;
        let is_h_pair = offsets.len() == 2 && offsets.iter().all(|o| o.dy == 0);
        let is_v_pair = offsets.len() == 2 && offsets.iter().all(|o| o.dx == 0);
        if is_single || is_h_pair {
            horizontal.push(ri);
        } else if is_v_pair {
            vertical.push(ri);
        } else {
            panic!(
                "reaction {:?} is neither single-site nor an axis pair; \
                 build a custom TypePartition",
                rt.name()
            );
        }
    }
    let board = checkerboard(dims);
    // Models without vertical (or horizontal) patterns get a single subset;
    // empty subsets would make the K_Tj selection degenerate.
    let mut subsets = Vec::new();
    let mut partitions = Vec::new();
    for subset in [horizontal, vertical] {
        if !subset.is_empty() {
            subsets.push(subset);
            partitions.push(board.clone());
        }
    }
    TypePartition {
        subsets,
        partitions,
    }
}

/// Ω×T's schedule: `|T|` segments per step, each one chunk swept with one
/// reaction type.
#[derive(Clone, Debug)]
pub struct TypeChunks {
    types: TypePartition,
    subset_alias: AliasTable,
    /// Per-subset alias over its member types.
    member_alias: Vec<AliasTable>,
    /// Draw the chunk weighted by the swept type's enabled propensity
    /// instead of uniformly (the Ω×T analogue of
    /// [`ChunkSelection::WeightedByRates`](crate::pndca::ChunkSelection)).
    weighted_chunks: bool,
}

/// The type-partitioned NDCA simulator.
pub type TPndca<'m> = CaSweep<'m, TypeChunks>;

impl<'m> TPndca<'m> {
    /// Build the simulator; validates the type partition.
    ///
    /// # Panics
    ///
    /// Panics if the type partition is invalid for `model`.
    pub fn new(model: &'m Model, types: TypePartition) -> Self {
        types
            .validate(model)
            .unwrap_or_else(|e| panic!("invalid type partition: {e}"));
        let alias = |rates: Vec<f64>| AliasTable::new(&rates);
        let subset_rates = (0..types.num_subsets()).map(|j| types.subset_rate(model, j));
        let rates = |subset: &[usize]| subset.iter().map(|&ri| model.reaction(ri).rate()).collect();
        let member_alias = types.subsets.iter().map(|s| alias(rates(s))).collect();
        CaSweep::with_schedule(
            model,
            TypeChunks {
                subset_alias: alias(subset_rates.collect()),
                member_alias,
                types,
                weighted_chunks: false,
            },
        )
    }

    /// Draw each swept chunk weighted by `count·k` of the selected reaction
    /// type instead of uniformly: the kernel counts enabled sites per chunk
    /// of every subset's partition, one group map each
    /// ([`SiteKernel::attach_counts`](psr_kernel::SiteKernel::attach_counts)).
    /// Subset and member-type draws are unchanged; only the chunk draw gains
    /// the weighting, concentrating sweeps where the chosen type is
    /// actually enabled.
    ///
    /// # Panics
    ///
    /// Panics if `yes` and the model fails [`psr_kernel::require_masks`]:
    /// chunk weights are counted from enabled-set masks.
    pub fn with_weighted_chunks(mut self, yes: bool) -> Self {
        if yes {
            psr_kernel::require_masks(self.model.num_reactions()).unwrap_or_else(|e| panic!("{e}"));
        }
        self.schedule.weighted_chunks = yes;
        self
    }
}

impl StepSchedule for TypeChunks {
    fn step<H: EventHook>(&mut self, t: &mut Trials<'_, H>) {
        if self.weighted_chunks && !t.kernel.is_counting() {
            for partition in &self.types.partitions {
                t.kernel
                    .attach_counts(partition.chunk_labels().to_vec(), partition.num_chunks());
            }
        }
        let mut weights = Vec::new();
        for _ in 0..self.types.num_subsets() {
            let j = self.subset_alias.sample(t.rng);
            let member = self.member_alias[j].sample(t.rng);
            let ri = self.types.subsets[j][member];
            let partition = &self.types.partitions[j];
            let chunk = if self.weighted_chunks {
                t.kernel.weights_into(j, ri..ri + 1, &mut weights);
                draw_weighted(t.rng, &weights)
            } else {
                t.rng.index(partition.num_chunks())
            };
            let sites = partition.chunk(chunk);
            t.run(sites.len(), |i, _| sites[i], |_| ri);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_dmc::events::NoHook;
    use psr_dmc::sim::SimState;
    use psr_lattice::{Dims, Lattice};
    use psr_model::library::zgb::zgb_ziff;
    use psr_rng::rng_from_seed;

    #[test]
    fn zgb_axis_partition_matches_table2() {
        // Table II: T0 = {RtCO+O[0], RtCO+O[2], RtO2[0], RtCO},
        //           T1 = {RtCO+O[1], RtCO+O[3], RtO2[1]}.
        let model = zgb_ziff(0.5, 1.0);
        let tp = axis_type_partition(&model, Dims::square(10));
        assert_eq!(tp.num_subsets(), 2);
        let names = |j: usize| -> Vec<&str> {
            tp.subsets[j]
                .iter()
                .map(|&ri| model.reaction(ri).name())
                .collect()
        };
        let t0 = names(0);
        let t1 = names(1);
        assert!(t0.contains(&"RtCO"));
        assert!(t0.contains(&"RtO2[0]"));
        assert!(t0.contains(&"RtCO+O[0]"));
        assert!(t0.contains(&"RtCO+O[2]"));
        assert!(t1.contains(&"RtO2[1]"));
        assert!(t1.contains(&"RtCO+O[1]"));
        assert!(t1.contains(&"RtCO+O[3]"));
        assert_eq!(t0.len() + t1.len(), 7);
        assert!(tp.validate(&model).is_ok());
    }

    #[test]
    fn two_chunks_suffice() {
        let model = zgb_ziff(0.5, 1.0);
        let tp = axis_type_partition(&model, Dims::square(10));
        assert_eq!(tp.partitions[0].num_chunks(), 2);
    }

    #[test]
    fn subset_rates_sum_to_k() {
        let model = zgb_ziff(0.4, 2.0);
        let tp = axis_type_partition(&model, Dims::square(10));
        let total: f64 = (0..2).map(|j| tp.subset_rate(&model, j)).sum();
        assert!((total - model.total_rate()).abs() < 1e-12);
    }

    #[test]
    fn step_sweeps_half_lattice_per_subset_draw() {
        let model = zgb_ziff(0.5, 1.0);
        let d = Dims::square(10);
        let tp = axis_type_partition(&model, d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(1);
        let mut sim = TPndca::new(&model, tp);
        let stats = sim.step(&mut state, &mut rng, &mut NoHook);
        // 2 subset draws × one 50-site chunk each = 100 trials = N.
        assert_eq!(stats.trials, 100);
    }

    #[test]
    fn zgb_kinetics_reach_mixed_coverage() {
        let model = zgb_ziff(0.5, 5.0);
        let d = Dims::square(20);
        let tp = axis_type_partition(&model, d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(2);
        let mut sim = TPndca::new(&model, tp);
        sim.run_steps(&mut state, &mut rng, 30, None, &mut NoHook);
        assert!(state.coverage.matches(&state.lattice));
        let occupied = 1.0 - state.coverage.fraction(0);
        assert!(occupied > 0.1, "surface stayed empty");
    }

    #[test]
    fn weighted_chunks_reach_mixed_coverage_with_exact_caches() {
        // Exercises the per-subset counts (and, in debug builds, their
        // recount check at the end of the run call).
        let model = zgb_ziff(0.5, 5.0);
        let d = Dims::square(20);
        let tp = axis_type_partition(&model, d);
        let mut state = SimState::new(Lattice::filled(d, 0), &model);
        let mut rng = rng_from_seed(3);
        let mut sim = TPndca::new(&model, tp).with_weighted_chunks(true);
        let stats = sim.run_steps(&mut state, &mut rng, 30, None, &mut NoHook);
        assert!(stats.executed > 0);
        assert!(state.coverage.matches(&state.lattice));
        let occupied = 1.0 - state.coverage.fraction(0);
        assert!(occupied > 0.1, "surface stayed empty");
    }

    #[test]
    fn invalid_type_partition_rejected() {
        // Claiming a row partition is safe for vertical pairs must fail.
        let model = zgb_ziff(0.5, 1.0);
        let d = Dims::square(4);
        let labels: Vec<u32> = (0..16).map(|i| i / 4).collect();
        let rows = Partition::from_labels(d, &labels);
        let tp = TypePartition {
            subsets: vec![(0..model.num_reactions()).collect()],
            partitions: vec![rows],
        };
        assert!(tp.validate(&model).is_err());
    }

    #[test]
    fn validate_catches_missing_and_duplicate_types() {
        let model = zgb_ziff(0.5, 1.0);
        let d = Dims::square(4);
        let board = checkerboard(d);
        let missing = TypePartition {
            subsets: vec![vec![0, 1]],
            partitions: vec![board.clone()],
        };
        assert!(missing
            .validate(&model)
            .unwrap_err()
            .contains("not assigned"));
        let duplicate = TypePartition {
            subsets: vec![vec![0, 0, 1, 2, 3, 4, 5, 6]],
            partitions: vec![board],
        };
        assert!(duplicate
            .validate(&model)
            .unwrap_err()
            .contains("two subsets"));
    }
}
