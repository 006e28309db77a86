//! The complete simulation model: species + reaction types.

use crate::reaction::ReactionType;
use crate::species::SpeciesSet;
use psr_lattice::{Lattice, Neighborhood, Site};

/// A surface-reaction model: the domain `D` and the set of reaction types
/// `T` with their rates (paper §2).
#[derive(Clone, Debug)]
pub struct Model {
    species: SpeciesSet,
    reactions: Vec<ReactionType>,
    total_rate: f64,
}

impl Model {
    /// Bundle species and reaction types into a model.
    ///
    /// # Panics
    ///
    /// Panics where [`try_new`](Self::try_new) errs.
    pub fn new(species: SpeciesSet, reactions: Vec<ReactionType>) -> Self {
        Self::try_new(species, reactions).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) for a model that arrives from outside the program.
    ///
    /// # Errors
    ///
    /// There are no reaction types, a transform references a species
    /// outside the set, or the total rate is zero.
    pub fn try_new(species: SpeciesSet, reactions: Vec<ReactionType>) -> Result<Self, String> {
        if reactions.is_empty() {
            return Err("a model needs at least one reaction type".into());
        }
        for rt in &reactions {
            for t in rt.transforms() {
                if !(species.contains(t.src) && species.contains(t.tgt)) {
                    return Err(format!(
                        "reaction {:?} references a species outside the set",
                        rt.name()
                    ));
                }
            }
        }
        let total_rate: f64 = reactions.iter().map(|r| r.rate()).sum();
        // Every rate is finite and >= 0 (`ReactionType::try_new`), so the
        // sum is never NaN.
        if total_rate <= 0.0 {
            return Err("total rate K must be positive (all reaction rates are zero)".into());
        }
        Ok(Model {
            species,
            reactions,
            total_rate,
        })
    }

    /// The domain `D`.
    pub fn species(&self) -> &SpeciesSet {
        &self.species
    }

    /// The reaction types, in declaration order.
    pub fn reactions(&self) -> &[ReactionType] {
        &self.reactions
    }

    /// Number of reaction types `|T|`.
    pub fn num_reactions(&self) -> usize {
        self.reactions.len()
    }

    /// A reaction type by index.
    pub fn reaction(&self, index: usize) -> &ReactionType {
        &self.reactions[index]
    }

    /// `K = Σ_i k_i`, the sum of all reaction-type rate constants (paper §3).
    pub fn total_rate(&self) -> f64 {
        self.total_rate
    }

    /// The rate constants in reaction order (weights for `k_i / K` sampling).
    pub fn rate_weights(&self) -> Vec<f64> {
        self.reactions.iter().map(|r| r.rate()).collect()
    }

    /// Union of all reaction neighborhoods — the stencil that determines
    /// conflicts and hence partitions (paper §5).
    pub fn combined_neighborhood(&self) -> Neighborhood {
        let mut nb = Neighborhood::origin();
        for rt in &self.reactions {
            nb = nb.union(&rt.neighborhood());
        }
        nb
    }

    /// Largest L1 radius over all reaction neighborhoods.
    pub fn interaction_radius(&self) -> u32 {
        self.combined_neighborhood().radius()
    }

    /// Visit every reaction type enabled at `site`, in declaration order,
    /// without allocating — the hot-path form of
    /// [`enabled_at`](Self::enabled_at).
    #[inline]
    pub fn for_each_enabled(
        &self,
        lattice: &Lattice,
        site: Site,
        mut f: impl FnMut(usize, &ReactionType),
    ) {
        for (i, rt) in self.reactions.iter().enumerate() {
            if rt.is_enabled(lattice, site) {
                f(i, rt);
            }
        }
    }

    /// Bitmask of reaction indices enabled at `site` (bit `i` ↔ reaction
    /// `i`); allocation-free for models with at most 64 reaction types.
    ///
    /// # Panics
    ///
    /// Panics if the model has more than 64 reaction types.
    #[inline]
    pub fn enabled_mask_at(&self, lattice: &Lattice, site: Site) -> u64 {
        assert!(
            self.reactions.len() <= 64,
            "enabled_mask_at supports at most 64 reaction types"
        );
        let mut mask = 0u64;
        self.for_each_enabled(lattice, site, |i, _| mask |= 1 << i);
        mask
    }

    /// Indices of reaction types enabled at `site` (allocating convenience
    /// wrapper over [`for_each_enabled`](Self::for_each_enabled), kept for
    /// tests and cold paths).
    pub fn enabled_at(&self, lattice: &Lattice, site: Site) -> Vec<usize> {
        let mut ids = Vec::new();
        self.for_each_enabled(lattice, site, |i, _| ids.push(i));
        ids
    }

    /// Sum of rates of reactions enabled anywhere on the lattice.
    ///
    /// This is the total propensity `Σ kSS'` of the Master Equation (Eq. 1);
    /// O(N·|T|) — used by VSSM initialisation, tests and the exact solver,
    /// not in inner loops.
    pub fn total_propensity(&self, lattice: &Lattice) -> f64 {
        let mut total = 0.0;
        for site in lattice.dims().iter_sites() {
            for rt in &self.reactions {
                if rt.is_enabled(lattice, site) {
                    total += rt.rate();
                }
            }
        }
        total
    }

    /// Find a reaction type index by name.
    pub fn reaction_index(&self, name: &str) -> Option<usize> {
        self.reactions.iter().position(|r| r.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Transform;
    use crate::species::{Species, VACANT};
    use psr_lattice::{Dims, Offset};

    fn toy_model() -> Model {
        let species = SpeciesSet::new(&["*", "A", "B"]);
        let a = Species(1);
        let b = Species(2);
        let ads = ReactionType::new("A ads", vec![Transform::at_origin(VACANT, a)], 1.0);
        let pair = ReactionType::new(
            "A+B",
            vec![
                Transform::at_origin(a, VACANT),
                Transform::new(Offset::new(1, 0), b, VACANT),
            ],
            3.0,
        );
        Model::new(species, vec![ads, pair])
    }

    #[test]
    fn total_rate_is_sum_of_constants() {
        let m = toy_model();
        assert_eq!(m.total_rate(), 4.0);
        assert_eq!(m.rate_weights(), vec![1.0, 3.0]);
        assert_eq!(m.num_reactions(), 2);
    }

    #[test]
    fn combined_neighborhood_unions_patterns() {
        let m = toy_model();
        let nb = m.combined_neighborhood();
        assert_eq!(nb.len(), 2);
        assert_eq!(m.interaction_radius(), 1);
    }

    #[test]
    fn enabled_at_lists_reactions() {
        let m = toy_model();
        let d = Dims::new(3, 3);
        let mut l = Lattice::filled(d, 0);
        let s = d.site_at(1, 1);
        assert_eq!(m.enabled_at(&l, s), vec![0]); // only adsorption on vacant
        l.set(s, 1);
        l.set(d.site_at(2, 1), 2);
        assert_eq!(m.enabled_at(&l, s), vec![1]); // only the A+B reaction
    }

    #[test]
    fn for_each_enabled_agrees_with_enabled_at() {
        let m = toy_model();
        let d = Dims::new(3, 3);
        let mut l = Lattice::filled(d, 0);
        l.set(d.site_at(1, 1), 1);
        l.set(d.site_at(2, 1), 2);
        for s in d.iter_sites() {
            let mut visited = Vec::new();
            m.for_each_enabled(&l, s, |i, rt| {
                assert_eq!(m.reaction(i).name(), rt.name());
                visited.push(i);
            });
            assert_eq!(visited, m.enabled_at(&l, s), "site {}", s.0);
            let mask = m.enabled_mask_at(&l, s);
            for i in 0..m.num_reactions() {
                assert_eq!(mask & (1 << i) != 0, visited.contains(&i));
            }
        }
    }

    #[test]
    fn total_propensity_counts_all_sites() {
        let m = toy_model();
        let d = Dims::new(2, 2);
        let l = Lattice::filled(d, 0);
        // All 4 sites vacant: adsorption (k=1) enabled everywhere, pair not.
        assert_eq!(m.total_propensity(&l), 4.0);
    }

    #[test]
    fn reaction_lookup_by_name() {
        let m = toy_model();
        assert_eq!(m.reaction_index("A+B"), Some(1));
        assert_eq!(m.reaction_index("nope"), None);
        assert_eq!(m.reaction(0).name(), "A ads");
    }

    #[test]
    #[should_panic(expected = "outside the set")]
    fn species_out_of_range_panics() {
        let species = SpeciesSet::new(&["*"]);
        let bad = ReactionType::new("bad", vec![Transform::at_origin(VACANT, Species(9))], 1.0);
        Model::new(species, vec![bad]);
    }

    #[test]
    #[should_panic(expected = "at least one reaction")]
    fn empty_model_panics() {
        Model::new(SpeciesSet::new(&["*"]), vec![]);
    }
}
