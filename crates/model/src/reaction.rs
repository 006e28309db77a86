//! Reaction types: named, rated, translation-invariant transformations.

use crate::pattern::Transform;
use psr_lattice::{Lattice, Neighborhood, Site};

/// A reaction type `Rt` (paper §2): a set of transforms applied relative to
/// an anchor site, with a rate constant `k`.
#[derive(Clone, Debug, PartialEq)]
pub struct ReactionType {
    name: String,
    transforms: Vec<Transform>,
    rate: f64,
}

impl ReactionType {
    /// Create a reaction type.
    ///
    /// # Panics
    ///
    /// Panics where [`try_new`](Self::try_new) errs.
    pub fn new(name: impl Into<String>, transforms: Vec<Transform>, rate: f64) -> Self {
        Self::try_new(name, transforms, rate).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) for a reaction that arrives from outside the
    /// program.
    ///
    /// # Errors
    ///
    /// - `transforms` is empty,
    /// - two transforms target the same offset (the triple collection must
    ///   be a function of the site),
    /// - no transform anchors at the origin (paper §2 property 1:
    ///   `s ∈ Nb(s)`),
    /// - `rate` is negative or non-finite.
    pub fn try_new(
        name: impl Into<String>,
        transforms: Vec<Transform>,
        rate: f64,
    ) -> Result<Self, String> {
        let name = name.into();
        if transforms.is_empty() {
            return Err(format!(
                "reaction type {name:?} needs at least one transform"
            ));
        }
        if !transforms
            .iter()
            .any(|t| t.offset == psr_lattice::Offset::ZERO)
        {
            return Err(format!(
                "reaction type {name:?} must include the anchor site (offset 0)"
            ));
        }
        for (i, a) in transforms.iter().enumerate() {
            if transforms[i + 1..].iter().any(|b| a.offset == b.offset) {
                return Err(format!(
                    "reaction type {name:?} has two transforms at the same offset"
                ));
            }
        }
        if !(rate.is_finite() && rate >= 0.0) {
            return Err(format!(
                "reaction type {name:?} rate must be finite and >= 0, got {rate}"
            ));
        }
        Ok(ReactionType {
            name,
            transforms,
            rate,
        })
    }

    /// The reaction type's name (e.g. `"CO adsorption"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The transforms relative to the anchor site.
    pub fn transforms(&self) -> &[Transform] {
        &self.transforms
    }

    /// The rate constant `k`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Return a copy with a different rate.
    pub fn with_rate(&self, rate: f64) -> Self {
        ReactionType::new(self.name.clone(), self.transforms.clone(), rate)
    }

    /// The neighborhood `Nb_Rt` as a stencil of offsets.
    pub fn neighborhood(&self) -> Neighborhood {
        Neighborhood::new(self.transforms.iter().map(|t| t.offset).collect())
    }

    /// Number of sites touched.
    pub fn arity(&self) -> usize {
        self.transforms.len()
    }

    /// True if the source pattern matches at `site` (paper §2: enabled).
    #[inline]
    pub fn is_enabled(&self, lattice: &Lattice, site: Site) -> bool {
        let dims = lattice.dims();
        self.transforms
            .iter()
            .all(|t| lattice.get(dims.translate(site, t.offset)) == t.src.id())
    }

    /// Execute the reaction at `site`, assuming it is enabled.
    ///
    /// Writes the target pattern and appends `(site, old, new)` records to
    /// `changes` (for coverage tracking / undo). Callers must check
    /// [`is_enabled`](Self::is_enabled) first; in debug builds this is
    /// asserted.
    #[inline]
    pub fn execute(&self, lattice: &mut Lattice, site: Site, changes: &mut Vec<(Site, u8, u8)>) {
        debug_assert!(
            self.is_enabled(lattice, site),
            "executing disabled reaction {:?} at site {}",
            self.name,
            site.0
        );
        let dims = lattice.dims();
        for t in &self.transforms {
            let target = dims.translate(site, t.offset);
            let old = lattice.set(target, t.tgt.id());
            changes.push((target, old, t.tgt.id()));
        }
    }

    /// Execute and return the changes (allocating convenience wrapper).
    pub fn execute_collect(&self, lattice: &mut Lattice, site: Site) -> Vec<(Site, u8, u8)> {
        let mut changes = Vec::with_capacity(self.transforms.len());
        self.execute(lattice, site, &mut changes);
        changes
    }

    /// If enabled at `site`, execute and return true.
    pub fn try_execute(
        &self,
        lattice: &mut Lattice,
        site: Site,
        changes: &mut Vec<(Site, u8, u8)>,
    ) -> bool {
        if self.is_enabled(lattice, site) {
            self.execute(lattice, site, changes);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::species::{Species, VACANT};
    use psr_lattice::{Dims, Offset};

    const CO: Species = Species(1);
    const O: Species = Species(2);

    fn co_adsorption() -> ReactionType {
        ReactionType::new("CO ads", vec![Transform::at_origin(VACANT, CO)], 1.0)
    }

    fn co_o_reaction() -> ReactionType {
        ReactionType::new(
            "CO+O",
            vec![
                Transform::at_origin(CO, VACANT),
                Transform::new(Offset::new(1, 0), O, VACANT),
            ],
            2.0,
        )
    }

    #[test]
    fn enabledness_matches_source_pattern() {
        let d = Dims::new(4, 4);
        let mut l = Lattice::filled(d, 0);
        let rt = co_o_reaction();
        let s = d.site_at(1, 1);
        assert!(!rt.is_enabled(&l, s));
        l.set(s, CO.id());
        assert!(!rt.is_enabled(&l, s));
        l.set(d.site_at(2, 1), O.id());
        assert!(rt.is_enabled(&l, s));
    }

    #[test]
    fn execute_applies_target_pattern() {
        let d = Dims::new(4, 4);
        let mut l = Lattice::filled(d, 0);
        let s = d.site_at(0, 0);
        let rt = co_adsorption();
        assert!(rt.is_enabled(&l, s));
        let changes = rt.execute_collect(&mut l, s);
        assert_eq!(l.get(s), CO.id());
        assert_eq!(changes, vec![(s, 0, CO.id())]);
    }

    #[test]
    fn execute_pair_reaction_clears_both_sites() {
        let d = Dims::new(4, 4);
        let mut l = Lattice::filled(d, 0);
        let s = d.site_at(3, 0); // wraps to (0,0) on the right
        l.set(s, CO.id());
        l.set(d.site_at(0, 0), O.id());
        let rt = co_o_reaction();
        assert!(rt.is_enabled(&l, s));
        rt.execute_collect(&mut l, s);
        assert_eq!(l.get(s), 0);
        assert_eq!(l.get(d.site_at(0, 0)), 0);
    }

    #[test]
    fn try_execute_reports_enabledness() {
        let d = Dims::new(2, 2);
        let mut l = Lattice::filled(d, CO.id());
        let mut changes = Vec::new();
        assert!(!co_adsorption().try_execute(&mut l, Site(0), &mut changes));
        assert!(changes.is_empty());
        l.set(Site(0), 0);
        assert!(co_adsorption().try_execute(&mut l, Site(0), &mut changes));
        assert_eq!(changes.len(), 1);
    }

    #[test]
    fn neighborhood_derived_from_offsets() {
        let nb = co_o_reaction().neighborhood();
        assert_eq!(nb.len(), 2);
        assert!(nb.offsets().contains(&Offset::ZERO));
        assert!(nb.offsets().contains(&Offset::new(1, 0)));
    }

    #[test]
    fn with_rate_changes_only_rate() {
        let rt = co_adsorption().with_rate(5.0);
        assert_eq!(rt.rate(), 5.0);
        assert_eq!(rt.name(), "CO ads");
        assert_eq!(rt.arity(), 1);
    }

    #[test]
    #[should_panic(expected = "anchor site")]
    fn missing_origin_panics() {
        ReactionType::new(
            "bad",
            vec![Transform::new(Offset::new(1, 0), VACANT, CO)],
            1.0,
        );
    }

    #[test]
    #[should_panic(expected = "same offset")]
    fn duplicate_offsets_panic() {
        ReactionType::new(
            "bad",
            vec![
                Transform::at_origin(VACANT, CO),
                Transform::at_origin(VACANT, O),
            ],
            1.0,
        );
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn negative_rate_panics() {
        ReactionType::new("bad", vec![Transform::at_origin(VACANT, CO)], -1.0);
    }

    #[test]
    #[should_panic(expected = "at least one transform")]
    fn empty_transforms_panic() {
        ReactionType::new("bad", vec![], 1.0);
    }
}
