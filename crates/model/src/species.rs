//! The domain `D` of particle types.
//!
//! The paper's domain is `D = {*, A, B, …}` where `*` marks a vacant site.
//! We map species to dense `u8` ids so that a lattice cell is one byte;
//! [`SpeciesSet`] owns the id ↔ name mapping and id 0 is always `*`.

use std::fmt;

/// A particle type, identified by its dense id within a [`SpeciesSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Species(pub u8);

/// The vacant-site marker `*`, always id 0.
pub const VACANT: Species = Species(0);

impl Species {
    /// The lattice state id for this species.
    pub fn id(self) -> u8 {
        self.0
    }

    /// True if this is the vacant marker.
    pub fn is_vacant(self) -> bool {
        self == VACANT
    }
}

impl fmt::Display for Species {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A named, ordered set of species: the domain `D`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpeciesSet {
    names: Vec<String>,
}

impl SpeciesSet {
    /// Build a species set. The first name must be `"*"` (vacant).
    ///
    /// # Panics
    ///
    /// Panics where [`try_new`](Self::try_new) errs.
    pub fn new<S: AsRef<str>>(names: &[S]) -> Self {
        Self::try_new(names).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new) for names that arrive from outside the program.
    ///
    /// # Errors
    ///
    /// `names` is empty, the first entry is not `"*"`, names repeat, or
    /// there are more than 256 species.
    pub fn try_new<S: AsRef<str>>(names: &[S]) -> Result<Self, String> {
        let Some(first) = names.first() else {
            return Err("species set must not be empty".into());
        };
        if first.as_ref() != "*" {
            return Err(format!(
                "species id 0 must be the vacant marker '*', got {:?}",
                first.as_ref()
            ));
        }
        if names.len() > 256 {
            return Err("at most 256 species fit in a u8 id".into());
        }
        let names: Vec<String> = names.iter().map(|s| s.as_ref().to_owned()).collect();
        for (i, a) in names.iter().enumerate() {
            if names[i + 1..].contains(a) {
                return Err(format!("duplicate species name {a:?}"));
            }
        }
        Ok(SpeciesSet { names })
    }

    /// Number of species including `*`.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Never true: `*` is always present.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Look up a species by name.
    pub fn get(&self, name: &str) -> Option<Species> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| Species(i as u8))
    }

    /// Look up a species by name, panicking on unknown names.
    ///
    /// # Panics
    ///
    /// Panics if the name is not in the set.
    pub fn species(&self, name: &str) -> Species {
        self.get(name)
            .unwrap_or_else(|| panic!("unknown species {name:?}"))
    }

    /// Name of a species.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn name(&self, species: Species) -> &str {
        &self.names[species.0 as usize]
    }

    /// True if `species` is a valid id in this set.
    pub fn contains(&self, species: Species) -> bool {
        (species.0 as usize) < self.names.len()
    }

    /// Iterate all species in id order.
    pub fn iter(&self) -> impl Iterator<Item = Species> + '_ {
        (0..self.names.len() as u8).map(Species)
    }

    /// Default single-character glyphs for rendering: `.` for vacant, the
    /// first character of each name otherwise.
    pub fn glyphs(&self) -> Vec<char> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                if i == 0 {
                    '.'
                } else {
                    n.chars().next().unwrap_or('?')
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name_and_id() {
        let set = SpeciesSet::new(&["*", "CO", "O"]);
        assert_eq!(set.len(), 3);
        assert_eq!(set.species("*"), VACANT);
        assert_eq!(set.species("CO"), Species(1));
        assert_eq!(set.species("O"), Species(2));
        assert_eq!(set.name(Species(1)), "CO");
        assert!(set.get("N2").is_none());
    }

    #[test]
    fn vacant_is_id_zero() {
        assert!(VACANT.is_vacant());
        assert!(!Species(1).is_vacant());
        assert_eq!(VACANT.id(), 0);
    }

    #[test]
    #[should_panic(expected = "vacant marker")]
    fn first_species_must_be_star() {
        SpeciesSet::new(&["CO", "*"]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_panic() {
        SpeciesSet::new(&["*", "CO", "CO"]);
    }

    #[test]
    #[should_panic(expected = "unknown species")]
    fn unknown_species_panics() {
        SpeciesSet::new(&["*"]).species("Xe");
    }

    #[test]
    fn iter_visits_all() {
        let set = SpeciesSet::new(&["*", "A", "B"]);
        let ids: Vec<u8> = set.iter().map(|s| s.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn glyphs_use_first_char() {
        let set = SpeciesSet::new(&["*", "CO", "O"]);
        assert_eq!(set.glyphs(), vec!['.', 'C', 'O']);
    }

    #[test]
    fn contains_checks_range() {
        let set = SpeciesSet::new(&["*", "A"]);
        assert!(set.contains(Species(1)));
        assert!(!set.contains(Species(2)));
    }
}
