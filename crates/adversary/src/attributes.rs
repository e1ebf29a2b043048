//! Attribute classification of servers and the paper's worked examples.
//!
//! §4.3 differentiates servers by attributes (operating system, physical
//! location, administrative domain, …) and derives adversary structures
//! in which *all servers sharing an attribute value may be corrupted
//! simultaneously*. This module provides the classification plumbing and
//! faithful constructions of the paper's two examples:
//!
//! * [`example1`] — nine servers, one attribute with classes
//!   `a,b,c,d` of sizes 4/2/2/1; tolerate any two servers or any whole
//!   class.
//! * [`example2`] — sixteen servers on a 4×4 grid of locations ×
//!   operating systems; tolerate one whole location and one whole
//!   operating system simultaneously (up to seven servers).

use crate::formula::{Gate, MonotoneFormula};
use crate::party::{PartyId, PartySet};
use crate::structure::{StructureError, TrustStructure};

/// Assignment of an attribute value (class index) to every party.
///
/// # Examples
///
/// ```
/// use sintra_adversary::attributes::Classification;
///
/// let os = Classification::new("os", vec![0, 0, 1, 1, 2, 2, 3, 3]).unwrap();
/// assert_eq!(os.num_classes(), 4);
/// assert_eq!(os.members(1).len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Classification {
    name: String,
    class_of: Vec<usize>,
    num_classes: usize,
}

impl Classification {
    /// Creates a classification from a per-party class index vector.
    /// Class indices must be contiguous starting at zero (every class in
    /// `0..=max` must be nonempty).
    ///
    /// # Errors
    ///
    /// Returns `None` if `class_of` is empty or a class index is unused.
    pub fn new(name: &str, class_of: Vec<usize>) -> Option<Self> {
        if class_of.is_empty() {
            return None;
        }
        let num_classes = class_of.iter().max().unwrap() + 1;
        for c in 0..num_classes {
            if !class_of.contains(&c) {
                return None;
            }
        }
        Some(Classification {
            name: name.to_owned(),
            class_of,
            num_classes,
        })
    }

    /// The attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of parties classified.
    pub fn n(&self) -> usize {
        self.class_of.len()
    }

    /// Number of distinct classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The class of a party.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn class_of(&self, p: PartyId) -> usize {
        self.class_of[p]
    }

    /// All parties belonging to class `c`.
    pub fn members(&self, c: usize) -> PartySet {
        self.class_of
            .iter()
            .enumerate()
            .filter(|(_, cls)| **cls == c)
            .map(|(p, _)| p)
            .collect()
    }

    /// The characteristic OR-gate `χ_c` of a class: true iff the evaluated
    /// set contains some member of class `c`.
    pub fn chi(&self, c: usize) -> Gate {
        Gate::or(self.members(c).iter().map(Gate::leaf).collect())
    }

    /// Number of distinct classes represented in `set`.
    pub fn classes_covered(&self, set: &PartySet) -> usize {
        (0..self.num_classes)
            .filter(|&c| !self.members(c).intersection(set).is_empty())
            .count()
    }
}

/// Builds the access structure of the paper's **Example 1**:
/// nine servers with `class(1..4)=a`, `class(5,6)=b`, `class(7,8)=c`,
/// `class(9)=d` (0-based here: parties 0-3 are `a`, 4-5 `b`, 6-7 `c`,
/// 8 `d`).
///
/// Qualified sets are coalitions of size ≥ 3 covering ≥ 2 classes:
/// `ḡ(S) = Θ³₉(S) ∧ Θ²₄(χ_a, χ_b, χ_c, χ_d)`; the adversary may corrupt
/// at most two arbitrary servers or all servers of one class.
pub fn example1() -> Result<TrustStructure, StructureError> {
    let class = example1_classification();
    let n = class.n();
    let theta_3_9 = Gate::threshold(3, (0..n).map(Gate::leaf).collect());
    let theta_2_4 = Gate::threshold(2, (0..class.num_classes()).map(|c| class.chi(c)).collect());
    let access = MonotoneFormula::new(n, Gate::and(vec![theta_3_9, theta_2_4]))?;
    TrustStructure::general_from_access(access)
}

/// The classification underlying [`example1`].
pub fn example1_classification() -> Classification {
    Classification::new("class", vec![0, 0, 0, 0, 1, 1, 2, 2, 3])
        .expect("example 1 classification is well-formed")
}

/// Builds the access structure of the paper's **Example 2**: sixteen
/// servers indexed by (location, operating system) on a 4×4 grid; party
/// id = `4 * location + os`.
///
/// The adversary structure `A*` is the sixteen unions
/// `location_l ∪ os_o` (the adversary may take out one whole location
/// *and* one whole operating system simultaneously — 7 of 16 servers —
/// while any threshold structure on 16 servers tolerates at most 5).
///
/// The secret sharing access structure is the paper's two-level grid
/// scheme: `ḡ(S) = Θ²₄(x_a, x_b, x_c, x_d) ∧ Θ²₄(y_α, y_β, y_γ, y_δ)`
/// where `x_v` requires two servers at location `v` and `y_ν` two servers
/// with OS `ν`. Note that the adversary structure is *not* the exact
/// complement of this access structure: some sets (e.g. a full location
/// plus one server at each other location) are unqualified for sharing
/// yet not assumed corruptible — the required secrecy and liveness
/// inclusions hold, which is what [`TrustStructure::general`] validates.
pub fn example2() -> Result<TrustStructure, StructureError> {
    let n = 16;
    let loc = example2_locations();
    let os = example2_operating_systems();
    let mut corruptible = Vec::new();
    for l in 0..4 {
        for o in 0..4 {
            corruptible.push(loc.members(l).union(&os.members(o)));
        }
    }
    let party = |l: usize, o: usize| -> PartyId { 4 * l + o };
    let x = |l: usize| -> Gate {
        Gate::threshold(2, (0..4).map(|o| Gate::leaf(party(l, o))).collect())
    };
    let y = |o: usize| -> Gate {
        Gate::threshold(2, (0..4).map(|l| Gate::leaf(party(l, o))).collect())
    };
    let sharing = MonotoneFormula::new(
        n,
        Gate::and(vec![
            Gate::threshold(2, (0..4).map(x).collect()),
            Gate::threshold(2, (0..4).map(y).collect()),
        ]),
    )?;
    TrustStructure::general(corruptible, sharing)
}

/// Location classification for [`example2`] (class = party / 4).
pub fn example2_locations() -> Classification {
    Classification::new("location", (0..16).map(|p| p / 4).collect())
        .expect("example 2 locations are well-formed")
}

/// Operating-system classification for [`example2`] (class = party % 4).
pub fn example2_operating_systems() -> Classification {
    Classification::new("os", (0..16).map(|p| p % 4).collect())
        .expect("example 2 OS classes are well-formed")
}

/// Builds a single-attribute structure generalizing Example 1 to any
/// classification: qualified = size ≥ `min_size` AND covering ≥
/// `min_classes` classes.
pub fn attribute_structure(
    class: &Classification,
    min_size: usize,
    min_classes: usize,
) -> Result<TrustStructure, StructureError> {
    let n = class.n();
    let size_gate = Gate::threshold(min_size, (0..n).map(Gate::leaf).collect());
    let class_gate = Gate::threshold(
        min_classes,
        (0..class.num_classes()).map(|c| class.chi(c)).collect(),
    );
    let access = MonotoneFormula::new(n, Gate::and(vec![size_gate, class_gate]))?;
    TrustStructure::general_from_access(access)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(parties: &[usize]) -> PartySet {
        parties.iter().copied().collect()
    }

    #[test]
    fn classification_validation() {
        assert!(Classification::new("x", vec![]).is_none());
        assert!(
            Classification::new("x", vec![0, 2]).is_none(),
            "gap in classes"
        );
        let c = Classification::new("x", vec![0, 1, 1, 0]).unwrap();
        assert_eq!(c.num_classes(), 2);
        assert_eq!(c.members(0), set(&[0, 3]));
        assert_eq!(c.class_of(2), 1);
        assert_eq!(c.classes_covered(&set(&[0, 1])), 2);
        assert_eq!(c.classes_covered(&set(&[1, 2])), 1);
        assert_eq!(c.name(), "x");
    }

    #[test]
    fn example1_satisfies_q3() {
        let ts = example1().unwrap();
        assert_eq!(ts.n(), 9);
        assert!(ts.satisfies_q3(), "paper: A1 satisfies the Q3 condition");
    }

    #[test]
    fn example1_maximal_sets_match_paper() {
        // Paper: A1* consists of {1..4} and all pairs of servers that are
        // not both of class a.
        let ts = example1().unwrap();
        let maximal = ts.maximal_adversary_sets();
        let class_a = set(&[0, 1, 2, 3]);
        assert!(maximal.contains(&class_a));
        let pairs: Vec<_> = maximal.iter().filter(|s| s.len() == 2).collect();
        // All pairs not both in class a: C(9,2) - C(4,2) = 36 - 6 = 30.
        assert_eq!(pairs.len(), 30);
        assert!(pairs.iter().all(|p| !p.is_subset_of(&class_a)));
        assert_eq!(maximal.len(), 31);
    }

    #[test]
    fn example1_tolerates_whole_classes() {
        let ts = example1().unwrap();
        let class = example1_classification();
        for c in 0..class.num_classes() {
            assert!(
                ts.is_corruptible(&class.members(c)),
                "class {c} must be corruptible"
            );
        }
        // Any two arbitrary servers are corruptible.
        assert!(ts.is_corruptible(&set(&[4, 8])));
        // But three servers spanning two classes are not.
        assert!(!ts.is_corruptible(&set(&[0, 4, 6])));
    }

    #[test]
    fn example1_access_semantics() {
        let ts = example1().unwrap();
        // Qualified: size >= 3 covering >= 2 classes.
        assert!(ts.is_qualified(&set(&[0, 1, 4])));
        assert!(!ts.is_qualified(&set(&[0, 1, 2])), "one class only");
        assert!(!ts.is_qualified(&set(&[0, 4])), "too small");
    }

    #[test]
    fn example2_satisfies_q3() {
        let ts = example2().unwrap();
        assert_eq!(ts.n(), 16);
        assert!(ts.satisfies_q3(), "paper: Example 2 satisfies Q3");
    }

    #[test]
    fn example2_tolerates_location_plus_os() {
        let ts = example2().unwrap();
        let loc = example2_locations();
        let os = example2_operating_systems();
        // Corrupting all of location 0 and all of OS 2 simultaneously
        // (7 servers) is tolerated.
        let corrupted = loc.members(0).union(&os.members(2));
        assert_eq!(corrupted.len(), 7);
        assert!(ts.is_corruptible(&corrupted));
        // The remaining 9 honest servers are qualified (liveness).
        assert!(ts.is_qualified(&corrupted.complement(16)));
    }

    #[test]
    fn example2_maximal_sets_are_location_os_unions() {
        let ts = example2().unwrap();
        let loc = example2_locations();
        let os = example2_operating_systems();
        let maximal = ts.maximal_adversary_sets();
        for l in 0..4 {
            for o in 0..4 {
                let u = loc.members(l).union(&os.members(o));
                assert!(
                    maximal.contains(&u),
                    "location {l} ∪ OS {o} must be maximal"
                );
            }
        }
        assert_eq!(maximal.len(), 16, "exactly the 16 location×OS unions");
    }

    #[test]
    fn example2_beats_any_threshold() {
        // Paper: all threshold solutions tolerate at most 5 of 16; the
        // generalized structure tolerates up to 7.
        let ts = example2().unwrap();
        assert_eq!(ts.max_corruptible_size(), 7);
        // Threshold t=5 satisfies Q3 on 16 servers; t=6 can't: 16 <= 18.
        assert!(TrustStructure::threshold(16, 5).unwrap().satisfies_q3());
        assert!(!TrustStructure::threshold(16, 6).unwrap().satisfies_q3());
    }

    #[test]
    fn example2_random_subsets_of_corruptible_are_corruptible() {
        // Monotonicity: subsets of a maximal set are corruptible.
        let ts = example2().unwrap();
        let loc = example2_locations();
        let os = example2_operating_systems();
        let max = loc.members(1).union(&os.members(3));
        let sub: PartySet = max.iter().step_by(2).collect();
        assert!(ts.is_corruptible(&sub));
    }

    #[test]
    fn attribute_structure_reduces_to_threshold_with_four_singletons() {
        // Paper §4.3: with n = 4 (one server per class) this reduces to
        // the threshold case.
        let class = Classification::new("c", vec![0, 1, 2, 3]).unwrap();
        let ts = attribute_structure(&class, 2, 2).unwrap();
        let threshold = TrustStructure::threshold(4, 1).unwrap();
        for bits in 0u64..16 {
            let s: PartySet = (0..4).filter(|p| (bits >> p) & 1 == 1).collect();
            assert_eq!(ts.is_corruptible(&s), threshold.is_corruptible(&s), "{s:?}");
        }
    }

    #[test]
    fn example1_paper_rule_vs_semantic_strong_predicate() {
        // The literal §4.2 rule ("take S∪T∪{i} for disjoint S,T ∈ A*")
        // fires on Example 1 but does NOT always imply the semantic
        // two-cover-free predicate the protocol proofs need: e.g.
        // {0,1,4,5,2} satisfies the rule via S={0,4}, T={1,5}, i=2, yet is
        // covered by {0,1,2,3} ∪ {4,5} ∈ A × A. Conversely the semantic
        // predicate always implies safety. We record both facts; the
        // protocols use `is_strong` (semantic).
        let ts = example1().unwrap();
        let witness: PartySet = [0, 1, 2, 4, 5].into_iter().collect();
        assert!(ts.paper_strong_rule(&witness));
        assert!(
            !ts.is_strong(&witness),
            "witness is coverable by two corruptible sets"
        );
        // The semantic predicate holds for honest survivor sets of every
        // maximal corruption (which is what liveness needs).
        for m in ts.maximal_adversary_sets() {
            assert!(ts.is_strong(&m.complement(9)));
        }
        // And semantic-strong implies the robustness property directly.
        let strong: PartySet = [0, 4, 6, 8, 1].into_iter().collect();
        assert!(ts.is_strong(&strong));
        for m in ts.maximal_adversary_sets() {
            assert!(ts.is_qualified(&strong.difference(&m)));
        }
    }

    #[test]
    fn example2_paper_strong_rule_is_vacuous_but_semantics_work() {
        // Example 2's maximal sets pairwise intersect, so the literal
        // S∪T∪{i} rule never fires — yet honest survivor sets are strong
        // under the semantic (two-cover-free) predicate. This is the
        // reason protocols use `is_strong` rather than the literal rule.
        let ts = example2().unwrap();
        let maximal = ts.maximal_adversary_sets();
        for a in &maximal {
            for b in &maximal {
                if a != b {
                    assert!(!a.is_disjoint(b), "all maximal pairs intersect");
                }
            }
        }
        assert!(!ts.paper_strong_rule(&PartySet::full(16)));
        // Every honest survivor set (complement of a maximal set) is
        // strong, as Q3 requires.
        for m in &maximal {
            assert!(ts.is_strong(&m.complement(16)));
        }
    }
}
