//! Monotone Boolean formulas over threshold gates.
//!
//! §4.2 of the paper represents an adversary structure by a Boolean
//! function `g` on subsets of `P`, built from `n`-ary threshold gates
//! `Θ_k^n` (with AND = `Θ_n^n` and OR = `Θ_1^n` as special cases). This
//! module provides that formula language. The same formula drives
//!
//! * structure membership tests ([`MonotoneFormula::eval`]),
//! * the Benaloh-Leichter linear secret sharing construction in
//!   `sintra-crypto` (which walks the gate tree), and
//! * the dual transformation between access and adversary views.

use crate::party::{PartyId, PartySet};

/// A node of a monotone formula: either a party leaf or a threshold gate
/// `Θ_k^m` over `m` child formulas.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Gate {
    /// True iff the party is in the evaluated set. A party may appear in
    /// any number of leaves.
    Leaf(PartyId),
    /// True iff at least `k` of the children are true.
    Threshold {
        /// How many children must be satisfied.
        k: usize,
        /// Child formulas.
        children: Vec<Gate>,
    },
}

impl Gate {
    /// Leaf constructor.
    pub fn leaf(p: PartyId) -> Gate {
        Gate::Leaf(p)
    }

    /// `Θ_k^m` constructor.
    pub fn threshold(k: usize, children: Vec<Gate>) -> Gate {
        Gate::Threshold { k, children }
    }

    /// AND gate (`Θ_m^m`).
    pub fn and(children: Vec<Gate>) -> Gate {
        let k = children.len();
        Gate::Threshold { k, children }
    }

    /// OR gate (`Θ_1^m`).
    pub fn or(children: Vec<Gate>) -> Gate {
        Gate::Threshold { k: 1, children }
    }

    /// Evaluates the formula on a party set.
    pub fn eval(&self, set: &PartySet) -> bool {
        match self {
            Gate::Leaf(p) => set.contains(*p),
            Gate::Threshold { k, children } => {
                let mut satisfied = 0;
                for (remaining, child) in children
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (children.len() - i, c))
                {
                    if satisfied + remaining < *k {
                        return false; // cannot reach k any more
                    }
                    if child.eval(set) {
                        satisfied += 1;
                        if satisfied >= *k {
                            return true;
                        }
                    }
                }
                satisfied >= *k
            }
        }
    }

    /// The dual formula: `g*(S) = ¬g(P∖S)`. For threshold gates,
    /// `Θ_k^m` dualizes to `Θ_{m-k+1}^m`; leaves are self-dual.
    pub fn dual(&self) -> Gate {
        match self {
            Gate::Leaf(p) => Gate::Leaf(*p),
            Gate::Threshold { k, children } => Gate::Threshold {
                k: children.len() - k + 1,
                children: children.iter().map(Gate::dual).collect(),
            },
        }
    }

    /// Collects all leaf party ids (with multiplicity, in traversal order).
    pub fn leaf_parties(&self) -> Vec<PartyId> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<PartyId>) {
        match self {
            Gate::Leaf(p) => out.push(*p),
            Gate::Threshold { children, .. } => {
                for c in children {
                    c.collect_leaves(out);
                }
            }
        }
    }

    /// Structural validity: every gate satisfies `1 <= k <= m` with at
    /// least one child, and every leaf is `< n`.
    fn validate(&self, n: usize) -> Result<(), FormulaError> {
        match self {
            Gate::Leaf(p) => {
                if *p >= n {
                    Err(FormulaError::LeafOutOfRange { party: *p, n })
                } else {
                    Ok(())
                }
            }
            Gate::Threshold { k, children } => {
                if children.is_empty() {
                    return Err(FormulaError::EmptyGate);
                }
                if *k == 0 || *k > children.len() {
                    return Err(FormulaError::BadThreshold {
                        k: *k,
                        arity: children.len(),
                    });
                }
                for c in children {
                    c.validate(n)?;
                }
                Ok(())
            }
        }
    }
}

/// Errors from formula validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormulaError {
    /// A leaf references a party `>= n`.
    LeafOutOfRange {
        /// The offending party id.
        party: PartyId,
        /// The declared party count.
        n: usize,
    },
    /// A gate has no children.
    EmptyGate,
    /// A gate threshold is zero or exceeds the gate arity.
    BadThreshold {
        /// The declared threshold.
        k: usize,
        /// The gate arity.
        arity: usize,
    },
}

impl core::fmt::Display for FormulaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FormulaError::LeafOutOfRange { party, n } => {
                write!(f, "leaf party {party} out of range for n={n}")
            }
            FormulaError::EmptyGate => write!(f, "threshold gate has no children"),
            FormulaError::BadThreshold { k, arity } => {
                write!(f, "threshold {k} invalid for gate arity {arity}")
            }
        }
    }
}

impl std::error::Error for FormulaError {}

/// A validated monotone formula over `n` parties.
///
/// # Examples
///
/// ```
/// use sintra_adversary::formula::{Gate, MonotoneFormula};
/// use sintra_adversary::party::PartySet;
///
/// // 2-out-of-3 majority over parties 0, 1, 2.
/// let f = MonotoneFormula::new(
///     3,
///     Gate::threshold(2, vec![Gate::leaf(0), Gate::leaf(1), Gate::leaf(2)]),
/// ).unwrap();
/// let s: PartySet = [0, 2].into_iter().collect();
/// assert!(f.eval(&s));
/// assert!(!f.eval(&PartySet::singleton(1)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonotoneFormula {
    n: usize,
    root: Gate,
}

impl MonotoneFormula {
    /// Validates and wraps a formula over `n` parties.
    ///
    /// # Errors
    ///
    /// Returns a [`FormulaError`] if any gate is malformed or a leaf is out
    /// of range.
    pub fn new(n: usize, root: Gate) -> Result<Self, FormulaError> {
        root.validate(n)?;
        Ok(MonotoneFormula { n, root })
    }

    /// The classical `k`-out-of-`n` threshold access formula (all parties
    /// as leaves of one gate).
    pub fn threshold(n: usize, k: usize) -> Result<Self, FormulaError> {
        Self::new(n, Gate::threshold(k, (0..n).map(Gate::leaf).collect()))
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Root gate accessor.
    pub fn root(&self) -> &Gate {
        &self.root
    }

    /// Evaluates the formula on a set.
    pub fn eval(&self, set: &PartySet) -> bool {
        self.root.eval(set)
    }

    /// Returns the dual formula (`g*(S) = ¬g(P∖S)`).
    pub fn dual(&self) -> MonotoneFormula {
        MonotoneFormula {
            n: self.n,
            root: self.root.dual(),
        }
    }

    /// Total number of leaves (share components in the induced LSSS).
    pub fn leaf_count(&self) -> usize {
        self.root.leaf_parties().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(parties: &[PartyId]) -> PartySet {
        parties.iter().copied().collect()
    }

    #[test]
    fn and_or_eval() {
        let f = MonotoneFormula::new(
            3,
            Gate::and(vec![
                Gate::leaf(0),
                Gate::or(vec![Gate::leaf(1), Gate::leaf(2)]),
            ]),
        )
        .unwrap();
        assert!(f.eval(&set(&[0, 1])));
        assert!(f.eval(&set(&[0, 2])));
        assert!(!f.eval(&set(&[0])));
        assert!(!f.eval(&set(&[1, 2])));
    }

    #[test]
    fn threshold_eval() {
        let f = MonotoneFormula::threshold(5, 3).unwrap();
        assert!(f.eval(&set(&[0, 1, 2])));
        assert!(f.eval(&set(&[0, 1, 2, 3, 4])));
        assert!(!f.eval(&set(&[0, 1])));
        assert!(!f.eval(&PartySet::EMPTY));
    }

    #[test]
    fn monotonicity_spot_check() {
        let f = MonotoneFormula::new(
            4,
            Gate::threshold(
                2,
                vec![
                    Gate::and(vec![Gate::leaf(0), Gate::leaf(1)]),
                    Gate::leaf(2),
                    Gate::leaf(3),
                ],
            ),
        )
        .unwrap();
        // For every set S and superset T, f(S) implies f(T).
        for bits in 0u32..16 {
            let s: PartySet = (0..4).filter(|p| (bits >> p) & 1 == 1).collect();
            if f.eval(&s) {
                for extra in 0..4 {
                    let mut t = s;
                    t.insert(extra);
                    assert!(f.eval(&t), "monotonicity violated at {s:?} + {extra}");
                }
            }
        }
    }

    #[test]
    fn dual_of_threshold() {
        // Dual of 2-out-of-3 is 2-out-of-3 (self-dual); dual of 1-out-of-3
        // (OR) is 3-out-of-3 (AND).
        let f = MonotoneFormula::threshold(3, 1).unwrap();
        let d = f.dual();
        for bits in 0u32..8 {
            let s: PartySet = (0..3).filter(|p| (bits >> p) & 1 == 1).collect();
            let expected = !f.eval(&s.complement(3));
            assert_eq!(d.eval(&s), expected, "dual mismatch at {s:?}");
        }
    }

    #[test]
    fn dual_is_involution() {
        let f = MonotoneFormula::new(
            4,
            Gate::threshold(
                2,
                vec![
                    Gate::and(vec![Gate::leaf(0), Gate::leaf(1)]),
                    Gate::or(vec![Gate::leaf(2), Gate::leaf(3)]),
                    Gate::leaf(0),
                ],
            ),
        )
        .unwrap();
        assert_eq!(f.dual().dual(), f);
    }

    #[test]
    fn dual_semantics_general() {
        let f = MonotoneFormula::new(
            5,
            Gate::threshold(
                2,
                vec![
                    Gate::and(vec![Gate::leaf(0), Gate::leaf(1)]),
                    Gate::or(vec![Gate::leaf(2), Gate::leaf(3)]),
                    Gate::leaf(4),
                ],
            ),
        )
        .unwrap();
        let d = f.dual();
        for bits in 0u32..32 {
            let s: PartySet = (0..5).filter(|p| (bits >> p) & 1 == 1).collect();
            assert_eq!(d.eval(&s), !f.eval(&s.complement(5)));
        }
    }

    #[test]
    fn validation_errors() {
        assert_eq!(
            MonotoneFormula::new(2, Gate::leaf(2)).unwrap_err(),
            FormulaError::LeafOutOfRange { party: 2, n: 2 }
        );
        assert_eq!(
            MonotoneFormula::new(2, Gate::threshold(1, vec![])).unwrap_err(),
            FormulaError::EmptyGate
        );
        assert_eq!(
            MonotoneFormula::new(2, Gate::threshold(3, vec![Gate::leaf(0), Gate::leaf(1)]))
                .unwrap_err(),
            FormulaError::BadThreshold { k: 3, arity: 2 }
        );
        assert_eq!(
            MonotoneFormula::new(2, Gate::threshold(0, vec![Gate::leaf(0)])).unwrap_err(),
            FormulaError::BadThreshold { k: 0, arity: 1 }
        );
    }

    #[test]
    fn leaf_count_with_repeats() {
        let f = MonotoneFormula::new(
            2,
            Gate::or(vec![
                Gate::leaf(0),
                Gate::and(vec![Gate::leaf(0), Gate::leaf(1)]),
            ]),
        )
        .unwrap();
        assert_eq!(f.leaf_count(), 3);
    }

    #[test]
    fn error_display() {
        let e = FormulaError::BadThreshold { k: 5, arity: 2 };
        assert!(format!("{e}").contains("threshold 5"));
    }
}
