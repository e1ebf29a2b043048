//! Adversary structures, access structures, and generalized quorum rules.
//!
//! A [`TrustStructure`] packages the paper's two views of who may fail:
//!
//! * the **adversary structure** `A` — the monotone-closed family of
//!   corruptible subsets, represented by its maximal sets `A*`, and
//! * the **sharing access structure** `Γ` — the monotone formula handed
//!   to the Benaloh-Leichter linear secret sharing scheme.
//!
//! For simple structures (thresholds, the paper's Example 1) `A` is
//! exactly the complement of `Γ`. In general they may differ: in the
//! paper's Example 2 the corruptible sets are the sixteen location∪OS
//! unions, while the grid sharing scheme leaves some *additional* sets
//! (which the adversary is assumed never to corrupt) unqualified. The
//! required compatibility is one-sided:
//!
//! * **secrecy** — every corruptible set is unqualified for sharing, and
//! * **liveness** — the complement of every corruptible set is qualified.
//!
//! The §4.2 quorum translation used by every protocol:
//!
//! | classical | generalized predicate |
//! |-----------|----------------------|
//! | `n - t` values | [`TrustStructure::is_core`]: the complement of the received set is corruptible |
//! | `2t + 1` values | [`TrustStructure::is_strong`]: the received set is not coverable by **two** corruptible sets |
//! | `t + 1` values | [`TrustStructure::is_qualified`]: the received set is not corruptible |
//!
//! The paper states the `2t+1` rule syntactically ("take `S∪T∪{i}` for
//! disjoint `S,T ∈ A*`"); that rule implies two-cover-freeness and
//! coincides with it for thresholds, but is *vacuous* for structures
//! whose maximal sets pairwise intersect (Example 2!), so the protocols
//! here use the semantic predicate. [`TrustStructure::paper_strong_rule`]
//! exposes the literal rule for comparison; the `figure` benches report
//! where the two differ.
//!
//! Under the `Q³` condition (no three corruptible sets cover `P`,
//! [`TrustStructure::satisfies_q3`]) the predicates interlock the way the
//! protocol proofs need: two core sets intersect in a non-corruptible
//! set, a strong set stays non-corruptible after removing any corruptible
//! set, and every core set is strong.

// The quorum predicates deliberately mirror the paper's arithmetic
// (`>= 2t + 1`, `>= b + c + 1`) instead of clippy's preferred `> 2t`.
#![allow(clippy::int_plus_one)]

use crate::formula::{FormulaError, MonotoneFormula};
use crate::party::{PartySet, MAX_PARTIES};

/// Largest `n` for which general structures enumerate maximal adversary
/// sets from a formula eagerly (the enumeration is `O(2^n)`).
pub const MAX_GENERAL_PARTIES: usize = 24;

/// Errors from structure construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructureError {
    /// `n` exceeds the supported party count.
    TooManyParties {
        /// Requested party count.
        n: usize,
        /// The applicable limit.
        limit: usize,
    },
    /// Threshold parameters are inconsistent (`t >= n`).
    BadThreshold {
        /// Party count.
        n: usize,
        /// Corruption bound.
        t: usize,
    },
    /// The sharing formula failed validation.
    Formula(FormulaError),
    /// The structure is degenerate: the full set must be qualified and
    /// corrupting everything must be impossible.
    Degenerate,
    /// A corruptible set is qualified for sharing (secrecy violation).
    SecrecyViolation {
        /// The offending corruptible-but-qualified set.
        set: PartySet,
    },
    /// The complement of a corruptible set cannot reconstruct
    /// (liveness violation).
    LivenessViolation {
        /// The corruptible set whose complement is unqualified.
        set: PartySet,
    },
}

impl core::fmt::Display for StructureError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StructureError::TooManyParties { n, limit } => {
                write!(f, "party count {n} exceeds limit {limit}")
            }
            StructureError::BadThreshold { n, t } => {
                write!(f, "invalid threshold parameters n={n}, t={t}")
            }
            StructureError::Formula(e) => write!(f, "invalid sharing formula: {e}"),
            StructureError::Degenerate => write!(f, "degenerate structure"),
            StructureError::SecrecyViolation { set } => {
                write!(f, "corruptible set {set} is qualified for sharing")
            }
            StructureError::LivenessViolation { set } => {
                write!(f, "complement of corruptible set {set} cannot reconstruct")
            }
        }
    }
}

impl std::error::Error for StructureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StructureError::Formula(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormulaError> for StructureError {
    fn from(e: FormulaError) -> Self {
        StructureError::Formula(e)
    }
}

#[derive(Clone, Debug)]
enum Kind {
    Threshold {
        t: usize,
    },
    /// §6 hybrid failure extension: up to `b` Byzantine corruptions plus
    /// up to `c` additional crashes, requiring `n > 3b + 2c`. Crashes
    /// count against liveness (quorums shrink) but not against safety
    /// (only Byzantine parties equivocate).
    HybridThreshold {
        b: usize,
        c: usize,
    },
    General {
        /// Maximal corruptible sets `A*` (antichain).
        maximal: Vec<PartySet>,
        /// The LSSS access formula `Γ`.
        sharing: MonotoneFormula,
        /// Maximal unions `M_i ∪ M_j` over pairs of `A*` (pruned to the
        /// antichain); a set is strong iff contained in none of these.
        cover2: Vec<PartySet>,
    },
}

/// A trust structure: adversary structure, sharing access structure, and
/// the generalized quorum predicates of §4.2.
///
/// # Examples
///
/// ```
/// use sintra_adversary::structure::TrustStructure;
/// use sintra_adversary::party::PartySet;
///
/// // Classical n=4, t=1.
/// let ts = TrustStructure::threshold(4, 1).unwrap();
/// assert!(ts.satisfies_q3());
/// let two: PartySet = [0, 1].into_iter().collect();
/// assert!(ts.is_qualified(&two));       // "t+1" rule
/// assert!(!ts.is_corruptible(&two));
/// assert!(ts.is_core(&[0, 1, 2].into_iter().collect())); // "n−t" rule
/// assert!(ts.is_strong(&[0, 1, 2].into_iter().collect())); // "2t+1" rule
/// ```
#[derive(Clone, Debug)]
pub struct TrustStructure {
    n: usize,
    kind: Kind,
}

impl TrustStructure {
    /// The classical threshold structure: any set of at most `t` parties
    /// is corruptible.
    ///
    /// # Errors
    ///
    /// Returns an error if `t >= n` or `n` exceeds [`MAX_PARTIES`].
    pub fn threshold(n: usize, t: usize) -> Result<Self, StructureError> {
        if n == 0 || n > MAX_PARTIES {
            return Err(StructureError::TooManyParties {
                n,
                limit: MAX_PARTIES,
            });
        }
        if t >= n {
            return Err(StructureError::BadThreshold { n, t });
        }
        Ok(TrustStructure {
            n,
            kind: Kind::Threshold { t },
        })
    }

    /// The §6 hybrid failure structure: up to `b` Byzantine corruptions
    /// *plus* up to `c` crashes among `n` servers. Liveness quorums
    /// account for `b + c` silent parties; safety quorums only have to
    /// outvote the `b` Byzantine ones, so the resilience condition is
    /// `n > 3b + 2c` — cheaper than treating crashes as corruptions
    /// (which would demand `n > 3(b + c)`).
    ///
    /// # Errors
    ///
    /// Returns an error if `n <= 3b + 2c` or `n` exceeds
    /// [`MAX_PARTIES`].
    pub fn hybrid_threshold(n: usize, b: usize, c: usize) -> Result<Self, StructureError> {
        if n == 0 || n > MAX_PARTIES {
            return Err(StructureError::TooManyParties {
                n,
                limit: MAX_PARTIES,
            });
        }
        if n <= 3 * b + 2 * c {
            return Err(StructureError::BadThreshold { n, t: b + c });
        }
        Ok(TrustStructure {
            n,
            kind: Kind::HybridThreshold { b, c },
        })
    }

    /// For hybrid structures, the `(byzantine, crash)` budgets.
    pub fn hybrid_budgets(&self) -> Option<(usize, usize)> {
        match &self.kind {
            Kind::HybridThreshold { b, c } => Some((*b, *c)),
            _ => None,
        }
    }

    /// A general structure whose adversary structure is exactly the
    /// complement of the access formula: corruptible iff unqualified.
    /// This covers the paper's Example 1 and most hand-written structures.
    ///
    /// # Errors
    ///
    /// Returns an error for oversized or degenerate formulas.
    pub fn general_from_access(access: MonotoneFormula) -> Result<Self, StructureError> {
        let n = access.n();
        if n == 0 || n > MAX_GENERAL_PARTIES {
            return Err(StructureError::TooManyParties {
                n,
                limit: MAX_GENERAL_PARTIES,
            });
        }
        if !access.eval(&PartySet::full(n)) || access.eval(&PartySet::EMPTY) {
            return Err(StructureError::Degenerate);
        }
        let maximal = enumerate_maximal_unqualified(&access);
        Self::from_parts(n, maximal, access)
    }

    /// A general structure with an explicitly listed adversary structure
    /// (given by any generating family; reduced to its maximal antichain)
    /// and a possibly *coarser* sharing formula. This is what the paper's
    /// Example 2 needs: `A*` is the sixteen location∪OS unions while the
    /// grid sharing scheme leaves additional, never-corrupted sets
    /// unqualified.
    ///
    /// # Errors
    ///
    /// Returns an error if a corruptible set is qualified for sharing
    /// (secrecy) or the complement of a corruptible set is unqualified
    /// (liveness), or parameters are out of range.
    pub fn general(
        corruptible: Vec<PartySet>,
        sharing: MonotoneFormula,
    ) -> Result<Self, StructureError> {
        let n = sharing.n();
        if n == 0 || n > MAX_GENERAL_PARTIES {
            return Err(StructureError::TooManyParties {
                n,
                limit: MAX_GENERAL_PARTIES,
            });
        }
        if !sharing.eval(&PartySet::full(n)) || sharing.eval(&PartySet::EMPTY) {
            return Err(StructureError::Degenerate);
        }
        let maximal = prune_to_antichain(corruptible);
        Self::from_parts(n, maximal, sharing)
    }

    fn from_parts(
        n: usize,
        maximal: Vec<PartySet>,
        sharing: MonotoneFormula,
    ) -> Result<Self, StructureError> {
        let full = PartySet::full(n);
        for m in &maximal {
            if *m == full {
                return Err(StructureError::Degenerate);
            }
            if sharing.eval(m) {
                return Err(StructureError::SecrecyViolation { set: *m });
            }
            if !sharing.eval(&m.complement(n)) {
                return Err(StructureError::LivenessViolation { set: *m });
            }
        }
        let cover2 = maximal_pair_unions(&maximal);
        Ok(TrustStructure {
            n,
            kind: Kind::General {
                maximal,
                sharing,
                cover2,
            },
        })
    }

    /// Number of parties `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// For threshold structures, the corruption bound `t`.
    pub fn threshold_t(&self) -> Option<usize> {
        match &self.kind {
            Kind::Threshold { t } => Some(*t),
            Kind::HybridThreshold { .. } | Kind::General { .. } => None,
        }
    }

    /// Tests `S ∈ A` (the adversary may corrupt this entire set).
    pub fn is_corruptible(&self, set: &PartySet) -> bool {
        match &self.kind {
            Kind::Threshold { t } => set.len() <= *t,
            Kind::HybridThreshold { b, .. } => set.len() <= *b,
            Kind::General { maximal, .. } => {
                set.is_empty() || maximal.iter().any(|m| set.is_subset_of(m))
            }
        }
    }

    /// Tests `S ∉ A` — the generalized "`t+1` values" rule: any such set
    /// is guaranteed to contain at least one honest party.
    pub fn is_qualified(&self, set: &PartySet) -> bool {
        !self.is_corruptible(set)
    }

    /// The generalized "`n−t` values" rule: `S ⊇ P∖F` for some `F ∈ A`,
    /// i.e. the *complement* of `S` is corruptible. Protocols may wait
    /// for message sets satisfying this predicate without losing liveness.
    pub fn is_core(&self, set: &PartySet) -> bool {
        match &self.kind {
            // Hybrid: liveness quorums must be reachable with the
            // Byzantine AND crash budgets silent.
            Kind::HybridThreshold { b, c } => set.len() >= self.n - b - c,
            _ => self.is_corruptible(&set.complement(self.n)),
        }
    }

    /// The generalized "`2t+1` values" rule: `S` is not coverable by two
    /// corruptible sets (and is nonempty). Under `Q³` this guarantees
    /// both that `S` minus any corruptible set stays non-corruptible and
    /// that every core set is strong.
    pub fn is_strong(&self, set: &PartySet) -> bool {
        match &self.kind {
            Kind::Threshold { t } => set.len() >= 2 * t + 1,
            Kind::HybridThreshold { b, c } => {
                // Strong = intersects any other strong set beyond b, and
                // survives removal of a corruptible set while staying
                // qualified; max of the Byzantine-quorum bound and b+c+1.
                set.len() >= (self.n + b + 2) / 2 && set.len() >= b + c + 1
            }
            Kind::General { cover2, .. } => {
                !set.is_empty() && !cover2.iter().any(|u| set.is_subset_of(u))
            }
        }
    }

    /// The paper's *literal* §4.2 rule for "`2t+1` values": `S` contains
    /// `S'∪T'∪{i}` for disjoint `S',T' ∈ A*` and `i ∉ S'∪T'`. Equivalent
    /// to [`is_strong`](Self::is_strong) for thresholds; strictly weaker
    /// in general (vacuously false when no two maximal sets are disjoint,
    /// as in the paper's Example 2). Protocols use `is_strong`.
    pub fn paper_strong_rule(&self, set: &PartySet) -> bool {
        match &self.kind {
            Kind::Threshold { t } => set.len() >= 2 * t + 1,
            Kind::HybridThreshold { .. } => self.is_strong(set),
            Kind::General { maximal, .. } => {
                for (i, a) in maximal.iter().enumerate() {
                    for b in &maximal[i + 1..] {
                        if !a.is_disjoint(b) {
                            continue;
                        }
                        let st = a.union(b);
                        if st.is_subset_of(set) && !set.difference(&st).is_empty() {
                            return true;
                        }
                    }
                }
                false
            }
        }
    }

    /// Checks the `Q³` condition: no three corruptible sets cover `P`
    /// (`n > 3t` in the threshold case) — the resilience condition all
    /// protocols in the architecture require.
    pub fn satisfies_q3(&self) -> bool {
        match &self.kind {
            Kind::Threshold { t } => self.n > 3 * t,
            Kind::HybridThreshold { b, c } => self.n > 3 * b + 2 * c,
            Kind::General { cover2, .. } => cover2
                .iter()
                .all(|u| self.is_qualified(&u.complement(self.n))),
        }
    }

    /// Checks the weaker `Q²` condition: no two corruptible sets cover `P`.
    pub fn satisfies_q2(&self) -> bool {
        match &self.kind {
            Kind::Threshold { t } => self.n > 2 * t,
            Kind::HybridThreshold { b, c } => self.n > 2 * b + c,
            Kind::General { cover2, .. } => {
                let full = PartySet::full(self.n);
                cover2.iter().all(|u| *u != full)
            }
        }
    }

    /// The maximal corruptible sets `A*`.
    ///
    /// For general structures this is precomputed. For threshold
    /// structures it enumerates all `C(n, t)` subsets — intended for tests
    /// and benchmarks on small systems.
    pub fn maximal_adversary_sets(&self) -> Vec<PartySet> {
        match &self.kind {
            Kind::Threshold { t } => crate::party::subsets_of_size(self.n, *t),
            Kind::HybridThreshold { b, .. } => crate::party::subsets_of_size(self.n, *b),
            Kind::General { maximal, .. } => maximal.clone(),
        }
    }

    /// The access formula handed to the linear secret sharing scheme
    /// (`Θ_{t+1}^n` for thresholds).
    pub fn sharing_formula(&self) -> MonotoneFormula {
        match &self.kind {
            Kind::Threshold { t } => MonotoneFormula::threshold(self.n, t + 1)
                .expect("threshold parameters validated at construction"),
            Kind::HybridThreshold { b, .. } => MonotoneFormula::threshold(self.n, b + 1)
                .expect("hybrid parameters validated at construction"),
            Kind::General { sharing, .. } => sharing.clone(),
        }
    }

    /// Tests whether `set` is qualified *for secret sharing* (this can be
    /// stricter than [`is_qualified`](Self::is_qualified), which is the
    /// protocol-level "not corruptible" predicate).
    pub fn can_reconstruct(&self, set: &PartySet) -> bool {
        match &self.kind {
            Kind::Threshold { t } => set.len() >= t + 1,
            Kind::HybridThreshold { b, .. } => set.len() >= b + 1,
            Kind::General { sharing, .. } => sharing.eval(set),
        }
    }

    /// The largest corruptible-set size (`t` in the threshold case).
    pub fn max_corruptible_size(&self) -> usize {
        match &self.kind {
            Kind::Threshold { t } => *t,
            Kind::HybridThreshold { b, .. } => *b,
            Kind::General { maximal, .. } => maximal.iter().map(|s| s.len()).max().unwrap_or(0),
        }
    }
}

/// Enumerates maximal sets `S` with `access(S) = false` by scanning all
/// `2^n` subsets; a set is maximal iff it is unqualified and every
/// single-party extension is qualified.
fn enumerate_maximal_unqualified(access: &MonotoneFormula) -> Vec<PartySet> {
    let n = access.n();
    let mut out = Vec::new();
    for bits in 0u64..(1u64 << n) {
        let set: PartySet = (0..n).filter(|p| (bits >> p) & 1 == 1).collect();
        if access.eval(&set) {
            continue;
        }
        let maximal = (0..n).filter(|p| !set.contains(*p)).all(|p| {
            let mut bigger = set;
            bigger.insert(p);
            access.eval(&bigger)
        });
        if maximal {
            out.push(set);
        }
    }
    out
}

/// Reduces a family of sets to its maximal antichain (drop any set
/// contained in another; deduplicate).
fn prune_to_antichain(mut sets: Vec<PartySet>) -> Vec<PartySet> {
    sets.sort_by_key(|s| core::cmp::Reverse(s.len()));
    let mut out: Vec<PartySet> = Vec::new();
    for s in sets {
        if !out.iter().any(|kept| s.is_subset_of(kept)) {
            out.push(s);
        }
    }
    out
}

/// Computes the antichain of pairwise unions `M_i ∪ M_j` (including
/// `i = j`); a set avoids two-coverage iff it is contained in none of
/// these.
fn maximal_pair_unions(maximal: &[PartySet]) -> Vec<PartySet> {
    let mut unions = Vec::with_capacity(maximal.len() * (maximal.len() + 1) / 2);
    for (i, a) in maximal.iter().enumerate() {
        for b in &maximal[i..] {
            unions.push(a.union(b));
        }
    }
    unions.sort();
    unions.dedup();
    prune_to_antichain(unions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Gate;

    fn set(parties: &[usize]) -> PartySet {
        parties.iter().copied().collect()
    }

    #[test]
    fn threshold_predicates() {
        let ts = TrustStructure::threshold(7, 2).unwrap();
        assert_eq!(ts.n(), 7);
        assert_eq!(ts.threshold_t(), Some(2));
        assert!(ts.is_corruptible(&set(&[0, 1])));
        assert!(!ts.is_corruptible(&set(&[0, 1, 2])));
        assert!(ts.is_qualified(&set(&[0, 1, 2])));
        assert!(ts.is_core(&set(&[0, 1, 2, 3, 4])));
        assert!(!ts.is_core(&set(&[0, 1, 2, 3])));
        assert!(ts.is_strong(&set(&[0, 1, 2, 3, 4])));
        assert!(!ts.is_strong(&set(&[0, 1, 2, 3])));
        assert!(ts.satisfies_q3());
        assert!(ts.satisfies_q2());
        assert!(ts.can_reconstruct(&set(&[0, 1, 2])));
        assert!(!ts.can_reconstruct(&set(&[0, 1])));
    }

    #[test]
    fn threshold_q3_boundary() {
        assert!(TrustStructure::threshold(4, 1).unwrap().satisfies_q3());
        assert!(!TrustStructure::threshold(3, 1).unwrap().satisfies_q3());
        assert!(TrustStructure::threshold(3, 1).unwrap().satisfies_q2());
        assert!(!TrustStructure::threshold(2, 1).unwrap().satisfies_q2());
    }

    #[test]
    fn invalid_parameters() {
        assert!(TrustStructure::threshold(0, 0).is_err());
        assert!(TrustStructure::threshold(3, 3).is_err());
        assert!(TrustStructure::threshold(200, 1).is_err());
    }

    #[test]
    fn general_matches_threshold() {
        // A general structure built from the threshold formula must agree
        // with the native threshold structure on every predicate.
        let native = TrustStructure::threshold(5, 1).unwrap();
        let general =
            TrustStructure::general_from_access(MonotoneFormula::threshold(5, 2).unwrap()).unwrap();
        for bits in 0u64..32 {
            let s: PartySet = (0..5).filter(|p| (bits >> p) & 1 == 1).collect();
            assert_eq!(
                native.is_corruptible(&s),
                general.is_corruptible(&s),
                "{s:?}"
            );
            assert_eq!(native.is_core(&s), general.is_core(&s), "{s:?}");
            assert_eq!(native.is_strong(&s), general.is_strong(&s), "{s:?}");
            assert_eq!(
                native.paper_strong_rule(&s),
                general.paper_strong_rule(&s),
                "{s:?}"
            );
            assert_eq!(
                native.can_reconstruct(&s),
                general.can_reconstruct(&s),
                "{s:?}"
            );
        }
        assert!(general.satisfies_q3());
        assert_eq!(general.max_corruptible_size(), 1);
    }

    #[test]
    fn general_maximal_sets_for_threshold_formula() {
        let general =
            TrustStructure::general_from_access(MonotoneFormula::threshold(4, 2).unwrap()).unwrap();
        // Corruptible = sets of size <= 1; maximal = the four singletons.
        let mut maximal = general.maximal_adversary_sets();
        maximal.sort();
        assert_eq!(maximal.len(), 4);
        assert!(maximal.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn oversized_general_rejected() {
        let err = TrustStructure::general_from_access(
            MonotoneFormula::threshold(MAX_GENERAL_PARTIES + 1, 2).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, StructureError::TooManyParties { .. }));
    }

    #[test]
    fn explicit_adversary_secrecy_violation_rejected() {
        // Sharing = 2-out-of-4, but the declared adversary can corrupt a
        // pair — which could then reconstruct: must be rejected.
        let err = TrustStructure::general(
            vec![set(&[0, 1])],
            MonotoneFormula::threshold(4, 2).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, StructureError::SecrecyViolation { .. }));
    }

    #[test]
    fn explicit_adversary_liveness_violation_rejected() {
        // Sharing = 4-out-of-4, adversary corrupts one party: the three
        // survivors cannot reconstruct.
        let err =
            TrustStructure::general(vec![set(&[0])], MonotoneFormula::threshold(4, 4).unwrap())
                .unwrap_err();
        assert!(matches!(err, StructureError::LivenessViolation { .. }));
    }

    #[test]
    fn antichain_pruning() {
        let ts = TrustStructure::general(
            vec![set(&[0]), set(&[0, 1]), set(&[0, 1]), set(&[2])],
            MonotoneFormula::threshold(5, 3).unwrap(),
        )
        .unwrap();
        let mut maximal = ts.maximal_adversary_sets();
        maximal.sort();
        assert_eq!(maximal, vec![set(&[0, 1]), set(&[2])]);
    }

    #[test]
    fn maximal_sets_of_nontrivial_structure() {
        // Majority-of-3: corruptible = singletons; satisfies Q2 (liveness
        // and secrecy hold) but NOT Q3 (three singletons cover P).
        let ts =
            TrustStructure::general_from_access(MonotoneFormula::threshold(3, 2).unwrap()).unwrap();
        let mut maximal = ts.maximal_adversary_sets();
        maximal.sort();
        assert_eq!(maximal, vec![set(&[0]), set(&[1]), set(&[2])]);
        assert!(ts.satisfies_q2());
        assert!(!ts.satisfies_q3());
        // The full set is strong (not coverable by two singletons)…
        assert!(ts.is_strong(&PartySet::full(3)));
        // …but any pair is coverable by two singletons.
        assert!(!ts.is_strong(&set(&[0, 1])));
    }

    #[test]
    fn liveness_violating_formula_rejected() {
        // Access = (0 AND 1) OR (2 AND 3): the complement of the maximal
        // corruptible set {0,2} is {1,3}, which cannot reconstruct.
        let access = MonotoneFormula::new(
            4,
            Gate::or(vec![
                Gate::and(vec![Gate::leaf(0), Gate::leaf(1)]),
                Gate::and(vec![Gate::leaf(2), Gate::leaf(3)]),
            ]),
        )
        .unwrap();
        let err = TrustStructure::general_from_access(access).unwrap_err();
        assert!(matches!(err, StructureError::LivenessViolation { .. }));
    }

    #[test]
    fn is_strong_semantics_threshold_formula() {
        let ts =
            TrustStructure::general_from_access(MonotoneFormula::threshold(7, 3).unwrap()).unwrap();
        // t = 2 equivalent: strong sets are exactly those of size >= 5.
        assert!(ts.is_strong(&set(&[0, 1, 2, 3, 4])));
        assert!(!ts.is_strong(&set(&[0, 1, 2, 3])));
        assert!(!ts.is_strong(&PartySet::EMPTY));
    }

    #[test]
    fn strong_equals_paper_rule_on_threshold_formulas() {
        for (n, k) in [(4usize, 2usize), (5, 3), (6, 3), (7, 3)] {
            let ts = TrustStructure::general_from_access(MonotoneFormula::threshold(n, k).unwrap())
                .unwrap();
            for bits in 0u64..(1 << n) {
                let s: PartySet = (0..n).filter(|p| (bits >> p) & 1 == 1).collect();
                assert_eq!(
                    ts.is_strong(&s),
                    ts.paper_strong_rule(&s),
                    "n={n} k={k} {s:?}"
                );
            }
        }
    }

    #[test]
    fn q3_quorum_interlock() {
        // Under Q3: every core set is strong; strong minus corruptible is
        // still qualified; two cores intersect in a qualified set.
        let structures = vec![
            TrustStructure::threshold(4, 1).unwrap(),
            TrustStructure::threshold(7, 2).unwrap(),
            TrustStructure::general_from_access(MonotoneFormula::threshold(7, 3).unwrap()).unwrap(),
        ];
        for ts in structures {
            let n = ts.n();
            assert!(ts.satisfies_q3());
            for bits in 0u64..(1 << n) {
                let s: PartySet = (0..n).filter(|p| (bits >> p) & 1 == 1).collect();
                if ts.is_core(&s) {
                    assert!(ts.is_strong(&s), "core must be strong: {s:?}");
                }
                if ts.is_strong(&s) {
                    for m in ts.maximal_adversary_sets() {
                        assert!(
                            ts.is_qualified(&s.difference(&m)),
                            "strong minus corruptible must stay qualified: {s:?} - {m:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharing_formula_roundtrip() {
        let ts = TrustStructure::threshold(4, 1).unwrap();
        let f = ts.sharing_formula();
        assert!(f.eval(&set(&[0, 1])));
        assert!(!f.eval(&set(&[0])));
    }

    #[test]
    fn hybrid_threshold_predicates() {
        // n = 6, b = 1, c = 1 (6 > 3·1 + 2·1).
        let ts = TrustStructure::hybrid_threshold(6, 1, 1).unwrap();
        assert_eq!(ts.hybrid_budgets(), Some((1, 1)));
        assert_eq!(ts.threshold_t(), None);
        assert!(ts.satisfies_q3());
        // Safety: only single parties are corruptible.
        assert!(ts.is_corruptible(&set(&[3])));
        assert!(!ts.is_corruptible(&set(&[3, 4])));
        // Liveness: core = n - b - c = 4.
        assert!(ts.is_core(&set(&[0, 1, 2, 3])));
        assert!(!ts.is_core(&set(&[0, 1, 2])));
        // Strong: max(⌈(n+b+1)/2⌉, b+c+1) = max(4, 3) = 4.
        assert!(ts.is_strong(&set(&[0, 1, 2, 3])));
        assert!(!ts.is_strong(&set(&[0, 1, 2])));
        assert!(ts.paper_strong_rule(&set(&[0, 1, 2, 3])));
        // Sharing: b+1 = 2 reconstruct.
        assert!(ts.can_reconstruct(&set(&[0, 5])));
        assert!(!ts.can_reconstruct(&set(&[0])));
        assert_eq!(ts.max_corruptible_size(), 1);
        assert_eq!(ts.maximal_adversary_sets().len(), 6);
    }

    #[test]
    fn hybrid_threshold_interlock() {
        // The quorum interlock must hold: cores intersect beyond b;
        // strong minus corruptible stays qualified; core implies strong.
        for (n, b, c) in [(6usize, 1usize, 1usize), (8, 1, 2), (10, 2, 1)] {
            let ts = TrustStructure::hybrid_threshold(n, b, c).unwrap();
            for bits in 0u64..(1 << n) {
                let s: PartySet = (0..n).filter(|p| (bits >> p) & 1 == 1).collect();
                if ts.is_core(&s) {
                    assert!(
                        ts.is_strong(&s),
                        "core implies strong: n={n} b={b} c={c} {s:?}"
                    );
                }
                if ts.is_strong(&s) {
                    // Removing any Byzantine-corruptible set leaves a
                    // qualified set.
                    for m in ts.maximal_adversary_sets() {
                        assert!(ts.is_qualified(&s.difference(&m)));
                    }
                }
            }
            // Two cores intersect in a qualified (non-corruptible) set.
            let core_size = n - b - c;
            let s1: PartySet = (0..core_size).collect();
            let s2: PartySet = (n - core_size..n).collect();
            assert!(ts.is_qualified(&s1.intersection(&s2)), "n={n} b={b} c={c}");
        }
    }

    #[test]
    fn hybrid_resilience_condition() {
        assert!(TrustStructure::hybrid_threshold(6, 1, 1).is_ok());
        assert!(TrustStructure::hybrid_threshold(5, 1, 1).is_err());
        assert!(TrustStructure::hybrid_threshold(4, 1, 0).is_ok());
        assert!(TrustStructure::hybrid_threshold(3, 0, 1).is_ok());
        // Hybrid beats treating crashes as corruptions: 6 servers can
        // take 1 Byzantine + 1 crash, while threshold t=2 would need 7.
        assert!(!TrustStructure::threshold(6, 2).unwrap().satisfies_q3());
    }

    #[test]
    fn error_display_and_source() {
        let e = StructureError::BadThreshold { n: 3, t: 3 };
        assert!(format!("{e}").contains("n=3"));
        let e: StructureError = FormulaError::EmptyGate.into();
        assert!(std::error::Error::source(&e).is_some());
        let e = StructureError::SecrecyViolation { set: set(&[1, 2]) };
        assert!(format!("{e}").contains("{1,2}"));
    }
}
