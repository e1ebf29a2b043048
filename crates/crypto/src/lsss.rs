//! Linear secret sharing for monotone access structures
//! (Benaloh-Leichter, generalized to threshold gates via Shamir).
//!
//! §4.2 of the paper requires every threshold-cryptographic scheme to
//! work for any `Q³` adversary structure whose access structure has a
//! *linear* secret sharing scheme. This module derives that scheme
//! directly from the access formula:
//!
//! * an **AND/threshold gate** `Θ_k^m` shares its incoming value with a
//!   fresh degree-`k-1` Shamir polynomial, handing child `j` the
//!   evaluation at `j`;
//! * an **OR gate** (`Θ_1^m`) copies the value to every child;
//! * a **leaf** assigns the incoming value to its party as one *share
//!   component*.
//!
//! A party owns one component per leaf labelled with it (a party may
//! appear in several leaves — in the paper's Example 1 every server owns
//! two components). Reconstruction computes, for any qualified set, a
//! vector of coefficients such that the secret is the corresponding
//! linear combination of components; linearity means the same
//! coefficients reconstruct "in the exponent", which is what the
//! threshold coin, signature, and encryption schemes need.

use crate::field::Scalar;
use crate::group::GroupElement;
use crate::rng::SeededRng;
use crate::shamir::{lagrange_at_zero, Polynomial};
use sintra_adversary::formula::{Gate, MonotoneFormula};
use sintra_adversary::party::{PartyId, PartySet};
use std::collections::BTreeMap;

/// Index of a share component (a leaf of the access formula, in
/// depth-first traversal order).
pub type LeafId = usize;

/// A linear secret sharing scheme derived from a monotone access formula.
///
/// # Examples
///
/// ```
/// use sintra_crypto::lsss::SharingScheme;
/// use sintra_crypto::field::Scalar;
/// use sintra_crypto::rng::SeededRng;
/// use sintra_adversary::formula::MonotoneFormula;
/// use sintra_adversary::party::PartySet;
///
/// // 2-out-of-3.
/// let scheme = SharingScheme::new(MonotoneFormula::threshold(3, 2).unwrap());
/// let mut rng = SeededRng::new(1);
/// let secret = Scalar::from_u64(42);
/// let shares = scheme.share(secret, &mut rng);
/// let holders: PartySet = [0, 2].into_iter().collect();
/// assert_eq!(scheme.reconstruct(&holders, &shares), Some(secret));
/// assert_eq!(scheme.reconstruct(&PartySet::singleton(1), &shares), None);
/// ```
#[derive(Clone, Debug)]
pub struct SharingScheme {
    formula: MonotoneFormula,
    /// Owner of each leaf, in depth-first traversal order.
    leaf_owner: Vec<PartyId>,
    /// Leaves of each party, precomputed so the hot share-verification
    /// path never re-scans `leaf_owner` (or allocates) per call.
    leaves_by_party: Vec<Vec<LeafId>>,
}

impl SharingScheme {
    /// Builds the scheme for an access formula.
    pub fn new(formula: MonotoneFormula) -> Self {
        let leaf_owner = formula.root().leaf_parties();
        let mut leaves_by_party = vec![Vec::new(); formula.n()];
        for (leaf, owner) in leaf_owner.iter().enumerate() {
            leaves_by_party[*owner].push(leaf);
        }
        SharingScheme {
            formula,
            leaf_owner,
            leaves_by_party,
        }
    }

    /// The underlying access formula.
    pub fn formula(&self) -> &MonotoneFormula {
        &self.formula
    }

    /// Number of parties.
    pub fn n(&self) -> usize {
        self.formula.n()
    }

    /// Total number of share components.
    pub fn num_leaves(&self) -> usize {
        self.leaf_owner.len()
    }

    /// Owner of a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn owner(&self, leaf: LeafId) -> PartyId {
        self.leaf_owner[leaf]
    }

    /// The leaves owned by `party`.
    pub fn leaves_of(&self, party: PartyId) -> Vec<LeafId> {
        self.leaves_by_party(party).to_vec()
    }

    /// The leaves owned by `party`, borrowed from the precomputed layout
    /// (empty for out-of-range parties). Allocation-free; prefer this
    /// over [`leaves_of`](Self::leaves_of) on hot paths.
    pub fn leaves_by_party(&self, party: PartyId) -> &[LeafId] {
        self.leaves_by_party
            .get(party)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Produces a *refresh vector*: a fresh sharing of zero. Adding it
    /// componentwise to an existing sharing re-randomizes every share
    /// while preserving the secret — the core of proactive resharing
    /// (§6 of the paper): shares from different epochs do not combine,
    /// so a mobile adversary's old loot becomes useless.
    pub fn refresh_vector(&self, rng: &mut SeededRng) -> Vec<Scalar> {
        self.share(Scalar::ZERO, rng)
    }

    /// Shares a secret; returns one component value per leaf (indexed by
    /// [`LeafId`]).
    pub fn share(&self, secret: Scalar, rng: &mut SeededRng) -> Vec<Scalar> {
        let mut values = vec![Scalar::ZERO; self.num_leaves()];
        let mut next_leaf = 0;
        share_node(
            self.formula.root(),
            secret,
            rng,
            &mut next_leaf,
            &mut values,
        );
        debug_assert_eq!(next_leaf, values.len());
        values
    }

    /// Computes reconstruction coefficients for the components owned by
    /// `set`: a map `leaf → λ` with `secret = Σ λ_leaf · value_leaf`.
    ///
    /// Returns `None` if `set` is not qualified.
    pub fn reconstruction_coefficients(&self, set: &PartySet) -> Option<BTreeMap<LeafId, Scalar>> {
        let mut next_leaf = 0;
        let result = coeffs_node(self.formula.root(), set, &mut next_leaf);
        debug_assert_eq!(next_leaf, self.num_leaves());
        result.map(|contributions| {
            let mut map = BTreeMap::new();
            for (leaf, coeff) in contributions {
                let entry = map.entry(leaf).or_insert(Scalar::ZERO);
                *entry = *entry + coeff;
            }
            map
        })
    }

    /// Reconstructs the secret from the full component vector, using only
    /// components owned by `set`.
    ///
    /// Returns `None` if `set` is not qualified.
    pub fn reconstruct(&self, set: &PartySet, values: &[Scalar]) -> Option<Scalar> {
        let coeffs = self.reconstruction_coefficients(set)?;
        Some(coeffs.into_iter().map(|(leaf, c)| c * values[leaf]).sum())
    }

    /// Reconstructs `base^secret` from exponentiated components
    /// `leaf → base^{value_leaf}`, using only components owned by `set`.
    ///
    /// Returns `None` if `set` is unqualified or a needed component is
    /// missing from `elements`.
    pub fn reconstruct_in_exponent(
        &self,
        set: &PartySet,
        elements: &BTreeMap<LeafId, GroupElement>,
    ) -> Option<GroupElement> {
        let coeffs = self.reconstruction_coefficients(set)?;
        let mut terms = Vec::with_capacity(coeffs.len());
        for (leaf, c) in coeffs {
            terms.push((*elements.get(&leaf)?, c));
        }
        Some(GroupElement::multi_exp(&terms))
    }
}

/// Recursively distributes `value` down the gate tree.
fn share_node(
    node: &Gate,
    value: Scalar,
    rng: &mut SeededRng,
    next_leaf: &mut LeafId,
    values: &mut [Scalar],
) {
    match node {
        Gate::Leaf(_) => {
            values[*next_leaf] = value;
            *next_leaf += 1;
        }
        Gate::Threshold { k, children } => {
            let poly = Polynomial::random(value, k - 1, rng);
            for (j, child) in children.iter().enumerate() {
                // Child positions are 1-based Shamir points.
                share_node(child, poly.eval_at(j as u64 + 1), rng, next_leaf, values);
            }
        }
    }
}

/// Recursively computes contribution lists. Advances `next_leaf` across
/// the *entire* subtree regardless of satisfaction so leaf ids stay
/// aligned with traversal order.
fn coeffs_node(
    node: &Gate,
    set: &PartySet,
    next_leaf: &mut LeafId,
) -> Option<Vec<(LeafId, Scalar)>> {
    match node {
        Gate::Leaf(p) => {
            let leaf = *next_leaf;
            *next_leaf += 1;
            if set.contains(*p) {
                Some(vec![(leaf, Scalar::ONE)])
            } else {
                None
            }
        }
        Gate::Threshold { k, children } => {
            let mut satisfied: Vec<(u64, Vec<(LeafId, Scalar)>)> = Vec::new();
            for (j, child) in children.iter().enumerate() {
                let sub = coeffs_node(child, set, next_leaf);
                if let Some(contributions) = sub {
                    if satisfied.len() < *k {
                        satisfied.push((j as u64 + 1, contributions));
                    }
                }
            }
            if satisfied.len() < *k {
                return None;
            }
            let points: Vec<u64> = satisfied.iter().map(|(j, _)| *j).collect();
            let lambdas = lagrange_at_zero(&points);
            let mut out = Vec::new();
            for ((_, contributions), lambda) in satisfied.into_iter().zip(lambdas) {
                for (leaf, coeff) in contributions {
                    out.push((leaf, coeff * lambda));
                }
            }
            Some(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_adversary::attributes::{example1, example2};
    use sintra_adversary::formula::Gate;

    fn set(parties: &[usize]) -> PartySet {
        parties.iter().copied().collect()
    }

    #[test]
    fn threshold_scheme_matches_shamir_semantics() {
        let scheme = SharingScheme::new(MonotoneFormula::threshold(5, 3).unwrap());
        assert_eq!(scheme.num_leaves(), 5);
        let mut rng = SeededRng::new(1);
        let secret = rng.next_scalar();
        let shares = scheme.share(secret, &mut rng);
        // Any 3 parties reconstruct.
        assert_eq!(scheme.reconstruct(&set(&[0, 2, 4]), &shares), Some(secret));
        assert_eq!(scheme.reconstruct(&set(&[1, 2, 3]), &shares), Some(secret));
        // Fewer do not.
        assert_eq!(scheme.reconstruct(&set(&[0, 1]), &shares), None);
        assert_eq!(scheme.reconstruct(&PartySet::EMPTY, &shares), None);
    }

    #[test]
    fn and_gate_needs_everyone() {
        let f = MonotoneFormula::new(
            3,
            Gate::and(vec![Gate::leaf(0), Gate::leaf(1), Gate::leaf(2)]),
        )
        .unwrap();
        let scheme = SharingScheme::new(f);
        let mut rng = SeededRng::new(2);
        let secret = rng.next_scalar();
        let shares = scheme.share(secret, &mut rng);
        assert_eq!(scheme.reconstruct(&set(&[0, 1, 2]), &shares), Some(secret));
        assert_eq!(scheme.reconstruct(&set(&[0, 1]), &shares), None);
    }

    #[test]
    fn or_gate_needs_anyone() {
        let f = MonotoneFormula::new(2, Gate::or(vec![Gate::leaf(0), Gate::leaf(1)])).unwrap();
        let scheme = SharingScheme::new(f);
        let mut rng = SeededRng::new(3);
        let secret = rng.next_scalar();
        let shares = scheme.share(secret, &mut rng);
        assert_eq!(scheme.reconstruct(&set(&[0]), &shares), Some(secret));
        assert_eq!(scheme.reconstruct(&set(&[1]), &shares), Some(secret));
        // With OR both leaves carry the secret directly.
        assert_eq!(shares[0], secret);
        assert_eq!(shares[1], secret);
    }

    #[test]
    fn nested_formula() {
        // (P0 AND P1) OR (P2 AND (P3 OR P4))
        let f = MonotoneFormula::new(
            5,
            Gate::or(vec![
                Gate::and(vec![Gate::leaf(0), Gate::leaf(1)]),
                Gate::and(vec![
                    Gate::leaf(2),
                    Gate::or(vec![Gate::leaf(3), Gate::leaf(4)]),
                ]),
            ]),
        )
        .unwrap();
        let scheme = SharingScheme::new(f);
        let mut rng = SeededRng::new(4);
        let secret = rng.next_scalar();
        let shares = scheme.share(secret, &mut rng);
        assert_eq!(scheme.reconstruct(&set(&[0, 1]), &shares), Some(secret));
        assert_eq!(scheme.reconstruct(&set(&[2, 4]), &shares), Some(secret));
        assert_eq!(scheme.reconstruct(&set(&[2, 3]), &shares), Some(secret));
        assert_eq!(scheme.reconstruct(&set(&[0, 2]), &shares), None);
        assert_eq!(scheme.reconstruct(&set(&[3, 4]), &shares), None);
    }

    #[test]
    fn example1_sharing() {
        let ts = example1().unwrap();
        let scheme = SharingScheme::new(ts.sharing_formula());
        // Every server owns two components (one under Θ³₉, one under its
        // class's OR gate).
        assert_eq!(scheme.num_leaves(), 18);
        for p in 0..9 {
            assert_eq!(scheme.leaves_of(p).len(), 2, "party {p}");
        }
        let mut rng = SeededRng::new(5);
        let secret = rng.next_scalar();
        let shares = scheme.share(secret, &mut rng);
        // Three servers covering two classes reconstruct.
        assert_eq!(scheme.reconstruct(&set(&[0, 1, 4]), &shares), Some(secret));
        assert_eq!(scheme.reconstruct(&set(&[4, 6, 8]), &shares), Some(secret));
        // All of class a (four servers, one class) cannot.
        assert_eq!(scheme.reconstruct(&set(&[0, 1, 2, 3]), &shares), None);
        // Two servers cannot.
        assert_eq!(scheme.reconstruct(&set(&[4, 8]), &shares), None);
    }

    #[test]
    fn example2_sharing() {
        let ts = example2().unwrap();
        let scheme = SharingScheme::new(ts.sharing_formula());
        // 16 leaves on the location side + 16 on the OS side.
        assert_eq!(scheme.num_leaves(), 32);
        let mut rng = SeededRng::new(6);
        let secret = rng.next_scalar();
        let shares = scheme.share(secret, &mut rng);
        // A 2×2 subgrid at two locations with two OSes reconstructs:
        // parties (0,0)=0, (0,1)=1, (1,0)=4, (1,1)=5.
        assert_eq!(
            scheme.reconstruct(&set(&[0, 1, 4, 5]), &shares),
            Some(secret)
        );
        // One full location ∪ one full OS cannot (7 corrupted servers).
        let corrupted = set(&[0, 1, 2, 3, 6, 10, 14]); // location 0 + OS 2
        assert_eq!(scheme.reconstruct(&corrupted, &shares), None);
        // The honest complement (9 servers) reconstructs.
        assert_eq!(
            scheme.reconstruct(&corrupted.complement(16), &shares),
            Some(secret)
        );
    }

    #[test]
    fn exponent_reconstruction() {
        let scheme = SharingScheme::new(MonotoneFormula::threshold(4, 2).unwrap());
        let mut rng = SeededRng::new(7);
        let secret = rng.next_scalar();
        let shares = scheme.share(secret, &mut rng);
        let g = GroupElement::generator();
        let elements: BTreeMap<LeafId, GroupElement> = shares
            .iter()
            .enumerate()
            .map(|(leaf, v)| (leaf, g.exp(v)))
            .collect();
        let holders = set(&[1, 3]);
        assert_eq!(
            scheme.reconstruct_in_exponent(&holders, &elements),
            Some(g.exp(&secret))
        );
        // Unqualified set fails.
        assert_eq!(scheme.reconstruct_in_exponent(&set(&[1]), &elements), None);
        // Missing element fails gracefully.
        let partial: BTreeMap<LeafId, GroupElement> = elements
            .iter()
            .filter(|(l, _)| **l != 1)
            .map(|(l, e)| (*l, *e))
            .collect();
        assert_eq!(scheme.reconstruct_in_exponent(&holders, &partial), None);
    }

    #[test]
    fn coefficients_only_reference_owned_leaves() {
        let ts = example1().unwrap();
        let scheme = SharingScheme::new(ts.sharing_formula());
        let holders = set(&[0, 4, 6]);
        let coeffs = scheme.reconstruction_coefficients(&holders).unwrap();
        for leaf in coeffs.keys() {
            assert!(
                holders.contains(scheme.owner(*leaf)),
                "coefficient for unowned leaf {leaf}"
            );
        }
    }

    #[test]
    fn different_sharings_of_same_secret_differ() {
        let scheme = SharingScheme::new(MonotoneFormula::threshold(4, 2).unwrap());
        let mut rng = SeededRng::new(8);
        let secret = Scalar::from_u64(9);
        let s1 = scheme.share(secret, &mut rng);
        let s2 = scheme.share(secret, &mut rng);
        assert_ne!(s1, s2, "randomized sharing");
        assert_eq!(scheme.reconstruct(&set(&[0, 1]), &s1), Some(secret));
        assert_eq!(scheme.reconstruct(&set(&[0, 1]), &s2), Some(secret));
    }
}
