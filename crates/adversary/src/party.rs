//! Party identifiers and compact party sets.
//!
//! The paper's server index set `P = {1, ..., n}` is represented 0-based
//! as `0..n`. Subsets of `P` — corruptible sets, quorums, echo sets — are
//! [`PartySet`] bitmasks supporting up to 128 parties, far beyond any
//! deployment the paper contemplates (its examples use 9 and 16 servers).

/// Index of a server/replica, in `0..n`.
pub type PartyId = usize;

/// Maximum number of parties a [`PartySet`] can hold.
pub const MAX_PARTIES: usize = 128;

/// A subset of the parties `{0, .., n-1}`, stored as a 128-bit mask.
///
/// # Examples
///
/// ```
/// use sintra_adversary::party::PartySet;
///
/// let s: PartySet = [0, 2, 3].into_iter().collect();
/// assert!(s.contains(2));
/// assert!(!s.contains(1));
/// assert_eq!(s.len(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PartySet {
    bits: u128,
}

impl PartySet {
    /// The empty set.
    pub const EMPTY: PartySet = PartySet { bits: 0 };

    /// Creates an empty set.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// Creates the singleton set `{p}`.
    ///
    /// # Panics
    ///
    /// Panics if `p >= MAX_PARTIES`.
    pub fn singleton(p: PartyId) -> Self {
        assert!(p < MAX_PARTIES, "party id {p} out of range");
        PartySet { bits: 1 << p }
    }

    /// Creates the full set `{0, .., n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_PARTIES`.
    pub fn full(n: usize) -> Self {
        assert!(n <= MAX_PARTIES, "party count {n} out of range");
        if n == 128 {
            PartySet { bits: u128::MAX }
        } else {
            PartySet {
                bits: (1u128 << n) - 1,
            }
        }
    }

    /// Inserts a party; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `p >= MAX_PARTIES`.
    pub fn insert(&mut self, p: PartyId) -> bool {
        assert!(p < MAX_PARTIES, "party id {p} out of range");
        let had = self.contains(p);
        self.bits |= 1 << p;
        !had
    }

    /// Removes a party; returns `true` if it was present.
    pub fn remove(&mut self, p: PartyId) -> bool {
        if p >= MAX_PARTIES {
            return false;
        }
        let had = self.contains(p);
        self.bits &= !(1 << p);
        had
    }

    /// Tests membership.
    pub fn contains(&self, p: PartyId) -> bool {
        p < MAX_PARTIES && (self.bits >> p) & 1 == 1
    }

    /// Number of parties in the set.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Set union.
    pub fn union(&self, other: &PartySet) -> PartySet {
        PartySet {
            bits: self.bits | other.bits,
        }
    }

    /// Set intersection.
    pub fn intersection(&self, other: &PartySet) -> PartySet {
        PartySet {
            bits: self.bits & other.bits,
        }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &PartySet) -> PartySet {
        PartySet {
            bits: self.bits & !other.bits,
        }
    }

    /// Complement within the universe `{0, .., n-1}`.
    pub fn complement(&self, n: usize) -> PartySet {
        Self::full(n).difference(self)
    }

    /// Tests whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &PartySet) -> bool {
        self.bits & !other.bits == 0
    }

    /// Tests whether the sets are disjoint.
    pub fn is_disjoint(&self, other: &PartySet) -> bool {
        self.bits & other.bits == 0
    }

    /// Iterates over members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = PartyId> + '_ {
        let bits = self.bits;
        (0..MAX_PARTIES).filter(move |p| (bits >> p) & 1 == 1)
    }

    /// Raw bitmask accessor (for hashing/serialization).
    pub fn bits(&self) -> u128 {
        self.bits
    }

    /// Reconstructs a set from a raw bitmask (inverse of
    /// [`bits`](Self::bits)).
    pub fn from_bits(bits: u128) -> Self {
        PartySet { bits }
    }
}

impl FromIterator<PartyId> for PartySet {
    fn from_iter<I: IntoIterator<Item = PartyId>>(iter: I) -> Self {
        let mut s = PartySet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl Extend<PartyId> for PartySet {
    fn extend<I: IntoIterator<Item = PartyId>>(&mut self, iter: I) {
        for p in iter {
            self.insert(p);
        }
    }
}

impl core::fmt::Debug for PartySet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for p in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl core::fmt::Display for PartySet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:?}", self)
    }
}

/// Enumerates all subsets of `{0..n-1}` of size exactly `k`.
///
/// Intended for test/bench enumeration of small structures; the count is
/// `C(n, k)`.
pub fn subsets_of_size(n: usize, k: usize) -> Vec<PartySet> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    fn recurse(
        start: usize,
        n: usize,
        k: usize,
        current: &mut Vec<PartyId>,
        out: &mut Vec<PartySet>,
    ) {
        if current.len() == k {
            out.push(current.iter().copied().collect());
            return;
        }
        for p in start..n {
            if n - p < k - current.len() {
                break;
            }
            current.push(p);
            recurse(p + 1, n, k, current, out);
            current.pop();
        }
    }
    recurse(0, n, k, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_membership() {
        let mut s = PartySet::new();
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(!s.contains(2));
        assert_eq!(s.len(), 1);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(s.is_empty());
    }

    #[test]
    fn full_and_complement() {
        let full = PartySet::full(5);
        assert_eq!(full.len(), 5);
        let s: PartySet = [0, 2].into_iter().collect();
        let c = s.complement(5);
        assert_eq!(c, [1, 3, 4].into_iter().collect());
        assert_eq!(s.union(&c), full);
        assert!(s.is_disjoint(&c));
    }

    #[test]
    fn full_at_max_width() {
        let full = PartySet::full(128);
        assert_eq!(full.len(), 128);
        assert!(full.contains(127));
    }

    #[test]
    fn set_algebra() {
        let a: PartySet = [0, 1, 2].into_iter().collect();
        let b: PartySet = [2, 3].into_iter().collect();
        assert_eq!(a.union(&b), [0, 1, 2, 3].into_iter().collect());
        assert_eq!(a.intersection(&b), PartySet::singleton(2));
        assert_eq!(a.difference(&b), [0, 1].into_iter().collect());
        assert!(PartySet::singleton(2).is_subset_of(&a));
        assert!(!a.is_subset_of(&b));
        assert!(a.is_subset_of(&a));
        assert!(PartySet::EMPTY.is_subset_of(&b));
    }

    #[test]
    fn iteration_order() {
        let s: PartySet = [5, 1, 9].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_party_panics() {
        PartySet::singleton(128);
    }

    #[test]
    fn subsets_of_size_counts() {
        assert_eq!(subsets_of_size(4, 2).len(), 6);
        assert_eq!(subsets_of_size(5, 0).len(), 1);
        assert_eq!(subsets_of_size(5, 5).len(), 1);
        assert_eq!(subsets_of_size(9, 2).len(), 36);
        // All returned sets have the right size and are distinct.
        let sets = subsets_of_size(6, 3);
        assert_eq!(sets.len(), 20);
        assert!(sets.iter().all(|s| s.len() == 3));
        let unique: std::collections::HashSet<_> = sets.iter().collect();
        assert_eq!(unique.len(), 20);
    }
}
