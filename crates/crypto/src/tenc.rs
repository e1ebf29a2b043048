//! Labelled threshold public-key encryption (Shoup-Gennaro TDH2).
//!
//! Secure causal atomic broadcast (§3, §5.2) needs a threshold
//! cryptosystem secure against **adaptive chosen-ciphertext attacks**: a
//! corrupted server seeing an encrypted client request in transit must
//! not be able to submit any *related* request of its own — otherwise a
//! notary could be front-run. TDH2 achieves this in the random-oracle
//! model by attaching a simulation-sound zero-knowledge proof of
//! well-formedness to every ciphertext; servers release decryption
//! shares only for ciphertexts whose proof verifies, and each share
//! carries its own Chaum-Pedersen validity proof for robust combining.
//!
//! The scheme here is TDH2 over the repository's 256-bit Schnorr group,
//! with the KEM output expanded into a DEM keystream, and the secret key
//! shared by the generic LSSS so generalized adversary structures work
//! unchanged.

use crate::dleq::DleqProof;
use crate::field::Scalar;
use crate::group::GroupElement;
use crate::hash::{xor_keystream, Hasher};
use crate::lsss::{LeafId, SharingScheme};
use crate::rng::SeededRng;
use sintra_adversary::party::{PartyId, PartySet};
use std::collections::BTreeMap;

const DEM_DOMAIN: &str = "sintra/tenc/dem";
const SHARE_DOMAIN: &str = "sintra/tenc/share";

/// Public side of the threshold cryptosystem.
#[derive(Clone, Debug)]
pub struct EncryptionScheme {
    scheme: SharingScheme,
    public_key: GroupElement,
    verification: Vec<GroupElement>,
}

/// A party's decryption key share components.
#[derive(Clone, Debug)]
pub struct DecryptionSecretKey {
    party: PartyId,
    components: Vec<(LeafId, Scalar)>,
}

/// A TDH2 ciphertext with label and well-formedness proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext {
    data: Vec<u8>,
    label: Vec<u8>,
    u: GroupElement,
    u_bar: GroupElement,
    e: Scalar,
    f: Scalar,
}

impl Ciphertext {
    /// The public label bound into the ciphertext.
    pub fn label(&self) -> &[u8] {
        &self.label
    }

    /// Ciphertext body length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the encrypted payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Serialized size in bytes (matches [`to_bytes`](Self::to_bytes)).
    pub fn size_bytes(&self) -> usize {
        8 + self.data.len() + self.label.len() + 128
    }

    /// Serializes the ciphertext to bytes (for embedding in broadcast
    /// payloads).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.data.len() + self.label.len() + 144);
        out.extend_from_slice(&(self.data.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.data);
        out.extend_from_slice(&(self.label.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.label);
        out.extend_from_slice(&self.u.to_bytes());
        out.extend_from_slice(&self.u_bar.to_bytes());
        out.extend_from_slice(&self.e.to_be_bytes());
        out.extend_from_slice(&self.f.to_be_bytes());
        out
    }

    /// Parses bytes produced by [`to_bytes`](Self::to_bytes), validating
    /// the group elements.
    ///
    /// # Errors
    ///
    /// Returns `None` on malformed input or non-subgroup elements.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut rest = bytes;
        let take = |rest: &mut &[u8], n: usize| -> Option<Vec<u8>> {
            if rest.len() < n {
                return None;
            }
            let (head, tail) = rest.split_at(n);
            *rest = tail;
            Some(head.to_vec())
        };
        let dlen = u32::from_be_bytes(take(&mut rest, 4)?.try_into().ok()?) as usize;
        if dlen > 1 << 24 {
            return None;
        }
        let data = take(&mut rest, dlen)?;
        let llen = u32::from_be_bytes(take(&mut rest, 4)?.try_into().ok()?) as usize;
        if llen > 1 << 16 {
            return None;
        }
        let label = take(&mut rest, llen)?;
        let u = GroupElement::from_bytes(&take(&mut rest, 32)?.try_into().ok()?)?;
        let u_bar = GroupElement::from_bytes(&take(&mut rest, 32)?.try_into().ok()?)?;
        let e = Scalar::from_be_bytes(&take(&mut rest, 32)?.try_into().ok()?);
        let f = Scalar::from_be_bytes(&take(&mut rest, 32)?.try_into().ok()?);
        if !rest.is_empty() {
            return None;
        }
        Some(Ciphertext {
            data,
            label,
            u,
            u_bar,
            e,
            f,
        })
    }

    /// A collision-resistant identifier for this ciphertext (used to bind
    /// decryption shares to it).
    pub fn digest(&self) -> [u8; 32] {
        Hasher::new("sintra/tenc/ct")
            .field(&self.data)
            .field(&self.label)
            .field(&self.u.to_bytes())
            .field(&self.u_bar.to_bytes())
            .field(&self.e.to_be_bytes())
            .field(&self.f.to_be_bytes())
            .finish()
    }
}

/// One party's decryption share with validity proofs.
#[derive(Clone, Debug, PartialEq)]
pub struct DecryptionShare {
    party: PartyId,
    ciphertext_digest: [u8; 32],
    elements: Vec<(LeafId, GroupElement, DleqProof)>,
}

impl DecryptionShare {
    /// The issuing party.
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// Serialized size in bytes: party id (u32), ciphertext digest
    /// (32 B), component count (u32), plus per-component leaf id (u32),
    /// group element (32 B), and proof (96 B). Matches the length of
    /// [`to_bytes`](Self::to_bytes) exactly.
    pub fn size_bytes(&self) -> usize {
        4 + 32 + 4 + self.elements.len() * (4 + 32 + 96)
    }

    /// Canonical byte encoding: `party (u32 BE) ‖ digest (32 B) ‖
    /// count (u32 BE) ‖ (leaf u32 BE ‖ element 32 B ‖ proof 96 B)*`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes());
        out.extend_from_slice(&(self.party as u32).to_be_bytes());
        out.extend_from_slice(&self.ciphertext_digest);
        out.extend_from_slice(&(self.elements.len() as u32).to_be_bytes());
        for (leaf, element, proof) in &self.elements {
            out.extend_from_slice(&(*leaf as u32).to_be_bytes());
            out.extend_from_slice(&element.to_bytes());
            out.extend_from_slice(&proof.to_bytes());
        }
        out
    }

    /// Parses bytes produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns `None` on malformed input: wrong length for the declared
    /// component count, or a non-canonical group element or proof
    /// commitment in any component.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 40 {
            return None;
        }
        let party = u32::from_be_bytes(bytes[..4].try_into().ok()?) as PartyId;
        let ciphertext_digest: [u8; 32] = bytes[4..36].try_into().ok()?;
        let count = u32::from_be_bytes(bytes[36..40].try_into().ok()?) as usize;
        let rest = &bytes[40..];
        if rest.len() != count * (4 + 32 + 96) {
            return None;
        }
        let elements = rest
            .chunks_exact(4 + 32 + 96)
            .map(|chunk| {
                let leaf = u32::from_be_bytes(chunk[..4].try_into().ok()?) as LeafId;
                let element = GroupElement::from_bytes(&chunk[4..36].try_into().ok()?)?;
                let proof = DleqProof::from_bytes(&chunk[36..].try_into().ok()?)?;
                Some((leaf, element, proof))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(DecryptionShare {
            party,
            ciphertext_digest,
            elements,
        })
    }
}

/// Errors from decryption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecryptError {
    /// The ciphertext's well-formedness proof is invalid.
    InvalidCiphertext,
    /// The valid shares do not come from a qualified set.
    InsufficientShares,
}

impl core::fmt::Display for DecryptError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecryptError::InvalidCiphertext => {
                write!(f, "ciphertext well-formedness proof invalid")
            }
            DecryptError::InsufficientShares => {
                write!(f, "decryption shares not from a qualified set")
            }
        }
    }
}

impl std::error::Error for DecryptError {}

impl EncryptionScheme {
    pub(crate) fn from_parts(
        scheme: SharingScheme,
        public_key: GroupElement,
        verification: Vec<GroupElement>,
    ) -> Self {
        EncryptionScheme {
            scheme,
            public_key,
            verification,
        }
    }

    /// The combined public key `h = g^x`.
    pub fn public_key(&self) -> &GroupElement {
        &self.public_key
    }

    /// The underlying sharing scheme.
    pub fn sharing_scheme(&self) -> &SharingScheme {
        &self.scheme
    }

    /// Applies a proactive refresh vector to the per-leaf verification
    /// keys (the combined public key is unchanged: the deltas share 0).
    pub(crate) fn apply_refresh(&mut self, deltas: &[Scalar]) {
        let g = GroupElement::generator();
        for (leaf, vk) in self.verification.iter_mut().enumerate() {
            *vk = vk.mul(&g.exp(&deltas[leaf]));
        }
    }

    /// Encrypts `message` under `label`.
    ///
    /// Anyone holding the public parameters can encrypt; the label is
    /// authenticated but not hidden.
    pub fn encrypt(&self, message: &[u8], label: &[u8], rng: &mut SeededRng) -> Ciphertext {
        let g = GroupElement::generator();
        let g_bar = second_generator();
        let r = rng.next_nonzero_scalar();
        let s = rng.next_nonzero_scalar();
        let seed = self.public_key.exp(&r).to_bytes();
        let data = xor_keystream(DEM_DOMAIN, &seed, message);
        let u = g.exp(&r);
        let u_bar = g_bar.exp(&r);
        let w = g.exp(&s);
        let w_bar = g_bar.exp(&s);
        let e = proof_challenge(&data, label, &u, &w, &u_bar, &w_bar);
        let f = s + r * e;
        Ciphertext {
            data,
            label: label.to_vec(),
            u,
            u_bar,
            e,
            f,
        }
    }

    /// Checks the ciphertext's well-formedness proof. Servers must call
    /// this before releasing a decryption share — it is the CCA guard.
    pub fn verify_ciphertext(&self, ct: &Ciphertext) -> bool {
        let g = GroupElement::generator();
        let g_bar = second_generator();
        let neg_e = -ct.e;
        let w = g.exp2(&ct.f, &ct.u, &neg_e);
        let w_bar = g_bar.exp2(&ct.f, &ct.u_bar, &neg_e);
        proof_challenge(&ct.data, &ct.label, &ct.u, &w, &ct.u_bar, &w_bar) == ct.e
    }

    /// Structural checks shared by the verification paths: the share is
    /// bound to `ct`, names an in-range party, and lists exactly that
    /// party's leaves in layout order.
    fn share_layout_ok(&self, ct: &Ciphertext, share: &DecryptionShare) -> bool {
        if share.ciphertext_digest != ct.digest() || share.party >= self.scheme.n() {
            return false;
        }
        let expected = self.scheme.leaves_by_party(share.party);
        share.elements.len() == expected.len()
            && share
                .elements
                .iter()
                .zip(expected)
                .all(|((leaf, _, _), expected_leaf)| leaf == expected_leaf)
    }

    /// Verifies one decryption share against a ciphertext.
    ///
    /// Every leaf proof of the share is checked against the same base
    /// pair `(g, u)`, so the Fiat-Shamir midstate over the domain and
    /// bases is absorbed once for the whole share and replayed per
    /// leaf.
    pub fn verify_share(&self, ct: &Ciphertext, share: &DecryptionShare) -> bool {
        if !self.share_layout_ok(ct, share) {
            return false;
        }
        let g = GroupElement::generator();
        let prefix = DleqProof::challenge_midstate(SHARE_DOMAIN, &g, &ct.u);
        share.elements.iter().all(|(leaf, element, proof)| {
            proof.verify_midstate(&prefix, &g, &self.verification[*leaf], &ct.u, element)
        })
    }

    /// Verifies a whole quorum of decryption shares at once.
    ///
    /// All share-validity proofs (Chaum-Pedersen over the common base
    /// pair `(g, u)`) are folded into a single random-linear-combination
    /// multi-exponentiation via [`crate::dleq::batch_verify`]. On batch
    /// failure the shares are re-checked individually so blame lands
    /// exactly on the senders of invalid shares.
    ///
    /// # Errors
    ///
    /// Returns the sorted, deduplicated parties whose shares failed.
    pub fn verify_shares(
        &self,
        ct: &Ciphertext,
        shares: &[DecryptionShare],
        rng: &mut SeededRng,
    ) -> Result<(), Vec<PartyId>> {
        let mut culprits: Vec<PartyId> = Vec::new();
        let mut statements = Vec::new();
        let mut batched: Vec<&DecryptionShare> = Vec::new();
        for share in shares {
            if !self.share_layout_ok(ct, share) {
                culprits.push(share.party);
                continue;
            }
            for (leaf, element, proof) in &share.elements {
                statements.push((self.verification[*leaf], *element, *proof));
            }
            batched.push(share);
        }
        let g = GroupElement::generator();
        if !crate::dleq::batch_verify(SHARE_DOMAIN, &g, &ct.u, &statements, rng) {
            sintra_obs::global::crypto_share_fallback(batched.len() as u64);
            culprits.extend(
                batched
                    .iter()
                    .filter(|share| !self.verify_share(ct, share))
                    .map(|share| share.party),
            );
        }
        if culprits.is_empty() {
            Ok(())
        } else {
            culprits.sort_unstable();
            culprits.dedup();
            Err(culprits)
        }
    }

    /// Combines decryption shares and recovers the plaintext.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext is malformed or the valid shares are not
    /// from a qualified set.
    pub fn combine(
        &self,
        ct: &Ciphertext,
        shares: &[DecryptionShare],
    ) -> Result<Vec<u8>, DecryptError> {
        if !self.verify_ciphertext(ct) {
            return Err(DecryptError::InvalidCiphertext);
        }
        let verified: Vec<DecryptionShare> = shares
            .iter()
            .filter(|share| self.verify_share(ct, share))
            .cloned()
            .collect();
        self.combine_preverified(ct, &verified)
    }

    /// Combines decryption shares whose proofs were already checked
    /// (e.g. via [`verify_shares`](Self::verify_shares)), skipping the
    /// per-share proof re-verification. Structurally malformed shares are
    /// still dropped, so feeding this unverified input can at worst fail
    /// to decrypt — it cannot produce a wrong plaintext for an honestly
    /// formed ciphertext with honest quorum shares.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext is malformed or the shares are not from a
    /// qualified set.
    pub fn combine_preverified(
        &self,
        ct: &Ciphertext,
        shares: &[DecryptionShare],
    ) -> Result<Vec<u8>, DecryptError> {
        if !self.verify_ciphertext(ct) {
            return Err(DecryptError::InvalidCiphertext);
        }
        let mut holders = PartySet::new();
        let mut elements: BTreeMap<LeafId, GroupElement> = BTreeMap::new();
        for share in shares {
            if !self.share_layout_ok(ct, share) {
                continue;
            }
            holders.insert(share.party);
            for (leaf, element, _) in &share.elements {
                elements.insert(*leaf, *element);
            }
        }
        let hr = self
            .scheme
            .reconstruct_in_exponent(&holders, &elements)
            .ok_or(DecryptError::InsufficientShares)?;
        Ok(xor_keystream(DEM_DOMAIN, &hr.to_bytes(), &ct.data))
    }
}

impl DecryptionSecretKey {
    /// The owning party.
    pub fn party(&self) -> PartyId {
        self.party
    }

    /// Applies a proactive refresh vector (a sharing of zero), replacing
    /// this epoch's components.
    pub(crate) fn apply_refresh(&mut self, deltas: &[Scalar]) {
        for (leaf, x) in &mut self.components {
            *x = *x + deltas[*leaf];
        }
    }

    /// Produces this party's decryption share — only for well-formed
    /// ciphertexts (returns `None` otherwise, enforcing the CCA guard).
    pub fn decrypt_share(
        &self,
        scheme: &EncryptionScheme,
        ct: &Ciphertext,
        rng: &mut SeededRng,
    ) -> Option<DecryptionShare> {
        if !scheme.verify_ciphertext(ct) {
            return None;
        }
        let g = GroupElement::generator();
        // All leaf proofs share the base pair `(g, u)`: absorb the
        // Fiat-Shamir prefix once and replay the midstate per leaf.
        let prefix = DleqProof::challenge_midstate(SHARE_DOMAIN, &g, &ct.u);
        let elements = self
            .components
            .iter()
            .map(|(leaf, x)| {
                let vk = g.exp(x);
                let element = ct.u.exp(x);
                let proof = DleqProof::prove_midstate(&prefix, &g, &vk, &ct.u, &element, x, rng);
                (*leaf, element, proof)
            })
            .collect();
        Some(DecryptionShare {
            party: self.party,
            ciphertext_digest: ct.digest(),
            elements,
        })
    }
}

/// The TDH2 second generator `ḡ` (discrete log relative to `g` unknown).
fn second_generator() -> GroupElement {
    GroupElement::hash_to_group("sintra/tenc/gbar", b"g-bar")
}

fn proof_challenge(
    data: &[u8],
    label: &[u8],
    u: &GroupElement,
    w: &GroupElement,
    u_bar: &GroupElement,
    w_bar: &GroupElement,
) -> Scalar {
    Hasher::new("sintra/tenc/challenge")
        .field(data)
        .field(label)
        .field(&u.to_bytes())
        .field(&w.to_bytes())
        .field(&u_bar.to_bytes())
        .field(&w_bar.to_bytes())
        .finish_scalar()
}

/// Dealer-side generation (used by [`crate::dealer`]).
pub(crate) fn deal_tenc(
    scheme: &SharingScheme,
    rng: &mut SeededRng,
) -> (EncryptionScheme, Vec<DecryptionSecretKey>) {
    let secret = rng.next_nonzero_scalar();
    let values = scheme.share(secret, rng);
    let g = GroupElement::generator();
    let public_key = g.exp(&secret);
    let verification: Vec<GroupElement> = values.iter().map(|v| g.exp(v)).collect();
    let keys = (0..scheme.n())
        .map(|party| DecryptionSecretKey {
            party,
            components: scheme
                .leaves_of(party)
                .into_iter()
                .map(|leaf| (leaf, values[leaf]))
                .collect(),
        })
        .collect();
    (
        EncryptionScheme::from_parts(scheme.clone(), public_key, verification),
        keys,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintra_adversary::attributes::example2;
    use sintra_adversary::structure::TrustStructure;

    fn setup(
        n: usize,
        t: usize,
        seed: u64,
    ) -> (EncryptionScheme, Vec<DecryptionSecretKey>, SeededRng) {
        let ts = TrustStructure::threshold(n, t).unwrap();
        let scheme = SharingScheme::new(ts.sharing_formula());
        let mut rng = SeededRng::new(seed);
        let (enc, keys) = deal_tenc(&scheme, &mut rng);
        (enc, keys, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (enc, keys, mut rng) = setup(4, 1, 1);
        let ct = enc.encrypt(b"register patent #42", b"client-7", &mut rng);
        assert!(enc.verify_ciphertext(&ct));
        let shares: Vec<DecryptionShare> = keys[..2]
            .iter()
            .map(|k| k.decrypt_share(&enc, &ct, &mut rng).unwrap())
            .collect();
        for s in &shares {
            assert!(enc.verify_share(&ct, s));
        }
        assert_eq!(enc.combine(&ct, &shares).unwrap(), b"register patent #42");
    }

    #[test]
    fn empty_and_large_messages() {
        let (enc, keys, mut rng) = setup(4, 1, 2);
        for msg in [vec![], vec![7u8; 10_000]] {
            let ct = enc.encrypt(&msg, b"", &mut rng);
            let shares: Vec<DecryptionShare> = keys[1..3]
                .iter()
                .map(|k| k.decrypt_share(&enc, &ct, &mut rng).unwrap())
                .collect();
            assert_eq!(enc.combine(&ct, &shares).unwrap(), msg);
        }
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let (enc, keys, mut rng) = setup(4, 1, 3);
        let ct = enc.encrypt(b"secret", b"label", &mut rng);
        // Flip a payload byte: proof breaks.
        let mut bad = ct.clone();
        bad.data[0] ^= 1;
        assert!(!enc.verify_ciphertext(&bad));
        assert!(keys[0].decrypt_share(&enc, &bad, &mut rng).is_none());
        assert_eq!(enc.combine(&bad, &[]), Err(DecryptError::InvalidCiphertext));
        // Change the label: proof also breaks (label is authenticated).
        let mut bad = ct;
        bad.label = b"other".to_vec();
        assert!(!enc.verify_ciphertext(&bad));
    }

    #[test]
    fn share_bound_to_ciphertext() {
        let (enc, keys, mut rng) = setup(4, 1, 4);
        let ct1 = enc.encrypt(b"one", b"l", &mut rng);
        let ct2 = enc.encrypt(b"two", b"l", &mut rng);
        let share = keys[0].decrypt_share(&enc, &ct1, &mut rng).unwrap();
        assert!(enc.verify_share(&ct1, &share));
        assert!(
            !enc.verify_share(&ct2, &share),
            "cross-ciphertext replay rejected"
        );
    }

    #[test]
    fn insufficient_shares_rejected() {
        let (enc, keys, mut rng) = setup(4, 1, 5);
        let ct = enc.encrypt(b"m", b"l", &mut rng);
        let one = keys[0].decrypt_share(&enc, &ct, &mut rng).unwrap();
        assert_eq!(
            enc.combine(&ct, &[one]),
            Err(DecryptError::InsufficientShares)
        );
    }

    #[test]
    fn forged_share_excluded() {
        let (enc, keys, mut rng) = setup(4, 1, 6);
        let ct = enc.encrypt(b"m", b"l", &mut rng);
        let mut forged = keys[0].decrypt_share(&enc, &ct, &mut rng).unwrap();
        forged.elements[0].1 = GroupElement::generator();
        assert!(!enc.verify_share(&ct, &forged));
        let good = keys[1].decrypt_share(&enc, &ct, &mut rng).unwrap();
        assert_eq!(
            enc.combine(&ct, &[forged.clone(), good.clone()]),
            Err(DecryptError::InsufficientShares)
        );
        let good2 = keys[2].decrypt_share(&enc, &ct, &mut rng).unwrap();
        assert_eq!(enc.combine(&ct, &[forged, good, good2]).unwrap(), b"m");
    }

    #[test]
    fn verify_shares_accepts_honest_quorum() {
        let (enc, keys, mut rng) = setup(10, 3, 21);
        let ct = enc.encrypt(b"payload", b"l", &mut rng);
        let shares: Vec<DecryptionShare> = keys[..7]
            .iter()
            .map(|k| k.decrypt_share(&enc, &ct, &mut rng).unwrap())
            .collect();
        assert_eq!(enc.verify_shares(&ct, &shares, &mut rng), Ok(()));
        assert_eq!(enc.combine_preverified(&ct, &shares).unwrap(), b"payload");
    }

    #[test]
    fn verify_shares_attributes_culprits() {
        let (enc, keys, mut rng) = setup(10, 3, 22);
        let ct = enc.encrypt(b"payload", b"l", &mut rng);
        let other = enc.encrypt(b"other", b"l", &mut rng);
        let mut shares: Vec<DecryptionShare> = keys[..8]
            .iter()
            .map(|k| k.decrypt_share(&enc, &ct, &mut rng).unwrap())
            .collect();
        // Party 2: element replaced (proof breaks). Party 5: share for a
        // different ciphertext (structural). Honest parties stay clean.
        shares[2].elements[0].1 = GroupElement::generator();
        shares[5] = keys[5].decrypt_share(&enc, &other, &mut rng).unwrap();
        assert_eq!(enc.verify_shares(&ct, &shares, &mut rng), Err(vec![2, 5]));
    }

    #[test]
    fn combine_preverified_matches_defensive_combine() {
        let (enc, keys, mut rng) = setup(7, 2, 23);
        let ct = enc.encrypt(b"same plaintext", b"l", &mut rng);
        let shares: Vec<DecryptionShare> = keys[..3]
            .iter()
            .map(|k| k.decrypt_share(&enc, &ct, &mut rng).unwrap())
            .collect();
        assert_eq!(
            enc.combine(&ct, &shares).unwrap(),
            enc.combine_preverified(&ct, &shares).unwrap()
        );
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let (enc, _, mut rng) = setup(4, 1, 7);
        let ct1 = enc.encrypt(b"m", b"l", &mut rng);
        let ct2 = enc.encrypt(b"m", b"l", &mut rng);
        assert_ne!(ct1, ct2);
        assert_ne!(ct1.digest(), ct2.digest());
    }

    #[test]
    fn generalized_structure_decryption() {
        let ts = example2().unwrap();
        let scheme = SharingScheme::new(ts.sharing_formula());
        let mut rng = SeededRng::new(8);
        let (enc, keys) = deal_tenc(&scheme, &mut rng);
        let ct = enc.encrypt(b"grid secret", b"", &mut rng);
        // A 2×2 subgrid decrypts: parties 0, 1, 4, 5.
        let shares: Vec<DecryptionShare> = [0usize, 1, 4, 5]
            .iter()
            .map(|p| keys[*p].decrypt_share(&enc, &ct, &mut rng).unwrap())
            .collect();
        assert_eq!(enc.combine(&ct, &shares).unwrap(), b"grid secret");
        // One location + one OS (7 servers) cannot decrypt.
        let corrupted: Vec<DecryptionShare> = [0usize, 1, 2, 3, 6, 10, 14]
            .iter()
            .map(|p| keys[*p].decrypt_share(&enc, &ct, &mut rng).unwrap())
            .collect();
        assert_eq!(
            enc.combine(&ct, &corrupted),
            Err(DecryptError::InsufficientShares)
        );
    }
}
