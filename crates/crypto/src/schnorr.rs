//! Plain Schnorr signatures for per-server message authentication.
//!
//! The paper's model assumes authenticated point-to-point links,
//! bootstrapped from the trusted dealer / an external PKI. The dealer in
//! this implementation provisions every server (and client) with a
//! Schnorr key pair; protocol messages that must be attributable — the
//! signed proposals inside atomic broadcast, client requests, service
//! replies — carry these signatures. They are also the building block of
//! the aggregate threshold-signature scheme in [`crate::tsig`].

use crate::field::Scalar;
use crate::group::GroupElement;
use crate::hash::Hasher;
use crate::rng::SeededRng;

/// A Schnorr signing key (secret scalar plus cached public key).
#[derive(Clone, Debug)]
pub struct SigningKey {
    secret: Scalar,
    public: PublicKey,
}

/// A Schnorr public verification key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PublicKey(GroupElement);

/// A Schnorr signature in commitment/response form (`R = g^w`, `z`).
///
/// The commitment form (rather than challenge/response) is what makes
/// random-linear-combination *batch* verification possible: the verifier
/// can check `g^z = R · pk^c` as a group equation without recomputing
/// `R` inside the challenge hash, so many such equations can be folded
/// into one multi-exponentiation (see [`crate::tsig::AggregateScheme::verify_shares`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    pub(crate) commitment: GroupElement,
    pub(crate) response: Scalar,
}

impl SigningKey {
    /// Generates a fresh key pair.
    ///
    /// # Examples
    ///
    /// ```
    /// use sintra_crypto::schnorr::SigningKey;
    /// use sintra_crypto::rng::SeededRng;
    ///
    /// let mut rng = SeededRng::new(1);
    /// let key = SigningKey::generate(&mut rng);
    /// let sig = key.sign(b"msg", &mut rng);
    /// assert!(key.public_key().verify(b"msg", &sig));
    /// ```
    pub fn generate(rng: &mut SeededRng) -> Self {
        let secret = rng.next_nonzero_scalar();
        let public = PublicKey(GroupElement::generator().exp(&secret));
        SigningKey { secret, public }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8], rng: &mut SeededRng) -> Signature {
        let w = rng.next_nonzero_scalar();
        let commitment = GroupElement::generator().exp(&w);
        let challenge = challenge(&self.public, &commitment, message);
        Signature {
            commitment,
            response: w + challenge * self.secret,
        }
    }
}

impl PublicKey {
    /// Verifies a signature over `message`: `g^z == R · pk^c`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let c = challenge(self, &sig.commitment, message);
        let lhs = GroupElement::generator().exp(&sig.response);
        lhs == sig.commitment.mul(&self.0.exp(&c))
    }

    /// The underlying group element (for batch verification).
    pub(crate) fn element(&self) -> &GroupElement {
        &self.0
    }

    /// Serializes to 32 bytes.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0.to_bytes()
    }

    /// Parses and validates 32 bytes.
    ///
    /// # Errors
    ///
    /// Returns `None` if the bytes are not a valid group element.
    pub fn from_bytes(bytes: &[u8; 32]) -> Option<Self> {
        GroupElement::from_bytes(bytes).map(PublicKey)
    }
}

impl Signature {
    /// A structurally valid signature that verifies nothing — for
    /// initializing struct fields that are overwritten before use.
    pub fn placeholder() -> Self {
        Signature {
            commitment: GroupElement::identity(),
            response: Scalar::ZERO,
        }
    }

    /// Serialized size in bytes (always 64; mirrors the `size_bytes`
    /// accessors on the threshold objects so wire-size accounting can
    /// ask any crypto payload uniformly).
    pub fn size_bytes(&self) -> usize {
        64
    }

    /// Serializes as 64 bytes (commitment ‖ response, big-endian).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.commitment.to_bytes());
        out[32..].copy_from_slice(&self.response.to_be_bytes());
        out
    }

    /// Parses 64 bytes produced by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns `None` if the commitment bytes are not a canonical
    /// subgroup element.
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<Self> {
        let mut r = [0u8; 32];
        let mut z = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        z.copy_from_slice(&bytes[32..]);
        Some(Signature {
            commitment: GroupElement::from_bytes(&r)?,
            response: Scalar::from_be_bytes(&z),
        })
    }
}

pub(crate) fn challenge(pk: &PublicKey, commitment: &GroupElement, message: &[u8]) -> Scalar {
    challenge_suffix(&challenge_prefix(message), pk, commitment)
}

/// Hash midstate over the message, the part of the challenge preimage a
/// whole quorum of signature shares has in common. Batch verification
/// absorbs it once and replays the midstate per share.
pub(crate) fn challenge_prefix(message: &[u8]) -> Hasher {
    Hasher::new("sintra/schnorr").field(message)
}

pub(crate) fn challenge_suffix(
    prefix: &Hasher,
    pk: &PublicKey,
    commitment: &GroupElement,
) -> Scalar {
    // One contiguous absorb of the two 32-byte elements.
    let mut buf = [0u8; 64];
    buf[..32].copy_from_slice(&pk.to_bytes());
    buf[32..].copy_from_slice(&commitment.to_bytes());
    prefix.clone().fixed(&buf).finish_scalar()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = SeededRng::new(1);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"hello", &mut rng);
        assert!(key.public_key().verify(b"hello", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut rng = SeededRng::new(2);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"hello", &mut rng);
        assert!(!key.public_key().verify(b"world", &sig));
        assert!(!key.public_key().verify(b"", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = SeededRng::new(3);
        let key1 = SigningKey::generate(&mut rng);
        let key2 = SigningKey::generate(&mut rng);
        let sig = key1.sign(b"hello", &mut rng);
        assert!(!key2.public_key().verify(b"hello", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let mut rng = SeededRng::new(4);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"hello", &mut rng);
        let bad = Signature {
            commitment: sig.commitment,
            response: sig.response + Scalar::ONE,
        };
        assert!(!key.public_key().verify(b"hello", &bad));
        let bad = Signature {
            commitment: sig.commitment.mul(&GroupElement::generator()),
            response: sig.response,
        };
        assert!(!key.public_key().verify(b"hello", &bad));
    }

    #[test]
    fn signature_byte_roundtrip() {
        let mut rng = SeededRng::new(7);
        let key = SigningKey::generate(&mut rng);
        let sig = key.sign(b"bytes", &mut rng);
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
        assert!(key.public_key().verify(b"bytes", &parsed));
        // A non-canonical commitment encoding must be rejected.
        assert!(Signature::from_bytes(&[0xff; 64]).is_none());
    }

    #[test]
    fn public_key_byte_roundtrip() {
        let mut rng = SeededRng::new(5);
        let key = SigningKey::generate(&mut rng);
        let pk = key.public_key();
        assert_eq!(PublicKey::from_bytes(&pk.to_bytes()), Some(pk));
        assert_eq!(PublicKey::from_bytes(&[0xff; 32]), None);
    }

    #[test]
    fn signatures_are_randomized_but_both_valid() {
        let mut rng = SeededRng::new(6);
        let key = SigningKey::generate(&mut rng);
        let s1 = key.sign(b"m", &mut rng);
        let s2 = key.sign(b"m", &mut rng);
        assert_ne!(s1, s2);
        assert!(key.public_key().verify(b"m", &s1));
        assert!(key.public_key().verify(b"m", &s2));
    }
}
