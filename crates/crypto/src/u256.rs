//! Fixed-width 256-bit unsigned integer arithmetic.
//!
//! All cryptographic values in this crate (field elements, scalars, group
//! element representatives) are 256 bits wide, so instead of a general
//! arbitrary-precision integer we implement a small, fully tested
//! fixed-width type: four 64-bit limbs in little-endian order.
//!
//! The type provides exactly the operations the Montgomery arithmetic in
//! [`crate::field`] needs: carry-propagating addition and subtraction,
//! widening multiplication into eight limbs, comparisons, bit access, and
//! byte/hex conversions.

// Limb arithmetic reads clearest with explicit indices.
#![allow(clippy::needless_range_loop)]

/// A 256-bit unsigned integer stored as four little-endian 64-bit limbs.
///
/// # Examples
///
/// ```
/// use sintra_crypto::u256::U256;
///
/// let a = U256::from_u64(7);
/// let b = U256::from_u64(5);
/// let (sum, carry) = a.overflowing_add(&b);
/// assert_eq!(sum, U256::from_u64(12));
/// assert!(!carry);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct U256 {
    limbs: [u64; 4],
}

impl U256 {
    /// The value zero.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The value one.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256 {
        limbs: [u64::MAX; 4],
    };

    /// Creates a value from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256 { limbs }
    }

    /// Returns the little-endian limbs.
    pub const fn limbs(&self) -> [u64; 4] {
        self.limbs
    }

    /// Creates a value from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Returns `true` if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Returns bit `i` (little-endian bit order), `false` for `i >= 256`.
    pub fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns the position of the highest set bit plus one (0 for zero).
    pub fn bit_len(&self) -> usize {
        for limb in (0..4).rev() {
            if self.limbs[limb] != 0 {
                return limb * 64 + (64 - self.limbs[limb].leading_zeros() as usize);
            }
        }
        0
    }

    /// Adds `other`, returning the wrapped sum and whether a carry out of
    /// the top limb occurred.
    pub fn overflowing_add(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            let (s1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U256 { limbs: out }, carry != 0)
    }

    /// Subtracts `other`, returning the wrapped difference and whether a
    /// borrow out of the top limb occurred.
    pub fn overflowing_sub(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for i in 0..4 {
            let (d1, b1) = self.limbs[i].overflowing_sub(other.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256 { limbs: out }, borrow != 0)
    }

    /// Full 256×256 → 512-bit widening multiplication.
    pub fn widening_mul(&self, other: &U256) -> [u64; 8] {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let t = out[i + j] as u128 + self.limbs[i] as u128 * other.limbs[j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + 4] = carry as u64;
        }
        out
    }

    /// Shifts left by one bit, returning the shifted value and the bit
    /// shifted out of the top.
    pub fn shl1(&self) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            out[i] = (self.limbs[i] << 1) | carry;
            carry = self.limbs[i] >> 63;
        }
        (U256 { limbs: out }, carry != 0)
    }

    /// Shifts right by one bit.
    pub fn shr1(&self) -> U256 {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in (0..4).rev() {
            out[i] = (self.limbs[i] >> 1) | (carry << 63);
            carry = self.limbs[i] & 1;
        }
        U256 { limbs: out }
    }

    /// Parses a big-endian 32-byte array.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut v = 0u64;
            for j in 0..8 {
                v = (v << 8) | bytes[(3 - i) * 8 + j] as u64;
            }
            *limb = v;
        }
        U256 { limbs }
    }

    /// Serializes to a big-endian 32-byte array.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[(3 - i) * 8..(3 - i) * 8 + 8].copy_from_slice(&self.limbs[i].to_be_bytes());
        }
        out
    }

    /// Parses a hexadecimal string (no `0x` prefix required, at most 64
    /// hex digits).
    ///
    /// # Errors
    ///
    /// Returns `None` if the string is empty, too long, or contains a
    /// non-hex character.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() || s.len() > 64 {
            return None;
        }
        let mut bytes = [0u8; 32];
        let padded = format!("{:0>64}", s);
        for i in 0..32 {
            bytes[i] = u8::from_str_radix(&padded[2 * i..2 * i + 2], 16).ok()?;
        }
        Some(Self::from_be_bytes(&bytes))
    }

    /// Reduces a 512-bit value (little-endian limbs) modulo `m` by binary
    /// long division. Slow; used only during testing and setup.
    pub fn reduce_wide(wide: &[u64; 8], m: &U256) -> U256 {
        assert!(!m.is_zero(), "modulus must be nonzero");
        let mut rem = U256::ZERO;
        for bit in (0..512).rev() {
            let (shifted, carry) = rem.shl1();
            rem = shifted;
            let in_bit = (wide[bit / 64] >> (bit % 64)) & 1 == 1;
            if in_bit {
                rem.limbs[0] |= 1;
            }
            if carry || rem >= *m {
                let (d, _) = rem.overflowing_sub(m);
                rem = d;
            }
        }
        rem
    }

    /// Computes `self mod m` (slow path; used at setup and in tests).
    pub fn reduce(&self, m: &U256) -> U256 {
        let mut wide = [0u64; 8];
        wide[..4].copy_from_slice(&self.limbs);
        Self::reduce_wide(&wide, m)
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                core::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        core::cmp::Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl core::fmt::Debug for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "U256(0x")?;
        for b in self.to_be_bytes() {
            write!(f, "{:02x}", b)?;
        }
        write!(f, ")")
    }
}

impl core::fmt::Display for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "0x")?;
        for b in self.to_be_bytes() {
            write!(f, "{:02x}", b)?;
        }
        Ok(())
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl Default for U256 {
    fn default() -> Self {
        U256::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(U256::ZERO.is_zero());
        assert!(!U256::ONE.is_zero());
        assert!(U256::ONE.is_odd());
        assert!(!U256::ZERO.is_odd());
        assert_eq!(U256::default(), U256::ZERO);
    }

    #[test]
    fn add_with_carry() {
        let (v, c) = U256::MAX.overflowing_add(&U256::ONE);
        assert!(c);
        assert!(v.is_zero());
        let (v, c) = U256::from_u64(u64::MAX).overflowing_add(&U256::ONE);
        assert!(!c);
        assert_eq!(v.limbs(), [0, 1, 0, 0]);
    }

    #[test]
    fn sub_with_borrow() {
        let (v, b) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert!(b);
        assert_eq!(v, U256::MAX);
        let (v, b) = U256::from_limbs([0, 1, 0, 0]).overflowing_sub(&U256::ONE);
        assert!(!b);
        assert_eq!(v, U256::from_u64(u64::MAX));
    }

    #[test]
    fn mul_small() {
        let a = U256::from_u64(0xffff_ffff_ffff_ffff);
        let wide = a.widening_mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(wide[0], 1);
        assert_eq!(wide[1], 0xffff_ffff_ffff_fffe);
        assert_eq!(&wide[2..], &[0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn mul_max() {
        let wide = U256::MAX.widening_mul(&U256::MAX);
        // (2^256-1)^2 = 2^512 - 2^257 + 1
        assert_eq!(wide[0], 1);
        assert_eq!(wide[1..4], [0, 0, 0]);
        assert_eq!(wide[4], 0xffff_ffff_ffff_fffe);
        assert_eq!(wide[5..8], [u64::MAX; 3]);
    }

    #[test]
    fn byte_roundtrip() {
        let a = U256::from_limbs([1, 2, 3, 4]);
        assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
        let bytes = a.to_be_bytes();
        assert_eq!(bytes[31], 1, "limb 0 LSB lands at the end");
        assert_eq!(bytes[23], 2, "limb 1 LSB");
        assert_eq!(bytes[7], 4, "limb 3 LSB at the high end");
        assert_eq!(bytes[0], 0);
    }

    #[test]
    fn hex_parse() {
        assert_eq!(U256::from_hex("ff"), Some(U256::from_u64(255)));
        assert_eq!(U256::from_hex("0xff"), Some(U256::from_u64(255)));
        assert_eq!(U256::from_hex(""), None);
        assert_eq!(U256::from_hex("zz"), None);
        let max64 = "f".repeat(64);
        assert_eq!(U256::from_hex(&max64), Some(U256::MAX));
        let too_long = "f".repeat(65);
        assert_eq!(U256::from_hex(&too_long), None);
    }

    #[test]
    fn ordering() {
        assert!(U256::ZERO < U256::ONE);
        assert!(
            U256::from_limbs([0, 0, 0, 1]) > U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0])
        );
        assert_eq!(
            U256::from_u64(5).cmp(&U256::from_u64(5)),
            core::cmp::Ordering::Equal
        );
    }

    #[test]
    fn bits() {
        let v = U256::from_limbs([0, 1, 0, 0]);
        assert!(v.bit(64));
        assert!(!v.bit(63));
        assert!(!v.bit(300));
        assert_eq!(v.bit_len(), 65);
        assert_eq!(U256::ZERO.bit_len(), 0);
        assert_eq!(U256::MAX.bit_len(), 256);
    }

    #[test]
    fn shifts() {
        let (v, c) = U256::MAX.shl1();
        assert!(c);
        assert_eq!(v.limbs()[0], u64::MAX - 1);
        assert_eq!(U256::from_u64(4).shr1(), U256::from_u64(2));
        let v = U256::from_limbs([0, 1, 0, 0]).shr1();
        assert_eq!(v, U256::from_u64(1 << 63));
    }

    #[test]
    fn reduce_wide_small() {
        // 2^256 mod 7: 2^256 = (2^3)^85 * 2 so 2^256 mod 7 = (1)^85 * 2 = 2? Check: 2^3 ≡ 1 (mod 7),
        // 256 = 3*85 + 1, so 2^256 ≡ 2.
        let mut wide = [0u64; 8];
        wide[4] = 1; // 2^256
        assert_eq!(
            U256::reduce_wide(&wide, &U256::from_u64(7)),
            U256::from_u64(2)
        );
    }

    #[test]
    fn reduce_identity_below_modulus() {
        let m = U256::from_limbs([123, 456, 789, 0xabc]);
        let v = U256::from_limbs([5, 6, 7, 8]);
        assert_eq!(v.reduce(&m), v);
    }

    #[test]
    fn display_and_debug() {
        let v = U256::from_u64(255);
        let shown = format!("{}", v);
        assert!(shown.starts_with("0x"));
        assert!(shown.ends_with("ff"));
        assert!(!format!("{:?}", v).is_empty());
    }
}
