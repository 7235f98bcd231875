//! SRA / Pohlig–Hellman commutative encryption over the quadratic residues
//! of a safe prime.
//!
//! This is the commutative encryption function of the paper's Section 4
//! (following Agrawal et al.): `f_e(x) = x^e mod p` on the subgroup
//! `QR_p` of prime order `q`, with `gcd(e, q) = 1`.  Exponentiation maps
//! commute — `f_e1(f_e2(x)) = f_e2(f_e1(x)) = x^(e1*e2)` — which is exactly
//! the property the mediator exploits to match join values without seeing
//! them.  The required properties:
//!
//! 1. **Commutativity** — shown above.
//! 2. **Bijectivity** — `e` invertible mod the group order `q`.
//! 3. **Invertibility** — decryption exponent `d = e^{-1} mod q`.
//! 4. **Secrecy** — DDH in `QR_p`; inputs are first hashed into the group
//!    by [`SafePrimeGroup::hash_to_group`] (the paper's ideal hash `h`).

use mpint::numtheory::{gcd, modinv};
use mpint::random::random_below;
use mpint::rng::Rng;
use mpint::Natural;

use crate::group::SafePrimeGroup;
use crate::metrics::{count, Op};
use crate::CryptoError;

/// The shared domain of a commutative-encryption deployment: the group plus
/// the ideal hash.  Both datasources must agree on this (paper: "We assume
/// that both datasources use the same ideal hash function h").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SraDomain {
    group: SafePrimeGroup,
}

/// One party's commutative cipher: a secret exponent `e` and its inverse.
///
/// ```
/// use secmed_crypto::drbg::HmacDrbg;
/// use secmed_crypto::group::{GroupSize, SafePrimeGroup};
/// use secmed_crypto::{SraCipher, SraDomain};
///
/// let mut rng = HmacDrbg::from_label("doc");
/// let domain = SraDomain::new(SafePrimeGroup::preset(GroupSize::S256));
/// let s1 = SraCipher::generate(domain.clone(), &mut rng);
/// let s2 = SraCipher::generate(domain.clone(), &mut rng);
/// let h = domain.hash(b"join-value");
/// // f_e1 ∘ f_e2 = f_e2 ∘ f_e1 — the property the mediator matches on.
/// assert_eq!(s1.encrypt(&s2.encrypt(&h)), s2.encrypt(&s1.encrypt(&h)));
/// ```
#[derive(Clone)]
pub struct SraCipher {
    domain: SraDomain,
    e: Natural,
    d: Natural,
}

impl SraDomain {
    /// Wraps a safe-prime group as an SRA domain.
    pub fn new(group: SafePrimeGroup) -> Self {
        SraDomain { group }
    }

    /// The underlying group.
    pub fn group(&self) -> &SafePrimeGroup {
        &self.group
    }

    /// The paper's ideal hash `h`: byte string → quadratic residue.
    pub fn hash(&self, data: &[u8]) -> Natural {
        self.group.hash_to_group(data)
    }
}

impl SraCipher {
    /// Draws a fresh secret key `e` with `gcd(e, q) = 1`.
    pub fn generate(domain: SraDomain, rng: &mut dyn Rng) -> Self {
        let q = domain.group.q();
        loop {
            let e = random_below(rng, q);
            // lint:allow(secret-flow) -- keygen rejection sampling: the
            // candidate is discarded (never used) when the branch rejects it.
            if e.is_zero() || e.is_one() {
                continue;
            }
            // lint:allow(secret-flow) -- same rejection-sampling loop;
            // a rejected candidate leaks nothing about the key actually kept.
            if !gcd(&e, q).is_one() {
                continue;
            }
            let Ok(d) = modinv(&e, q) else { continue };
            return SraCipher { domain, e, d };
        }
    }

    /// Builds a cipher from an explicit exponent (used by tests and by
    /// deterministic re-runs).
    pub fn from_exponent(domain: SraDomain, e: Natural) -> Result<Self, CryptoError> {
        let q = domain.group.q();
        let d = modinv(&e, q)
            .map_err(|_| CryptoError::InvalidKey("exponent not coprime to group order"))?;
        Ok(SraCipher { domain, e, d })
    }

    /// The shared domain.
    pub fn domain(&self) -> &SraDomain {
        &self.domain
    }

    /// `f_e(x) = x^e mod p`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `x` is a subgroup element; commutativity only
    /// holds inside `QR_p`.
    pub fn encrypt(&self, x: &Natural) -> Natural {
        count(Op::CommutativeEncrypt);
        debug_assert!(
            self.domain.group.is_subgroup_element(x),
            "SRA input outside QR_p"
        );
        self.domain.group.pow(x, &self.e)
    }

    /// `f_e^{-1}(y) = y^d mod p`.
    pub fn decrypt(&self, y: &Natural) -> Natural {
        count(Op::CommutativeDecrypt);
        self.domain.group.pow(y, &self.d)
    }

    /// Convenience: hash a byte string into the group, then encrypt —
    /// the `f_ei(h(a))` step of the protocol.
    pub fn encrypt_value(&self, value: &[u8]) -> Natural {
        let h = self.domain.hash(value);
        self.encrypt(&h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use crate::group::GroupSize;

    fn setup() -> (SraDomain, HmacDrbg) {
        let rng = HmacDrbg::from_label("sra-tests");
        let domain = SraDomain::new(SafePrimeGroup::preset(GroupSize::S256));
        (domain, rng)
    }

    #[test]
    fn commutativity() {
        let (domain, mut rng) = setup();
        let s1 = SraCipher::generate(domain.clone(), &mut rng);
        let s2 = SraCipher::generate(domain.clone(), &mut rng);
        let x = domain.hash(b"join-value-42");
        let a = s1.encrypt(&s2.encrypt(&x));
        let b = s2.encrypt(&s1.encrypt(&x));
        assert_eq!(a, b);
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let (domain, mut rng) = setup();
        let s = SraCipher::generate(domain.clone(), &mut rng);
        let x = domain.hash(b"value");
        assert_eq!(s.decrypt(&s.encrypt(&x)), x);
    }

    #[test]
    fn double_encryption_peels_in_any_order() {
        let (domain, mut rng) = setup();
        let s1 = SraCipher::generate(domain.clone(), &mut rng);
        let s2 = SraCipher::generate(domain.clone(), &mut rng);
        let x = domain.hash(b"value");
        let both = s1.encrypt(&s2.encrypt(&x));
        assert_eq!(s2.decrypt(&s1.decrypt(&both)), x);
        assert_eq!(s1.decrypt(&s2.decrypt(&both)), x);
    }

    #[test]
    fn equal_values_collide_distinct_values_do_not() {
        let (domain, mut rng) = setup();
        let s1 = SraCipher::generate(domain.clone(), &mut rng);
        let s2 = SraCipher::generate(domain.clone(), &mut rng);
        // The mediator's matching rule: double encryptions are equal iff the
        // underlying values are equal.
        let e_a_12 = s1.encrypt(&s2.encrypt_value(b"alice"));
        let e_a_21 = s2.encrypt(&s1.encrypt_value(b"alice"));
        let e_b_12 = s1.encrypt(&s2.encrypt_value(b"bob"));
        assert_eq!(e_a_12, e_a_21);
        assert_ne!(e_a_12, e_b_12);
    }

    #[test]
    fn single_encryption_hides_value() {
        let (domain, mut rng) = setup();
        let s = SraCipher::generate(domain.clone(), &mut rng);
        let x = domain.hash(b"value");
        assert_ne!(s.encrypt(&x), x);
    }

    #[test]
    fn from_exponent_validates_coprimality() {
        let (domain, _) = setup();
        let q = domain.group().q().clone();
        assert!(SraCipher::from_exponent(domain.clone(), q).is_err());
        assert!(SraCipher::from_exponent(domain.clone(), Natural::zero()).is_err());
        assert!(SraCipher::from_exponent(domain.clone(), Natural::from(3u64)).is_ok());
    }

    #[test]
    fn encryption_stays_in_subgroup() {
        let (domain, mut rng) = setup();
        let s = SraCipher::generate(domain.clone(), &mut rng);
        let y = s.encrypt_value(b"x");
        assert!(domain.group().is_subgroup_element(&y));
    }
}
