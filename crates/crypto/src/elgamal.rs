//! ElGamal key encapsulation over a safe-prime group.
//!
//! The hybrid `encrypt(...)` of the paper needs an asymmetric way to move a
//! fresh symmetric session key to the client.  We use "hashed ElGamal" as a
//! KEM: the encapsulator picks `r`, sends `g^r`, and both sides derive the
//! session key as `KDF(pk^r) = KDF(g^(x*r))`.

use mpint::rng::Rng;
use mpint::{FixedBase, Natural};

use crate::group::SafePrimeGroup;
use crate::hmac::kdf;
use crate::metrics::{count, Op};

/// An ElGamal public key `pk = g^x` in a shared group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElGamalPublicKey {
    pub(crate) group: SafePrimeGroup,
    pub(crate) y: Natural,
}

/// The matching secret exponent.
#[derive(Clone)]
pub struct ElGamalKeyPair {
    public: ElGamalPublicKey,
    x: Natural,
}

/// The public part of an encapsulation: `g^r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encapsulation {
    pub(crate) c: Natural,
}

impl ElGamalKeyPair {
    /// Generates a key pair in `group`.
    pub fn generate(group: SafePrimeGroup, rng: &mut dyn Rng) -> Self {
        let x = group.random_exponent(rng);
        let y = group.pow_g(&x);
        ElGamalKeyPair {
            public: ElGamalPublicKey { group, y },
            x,
        }
    }

    /// The public half.
    pub fn public(&self) -> &ElGamalPublicKey {
        &self.public
    }

    /// Recovers the shared secret bytes from an encapsulation.
    pub fn decapsulate(&self, encap: &Encapsulation, key_len: usize) -> Vec<u8> {
        count(Op::KemDecapsulate);
        let shared = self.public.group.pow(&encap.c, &self.x);
        derive_key(&shared, &encap.c, key_len)
    }
}

impl ElGamalPublicKey {
    /// Rebuilds a public key from its group and element, validating
    /// subgroup membership.
    pub fn from_parts(group: SafePrimeGroup, y: Natural) -> Result<Self, crate::CryptoError> {
        if !group.is_subgroup_element(&y) {
            return Err(crate::CryptoError::Malformed("public key outside QR_p"));
        }
        Ok(ElGamalPublicKey { group, y })
    }

    /// The group this key lives in.
    pub fn group(&self) -> &SafePrimeGroup {
        &self.group
    }

    /// The public element `g^x`.
    pub fn element(&self) -> &Natural {
        &self.y
    }

    /// Encapsulates a fresh shared secret; returns the public encapsulation
    /// and `key_len` derived key bytes.
    pub fn encapsulate(&self, key_len: usize, rng: &mut dyn Rng) -> (Encapsulation, Vec<u8>) {
        self.encapsulate_with(None, key_len, rng)
    }

    /// [`ElGamalPublicKey::encapsulate`], taking `y^r` from `y_table`
    /// (a fixed-base table for this key's element) when one is given.
    pub(crate) fn encapsulate_with(
        &self,
        y_table: Option<&FixedBase>,
        key_len: usize,
        rng: &mut dyn Rng,
    ) -> (Encapsulation, Vec<u8>) {
        count(Op::KemEncapsulate);
        let r = self.group.random_exponent(rng);
        let c = self.group.pow_g(&r);
        let shared = match y_table {
            Some(table) => table.pow(&r),
            None => self.group.pow(&self.y, &r),
        };
        let key = derive_key(&shared, &c, key_len);
        (Encapsulation { c }, key)
    }
}

impl Encapsulation {
    /// Serialized size in bytes (one group element).
    pub fn byte_len(&self) -> usize {
        self.c.to_bytes_be().len()
    }

    /// The raw group element (for transport encoding).
    pub fn element(&self) -> &Natural {
        &self.c
    }

    /// Rebuilds from a transported group element.
    pub fn from_element(c: Natural) -> Self {
        Encapsulation { c }
    }
}

fn derive_key(shared: &Natural, c: &Natural, key_len: usize) -> Vec<u8> {
    kdf(
        b"secmed-elgamal-kem",
        &shared.to_bytes_be(),
        &c.to_bytes_be(),
        key_len,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use crate::group::GroupSize;

    fn setup() -> (ElGamalKeyPair, HmacDrbg) {
        let mut rng = HmacDrbg::from_label("elgamal-tests");
        let group = SafePrimeGroup::preset(GroupSize::S256);
        let kp = ElGamalKeyPair::generate(group, &mut rng);
        (kp, rng)
    }

    #[test]
    fn encapsulate_decapsulate_agree() {
        let (kp, mut rng) = setup();
        let (encap, key) = kp.public().encapsulate(32, &mut rng);
        let recovered = kp.decapsulate(&encap, 32);
        assert_eq!(key, recovered);
        assert_eq!(key.len(), 32);
    }

    #[test]
    fn fresh_encapsulations_differ() {
        let (kp, mut rng) = setup();
        let (e1, k1) = kp.public().encapsulate(32, &mut rng);
        let (e2, k2) = kp.public().encapsulate(32, &mut rng);
        assert_ne!(e1, e2);
        assert_ne!(k1, k2);
    }

    #[test]
    fn wrong_key_derives_different_secret() {
        let (kp, mut rng) = setup();
        let other = ElGamalKeyPair::generate(kp.public().group().clone(), &mut rng);
        let (encap, key) = kp.public().encapsulate(32, &mut rng);
        let wrong = other.decapsulate(&encap, 32);
        assert_ne!(key, wrong);
    }

    #[test]
    fn encapsulation_is_subgroup_element() {
        let (kp, mut rng) = setup();
        let (encap, _) = kp.public().encapsulate(32, &mut rng);
        assert!(kp.public().group().is_subgroup_element(encap.element()));
    }

    #[test]
    fn transport_roundtrip() {
        let (kp, mut rng) = setup();
        let (encap, key) = kp.public().encapsulate(16, &mut rng);
        let rebuilt = Encapsulation::from_element(encap.element().clone());
        assert_eq!(kp.decapsulate(&rebuilt, 16), key);
    }
}
