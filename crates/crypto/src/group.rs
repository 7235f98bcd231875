//! Safe-prime groups.
//!
//! A safe prime `p = 2q + 1` gives the multiplicative group `Z_p^*` a
//! subgroup of quadratic residues `QR_p` of prime order `q`.  Both the SRA
//! commutative cipher (paper Section 4: "the set of quadratic residues
//! modulo a safe prime") and the ElGamal KEM of the hybrid scheme operate
//! in `QR_p`; Schnorr signatures use the same parameters.
//!
//! Generating large safe primes is expensive, so [`SafePrimeGroup::preset`]
//! ships precomputed parameters (generated by this crate itself and
//! re-certified by the test suite) for the common sizes.
//!
//! A group carries its Montgomery context and a fixed-base table for `g`,
//! shared by every clone.  Both are pure functions of `(p, g)`; each
//! preset builds them once per process.

use std::fmt;
use std::sync::{Arc, OnceLock};

use mpint::prime::{gen_safe_prime, is_probable_prime};
use mpint::random::random_below;
use mpint::rng::Rng;
use mpint::{FixedBase, Int, Montgomery, Natural, Sign};

use crate::metrics::{count, Op};
use crate::sha256::Sha256;

/// Parameters of a safe-prime group: modulus `p = 2q + 1` and a generator
/// `g` of the order-`q` subgroup of quadratic residues.
///
/// Equality compares `(p, q, g)`; the cached table is derived from them.
#[derive(Clone)]
pub struct SafePrimeGroup {
    p: Natural,
    q: Natural,
    g: Natural,
    /// The fixed-base table for `g`, which also owns the Montgomery
    /// context modulo `p`.
    g_table: Arc<FixedBase>,
}

impl PartialEq for SafePrimeGroup {
    fn eq(&self, other: &Self) -> bool {
        (&self.p, &self.q, &self.g) == (&other.p, &other.q, &other.g)
    }
}

impl Eq for SafePrimeGroup {}

/// Prints the parameters, never the table: groups sit inside every key's
/// `Debug`.
impl fmt::Debug for SafePrimeGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SafePrimeGroup")
            .field("p", &self.p)
            .field("q", &self.q)
            .field("g", &self.g)
            .finish()
    }
}

/// Preset parameter sizes with precomputed moduli.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupSize {
    /// 256-bit modulus — unit tests.
    S256,
    /// 512-bit modulus — default for benches and examples.
    S512,
    /// 768-bit modulus.
    S768,
    /// 1024-bit modulus — closer to what 2007-era deployments used.
    S1024,
}

impl GroupSize {
    /// Modulus size in bits.
    pub fn bits(self) -> u64 {
        match self {
            GroupSize::S256 => 256,
            GroupSize::S512 => 512,
            GroupSize::S768 => 768,
            GroupSize::S1024 => 1024,
        }
    }
}

/// Precomputed safe primes (hex), generated with
/// `mpint::prime::gen_safe_prime` and re-verified by
/// `tests::presets_are_safe_primes`.
mod presets {
    pub const P256: &str = include_str!("presets/p256.hex");
    pub const P512: &str = include_str!("presets/p512.hex");
    pub const P768: &str = include_str!("presets/p768.hex");
    pub const P1024: &str = include_str!("presets/p1024.hex");
}

impl SafePrimeGroup {
    /// Loads a precomputed group of the given size.  The first call per
    /// size builds the group's context and `g` table; every later call
    /// clones it and shares them.
    pub fn preset(size: GroupSize) -> Self {
        static PRESETS: [OnceLock<SafePrimeGroup>; 4] = [const { OnceLock::new() }; 4];
        let (slot, hex) = match size {
            GroupSize::S256 => (0, presets::P256),
            GroupSize::S512 => (1, presets::P512),
            GroupSize::S768 => (2, presets::P768),
            GroupSize::S1024 => (3, presets::P1024),
        };
        PRESETS[slot]
            .get_or_init(|| {
                // lint:allow(panic-freedom) -- the preset hex files are compiled
                // into the binary via include_str!; a parse failure is a build
                // corruption, not a runtime input, and is caught by unit tests.
                let p = Natural::from_hex(hex.trim()).expect("preset hex parses");
                Self::from_safe_prime(p)
            })
            .clone()
    }

    /// Generates a fresh group with a `bits`-bit safe prime.  Slow for
    /// large sizes; prefer [`SafePrimeGroup::preset`].
    pub fn generate(bits: u64, rng: &mut dyn Rng) -> Self {
        let (p, _q) = gen_safe_prime(bits, rng);
        Self::from_safe_prime(p)
    }

    /// Builds the group from a known safe prime, deriving `q = (p-1)/2` and
    /// picking the canonical generator `g = 4 = 2^2` (a quadratic residue,
    /// and of order `q` exactly because `q` is prime and `4 != 1`).
    ///
    /// # Panics
    ///
    /// Debug-asserts the safe-prime structure (cheap checks only).
    pub fn from_safe_prime(p: Natural) -> Self {
        let q = (&p - &Natural::one()).shr_bits(1);
        debug_assert!(p.is_odd() && q.is_odd() || q == Natural::from(2u64));
        let g = Natural::from(4u64);
        let g_table = Arc::new(FixedBase::new(&Montgomery::new(p.clone()), &g));
        SafePrimeGroup { p, q, g, g_table }
    }

    /// The modulus `p`.
    pub fn p(&self) -> &Natural {
        &self.p
    }

    /// The subgroup order `q = (p - 1) / 2`.
    pub fn q(&self) -> &Natural {
        &self.q
    }

    /// The subgroup generator.
    pub fn g(&self) -> &Natural {
        &self.g
    }

    /// Modulus size in bits.
    pub fn bits(&self) -> u64 {
        self.p.bit_len()
    }

    /// The cached Montgomery context modulo `p`.
    pub(crate) fn context(&self) -> &Montgomery {
        self.g_table.context()
    }

    /// `g^x mod p`, from the fixed-base table: one product per 4-bit
    /// window of `p`, whatever `x`.
    pub fn pow_g(&self, x: &Natural) -> Natural {
        self.g_table.pow(x)
    }

    /// `base^x mod p` in a fixed operation sequence over
    /// `max(bits(q), bits(x))` exponent bits, so a secret exponent below
    /// `q` (an SRA key, a KEM secret) does not shape the product count.
    pub fn pow(&self, base: &Natural, x: &Natural) -> Natural {
        self.context().modpow_fixed(base, x, self.q.bit_len())
    }

    /// A uniformly random exponent in `[1, q)`.
    pub fn random_exponent(&self, rng: &mut dyn Rng) -> Natural {
        let one = Natural::one();
        random_below(rng, &(&self.q - &one)) + one
    }

    /// A uniformly random subgroup element `g^x` (for `x` uniform in `[1, q)`).
    pub fn random_element(&self, rng: &mut dyn Rng) -> Natural {
        let x = self.random_exponent(rng);
        self.pow_g(&x)
    }

    /// Is `x` an element of `QR_p` (the order-`q` subgroup)?
    pub fn is_subgroup_element(&self, x: &Natural) -> bool {
        !x.is_zero() && x < &self.p && self.context().modpow(x, &self.q).is_one()
    }

    /// Hashes an arbitrary byte string into the quadratic-residue subgroup.
    ///
    /// This is the paper's "ideal hash function" `h` for the commutative
    /// protocol: SHA-256 output is expanded to the width of `p` (counter
    /// mode), reduced mod `p`, and squared.  Squaring maps `Z_p^*` onto
    /// `QR_p`, so the result is always a subgroup element.
    pub fn hash_to_group(&self, data: &[u8]) -> Natural {
        count(Op::HashToGroup);
        let byte_len = (self.p.bit_len() as usize).div_ceil(8) + 16; // oversample to smooth the mod bias
        let mut stream = Vec::with_capacity(byte_len + 32);
        let mut counter = 0u32;
        while stream.len() < byte_len {
            let mut h = Sha256::new();
            h.update(b"secmed-hash-to-group");
            h.update(&counter.to_be_bytes());
            h.update(data);
            stream.extend_from_slice(&h.finalize());
            counter += 1;
        }
        stream.truncate(byte_len);
        let x = Natural::from_bytes_be(&stream).rem(&self.p);
        // Avoid the degenerate zero element (probability ~2^-bits).
        let x = if x.is_zero() { Natural::one() } else { x };
        x.modmul(&x, &self.p)
    }

    /// Fully certifies the group parameters (40-round Miller–Rabin on both
    /// `p` and `q`, generator order check).  Used by tests and by callers
    /// accepting third-party parameters.
    pub fn certify(&self, rng: &mut dyn Rng) -> bool {
        is_probable_prime(&self.p, 40, rng)
            && is_probable_prime(&self.q, 40, rng)
            && self.p == self.q.shl_bits(1) + Natural::one()
            && self.is_subgroup_element(&self.g)
            && !self.g.is_one()
    }
}

/// Converts a signed value into the exponent domain `[0, q)` (used when
/// protocol code manipulates differences of exponents).
pub fn exponent_mod_q(v: &Int, group: &SafePrimeGroup) -> Natural {
    match v.sign() {
        Sign::Plus => v.magnitude().rem(group.q()),
        Sign::Minus => v.rem_euclid(group.q()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;

    #[test]
    fn presets_are_safe_primes() {
        let mut rng = HmacDrbg::from_label("certify");
        for size in [
            GroupSize::S256,
            GroupSize::S512,
            GroupSize::S768,
            GroupSize::S1024,
        ] {
            let g = SafePrimeGroup::preset(size);
            assert_eq!(g.bits(), size.bits(), "{size:?}");
            assert!(g.certify(&mut rng), "{size:?} fails certification");
        }
    }

    #[test]
    fn presets_share_one_table_and_match_the_generic_ladder() {
        let mut rng = HmacDrbg::from_label("pow-g");
        for size in [
            GroupSize::S256,
            GroupSize::S512,
            GroupSize::S768,
            GroupSize::S1024,
        ] {
            let group = SafePrimeGroup::preset(size);
            let again = SafePrimeGroup::preset(size);
            assert!(Arc::ptr_eq(&group.g_table, &again.g_table), "{size:?}");
            for _ in 0..4 {
                let x = group.random_exponent(&mut rng);
                assert_eq!(group.pow_g(&x), group.context().modpow(group.g(), &x));
            }
            let debug = format!("{group:?}");
            assert!(debug.len() < 1024, "{size:?}: {} bytes", debug.len());
        }
    }

    #[test]
    fn generated_group_certifies() {
        let mut rng = HmacDrbg::from_label("gen");
        let g = SafePrimeGroup::generate(96, &mut rng);
        assert!(g.certify(&mut rng));
    }

    #[test]
    fn generator_has_order_q() {
        let g = SafePrimeGroup::preset(GroupSize::S256);
        assert!(g.pow_g(g.q()).is_one());
        assert!(!g.pow_g(&Natural::one()).is_one());
    }

    #[test]
    fn random_elements_are_subgroup_members() {
        let mut rng = HmacDrbg::from_label("elems");
        let g = SafePrimeGroup::preset(GroupSize::S256);
        for _ in 0..5 {
            let e = g.random_element(&mut rng);
            assert!(g.is_subgroup_element(&e));
        }
    }

    #[test]
    fn hash_to_group_lands_in_subgroup_and_is_deterministic() {
        let g = SafePrimeGroup::preset(GroupSize::S256);
        let h1 = g.hash_to_group(b"alice");
        let h2 = g.hash_to_group(b"alice");
        let h3 = g.hash_to_group(b"bob");
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
        assert!(g.is_subgroup_element(&h1));
        assert!(g.is_subgroup_element(&h3));
    }

    #[test]
    fn subgroup_membership_rejects_non_residues() {
        let g = SafePrimeGroup::preset(GroupSize::S256);
        // -1 = p - 1 is a non-residue mod a safe prime > 5.
        let minus_one = g.p() - &Natural::one();
        assert!(!g.is_subgroup_element(&minus_one));
        assert!(!g.is_subgroup_element(&Natural::zero()));
        assert!(!g.is_subgroup_element(g.p()));
    }

    #[test]
    fn exponent_mod_q_handles_signs() {
        let g = SafePrimeGroup::preset(GroupSize::S256);
        let v = Int::from(-5i64);
        let r = exponent_mod_q(&v, &g);
        assert_eq!(r, g.q() - &Natural::from(5u64));
    }
}
