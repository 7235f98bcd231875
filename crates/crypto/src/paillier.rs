//! The Paillier cryptosystem (EUROCRYPT '99) — the additively homomorphic
//! encryption `E` of the paper's Section 5 (private matching).
//!
//! Properties used by the protocols:
//!
//! * `E(a) * E(b) = E(a + b)` — [`PaillierPublicKey::add`],
//! * `E(a)^γ = E(γ * a)` — [`PaillierPublicKey::scale`],
//!
//! which together allow evaluating an *encrypted* polynomial at a plaintext
//! point (see [`crate::polynomial`]).
//!
//! Implementation notes: `g = n + 1`, so `E(m) = (1 + m*n) * r^n mod n^2`
//! needs one modular exponentiation; decryption uses the CRT-free textbook
//! form `m = L(c^λ mod n^2) * μ mod n` with `μ = λ^{-1} mod n`.  The public
//! key caches a Montgomery context for `n^2`, where virtually all protocol
//! time is spent.

use mpint::numtheory::{gcd, lcm, modinv};
use mpint::prime::gen_prime;
use mpint::random::random_below;
use mpint::rng::Rng;
use mpint::{Montgomery, Natural};

use crate::metrics::{count, Op};
use crate::CryptoError;

/// A Paillier public key: modulus `n` (with cached `n^2` arithmetic).
///
/// ```
/// use mpint::Natural;
/// use secmed_crypto::drbg::HmacDrbg;
/// use secmed_crypto::paillier::PaillierKeyPair;
///
/// let mut rng = HmacDrbg::from_label("doc");
/// let kp = PaillierKeyPair::generate(256, &mut rng);
/// let a = kp.public().encrypt(&Natural::from(20u64), &mut rng).unwrap();
/// let b = kp.public().encrypt(&Natural::from(22u64), &mut rng).unwrap();
/// let sum = kp.public().add(&a, &b);
/// assert_eq!(kp.decrypt(&sum), Natural::from(42u64));
/// ```
#[derive(Clone)]
pub struct PaillierPublicKey {
    n: Natural,
    n2: Natural,
    mont_n2: Montgomery,
}

/// A Paillier key pair.
#[derive(Clone)]
pub struct PaillierKeyPair {
    public: PaillierPublicKey,
    /// λ = lcm(p-1, q-1).
    lambda: Natural,
    /// μ = λ^{-1} mod n.
    mu: Natural,
    /// CRT acceleration state (see [`PaillierKeyPair::decrypt_crt`]).
    crt: CrtContext,
}

/// Precomputed state for CRT decryption: working mod `p^2` and `q^2`
/// separately roughly quarters the exponentiation cost (half-size moduli,
/// half-size exponents), then Garner recombination lifts back to `Z_n`.
#[derive(Clone)]
struct CrtContext {
    p: Natural,
    q: Natural,
    mont_p2: Montgomery,
    mont_q2: Montgomery,
    /// `L_p((1+n)^(p-1) mod p^2)^{-1} mod p`.
    hp: Natural,
    /// `L_q((1+n)^(q-1) mod q^2)^{-1} mod q`.
    hq: Natural,
    /// `q^{-1} mod p` for Garner recombination.
    q_inv_p: Natural,
}

impl CrtContext {
    fn new(p: &Natural, q: &Natural, n: &Natural) -> Option<Self> {
        let one = Natural::one();
        let p2 = p * p;
        let q2 = q * q;
        let mont_p2 = Montgomery::new(p2.clone());
        let mont_q2 = Montgomery::new(q2.clone());
        let gp = (Natural::one() + n).rem(&p2);
        let gq = (Natural::one() + n).rem(&q2);
        let lp = |x: &Natural, m: &Natural| (x - &one).div_rem(m).0;
        let hp = modinv(&lp(&mont_p2.modpow(&gp, &(p - &one)), p), p).ok()?;
        let hq = modinv(&lp(&mont_q2.modpow(&gq, &(q - &one)), q), q).ok()?;
        let q_inv_p = modinv(q, p).ok()?;
        Some(CrtContext {
            p: p.clone(),
            q: q.clone(),
            mont_p2,
            mont_q2,
            hp,
            hq,
            q_inv_p,
        })
    }

    /// Decrypts `c` via the two half-size exponentiations.
    fn decrypt(&self, c: &Natural) -> Natural {
        let one = Natural::one();
        let lp = |x: &Natural, m: &Natural| (x - &one).div_rem(m).0;
        let mp = lp(&self.mont_p2.modpow(c, &(&self.p - &one)), &self.p).modmul(&self.hp, &self.p);
        let mq = lp(&self.mont_q2.modpow(c, &(&self.q - &one)), &self.q).modmul(&self.hq, &self.q);
        // Garner: m = mq + q * ((mp - mq) * q^{-1} mod p).
        let diff = mp.modsub(&mq.rem(&self.p), &self.p);
        let t = diff.modmul(&self.q_inv_p, &self.p);
        mq + &(&t * &self.q)
    }
}

/// A Paillier ciphertext: an element of `Z_{n^2}^*`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierCiphertext(pub(crate) Natural);

/// Namespace struct for free-standing helpers.
pub struct Paillier;

impl std::fmt::Debug for PaillierPublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PaillierPublicKey(n: {} bits)", self.n.bit_len())
    }
}

impl PartialEq for PaillierPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
    }
}

impl Eq for PaillierPublicKey {}

impl PaillierKeyPair {
    /// Generates a key pair with an `n_bits`-bit modulus.
    pub fn generate(n_bits: u64, rng: &mut dyn Rng) -> Self {
        assert!(n_bits >= 16, "modulus too small to be meaningful");
        loop {
            let p = gen_prime(n_bits / 2, rng);
            let q = gen_prime(n_bits.div_ceil(2), rng);
            // lint:allow(secret-flow) -- keygen rejection sampling: a
            // p = q collision is discarded, so the branch reveals nothing
            // about the factors actually kept.
            if p == q {
                continue;
            }
            let n = &p * &q;
            // lint:allow(secret-flow) -- keygen rejection sampling: n = p·q
            // is the public modulus the key pair publishes, so branching on
            // its width reveals nothing the public key does not.
            if n.bit_len() != n_bits {
                continue;
            }
            let one = Natural::one();
            let lambda = lcm(&(&p - &one), &(&q - &one));
            // gcd(n, λ) = 1 holds for distinct primes of similar size, but
            // verify anyway: μ must exist.
            let Ok(mu) = modinv(&lambda, &n) else {
                continue;
            };
            let Some(crt) = CrtContext::new(&p, &q, &n) else {
                continue;
            };
            let public = PaillierPublicKey::from_modulus(n);
            return PaillierKeyPair {
                public,
                lambda,
                mu,
                crt,
            };
        }
    }

    /// The public key.
    pub fn public(&self) -> &PaillierPublicKey {
        &self.public
    }

    /// Decrypts `c` to its plaintext in `[0, n)` via CRT (the default —
    /// roughly 4× faster than the textbook path; `benches/primitives.rs`
    /// has the ablation).
    pub fn decrypt(&self, c: &PaillierCiphertext) -> Natural {
        count(Op::PaillierDecrypt);
        self.crt.decrypt(&c.0)
    }

    /// Textbook decryption `L(c^λ mod n^2) * μ mod n`, kept for the
    /// CRT-vs-plain ablation bench and as a cross-check in tests.
    pub fn decrypt_plain(&self, c: &PaillierCiphertext) -> Natural {
        count(Op::PaillierDecrypt);
        let pk = &self.public;
        let u = pk.mont_n2.modpow(&c.0, &self.lambda);
        let l = pk.l_function(&u);
        l.modmul(&self.mu, &pk.n)
    }
}

impl PaillierPublicKey {
    /// Builds the public key from the modulus, caching `n^2` state.
    pub fn from_modulus(n: Natural) -> Self {
        let n2 = &n * &n;
        let mont_n2 = Montgomery::new(n2.clone());
        PaillierPublicKey { n, n2, mont_n2 }
    }

    /// The modulus `n` (the plaintext space is `Z_n`).
    pub fn n(&self) -> &Natural {
        &self.n
    }

    /// `n^2` (the ciphertext space is `Z_{n^2}^*`).
    pub fn n2(&self) -> &Natural {
        &self.n2
    }

    /// Plaintext capacity in whole bytes (for payload packing).
    pub fn plaintext_bytes(&self) -> usize {
        ((self.n.bit_len() - 1) / 8) as usize
    }

    /// Encrypts `m` (must be `< n`).
    pub fn encrypt(
        &self,
        m: &Natural,
        rng: &mut dyn Rng,
    ) -> Result<PaillierCiphertext, CryptoError> {
        if m >= &self.n {
            return Err(CryptoError::MessageTooLarge);
        }
        count(Op::PaillierEncrypt);
        let r = self.random_unit(rng);
        // c = (1 + m*n) * r^n mod n^2
        let gm = (Natural::one() + m * &self.n).rem(&self.n2);
        let rn = self.mont_n2.modpow(&r, &self.n);
        Ok(PaillierCiphertext(gm.modmul(&rn, &self.n2)))
    }

    /// Encrypts `m mod n` — infallible, for callers whose plaintexts are
    /// already residues (e.g. polynomial coefficients in `Z_n`).
    pub fn encrypt_reduced(&self, m: &Natural, rng: &mut dyn Rng) -> PaillierCiphertext {
        count(Op::PaillierEncrypt);
        let r = self.random_unit(rng);
        let gm = (Natural::one() + &(&m.rem(&self.n) * &self.n)).rem(&self.n2);
        let rn = self.mont_n2.modpow(&r, &self.n);
        PaillierCiphertext(gm.modmul(&rn, &self.n2))
    }

    /// Encrypts bytes by interpreting them as a big-endian integer.
    pub fn encrypt_bytes(
        &self,
        data: &[u8],
        rng: &mut dyn Rng,
    ) -> Result<PaillierCiphertext, CryptoError> {
        self.encrypt(&Natural::from_bytes_be(data), rng)
    }

    /// Homomorphic addition: `E(a) ⊕ E(b) = E(a + b mod n)`.
    pub fn add(&self, a: &PaillierCiphertext, b: &PaillierCiphertext) -> PaillierCiphertext {
        count(Op::PaillierAdd);
        PaillierCiphertext(a.0.modmul(&b.0, &self.n2))
    }

    /// Homomorphic plaintext addition: `E(a) ⊕ m = E(a + m mod n)`.
    pub fn add_plain(&self, a: &PaillierCiphertext, m: &Natural) -> PaillierCiphertext {
        count(Op::PaillierAdd);
        let gm = (Natural::one() + &(&m.rem(&self.n) * &self.n)).rem(&self.n2);
        PaillierCiphertext(a.0.modmul(&gm, &self.n2))
    }

    /// Homomorphic scalar multiplication: `E(a)^γ = E(γ * a mod n)`.
    pub fn scale(&self, a: &PaillierCiphertext, gamma: &Natural) -> PaillierCiphertext {
        count(Op::PaillierScale);
        PaillierCiphertext(self.mont_n2.modpow(&a.0, gamma))
    }

    /// Fresh encryption of zero multiplied in — makes a ciphertext
    /// unlinkable to its origin.
    pub fn rerandomize(&self, a: &PaillierCiphertext, rng: &mut dyn Rng) -> PaillierCiphertext {
        count(Op::PaillierEncrypt); // a rerandomization is a fresh encryption of zero
        let r = self.random_unit(rng);
        let rn = self.mont_n2.modpow(&r, &self.n);
        PaillierCiphertext(a.0.modmul(&rn, &self.n2))
    }

    /// The cached Montgomery context for `n^2` (used by the polynomial
    /// evaluator's tight loops).
    pub fn mont_n2(&self) -> &Montgomery {
        &self.mont_n2
    }

    /// `L(u) = (u - 1) / n`.
    fn l_function(&self, u: &Natural) -> Natural {
        (u - &Natural::one()).div_rem(&self.n).0
    }

    fn random_unit(&self, rng: &mut dyn Rng) -> Natural {
        loop {
            let r = random_below(rng, &self.n);
            if !r.is_zero() && gcd(&r, &self.n).is_one() {
                return r;
            }
        }
    }
}

impl PaillierCiphertext {
    /// The raw group element (for transport encoding).
    pub fn element(&self) -> &Natural {
        &self.0
    }

    /// The trivial (unrandomized) encryption of zero, `c = 1`.
    ///
    /// Valid under every key; useful as an additive identity.
    pub fn trivial_zero() -> Self {
        PaillierCiphertext(Natural::one())
    }

    /// Rebuilds from a transported element, validating the range.
    pub fn from_element(c: Natural, pk: &PaillierPublicKey) -> Result<Self, CryptoError> {
        if &c >= pk.n2() || c.is_zero() {
            return Err(CryptoError::Malformed("ciphertext outside Z_{n^2}^*"));
        }
        Ok(PaillierCiphertext(c))
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        self.0.to_bytes_be().len()
    }
}

impl Paillier {
    /// Test/bench helper: a deterministic key pair of the given size.
    pub fn test_keypair(n_bits: u64, label: &str) -> PaillierKeyPair {
        let mut rng = crate::drbg::HmacDrbg::from_label(label);
        PaillierKeyPair::generate(n_bits, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;

    fn setup() -> (PaillierKeyPair, HmacDrbg) {
        let kp = Paillier::test_keypair(256, "paillier-tests");
        (kp, HmacDrbg::from_label("paillier-rng"))
    }

    fn n(v: u64) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (kp, mut rng) = setup();
        for m in [0u64, 1, 42, 0xffff_ffff] {
            let c = kp.public().encrypt(&n(m), &mut rng).unwrap();
            assert_eq!(kp.decrypt(&c), n(m), "m={m}");
        }
    }

    #[test]
    fn message_too_large_rejected() {
        let (kp, mut rng) = setup();
        let too_big = kp.public().n().clone();
        assert_eq!(
            kp.public().encrypt(&too_big, &mut rng),
            Err(CryptoError::MessageTooLarge)
        );
    }

    #[test]
    fn homomorphic_addition() {
        let (kp, mut rng) = setup();
        let ca = kp.public().encrypt(&n(1000), &mut rng).unwrap();
        let cb = kp.public().encrypt(&n(234), &mut rng).unwrap();
        let sum = kp.public().add(&ca, &cb);
        assert_eq!(kp.decrypt(&sum), n(1234));
    }

    #[test]
    fn homomorphic_plaintext_addition() {
        let (kp, mut rng) = setup();
        let ca = kp.public().encrypt(&n(1000), &mut rng).unwrap();
        let sum = kp.public().add_plain(&ca, &n(234));
        assert_eq!(kp.decrypt(&sum), n(1234));
    }

    #[test]
    fn homomorphic_scaling() {
        let (kp, mut rng) = setup();
        let ca = kp.public().encrypt(&n(111), &mut rng).unwrap();
        let scaled = kp.public().scale(&ca, &n(9));
        assert_eq!(kp.decrypt(&scaled), n(999));
    }

    #[test]
    fn addition_wraps_mod_n() {
        let (kp, mut rng) = setup();
        let big = kp.public().n() - &Natural::one();
        let ca = kp.public().encrypt(&big, &mut rng).unwrap();
        let sum = kp.public().add_plain(&ca, &n(2));
        assert_eq!(kp.decrypt(&sum), Natural::one());
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let (kp, mut rng) = setup();
        let c1 = kp.public().encrypt(&n(5), &mut rng).unwrap();
        let c2 = kp.public().encrypt(&n(5), &mut rng).unwrap();
        assert_ne!(c1, c2);
        assert_eq!(kp.decrypt(&c1), kp.decrypt(&c2));
    }

    #[test]
    fn rerandomize_preserves_plaintext() {
        let (kp, mut rng) = setup();
        let c = kp.public().encrypt(&n(77), &mut rng).unwrap();
        let r = kp.public().rerandomize(&c, &mut rng);
        assert_ne!(c, r);
        assert_eq!(kp.decrypt(&r), n(77));
    }

    #[test]
    fn bytes_roundtrip() {
        let (kp, mut rng) = setup();
        let payload = b"ak||payload";
        let c = kp.public().encrypt_bytes(payload, &mut rng).unwrap();
        let m = kp.decrypt(&c);
        assert_eq!(m.to_bytes_be(), payload);
    }

    #[test]
    fn malformed_ciphertext_rejected() {
        let (kp, _) = setup();
        let too_big = kp.public().n2().clone();
        assert!(PaillierCiphertext::from_element(too_big, kp.public()).is_err());
        assert!(PaillierCiphertext::from_element(Natural::zero(), kp.public()).is_err());
    }

    #[test]
    fn plaintext_bytes_fit() {
        let (kp, mut rng) = setup();
        let len = kp.public().plaintext_bytes();
        let payload = vec![0xffu8; len];
        let c = kp.public().encrypt_bytes(&payload, &mut rng).unwrap();
        assert_eq!(kp.decrypt(&c).to_bytes_be(), payload);
    }

    #[test]
    fn crt_and_plain_decryption_agree() {
        let (kp, mut rng) = setup();
        for m in [0u64, 1, 42, u64::MAX] {
            let c = kp.public().encrypt(&n(m), &mut rng).unwrap();
            assert_eq!(kp.decrypt(&c), kp.decrypt_plain(&c), "m={m}");
        }
        // Also on homomorphically derived ciphertexts.
        let a = kp.public().encrypt(&n(1000), &mut rng).unwrap();
        let derived = kp.public().scale(&kp.public().add(&a, &a), &n(7));
        assert_eq!(kp.decrypt(&derived), kp.decrypt_plain(&derived));
        assert_eq!(kp.decrypt(&derived), n(14000));
    }

    #[test]
    fn distinct_keypairs_incompatible() {
        let (kp1, mut rng) = setup();
        let kp2 = Paillier::test_keypair(256, "other");
        let c = kp1.public().encrypt(&n(5), &mut rng).unwrap();
        // Decrypting under the wrong key gives garbage (overwhelmingly).
        assert_ne!(
            kp2.decrypt(&PaillierCiphertext(c.0.rem(kp2.public().n2()))),
            n(5)
        );
    }
}
