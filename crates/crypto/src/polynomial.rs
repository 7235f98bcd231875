//! Polynomials over `Z_n` and their homomorphically encrypted evaluation.
//!
//! The private-matching protocol (paper Section 5, after Freedman et al.)
//! has a datasource build `P(x) = (a_1 - x)(a_2 - x)...(a_n - x)` whose
//! roots are its active-domain values, encrypt the coefficients under the
//! client's Paillier key, and ship them to the *other* datasource, which
//! evaluates `E(r * P(a') + payload)` for each of its own values `a'`.
//!
//! Three evaluation strategies are provided (the S5a ablation in
//! DESIGN.md):
//!
//! * [`EncryptedPoly::eval_naive`] — the power-sum `Σ E(c_k)^(a^k)`,
//! * [`EncryptedPoly::eval_horner`] — Horner's rule, one scale + one add
//!   per coefficient (the efficiency trick Freedman et al. describe),
//! * [`BucketedPoly`] — Freedman's hash-bucket allocation: split the roots
//!   into `B` buckets so each evaluation only touches a degree-`~n/B`
//!   polynomial, padding every bucket to equal degree so loads leak nothing.
//!
//! The masked evaluation the protocol ships, [`EncryptedPoly::eval_masked`],
//! folds the evaluation and the mask into one joint exponentiation
//! `Π E(c_k)^(r·a^k mod n)` over per-polynomial window tables
//! ([`MultiBase`]), counted as Horner's rule plus [`EncryptedPoly::mask`].

use std::sync::OnceLock;

use mpint::random::random_below;
use mpint::rng::Rng;
use mpint::{MultiBase, Natural};
use secmed_pool::Pool;

use crate::drbg::DrbgFamily;
use crate::metrics::{count, Op};
use crate::paillier::{PaillierCiphertext, PaillierPublicKey};
use crate::sha256::sha256;
use crate::CryptoError;

/// A polynomial over `Z_n`, stored as coefficients `c_0..c_d`
/// (so `P(x) = Σ c_k x^k`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZnPoly {
    coeffs: Vec<Natural>,
    n: Natural,
}

impl ZnPoly {
    /// `P(x) = Π (a_i - x)` with all arithmetic mod `n`.
    ///
    /// The empty product is the constant polynomial `1`.
    pub fn from_roots(roots: &[Natural], n: &Natural) -> Self {
        let mut coeffs = vec![Natural::one().rem(n)];
        for root in roots {
            let a = root.rem(n);
            // Multiply the accumulated polynomial by (a - x):
            // new[k] = a * c[k] - c[k-1]  (mod n).
            let mut next = Vec::with_capacity(coeffs.len() + 1);
            for k in 0..=coeffs.len() {
                let term_a = if k < coeffs.len() {
                    coeffs[k].modmul(&a, n)
                } else {
                    Natural::zero()
                };
                let term_prev = if k > 0 {
                    coeffs[k - 1].clone()
                } else {
                    Natural::zero()
                };
                next.push(term_a.modsub(&term_prev.rem(n), n));
            }
            coeffs = next;
        }
        ZnPoly {
            coeffs,
            n: n.clone(),
        }
    }

    /// Degree (number of roots for a product-of-roots polynomial).
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// The coefficients `c_0..c_d`.
    pub fn coeffs(&self) -> &[Natural] {
        &self.coeffs
    }

    /// The modulus.
    pub fn modulus(&self) -> &Natural {
        &self.n
    }

    /// Plaintext Horner evaluation `P(x) mod n`.
    pub fn eval(&self, x: &Natural) -> Natural {
        let x = x.rem(&self.n);
        let mut acc = Natural::zero();
        for c in self.coeffs.iter().rev() {
            acc = acc.modmul(&x, &self.n).modadd(c, &self.n);
        }
        acc
    }
}

/// A polynomial whose coefficients are Paillier-encrypted.
#[derive(Debug, Clone)]
pub struct EncryptedPoly {
    coeffs: Vec<PaillierCiphertext>,
    pk: PaillierPublicKey,
    /// The coefficients' window tables modulo `n^2`, built by the first
    /// [`EncryptedPoly::eval_masked`] and shared by every later point,
    /// whichever pool worker evaluates it.
    tables: OnceLock<MultiBase>,
}

impl EncryptedPoly {
    fn new(coeffs: Vec<PaillierCiphertext>, pk: &PaillierPublicKey) -> Self {
        EncryptedPoly {
            coeffs,
            pk: pk.clone(),
            tables: OnceLock::new(),
        }
    }

    /// Encrypts every coefficient of `poly` under `pk`.
    ///
    /// # Panics
    ///
    /// Panics if the polynomial's modulus is not the key's `n` — coefficient
    /// arithmetic and ciphertext arithmetic must agree.
    pub fn encrypt(poly: &ZnPoly, pk: &PaillierPublicKey, rng: &mut dyn Rng) -> Self {
        assert_eq!(
            poly.modulus(),
            pk.n(),
            "polynomial modulus must match the Paillier key"
        );
        let coeffs = poly
            .coeffs
            .iter()
            .map(|c| pk.encrypt_reduced(c, rng))
            .collect();
        EncryptedPoly::new(coeffs, pk)
    }

    /// Parallel coefficient encryption: coefficient `k` is encrypted on
    /// whichever worker gets it, with randomness from `streams.stream(k)`
    /// — so the ciphertexts are identical at any thread count.
    pub fn encrypt_par(
        poly: &ZnPoly,
        pk: &PaillierPublicKey,
        pool: &Pool,
        streams: &DrbgFamily,
    ) -> Self {
        assert_eq!(
            poly.modulus(),
            pk.n(),
            "polynomial modulus must match the Paillier key"
        );
        let coeffs = pool.par_map(&poly.coeffs, |k, c| {
            let mut rng = streams.stream(k as u64);
            pk.encrypt_reduced(c, &mut rng)
        });
        EncryptedPoly::new(coeffs, pk)
    }

    /// Number of transported ciphertexts (leaks the degree — exactly the
    /// Table 1 observation that the mediator learns `|domactive|`).
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// True for the empty polynomial (never produced by `encrypt`).
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// The coefficient ciphertexts (for transport).
    pub fn ciphertexts(&self) -> &[PaillierCiphertext] {
        &self.coeffs
    }

    /// Rebuilds from transported ciphertexts.
    pub fn from_ciphertexts(
        coeffs: Vec<PaillierCiphertext>,
        pk: &PaillierPublicKey,
    ) -> Result<Self, CryptoError> {
        if coeffs.is_empty() {
            return Err(CryptoError::Malformed("empty encrypted polynomial"));
        }
        Ok(EncryptedPoly::new(coeffs, pk))
    }

    /// `E(P(a))` by the naive power sum: computes `a^k mod n` for every
    /// `k` and scales each encrypted coefficient.
    pub fn eval_naive(&self, a: &Natural) -> PaillierCiphertext {
        let n = self.pk.n();
        let a = a.rem(n);
        let mut acc = self.coeffs[0].clone();
        let mut power = a.clone();
        for c in &self.coeffs[1..] {
            acc = self.pk.add(&acc, &self.pk.scale(c, &power));
            power = power.modmul(&a, n);
        }
        acc
    }

    /// `E(P(a))` by Horner's rule: `acc = acc^a ⊕ E(c_k)` from the top
    /// coefficient down — one scale and one add per coefficient, with the
    /// exponent always the (small-ish) point `a` rather than `a^k`.
    pub fn eval_horner(&self, a: &Natural) -> PaillierCiphertext {
        let n = self.pk.n();
        let a = a.rem(n);
        let mut iter = self.coeffs.iter().rev();
        // The empty polynomial (never produced by `encrypt`) evaluates to
        // the trivial encryption of zero, `E(0) = 1`.
        let Some(first) = iter.next() else {
            return PaillierCiphertext::trivial_zero();
        };
        let mut acc = first.clone();
        for c in iter {
            acc = self.pk.add(&self.pk.scale(&acc, &a), c);
        }
        acc
    }

    /// The sender step of private matching: `E(r * P(a) + payload)` for a
    /// fresh random `r` — decrypts to `payload` iff `a` is a root of `P`,
    /// and to a uniformly random-looking value otherwise.
    ///
    /// One joint exponentiation computes `Π E(c_k)^(r·a^k mod n)` over the
    /// coefficients' window tables, then one product adds the payload.
    /// Its operation sequence is fixed by the width of `n` and the degree.
    /// `r` is drawn where [`EncryptedPoly::mask`] draws it, and the census
    /// counts what [`EncryptedPoly::eval_horner`] followed by `mask`
    /// counts, so `r`, the plaintext and the counts equal that pair's.  The
    /// ciphertext does not: Horner raises `E(c_k)` to the unreduced `a^k`,
    /// and only the secret `λ` could reduce those exponents.
    pub fn eval_masked(
        &self,
        a: &Natural,
        payload: &Natural,
        rng: &mut dyn Rng,
    ) -> Result<PaillierCiphertext, CryptoError> {
        let n = self.pk.n();
        if payload >= n {
            return Err(CryptoError::MessageTooLarge);
        }
        count(Op::RandomMask);
        let r = nonzero_below(n, rng);
        let a = a.rem(n);
        // Exponent k is r·a^k mod n; each factor is one Horner scale and
        // one add, the add of the constant term being the payload's.
        let mut exps = Vec::with_capacity(self.coeffs.len());
        let mut e = r;
        for k in 0..self.coeffs.len() {
            count(Op::PaillierScale);
            if k > 0 {
                count(Op::PaillierAdd);
                e = e.modmul(&a, n);
            }
            exps.push(e.clone());
        }
        let tables = self.tables.get_or_init(|| {
            MultiBase::new(
                self.pk.mont_n2(),
                self.coeffs.iter().map(PaillierCiphertext::element),
            )
        });
        let joint = tables
            .pow(&exps, n.bit_len())
            .map_err(|_| CryptoError::Malformed("one exponent per coefficient"))?;
        Ok(self.pk.add_plain(&PaillierCiphertext(joint), payload))
    }

    /// Masks an already-computed `E(P(a))` with a fresh random factor and
    /// adds the payload: `E(r * P(a) + payload)`.  Exposed so callers can
    /// choose the evaluation strategy (naive vs Horner) independently.
    pub fn mask(
        &self,
        p_at_a: &PaillierCiphertext,
        payload: &Natural,
        rng: &mut dyn Rng,
    ) -> Result<PaillierCiphertext, CryptoError> {
        if payload >= self.pk.n() {
            return Err(CryptoError::MessageTooLarge);
        }
        count(Op::RandomMask);
        let r = nonzero_below(self.pk.n(), rng);
        let masked = self.pk.scale(p_at_a, &r);
        Ok(self.pk.add_plain(&masked, payload))
    }
}

/// Freedman's bucket-allocation optimization: roots are hashed into `B`
/// buckets, one (padded) polynomial per bucket; evaluation touches only the
/// bucket the point hashes to.
#[derive(Debug, Clone)]
pub struct BucketedPoly {
    buckets: Vec<ZnPoly>,
    n: Natural,
}

/// The encrypted counterpart of [`BucketedPoly`].
#[derive(Debug, Clone)]
pub struct EncryptedBucketedPoly {
    buckets: Vec<EncryptedPoly>,
}

/// Which bucket a value falls into: `SHA-256(value) mod num_buckets`.
pub fn bucket_of(value: &Natural, num_buckets: usize) -> usize {
    let digest = sha256(&value.to_bytes_be());
    let mut x = 0u64;
    for &b in &digest[..8] {
        x = (x << 8) | b as u64;
    }
    (x % num_buckets as u64) as usize
}

impl BucketedPoly {
    /// Distributes `roots` over `num_buckets` buckets and pads every bucket
    /// to the maximum load with the dummy root `n - 1` (an encoding no real
    /// join value uses — see the payload codec in `secmed-core`), so bucket
    /// degrees do not leak the distribution of values.
    pub fn from_roots(roots: &[Natural], n: &Natural, num_buckets: usize) -> Self {
        assert!(num_buckets > 0, "need at least one bucket");
        let mut groups: Vec<Vec<Natural>> = vec![Vec::new(); num_buckets];
        for r in roots {
            groups[bucket_of(r, num_buckets)].push(r.clone());
        }
        let max_load = groups.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let dummy = n - &Natural::one();
        for g in &mut groups {
            while g.len() < max_load {
                g.push(dummy.clone());
            }
        }
        let buckets = groups.iter().map(|g| ZnPoly::from_roots(g, n)).collect();
        BucketedPoly {
            buckets,
            n: n.clone(),
        }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The per-bucket (padded) degree.
    pub fn bucket_degree(&self) -> usize {
        self.buckets[0].degree()
    }

    /// The per-bucket polynomials.
    pub fn buckets(&self) -> &[ZnPoly] {
        &self.buckets
    }

    /// Plaintext evaluation — `P_b(x)` where `b` is the bucket of `x`.
    pub fn eval(&self, x: &Natural) -> Natural {
        self.buckets[bucket_of(x, self.buckets.len())].eval(x)
    }

    /// The modulus.
    pub fn modulus(&self) -> &Natural {
        &self.n
    }
}

impl EncryptedBucketedPoly {
    /// Encrypts every bucket polynomial.
    pub fn encrypt(poly: &BucketedPoly, pk: &PaillierPublicKey, rng: &mut dyn Rng) -> Self {
        let buckets = poly
            .buckets
            .iter()
            .map(|b| EncryptedPoly::encrypt(b, pk, rng))
            .collect();
        EncryptedBucketedPoly { buckets }
    }

    /// Parallel bucket encryption: every bucket is padded to the same
    /// degree, so coefficient `k` of bucket `b` maps to the schedule-free
    /// stream index `b * (degree + 1) + k`.
    pub fn encrypt_par(
        poly: &BucketedPoly,
        pk: &PaillierPublicKey,
        pool: &Pool,
        streams: &DrbgFamily,
    ) -> Self {
        let per_bucket = poly.bucket_degree() + 1;
        let indexed: Vec<(usize, &ZnPoly)> = poly.buckets.iter().enumerate().collect();
        let buckets = pool.par_map(&indexed, |_, (b, zp)| {
            let coeffs = zp
                .coeffs
                .iter()
                .enumerate()
                .map(|(k, c)| {
                    let mut rng = streams.stream((b * per_bucket + k) as u64);
                    pk.encrypt_reduced(c, &mut rng)
                })
                .collect();
            EncryptedPoly::new(coeffs, pk)
        });
        EncryptedBucketedPoly { buckets }
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The per-bucket encrypted polynomials (for transport).
    pub fn buckets(&self) -> &[EncryptedPoly] {
        &self.buckets
    }

    /// Rebuilds from transported per-bucket polynomials.  Every bucket must
    /// be non-empty and all buckets must share one degree — the padding
    /// invariant [`BucketedPoly::from_roots`] establishes.
    pub fn from_buckets(buckets: Vec<EncryptedPoly>) -> Result<Self, CryptoError> {
        let Some(first) = buckets.first() else {
            return Err(CryptoError::Malformed("empty bucketed polynomial"));
        };
        let per_bucket = first.len();
        if buckets
            .iter()
            .any(|b| b.len() != per_bucket || b.is_empty())
        {
            return Err(CryptoError::Malformed("uneven polynomial buckets"));
        }
        Ok(EncryptedBucketedPoly { buckets })
    }

    /// Masked evaluation against the bucket of `a` (see
    /// [`EncryptedPoly::eval_masked`]).
    pub fn eval_masked(
        &self,
        a: &Natural,
        payload: &Natural,
        rng: &mut dyn Rng,
    ) -> Result<PaillierCiphertext, CryptoError> {
        self.buckets[bucket_of(a, self.buckets.len())].eval_masked(a, payload, rng)
    }
}

fn nonzero_below(bound: &Natural, rng: &mut dyn Rng) -> Natural {
    loop {
        let r = random_below(rng, bound);
        if !r.is_zero() {
            return r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use crate::paillier::{Paillier, PaillierKeyPair};

    fn n(v: u64) -> Natural {
        Natural::from(v)
    }

    fn setup() -> (PaillierKeyPair, HmacDrbg) {
        (
            Paillier::test_keypair(256, "poly-tests"),
            HmacDrbg::from_label("poly-rng"),
        )
    }

    #[test]
    fn from_roots_small_example() {
        // (2 - x)(3 - x) = 6 - 5x + x^2 over Z_97.
        let m = n(97);
        let p = ZnPoly::from_roots(&[n(2), n(3)], &m);
        assert_eq!(p.coeffs(), &[n(6), n(92), n(1)]); // -5 mod 97 = 92
        assert_eq!(p.degree(), 2);
    }

    #[test]
    fn roots_evaluate_to_zero_non_roots_do_not() {
        let m = n(1_000_003);
        let roots = vec![n(10), n(20), n(30), n(40)];
        let p = ZnPoly::from_roots(&roots, &m);
        for r in &roots {
            assert!(p.eval(r).is_zero());
        }
        assert!(!p.eval(&n(11)).is_zero());
        assert!(!p.eval(&n(0)).is_zero());
    }

    #[test]
    fn empty_product_is_one() {
        let p = ZnPoly::from_roots(&[], &n(97));
        assert_eq!(p.eval(&n(5)), n(1));
        assert_eq!(p.degree(), 0);
    }

    #[test]
    fn duplicate_roots_still_vanish() {
        let m = n(97);
        let p = ZnPoly::from_roots(&[n(7), n(7)], &m);
        assert!(p.eval(&n(7)).is_zero());
    }

    #[test]
    fn encrypted_eval_matches_plaintext_naive_and_horner() {
        let (kp, mut rng) = setup();
        let nmod = kp.public().n().clone();
        let roots = vec![n(100), n(200), n(300)];
        let poly = ZnPoly::from_roots(&roots, &nmod);
        let enc = EncryptedPoly::encrypt(&poly, kp.public(), &mut rng);
        for x in [n(100), n(150), n(300), n(7)] {
            let expected = poly.eval(&x);
            assert_eq!(kp.decrypt(&enc.eval_naive(&x)), expected, "naive at {x}");
            assert_eq!(kp.decrypt(&enc.eval_horner(&x)), expected, "horner at {x}");
        }
    }

    #[test]
    fn masked_eval_reveals_payload_only_at_roots() {
        let (kp, mut rng) = setup();
        let nmod = kp.public().n().clone();
        let roots = vec![n(11), n(22)];
        let poly = ZnPoly::from_roots(&roots, &nmod);
        let enc = EncryptedPoly::encrypt(&poly, kp.public(), &mut rng);
        let payload = n(0xdead_beef);

        // At a root: payload comes back exactly.
        let at_root = enc.eval_masked(&n(11), &payload, &mut rng).unwrap();
        assert_eq!(kp.decrypt(&at_root), payload);

        // Off a root: result is a random-looking value != payload (whp).
        let off_root = enc.eval_masked(&n(12), &payload, &mut rng).unwrap();
        assert_ne!(kp.decrypt(&off_root), payload);
    }

    #[test]
    fn joint_masked_eval_decrypts_to_the_horner_mask_plaintext() {
        let (kp, mut rng) = setup();
        let nmod = kp.public().n().clone();
        let roots: Vec<Natural> = (0..9).map(|i| n(i * 97 + 5)).collect();
        let poly = ZnPoly::from_roots(&roots, &nmod);
        let bp = BucketedPoly::from_roots(&roots, &nmod, 3);
        let flat = EncryptedPoly::encrypt(&poly, kp.public(), &mut rng);
        let bucketed = EncryptedBucketedPoly::encrypt(&bp, kp.public(), &mut rng);
        let payload = n(0xfeed);
        // Roots, non-roots, zero and a point shaped like the protocol's
        // roots (a SHA-256 digest).
        let wide = Natural::from_bytes_be(&sha256(b"join value")).rem(&nmod);
        for (i, a) in [n(5), n(102), n(6), n(0), wide].iter().enumerate() {
            let label = format!("mask-draw/{i}");
            // r as `mask` draws it, from an identically seeded DRBG.
            let r = nonzero_below(&nmod, &mut HmacDrbg::from_label(&label));
            let bucket = &bucketed.buckets()[bucket_of(a, bucketed.num_buckets())];
            let (mut flat_rng, mut bucketed_rng) =
                (HmacDrbg::from_label(&label), HmacDrbg::from_label(&label));
            let evaluations = [
                (
                    &flat,
                    flat.eval_masked(a, &payload, &mut flat_rng),
                    flat_rng,
                    poly.eval(a),
                ),
                (
                    bucket,
                    bucketed.eval_masked(a, &payload, &mut bucketed_rng),
                    bucketed_rng,
                    bp.eval(a),
                ),
            ];
            for (enc, joint, mut joint_rng, p_at_a) in evaluations {
                let want = r.modmul(&p_at_a, &nmod).modadd(&payload, &nmod);
                let mut horner_rng = HmacDrbg::from_label(&label);
                let horner = enc.mask(&enc.eval_horner(a), &payload, &mut horner_rng);
                assert_eq!(kp.decrypt(&horner.unwrap()), want, "horner at {a}");
                assert_eq!(kp.decrypt(&joint.unwrap()), want, "joint at {a}");
                // Both paths leave the DRBG at the same position.
                assert_eq!(joint_rng.next_u64(), horner_rng.next_u64(), "at {a}");
            }
        }
    }

    #[test]
    fn joint_masked_eval_counts_as_horner_plus_mask() {
        use crate::metrics::{census, registry_counters};
        fn census_of(f: impl FnOnce()) -> Vec<(Op, u64)> {
            let run = secmed_obs::run::open(false, registry_counters());
            f();
            census(run.census())
        }
        let (kp, mut rng) = setup();
        let nmod = kp.public().n().clone();
        let payload = n(99);
        for degree in [0u64, 1, 6] {
            let roots: Vec<Natural> = (0..degree).map(|i| n(i * 13 + 2)).collect();
            let enc =
                EncryptedPoly::encrypt(&ZnPoly::from_roots(&roots, &nmod), kp.public(), &mut rng);
            let a = n(1234);
            let joint = census_of(|| {
                let masked = enc.eval_masked(&a, &payload, &mut HmacDrbg::from_label("census"));
                assert!(masked.is_ok());
            });
            let horner = census_of(|| {
                let mut drbg = HmacDrbg::from_label("census");
                let masked = enc.mask(&enc.eval_horner(&a), &payload, &mut drbg);
                assert!(masked.is_ok());
            });
            assert_eq!(joint, horner, "degree {degree}");
            let of = |op| joint.iter().find(|&&(o, _)| o == op).map_or(0, |&(_, c)| c);
            assert_eq!(
                [
                    of(Op::PaillierScale),
                    of(Op::PaillierAdd),
                    of(Op::RandomMask)
                ],
                [degree + 1, degree + 1, 1],
                "degree {degree}"
            );
        }
    }

    #[test]
    fn joint_masked_evals_are_identical_at_any_thread_count() {
        use crate::drbg::DrbgFamily;
        use secmed_pool::Pool;
        let (kp, mut rng) = setup();
        let pk = kp.public();
        let roots: Vec<Natural> = (0..8).map(|i| n(i * 31 + 5)).collect();
        let flat = EncryptedPoly::encrypt(&ZnPoly::from_roots(&roots, pk.n()), pk, &mut rng);
        let bucketed = EncryptedBucketedPoly::encrypt(
            &BucketedPoly::from_roots(&roots, pk.n(), 2),
            pk,
            &mut rng,
        );
        // Roots and their successors.
        let points: Vec<Natural> = (0..12).map(|i| n(i / 2 * 31 + 5 + i % 2)).collect();
        let payload = n(7);
        let fresh = |p: &EncryptedPoly| {
            EncryptedPoly::from_ciphertexts(p.ciphertexts().to_vec(), pk).unwrap()
        };
        let evals = |flat: &EncryptedPoly, bucketed: &EncryptedBucketedPoly, threads| {
            let fam = DrbgFamily::derive(&mut HmacDrbg::from_label("joint-par"));
            Pool::with_threads(threads).par_map(&points, |i, a| {
                let flat_eval = flat.eval_masked(a, &payload, &mut fam.stream(2 * i as u64));
                let bucketed_eval =
                    bucketed.eval_masked(a, &payload, &mut fam.stream(2 * i as u64 + 1));
                (flat_eval.unwrap(), bucketed_eval.unwrap())
            })
        };
        // Every run starts without tables, so the pool worker that
        // reaches a polynomial first builds them.
        let unbuilt = |threads| {
            let buckets = bucketed.buckets().iter().map(fresh).collect();
            let bucketed = EncryptedBucketedPoly::from_buckets(buckets).unwrap();
            evals(&fresh(&flat), &bucketed, threads)
        };
        let sequential = unbuilt(1);
        assert_eq!(sequential, unbuilt(2));
        assert_eq!(sequential, unbuilt(8));
        // Nor does it matter that the calling thread built the tables: the
        // 8-thread run reuses the ones the sequential run left behind.
        assert_eq!(sequential, evals(&flat, &bucketed, 1));
        assert_eq!(sequential, evals(&flat, &bucketed, 8));
    }

    #[test]
    fn masked_eval_rejects_oversized_payload() {
        let (kp, mut rng) = setup();
        let nmod = kp.public().n().clone();
        let poly = ZnPoly::from_roots(&[n(1)], &nmod);
        let enc = EncryptedPoly::encrypt(&poly, kp.public(), &mut rng);
        let huge = kp.public().n().clone();
        assert_eq!(
            enc.eval_masked(&n(1), &huge, &mut rng),
            Err(CryptoError::MessageTooLarge)
        );
    }

    #[test]
    fn bucketed_buckets_are_padded_to_equal_degree() {
        let m = n(1_000_003);
        let roots: Vec<Natural> = (0..50).map(|i| n(i * 13 + 1)).collect();
        let bp = BucketedPoly::from_roots(&roots, &m, 8);
        assert_eq!(bp.num_buckets(), 8);
        let d = bp.bucket_degree();
        assert!(bp.buckets().iter().all(|b| b.degree() == d));
        assert!(
            d < roots.len(),
            "bucketing reduced the per-evaluation degree"
        );
    }

    #[test]
    fn bucketed_eval_vanishes_exactly_at_roots() {
        let m = n(1_000_003);
        let roots: Vec<Natural> = (0..30).map(|i| n(i * 7 + 3)).collect();
        let bp = BucketedPoly::from_roots(&roots, &m, 4);
        for r in &roots {
            assert!(bp.eval(r).is_zero(), "root {r}");
        }
        assert!(!bp.eval(&n(5)).is_zero());
    }

    #[test]
    fn encrypted_bucketed_matches_plaintext() {
        let (kp, mut rng) = setup();
        let nmod = kp.public().n().clone();
        let roots = vec![n(5), n(6), n(7), n(8), n(9)];
        let bp = BucketedPoly::from_roots(&roots, &nmod, 3);
        let enc = EncryptedBucketedPoly::encrypt(&bp, kp.public(), &mut rng);
        let payload = n(424242);
        let hit = enc.eval_masked(&n(7), &payload, &mut rng).unwrap();
        assert_eq!(kp.decrypt(&hit), payload);
        let miss = enc.eval_masked(&n(1000), &payload, &mut rng).unwrap();
        assert_ne!(kp.decrypt(&miss), payload);
    }

    #[test]
    fn bucket_of_is_stable_and_in_range() {
        for v in 0..100u64 {
            let b = bucket_of(&n(v), 7);
            assert!(b < 7);
            assert_eq!(b, bucket_of(&n(v), 7));
        }
    }

    #[test]
    fn parallel_encryption_is_identical_at_any_thread_count() {
        use crate::drbg::DrbgFamily;
        use secmed_pool::Pool;
        let (kp, _) = setup();
        let nmod = kp.public().n().clone();
        let roots: Vec<Natural> = (0..12).map(|i| n(i * 31 + 5)).collect();
        let poly = ZnPoly::from_roots(&roots, &nmod);
        let bp = BucketedPoly::from_roots(&roots, &nmod, 4);
        let flat_at = |threads: usize| {
            let mut parent = HmacDrbg::from_label("par-enc");
            let fam = DrbgFamily::derive(&mut parent);
            let enc =
                EncryptedPoly::encrypt_par(&poly, kp.public(), &Pool::with_threads(threads), &fam);
            enc.ciphertexts().to_vec()
        };
        let bucketed_at = |threads: usize| {
            let mut parent = HmacDrbg::from_label("par-enc");
            let fam = DrbgFamily::derive(&mut parent);
            let enc = EncryptedBucketedPoly::encrypt_par(
                &bp,
                kp.public(),
                &Pool::with_threads(threads),
                &fam,
            );
            enc.buckets
                .iter()
                .flat_map(|b| b.ciphertexts().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(flat_at(1), flat_at(2));
        assert_eq!(flat_at(1), flat_at(8));
        assert_eq!(bucketed_at(1), bucketed_at(2));
        assert_eq!(bucketed_at(1), bucketed_at(8));
        // And the parallel ciphertexts still decrypt to the coefficients.
        let enc = EncryptedPoly::from_ciphertexts(flat_at(4), kp.public()).unwrap();
        for r in &roots {
            assert!(kp.decrypt(&enc.eval_horner(r)).is_zero());
        }
    }

    #[test]
    fn transport_roundtrip() {
        let (kp, mut rng) = setup();
        let nmod = kp.public().n().clone();
        let poly = ZnPoly::from_roots(&[n(3), n(4)], &nmod);
        let enc = EncryptedPoly::encrypt(&poly, kp.public(), &mut rng);
        let rebuilt =
            EncryptedPoly::from_ciphertexts(enc.ciphertexts().to_vec(), kp.public()).unwrap();
        assert_eq!(kp.decrypt(&rebuilt.eval_horner(&n(3))), Natural::zero());
        assert!(EncryptedPoly::from_ciphertexts(vec![], kp.public()).is_err());
    }
}
