//! Experiment S5a (DESIGN.md): the PM protocol's expensive step is the
//! encrypted polynomial evaluation; Freedman et al.'s tricks make it
//! tractable.  This bench compares, at growing domain sizes:
//!
//! * naive power-sum evaluation,
//! * Horner's rule, alone and followed by the mask (`horner+mask`),
//! * the joint evaluation the protocol runs (`joint`: the masked point as
//!   one multi-base exponentiation),
//! * bucket allocation (per-evaluation degree drops to ~n/B), which also
//!   runs the joint evaluation.
//!
//! The point is shaped like the protocol's roots: SHA-256 of a join key,
//! reduced mod n, so 256 bits.

use std::time::Duration;

use mpint::Natural;
use secmed_crypto::drbg::HmacDrbg;
use secmed_crypto::paillier::Paillier;
use secmed_crypto::polynomial::{BucketedPoly, EncryptedBucketedPoly, EncryptedPoly, ZnPoly};
use secmed_crypto::sha256::sha256;
use secmed_obs::bench::{black_box, cli_filter, Bench, Suite};

fn roots(n: usize) -> Vec<Natural> {
    (0..n as u64)
        .map(|i| Natural::from(i * 7919 + 13))
        .collect()
}

/// These measurements are expensive per iteration, so fewer samples with a
/// shorter warmup (criterion's former `sample_size(10)` configuration).
fn slow(name: String) -> Bench {
    Bench::new(name)
        .samples(10)
        .warmup(Duration::from_millis(500))
}

fn bench_eval_strategies(filter: &Option<String>) {
    let kp = Paillier::test_keypair(512, "bench-poly");
    let pk = kp.public();
    let mut rng = HmacDrbg::from_label("bench-poly-rng");
    let mut suite = Suite::new("pm_eval").filter(filter.clone());

    for degree in [8usize, 32, 128] {
        let rs = roots(degree);
        let poly = ZnPoly::from_roots(&rs, pk.n());
        let enc = EncryptedPoly::encrypt(&poly, pk, &mut rng);
        let point = Natural::from_bytes_be(&sha256(b"join key")).rem(pk.n());
        let payload = Natural::from(1u64);

        suite.bench(slow(format!("naive/{degree}")), || {
            black_box(enc.eval_naive(&point));
        });
        suite.bench(slow(format!("horner/{degree}")), || {
            black_box(enc.eval_horner(&point));
        });
        suite.bench(slow(format!("horner+mask/{degree}")), || {
            let p_at_a = enc.eval_horner(&point);
            black_box(enc.mask(&p_at_a, &payload, &mut rng).unwrap());
        });
        // The warmup builds the polynomial's tables, once, as the first
        // point of a protocol run does.
        suite.bench(slow(format!("joint/{degree}")), || {
            black_box(enc.eval_masked(&point, &payload, &mut rng).unwrap());
        });

        let buckets = (degree / 8).max(1);
        let bp = BucketedPoly::from_roots(&rs, pk.n(), buckets);
        let benc = EncryptedBucketedPoly::encrypt(&bp, pk, &mut rng);
        suite.bench(slow(format!("bucketed-B{buckets}/{degree}")), || {
            black_box(benc.eval_masked(&point, &payload, &mut rng).unwrap());
        });
    }
    suite.finish();
}

fn bench_coefficient_encryption(filter: &Option<String>) {
    let kp = Paillier::test_keypair(512, "bench-poly-enc");
    let pk = kp.public();
    let mut rng = HmacDrbg::from_label("bench-poly-enc-rng");
    let mut suite = Suite::new("pm_encrypt_coeffs").filter(filter.clone());
    for degree in [8usize, 32, 128] {
        let poly = ZnPoly::from_roots(&roots(degree), pk.n());
        suite.bench(slow(format!("{degree}")), || {
            black_box(EncryptedPoly::encrypt(&poly, pk, &mut rng));
        });
    }
    suite.finish();
}

fn main() {
    let filter = cli_filter();
    bench_eval_strategies(&filter);
    bench_coefficient_encryption(&filter);
}
