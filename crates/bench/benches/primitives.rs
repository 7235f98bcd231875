//! The two primitive ablations EXPERIMENTS.md cites: Paillier CRT vs
//! textbook decryption, and exponential ElGamal vs Paillier (the paper's
//! alternative §5 instantiation).  Per-call costs of the other primitives
//! are the repository benchmark's `crypto.*_us` calibrations.

use mpint::Natural;
use secmed_crypto::drbg::HmacDrbg;
use secmed_crypto::group::{GroupSize, SafePrimeGroup};
use secmed_crypto::paillier::Paillier;
use secmed_obs::bench::{black_box, cli_filter, Bench, Suite};

fn bench_paillier(filter: &Option<String>) {
    let mut rng = HmacDrbg::from_label("bench-paillier");
    let mut suite = Suite::new("paillier").filter(filter.clone());
    for bits in [512u64, 1024] {
        let kp = Paillier::test_keypair(bits, &format!("bench-{bits}"));
        let m = Natural::from(123_456u64);
        suite.bench(Bench::new(format!("encrypt/{bits}")), || {
            black_box(kp.public().encrypt(&m, &mut rng).unwrap());
        });
        let ct = kp.public().encrypt(&m, &mut rng).unwrap();
        suite.bench(Bench::new(format!("decrypt-crt/{bits}")), || {
            black_box(kp.decrypt(&ct));
        });
        suite.bench(Bench::new(format!("decrypt-plain/{bits}")), || {
            black_box(kp.decrypt_plain(&ct));
        });
        suite.bench(Bench::new(format!("add/{bits}")), || {
            black_box(kp.public().add(&ct, &ct));
        });
        let gamma = Natural::from(0xffff_ffffu64);
        suite.bench(Bench::new(format!("scale/{bits}")), || {
            black_box(kp.public().scale(&ct, &gamma));
        });
    }
    suite.finish();
}

/// The paper's alternative homomorphic instantiation (§5): exponential
/// ElGamal vs Paillier on the same operations.
fn bench_exp_elgamal(filter: &Option<String>) {
    use secmed_crypto::exp_elgamal::ExpElGamalKeyPair;
    let mut rng = HmacDrbg::from_label("bench-expeg");
    let kp = ExpElGamalKeyPair::generate(SafePrimeGroup::preset(GroupSize::S512), &mut rng);
    let m = Natural::from(12_345u64);
    let mut suite = Suite::new("exp_elgamal").filter(filter.clone());
    suite.bench(Bench::new("encrypt/512"), || {
        black_box(kp.public().encrypt(&m, &mut rng));
    });
    let ct = kp.public().encrypt(&m, &mut rng);
    suite.bench(Bench::new("add/512"), || {
        black_box(kp.public().add(&ct, &ct));
    });
    suite.bench(Bench::new("scale/512"), || {
        black_box(kp.public().scale(&ct, &Natural::from(999u64)));
    });
    suite.bench(Bench::new("decrypt-bsgs-64k/512"), || {
        black_box(kp.decrypt(&ct, 65_536).unwrap());
    });
    suite.bench(Bench::new("zero-test/512"), || {
        black_box(kp.decrypts_to_zero(&ct));
    });
    suite.finish();
}

fn main() {
    let filter = cli_filter();
    bench_paillier(&filter);
    bench_exp_elgamal(&filter);
}
