//! Thread-pool scaling of the protocols' hot loops: PM encrypted
//! polynomial evaluation, Paillier coefficient encryption, and the
//! commutative protocol's SRA re-encryption pass, each at 1, 2, and 4
//! worker threads.
//!
//! The work items are identical at every thread count (same DRBG streams,
//! same inputs), so the only variable is scheduling — the measured ratio
//! is the pool's parallel speedup.  Results, including the host's
//! available parallelism (speedups cannot exceed it; a single-core host
//! reports ~1.0× regardless of thread count), are written as JSONL to
//! `target/bench/pool_scaling.jsonl`.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use mpint::Natural;
use secmed_crypto::drbg::{DrbgFamily, HmacDrbg};
use secmed_crypto::group::{GroupSize, SafePrimeGroup};
use secmed_crypto::paillier::Paillier;
use secmed_crypto::polynomial::{EncryptedPoly, ZnPoly};
use secmed_crypto::{SraCipher, SraDomain};
use secmed_obs::bench::{black_box, cli_filter, Bench, BenchResult, Suite};
use secmed_obs::json::Json;
use secmed_pool::Pool;

const THREADS: [usize; 3] = [1, 2, 4];

fn slow(name: String) -> Bench {
    Bench::new(name)
        .samples(10)
        .warmup(Duration::from_millis(300))
}

fn roots(n: usize) -> Vec<Natural> {
    (0..n as u64)
        .map(|i| Natural::from(i * 7919 + 13))
        .collect()
}

/// PM hot loop 1: evaluating the opposite source's encrypted polynomial at
/// every own active value (Horner's rule per point, points fanned out).
fn bench_pm_eval(filter: &Option<String>, results: &mut Vec<BenchResult>) {
    let kp = Paillier::test_keypair(512, "pool-scaling-pm");
    let pk = kp.public();
    let mut rng = HmacDrbg::from_label("pool-scaling-pm-rng");
    let poly = ZnPoly::from_roots(&roots(48), pk.n());
    let enc = EncryptedPoly::encrypt(&poly, pk, &mut rng);
    let points: Vec<Natural> = (0..24u64).map(|i| Natural::from(i * 104_729 + 7)).collect();

    let mut suite = Suite::new("pool_scaling/pm_eval").filter(filter.clone());
    for threads in THREADS {
        let pool = Pool::with_threads(threads);
        suite.bench(slow(format!("horner-x24/t{threads}")), || {
            black_box(pool.par_map(&points, |_, p| enc.eval_horner(p)));
        });
    }
    results.extend(suite.finish());
}

/// PM hot loop 2: Paillier-encrypting the polynomial coefficients with
/// per-coefficient DRBG streams.
fn bench_coeff_encrypt(filter: &Option<String>, results: &mut Vec<BenchResult>) {
    let kp = Paillier::test_keypair(512, "pool-scaling-enc");
    let pk = kp.public();
    let poly = ZnPoly::from_roots(&roots(48), pk.n());

    let mut suite = Suite::new("pool_scaling/pm_encrypt").filter(filter.clone());
    for threads in THREADS {
        let pool = Pool::with_threads(threads);
        suite.bench(slow(format!("coeffs-48/t{threads}")), || {
            let mut parent = HmacDrbg::from_label("pool-scaling-enc-rng");
            let streams = DrbgFamily::derive(&mut parent);
            black_box(EncryptedPoly::encrypt_par(&poly, pk, &pool, &streams));
        });
    }
    results.extend(suite.finish());
}

/// Commutative hot loop: the double-encryption pass — applying one
/// source's SRA exponent to the other source's already-encrypted hashes.
fn bench_sra_pass(filter: &Option<String>, results: &mut Vec<BenchResult>) {
    let domain = SraDomain::new(SafePrimeGroup::preset(GroupSize::S512));
    let mut rng = HmacDrbg::from_label("pool-scaling-sra");
    let s1 = SraCipher::generate(domain.clone(), &mut rng);
    let s2 = SraCipher::generate(domain, &mut rng);
    let singles: Vec<Natural> = (0..32u64)
        .map(|i| s2.encrypt_value(&i.to_be_bytes()))
        .collect();

    let mut suite = Suite::new("pool_scaling/sra_pass").filter(filter.clone());
    for threads in THREADS {
        let pool = Pool::with_threads(threads);
        suite.bench(slow(format!("double-x32/t{threads}")), || {
            black_box(pool.par_map(&singles, |_, h| s1.encrypt(h)));
        });
    }
    results.extend(suite.finish());
}

fn main() {
    let filter = cli_filter();
    let mut results: Vec<BenchResult> = Vec::new();
    bench_pm_eval(&filter, &mut results);
    bench_coeff_encrypt(&filter, &mut results);
    bench_sra_pass(&filter, &mut results);

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // Speedup per measurement relative to its group's t1 baseline.
    let baseline = |name: &str| -> Option<f64> {
        let stem = name.split("/t").next()?;
        results
            .iter()
            .find(|r| r.name.starts_with(stem) && r.name.ends_with("/t1"))
            .map(|r| r.summary.mean)
    };

    let mut jsonl = String::new();
    for r in &results {
        let speedup = baseline(&r.name).map(|b| b / r.summary.mean);
        jsonl.push_str(
            &Json::obj([
                ("experiment", Json::Str("pool-scaling".to_string())),
                ("name", Json::Str(r.name.clone())),
                ("mean_ns", Json::Float(r.summary.mean)),
                ("median_ns", Json::Float(r.summary.median)),
                ("speedup_vs_t1", speedup.map_or(Json::Null, Json::Float)),
                ("available_parallelism", Json::UInt(cores as u64)),
            ])
            .render(),
        );
        jsonl.push('\n');
    }
    // `cargo bench` runs with the package dir as cwd; anchor the output
    // under the workspace-level target/ so all artifacts land together.
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/bench");
    fs::create_dir_all(&out_dir).expect("create target/bench");
    let path = out_dir.join("pool_scaling.jsonl");
    fs::write(&path, jsonl).expect("write pool_scaling JSONL");
    println!("host parallelism: {cores}; jsonl: {}", path.display());
}
