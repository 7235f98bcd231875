//! Big-integer ablations (DESIGN.md §3):
//!
//! * one Montgomery product, the unit every exponentiation path counts,
//! * Montgomery vs plain division-based modular exponentiation — justifies
//!   the Montgomery context every cryptosystem leans on,
//! * fixed-base tables vs the Montgomery ladder — justifies the `g` table
//!   every group caches and the recipient table DAS sources build,
//! * one joint exponentiation over nine bases — the per-point cost of a
//!   degree-8 PM evaluation, which shares one run of squarings between
//!   the nine factors,
//! * Karatsuba/schoolbook multiplication across operand sizes — justifies
//!   the threshold in `mpint::mul`.

use mpint::{FixedBase, Montgomery, MultiBase, Natural};
use secmed_crypto::drbg::HmacDrbg;
use secmed_obs::bench::{black_box, cli_filter, Bench, Suite};

fn random_odd(bits: u64, rng: &mut HmacDrbg) -> Natural {
    let mut n = mpint::random::random_bits(rng, bits);
    n.set_bit(0, true);
    n
}

fn bench_modpow(filter: &Option<String>) {
    let mut rng = HmacDrbg::from_label("bench-modpow");
    let mut suite = Suite::new("modpow").filter(filter.clone());
    for bits in [256u64, 512, 1024] {
        let m = random_odd(bits, &mut rng);
        let base = mpint::random::random_below(&mut rng, &m);
        let exp = mpint::random::random_bits(&mut rng, bits);
        let ctx = Montgomery::new(m.clone());
        let (am, bm) = (ctx.to_mont(&base), ctx.to_mont(&exp));
        suite.bench(Bench::new(format!("mont-mul/{bits}")), || {
            black_box(ctx.mont_mul(&am, &bm));
        });
        suite.bench(Bench::new(format!("montgomery/{bits}")), || {
            black_box(ctx.modpow(&base, &exp));
        });
        // The table is built once, outside the timed loop, as a group or
        // a DAS source builds it once per batch.
        let table = FixedBase::new(&ctx, &base);
        suite.bench(Bench::new(format!("fixed-base/{bits}")), || {
            black_box(table.pow(&exp));
        });
        suite.bench(Bench::new(format!("plain-division/{bits}")), || {
            black_box(base.modpow_plain(&exp, &m));
        });
    }
    // A degree-8 PM point: nine coefficient ciphertexts modulo a 1024-bit
    // n^2, exponents r·a^k mod n below the 512-bit n.  The tables are built
    // once, outside the timed loop, as a polynomial builds them once for
    // all its points.
    let m = random_odd(1024, &mut rng);
    let bases: Vec<Natural> = (0..9)
        .map(|_| mpint::random::random_below(&mut rng, &m))
        .collect();
    let exps: Vec<Natural> = (0..9)
        .map(|_| mpint::random::random_bits(&mut rng, 512))
        .collect();
    let tables = MultiBase::new(&Montgomery::new(m), &bases);
    suite.bench(Bench::new("multi-pow/9x1024"), || {
        black_box(tables.pow(&exps, 512).expect("one exponent per base"));
    });
    suite.finish();
}

fn bench_mul(filter: &Option<String>) {
    let mut rng = HmacDrbg::from_label("bench-mul");
    let mut suite = Suite::new("mul").filter(filter.clone());
    for limbs in [8u64, 32, 64, 128, 256] {
        let a = mpint::random::random_bits(&mut rng, limbs * 64);
        let b = mpint::random::random_bits(&mut rng, limbs * 64);
        suite.bench(Bench::new(format!("auto/{limbs}")), || {
            black_box(&a * &b);
        });
    }
    suite.finish();
}

fn main() {
    let filter = cli_filter();
    bench_modpow(&filter);
    bench_mul(&filter);
}
