//! Property-based tests for the big-integer substrate: ring laws checked
//! against `u128` reference arithmetic and against internal consistency on
//! operands far beyond 128 bits.

use mpint::{numtheory, Natural};
use secmed_testkit::{cases, Gen, DEFAULT_CASES};

/// An arbitrary Natural up to ~6 limbs, built from raw limbs.
fn natural(g: &mut Gen) -> Natural {
    let limbs = g.usize_in(0, 5);
    Natural::from_limbs(g.vec_of(limbs, |g| g.u64()))
}

/// A non-zero Natural.
fn natural_nonzero(g: &mut Gen) -> Natural {
    loop {
        let n = natural(g);
        if !n.is_zero() {
            return n;
        }
    }
}

/// A uniform `u128`.
fn u128_any(g: &mut Gen) -> u128 {
    ((g.u64() as u128) << 64) | g.u64() as u128
}

#[test]
fn add_matches_u128() {
    cases(DEFAULT_CASES, "add_matches_u128", |g| {
        let (a, b) = (g.u64(), g.u64());
        let sum = Natural::from(a) + Natural::from(b);
        assert_eq!(sum, Natural::from(a as u128 + b as u128));
    });
}

#[test]
fn mul_matches_u128() {
    cases(DEFAULT_CASES, "mul_matches_u128", |g| {
        let (a, b) = (g.u64(), g.u64());
        let prod = Natural::from(a) * Natural::from(b);
        assert_eq!(prod, Natural::from(a as u128 * b as u128));
    });
}

#[test]
fn div_matches_u128() {
    cases(DEFAULT_CASES, "div_matches_u128", |g| {
        let a = u128_any(g);
        let b = 1 + g.u64_below(u64::MAX);
        let (q, r) = Natural::from(a).div_rem(&Natural::from(b));
        assert_eq!(q, Natural::from(a / b as u128));
        assert_eq!(r, Natural::from(a % b as u128));
    });
}

#[test]
fn add_commutative() {
    cases(DEFAULT_CASES, "add_commutative", |g| {
        let (a, b) = (natural(g), natural(g));
        assert_eq!(&a + &b, &b + &a);
    });
}

#[test]
fn add_associative() {
    cases(DEFAULT_CASES, "add_associative", |g| {
        let (a, b, c) = (natural(g), natural(g), natural(g));
        assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    });
}

#[test]
fn mul_commutative() {
    cases(DEFAULT_CASES, "mul_commutative", |g| {
        let (a, b) = (natural(g), natural(g));
        assert_eq!(&a * &b, &b * &a);
    });
}

#[test]
fn mul_distributes_over_add() {
    cases(DEFAULT_CASES, "mul_distributes_over_add", |g| {
        let (a, b, c) = (natural(g), natural(g), natural(g));
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    });
}

#[test]
fn sub_inverts_add() {
    cases(DEFAULT_CASES, "sub_inverts_add", |g| {
        let (a, b) = (natural(g), natural(g));
        assert_eq!(&(&a + &b) - &b, a);
    });
}

#[test]
fn div_rem_reconstructs() {
    cases(DEFAULT_CASES, "div_rem_reconstructs", |g| {
        let (a, b) = (natural(g), natural_nonzero(g));
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(&q * &b + &r, a);
    });
}

#[test]
fn shifts_are_mul_div_by_powers_of_two() {
    cases(DEFAULT_CASES, "shifts_are_mul_div_by_powers_of_two", |g| {
        let a = natural(g);
        let s = g.u64_below(200);
        let two_s = Natural::one().shl_bits(s);
        assert_eq!(a.shl_bits(s), &a * &two_s);
        assert_eq!(a.shr_bits(s), a.div_rem(&two_s).0);
    });
}

#[test]
fn decimal_roundtrip() {
    cases(DEFAULT_CASES, "decimal_roundtrip", |g| {
        let a = natural(g);
        let s = a.to_decimal();
        assert_eq!(Natural::from_decimal(&s).unwrap(), a);
    });
}

#[test]
fn hex_roundtrip() {
    cases(DEFAULT_CASES, "hex_roundtrip", |g| {
        let a = natural(g);
        let s = a.to_hex();
        assert_eq!(Natural::from_hex(&s).unwrap(), a);
    });
}

#[test]
fn bytes_roundtrip() {
    cases(DEFAULT_CASES, "bytes_roundtrip", |g| {
        let a = natural(g);
        assert_eq!(Natural::from_bytes_be(&a.to_bytes_be()), a);
    });
}

#[test]
fn bit_len_bounds() {
    cases(DEFAULT_CASES, "bit_len_bounds", |g| {
        let a = natural_nonzero(g);
        let bits = a.bit_len();
        assert!(Natural::one().shl_bits(bits - 1) <= a);
        assert!(a < Natural::one().shl_bits(bits));
    });
}

#[test]
fn gcd_divides_both() {
    cases(DEFAULT_CASES, "gcd_divides_both", |g| {
        let (a, b) = (natural_nonzero(g), natural_nonzero(g));
        let gg = numtheory::gcd(&a, &b);
        assert!(a.rem(&gg).is_zero());
        assert!(b.rem(&gg).is_zero());
    });
}

#[test]
fn gcd_matches_u128() {
    fn ref_gcd(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }
    cases(DEFAULT_CASES, "gcd_matches_u128", |g| {
        let a = u128_any(g).max(1);
        let b = u128_any(g).max(1);
        let gg = numtheory::gcd(&Natural::from(a), &Natural::from(b));
        assert_eq!(gg, Natural::from(ref_gcd(a, b)));
    });
}

#[test]
fn extended_gcd_is_bezout() {
    cases(DEFAULT_CASES, "extended_gcd_is_bezout", |g| {
        use mpint::Int;
        let (a, b) = (natural_nonzero(g), natural_nonzero(g));
        let (gg, x, y) = numtheory::extended_gcd(&a, &b);
        let lhs = &(&Int::from(a) * &x) + &(&Int::from(b) * &y);
        assert_eq!(lhs, Int::from(gg));
    });
}

#[test]
fn modinv_is_inverse() {
    cases(DEFAULT_CASES, "modinv_is_inverse", |g| {
        let a = natural_nonzero(g);
        let m = natural(g);
        // Pick an odd modulus >= 3 so inverses usually exist.
        let m = &(&m * &Natural::from(2u64)) + &Natural::from(3u64);
        if let Ok(inv) = numtheory::modinv(&a, &m) {
            assert_eq!(a.rem(&m).modmul(&inv, &m), Natural::one().rem(&m));
        }
    });
}

#[test]
fn modpow_matches_plain() {
    cases(DEFAULT_CASES, "modpow_matches_plain", |g| {
        let a = natural(g);
        let e = g.u32();
        let m = natural_nonzero(g);
        // Force the modulus odd so the Montgomery path is taken.
        let m = if m.is_even() { m + Natural::one() } else { m };
        if m.is_one() {
            return;
        }
        let e = Natural::from(e as u64);
        assert_eq!(a.modpow(&e, &m), a.modpow_plain(&e, &m));
    });
}

#[test]
fn modpow_respects_exponent_addition() {
    cases(DEFAULT_CASES, "modpow_respects_exponent_addition", |g| {
        let a = natural(g);
        let e1 = g.u32() as u16;
        let e2 = g.u32() as u16;
        let m = natural_nonzero(g);
        let m = if m.is_even() { m + Natural::one() } else { m };
        if m.is_one() {
            return;
        }
        let p1 = a.modpow(&Natural::from(e1 as u64), &m);
        let p2 = a.modpow(&Natural::from(e2 as u64), &m);
        let sum = a.modpow(&Natural::from(e1 as u64 + e2 as u64), &m);
        assert_eq!(p1.modmul(&p2, &m), sum);
    });
}

#[test]
fn jacobi_is_multiplicative() {
    cases(DEFAULT_CASES, "jacobi_is_multiplicative", |g| {
        let a = 1 + g.u64_below(9_999);
        let b = 1 + g.u64_below(9_999);
        let n = Natural::from(2 * g.u64_below(5_000) + 3); // odd, >= 3
        let ja = numtheory::jacobi(&Natural::from(a), &n);
        let jb = numtheory::jacobi(&Natural::from(b), &n);
        let jab = numtheory::jacobi(&Natural::from(a as u128 * b as u128), &n);
        assert_eq!(jab, ja * jb);
    });
}

#[test]
fn montgomery_matches_plain_on_random_odd_moduli() {
    cases(
        DEFAULT_CASES,
        "montgomery_matches_plain_on_random_odd_moduli",
        |g| {
            use mpint::Montgomery;
            let a = u128_any(g);
            let b = u128_any(g);
            let m = Natural::from(u128_any(g).max(1) | 1); // force odd
            if m.is_one() {
                return;
            }
            let ctx = Montgomery::new(m.clone());
            let am = ctx.to_mont(&Natural::from(a));
            let bm = ctx.to_mont(&Natural::from(b));
            let prod = ctx.from_mont(&ctx.mont_mul(&am, &bm));
            assert_eq!(prod, Natural::from(a).modmul(&Natural::from(b), &m));
        },
    );
}

#[test]
fn fixed_base_matches_plain_on_random_odd_moduli() {
    cases(
        DEFAULT_CASES,
        "fixed_base_matches_plain_on_random_odd_moduli",
        |g| {
            use mpint::{FixedBase, Montgomery};
            let limbs = g.usize_in(1, 8);
            let mut m = Natural::from_limbs(g.vec_of(limbs, |g| g.u64()));
            m.set_bit(0, true);
            if m.is_one() {
                return;
            }
            let base = natural(g);
            let table = FixedBase::new(&Montgomery::new(m.clone()), &base);
            // The table covers the modulus width rounded up to whole nibbles.
            let width = m.bit_len().div_ceil(4) * 4;
            let all_ones = Natural::one().shl_bits(width) - Natural::one();
            let wider = Natural::one().shl_bits(width) + natural(g);
            for e in [Natural::zero(), Natural::one(), all_ones, wider, natural(g)] {
                assert_eq!(table.pow(&e), base.modpow_plain(&e, &m), "e={e}");
            }
        },
    );
}

/// An odd modulus of exactly `limbs` limbs in one of three shapes: random
/// (shape 0), just below `2^(64 * limbs)` (1), where the product's top
/// carry and final subtraction fire most, and just above
/// `2^(64 * limbs - 1)` (2).
fn odd_modulus(g: &mut Gen, limbs: usize, shape: usize) -> Natural {
    let bits = 64 * limbs as u64;
    let small = Natural::from(g.u64_below(1 << 16));
    let mut m = match shape {
        0 => {
            let mut m = Natural::from_limbs(g.vec_of(limbs, |g| g.u64()));
            m.set_bit(bits - 1, true);
            m
        }
        1 => Natural::one().shl_bits(bits) - Natural::one() - small,
        _ => Natural::one().shl_bits(bits - 1) + small,
    };
    m.set_bit(0, true);
    m
}

#[test]
fn montgomery_product_and_exponentiations_match_plain_at_every_width() {
    use mpint::random::{random_below, random_bits};
    use mpint::{FixedBase, Montgomery};
    cases(
        2,
        "montgomery_product_and_exponentiations_match_plain_at_every_width",
        |g| {
            for limbs in 1..=16 {
                for shape in 0..3 {
                    let m = odd_modulus(g, limbs, shape);
                    assert_eq!(m.limbs().len(), limbs);
                    let ctx = Montgomery::new(m.clone());
                    // The product: mont_mul(a, b) * R = a * b (mod m), reduced.
                    let r = Natural::one().shl_bits(64 * limbs as u64);
                    let top = &m - &Natural::one();
                    let a = random_below(g.rng(), &m);
                    let b = random_below(g.rng(), &m);
                    for (a, b) in [(&a, &b), (&top, &top), (&top, &a), (&Natural::zero(), &b)] {
                        let p = ctx.mont_mul(a, b);
                        assert!(p < m, "unreduced product, m={m}");
                        assert_eq!((&p * &r).rem(&m), a.modmul(b, &m), "m={m}");
                    }
                    // Exponents: 0, 1, all ones across a fixed-base table's
                    // width, one wider than the table, and a random one.
                    let width = m.bit_len();
                    let table_width = width.div_ceil(4) * 4;
                    let exps = [
                        Natural::zero(),
                        Natural::one(),
                        Natural::one().shl_bits(table_width) - Natural::one(),
                        Natural::one().shl_bits(table_width) + random_bits(g.rng(), 64),
                        random_bits(g.rng(), width),
                    ];
                    let bases = [
                        Natural::zero(),
                        Natural::one(),
                        &m + &random_bits(g.rng(), width + 8),
                        random_below(g.rng(), &m),
                    ];
                    for base in &bases {
                        let table = FixedBase::new(&ctx, base);
                        for e in &exps {
                            let want = base.modpow_plain(e, &m);
                            let at = || format!("m={m} base={base} e={e}");
                            assert_eq!(ctx.modpow(base, e), want, "ladder, {}", at());
                            let fixed = ctx.modpow_fixed(base, e, width);
                            assert_eq!(fixed, want, "fixed, {}", at());
                            assert_eq!(table.pow(e), want, "fixed base, {}", at());
                        }
                    }
                }
            }
        },
    );
}

#[test]
fn joint_exponentiation_matches_plain_at_every_width() {
    use mpint::random::{random_below, random_bits};
    use mpint::{Montgomery, MultiBase};
    cases(
        2,
        "joint_exponentiation_matches_plain_at_every_width",
        |g| {
            for limbs in 1..=16 {
                for shape in 0..3 {
                    let m = odd_modulus(g, limbs, shape);
                    let ctx = Montgomery::new(m.clone());
                    let width = m.bit_len();
                    let bases = [
                        Natural::zero(),
                        Natural::one(),
                        &m + &random_bits(g.rng(), width + 8),
                        random_below(g.rng(), &m),
                    ];
                    // Exponents: 0, 1, all ones across the width, one wider
                    // than the width, and a random one.
                    let exps = [
                        Natural::zero(),
                        Natural::one(),
                        Natural::one().shl_bits(width) - Natural::one(),
                        Natural::one().shl_bits(width) + random_bits(g.rng(), 64),
                        random_bits(g.rng(), width),
                    ];
                    let plain: Vec<Vec<Natural>> = bases
                        .iter()
                        .map(|b| exps.iter().map(|e| b.modpow_plain(e, &m)).collect())
                        .collect();
                    // Factor i of rotation r pairs base (r + i) mod 4 with
                    // exponent (r + i) mod 5: the 20 rotations of one factor
                    // reach every pairing, and nine factors reach every base
                    // and every exponent at once.
                    for count in [1usize, 2, 9] {
                        let rotations = if count == 9 { 4 } else { 20 };
                        for r in 0..rotations {
                            let pick = |i: usize| ((r + i) % bases.len(), (r + i) % exps.len());
                            let factors: Vec<(usize, usize)> = (0..count).map(pick).collect();
                            let tables =
                                MultiBase::new(&ctx, factors.iter().map(|&(b, _)| &bases[b]));
                            let exponents: Vec<Natural> =
                                factors.iter().map(|&(_, e)| exps[e].clone()).collect();
                            let want =
                                factors.iter().fold(Natural::one().rem(&m), |acc, &(b, e)| {
                                    acc.modmul(&plain[b][e], &m)
                                });
                            let got = tables.pow(&exponents, width);
                            assert_eq!(got, Ok(want), "m={m} factors={factors:?}");
                        }
                    }
                }
            }
        },
    );
}

#[test]
fn gen_prime_output_is_pinned() {
    // Candidates and Miller–Rabin bases both come from the generator, so
    // this output moves if the small-prime screen, any Montgomery result
    // or the order of draws does.
    let mut rng = mpint::rng::SplitMix64::seed_from_u64(256);
    let p = mpint::prime::gen_prime(256, &mut rng);
    assert_eq!(
        p.to_hex(),
        "e8576f7ba51f1ae6d42d37d8fd9bed63ffa7e9224e3998069709ae498c63eec7"
    );
}

#[test]
fn prime_generation_sizes_hold() {
    cases(DEFAULT_CASES, "prime_generation_sizes_hold", |g| {
        let bits = 8 + g.u64_below(32);
        let p = mpint::prime::gen_prime(bits, g.rng());
        assert_eq!(p.bit_len(), bits);
    });
}

#[test]
fn int_rem_euclid_in_range() {
    cases(DEFAULT_CASES, "int_rem_euclid_in_range", |g| {
        use mpint::Int;
        let v = g.i64();
        let m = Natural::from(1 + g.u64_below(u64::MAX));
        let r = Int::from(v).rem_euclid(&m);
        assert!(r < m);
    });
}
