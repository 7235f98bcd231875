//! Probabilistic primality testing (Miller–Rabin) and generation of random
//! primes and safe primes.
//!
//! Safe primes `p = 2q + 1` (with `q` prime) are the group parameters for
//! the SRA commutative encryption and the ElGamal KEM: the subgroup of
//! quadratic residues mod `p` then has prime order `q`.

use crate::random::{random_below, random_bits};
use crate::rng::Rng;
use crate::Natural;

/// The primes below 8192, used for trial division before Miller–Rabin,
/// in consecutive groups whose product fits a `u64`: each group is its
/// product and its primes.
fn small_prime_groups() -> &'static [(u64, Vec<u64>)] {
    use std::sync::OnceLock;
    static GROUPS: OnceLock<Vec<(u64, Vec<u64>)>> = OnceLock::new();
    GROUPS.get_or_init(|| {
        const LIMIT: usize = 8192;
        let mut composite = vec![false; LIMIT];
        let mut groups: Vec<(u64, Vec<u64>)> = Vec::new();
        for i in 2..LIMIT {
            if !composite[i] {
                let p = i as u64;
                match groups.last_mut() {
                    Some((product, primes)) if product.checked_mul(p).is_some() => {
                        *product *= p;
                        primes.push(p);
                    }
                    _ => groups.push((p, vec![p])),
                }
                let mut j = i * i;
                while j < LIMIT {
                    composite[j] = true;
                    j += i;
                }
            }
        }
        groups
    })
}

/// Returns `true` if `n` is divisible by a small prime strictly below itself.
///
/// One pass over `n`'s limbs reduces it modulo a group's product; each
/// prime of the group then divides that one-limb remainder.
fn has_small_factor(n: &Natural) -> bool {
    // Only a one-limb `n` can be at or below a small prime.
    let small = n.to_u64();
    for (product, primes) in small_prime_groups() {
        let d = *product as u128;
        let r = n
            .limbs()
            .iter()
            .rev()
            .fold(0u128, |r, &limb| ((r << 64) | limb as u128) % d) as u64;
        for &p in primes {
            if small.is_some_and(|v| p >= v) {
                return false;
            }
            if r.is_multiple_of(p) {
                return true;
            }
        }
    }
    false
}

/// Miller–Rabin probabilistic primality test with `rounds` random bases.
///
/// A composite passes with probability at most `4^-rounds`; 40 rounds is
/// the conventional choice for cryptographic parameters.
pub fn is_probable_prime(n: &Natural, rounds: u32, rng: &mut dyn Rng) -> bool {
    if n < &Natural::from(2u64) {
        return false;
    }
    let two = Natural::from(2u64);
    let three = Natural::from(3u64);
    if n == &two || n == &three {
        return true;
    }
    if n.is_even() {
        return false;
    }
    if has_small_factor(n) {
        return false;
    }
    // Write n - 1 = d * 2^s with d odd.
    let n_minus_1 = n - &Natural::one();
    let s = n_minus_1.trailing_zeros().unwrap_or(0); // n > 3 here, so n - 1 > 0
    let d = n_minus_1.shr_bits(s);
    let mont = crate::Montgomery::new(n.clone());

    'witness: for _ in 0..rounds {
        // Base in [2, n - 2].
        let a = random_below(rng, &(n - &three)) + &two;
        let mut x = mont.modpow(&a, &d);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = x.modmul(&x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn gen_prime(bits: u64, rng: &mut dyn Rng) -> Natural {
    assert!(bits >= 2, "primes need at least 2 bits");
    loop {
        let mut candidate = random_bits(rng, bits);
        candidate.set_bit(0, true); // force odd
        if is_probable_prime(&candidate, 40, rng) {
            return candidate;
        }
    }
}

/// Generates a safe prime `p = 2q + 1` with exactly `bits` bits; returns
/// `(p, q)`.
///
/// Both halves are screened with trial division and a cheap 1-round
/// Miller–Rabin before the full 40-round certification, so most candidates
/// die cheaply.
///
/// # Panics
///
/// Panics if `bits < 4`.
pub fn gen_safe_prime(bits: u64, rng: &mut dyn Rng) -> (Natural, Natural) {
    assert!(bits >= 4, "safe primes need at least 4 bits");
    let one = Natural::one();
    let three = Natural::from(3u64);
    loop {
        let mut q = random_bits(rng, bits - 1);
        q.set_bit(0, true);
        // p = 2q + 1 is divisible by 3 iff q = 1 mod 3; skip those early
        // (q = 3 itself is fine: p = 7).
        if q != three && q.rem(&three).is_one() {
            continue;
        }
        let p = q.shl_bits(1) + &one;
        if has_small_factor(&q) || has_small_factor(&p) {
            continue;
        }
        if !is_probable_prime(&q, 1, rng) || !is_probable_prime(&p, 1, rng) {
            continue;
        }
        if is_probable_prime(&q, 40, rng) && is_probable_prime(&p, 40, rng) {
            return (p, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn rng() -> SplitMix64 {
        SplitMix64::seed_from_u64(7)
    }

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    /// The per-prime screen the grouped one replaces: one `rem` per prime.
    fn has_small_factor_by_rem(n: &Natural) -> bool {
        for p in small_prime_groups().iter().flat_map(|(_, ps)| ps) {
            let pn = Natural::from(*p);
            if &pn >= n {
                return false;
            }
            if n.rem(&pn).is_zero() {
                return true;
            }
        }
        false
    }

    #[test]
    fn small_prime_groups_cover_the_primes_below_8192() {
        let groups = small_prime_groups();
        let primes: Vec<u64> = groups.iter().flat_map(|(_, ps)| ps.clone()).collect();
        assert_eq!(primes.len(), 1028);
        assert_eq!((primes[0], primes[primes.len() - 1]), (2, 8191));
        for (product, ps) in groups {
            assert_eq!(ps.iter().product::<u64>(), *product);
        }
    }

    #[test]
    fn grouped_screen_matches_the_per_prime_rem_loop() {
        for v in 0..1u64 << 16 {
            let n = Natural::from(v);
            assert_eq!(has_small_factor(&n), has_small_factor_by_rem(&n), "n={v}");
        }
        let mut r = rng();
        for limbs in 1..=8u64 {
            for _ in 0..200 {
                let bits = 64 * limbs - r.next_u64() % 64;
                let n = random_bits(&mut r, bits);
                assert_eq!(has_small_factor(&n), has_small_factor_by_rem(&n), "n={n}");
                // A product with a small prime is caught whatever its size.
                let m = &n * &Natural::from(8191u64);
                assert_eq!(has_small_factor(&m), has_small_factor_by_rem(&m), "m={m}");
            }
        }
    }

    #[test]
    fn small_primes_recognized() {
        let mut r = rng();
        for p in [2u128, 3, 5, 7, 11, 13, 8191, 1_000_003] {
            assert!(is_probable_prime(&n(p), 20, &mut r), "p={p}");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u128, 1, 4, 6, 9, 15, 8192, 1_000_001, 561, 41041] {
            // 561 and 41041 are Carmichael numbers.
            assert!(!is_probable_prime(&n(c), 20, &mut r), "c={c}");
        }
    }

    #[test]
    fn large_known_prime() {
        // 2^127 - 1 is a Mersenne prime.
        let mut r = rng();
        let p = Natural::one().shl_bits(127) - Natural::one();
        assert!(is_probable_prime(&p, 20, &mut r));
        // 2^128 - 1 = 3 * 5 * 17 * ... is not.
        let c = Natural::one().shl_bits(128) - Natural::one();
        assert!(!is_probable_prime(&c, 20, &mut r));
    }

    #[test]
    fn product_of_two_primes_rejected() {
        let mut r = rng();
        let p = gen_prime(48, &mut r);
        let q = gen_prime(48, &mut r);
        assert!(!is_probable_prime(&(&p * &q), 20, &mut r));
    }

    #[test]
    fn gen_prime_has_requested_size() {
        let mut r = rng();
        for bits in [16u64, 32, 64, 128] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(is_probable_prime(&p, 20, &mut r));
        }
    }

    #[test]
    fn gen_safe_prime_structure() {
        let mut r = rng();
        let (p, q) = gen_safe_prime(64, &mut r);
        assert_eq!(p.bit_len(), 64);
        assert_eq!(p, q.shl_bits(1) + Natural::one());
        assert!(is_probable_prime(&p, 20, &mut r));
        assert!(is_probable_prime(&q, 20, &mut r));
    }

    #[test]
    fn safe_prime_group_order() {
        // Every quadratic residue g satisfies g^q = 1 mod p.
        let mut r = rng();
        let (p, q) = gen_safe_prime(48, &mut r);
        let x = random_below(&mut r, &p);
        let g = x.modmul(&x, &p);
        if !g.is_zero() {
            assert!(g.modpow(&q, &p).is_one());
        }
    }
}
