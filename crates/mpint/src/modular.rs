//! Modular arithmetic: reduction-based helpers, Montgomery-form windowed
//! exponentiation for odd moduli, and fixed-base tables.
//!
//! The cryptosystems in this workspace spend nearly all of their time in
//! modular exponentiation.  The [`Montgomery`] context exists so that
//! repeated exponentiations against the same modulus (the common case: a
//! fixed group or Paillier modulus) avoid a full division per
//! multiplication; a [`FixedBase`] table goes further for a base known in
//! advance (a group generator, a recipient's public key) and drops the
//! squarings altogether.  The `benches/mpint.rs` ablation quantifies both.

use crate::natural::Natural;

impl Natural {
    /// `(self + other) mod m`; operands must already be reduced.
    pub fn modadd(&self, other: &Natural, m: &Natural) -> Natural {
        debug_assert!(self < m && other < m);
        let s = self + other;
        if &s >= m {
            s - m
        } else {
            s
        }
    }

    /// `(self - other) mod m`; operands must already be reduced.
    pub fn modsub(&self, other: &Natural, m: &Natural) -> Natural {
        debug_assert!(self < m && other < m);
        if self >= other {
            self - other
        } else {
            m - other + self
        }
    }

    /// `(self * other) mod m`.
    pub fn modmul(&self, other: &Natural, m: &Natural) -> Natural {
        (self * other).rem(m)
    }

    /// `self^exp mod m`.
    ///
    /// Uses Montgomery exponentiation when `m` is odd, falling back to
    /// square-and-multiply with division-based reduction otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or one (no canonical representatives).
    pub fn modpow(&self, exp: &Natural, m: &Natural) -> Natural {
        assert!(!m.is_zero() && !m.is_one(), "modpow modulus must be >= 2");
        if m.is_odd() {
            let ctx = Montgomery::new(m.clone());
            return ctx.modpow(self, exp);
        }
        self.modpow_plain(exp, m)
    }

    /// Square-and-multiply with a division per step.  Kept public for the
    /// Montgomery-vs-plain ablation bench.
    pub fn modpow_plain(&self, exp: &Natural, m: &Natural) -> Natural {
        assert!(!m.is_zero() && !m.is_one(), "modpow modulus must be >= 2");
        let mut base = self.rem(m);
        let mut acc = Natural::one();
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                acc = acc.modmul(&base, m);
            }
            base = base.modmul(&base, m);
        }
        acc
    }
}

/// Precomputed context for Montgomery arithmetic modulo an odd `n`.
///
/// Values in Montgomery form are `a * R mod n` with `R = 2^(64 * limbs)`.
/// Multiplication uses the CIOS (coarsely integrated operand scanning)
/// method, and exponentiation a fixed 4-bit window.
#[derive(Debug, Clone)]
pub struct Montgomery {
    n: Natural,
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// Limb count of `n`; all Montgomery residues use exactly this length.
    limbs: usize,
    /// `R^2 mod n`, used to convert into Montgomery form.
    r2: Natural,
    /// `R mod n` — the Montgomery representation of one.
    r1: Natural,
}

impl Montgomery {
    /// Creates a context for odd modulus `n >= 3`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or `< 3`.
    pub fn new(n: Natural) -> Self {
        assert!(n.is_odd(), "Montgomery requires an odd modulus");
        assert!(n > Natural::one(), "modulus must be >= 3");
        let limbs = n.limbs().len();
        let n0 = n.limbs()[0];
        // Newton iteration for the inverse of n0 mod 2^64 (5 steps suffice).
        let mut inv = n0; // correct to 3 bits
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let n_prime = inv.wrapping_neg();
        let r1 = Natural::one().shl_bits(64 * limbs as u64).rem(&n);
        let r2 = r1.modmul(&r1, &n);
        Montgomery {
            n,
            n_prime,
            limbs,
            r2,
            r1,
        }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Natural {
        &self.n
    }

    /// Converts `a` (any size) into Montgomery form.
    pub fn to_mont(&self, a: &Natural) -> Natural {
        self.mont_mul(&a.rem(&self.n), &self.r2)
    }

    /// Converts out of Montgomery form.
    pub fn from_mont(&self, a: &Natural) -> Natural {
        self.mont_mul(a, &Natural::one())
    }

    /// Montgomery product `a * b * R^{-1} mod n` via CIOS.
    pub fn mont_mul(&self, a: &Natural, b: &Natural) -> Natural {
        self.mont_mul_limbs(a.limbs(), b.limbs())
    }

    // CIOS interleaves reads and writes at shifted indices; indexed loops
    // are the canonical presentation of the algorithm.
    #[allow(clippy::needless_range_loop)]
    /// [`Montgomery::mont_mul`] over raw little-endian limbs, so that a
    /// [`FixedBase`] entry multiplies in place of its flat table.
    fn mont_mul_limbs(&self, a_limbs: &[u64], b_limbs: &[u64]) -> Natural {
        #[cfg(test)]
        tests::PRODUCTS.with(|c| c.set(c.get() + 1));
        let k = self.limbs;
        let n = self.n.limbs();
        // t has k+2 limbs: accumulator for the interleaved product/reduction.
        let mut t = vec![0u64; k + 2];
        for i in 0..k {
            let ai = a_limbs.get(i).copied().unwrap_or(0);
            // t += ai * b
            let mut carry = 0u128;
            for j in 0..k {
                let bj = b_limbs.get(j).copied().unwrap_or(0);
                let cur = t[j] as u128 + ai as u128 * bj as u128 + carry;
                t[j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[k] as u128 + carry;
            t[k] = cur as u64;
            t[k + 1] = (cur >> 64) as u64;
            // m = t[0] * n' mod 2^64; t += m * n; t >>= 64
            let m = t[0].wrapping_mul(self.n_prime);
            let mut carry = (t[0] as u128 + m as u128 * n[0] as u128) >> 64;
            for j in 1..k {
                let cur = t[j] as u128 + m as u128 * n[j] as u128 + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[k] as u128 + carry;
            t[k - 1] = cur as u64;
            t[k] = t[k + 1].wrapping_add((cur >> 64) as u64);
            t[k + 1] = 0;
        }
        t.truncate(k + 1);
        let mut r = Natural::from_limbs(t);
        if r >= self.n {
            r -= &self.n;
        }
        r
    }

    /// `base^exp mod n` using a fixed 4-bit window over Montgomery residues.
    ///
    /// The ladder runs `exp.bit_len() / 4` windows and skips the product
    /// on a zero nibble, so its operation count follows the exponent: use
    /// it for public exponents (Paillier's `r^n`, Miller–Rabin) and
    /// [`Montgomery::modpow_fixed`] for secret ones.
    pub fn modpow(&self, base: &Natural, exp: &Natural) -> Natural {
        if exp.is_zero() {
            return Natural::one().rem(&self.n);
        }
        let table = self.window_table(base);
        // Process exponent in 4-bit windows, most significant first.
        let mut acc = self.r1.clone();
        for w in (0..exp.bit_len().div_ceil(4)).rev() {
            for _ in 0..4 {
                acc = self.mont_mul(&acc, &acc);
            }
            let nib = nibble(exp, w);
            if nib != 0 {
                acc = self.mont_mul(&acc, &table[nib]);
            }
        }
        self.from_mont(&acc)
    }

    /// `base^exp mod n` in an operation sequence fixed by the public
    /// `width` alone: `ceil(width / 4)` windows of four squarings and one
    /// table product each, the product with entry 0 (the Montgomery one)
    /// included.  An exponent wider than `width` runs at its own width.
    pub fn modpow_fixed(&self, base: &Natural, exp: &Natural, width: u64) -> Natural {
        let table = self.window_table(base);
        let mut acc = self.r1.clone();
        for w in (0..width.max(exp.bit_len()).div_ceil(4)).rev() {
            for _ in 0..4 {
                acc = self.mont_mul(&acc, &acc);
            }
            acc = self.mont_mul(&acc, &table[nibble(exp, w)]);
        }
        self.from_mont(&acc)
    }

    /// `base^0 ..= base^15` in Montgomery form.
    fn window_table(&self, base: &Natural) -> Vec<Natural> {
        let base_m = self.to_mont(base);
        let mut table = Vec::with_capacity(16);
        table.push(self.r1.clone());
        for i in 1..16 {
            let prev: &Natural = &table[i - 1];
            table.push(self.mont_mul(prev, &base_m));
        }
        table
    }
}

/// Nibble `w` (bits `4w .. 4w + 4`) of `exp`; a nibble never straddles a
/// limb.
fn nibble(exp: &Natural, w: u64) -> usize {
    let bit = 4 * w;
    let limb = exp.limbs().get((bit / 64) as usize).copied().unwrap_or(0);
    ((limb >> (bit % 64)) & 0xf) as usize
}

/// A fixed-base exponentiation table for one base `b` modulo the odd `n`
/// of a [`Montgomery`] context.
///
/// It holds `b^(j * 16^i)` in Montgomery form for every 4-bit window `i`
/// of the modulus width and every nibble `j`, as one flat vector of
/// `windows * 16 * k` limbs (`k` the modulus limb count): 128 KiB for a
/// 512-bit modulus.  [`FixedBase::pow`] then takes one Montgomery product
/// per window and no squarings (128 products at 512 bits, against about
/// 650 for [`Montgomery::modpow`]).  Building the table costs 16 products
/// per window, so it pays off from the fourth exponentiation on.
pub struct FixedBase {
    ctx: Montgomery,
    /// `b mod n`, for exponents wider than the table.
    base: Natural,
    windows: u64,
    table: Vec<u64>,
}

impl FixedBase {
    /// Builds the table for `base` under `ctx`.
    pub fn new(ctx: &Montgomery, base: &Natural) -> Self {
        let k = ctx.limbs;
        let windows = ctx.n.bit_len().div_ceil(4);
        let mut table = Vec::with_capacity(windows as usize * 16 * k);
        // `step` is b^(16^i); the entries of window i are its powers 0..16,
        // and the sixteenth is the next window's step.
        let mut step = ctx.to_mont(base);
        for _ in 0..windows {
            let mut entry = ctx.r1.clone();
            for _ in 0..16 {
                let limbs = entry.limbs();
                table.extend_from_slice(limbs);
                table.resize(table.len() + k - limbs.len(), 0);
                entry = ctx.mont_mul(&entry, &step);
            }
            step = entry;
        }
        FixedBase {
            ctx: ctx.clone(),
            base: base.rem(&ctx.n),
            windows,
            table,
        }
    }

    /// The context the table was built under.
    pub fn context(&self) -> &Montgomery {
        &self.ctx
    }

    /// `b^exp mod n`: one product per window, entry 0 included, so the
    /// operation sequence is the same for every exponent the table covers.
    /// An exponent wider than the table (the modulus width rounded up to
    /// whole nibbles) falls back to [`Montgomery::modpow`].
    pub fn pow(&self, exp: &Natural) -> Natural {
        if exp.bit_len() > 4 * self.windows {
            return self.ctx.modpow(&self.base, exp);
        }
        let k = self.ctx.limbs;
        let mut acc = self.ctx.r1.clone();
        for w in 0..self.windows {
            let at = (w as usize * 16 + nibble(exp, w)) * k;
            acc = self
                .ctx
                .mont_mul_limbs(acc.limbs(), &self.table[at..at + k]);
        }
        self.ctx.from_mont(&acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_bits;
    use crate::rng::SplitMix64;
    use std::cell::Cell;
    use std::collections::BTreeSet;

    thread_local! {
        /// Montgomery products taken on this thread.
        pub(super) static PRODUCTS: Cell<u64> = const { Cell::new(0) };
    }

    /// The result of `f` and the Montgomery products it took.
    fn counted(f: impl FnOnce() -> Natural) -> (Natural, u64) {
        PRODUCTS.with(|c| c.set(0));
        let out = f();
        (out, PRODUCTS.with(Cell::get))
    }

    fn n(v: u128) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn secret_exponent_paths_take_one_product_count() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut modulus = random_bits(&mut rng, 256);
        modulus.set_bit(0, true);
        let w = modulus.bit_len();
        let ctx = Montgomery::new(modulus.clone());
        let base = random_bits(&mut rng, 200);
        let table = FixedBase::new(&ctx, &base);
        let mut exps = vec![
            n(0),
            n(1),
            Natural::one().shl_bits(w - 1),
            Natural::one().shl_bits(w) - Natural::one(),
        ];
        exps.extend((0..4).map(|_| random_bits(&mut rng, w)));
        let (mut ladder, mut fixed, mut tabled) =
            (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
        for e in &exps {
            let want = base.modpow_plain(e, &modulus);
            let (got, count) = counted(|| ctx.modpow(&base, e));
            assert_eq!(got, want);
            ladder.insert(count);
            let (got, count) = counted(|| ctx.modpow_fixed(&base, e, w));
            assert_eq!(got, want, "fixed shape, e={e}");
            fixed.insert(count);
            let (got, count) = counted(|| table.pow(e));
            assert_eq!(got, want, "fixed base, e={e}");
            tabled.insert(count);
        }
        assert!(ladder.len() > 1, "the ladder's count follows the exponent");
        // 16 table entries (15 products + to_mont), 4 squarings and one
        // product per window, from_mont.
        assert_eq!(fixed, BTreeSet::from([1 + 15 + 5 * w.div_ceil(4) + 1]));
        // One product per window, from_mont.
        assert_eq!(tabled, BTreeSet::from([w.div_ceil(4) + 1]));
    }

    #[test]
    fn modadd_wraps() {
        let m = n(10);
        assert_eq!(n(7).modadd(&n(5), &m), n(2));
        assert_eq!(n(3).modadd(&n(4), &m), n(7));
    }

    #[test]
    fn modsub_wraps() {
        let m = n(10);
        assert_eq!(n(3).modsub(&n(7), &m), n(6));
        assert_eq!(n(7).modsub(&n(3), &m), n(4));
        assert_eq!(n(7).modsub(&n(7), &m), n(0));
    }

    #[test]
    fn modmul() {
        assert_eq!(n(7).modmul(&n(8), &n(10)), n(6));
    }

    #[test]
    fn modpow_small_known() {
        assert_eq!(n(2).modpow(&n(10), &n(1000)), n(24));
        assert_eq!(n(3).modpow(&n(0), &n(7)), n(1));
        assert_eq!(n(0).modpow(&n(5), &n(7)), n(0));
    }

    #[test]
    fn fermat_little_theorem() {
        // p = 1000003 is prime: a^(p-1) = 1 mod p.
        let p = n(1_000_003);
        for a in [2u128, 3, 65537, 999_999] {
            assert_eq!(n(a).modpow(&(&p - &n(1)), &p), n(1), "a={a}");
        }
    }

    #[test]
    fn modpow_even_modulus_falls_back() {
        assert_eq!(n(3).modpow(&n(4), &n(16)), n(81 % 16));
        assert_eq!(n(5).modpow(&n(3), &n(100)), n(25));
    }

    #[test]
    #[should_panic(expected = "must be >= 2")]
    fn modpow_modulus_one_panics() {
        n(3).modpow(&n(4), &n(1));
    }

    #[test]
    fn montgomery_roundtrip() {
        let m = Montgomery::new(n(1_000_003));
        for v in [0u128, 1, 2, 999_999, 1_000_002] {
            let mont = m.to_mont(&n(v));
            assert_eq!(m.from_mont(&mont), n(v), "v={v}");
        }
    }

    #[test]
    fn montgomery_mul_matches_plain() {
        let modulus = n(0xffff_ffff_ffff_ffc5); // large odd 64-bit
        let m = Montgomery::new(modulus.clone());
        let a = n(0x1234_5678_9abc_def0);
        let b = n(0xfedc_ba98_7654_3210);
        let am = m.to_mont(&a);
        let bm = m.to_mont(&b);
        let prod = m.from_mont(&m.mont_mul(&am, &bm));
        assert_eq!(prod, a.modmul(&b, &modulus));
    }

    #[test]
    fn montgomery_modpow_matches_plain_multi_limb() {
        // 128-bit odd modulus spanning two limbs.
        let modulus: Natural = "340282366920938463463374607431768211297".parse().unwrap();
        let base: Natural = "123456789012345678901234567890".parse().unwrap();
        let exp: Natural = "98765432109876543210".parse().unwrap();
        let m = Montgomery::new(modulus.clone());
        assert_eq!(m.modpow(&base, &exp), base.modpow_plain(&exp, &modulus));
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn montgomery_rejects_even() {
        Montgomery::new(n(10));
    }

    #[test]
    fn exponent_one_and_base_bigger_than_modulus() {
        let m = n(97);
        assert_eq!(n(1000).modpow(&n(1), &m), n(1000 % 97));
    }
}
