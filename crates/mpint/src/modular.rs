//! Modular arithmetic: reduction-based helpers, Montgomery-form windowed
//! exponentiation for odd moduli, fixed-base tables and joint
//! exponentiation over several bases.
//!
//! The cryptosystems in this workspace spend nearly all of their time in
//! modular exponentiation.  The [`Montgomery`] context exists so that
//! repeated exponentiations against the same modulus (the common case: a
//! fixed group or Paillier modulus) avoid a full division per
//! multiplication; a [`FixedBase`] table goes further for a base known in
//! advance (a group generator, a recipient's public key) and drops the
//! squarings altogether; a [`MultiBase`] shares one run of squarings
//! between the factors of a product of powers (an encrypted polynomial
//! evaluated at a point).  The `benches/mpint.rs` ablation quantifies all
//! three.

use crate::natural::Natural;
use crate::Error;

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
/// Values in Montgomery form are `a * R mod n` with `R = 2^(64 * k)`, `k`
/// the limb count of `n`.  Every product, in every exponentiation path,
/// runs one fused CIOS kernel over `k`-limb slices, and exponentiation
/// uses a fixed 4-bit window over limb buffers allocated once per call.
#[derive(Debug, Clone)]
pub struct Montgomery {
    n: Natural,
    /// `-n^{-1} mod 2^64`.
    n_prime: u64,
    /// `R^2 mod n` in `k` limbs, used to convert into Montgomery form.
    r2: Vec<u64>,
    /// `R mod n` in `k` limbs — the Montgomery representation of one.
    r1: Vec<u64>,
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
        let k = n.limbs().len();
        let n0 = n.limbs()[0];
        // Newton iteration for the inverse of n0 mod 2^64 (5 steps suffice).
        let mut inv = n0; // correct to 3 bits
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        debug_assert_eq!(n0.wrapping_mul(inv), 1);
        let padded = |x: Natural| {
            let mut limbs = x.limbs().to_vec();
            limbs.resize(k, 0);
            limbs
        };
        let r1 = Natural::one().shl_bits(64 * k as u64).rem(&n);
        let r2 = r1.modmul(&r1, &n);
        Montgomery {
            n,
            n_prime: inv.wrapping_neg(),
            r2: padded(r2),
            r1: padded(r1),
        }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Natural {
        &self.n
    }

    /// Converts `a` (any size) into Montgomery form.
    pub fn to_mont(&self, a: &Natural) -> Natural {
        self.product(a.rem(&self.n).limbs(), &self.r2)
    }

    /// Converts out of Montgomery form.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not below `R`.
    pub fn from_mont(&self, a: &Natural) -> Natural {
        self.product(a.limbs(), &[1])
    }

    /// Montgomery product `a * b * R^{-1} mod n`, reduced when both
    /// operands are below `n`.
    ///
    /// # Panics
    ///
    /// Panics if an operand is not below `R`.
    pub fn mont_mul(&self, a: &Natural, b: &Natural) -> Natural {
        self.product(a.limbs(), b.limbs())
    }

    /// The limb count `k` of the modulus.
    fn k(&self) -> usize {
        self.n.limbs().len()
    }

    /// [`Montgomery::mul_into`] over operands of at most `k` limbs, in one
    /// allocation: the result's limbs, then both operands widened to `k`.
    fn product(&self, a: &[u64], b: &[u64]) -> Natural {
        let k = self.k();
        let mut buf = vec![0; 3 * k];
        let (out, operands) = buf.split_at_mut(k);
        let (a_k, b_k) = operands.split_at_mut(k);
        load(a_k, a);
        load(b_k, b);
        self.mul_into(out, a_k, b_k);
        buf.truncate(k);
        Natural::from_limbs(buf)
    }

    // CIOS reads limb j and writes limb j - 1 of the accumulator in the
    // same step; indexed loops are the canonical presentation.
    #[allow(clippy::needless_range_loop)]
    /// The Montgomery product `a * b * R^{-1} mod n` into `out`, by fused
    /// CIOS: each outer step adds `a[i] * b` and `m * n` in one inner pass
    /// with two carry chains and shifts the accumulator down a limb; the
    /// final conditional subtraction runs in place.  All three slices
    /// hold exactly `k` limbs; `out` is the accumulator, plus one top
    /// limb kept in a register, so the product allocates nothing.
    fn mul_into(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        #[cfg(test)]
        tests::PRODUCTS.with(|c| c.set(c.get() + 1));
        let n = self.n.limbs();
        let k = n.len();
        debug_assert!(out.len() == k && a.len() == k && b.len() == k);
        let (out, a, b) = (&mut out[..k], &a[..k], &b[..k]);
        out.fill(0);
        // The accumulator stays below 2R, so its top limb is 0 or 1.
        let mut top = 0u64;
        for &ai in a {
            let ai = ai as u128;
            let cur = out[0] as u128 + ai * b[0] as u128;
            let mut mul_carry = cur >> 64;
            let low = cur as u64;
            let m = low.wrapping_mul(self.n_prime) as u128;
            let mut red_carry = (low as u128 + m * n[0] as u128) >> 64;
            for j in 1..k {
                let cur = out[j] as u128 + ai * b[j] as u128 + mul_carry;
                mul_carry = cur >> 64;
                let cur = (cur as u64) as u128 + m * n[j] as u128 + red_carry;
                red_carry = cur >> 64;
                out[j - 1] = cur as u64;
            }
            let cur = top as u128 + mul_carry + red_carry;
            out[k - 1] = cur as u64;
            top = (cur >> 64) as u64;
        }
        if top != 0 || out.iter().rev().ge(n.iter().rev()) {
            // The borrow out of the top limb cancels `top`.
            let mut borrow = false;
            for (x, &y) in out.iter_mut().zip(n) {
                let (d, b1) = x.overflowing_sub(y);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                *x = d;
                borrow = b1 | b2;
            }
        }
    }

    /// `a` in Montgomery form into `out`, staging `a mod n` in `tmp`.
    fn to_mont_into(&self, out: &mut [u64], a: &Natural, tmp: &mut [u64]) {
        load(tmp, a.rem(&self.n).limbs());
        self.mul_into(out, tmp, &self.r2);
    }

    /// Fills the 16 `k`-limb entries of `window` with `step^0 ..= step^15`
    /// in Montgomery form: entry 0 is the Montgomery one, and each later
    /// entry is one product with `step`.
    fn powers_into(&self, window: &mut [u64], step: &[u64]) {
        let k = self.k();
        window[..k].copy_from_slice(&self.r1);
        for j in 1..16 {
            let (done, rest) = window.split_at_mut(j * k);
            self.mul_into(&mut rest[..k], &done[(j - 1) * k..], step);
        }
    }

    /// `base^0 ..= base^15` in Montgomery form, entry `j` at limbs
    /// `j * k .. (j + 1) * k` (one conversion and 15 products).
    fn window_table(&self, base: &Natural) -> Vec<u64> {
        let k = self.k();
        let (mut table, mut base_m) = (vec![0; 16 * k], vec![0; k]);
        // Entry 1's slot stages `base mod n` until the powers overwrite it.
        self.to_mont_into(&mut base_m, base, &mut table[k..2 * k]);
        self.powers_into(&mut table, &base_m);
        table
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
        let mut ladder = Ladder::new(self);
        let k = self.k();
        // Process exponent in 4-bit windows, most significant first.
        for w in (0..exp.bit_len().div_ceil(4)).rev() {
            ladder.square4();
            let nib = nibble(exp, w);
            if nib != 0 {
                ladder.times(&table[nib * k..][..k]);
            }
        }
        ladder.finish()
    }

    /// `base^exp mod n` in an operation sequence fixed by the public
    /// `width` alone: `ceil(width / 4)` windows of four squarings and one
    /// table product each, the product with entry 0 (the Montgomery one)
    /// included.  An exponent wider than `width` runs at its own width.
    pub fn modpow_fixed(&self, base: &Natural, exp: &Natural, width: u64) -> Natural {
        let table = self.window_table(base);
        let mut ladder = Ladder::new(self);
        let k = self.k();
        for w in (0..width.max(exp.bit_len()).div_ceil(4)).rev() {
            ladder.square4();
            ladder.times(&table[nibble(exp, w) * k..][..k]);
        }
        ladder.finish()
    }
}

/// Copies `limbs` into `dst` and zero-fills the rest.
///
/// # Panics
///
/// Panics if `limbs` is longer than `dst`: a Montgomery operand must be
/// below `R`.
fn load(dst: &mut [u64], limbs: &[u64]) {
    assert!(
        limbs.len() <= dst.len(),
        "Montgomery operand is not below R"
    );
    dst[..limbs.len()].copy_from_slice(limbs);
    dst[limbs.len()..].fill(0);
}

/// The two accumulators of one exponentiation, allocated once: each
/// product writes `next` from `acc`, then the two swap.
struct Ladder<'a> {
    ctx: &'a Montgomery,
    acc: Vec<u64>,
    next: Vec<u64>,
}

impl<'a> Ladder<'a> {
    /// An accumulator holding the Montgomery one.
    fn new(ctx: &'a Montgomery) -> Self {
        Ladder {
            ctx,
            acc: ctx.r1.clone(),
            next: vec![0; ctx.k()],
        }
    }

    /// `acc <- acc^16`: four squarings.
    fn square4(&mut self) {
        for _ in 0..4 {
            self.ctx.mul_into(&mut self.next, &self.acc, &self.acc);
            std::mem::swap(&mut self.acc, &mut self.next);
        }
    }

    /// `acc <- acc * entry`.
    fn times(&mut self, entry: &[u64]) {
        self.ctx.mul_into(&mut self.next, &self.acc, entry);
        std::mem::swap(&mut self.acc, &mut self.next);
    }

    /// The accumulator out of Montgomery form: one product with 1.
    fn finish(self) -> Natural {
        self.ctx.product(&self.acc, &[1])
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
    table: Vec<u64>,
}

impl FixedBase {
    /// Builds the table for `base` under `ctx`.
    pub fn new(ctx: &Montgomery, base: &Natural) -> Self {
        let k = ctx.k();
        let windows = ctx.n.bit_len().div_ceil(4) as usize;
        let mut table = vec![0; windows * 16 * k];
        // `step` is b^(16^i); the entries of window i are its powers 0..16,
        // and the sixteenth is the next window's step.
        let (mut step, mut next) = (vec![0; k], vec![0; k]);
        ctx.to_mont_into(&mut step, base, &mut next);
        for window in table.chunks_exact_mut(16 * k) {
            ctx.powers_into(window, &step);
            ctx.mul_into(&mut next, &window[15 * k..], &step);
            std::mem::swap(&mut step, &mut next);
        }
        FixedBase {
            ctx: ctx.clone(),
            base: base.rem(&ctx.n),
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
        let k = self.ctx.k();
        let windows = self.table.chunks_exact(16 * k);
        if exp.bit_len() > 4 * windows.len() as u64 {
            return self.ctx.modpow(&self.base, exp);
        }
        let mut ladder = Ladder::new(&self.ctx);
        for (w, window) in windows.enumerate() {
            ladder.times(&window[nibble(exp, w as u64) * k..][..k]);
        }
        ladder.finish()
    }
}

/// The 4-bit window tables of a list of bases `b_1 .. b_m` modulo the odd
/// `n` of a [`Montgomery`] context, for the joint exponentiation
/// `Π b_i^(e_i) mod n`.
///
/// Each base keeps the 16-entry table [`Montgomery::modpow`] would build
/// for it (`16 * k` limbs: 2 KiB at a 1024-bit modulus), so the tables
/// are built once however many exponent vectors follow.
/// [`MultiBase::pow`] runs one ladder for all bases: four squarings per
/// window, then one product per base.  For `m` bases and `w`-bit
/// exponents that is `w + m * w / 4` products, against about
/// `m * 5 * w / 4` for `m` separate exponentiations.
#[derive(Clone)]
pub struct MultiBase {
    ctx: Montgomery,
    /// One [`Montgomery::window_table`] per base, in base order.
    tables: Vec<u64>,
}

impl MultiBase {
    /// Builds the window table of every base under `ctx` (16 products
    /// each).
    pub fn new<'a>(ctx: &Montgomery, bases: impl IntoIterator<Item = &'a Natural>) -> Self {
        MultiBase {
            ctx: ctx.clone(),
            tables: bases
                .into_iter()
                .flat_map(|b| ctx.window_table(b))
                .collect(),
        }
    }

    /// The number of bases.
    fn len(&self) -> usize {
        self.tables.len() / (16 * self.ctx.k())
    }

    /// `Π b_i^(exps[i]) mod n` in an operation sequence fixed by the public
    /// `width` and the base count alone: `ceil(width / 4)` windows of four
    /// squarings and one table product per base, the product with entry 0
    /// (the Montgomery one) included.  An exponent wider than `width`
    /// widens every window pass to its width.
    ///
    /// # Errors
    ///
    /// [`Error::LengthMismatch`] unless there is exactly one exponent per
    /// base.
    pub fn pow(&self, exps: &[Natural], width: u64) -> Result<Natural, Error> {
        if exps.len() != self.len() {
            return Err(Error::LengthMismatch);
        }
        let k = self.ctx.k();
        let width = exps.iter().map(Natural::bit_len).fold(width, u64::max);
        let mut ladder = Ladder::new(&self.ctx);
        for w in (0..width.div_ceil(4)).rev() {
            ladder.square4();
            for (table, e) in self.tables.chunks_exact(16 * k).zip(exps) {
                ladder.times(&table[nibble(e, w) * k..][..k]);
            }
        }
        Ok(ladder.finish())
    }
}

impl std::fmt::Debug for MultiBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MultiBase({} bases, {}-bit modulus)",
            self.len(),
            self.ctx.n.bit_len()
        )
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
    fn joint_exponentiation_takes_one_product_count() {
        let mut rng = SplitMix64::seed_from_u64(11);
        let mut modulus = random_bits(&mut rng, 256);
        modulus.set_bit(0, true);
        let w = modulus.bit_len();
        let ctx = Montgomery::new(modulus.clone());
        let m = 3;
        let bases: Vec<Natural> = (0..m).map(|_| random_bits(&mut rng, 200)).collect();
        let all_ones = Natural::one().shl_bits(w) - Natural::one();
        let mut vectors = vec![
            vec![n(0); m],
            vec![n(1), n(0), all_ones.clone()],
            vec![all_ones.clone(); m],
            vec![Natural::one().shl_bits(w - 1), n(0), n(0)],
        ];
        vectors.extend((0..4).map(|_| (0..m).map(|_| random_bits(&mut rng, w)).collect()));
        let mut counts = BTreeSet::new();
        for exps in &vectors {
            let want = bases.iter().zip(exps).fold(Natural::one(), |acc, (b, e)| {
                acc.modmul(&b.modpow_plain(e, &modulus), &modulus)
            });
            // The count covers building the tables and the exponentiation.
            let (got, count) = counted(|| {
                let tables = MultiBase::new(&ctx, &bases);
                tables.pow(exps, w).unwrap_or_else(|e| panic!("{e}"))
            });
            assert_eq!(got, want, "exps={exps:?}");
            counts.insert(count);
        }
        let m = m as u64;
        // 16 table entries per base, then per window four squarings and
        // one product per base, then from_mont.
        assert_eq!(
            counts,
            BTreeSet::from([16 * m + (4 + m) * w.div_ceil(4) + 1])
        );
    }

    #[test]
    fn joint_exponentiation_needs_one_exponent_per_base() {
        let ctx = Montgomery::new(n(1_000_003));
        let tables = MultiBase::new(&ctx, &[n(2), n(3)]);
        assert_eq!(tables.len(), 2);
        for exps in [vec![], vec![n(5)], vec![n(5), n(6), n(7)]] {
            assert_eq!(tables.pow(&exps, 20), Err(Error::LengthMismatch));
        }
        assert_eq!(
            tables.pow(&[n(5), n(6)], 20),
            Ok(n(2 * 2 * 2 * 2 * 2 * 729))
        );
        let empty = MultiBase::new(&ctx, &[]);
        assert_eq!(empty.pow(&[], 20), Ok(n(1)));
        assert_eq!(empty.pow(&[n(1)], 20), Err(Error::LengthMismatch));
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
