//! A signed big integer, used mainly by the extended Euclidean algorithm
//! and for signed polynomial coefficients.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use crate::natural::Natural;

/// Sign of an [`Int`]; zero is always [`Sign::Plus`] with zero magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sign {
    /// Non-negative.
    Plus,
    /// Strictly negative.
    Minus,
}

/// An arbitrary-precision signed integer (sign-magnitude representation).
#[derive(Clone, PartialEq, Eq)]
pub struct Int {
    sign: Sign,
    mag: Natural,
}

impl Int {
    /// Zero.
    pub fn zero() -> Self {
        Int {
            sign: Sign::Plus,
            mag: Natural::zero(),
        }
    }

    /// One.
    pub fn one() -> Self {
        Int {
            sign: Sign::Plus,
            mag: Natural::one(),
        }
    }

    /// Constructs from sign and magnitude, canonicalizing `-0` to `+0`.
    pub fn from_parts(sign: Sign, mag: Natural) -> Self {
        if mag.is_zero() {
            Int::zero()
        } else {
            Int { sign, mag }
        }
    }

    /// The sign.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude.
    pub fn magnitude(&self) -> &Natural {
        &self.mag
    }

    /// Is this zero?
    pub fn is_zero(&self) -> bool {
        self.mag.is_zero()
    }

    /// Canonical representative in `[0, modulus)`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn rem_euclid(&self, modulus: &Natural) -> Natural {
        let r = self.mag.rem(modulus);
        match self.sign {
            Sign::Plus => r,
            Sign::Minus if r.is_zero() => r,
            Sign::Minus => modulus - &r,
        }
    }
}

impl From<Natural> for Int {
    fn from(mag: Natural) -> Self {
        Int::from_parts(Sign::Plus, mag)
    }
}

impl From<i64> for Int {
    fn from(v: i64) -> Self {
        if v < 0 {
            Int::from_parts(Sign::Minus, Natural::from(v.unsigned_abs()))
        } else {
            Int::from_parts(Sign::Plus, Natural::from(v as u64))
        }
    }
}

impl Neg for Int {
    type Output = Int;
    fn neg(self) -> Int {
        let sign = match self.sign {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        };
        Int::from_parts(sign, self.mag)
    }
}

impl Neg for &Int {
    type Output = Int;
    fn neg(self) -> Int {
        -self.clone()
    }
}

impl Add for &Int {
    type Output = Int;
    fn add(self, rhs: &Int) -> Int {
        if self.sign == rhs.sign {
            Int::from_parts(self.sign, &self.mag + &rhs.mag)
        } else {
            match self.mag.cmp(&rhs.mag) {
                Ordering::Equal => Int::zero(),
                Ordering::Greater => Int::from_parts(self.sign, &self.mag - &rhs.mag),
                Ordering::Less => Int::from_parts(rhs.sign, &rhs.mag - &self.mag),
            }
        }
    }
}

impl Add for Int {
    type Output = Int;
    fn add(self, rhs: Int) -> Int {
        &self + &rhs
    }
}

impl Sub for &Int {
    type Output = Int;
    fn sub(self, rhs: &Int) -> Int {
        self + &(-rhs)
    }
}

impl Sub for Int {
    type Output = Int;
    fn sub(self, rhs: Int) -> Int {
        &self - &rhs
    }
}

impl Mul for &Int {
    type Output = Int;
    fn mul(self, rhs: &Int) -> Int {
        let sign = if self.sign == rhs.sign {
            Sign::Plus
        } else {
            Sign::Minus
        };
        Int::from_parts(sign, &self.mag * &rhs.mag)
    }
}

impl Mul for Int {
    type Output = Int;
    fn mul(self, rhs: Int) -> Int {
        &self * &rhs
    }
}

impl Ord for Int {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.sign, other.sign) {
            (Sign::Plus, Sign::Minus) => Ordering::Greater,
            (Sign::Minus, Sign::Plus) => Ordering::Less,
            (Sign::Plus, Sign::Plus) => self.mag.cmp(&other.mag),
            (Sign::Minus, Sign::Minus) => other.mag.cmp(&self.mag),
        }
    }
}

impl PartialOrd for Int {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Minus {
            write!(f, "-")?;
        }
        write!(f, "{}", self.mag)
    }
}

impl fmt::Debug for Int {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Int({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(v: i64) -> Int {
        Int::from(v)
    }

    #[test]
    fn construction_canonicalizes_negative_zero() {
        let z = Int::from_parts(Sign::Minus, Natural::zero());
        assert_eq!(z, Int::zero());
        assert_eq!(z.sign(), Sign::Plus);
    }

    #[test]
    fn signed_addition() {
        assert_eq!(&i(5) + &i(-3), i(2));
        assert_eq!(&i(-5) + &i(3), i(-2));
        assert_eq!(&i(-5) + &i(-3), i(-8));
        assert_eq!(&i(5) + &i(-5), Int::zero());
    }

    #[test]
    fn signed_subtraction() {
        assert_eq!(&i(3) - &i(5), i(-2));
        assert_eq!(&i(-3) - &i(-5), i(2));
        assert_eq!(i(0) - i(7), i(-7));
    }

    #[test]
    fn signed_multiplication() {
        assert_eq!(&i(-4) * &i(6), i(-24));
        assert_eq!(&i(-4) * &i(-6), i(24));
        assert_eq!(&i(0) * &i(-6), Int::zero());
    }

    #[test]
    fn ordering_across_signs() {
        assert!(i(-10) < i(-2));
        assert!(i(-1) < i(0));
        assert!(i(0) < i(1));
        assert!(i(2) < i(10));
    }

    #[test]
    fn rem_euclid_maps_into_range() {
        let m = Natural::from(7u64);
        assert_eq!(i(10).rem_euclid(&m), Natural::from(3u64));
        assert_eq!(i(-10).rem_euclid(&m), Natural::from(4u64));
        assert_eq!(i(-7).rem_euclid(&m), Natural::zero());
        assert_eq!(i(0).rem_euclid(&m), Natural::zero());
    }

    #[test]
    fn display() {
        assert_eq!(i(-42).to_string(), "-42");
        assert_eq!(i(42).to_string(), "42");
        assert_eq!(Int::zero().to_string(), "0");
    }
}
