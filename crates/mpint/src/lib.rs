#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Arbitrary-precision integer arithmetic.
//!
//! This crate is the numeric substrate for every cryptosystem in the
//! `secmed` workspace (ElGamal, SRA commutative encryption, Paillier,
//! Schnorr).  It provides:
//!
//! * [`Natural`] — an unsigned big integer stored as little-endian `u64`
//!   limbs, with schoolbook and Karatsuba multiplication and Knuth
//!   Algorithm D division,
//! * [`Int`] — a signed wrapper used by the extended Euclidean algorithm,
//! * modular arithmetic ([`modular`]) including Montgomery-form windowed
//!   exponentiation, fixed-base tables and joint multi-base
//!   exponentiation,
//! * number theory ([`numtheory`]): gcd, extended gcd, modular inverse,
//!   Jacobi symbol,
//! * probabilistic prime and safe-prime generation ([`prime`]),
//! * uniform random sampling ([`random`]),
//! * the workspace's random-number abstraction ([`rng`]): the [`rng::Rng`]
//!   trait plus OS entropy and a seedable test generator.
//!
//! The implementation favours clarity and reviewability over raw speed and
//! is **not** constant-time; see the workspace DESIGN.md for the threat
//! model (semi-honest parties, as in the paper).
//!
//! # Example
//!
//! ```
//! use mpint::Natural;
//!
//! let a = Natural::from(10_u64).pow(20);              // 10^20
//! let b: Natural = "100000000000000000000".parse().unwrap();
//! assert_eq!(a, b);
//! let (q, r) = a.div_rem(&Natural::from(7_u64));
//! assert_eq!(&q * &Natural::from(7_u64) + r, b);
//! ```

mod convert;
mod div;
mod int;
mod mul;
mod natural;

pub mod modular;
pub mod numtheory;
pub mod prime;
pub mod random;
pub mod rng;

pub use int::{Int, Sign};
pub use modular::{FixedBase, Montgomery, MultiBase};
pub use natural::Natural;

/// Error type for fallible conversions and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The input string was empty or contained an invalid digit.
    InvalidDigit(char),
    /// An empty string was supplied where a number was expected.
    Empty,
    /// A subtraction would have produced a negative [`Natural`].
    Underflow,
    /// Division or modular reduction by zero.
    DivisionByZero,
    /// No modular inverse exists (operand not coprime to the modulus).
    NotInvertible,
    /// Two operand lists that pair up element by element differ in length
    /// (the bases and exponents of a joint exponentiation).
    LengthMismatch,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidDigit(c) => write!(f, "invalid digit {c:?}"),
            Error::Empty => write!(f, "empty numeric string"),
            Error::Underflow => write!(f, "subtraction underflowed a Natural"),
            Error::DivisionByZero => write!(f, "division by zero"),
            Error::NotInvertible => write!(f, "operand has no modular inverse"),
            Error::LengthMismatch => write!(f, "paired operand lists differ in length"),
        }
    }
}

impl std::error::Error for Error {}
