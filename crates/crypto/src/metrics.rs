//! The cryptographic-operation census.
//!
//! The paper's Table 2 lists which cryptographic primitives each protocol
//! applies.  Rather than asserting that table by hand, every primitive
//! calls [`count`], and each protocol run reports the primitives it
//! *actually* invoked.
//!
//! A bump lands in the run scope installed on the calling thread
//! (`secmed_obs::run`): the engine opens one per run and the pool carries
//! it into its workers, so a run's census holds exactly its own
//! operations, whatever else the process runs meanwhile.  Outside any run
//! a bump goes straight to the deterministic registry counter
//! `crypto.<op-name>`, and a run adds its census to those counters once,
//! when it closes.  The registry is therefore the one process-wide
//! aggregate, and [`Snapshot`] reads it.

use secmed_obs::metrics::{counter, Class, Counter};
use std::sync::OnceLock;

/// A countable cryptographic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Op {
    /// SHA-256 compression-function invocations.
    Sha256Block,
    /// Full hash computations (one message digested).
    HashMessage,
    /// HMAC computations.
    Hmac,
    /// ChaCha20 64-byte keystream blocks.
    ChaCha20Block,
    /// Symmetric (hybrid) encryptions of a payload.
    HybridEncrypt,
    /// Symmetric (hybrid) decryptions of a payload.
    HybridDecrypt,
    /// ElGamal KEM encapsulations.
    KemEncapsulate,
    /// ElGamal KEM decapsulations.
    KemDecapsulate,
    /// Commutative (SRA) encryptions `x -> x^e mod p`.
    CommutativeEncrypt,
    /// Hash-into-quadratic-residues evaluations (random-oracle hash).
    HashToGroup,
    /// Paillier encryptions.
    PaillierEncrypt,
    /// Paillier decryptions.
    PaillierDecrypt,
    /// Homomorphic additions of two Paillier ciphertexts.
    PaillierAdd,
    /// Homomorphic scalar multiplications of a Paillier ciphertext.
    PaillierScale,
    /// Schnorr signature issuances.
    SchnorrSign,
    /// Schnorr signature verifications.
    SchnorrVerify,
    /// Fresh random masks drawn for polynomial evaluation.
    RandomMask,
    /// Commutative (SRA) decryptions `y -> y^d mod p`.
    CommutativeDecrypt,
    /// Baby-step/giant-step discrete-log recoveries (exponential ElGamal
    /// decode).
    DiscreteLog,
}

const OP_COUNT: usize = 19;

const _: () = assert!(OP_COUNT <= secmed_obs::run::SLOTS);

const ALL_OPS: [Op; OP_COUNT] = [
    Op::Sha256Block,
    Op::HashMessage,
    Op::Hmac,
    Op::ChaCha20Block,
    Op::HybridEncrypt,
    Op::HybridDecrypt,
    Op::KemEncapsulate,
    Op::KemDecapsulate,
    Op::CommutativeEncrypt,
    Op::HashToGroup,
    Op::PaillierEncrypt,
    Op::PaillierDecrypt,
    Op::PaillierAdd,
    Op::PaillierScale,
    Op::SchnorrSign,
    Op::SchnorrVerify,
    Op::RandomMask,
    Op::CommutativeDecrypt,
    Op::DiscreteLog,
];

impl Op {
    /// Human-readable name, used by the Table 2 report binary.
    pub fn name(self) -> &'static str {
        match self {
            Op::Sha256Block => "sha256-block",
            Op::HashMessage => "hash-message",
            Op::Hmac => "hmac",
            Op::ChaCha20Block => "chacha20-block",
            Op::HybridEncrypt => "hybrid-encrypt",
            Op::HybridDecrypt => "hybrid-decrypt",
            Op::KemEncapsulate => "kem-encapsulate",
            Op::KemDecapsulate => "kem-decapsulate",
            Op::CommutativeEncrypt => "commutative-encrypt",
            Op::HashToGroup => "hash-to-group",
            Op::PaillierEncrypt => "paillier-encrypt",
            Op::PaillierDecrypt => "paillier-decrypt",
            Op::PaillierAdd => "paillier-add",
            Op::PaillierScale => "paillier-scale",
            Op::SchnorrSign => "schnorr-sign",
            Op::SchnorrVerify => "schnorr-verify",
            Op::RandomMask => "random-mask",
            Op::CommutativeDecrypt => "commutative-decrypt",
            Op::DiscreteLog => "discrete-log",
        }
    }
}

/// The registry name the census publishes `op` under.
pub fn registry_name(op: Op) -> String {
    format!("crypto.{}", op.name())
}

/// The `crypto.<op>` registry counters in `Op` order, interned on first
/// use: a run opened with these as its sinks publishes its census there.
pub fn registry_counters() -> &'static [Counter; OP_COUNT] {
    static REGISTRY: OnceLock<[Counter; OP_COUNT]> = OnceLock::new();
    REGISTRY.get_or_init(|| ALL_OPS.map(|op| counter(Class::Deterministic, &registry_name(op))))
}

/// Counts one `op`: into the run installed on this thread, or straight
/// into the registry outside any run.
#[inline]
pub fn count(op: Op) {
    if !secmed_obs::run::bump(op as usize) {
        registry_counters()[op as usize].incr();
    }
}

/// Reads per-op counts in `Op` order, such as a run scope's slots, as a
/// census: each op with a nonzero count.
pub fn census(counts: impl IntoIterator<Item = u64>) -> Vec<(Op, u64)> {
    ALL_OPS
        .into_iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// A point-in-time copy of the process-wide totals: every op counted
/// outside a run plus the census of every finished run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    counts: [u64; OP_COUNT],
}

impl Snapshot {
    /// Captures the current totals.
    pub fn capture() -> Self {
        Snapshot {
            counts: registry_counters().map(|c| c.get()),
        }
    }

    /// Per-op difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &Snapshot) -> Vec<(Op, u64)> {
        census(
            self.counts
                .iter()
                .zip(earlier.counts)
                .map(|(now, then)| now.saturating_sub(then)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_counts_exactly_its_own_ops() {
        let run = secmed_obs::run::open(false, registry_counters());
        count(Op::PaillierEncrypt);
        count(Op::PaillierEncrypt);
        count(Op::Hmac);
        assert_eq!(
            census(run.census()),
            [(Op::Hmac, 1), (Op::PaillierEncrypt, 2)]
        );
    }

    #[test]
    fn a_bump_outside_any_run_reaches_the_registry() {
        let before = Snapshot::capture();
        count(Op::SchnorrSign);
        count(Op::SchnorrSign);
        count(Op::SchnorrSign);
        let signs = Snapshot::capture()
            .since(&before)
            .into_iter()
            .find(|&(op, _)| op == Op::SchnorrSign)
            .map_or(0, |(_, n)| n);
        // Other tests in this binary count concurrently, so only this
        // test's own bumps are a sure lower bound.
        assert!(signs >= 3, "{signs}");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = ALL_OPS.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OP_COUNT);
    }

    #[test]
    fn snapshot_since_is_empty_without_activity() {
        let s = Snapshot::capture();
        assert!(s.since(&s).is_empty());
    }
}
