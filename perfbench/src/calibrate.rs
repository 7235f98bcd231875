//! Per-call calibration of the public `mpint` and `secmed-crypto`
//! functions at the workloads' key and operand sizes, and the attribution
//! of a query's CPU time to the census.
//!
//! Census counts nest: a hybrid encryption also counts its KEM
//! encapsulation, its ChaCha20 blocks, its HMACs and their SHA-256
//! blocks.  Each op's *exclusive* cost is its measured per-call time
//! minus the exclusive costs of the leaf ops the census saw nested inside
//! it during calibration, so `Σ count × exclusive cost` counts no work
//! twice.

use std::hint::black_box;

use mpint::random::random_below;
use mpint::Natural;
use secmed_crypto::chacha20::ChaCha20;
use secmed_crypto::elgamal::ElGamalKeyPair;
use secmed_crypto::group::GroupSize;
use secmed_crypto::hmac::hmac_sha256;
use secmed_crypto::metrics::{Op, Snapshot};
use secmed_crypto::polynomial::{EncryptedPoly, ZnPoly};
use secmed_crypto::sha256::sha256;
use secmed_crypto::{
    HmacDrbg, HybridKeyPair, Paillier, SafePrimeGroup, SchnorrKeyPair, SraCipher, SraDomain,
};

use crate::host::{median, now_ns};

/// The leaf-op set, nested ops before the ops that contain them.
pub const LEAF_OPS: [Op; 15] = [
    Op::Sha256Block,
    Op::ChaCha20Block,
    Op::Hmac,
    Op::HashToGroup,
    Op::CommutativeEncrypt,
    Op::KemEncapsulate,
    Op::KemDecapsulate,
    Op::HybridEncrypt,
    Op::HybridDecrypt,
    Op::PaillierAdd,
    Op::PaillierScale,
    Op::PaillierEncrypt,
    Op::PaillierDecrypt,
    Op::RandomMask,
    Op::SchnorrVerify,
];

/// Metric-name stem of a census op (`hybrid-encrypt` → `hybrid_encrypt`).
pub fn stem(op: Op) -> String {
    op.name().replace('-', "_")
}

/// Calibrated costs, in microseconds per call.
pub struct Costs {
    pub modpow_p512_us: f64,
    pub modpow_n2_us: f64,
    /// One entry per leaf op, in `LEAF_OPS` order.
    pub leaf: Vec<LeafCost>,
}

/// What one call of a leaf op costs.
pub struct LeafCost {
    pub op: Op,
    /// The call as a caller sees it, nested leaf ops included.
    pub per_call_us: f64,
    /// The call without its nested leaf ops.  Not clamped: a value near
    /// zero may come out slightly negative, and the attribution stays an
    /// exact partition of the per-call times.
    pub exclusive_us: f64,
}

/// Work per timed batch; short enough that the rounds of every probe
/// interleave within one host phase, long enough to swamp the clock.
const BATCH_NS: u64 = 2_000_000;
/// Batches per probe; each probe's cost is the median batch.
const ROUNDS: usize = 11;

/// One timed call site: a census op (or `None` for an `mpint` kernel)
/// and the closure that calls it once.
struct Probe<'a> {
    op: Option<Op>,
    call: Box<dyn FnMut() + 'a>,
    batch: u64,
    per_call_ns: Vec<f64>,
    calls: u64,
    nested: Vec<(Op, u64)>,
}

impl<'a> Probe<'a> {
    fn new(op: Option<Op>, call: impl FnMut() + 'a) -> Self {
        Probe {
            op,
            call: Box::new(call),
            batch: 1,
            per_call_ns: Vec::new(),
            calls: 0,
            nested: Vec::new(),
        }
    }

    /// Sizes the batch from one warm call.
    fn size(&mut self) {
        (self.call)();
        let start = now_ns();
        (self.call)();
        self.batch = (BATCH_NS / (now_ns() - start).max(1)).clamp(1, 100_000);
    }

    /// Times one batch and adds the census counts it caused.
    fn round(&mut self) {
        let before = Snapshot::capture();
        let start = now_ns();
        for _ in 0..self.batch {
            (self.call)();
        }
        self.per_call_ns
            .push((now_ns() - start) as f64 / self.batch as f64);
        self.calls += self.batch;
        for (op, n) in Snapshot::capture().since(&before) {
            match self.nested.iter_mut().find(|(o, _)| *o == op) {
                Some((_, total)) => *total += n,
                None => self.nested.push((op, n)),
            }
        }
    }

    /// Census count of `op` per call.
    fn per_call(&self, op: Op) -> f64 {
        self.nested
            .iter()
            .find(|(o, _)| *o == op)
            .map_or(0.0, |(_, n)| *n as f64 / self.calls as f64)
    }
}

/// Times every leaf op and the two `mpint` exponentiations.  The probes
/// run in interleaved rounds, so a change in host speed during
/// calibration moves every probe alike instead of skewing a few.
pub fn calibrate() -> Costs {
    let rng = |what: &str| HmacDrbg::from_label(&format!("perfbench/calibration/{what}"));
    let mut setup = rng("keys");
    // The workloads' sizes: the 512-bit preset group (KEM, SRA, Schnorr)
    // and a 512-bit Paillier modulus (the scenario default), so n^2 has
    // 1024 bits.
    let group = SafePrimeGroup::preset(GroupSize::S512);
    let paillier = Paillier::test_keypair(512, "perfbench/calibration/paillier");
    let pk = paillier.public().clone();
    let base = random_below(&mut setup, group.p());
    let exponent = random_below(&mut setup, group.p());
    let unit = random_below(&mut setup, pk.n2());
    let block_input = [0x5a_u8; 4096];
    let key = [7u8; 32];
    let nonce = [9u8; 12];
    let message = [3u8; 64];
    let sra = SraCipher::generate(SraDomain::new(group.clone()), &mut setup);
    let point = group.hash_to_group(b"join-value");
    let kem = ElGamalKeyPair::generate(group.clone(), &mut setup);
    let (encap, _) = kem.public().encapsulate(64, &mut setup);
    let hybrid = HybridKeyPair::generate(group.clone(), &mut setup);
    let hybrid_pk = hybrid.public();
    let sealed = hybrid_pk.encrypt(&message, &mut setup);
    let m = random_below(&mut setup, pk.n());
    let c1 = pk.encrypt_reduced(&m, &mut setup);
    let c2 = pk.encrypt_reduced(&m, &mut setup);
    // Horner steps scale by an evaluation point: a SHA-256 digest, so
    // 256 bits.
    let gamma = Natural::from_bytes_be(&sha256(b"evaluation point"));
    let roots: Vec<Natural> = (1..=4u64).map(Natural::from).collect();
    let poly = EncryptedPoly::encrypt(&ZnPoly::from_roots(&roots, pk.n()), &pk, &mut setup);
    let payload = Natural::from(42u64);
    let schnorr = SchnorrKeyPair::generate(group.clone(), &mut setup);
    let signature = schnorr.sign(&message, &mut setup);

    let (mut kem_rng, mut hybrid_rng, mut enc_rng, mut mask_rng) =
        (rng("kem"), rng("hybrid"), rng("paillier"), rng("mask"));
    let mut probes = vec![
        Probe::new(None, || {
            black_box(base.modpow(&exponent, group.p()));
        }),
        Probe::new(None, || {
            black_box(unit.modpow(pk.n(), pk.n2()));
        }),
        Probe::new(Some(Op::Sha256Block), || {
            black_box(sha256(&block_input));
        }),
        Probe::new(Some(Op::ChaCha20Block), || {
            black_box(ChaCha20::new(&key, &nonce).apply(&block_input));
        }),
        Probe::new(Some(Op::Hmac), || {
            black_box(hmac_sha256(&key, &message));
        }),
        Probe::new(Some(Op::HashToGroup), || {
            black_box(group.hash_to_group(b"join-value"));
        }),
        Probe::new(Some(Op::CommutativeEncrypt), || {
            black_box(sra.encrypt(&point));
        }),
        Probe::new(Some(Op::KemEncapsulate), || {
            black_box(kem.public().encapsulate(64, &mut kem_rng));
        }),
        Probe::new(Some(Op::KemDecapsulate), || {
            black_box(kem.decapsulate(&encap, 64));
        }),
        Probe::new(Some(Op::HybridEncrypt), || {
            black_box(hybrid_pk.encrypt(&message, &mut hybrid_rng));
        }),
        Probe::new(Some(Op::HybridDecrypt), || {
            black_box(hybrid.decrypt(&sealed).expect("own ciphertext opens"));
        }),
        Probe::new(Some(Op::PaillierAdd), || {
            black_box(pk.add(&c1, &c2));
        }),
        Probe::new(Some(Op::PaillierScale), || {
            black_box(pk.scale(&c1, &gamma));
        }),
        Probe::new(Some(Op::PaillierEncrypt), || {
            black_box(pk.encrypt_reduced(&m, &mut enc_rng));
        }),
        Probe::new(Some(Op::PaillierDecrypt), || {
            black_box(paillier.decrypt(&c1));
        }),
        Probe::new(Some(Op::RandomMask), || {
            black_box(
                poly.mask(&c1, &payload, &mut mask_rng)
                    .expect("payload below n"),
            );
        }),
        Probe::new(Some(Op::SchnorrVerify), || {
            black_box(schnorr.public().verify(&message, &signature));
        }),
    ];
    for probe in &mut probes {
        probe.size();
    }
    for _ in 0..ROUNDS {
        for probe in &mut probes {
            probe.round();
        }
    }

    // Exclusive costs in `LEAF_OPS` order: every op nested inside a
    // probe's call is priced before the probe itself.
    let mut leaf: Vec<LeafCost> = Vec::new();
    for op in LEAF_OPS {
        let probe = probes
            .iter()
            .find(|p| p.op == Some(op))
            .expect("every leaf op has a probe");
        let inner_us: f64 = leaf
            .iter()
            .map(|inner| probe.per_call(inner.op) * inner.exclusive_us)
            .sum();
        let own = probe.per_call(op).max(f64::MIN_POSITIVE);
        let call_us = median(&probe.per_call_ns) / 1e3;
        leaf.push(LeafCost {
            op,
            per_call_us: call_us / own,
            exclusive_us: (call_us - inner_us) / own,
        });
    }
    Costs {
        modpow_p512_us: median(&probes[0].per_call_ns) / 1e3,
        modpow_n2_us: median(&probes[1].per_call_ns) / 1e3,
        leaf,
    }
}
