//! The paper's hybrid `encrypt(...)` / `decrypt(...)`.
//!
//! Section 2: *"the information is encrypted with a newly generated
//! symmetric session key and the session key is encrypted with the public
//! keys of the client."*  Concretely: an ElGamal KEM produces a fresh
//! 32-byte ChaCha20 key plus a 32-byte MAC key; the payload is encrypted
//! with ChaCha20 and authenticated with HMAC-SHA-256 (encrypt-then-MAC).
//!
//! The module also exposes the symmetric half on its own
//! ([`SessionKey`]) for the PM protocol's footnote-2 optimization, where
//! tuple sets are encrypted under per-set session keys and only the session
//! keys ride inside the homomorphic polynomial payload.

use mpint::rng::Rng;
use mpint::{FixedBase, Natural};

use crate::chacha20::ChaCha20;
use crate::elgamal::{ElGamalKeyPair, ElGamalPublicKey, Encapsulation};
use crate::group::SafePrimeGroup;
use crate::hmac::{hmac_sha256, mac_eq};
use crate::metrics::{count, Op};
use crate::CryptoError;

/// A client hybrid key pair (the key pair referenced by credentials).
#[derive(Clone)]
pub struct HybridKeyPair {
    kem: ElGamalKeyPair,
}

/// The public half, distributed inside credentials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridPublicKey {
    kem: ElGamalPublicKey,
}

/// A public key prepared for many encryptions: it holds a fixed-base
/// table for the recipient element `y`, so each KEM encapsulation takes
/// `y^r` from the table.  Building the table costs about four
/// exponentiations; it pays off for a batch, like a DAS source encrypting
/// every tuple of its partial result for one client.
pub struct PreparedHybridKey<'a> {
    key: &'a HybridPublicKey,
    y_table: FixedBase,
}

/// A hybrid ciphertext: KEM encapsulation + nonce + body + MAC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridCiphertext {
    encap: Encapsulation,
    nonce: [u8; 12],
    body: Vec<u8>,
    mac: [u8; 32],
}

/// A bare 32-byte symmetric session key (used stand-alone by the PM
/// protocol's session-key-table mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionKey(pub [u8; 32]);

impl HybridKeyPair {
    /// Generates a fresh key pair in `group`.
    pub fn generate(group: SafePrimeGroup, rng: &mut dyn Rng) -> Self {
        HybridKeyPair {
            kem: ElGamalKeyPair::generate(group, rng),
        }
    }

    /// The public key.
    pub fn public(&self) -> HybridPublicKey {
        HybridPublicKey {
            kem: self.kem.public().clone(),
        }
    }

    /// The paper's `decrypt(...)`: recovers the plaintext, verifying the MAC.
    pub fn decrypt(&self, ct: &HybridCiphertext) -> Result<Vec<u8>, CryptoError> {
        count(Op::HybridDecrypt);
        let keys = self.kem.decapsulate(&ct.encap, 64);
        let (enc_key, mac_key) = split_keys(&keys);
        let expected = body_mac(&mac_key, &ct.nonce, &ct.body);
        if !mac_eq(&expected, &ct.mac) {
            return Err(CryptoError::MacMismatch);
        }
        Ok(ChaCha20::new(&enc_key, &ct.nonce).apply(&ct.body))
    }
}

impl HybridPublicKey {
    /// Rebuilds a public key from its group and element (wire decoding),
    /// validating subgroup membership.
    pub fn from_parts(group: SafePrimeGroup, element: Natural) -> Result<Self, CryptoError> {
        Ok(HybridPublicKey {
            kem: ElGamalPublicKey::from_parts(group, element)?,
        })
    }

    /// The group the KEM operates in.
    pub fn group(&self) -> &SafePrimeGroup {
        self.kem.group()
    }

    /// The public KEM element (used for key fingerprints in credentials).
    pub fn element(&self) -> &Natural {
        self.kem.element()
    }

    /// The paper's `encrypt(...)`: fresh session key via KEM, ChaCha20
    /// payload encryption, HMAC over nonce and body.
    pub fn encrypt(&self, plaintext: &[u8], rng: &mut dyn Rng) -> HybridCiphertext {
        self.encrypt_with(None, plaintext, rng)
    }

    /// Builds the recipient table for a batch of encryptions under this key.
    pub fn prepare(&self) -> PreparedHybridKey<'_> {
        PreparedHybridKey {
            key: self,
            y_table: FixedBase::new(self.group().context(), self.element()),
        }
    }

    fn encrypt_with(
        &self,
        y_table: Option<&FixedBase>,
        plaintext: &[u8],
        rng: &mut dyn Rng,
    ) -> HybridCiphertext {
        count(Op::HybridEncrypt);
        let (encap, keys) = self.kem.encapsulate_with(y_table, 64, rng);
        let (enc_key, mac_key) = split_keys(&keys);
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut nonce);
        let body = ChaCha20::new(&enc_key, &nonce).apply(plaintext);
        let mac = body_mac(&mac_key, &nonce, &body);
        HybridCiphertext {
            encap,
            nonce,
            body,
            mac,
        }
    }
}

impl PreparedHybridKey<'_> {
    /// [`HybridPublicKey::encrypt`] with `y^r` from the table: the same
    /// DRBG draws, census bumps and ciphertext bytes.
    pub fn encrypt(&self, plaintext: &[u8], rng: &mut dyn Rng) -> HybridCiphertext {
        self.key.encrypt_with(Some(&self.y_table), plaintext, rng)
    }
}

impl HybridCiphertext {
    /// Total transported size in bytes (used by the transport recorder).
    pub fn byte_len(&self) -> usize {
        self.encap.byte_len() + 12 + self.body.len() + 32
    }

    /// Length of the encrypted body alone.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// Wire encoding: `u32 |encap| ‖ encap ‖ nonce ‖ u32 |body| ‖ body ‖ mac`.
    pub fn encode(&self) -> Vec<u8> {
        let encap = self.encap.element().to_bytes_be();
        let mut out = Vec::with_capacity(4 + encap.len() + 12 + 4 + self.body.len() + 32);
        out.extend_from_slice(&(encap.len() as u32).to_be_bytes());
        out.extend_from_slice(&encap);
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&(self.body.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.body);
        out.extend_from_slice(&self.mac);
        out
    }

    /// Decodes a wire-format ciphertext.
    pub fn decode(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        let encap_bytes = r.take_len_prefixed()?;
        let nonce: [u8; 12] = r
            .take(12)?
            .try_into()
            .map_err(|_| CryptoError::Malformed("nonce length"))?;
        let body = r.take_len_prefixed()?.to_vec();
        let mac: [u8; 32] = r
            .take(32)?
            .try_into()
            .map_err(|_| CryptoError::Malformed("mac length"))?;
        r.finish()?;
        Ok(HybridCiphertext {
            encap: Encapsulation::from_element(mpint::Natural::from_bytes_be(encap_bytes)),
            nonce,
            body,
            mac,
        })
    }
}

/// Minimal bounds-checked byte reader for the wire codecs.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CryptoError> {
        if self.bytes.len() - self.pos < n {
            return Err(CryptoError::Malformed("truncated wire data"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn take_len_prefixed(&mut self) -> Result<&'a [u8], CryptoError> {
        let b = self.take(4)?;
        let len = u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize;
        self.take(len)
    }

    fn finish(&self) -> Result<(), CryptoError> {
        if self.pos != self.bytes.len() {
            return Err(CryptoError::Malformed("trailing wire bytes"));
        }
        Ok(())
    }
}

impl SessionKey {
    /// Draws a fresh random session key.
    pub fn generate(rng: &mut dyn Rng) -> Self {
        let mut k = [0u8; 32];
        rng.fill_bytes(&mut k);
        SessionKey(k)
    }

    /// Symmetric encryption under this session key (ChaCha20 + HMAC).
    pub fn encrypt(&self, plaintext: &[u8], rng: &mut dyn Rng) -> SessionCiphertext {
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut nonce);
        let (enc_key, mac_key) = self.derive();
        let body = ChaCha20::new(&enc_key, &nonce).apply(plaintext);
        let mac = body_mac(&mac_key, &nonce, &body);
        SessionCiphertext { nonce, body, mac }
    }

    /// Symmetric decryption, verifying the MAC.
    pub fn decrypt(&self, ct: &SessionCiphertext) -> Result<Vec<u8>, CryptoError> {
        let (enc_key, mac_key) = self.derive();
        let expected = body_mac(&mac_key, &ct.nonce, &ct.body);
        if !mac_eq(&expected, &ct.mac) {
            return Err(CryptoError::MacMismatch);
        }
        Ok(ChaCha20::new(&enc_key, &ct.nonce).apply(&ct.body))
    }

    fn derive(&self) -> ([u8; 32], [u8; 32]) {
        let keys = crate::hmac::kdf(b"secmed-session", &self.0, b"", 64);
        split_keys(&keys)
    }
}

/// Ciphertext under a bare [`SessionKey`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionCiphertext {
    nonce: [u8; 12],
    body: Vec<u8>,
    mac: [u8; 32],
}

impl SessionCiphertext {
    /// Transported size in bytes.
    pub fn byte_len(&self) -> usize {
        12 + self.body.len() + 32
    }

    /// Wire encoding: `nonce ‖ u32 |body| ‖ body ‖ mac`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + 4 + self.body.len() + 32);
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&(self.body.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.body);
        out.extend_from_slice(&self.mac);
        out
    }

    /// Decodes a wire-format session ciphertext.
    pub fn decode(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        let nonce: [u8; 12] = r
            .take(12)?
            .try_into()
            .map_err(|_| CryptoError::Malformed("nonce length"))?;
        let body = r.take_len_prefixed()?.to_vec();
        let mac: [u8; 32] = r
            .take(32)?
            .try_into()
            .map_err(|_| CryptoError::Malformed("mac length"))?;
        r.finish()?;
        Ok(SessionCiphertext { nonce, body, mac })
    }
}

fn split_keys(keys: &[u8]) -> ([u8; 32], [u8; 32]) {
    let mut enc_key = [0u8; 32];
    let mut mac_key = [0u8; 32];
    enc_key.copy_from_slice(&keys[..32]);
    mac_key.copy_from_slice(&keys[32..64]);
    (enc_key, mac_key)
}

fn body_mac(mac_key: &[u8; 32], nonce: &[u8; 12], body: &[u8]) -> [u8; 32] {
    let mut msg = Vec::with_capacity(12 + body.len());
    msg.extend_from_slice(nonce);
    msg.extend_from_slice(body);
    hmac_sha256(mac_key, &msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;
    use crate::group::GroupSize;

    fn setup() -> (HybridKeyPair, HmacDrbg) {
        let mut rng = HmacDrbg::from_label("hybrid-tests");
        let group = SafePrimeGroup::preset(GroupSize::S256);
        (HybridKeyPair::generate(group, &mut rng), rng)
    }

    #[test]
    fn roundtrip() {
        let (kp, mut rng) = setup();
        let ct = kp.public().encrypt(b"partial result tuple", &mut rng);
        assert_eq!(kp.decrypt(&ct).unwrap(), b"partial result tuple");
    }

    #[test]
    fn empty_plaintext() {
        let (kp, mut rng) = setup();
        let ct = kp.public().encrypt(b"", &mut rng);
        assert_eq!(kp.decrypt(&ct).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn tampered_body_fails_mac() {
        let (kp, mut rng) = setup();
        let mut ct = kp.public().encrypt(b"secret", &mut rng);
        ct.body[0] ^= 1;
        assert_eq!(kp.decrypt(&ct), Err(CryptoError::MacMismatch));
    }

    #[test]
    fn tampered_nonce_fails_mac() {
        let (kp, mut rng) = setup();
        let mut ct = kp.public().encrypt(b"secret", &mut rng);
        ct.nonce[5] ^= 0xff;
        assert_eq!(kp.decrypt(&ct), Err(CryptoError::MacMismatch));
    }

    #[test]
    fn wrong_recipient_fails() {
        let (kp, mut rng) = setup();
        let other = HybridKeyPair::generate(kp.public().group().clone(), &mut rng);
        let ct = kp.public().encrypt(b"secret", &mut rng);
        assert!(other.decrypt(&ct).is_err());
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let (kp, mut rng) = setup();
        let c1 = kp.public().encrypt(b"same message", &mut rng);
        let c2 = kp.public().encrypt(b"same message", &mut rng);
        assert_ne!(c1, c2);
    }

    #[test]
    fn session_key_roundtrip() {
        let mut rng = HmacDrbg::from_label("session");
        let key = SessionKey::generate(&mut rng);
        let ct = key.encrypt(b"tuple set payload", &mut rng);
        assert_eq!(key.decrypt(&ct).unwrap(), b"tuple set payload");
    }

    #[test]
    fn session_key_tamper_detected() {
        let mut rng = HmacDrbg::from_label("session");
        let key = SessionKey::generate(&mut rng);
        let mut ct = key.encrypt(b"payload", &mut rng);
        ct.body[2] ^= 4;
        assert_eq!(key.decrypt(&ct), Err(CryptoError::MacMismatch));
    }

    #[test]
    fn session_key_wrong_key_detected() {
        let mut rng = HmacDrbg::from_label("session");
        let key = SessionKey::generate(&mut rng);
        let other = SessionKey::generate(&mut rng);
        let ct = key.encrypt(b"payload", &mut rng);
        assert_eq!(other.decrypt(&ct), Err(CryptoError::MacMismatch));
    }

    #[test]
    fn wire_roundtrip_hybrid() {
        let (kp, mut rng) = setup();
        let ct = kp.public().encrypt(b"over the wire", &mut rng);
        let decoded = HybridCiphertext::decode(&ct.encode()).unwrap();
        assert_eq!(decoded, ct);
        assert_eq!(kp.decrypt(&decoded).unwrap(), b"over the wire");
    }

    #[test]
    fn wire_rejects_truncation_and_trailing_bytes() {
        let (kp, mut rng) = setup();
        let bytes = kp.public().encrypt(b"x", &mut rng).encode();
        for cut in [0usize, 3, 10, bytes.len() - 1] {
            assert!(
                HybridCiphertext::decode(&bytes[..cut]).is_err(),
                "cut={cut}"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(HybridCiphertext::decode(&extended).is_err());
    }

    #[test]
    fn wire_roundtrip_session() {
        let mut rng = HmacDrbg::from_label("session-wire");
        let key = SessionKey::generate(&mut rng);
        let ct = key.encrypt(b"tuple set", &mut rng);
        let decoded = SessionCiphertext::decode(&ct.encode()).unwrap();
        assert_eq!(key.decrypt(&decoded).unwrap(), b"tuple set");
        assert!(SessionCiphertext::decode(&ct.encode()[..10]).is_err());
    }

    /// `f`'s result and the census of the primitives it ran.
    fn censused<T>(f: impl FnOnce() -> T) -> (T, Vec<(Op, u64)>) {
        let run = secmed_obs::run::open(false, crate::metrics::registry_counters());
        let out = f();
        (out, crate::metrics::census(run.census()))
    }

    #[test]
    fn prepared_key_encrypts_byte_for_byte_like_the_key() {
        let (kp, _) = setup();
        let pk = kp.public();
        let prepared = pk.prepare();
        let mut plaintexts: Vec<Vec<u8>> = (0..4).map(|n| vec![0xa5; n]).collect();
        plaintexts.push((0..100).collect());
        for pt in &plaintexts {
            // Two DRBGs in the same state.
            let label = format!("prepared-{}", pt.len());
            let (mut a, mut b) = (HmacDrbg::from_label(&label), HmacDrbg::from_label(&label));
            let (plain, plain_ops) = censused(|| pk.encrypt(pt, &mut a));
            let (table, table_ops) = censused(|| prepared.encrypt(pt, &mut b));
            assert!(plain_ops.contains(&(Op::HybridEncrypt, 1)));
            assert!(plain_ops.contains(&(Op::KemEncapsulate, 1)));
            assert_eq!(plain.encode(), table.encode(), "len {}", pt.len());
            assert_eq!(plain_ops, table_ops);
            assert_eq!(a.next_u64(), b.next_u64(), "same DRBG draws");
            assert_eq!(kp.decrypt(&table).unwrap(), *pt);
        }
    }

    #[test]
    fn byte_len_accounts_for_all_parts() {
        let (kp, mut rng) = setup();
        let ct = kp.public().encrypt(&[0u8; 100], &mut rng);
        assert!(ct.byte_len() >= 100 + 12 + 32);
        assert_eq!(ct.body_len(), 100);
    }
}
