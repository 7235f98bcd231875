//! The commutative-encryption delivery phase (paper Listing 3, after
//! Agrawal et al.).
//!
//! Each source hashes every active join value into the quadratic-residue
//! group (the ideal hash `h`), encrypts the hashes under its own secret
//! SRA exponent, and hybrid-encrypts the matching tuple sets for the
//! client.  The hash values make a round trip through the *opposite*
//! source, which applies its own exponent — commutativity makes the double
//! encryptions comparable — and the mediator matches equal double
//! encryptions to pair up `encrypt(Tup_1(a))` with `encrypt(Tup_2(a))`.
//!
//! [`CommutativeMode::IdReferences`] implements the paper's footnote 1:
//! the mediator keeps the tuple ciphertexts and circulates only
//! fixed-length IDs alongside the hash values.  In `EchoTuples` the tuple
//! ciphertexts really do ride every leg of the round trip, so the byte
//! difference between the modes is visible on the recorded frames.

use std::collections::BTreeMap;

use mpint::rng::Rng;
use mpint::Natural;
use relalg::{decode_tuple_set, encode_tuple_set, Tuple};
use secmed_crypto::drbg::DrbgFamily;
use secmed_crypto::hybrid::HybridCiphertext;
use secmed_crypto::{SraCipher, SraDomain};
use secmed_pool::Pool;

use crate::protocol::{
    apply_residual, assemble_from_tuple_sets, degrade_note, group_by_join_key, CommutativeConfig,
    CommutativeMode, Delivered, Prepared, Scenario,
};
use crate::transport::{Fabric, Frame, PartyId};
use crate::MedError;
use secmed_wire::TupleRef;

/// One element of a source's message set `M_i`: the singly-encrypted hash
/// with its client-encrypted tuple set.
struct SourceMessage {
    enc_hash: Natural,
    tuple_ct: HybridCiphertext,
}

/// Runs the delivery phase of Listing 3.
pub(crate) fn deliver<F: Fabric>(
    sc: &mut Scenario,
    p: Prepared,
    cfg: CommutativeConfig,
    transport: &mut F,
    pool: &Pool,
) -> Result<Delivered, MedError> {
    // The client key each source encrypts tuple sets under comes from its
    // forwarded credentials; the SRA domain is the same public group.
    let left_pk = p.left_client_key().clone();
    let right_pk = p.right_client_key().clone();
    let domain = SraDomain::new(left_pk.group().clone());

    // Step 1-2 at each source: fresh SRA key; hash+encrypt each active
    // value; hybrid-encrypt each Tup_i(a).
    let (s1, s2, m1, m2) = {
        let mut s = secmed_obs::span("commutative.encryption");
        let s1 = SraCipher::generate(domain.clone(), sc.left.rng());
        let s2 = SraCipher::generate(domain.clone(), sc.right.rng());

        let groups1 = group_by_join_key(&p.left_partial, &p.join_attrs)?;
        let groups2 = group_by_join_key(&p.right_partial, &p.join_attrs)?;

        let m1 = build_messages(&s1, &groups1, &left_pk, sc.left.rng(), pool);
        let m2 = build_messages(&s2, &groups2, &right_pk, sc.right.rng(), pool);
        s.field("left_domain", m1.len());
        s.field("right_domain", m2.len());
        (s1, s2, m1, m2)
    };

    // Step 3: Si → mediator, each set as one frame.  The mediator's copies
    // are the decoded frames — they are what it later matches over.
    let transfer = secmed_obs::span("commutative.transfer");
    let to_set = |ms: &[SourceMessage]| Frame::CommutativeSet {
        items: ms
            .iter()
            .map(|m| (m.enc_hash.clone(), m.tuple_ct.clone()))
            .collect(),
    };
    let received = transport.deliver(
        PartyId::source(sc.left.name()),
        PartyId::Mediator,
        "L3.3 M1",
        &to_set(&m1),
    )?;
    let Frame::CommutativeSet { items: med_m1 } = received else {
        return Err(MedError::Protocol("expected a value-set frame".to_string()));
    };
    let received = transport.deliver(
        PartyId::source(sc.right.name()),
        PartyId::Mediator,
        "L3.3 M2",
        &to_set(&m2),
    )?;
    let Frame::CommutativeSet { items: med_m2 } = received else {
        return Err(MedError::Protocol("expected a value-set frame".to_string()));
    };

    // Step 4: the hash values cross to the opposite source.  In
    // `EchoTuples` the tuple ciphertexts ride along (exactly Listing 3);
    // in `IdReferences` (footnote 1) the mediator keeps them and sends
    // fixed-length IDs instead.
    let cross_ref = |idx: usize, ct: &HybridCiphertext| match cfg.mode {
        CommutativeMode::EchoTuples => TupleRef::Echo(ct.clone()),
        CommutativeMode::IdReferences => TupleRef::Id(idx as u64),
    };
    let cross_of = |items: &[(Natural, HybridCiphertext)]| Frame::CommutativeCross {
        items: items
            .iter()
            .enumerate()
            .map(|(i, (v, ct))| (v.clone(), cross_ref(i, ct)))
            .collect(),
    };
    // An exhausted L3.4 delivery degrades to an empty crossing set for
    // that source: its doubled set comes back empty, so every match
    // involving it is lost — a *partial* intersection, reported as
    // `Degraded`, never a silent wrong answer (matching only ever removes
    // pairs, and the client still verifies join values in step 8).
    let mut degraded: Vec<String> = Vec::new();
    let s1_in = match transport.deliver(
        PartyId::Mediator,
        PartyId::source(sc.left.name()),
        "L3.4 M2 → S1",
        &cross_of(&med_m2),
    ) {
        Ok(Frame::CommutativeCross { items }) => items,
        Ok(_) => return Err(MedError::Protocol("expected a crossing frame".to_string())),
        Err(MedError::Delivery(f)) if transport.degrade_on_exhausted() => {
            degraded.push(degrade_note(&f));
            Vec::new()
        }
        Err(e) => return Err(e),
    };
    let s2_in = match transport.deliver(
        PartyId::Mediator,
        PartyId::source(sc.right.name()),
        "L3.4 M1 → S2",
        &cross_of(&med_m1),
    ) {
        Ok(Frame::CommutativeCross { items }) => items,
        Ok(_) => return Err(MedError::Protocol("expected a crossing frame".to_string())),
        Err(MedError::Delivery(f)) if transport.degrade_on_exhausted() => {
            degraded.push(degrade_note(&f));
            Vec::new()
        }
        Err(e) => return Err(e),
    };
    drop(transfer);

    // Steps 5-6: each source applies its own exponent to the received
    // hashes and sends the doubled set back, echoing each tuple reference
    // unchanged.  SRA re-encryption is deterministic given the key, so the
    // double passes parallelize with no RNG plumbing at all.
    let (doubled_by_s1, doubled_by_s2) = {
        let _s = secmed_obs::span("commutative.encryption");
        let d1: Vec<Natural> = pool.par_map(&s1_in, |_, (v, _)| s1.encrypt(v));
        let d2: Vec<Natural> = pool.par_map(&s2_in, |_, (v, _)| s2.encrypt(v));
        let doubled =
            |ds: Vec<Natural>, items: Vec<(Natural, TupleRef)>| Frame::CommutativeDoubled {
                items: ds
                    .into_iter()
                    .zip(items)
                    .map(|(d, (_, tr))| (d, tr))
                    .collect(),
            };
        (doubled(d1, s1_in), doubled(d2, s2_in))
    };
    let transfer = secmed_obs::span("commutative.transfer");
    // L3.5/L3.6 degrade the same way: a doubled set that never arrives
    // contributes no matches.
    let doubled_m2 = match transport.deliver(
        PartyId::source(sc.left.name()),
        PartyId::Mediator,
        "L3.5 ⟨f_e1(f_e2(h(a))), …⟩",
        &doubled_by_s1,
    ) {
        Ok(Frame::CommutativeDoubled { items }) => items,
        Ok(_) => {
            return Err(MedError::Protocol(
                "expected a doubled-set frame".to_string(),
            ))
        }
        Err(MedError::Delivery(f)) if transport.degrade_on_exhausted() => {
            degraded.push(degrade_note(&f));
            Vec::new()
        }
        Err(e) => return Err(e),
    };
    let doubled_m1 = match transport.deliver(
        PartyId::source(sc.right.name()),
        PartyId::Mediator,
        "L3.6 ⟨f_e2(f_e1(h(a))), …⟩",
        &doubled_by_s2,
    ) {
        Ok(Frame::CommutativeDoubled { items }) => items,
        Ok(_) => {
            return Err(MedError::Protocol(
                "expected a doubled-set frame".to_string(),
            ))
        }
        Err(MedError::Delivery(f)) if transport.degrade_on_exhausted() => {
            degraded.push(degrade_note(&f));
            Vec::new()
        }
        Err(e) => return Err(e),
    };
    drop(transfer);

    // Step 7: the mediator matches identical first components and resolves
    // each tuple reference — echoed ciphertexts come out of the doubled
    // frames themselves, IDs out of the L3.3 sets the mediator kept.
    let mut intersection = secmed_obs::span("commutative.intersection");
    let resolve = |tr: &TupleRef,
                   kept: &[(Natural, HybridCiphertext)]|
     -> Result<HybridCiphertext, MedError> {
        match tr {
            TupleRef::Echo(ct) => Ok(ct.clone()),
            TupleRef::Id(i) => kept
                .get(*i as usize)
                .map(|(_, ct)| ct.clone())
                .ok_or_else(|| MedError::Protocol(format!("tuple reference {i} out of range"))),
        }
    };
    let mut by_double: BTreeMap<Vec<u8>, &TupleRef> = BTreeMap::new();
    for (d, tr) in &doubled_m1 {
        by_double.insert(d.to_bytes_be(), tr);
    }
    let mut result_pairs: Vec<(HybridCiphertext, HybridCiphertext)> = Vec::new();
    for (d, tr2) in &doubled_m2 {
        if let Some(tr1) = by_double.get(&d.to_bytes_be()) {
            result_pairs.push((resolve(tr1, &med_m1)?, resolve(tr2, &med_m2)?));
        }
    }
    intersection.field("matches", result_pairs.len());
    drop(intersection);

    let received = {
        let _s = secmed_obs::span("commutative.transfer");
        transport.deliver(
            PartyId::Mediator,
            PartyId::Client,
            "L3.7 ⟨encrypt(Tup1(a)), encrypt(Tup2(a))⟩ result messages",
            &Frame::ResultPairs {
                pairs: result_pairs,
            },
        )?
    };
    let Frame::ResultPairs { pairs } = received else {
        return Err(MedError::Protocol(
            "expected a result-pairs frame".to_string(),
        ));
    };

    // Step 8: the client decrypts and combines (cross product per pair).
    let mut post = secmed_obs::span("commutative.post");
    let mut tuple_set_pairs: Vec<(Vec<Tuple>, Vec<Tuple>)> = Vec::with_capacity(pairs.len());
    for (ct1, ct2) in &pairs {
        let ts1 = decode_tuple_set(&sc.client.hybrid().decrypt(ct1)?)?;
        let ts2 = decode_tuple_set(&sc.client.hybrid().decrypt(ct2)?)?;
        tuple_set_pairs.push((ts1, ts2));
    }
    let joined = assemble_from_tuple_sets(
        p.left_partial.schema(),
        p.right_partial.schema(),
        &p.join_attrs,
        &tuple_set_pairs,
    )?;
    let result = apply_residual(&joined, &p.residual)?;
    post.field("result_rows", result.len());
    drop(post);

    Ok(Delivered {
        result,
        degraded,
        useful_payloads: None,
    })
}

/// Listing 3 steps 1-2: `⟨f_ei(h(a)), encrypt(Tup_i(a))⟩` for every `a`,
/// in an order independent of the input order (the paper's "arbitrarily
/// ordered set" — we sort by the encrypted hash).
fn build_messages(
    cipher: &SraCipher,
    groups: &BTreeMap<Vec<u8>, Vec<Tuple>>,
    client_pk: &secmed_crypto::HybridPublicKey,
    rng: &mut dyn Rng,
    pool: &Pool,
) -> Vec<SourceMessage> {
    // One DRBG stream per active value, indexed by the value's position in
    // the canonical (BTreeMap) key order: ciphertexts are the same at any
    // thread count.
    let streams = DrbgFamily::derive(rng);
    let entries: Vec<(&Vec<u8>, &Vec<Tuple>)> = groups.iter().collect();
    let mut messages = pool.par_map(&entries, |i, (key_bytes, tuples)| {
        let mut rng = streams.stream(i as u64);
        let enc_hash = cipher.encrypt_value(key_bytes);
        let tuple_ct = client_pk.encrypt(&encode_tuple_set(tuples), &mut rng);
        SourceMessage { enc_hash, tuple_ct }
    });
    messages.sort_by(|a, b| a.enc_hash.cmp(&b.enc_hash));
    messages
}
