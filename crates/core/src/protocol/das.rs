//! The DAS delivery phase, client setting (paper Listing 2).
//!
//! 1. Each source partitions `domactive(A_join)` into an index table.
//! 2. Each source encrypts its partial result row-wise (hybrid encryption
//!    under the client's credential key) and pairs each `etuple` with its
//!    index value; the index table itself is encrypted for the client.
//! 3. Sources send `⟨R_i^S, encrypt(ITable_i)⟩` to the mediator.
//! 4. The mediator forwards the two encrypted index tables to the client.
//! 5. The client decrypts the tables and translates the query into the
//!    server query `q_S` and the client query `q_C`; `q_S` goes back to
//!    the mediator.
//! 6. The mediator evaluates `q_S` over the encrypted partial results —
//!    pure ciphertext processing — and returns `R_C`.
//! 7. The client decrypts `R_C` and applies `q_C` to obtain the global
//!    result.
//!
//! Every step travels as an encoded [`Frame`]; the mediator joins over the
//! relations it *decoded from the wire*, and the client likewise works only
//! on received frames.

use mpint::rng::Rng;
use relalg::{decode_tuple, encode_tuple, Relation, Tuple};
use secmed_crypto::drbg::DrbgFamily;
use secmed_das::{DasRow, EncryptedDasRelation, IndexTable, ServerQuery};
use secmed_pool::Pool;

use crate::party::DataSource;
use crate::protocol::{
    apply_residual, assemble_from_candidates, degrade_note, DasConfig, DasSetting, Delivered,
    Prepared, Scenario,
};
use crate::transport::{Fabric, Frame, PartyId};
use crate::MedError;
use secmed_wire::DasTable;

/// Rebuilds an encrypted relation from rows decoded off the wire.
fn relation_from_rows(rows: Vec<DasRow>) -> EncryptedDasRelation {
    let mut rel = EncryptedDasRelation::new();
    for row in rows {
        rel.push(row);
    }
    rel
}

/// Runs the delivery phase of Listing 2.
pub(crate) fn deliver<F: Fabric>(
    sc: &mut Scenario,
    p: Prepared,
    cfg: DasConfig,
    transport: &mut F,
    pool: &Pool,
) -> Result<Delivered, MedError> {
    if p.join_attrs.len() != 1 {
        return Err(MedError::Protocol(
            "the DAS protocol indexes a single join attribute (paper Section 2 assumption); \
             use the commutative or PM protocol for composite keys"
                .to_string(),
        ));
    }
    let attr = p.join_attrs[0].clone();

    // Steps 1-3 at each source, encrypting under the public key carried by
    // the forwarded credentials.  In the mediator setting the index tables
    // are handed over in plaintext instead (the paper's warned-about
    // leakage; see `DasSetting`).
    let left_pk = p.left_client_key().clone();
    let right_pk = p.right_client_key().clone();
    let (r1s, table1, enc_table1, r2s, table2, enc_table2) = {
        let mut s = secmed_obs::span("das.encryption");
        let (r1s, table1, enc_table1) =
            source_prepare(&mut sc.left, &p.left_partial, &attr, cfg, &left_pk, pool)?;
        let (r2s, table2, enc_table2) =
            source_prepare(&mut sc.right, &p.right_partial, &attr, cfg, &right_pk, pool)?;
        s.field("left_rows", r1s.len());
        s.field("right_rows", r2s.len());
        (r1s, table1, enc_table1, r2s, table2, enc_table2)
    };

    // Step 3 on the wire: each source frames ⟨R_i^S, ITable_i⟩ and the
    // mediator decodes its own copies — the relations it will join over.
    let transfer = secmed_obs::span("das.transfer");
    let wire_table = |enc: &secmed_crypto::HybridCiphertext, plain: &IndexTable| match cfg.setting {
        DasSetting::ClientSetting => DasTable::Encrypted(enc.clone()),
        DasSetting::MediatorSetting => DasTable::Plain(plain.clone()),
    };
    let mut med_relations = Vec::with_capacity(2);
    let mut med_tables = Vec::with_capacity(2);
    for (source, rel, table, enc_table, label) in [
        (&sc.left, &r1s, &table1, &enc_table1, "L2.3 ⟨R1S, ITable1⟩"),
        (&sc.right, &r2s, &table2, &enc_table2, "L2.3 ⟨R2S, ITable2⟩"),
    ] {
        let frame = Frame::DasRelation {
            rows: rel.rows().to_vec(),
            table: wire_table(enc_table, table),
        };
        let received = transport.deliver(
            PartyId::source(source.name()),
            PartyId::Mediator,
            label,
            &frame,
        )?;
        let Frame::DasRelation { rows, table } = received else {
            return Err(MedError::Protocol(
                "expected a DAS relation frame".to_string(),
            ));
        };
        med_relations.push(relation_from_rows(rows));
        med_tables.push(table);
    }
    let med_r2s = med_relations.pop().unwrap_or_default();
    let med_r1s = med_relations.pop().unwrap_or_default();
    let (med_t2, med_t1) = (med_tables.pop(), med_tables.pop());

    let mut degraded: Vec<String> = Vec::new();
    let server_query = match cfg.setting {
        DasSetting::ClientSetting => {
            // Steps 4-5 as a unit: mediator → client (the encrypted index
            // tables, as decoded from the sources' frames), client
            // translation, client → mediator (the server query).
            let translate = || -> Result<ServerQuery, MedError> {
                let tables = match (med_t1, med_t2) {
                    (Some(DasTable::Encrypted(t1)), Some(DasTable::Encrypted(t2))) => vec![t1, t2],
                    _ => {
                        return Err(MedError::Protocol(
                            "client setting requires encrypted index tables".to_string(),
                        ))
                    }
                };
                let received = transport.deliver(
                    PartyId::Mediator,
                    PartyId::Client,
                    "L2.4 encrypt(ITable1), encrypt(ITable2)",
                    &Frame::DasIndexTables { tables },
                )?;
                let Frame::DasIndexTables { tables } = received else {
                    return Err(MedError::Protocol(
                        "expected an index-tables frame".to_string(),
                    ));
                };
                let [ref enc_t1, ref enc_t2] = tables[..] else {
                    return Err(MedError::Protocol(format!(
                        "expected two index tables, got {}",
                        tables.len()
                    )));
                };
                // Step 5: client decrypts the tables and builds the server
                // query.
                let t1 = IndexTable::decode(&sc.client.hybrid().decrypt(enc_t1)?)
                    .map_err(MedError::Das)?;
                let t2 = IndexTable::decode(&sc.client.hybrid().decrypt(enc_t2)?)
                    .map_err(MedError::Das)?;
                let q = ServerQuery::translate(&t1, &t2);
                let received = transport.deliver(
                    PartyId::Client,
                    PartyId::Mediator,
                    "L2.5 server query qS",
                    &Frame::DasServerQuery {
                        pairs: q.pairs().to_vec(),
                    },
                )?;
                let Frame::DasServerQuery { pairs } = received else {
                    return Err(MedError::Protocol(
                        "expected a server-query frame".to_string(),
                    ));
                };
                Ok(ServerQuery::from_pairs(pairs))
            };
            match translate() {
                Ok(q) => q,
                Err(MedError::Delivery(f)) if transport.degrade_on_exhausted() => {
                    // Sound degradation: without the client's translated
                    // query, the mediator joins every index pair — a
                    // superset of the true candidate set, so step 7's
                    // client query still filters it down to the correct
                    // result.  Costs ciphertext volume, never correctness.
                    degraded.push(degrade_note(&f));
                    let mut pairs = std::collections::BTreeSet::new();
                    for l in med_r1s.rows() {
                        for r in med_r2s.rows() {
                            pairs.insert((l.index, r.index));
                        }
                    }
                    ServerQuery::from_pairs(pairs.into_iter().collect())
                }
                Err(e) => return Err(e),
            }
        }
        DasSetting::MediatorSetting => {
            // The mediator translates directly from the plaintext tables —
            // one fewer client round trip, much more leakage.
            match (med_t1, med_t2) {
                (Some(DasTable::Plain(t1)), Some(DasTable::Plain(t2))) => {
                    ServerQuery::translate(&t1, &t2)
                }
                _ => {
                    return Err(MedError::Protocol(
                        "mediator setting requires plaintext index tables".to_string(),
                    ))
                }
            }
        }
    };
    drop(transfer);

    // Step 6: the mediator evaluates qS over the ciphertexts it received.
    let rc = {
        let mut s = secmed_obs::span("das.join");
        let rc = EncryptedDasRelation::server_join(&med_r1s, &med_r2s, &server_query, pool);
        s.field("candidate_pairs", rc.len());
        rc
    };
    let candidates_frame = {
        let _s = secmed_obs::span("das.transfer");
        transport.deliver(
            PartyId::Mediator,
            PartyId::Client,
            "L2.6 RC",
            &Frame::DasCandidates {
                pairs: rc.pairs().to_vec(),
            },
        )?
    };
    let Frame::DasCandidates { pairs } = candidates_frame else {
        return Err(MedError::Protocol(
            "expected a candidates frame".to_string(),
        ));
    };

    // Step 7: client decrypts RC on the pool and applies the client query.
    // Decryption draws no randomness, and the pool returns the error of
    // the first failing pair, as a sequential loop would.
    let mut post = secmed_obs::span("das.post");
    let client = sc.client.hybrid();
    let candidates: Vec<(Tuple, Tuple)> = pool.try_par_map(&pairs, |_, (l, r)| {
        let lt = decode_tuple(&client.decrypt(&l.etuple)?)?;
        let rt = decode_tuple(&client.decrypt(&r.etuple)?)?;
        Ok::<_, MedError>((lt, rt))
    })?;
    let joined = assemble_from_candidates(
        p.left_partial.schema(),
        p.right_partial.schema(),
        &p.join_attrs,
        &candidates,
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

/// Listing 2, steps 1-2 at one source: partition, index, encrypt.
fn source_prepare(
    src: &mut DataSource,
    partial: &Relation,
    attr: &str,
    cfg: DasConfig,
    client_pk: &secmed_crypto::HybridPublicKey,
    pool: &Pool,
) -> Result<
    (
        EncryptedDasRelation,
        IndexTable,
        secmed_crypto::HybridCiphertext,
    ),
    MedError,
> {
    let salt = src.rng().next_u64();
    let domain = partial.active_domain(attr)?;
    let table = if domain.is_empty() {
        IndexTable::empty(salt)
    } else {
        IndexTable::build(&domain, cfg.scheme, salt)?
    };
    let attr_idx = partial.schema().index_of(attr)?;
    // Per-tuple hybrid encryption runs on the pool; each tuple draws from
    // its own DRBG stream so the ciphertexts are independent of both the
    // schedule and the thread count.  Every encryption is for the one
    // client key, so its recipient table is built once, for this call.
    let client_key = client_pk.prepare();
    let streams = DrbgFamily::derive(src.rng());
    let rows = pool.try_par_map(partial.tuples(), |i, t| {
        let mut rng = streams.stream(i as u64);
        let etuple = client_key.encrypt(&encode_tuple(t), &mut rng);
        let index = table.index_of(t.at(attr_idx))?;
        Ok::<DasRow, MedError>(DasRow { etuple, index })
    })?;
    let mut encrypted = EncryptedDasRelation::new();
    for row in rows {
        encrypted.push(row);
    }
    let enc_table = client_key.encrypt(&table.encode(), src.rng());
    Ok((encrypted, table, enc_table))
}
