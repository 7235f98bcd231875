//! End-to-end protocol tests: every delivery phase, in every mode, must
//! produce exactly the plaintext reference join — and leak exactly what
//! Table 1 says it leaks.

// The byte-accounting check re-encodes recorded frames by hand.
#![allow(clippy::disallowed_methods)]

use secmed_core::workload::{small_workload, WorkloadSpec};
use secmed_core::{
    CommutativeConfig, CommutativeMode, DasConfig, Engine, PmConfig, PmEval, PmPayloadMode,
    ProtocolKind, RunOptions, Scenario, ScenarioBuilder,
};
use secmed_das::PartitionScheme;

fn all_protocol_configs() -> Vec<(&'static str, ProtocolKind)> {
    vec![
        (
            "das-equidepth",
            ProtocolKind::Das(DasConfig {
                scheme: PartitionScheme::EquiDepth(4),
                ..Default::default()
            }),
        ),
        (
            "das-equiwidth",
            ProtocolKind::Das(DasConfig {
                scheme: PartitionScheme::EquiWidth(4),
                ..Default::default()
            }),
        ),
        (
            "das-pervalue",
            ProtocolKind::Das(DasConfig {
                scheme: PartitionScheme::PerValue,
                ..Default::default()
            }),
        ),
        (
            "comm-echo",
            ProtocolKind::Commutative(CommutativeConfig {
                mode: CommutativeMode::EchoTuples,
            }),
        ),
        (
            "comm-ids",
            ProtocolKind::Commutative(CommutativeConfig {
                mode: CommutativeMode::IdReferences,
            }),
        ),
        (
            "pm-horner-session",
            ProtocolKind::Pm(PmConfig {
                eval: PmEval::Horner,
                payload: PmPayloadMode::SessionKeyTable,
            }),
        ),
        (
            "pm-naive-session",
            ProtocolKind::Pm(PmConfig {
                eval: PmEval::Naive,
                payload: PmPayloadMode::SessionKeyTable,
            }),
        ),
        (
            "pm-bucketed-session",
            ProtocolKind::Pm(PmConfig {
                eval: PmEval::Bucketed(4),
                payload: PmPayloadMode::SessionKeyTable,
            }),
        ),
        (
            "pm-horner-inline",
            ProtocolKind::Pm(PmConfig {
                eval: PmEval::Horner,
                payload: PmPayloadMode::Inline,
            }),
        ),
    ]
}

/// The inline-payload PM mode carries whole tuple sets inside the Paillier
/// plaintext, so its workloads must keep `Tup_i(a)` small (that limitation
/// is the point of footnote 2 — see `pm_inline_mode_rejects_oversized_tuple_sets`).
fn workload_for(name: &str, seed: &str) -> secmed_core::workload::Workload {
    if name.contains("inline") {
        // Deterministically one tuple per join value per side, so every
        // Tup_i(a) fits inline in a 768-bit Paillier plaintext.
        use relalg::{Relation, Schema, Tuple, Type, Value};
        let schema = |n: &str| Schema::new(&[("k", Type::Int), (n, Type::Str)]);
        let mut left = Relation::empty(schema("lp"));
        let mut right = Relation::empty(schema("rp"));
        for i in 0..10i64 {
            left.insert(Tuple::new(vec![
                Value::Int(i),
                Value::from(format!("l{i}")),
            ]))
            .unwrap();
        }
        for i in 5..15i64 {
            right
                .insert(Tuple::new(vec![
                    Value::Int(i),
                    Value::from(format!("r{i}")),
                ]))
                .unwrap();
        }
        let _ = seed;
        secmed_core::workload::Workload {
            left,
            right,
            expected_join_size: 5,
        }
    } else {
        small_workload(seed)
    }
}

#[test]
fn every_protocol_reproduces_the_plaintext_join() {
    for (name, kind) in all_protocol_configs() {
        let w = workload_for(name, "e2e");
        let mut sc = ScenarioBuilder::new(&w)
            .seed("e2e")
            .paillier_bits(768)
            .build();
        let expected = sc.expected_result().unwrap().sorted();
        let report =
            Engine::run(&mut sc, &RunOptions::new(kind)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            report.result.len(),
            w.expected_join_size,
            "{name}: wrong join size"
        );
        assert_eq!(report.result.sorted(), expected, "{name}: wrong result");
    }
}

#[test]
fn empty_join_works_in_every_protocol() {
    let w = WorkloadSpec {
        left_rows: 8,
        right_rows: 8,
        left_domain: 8,
        right_domain: 8,
        shared_values: 0,
        payload_attrs: 1,
        seed: "empty".to_string(),
        ..Default::default()
    }
    .generate();
    for (name, kind) in all_protocol_configs() {
        let mut sc = ScenarioBuilder::new(&w)
            .seed("empty")
            .paillier_bits(768)
            .build();
        let report =
            Engine::run(&mut sc, &RunOptions::new(kind)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.result.len(), 0, "{name}: expected empty join");
    }
}

#[test]
fn skewed_workload_joins_correctly() {
    let w = WorkloadSpec {
        left_rows: 30,
        right_rows: 30,
        left_domain: 10,
        right_domain: 10,
        shared_values: 5,
        skew: 1.5,
        seed: "skewed".to_string(),
        ..Default::default()
    }
    .generate();
    for (name, kind) in [
        ("das", ProtocolKind::Das(DasConfig::default())),
        (
            "comm",
            ProtocolKind::Commutative(CommutativeConfig::default()),
        ),
        ("pm", ProtocolKind::Pm(PmConfig::default())),
    ] {
        let mut sc = ScenarioBuilder::new(&w)
            .seed("skewed")
            .paillier_bits(768)
            .build();
        let report =
            Engine::run(&mut sc, &RunOptions::new(kind)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.result.len(), w.expected_join_size, "{name}");
    }
}

#[test]
fn das_mediator_learns_sizes_and_superset_bound() {
    let w = small_workload("das-audit");
    let mut sc = ScenarioBuilder::new(&w)
        .seed("das-audit")
        .paillier_bits(768)
        .build();
    let report = Engine::run(&mut sc, &RunOptions::das(DasConfig::default())).unwrap();
    let mv = &report.mediator_view;
    // Table 1, DAS row: mediator learns |R_i| and |R_C|.
    assert_eq!(mv.left_result_rows, Some(w.left.len()));
    assert_eq!(mv.right_result_rows, Some(w.right.len()));
    let rc = mv.server_result_size.expect("mediator sees |RC|");
    assert!(
        rc >= w.expected_join_size,
        "RC is an upper bound on the join"
    );
    // ...and nothing about active domains.
    assert_eq!(mv.left_domain_size, None);
    assert_eq!(mv.intersection_size, None);
    // Client: superset + index tables.
    assert_eq!(report.client_view.superset_pairs, Some(rc));
    assert!(report.client_view.index_tables_seen);
}

#[test]
fn das_mediator_setting_trades_leakage_for_rounds() {
    use secmed_core::{DasSetting, PartyId};
    let w = small_workload("das-setting");

    // Client setting: two client interactions, encrypted tables, mediator
    // never sees partition contents.
    let mut sc = ScenarioBuilder::new(&w)
        .seed("das-setting")
        .paillier_bits(768)
        .build();
    let client_run = Engine::run(&mut sc, &RunOptions::das(DasConfig::default())).unwrap();
    assert_eq!(client_run.transport.interactions_of(&PartyId::Client), 2);
    assert!(!client_run.mediator_view.plaintext_index_tables);
    assert!(client_run.client_view.index_tables_seen);

    // Mediator setting: a single client interaction — but the mediator now
    // holds the plaintext index tables (the leakage the paper warns about).
    let mut sc = ScenarioBuilder::new(&w)
        .seed("das-setting")
        .paillier_bits(768)
        .build();
    let med_run = Engine::run(
        &mut sc,
        &RunOptions::das(DasConfig {
            setting: DasSetting::MediatorSetting,
            ..Default::default()
        }),
    )
    .unwrap();
    assert_eq!(med_run.transport.interactions_of(&PartyId::Client), 1);
    assert!(med_run.mediator_view.plaintext_index_tables);
    assert!(!med_run.client_view.index_tables_seen);

    // Both settings produce the same result.
    assert_eq!(client_run.result.sorted(), med_run.result.sorted());
    assert_eq!(med_run.result.len(), w.expected_join_size);
}

#[test]
fn das_pervalue_superset_is_exact() {
    let w = small_workload("das-exact");
    let mut sc = ScenarioBuilder::new(&w)
        .seed("das-exact")
        .paillier_bits(768)
        .build();
    let report = Engine::run(
        &mut sc,
        &RunOptions::das(DasConfig {
            scheme: PartitionScheme::PerValue,
            ..Default::default()
        }),
    )
    .unwrap();
    // With singleton partitions the server query is exact: |RC| = join size.
    assert_eq!(
        report.mediator_view.server_result_size,
        Some(w.expected_join_size)
    );
}

#[test]
fn das_coarser_partitions_give_larger_supersets() {
    let w = WorkloadSpec {
        left_rows: 40,
        right_rows: 40,
        left_domain: 32,
        right_domain: 32,
        shared_values: 8,
        seed: "das-sweep".to_string(),
        ..Default::default()
    }
    .generate();
    let mut sizes = Vec::new();
    for k in [1usize, 4, 16] {
        let mut sc = ScenarioBuilder::new(&w)
            .seed("das-sweep")
            .paillier_bits(768)
            .build();
        let report = Engine::run(
            &mut sc,
            &RunOptions::das(DasConfig {
                scheme: PartitionScheme::EquiDepth(k),
                ..Default::default()
            }),
        )
        .unwrap();
        sizes.push(report.mediator_view.server_result_size.unwrap());
    }
    // Fewer partitions (coarser buckets) ⇒ superset at least as large.
    assert!(sizes[0] >= sizes[1] && sizes[1] >= sizes[2], "{sizes:?}");
    assert!(*sizes.last().unwrap() >= w.expected_join_size);
}

#[test]
fn commutative_mediator_learns_domains_and_intersection() {
    let w = small_workload("comm-audit");
    let mut sc = ScenarioBuilder::new(&w)
        .seed("comm-audit")
        .paillier_bits(768)
        .build();
    let report = Engine::run(
        &mut sc,
        &RunOptions::commutative(CommutativeConfig::default()),
    )
    .unwrap();
    let mv = &report.mediator_view;
    let dom1 = w.left.active_domain("k").unwrap().len();
    let dom2 = w.right.active_domain("k").unwrap().len();
    let true_intersection = w
        .left
        .active_domain("k")
        .unwrap()
        .intersection(&w.right.active_domain("k").unwrap())
        .count();
    // Table 1, commutative row.
    assert_eq!(mv.left_domain_size, Some(dom1));
    assert_eq!(mv.right_domain_size, Some(dom2));
    assert_eq!(mv.intersection_size, Some(true_intersection));
    assert_eq!(mv.left_result_rows, None);
    // Client: only the exact global result.
    assert_eq!(report.client_view.superset_pairs, None);
    assert_eq!(report.client_view.ciphertexts_received, None);
    assert!(!report.client_view.index_tables_seen);
}

#[test]
fn pm_mediator_learns_domain_sizes_only() {
    let w = small_workload("pm-audit");
    let mut sc = ScenarioBuilder::new(&w)
        .seed("pm-audit")
        .paillier_bits(768)
        .build();
    let report = Engine::run(&mut sc, &RunOptions::pm(PmConfig::default())).unwrap();
    let mv = &report.mediator_view;
    let dom1 = w.left.active_domain("k").unwrap().len();
    let dom2 = w.right.active_domain("k").unwrap().len();
    // Table 1, PM row: |domactive| via polynomial degree; no intersection.
    assert_eq!(mv.left_domain_size, Some(dom1));
    assert_eq!(mv.right_domain_size, Some(dom2));
    assert_eq!(mv.intersection_size, None);
    // Client: n + m ciphertexts, useful payloads = 2 × |intersection|.
    let true_intersection = w
        .left
        .active_domain("k")
        .unwrap()
        .intersection(&w.right.active_domain("k").unwrap())
        .count();
    assert_eq!(report.client_view.ciphertexts_received, Some(dom1 + dom2));
    assert_eq!(
        report.client_view.useful_payloads,
        Some(2 * true_intersection)
    );
}

#[test]
fn interaction_patterns_match_section_6() {
    use secmed_core::PartyId;
    let w = small_workload("interactions");

    // DAS: "the client has to interact twice with the mediator"; "for the
    // datasources ... they only have to send data once".
    let mut sc = ScenarioBuilder::new(&w)
        .seed("interactions")
        .paillier_bits(768)
        .build();
    let das = Engine::run(&mut sc, &RunOptions::das(DasConfig::default())).unwrap();
    assert_eq!(das.transport.interactions_of(&PartyId::Client), 2);
    assert_eq!(das.transport.interactions_of(&PartyId::source("r1")), 1);
    assert_eq!(das.transport.interactions_of(&PartyId::source("r2")), 1);

    // Commutative: sources interact twice; client only sends the query.
    let mut sc = ScenarioBuilder::new(&w)
        .seed("interactions")
        .paillier_bits(768)
        .build();
    let comm = Engine::run(
        &mut sc,
        &RunOptions::commutative(CommutativeConfig::default()),
    )
    .unwrap();
    assert_eq!(comm.transport.interactions_of(&PartyId::Client), 1);
    assert_eq!(comm.transport.interactions_of(&PartyId::source("r1")), 2);
    assert_eq!(comm.transport.interactions_of(&PartyId::source("r2")), 2);

    // PM: sources interact twice; client only sends the query.
    let mut sc = ScenarioBuilder::new(&w)
        .seed("interactions")
        .paillier_bits(768)
        .build();
    let pm = Engine::run(&mut sc, &RunOptions::pm(PmConfig::default())).unwrap();
    assert_eq!(pm.transport.interactions_of(&PartyId::Client), 1);
    assert_eq!(pm.transport.interactions_of(&PartyId::source("r1")), 2);
    assert_eq!(pm.transport.interactions_of(&PartyId::source("r2")), 2);
}

#[test]
fn pm_inline_mode_rejects_oversized_tuple_sets() {
    // Many tuples share one join value → the inline payload exceeds the
    // Paillier plaintext space → exactly the failure footnote 2 addresses.
    let w = WorkloadSpec {
        left_rows: 60,
        right_rows: 60,
        left_domain: 2,
        right_domain: 2,
        shared_values: 2,
        payload_attrs: 4,
        seed: "pm-overflow".to_string(),
        ..Default::default()
    }
    .generate();
    let mut sc = ScenarioBuilder::new(&w)
        .seed("pm-overflow")
        .paillier_bits(512)
        .build();
    let err = Engine::run(
        &mut sc,
        &RunOptions::pm(PmConfig {
            eval: PmEval::Horner,
            payload: PmPayloadMode::Inline,
        }),
    );
    assert!(
        err.is_err(),
        "inline payload should overflow a 512-bit modulus"
    );

    // The session-key-table mode handles the same workload fine.
    let mut sc = ScenarioBuilder::new(&w)
        .seed("pm-overflow")
        .paillier_bits(512)
        .build();
    let report = Engine::run(
        &mut sc,
        &RunOptions::pm(PmConfig {
            eval: PmEval::Horner,
            payload: PmPayloadMode::SessionKeyTable,
        }),
    )
    .unwrap();
    assert_eq!(report.result.len(), w.expected_join_size);
}

#[test]
fn commutative_id_mode_moves_fewer_bytes_through_sources() {
    use secmed_core::PartyId;
    let w = WorkloadSpec {
        left_rows: 40,
        right_rows: 40,
        left_domain: 20,
        right_domain: 20,
        shared_values: 10,
        payload_attrs: 4,
        seed: "comm-bytes".to_string(),
        ..Default::default()
    }
    .generate();

    let bytes_to_sources = |mode: CommutativeMode| {
        let mut sc = ScenarioBuilder::new(&w)
            .seed("comm-bytes")
            .paillier_bits(768)
            .build();
        let r = Engine::run(
            &mut sc,
            &RunOptions::commutative(CommutativeConfig { mode }),
        )
        .unwrap();
        r.transport.bytes_received_by(&PartyId::source("r1"))
            + r.transport.bytes_received_by(&PartyId::source("r2"))
    };

    let echo = bytes_to_sources(CommutativeMode::EchoTuples);
    let ids = bytes_to_sources(CommutativeMode::IdReferences);
    assert!(
        ids < echo,
        "footnote-1 optimization should shrink source traffic: {ids} vs {echo}"
    );
}

#[test]
fn transport_bytes_are_exact_frame_lengths_in_every_protocol() {
    for (name, kind) in all_protocol_configs() {
        // `workload_for` keeps the inline-payload PM configs on tuple sets
        // that fit a 768-bit Paillier plaintext (footnote 2's restriction).
        let w = workload_for(name, "exact-bytes");
        let mut sc = ScenarioBuilder::new(&w)
            .seed("exact-bytes")
            .paillier_bits(768)
            .build();
        let report =
            Engine::run(&mut sc, &RunOptions::new(kind)).unwrap_or_else(|e| panic!("{name}: {e}"));
        // total_bytes() must be the sum of the real encoded frame lengths —
        // decode every envelope and re-encode to prove it.
        let reencoded: usize = report
            .transport
            .log()
            .iter()
            .map(|e| {
                e.frame()
                    .unwrap_or_else(|err| panic!("{name}: undecodable envelope: {err}"))
                    .encode()
                    .len()
            })
            .sum();
        assert_eq!(report.transport.total_bytes(), reencoded, "{name}");
    }
}

#[test]
fn residual_query_work_is_applied_by_client() {
    let w = small_workload("residual");
    let mut sc = ScenarioBuilder::new(&w)
        .seed("residual")
        .paillier_bits(768)
        .build();
    sc.query = "select k from r1, r2 where r1.k = r2.k".to_string();
    let report = Engine::run(
        &mut sc,
        &RunOptions::commutative(CommutativeConfig::default()),
    )
    .unwrap();
    assert_eq!(report.result.schema().attr_names(), vec!["k"]);
    assert_eq!(report.result.len(), w.expected_join_size);
}

#[test]
fn group_by_aggregation_runs_over_the_encrypted_join() {
    use relalg::{Relation, Schema, Tuple, Type, Value};
    let mut left = Relation::empty(Schema::new(&[("k", Type::Int), ("region", Type::Str)]));
    let mut right = Relation::empty(Schema::new(&[("k", Type::Int), ("amount", Type::Int)]));
    for (k, region) in [(1i64, "north"), (2, "north"), (3, "south")] {
        left.insert(Tuple::new(vec![Value::Int(k), Value::from(region)]))
            .unwrap();
    }
    for (k, amount) in [(1i64, 10), (1, 30), (2, 5), (3, 100), (9, 999)] {
        right
            .insert(Tuple::new(vec![Value::Int(k), Value::Int(amount)]))
            .unwrap();
    }
    let w = secmed_core::workload::Workload {
        left,
        right,
        expected_join_size: 4,
    };
    let mut sc = ScenarioBuilder::new(&w)
        .seed("agg")
        .paillier_bits(768)
        .build();
    sc.query =
        "select region, sum(amount) from r1, r2 where r1.k = r2.k group by region".to_string();
    let report = Engine::run(
        &mut sc,
        &RunOptions::commutative(CommutativeConfig::default()),
    )
    .unwrap();
    assert_eq!(
        report.result.schema().attr_names(),
        vec!["region", "sum_amount"]
    );
    let get = |region: &str| {
        report
            .result
            .tuples()
            .iter()
            .find(|t| t.at(0) == &Value::from(region))
            .map(|t| t.at(1).clone())
    };
    assert_eq!(get("north"), Some(Value::Int(45)));
    assert_eq!(get("south"), Some(Value::Int(100)));
    // The aggregation happened at the client; the sources only ever
    // produced encrypted tuple sets (k=9 never joined, never decrypted).
}

#[test]
fn string_join_keys_work_in_every_protocol() {
    use relalg::{Relation, Schema, Tuple, Type, Value};
    let schema = |n: &str| Schema::new(&[("name", Type::Str), (n, Type::Int)]);
    let mut left = Relation::empty(schema("a"));
    let mut right = Relation::empty(schema("b"));
    for (i, n) in ["ada", "grace", "alan", "edsger"].iter().enumerate() {
        left.insert(Tuple::new(vec![Value::from(*n), Value::Int(i as i64)]))
            .unwrap();
    }
    for (i, n) in ["grace", "edsger", "barbara"].iter().enumerate() {
        right
            .insert(Tuple::new(vec![
                Value::from(*n),
                Value::Int(100 + i as i64),
            ]))
            .unwrap();
    }
    let w = secmed_core::workload::Workload {
        left,
        right,
        expected_join_size: 2,
    };
    for (name, kind) in [
        // Equi-depth partitioning handles Str domains; equi-width cannot.
        (
            "das",
            ProtocolKind::Das(DasConfig {
                scheme: PartitionScheme::EquiDepth(2),
                ..Default::default()
            }),
        ),
        (
            "comm",
            ProtocolKind::Commutative(CommutativeConfig::default()),
        ),
        ("pm", ProtocolKind::Pm(PmConfig::default())),
    ] {
        let mut sc = ScenarioBuilder::new(&w)
            .seed("strings")
            .paillier_bits(768)
            .build();
        sc.query = "select * from r1 natural join r2".to_string();
        let report =
            Engine::run(&mut sc, &RunOptions::new(kind)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.result.len(), 2, "{name}");
    }

    // Equi-width on a string domain fails loudly, not silently.
    let mut sc = ScenarioBuilder::new(&w)
        .seed("strings")
        .paillier_bits(768)
        .build();
    assert!(Engine::run(
        &mut sc,
        &RunOptions::das(DasConfig {
            scheme: PartitionScheme::EquiWidth(2),
            ..Default::default()
        })
    )
    .is_err());
}

#[test]
fn das_rejects_composite_join_keys() {
    // Build two relations sharing two attributes; NATURAL JOIN infers both.
    use relalg::{Relation, Schema, Type, Value};
    use secmed_core::{
        AccessPolicy, CertificationAuthority, Client, DataSource, Mediator, Property,
    };
    use secmed_crypto::drbg::HmacDrbg;
    use secmed_crypto::group::{GroupSize, SafePrimeGroup};

    let group = SafePrimeGroup::preset(GroupSize::S512);
    let mut rng = HmacDrbg::from_label("composite/ca");
    let ca = CertificationAuthority::new(group.clone(), &mut rng);
    let client = Client::setup(
        &ca,
        vec![Property::new("role", "x")],
        group,
        512,
        "composite/client",
    );

    let r1 = Relation::build(
        Schema::new(&[("a", Type::Int), ("b", Type::Int), ("x", Type::Str)]),
        vec![vec![Value::Int(1), Value::Int(2), Value::from("l")]],
    )
    .unwrap();
    let r2 = Relation::build(
        Schema::new(&[("a", Type::Int), ("b", Type::Int), ("y", Type::Str)]),
        vec![vec![Value::Int(1), Value::Int(2), Value::from("r")]],
    )
    .unwrap();
    let left = DataSource::new("r1", r1, AccessPolicy::allow_all(), ca.public_key().clone());
    let right = DataSource::new("r2", r2, AccessPolicy::allow_all(), ca.public_key().clone());
    let mediator = Mediator::new(&[&left, &right]);
    let mut sc = Scenario {
        client,
        mediator,
        left,
        right,
        query: "select * from r1 natural join r2".to_string(),
    };

    // DAS refuses composite keys...
    assert!(Engine::run(&mut sc, &RunOptions::das(DasConfig::default())).is_err());
    // ...while the commutative protocol handles them (future-work feature).
    let report = Engine::run(
        &mut sc,
        &RunOptions::commutative(CommutativeConfig::default()),
    )
    .unwrap();
    assert_eq!(report.result.len(), 1);
    // And PM as well.
    let report = Engine::run(&mut sc, &RunOptions::pm(PmConfig::default())).unwrap();
    assert_eq!(report.result.len(), 1);
}
