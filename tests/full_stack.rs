//! Cross-crate integration tests: SQL text in, verified ciphertext-mediated
//! join out, exercising every layer of the stack together.

use std::collections::BTreeMap;

use secmed::core::plan::{LeakageBudget, PlanRunOptions, SourceSpec};
use secmed::core::workload::small_workload;
use secmed::core::{
    AccessPolicy, AccessRule, CertificationAuthority, Client, CommutativeConfig, DasConfig,
    DataSource, Engine, MedError, Mediator, PmConfig, Property, ProtocolKind, RunOptions, Scenario,
    ScenarioBuilder,
};
use secmed::crypto::group::{GroupSize, SafePrimeGroup};
use secmed::crypto::HmacDrbg;
use secmed::plan::{stats_of, Planner};
use secmed::relalg::{Predicate, Relation, Schema, Type, Value};

fn group() -> SafePrimeGroup {
    SafePrimeGroup::preset(GroupSize::S512)
}

fn fixture(seed: &str, left_policy: AccessPolicy, right_policy: AccessPolicy) -> Scenario {
    let mut rng = HmacDrbg::from_label(&format!("{seed}/ca"));
    let ca = CertificationAuthority::new(group(), &mut rng);
    let client = Client::setup(
        &ca,
        vec![
            Property::new("role", "auditor"),
            Property::new("dept", "claims"),
        ],
        group(),
        768,
        &format!("{seed}/client"),
    );
    let employees = Relation::build(
        Schema::new(&[
            ("eid", Type::Int),
            ("name", Type::Str),
            ("level", Type::Int),
        ]),
        vec![
            vec![Value::Int(1), Value::from("ada"), Value::Int(3)],
            vec![Value::Int(2), Value::from("grace"), Value::Int(5)],
            vec![Value::Int(3), Value::from("alan"), Value::Int(7)],
        ],
    )
    .unwrap();
    let salaries = Relation::build(
        Schema::new(&[("eid", Type::Int), ("salary", Type::Int)]),
        vec![
            vec![Value::Int(1), Value::Int(60_000)],
            vec![Value::Int(2), Value::Int(90_000)],
            vec![Value::Int(4), Value::Int(10_000)],
        ],
    )
    .unwrap();
    let left = DataSource::new("employees", employees, left_policy, ca.public_key().clone());
    let right = DataSource::new("salaries", salaries, right_policy, ca.public_key().clone());
    let mediator = Mediator::new(&[&left, &right]);
    Scenario {
        client,
        mediator,
        left,
        right,
        query: "select * from employees natural join salaries".to_string(),
    }
}

#[test]
fn sql_to_ciphertext_join_full_stack() {
    let mut sc = fixture(
        "fullstack",
        AccessPolicy::allow_all(),
        AccessPolicy::allow_all(),
    );
    for kind in [
        ProtocolKind::Das(DasConfig::default()),
        ProtocolKind::Commutative(CommutativeConfig::default()),
        ProtocolKind::Pm(PmConfig::default()),
    ] {
        let report = Engine::run(&mut sc, &RunOptions::new(kind)).unwrap();
        assert_eq!(report.result.len(), 2);
        assert_eq!(
            report.result.schema().attr_names(),
            vec!["eid", "name", "level", "salary"]
        );
    }
}

#[test]
fn access_denied_stops_the_protocol_before_data_moves() {
    let deny = AccessPolicy::new(vec![AccessRule::full_access(vec![Property::new(
        "role",
        "superadmin",
    )])]);
    let mut sc = fixture("denied", deny, AccessPolicy::allow_all());
    let err = Engine::run(
        &mut sc,
        &RunOptions::commutative(CommutativeConfig::default()),
    );
    assert!(matches!(err, Err(MedError::AccessDenied(_))));
}

#[test]
fn row_filters_shape_the_join_result() {
    // The employees source only reveals rows with level <= 5 to auditors.
    let filtered = AccessPolicy::new(vec![AccessRule::filtered(
        vec![Property::new("role", "auditor")],
        Predicate::Le(
            secmed::relalg::Operand::col("level"),
            secmed::relalg::Operand::lit(5i64),
        ),
    )]);
    let mut sc = fixture("rowfilter", filtered, AccessPolicy::allow_all());
    let report = Engine::run(&mut sc, &RunOptions::pm(PmConfig::default())).unwrap();
    // alan (level 7) is filtered at the source; only ada and grace join.
    assert_eq!(report.result.len(), 2);
    for t in report.result.tuples() {
        assert_ne!(t.at(1), &Value::from("alan"));
    }
}

#[test]
fn projection_and_selection_compose_with_encryption() {
    let mut sc = fixture(
        "project",
        AccessPolicy::allow_all(),
        AccessPolicy::allow_all(),
    );
    sc.query =
        "select name from employees, salaries where employees.eid = salaries.eid and salary < 70000"
            .to_string();
    let report = Engine::run(
        &mut sc,
        &RunOptions::commutative(CommutativeConfig::default()),
    )
    .unwrap();
    assert_eq!(report.result.schema().attr_names(), vec!["name"]);
    assert_eq!(report.result.len(), 1);
    assert_eq!(report.result.tuples()[0].at(0), &Value::from("ada"));
}

fn relation(attrs: &[(&str, Type)], rows: Vec<Vec<Value>>) -> Relation {
    Relation::build(Schema::new(attrs), rows).unwrap()
}

/// The Section 8 mediator hierarchy: the chained join `a ⨝ b ⨝ c` runs as a
/// two-node plan whose first result is a datasource of the second
/// mediation. Asserts the plan's two mediations and compares the result
/// with the plaintext join, ignoring column order.
fn assert_chain_matches_plaintext(seed: &str, [a, b, c]: [Relation; 3], kind: ProtocolKind) {
    let mut rng = HmacDrbg::from_label(&format!("{seed}/ca"));
    let ca = CertificationAuthority::new(group(), &mut rng);
    let client_label = format!("{seed}/client");
    let template = || {
        Client::setup(
            &ca,
            vec![Property::new("role", "x")],
            group(),
            768,
            &client_label,
        )
    };
    let reference = a.natural_join(&b).unwrap().natural_join(&c).unwrap();
    let catalog = BTreeMap::from([
        ("a".to_string(), a),
        ("b".to_string(), b),
        ("c".to_string(), c),
    ]);
    let schemas: BTreeMap<_, _> = catalog
        .iter()
        .map(|(name, rel)| (name.clone(), rel.schema().clone()))
        .collect();
    let plan = Planner::with_candidates(vec![kind])
        .plan(
            "select * from a natural join b natural join c",
            &schemas,
            &stats_of(&catalog),
            LeakageBudget::open(),
        )
        .unwrap();
    let sources = catalog
        .into_iter()
        .map(|(name, relation)| SourceSpec {
            name,
            relation,
            policy: AccessPolicy::allow_all(),
        })
        .collect();
    let report =
        Engine::run_plan(&ca, template, sources, &plan, &PlanRunOptions::default()).unwrap();
    assert_eq!(report.nodes.len(), 2, "{kind:?}");
    let cols = reference.schema().attr_names();
    assert_eq!(
        report.result.project(&cols).unwrap().sorted(),
        reference.sorted(),
        "{kind:?}"
    );
}

#[test]
fn hierarchy_chains_two_mediations() {
    let a = relation(
        &[("k", Type::Int), ("a", Type::Str)],
        vec![
            vec![Value::Int(1), Value::from("x")],
            vec![Value::Int(2), Value::from("y")],
        ],
    );
    let b = relation(
        &[("k", Type::Int), ("b", Type::Int)],
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
        ],
    );
    let c = relation(
        &[("b", Type::Int), ("c", Type::Str)],
        vec![vec![Value::Int(10), Value::from("deep")]],
    );
    assert_chain_matches_plaintext(
        "chain",
        [a, b, c],
        ProtocolKind::Commutative(CommutativeConfig::default()),
    );
}

#[test]
fn hierarchy_works_with_all_three_protocols() {
    let make = || {
        [
            relation(
                &[("k", Type::Int), ("a", Type::Int)],
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(2), Value::Int(20)],
                ],
            ),
            relation(
                &[("k", Type::Int), ("b", Type::Int)],
                vec![
                    vec![Value::Int(1), Value::Int(7)],
                    vec![Value::Int(3), Value::Int(9)],
                ],
            ),
            relation(
                &[("b", Type::Int), ("c", Type::Str)],
                vec![vec![Value::Int(7), Value::from("leaf")]],
            ),
        ]
    };
    for kind in [
        ProtocolKind::Das(DasConfig::default()),
        ProtocolKind::Commutative(CommutativeConfig::default()),
        ProtocolKind::Pm(PmConfig::default()),
    ] {
        assert_chain_matches_plaintext("chain3", make(), kind);
    }
}

#[test]
fn transport_log_shows_no_plaintext_sized_leaks_to_mediator() {
    // Weak heuristic sanity check: the mediator's received bytes in the
    // commutative protocol scale with ciphertext counts, and the client's
    // received bytes are no larger than the mediator's total traffic.
    let w = small_workload("leakcheck");
    let mut sc = ScenarioBuilder::new(&w)
        .seed("leakcheck")
        .paillier_bits(768)
        .build();
    let report = Engine::run(
        &mut sc,
        &RunOptions::commutative(CommutativeConfig::default()),
    )
    .unwrap();
    assert!(report.client_view.bytes_received <= report.transport.total_bytes());
    assert!(report.mediator_view.bytes_observed > 0);
}

#[test]
fn deterministic_scenarios_reproduce_identical_transcripts() {
    let w = small_workload("repro");
    let run = || {
        let mut sc = ScenarioBuilder::new(&w)
            .seed("repro")
            .paillier_bits(768)
            .build();
        let r = Engine::run(&mut sc, &RunOptions::pm(PmConfig::default())).unwrap();
        (r.result.sorted(), r.transport.total_bytes())
    };
    let (r1, b1) = run();
    let (r2, b2) = run();
    assert_eq!(r1, r2);
    assert_eq!(b1, b2, "same seeds must give byte-identical transcripts");
}
