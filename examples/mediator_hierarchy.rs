//! Mediator hierarchy — the future-work item of the paper's Section 8:
//! a mediator acting as a datasource for another mediator, executing two
//! join queries successively.  The three-way join of patients, treatments
//! and billing is planned as a two-node plan: the first node's result is
//! the datasource the second mediation joins with the third relation.
//!
//! Run with: `cargo run --release --example mediator_hierarchy`

use std::collections::BTreeMap;

use secmed::core::plan::{LeakageBudget, PlanRunOptions, SourceSpec};
use secmed::core::{
    AccessPolicy, CertificationAuthority, Client, CommutativeConfig, Engine, Property, ProtocolKind,
};
use secmed::crypto::group::{GroupSize, SafePrimeGroup};
use secmed::crypto::HmacDrbg;
use secmed::plan::{stats_of, Planner};
use secmed::relalg::{Relation, Schema, Type, Value};

fn patients() -> Relation {
    Relation::build(
        Schema::new(&[("pid", Type::Int), ("name", Type::Str)]),
        vec![
            vec![Value::Int(1), Value::from("ada")],
            vec![Value::Int(2), Value::from("grace")],
            vec![Value::Int(3), Value::from("alan")],
        ],
    )
    .expect("rows conform")
}

fn treatments() -> Relation {
    Relation::build(
        Schema::new(&[("pid", Type::Int), ("code", Type::Int)]),
        vec![
            vec![Value::Int(1), Value::Int(77)],
            vec![Value::Int(2), Value::Int(88)],
            vec![Value::Int(2), Value::Int(99)],
        ],
    )
    .expect("rows conform")
}

fn billing() -> Relation {
    Relation::build(
        Schema::new(&[("code", Type::Int), ("price", Type::Int)]),
        vec![
            vec![Value::Int(77), Value::Int(1200)],
            vec![Value::Int(88), Value::Int(450)],
            vec![Value::Int(99), Value::Int(9000)],
        ],
    )
    .expect("rows conform")
}

fn main() {
    let catalog = BTreeMap::from([
        ("patients".to_string(), patients()),
        ("treatments".to_string(), treatments()),
        ("billing".to_string(), billing()),
    ]);
    let schemas: BTreeMap<_, _> = catalog
        .iter()
        .map(|(name, rel)| (name.clone(), rel.schema().clone()))
        .collect();
    let commutative = ProtocolKind::Commutative(CommutativeConfig::default());
    let plan = Planner::with_candidates(vec![commutative])
        .plan(
            "select * from patients natural join treatments natural join billing",
            &schemas,
            &stats_of(&catalog),
            LeakageBudget::open(),
        )
        .expect("the chain join plans");

    let group = SafePrimeGroup::preset(GroupSize::S512);
    let mut rng = HmacDrbg::from_label("hierarchy/ca");
    let ca = CertificationAuthority::new(group.clone(), &mut rng);
    let client_template = || {
        Client::setup(
            &ca,
            vec![Property::new("role", "planner")],
            group.clone(),
            768,
            "hierarchy/client",
        )
    };
    let sources = catalog
        .iter()
        .map(|(name, rel)| SourceSpec {
            name: name.clone(),
            relation: rel.clone(),
            policy: AccessPolicy::allow_all(),
        })
        .collect();

    let report = Engine::run_plan(
        &ca,
        client_template,
        sources,
        &plan,
        &PlanRunOptions::default(),
    )
    .expect("chained mediation succeeds");

    println!("three-way join as two successive mediations:\n");
    for (i, node) in report.nodes.iter().enumerate() {
        let run = &node.report;
        println!(
            "stage {}: {}: {} tuples, {} messages, {} bytes, mediator learned: {}",
            i + 1,
            node.label,
            run.result.len(),
            run.transport.message_count(),
            run.transport.total_bytes(),
            run.mediator_view.describe()
        );
    }

    println!("\nfinal result ({} tuples):", report.result.len());
    println!("{}", report.result);

    // Verify against the plain three-way join, up to column order.
    let reference = patients()
        .natural_join(&treatments())
        .and_then(|r| r.natural_join(&billing()))
        .expect("plain join");
    let cols = reference.schema().attr_names();
    let got = report.result.project(&cols).expect("same attributes");
    assert_eq!(got.sorted(), reference.sorted());
    println!(
        "✓ matches the plain three-way join ({} tuples)",
        reference.len()
    );
}
