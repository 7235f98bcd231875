//! Three-way federation: one SQL join over three sources, planned twice.
//!
//! A hospital, an insurer, and a claims registry each hold one relation
//! of a chain join.  The planner maps every join node onto one of the
//! three delivery protocols by §6 cost — but only among the protocols the
//! client's leakage budget admits.  Running the same query under an open
//! budget and under a tightened one produces two *different* plans; both
//! execute over the mediator hierarchy and print their plan reports,
//! including the per-node predicted-vs-observed primitive cross-check.
//!
//! Run with: `cargo run --release --example three_way_federation`

use secmed::core::plan::{exposure, LeakageBudget, PlanRunOptions, SourceSpec};
use secmed::core::{AccessPolicy, CertificationAuthority, Client, Engine, Property, ProtocolKind};
use secmed::crypto::drbg::HmacDrbg;
use secmed::crypto::group::{GroupSize, SafePrimeGroup};
use secmed::plan::{stats_of, Planner};
use secmed::relalg::{Relation, Schema, Type, Value};
use std::collections::BTreeMap;

fn relation(attrs: &[(&str, Type)], rows: &[&[i64]]) -> Relation {
    Relation::build(
        Schema::new(attrs),
        rows.iter()
            .map(|r| r.iter().map(|v| Value::Int(*v)).collect())
            .collect(),
    )
    .expect("well-typed example rows")
}

fn main() {
    // Three sources sharing a chain of join keys: patients link the
    // hospital to the insurer via `pid`, contracts link the insurer to
    // the registry via `contract`.
    let mut catalog = BTreeMap::new();
    catalog.insert(
        "hospital".to_string(),
        relation(
            &[("pid", Type::Int), ("diagnosis", Type::Int)],
            &[&[1, 100], &[2, 101], &[3, 102], &[4, 100], &[5, 103]],
        ),
    );
    catalog.insert(
        "insurer".to_string(),
        relation(
            &[("pid", Type::Int), ("contract", Type::Int)],
            &[&[1, 10], &[2, 11], &[3, 10], &[6, 12], &[7, 13]],
        ),
    );
    catalog.insert(
        "registry".to_string(),
        relation(
            &[("contract", Type::Int), ("premium", Type::Int)],
            &[&[10, 500], &[11, 750], &[12, 600]],
        ),
    );
    let query = "select * from hospital natural join insurer natural join registry";
    println!("global query: {query}\n");

    let schemas: BTreeMap<_, _> = catalog
        .iter()
        .map(|(k, v)| (k.clone(), v.schema().clone()))
        .collect();
    let stats = stats_of(&catalog);
    let planner = Planner::new();

    // Plan 1: an open budget — cost alone decides.
    let open = planner
        .plan(query, &schemas, &stats, LeakageBudget::open())
        .expect("open budget always plans");
    println!("{}", open.describe());

    // Plan 2: forbid the distinguishing leakage of whatever won node 0,
    // and the planner must route around it.
    let tight = match open.nodes[0].protocol {
        ProtocolKind::Das(_) => LeakageBudget {
            client_superset: false,
            ..LeakageBudget::open()
        },
        ProtocolKind::Commutative(_) => LeakageBudget {
            mediator_intersection_size: false,
            ..LeakageBudget::open()
        },
        ProtocolKind::Pm(_) => LeakageBudget {
            client_extra_ciphertexts: false,
            ..LeakageBudget::open()
        },
    };
    let flipped = planner
        .plan(query, &schemas, &stats, tight)
        .expect("tightened budget still admits a protocol");
    println!("{}", flipped.describe());
    assert_ne!(
        open.nodes[0].protocol.key(),
        flipped.nodes[0].protocol.key(),
        "the tightened budget must flip the first node"
    );
    for n in &flipped.nodes {
        assert!(tight.permits(&exposure(&n.protocol)));
    }

    // Execute both plans over the mediator hierarchy.
    let group = SafePrimeGroup::preset(GroupSize::S512);
    let mut rng = HmacDrbg::from_label("three-way/ca");
    let ca = CertificationAuthority::new(group.clone(), &mut rng);
    let client = || {
        Client::setup(
            &ca,
            vec![Property::new("role", "auditor")],
            group.clone(),
            512,
            "three-way/client",
        )
    };
    let sources = || -> Vec<SourceSpec> {
        catalog
            .iter()
            .map(|(name, rel)| SourceSpec {
                name: name.clone(),
                relation: rel.clone(),
                policy: AccessPolicy::allow_all(),
            })
            .collect()
    };

    for (label, plan) in [("open budget", &open), ("tightened budget", &flipped)] {
        let exec = Engine::run_plan(&ca, client, sources(), plan, &PlanRunOptions::default())
            .expect("plan executes");
        println!(
            "=== execution under the {label}: {} tables, {} nodes ===",
            plan.tables.len(),
            plan.nodes.len()
        );
        println!("{}", exec.render_table());
        println!("final result:\n{}", exec.result);
    }
}
