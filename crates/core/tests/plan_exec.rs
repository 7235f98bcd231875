//! Planner → engine integration: a three-way SQL join is planned onto the
//! delivery protocols and executed over the mediator hierarchy.
//!
//! Covers the planner-layer invariants end to end: byte-identical plans
//! and plan reports across thread counts, the leakage-budget flip (a
//! tighter budget changes some node's protocol and the plan still runs),
//! every candidate protocol assignment agreeing with the plaintext
//! reference evaluation, and the per-node §6 predicted-vs-observed
//! divergence staying within tolerance.

use std::collections::{BTreeMap, HashMap};

use relalg::{Relation, Schema, Type, Value};
use secmed_core::plan::{LeakageBudget, Plan, PlanReport, PlanRunOptions, SourceSpec};
use secmed_core::{
    AccessPolicy, CertificationAuthority, Client, CommutativeConfig, DasConfig, Engine, MedError,
    PmConfig, Property, ProtocolKind, RunOutcome,
};
use secmed_crypto::drbg::HmacDrbg;
use secmed_crypto::group::{GroupSize, SafePrimeGroup};
use secmed_obs::Json;
use secmed_plan::{stats_of, PlanError, Planner};
use secmed_testkit::federation::{self, Federation, FederationSpec};
use secmed_testkit::Gen;

fn federation_3way() -> Federation {
    federation::chain(
        &mut Gen::for_case("plan-exec", 0),
        &FederationSpec {
            tables: 3,
            rows: 20,
            key_domain: 8,
            payload_domain: 50,
        },
    )
}

fn ca_for(label: &str) -> CertificationAuthority {
    let group = SafePrimeGroup::preset(GroupSize::S512);
    let mut rng = HmacDrbg::from_label(label);
    CertificationAuthority::new(group, &mut rng)
}

fn client_for(ca: &CertificationAuthority) -> Client {
    Client::setup(
        ca,
        vec![Property::new("role", "analyst")],
        SafePrimeGroup::preset(GroupSize::S512),
        512,
        "plan-exec/client",
    )
}

fn sources_of(fed: &Federation) -> Vec<SourceSpec> {
    fed.catalog
        .iter()
        .map(|(name, rel)| SourceSpec {
            name: name.clone(),
            relation: rel.clone(),
            policy: AccessPolicy::allow_all(),
        })
        .collect()
}

/// Plaintext reference: evaluate `query` directly over the catalog.
fn reference(fed: &Federation, query: &str) -> Relation {
    let catalog: HashMap<String, Relation> = fed
        .catalog
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    relalg::sql::parse(query).unwrap().eval(&catalog).unwrap()
}

/// Compares two relations up to row and column order.
fn assert_same_rows(got: &Relation, want: &Relation, context: &str) {
    let mut names: Vec<&str> = want.schema().attr_names();
    names.sort_unstable();
    let g = got.project(&names).unwrap().sorted();
    let w = want.project(&names).unwrap().sorted();
    assert_eq!(g.tuples(), w.tuples(), "{context}: result drifted");
}

/// A plan report's metrics are the per-key sums of its nodes' accounts,
/// which hold counts only: no frame-size percentile may appear.
fn assert_metrics_add_up(rendered: &Json, exec: &PlanReport, context: &str) {
    let metrics: Vec<(String, u64)> = rendered
        .get("metrics")
        .and_then(Json::as_object)
        .expect("a metrics section")
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().expect("a count")))
        .collect();
    let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
    for n in &exec.nodes {
        for (k, v) in &n.report.metrics {
            *sums.entry(k).or_insert(0) += v;
        }
    }
    let want: Vec<(String, u64)> = sums.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    assert_eq!(
        metrics, want,
        "{context}: plan metrics are not the nodes' sums"
    );
    assert!(
        !metrics
            .iter()
            .any(|(k, _)| k.starts_with("transport.frame_bytes")),
        "{context}: a frame-size percentile does not add across nodes"
    );
}

fn run(fed: &Federation, plan: &Plan, opts: &PlanRunOptions) -> PlanReport {
    let ca = ca_for("plan-exec/ca");
    Engine::run_plan(&ca, || client_for(&ca), sources_of(fed), plan, opts).unwrap()
}

#[test]
fn three_way_plan_and_report_are_identical_across_thread_counts() {
    let fed = federation_3way();
    let stats = stats_of(&fed.catalog);
    let planner = Planner::new();
    let plan = planner
        .plan(&fed.query(), &fed.schemas(), &stats, LeakageBudget::open())
        .unwrap();
    let again = planner
        .plan(&fed.query(), &fed.schemas(), &stats, LeakageBudget::open())
        .unwrap();
    assert_eq!(
        format!("{plan:?}"),
        format!("{again:?}"),
        "planning must be a pure function of its inputs"
    );

    let want = reference(&fed, &fed.query());
    let mut fingerprints: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        let exec = run(&fed, &plan, &PlanRunOptions::default().threads(threads));
        assert_same_rows(&exec.result, &want, &format!("{threads} threads"));
        for n in &exec.nodes {
            assert!(
                n.divergence.within_tolerance(),
                "{threads} threads, {}: {} ppm on {:?}",
                n.label,
                n.divergence.max_ppm,
                n.divergence.mismatched
            );
        }
        // The whole plan report — node rows, traffic, the summed account
        // and every node's views — must not depend on the thread count.
        fingerprints.push(exec.to_json().render());
    }
    assert_eq!(fingerprints[0], fingerprints[1], "1 vs 2 threads");
    assert_eq!(fingerprints[0], fingerprints[2], "1 vs 8 threads");
    assert!(fingerprints[0].contains(r#""outcome":"clean""#));
    assert!(fingerprints[0].contains(r#""divergence_ppm":0"#));
}

#[test]
fn a_plan_reports_its_most_severe_node_outcome() {
    let fed = federation_3way();
    let plan = Planner::new()
        .plan(
            &fed.query(),
            &fed.schemas(),
            &stats_of(&fed.catalog),
            LeakageBudget::open(),
        )
        .unwrap();
    let mut exec = run(&fed, &plan, &PlanRunOptions::default());
    assert_eq!(exec.nodes.len(), 2);
    assert_eq!(exec.outcome(), "clean");
    // The outcomes are set by hand: the fold, not a fault schedule, is
    // under test.  A later, more severe node decides the plan's outcome,
    // and an earlier, more severe one is not overridden.
    let outcome = |key: &str| match key {
        "recovered" => RunOutcome::RecoveredWithRetries { retries: 2 },
        _ => RunOutcome::Degraded {
            details: vec!["right relation withheld".to_string()],
            retries: 1,
        },
    };
    for (first, second) in [("recovered", "degraded"), ("degraded", "recovered")] {
        exec.nodes[0].report.outcome = outcome(first);
        exec.nodes[1].report.outcome = outcome(second);
        assert_eq!(exec.outcome(), "degraded", "{first} then {second}");
        assert_eq!(exec.retries(), 3);
    }
    exec.nodes[1].report.outcome = RunOutcome::Aborted {
        error: MedError::Protocol("stopped".to_string()),
        retries: 0,
    };
    assert_eq!(exec.outcome(), "aborted");
}

#[test]
fn tightening_the_budget_flips_a_node_and_still_executes() {
    let fed = federation_3way();
    let stats = stats_of(&fed.catalog);
    let planner = Planner::new();
    let open = planner
        .plan(&fed.query(), &fed.schemas(), &stats, LeakageBudget::open())
        .unwrap();

    // Forbid exactly the distinguishing leakage of the protocol the open
    // plan chose for its first node; that node must flip.
    let first = open.nodes[0].protocol;
    let tight = match first {
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
        .plan(&fed.query(), &fed.schemas(), &stats, tight)
        .unwrap();
    assert_ne!(
        flipped.nodes[0].protocol.key(),
        first.key(),
        "budget did not flip the node: {}",
        flipped.nodes[0].rationale
    );
    assert!(
        flipped.nodes.iter().all(|n| n.protocol.key() != first.key()
            || tight.permits(&secmed_core::plan::exposure(&n.protocol))),
        "a chosen protocol exceeds the budget"
    );

    // Both plans execute and agree with the plaintext reference.
    let want = reference(&fed, &fed.query());
    let opts = PlanRunOptions::default();
    assert_same_rows(&run(&fed, &open, &opts).result, &want, "open budget");
    assert_same_rows(&run(&fed, &flipped, &opts).result, &want, "tight budget");
}

#[test]
fn every_protocol_assignment_executes_and_matches_the_reference() {
    let fed = federation_3way();
    let stats = stats_of(&fed.catalog);
    // The chain query, and the same chain with a single-table filter, a
    // join-attribute filter the graph pushes to both of its carriers, and
    // a cross-table residual.
    let filtered = format!("{} where v0 <= 30 and k1 < 6 and v0 < v2", fed.query());
    for (query, pushed_to, residual) in [
        (fed.query(), vec![], false),
        (filtered, vec!["t0", "t1", "t2"], true),
    ] {
        let want = reference(&fed, &query);
        assert!(!want.is_empty(), "{query}: the reference result is empty");
        for kind in [
            ProtocolKind::Das(DasConfig::default()),
            ProtocolKind::Commutative(CommutativeConfig::default()),
            ProtocolKind::Pm(PmConfig::default()),
        ] {
            // A single-candidate planner pins every node to one protocol.
            let planner = Planner::with_candidates(vec![kind]);
            let plan = planner
                .plan(&query, &fed.schemas(), &stats, LeakageBudget::open())
                .unwrap();
            assert!(plan.nodes.iter().all(|n| n.protocol.key() == kind.key()));
            let tables: Vec<&str> = plan.scan_preds.iter().map(|(t, _)| t.as_str()).collect();
            assert_eq!(tables, pushed_to, "{query}");
            assert_eq!(plan.residual.pred.is_some(), residual, "{query}");
            let exec = run(&fed, &plan, &PlanRunOptions::default());
            let context = format!("{query} via {}", kind.key());
            assert_same_rows(&exec.result, &want, &context);
            for n in &exec.nodes {
                assert!(
                    n.divergence.within_tolerance(),
                    "{context} {}: {} ppm on {:?}",
                    n.label,
                    n.divergence.max_ppm,
                    n.divergence.mismatched
                );
            }
            let rendered = exec.to_json();
            assert_metrics_add_up(&rendered, &exec, &context);
            let nodes = rendered.get("nodes").and_then(Json::as_array).unwrap();
            assert_eq!(nodes.len(), plan.nodes.len());
            assert!(nodes
                .iter()
                .all(|n| n.get("protocol").and_then(Json::as_str) == Some(kind.key())));
            let rows = rendered.get("result_rows").and_then(Json::as_u64);
            assert_eq!(rows, Some(want.len() as u64));
        }
    }
}

/// a(n, m, x), b(n, y) and c(n, m, z): a and c share two names, so in every
/// join order the node that brings the second of them in joins on (m, n).
fn composite_federation() -> Federation {
    let table = |attrs: &[&str], row: &dyn Fn(i64) -> Vec<i64>| {
        let schema: Vec<(&str, Type)> = attrs.iter().map(|a| (*a, Type::Int)).collect();
        let rows = (0..40)
            .map(|i| row(i).into_iter().map(Value::Int).collect())
            .collect();
        Relation::build(Schema::new(&schema), rows).unwrap()
    };
    let mut catalog = BTreeMap::new();
    catalog.insert(
        "a".to_string(),
        table(&["n", "m", "x"], &|i| vec![i % 20, i % 7, i]),
    );
    catalog.insert(
        "b".to_string(),
        table(&["n", "y"], &|i| vec![i % 20, 1000 + i]),
    );
    catalog.insert(
        "c".to_string(),
        table(&["n", "m", "z"], &|i| vec![i % 20, i % 7, 2000 + i]),
    );
    Federation { catalog }
}

#[test]
fn composite_keys_join_on_every_shared_name_and_never_via_das() {
    let fed = composite_federation();
    let stats = stats_of(&fed.catalog);
    let query = "select * from a natural join b natural join c";

    // DAS indexes one attribute, and every order has a composite node.
    let das_only = Planner::with_candidates(vec![ProtocolKind::Das(DasConfig::default())]);
    match das_only.plan(query, &fed.schemas(), &stats, LeakageBudget::open()) {
        Err(PlanError::NoAdmissibleProtocol { details, .. }) => {
            assert!(
                details.contains("das: inadmissible[composite key]"),
                "{details}"
            )
        }
        other => panic!("expected NoAdmissibleProtocol, got {other:?}"),
    }

    let plan = Planner::new()
        .plan(query, &fed.schemas(), &stats, LeakageBudget::open())
        .unwrap();
    assert!(
        plan.nodes.iter().any(|n| n.attrs == ["m", "n"]),
        "no node joins on the composite key: {plan:?}"
    );
    assert!(plan
        .nodes
        .iter()
        .all(|n| n.attrs.len() == 1 || n.protocol.key() != "das"));
    let exec = run(&fed, &plan, &PlanRunOptions::default());
    for n in &exec.nodes {
        assert_eq!(
            n.divergence.max_ppm, 0,
            "{}: the §6 gate predicted from other attributes than the node joined on",
            n.label
        );
    }
    let want = reference(&fed, query);
    assert_eq!(want.len(), 80);
    assert_same_rows(&exec.result, &want, "composite keys");
}
