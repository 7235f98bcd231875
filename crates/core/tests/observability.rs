//! The unified observability report must agree *exactly* with the raw
//! recorders it is derived from: transport counters, the primitive census,
//! and — transitively — the §6 closed-form cost model.  If the report
//! aggregation ever drops or double-counts an edge, op, or phase, these
//! checks fail — also while `Discard` runs execute on other threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use secmed_core::cost::{divergence, observed, predict, shape_of};
use secmed_core::observe::{unified_report, workload_pairs};
use secmed_core::workload::WorkloadSpec;
use secmed_core::{Engine, ProtocolKind, RunOptions, ScenarioBuilder, TraceSink};
use secmed_obs::trace;

fn spec(seed: &str) -> WorkloadSpec {
    WorkloadSpec {
        left_rows: 20,
        right_rows: 20,
        left_domain: 10,
        right_domain: 10,
        shared_values: 5,
        payload_attrs: 2,
        seed: seed.to_string(),
        ..Default::default()
    }
}

/// Runs `keep` while two other threads execute `Discard` runs of `kind`
/// back to back: all three start together, and the other two go on
/// until `keep` has returned.
fn amid_discard_runs<T>(kind: ProtocolKind, keep: impl FnOnce() -> T) -> T {
    let start = Barrier::new(3);
    let done = AtomicBool::new(false);
    let noise = || {
        let w = WorkloadSpec {
            left_rows: 6,
            right_rows: 6,
            left_domain: 3,
            right_domain: 3,
            shared_values: 2,
            ..spec("obs-noise")
        }
        .generate();
        let mut sc = ScenarioBuilder::new(&w).seed("obs-noise").build();
        let opts = RunOptions::new(kind).trace(TraceSink::Discard);
        start.wait();
        loop {
            Engine::run(&mut sc, &opts).unwrap();
            if done.load(Ordering::Relaxed) {
                break;
            }
        }
    };
    secmed_pool::scope(|s| {
        let workers = [s.spawn(noise), s.spawn(noise)];
        start.wait();
        let out = keep();
        done.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().expect("discard runs");
        }
        out
    })
}

fn check(kind: ProtocolKind, seed: &str) {
    let s = spec(seed);
    let w = s.generate();
    let mut sc = ScenarioBuilder::new(&w)
        .seed(seed)
        .paillier_bits(512)
        .build();
    let (report, records) = amid_discard_runs(kind, || {
        let mark = trace::checkpoint();
        let report = Engine::run(&mut sc, &RunOptions::new(kind)).unwrap();
        (report, trace::take_since(mark))
    });
    let unified = unified_report(kind, &report, &records, workload_pairs(&s));
    let key = kind.key();

    // Report totals equal the transport counters, edge by edge.
    assert_eq!(
        unified.total_messages(),
        report.transport.message_count() as u64,
        "{key}: message total drifted from the transport log"
    );
    assert_eq!(
        unified.total_bytes(),
        report.transport.total_bytes() as u64,
        "{key}: byte total drifted from the transport log"
    );

    // Report ops equal the primitive census, and the census equals the
    // closed-form prediction — so the report inherits the model guarantee.
    let census_total: u64 = report.primitives.iter().map(|(_, c)| c).sum();
    assert_eq!(unified.total_ops(), census_total, "{key}: op total drifted");
    let shape = shape_of(
        &w.left,
        &w.right,
        "k",
        report.mediator_view.server_result_size.unwrap_or(0),
    )
    .unwrap();
    let gap = divergence(&predict(&kind, &shape), &observed(&report.primitives));
    assert!(
        gap.within_tolerance(),
        "{key}: census disagrees with the §6 cost model by {} ppm on {:?}",
        gap.max_ppm,
        gap.mismatched
    );

    // Every protocol run produces the canonical phase rows.
    let phase_names: Vec<&str> = unified.phases.iter().map(|p| p.name.as_str()).collect();
    for expected in [
        format!("{key}.request"),
        format!("{key}.encryption"),
        format!("{key}.transfer"),
        format!("{key}.post"),
    ] {
        assert!(
            phase_names.contains(&expected.as_str()),
            "{key}: missing phase {expected} in {phase_names:?}"
        );
    }

    // The result row count in the report is the actual join size.
    assert_eq!(unified.result_rows, w.expected_join_size as u64);

    // Deterministic run metrics reconcile with the recorders they mirror:
    // fabric totals, per-receiver bytes, the Table 2 census, and the
    // result cardinality — and the unified report carries them verbatim.
    let metric = |name: &str| {
        report
            .metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    };
    assert_eq!(
        metric("transport.frames"),
        Some(report.transport.message_count() as u64),
        "{key}: frame metric drifted from the transport log"
    );
    assert_eq!(
        metric("transport.bytes"),
        Some(report.transport.total_bytes() as u64),
        "{key}: byte metric drifted from the transport log"
    );
    assert_eq!(metric("transport.retries"), Some(0), "{key}: fault-free");
    for party in ["client", "mediator", "source:r1", "source:r2"] {
        let expected = report
            .transport
            .log()
            .iter()
            .filter(|e| e.to.to_string() == party)
            .map(|e| e.bytes() as u64)
            .sum::<u64>();
        if expected > 0 {
            assert_eq!(
                metric(&format!("transport.to.{party}.bytes")),
                Some(expected),
                "{key}: per-receiver bytes drifted for {party}"
            );
        }
    }
    for (op, count) in &report.primitives {
        assert_eq!(
            metric(&secmed_crypto::metrics::registry_name(*op)),
            Some(*count),
            "{key}: census metric drifted for {}",
            op.name()
        );
    }
    assert_eq!(metric("run.result_rows"), Some(w.expected_join_size as u64));
    let mut sorted = report.metrics.clone();
    sorted.sort();
    assert_eq!(report.metrics, sorted, "{key}: metrics must be sorted");
    assert_eq!(
        unified.metrics, report.metrics,
        "{key}: unified report must carry the run metrics verbatim"
    );

    // The span-profile aggregation reproduces the per-phase totals that
    // were computed straight from the raw records.
    let prof = secmed_obs::profile::aggregate(&records);
    for phase in &unified.phases {
        assert_eq!(
            prof.total_of(&phase.name),
            phase.wall_ns,
            "{key}: profile total for {} disagrees with the trace",
            phase.name
        );
    }

    // §6 interaction pattern: DAS needs two client interactions with the
    // mediator; the encryption-key protocols need two per source.
    let of = |party: &str| {
        unified
            .interactions
            .iter()
            .find(|(p, _)| p == party)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    };
    match kind {
        ProtocolKind::Das(_) => {
            assert_eq!(of("client"), 2, "das: client must interact twice");
            assert_eq!(of("source:r1"), 1);
            assert_eq!(of("source:r2"), 1);
        }
        ProtocolKind::Commutative(_) | ProtocolKind::Pm(_) => {
            assert_eq!(of("client"), 1);
            assert_eq!(of("source:r1"), 2, "{key}: sources must interact twice");
            assert_eq!(of("source:r2"), 2, "{key}: sources must interact twice");
        }
    }
}

// One test function: kept traces share the global buffer, so runs that
// keep theirs must not interleave with each other.
#[test]
fn unified_report_matches_recorders_for_every_protocol() {
    check(ProtocolKind::Das(Default::default()), "obs-das");
    check(ProtocolKind::Commutative(Default::default()), "obs-comm");
    check(ProtocolKind::Pm(Default::default()), "obs-pm");
}
