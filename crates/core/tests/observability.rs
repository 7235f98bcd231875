//! A run's report must agree *exactly* with the raw recorders it is
//! derived from: the transport log, the primitive census, and — through
//! the census — the §6 closed-form cost model; its rendering must list
//! every figure once, and the run's spans must hold its phases.  These
//! checks hold also while `Discard` runs execute on other threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use secmed_core::cost::{divergence, observed, predict, shape_of};
use secmed_core::workload::WorkloadSpec;
use secmed_core::{Engine, ProtocolKind, RunOptions, ScenarioBuilder, TraceSink};
use secmed_obs::{profile, trace, Json};

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
    let w = spec(seed).generate();
    let mut sc = ScenarioBuilder::new(&w)
        .seed(seed)
        .paillier_bits(512)
        .build();
    let (report, records) = amid_discard_runs(kind, || {
        let mark = trace::checkpoint();
        let report = Engine::run(&mut sc, &RunOptions::new(kind)).unwrap();
        (report, trace::take_since(mark))
    });
    let key = kind.key();
    let json = report.to_json();
    let section = |name: &str| -> Vec<(String, u64)> {
        json.get(name)
            .and_then(Json::as_object)
            .unwrap_or_else(|| panic!("{key}: no {name} section"))
            .iter()
            .map(|(k, v)| (k.clone(), v.as_u64().expect("a count")))
            .collect()
    };

    // The census equals the closed-form prediction.
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

    // The run's spans hold the canonical phases.
    let prof = profile::aggregate(&records);
    let spans: Vec<String> = prof.flatten().iter().map(|(_, n)| n.name.clone()).collect();
    let phases = [
        format!("{key}.request"),
        format!("{key}.encryption"),
        format!("{key}.transfer"),
        format!("{key}.post"),
    ];
    for phase in &phases {
        assert!(spans.contains(phase), "{key}: missing phase {phase}");
    }

    // The account reconciles with the recorders it counts: fabric totals,
    // per-link bytes, the Table 2 census, and the result cardinality.
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
    // One frame and one byte count per directed link the log holds, each
    // that link's envelopes, together every frame and byte of the log.
    let link_frames = section("link_frames");
    let links: Vec<u64> = report
        .metrics
        .iter()
        .filter(|(k, _)| k.starts_with("transport.link."))
        .map(|(_, v)| *v)
        .collect();
    assert_eq!(links.len(), link_frames.len(), "{key}: one count per link");
    for e in report.transport.log() {
        let link = report.transport.link(&e.from, &e.to);
        let bytes: u64 = link.iter().map(|x| x.bytes() as u64).sum();
        assert_eq!(
            metric(&format!("transport.link.{}->{}.bytes", e.from, e.to)),
            Some(bytes),
            "{key}: link bytes drifted for {} -> {}",
            e.from,
            e.to
        );
        let name = format!("{}->{}", e.from, e.to);
        assert!(
            link_frames.contains(&(name, link.len() as u64)),
            "{key}: link frames drifted for {} -> {}",
            e.from,
            e.to
        );
    }
    assert_eq!(
        links.iter().sum::<u64>(),
        report.transport.total_bytes() as u64,
        "{key}: link bytes must partition the log"
    );
    assert_eq!(
        link_frames.iter().map(|(_, n)| n).sum::<u64>(),
        report.transport.message_count() as u64,
        "{key}: link frames must partition the log"
    );
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
        section("metrics"),
        report.metrics,
        "{key}: the report must render its account verbatim"
    );

    // §6 interaction pattern: DAS needs two client interactions with the
    // mediator; the encryption-key protocols need two per source.
    let interactions = section("interactions");
    let of = |party: &str| {
        interactions
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

    // What a reader sees — the report table, then the profile — lists
    // every census op and every phase exactly once.
    let printed = format!("{}{}", report.render_table(), prof.render_table());
    let listed = |name: &str| {
        printed
            .split_whitespace()
            .filter(|w| w.strip_prefix("crypto.").unwrap_or(w) == name)
            .count()
    };
    for (op, _) in &report.primitives {
        assert_eq!(listed(op.name()), 1, "{key}: {} in\n{printed}", op.name());
    }
    for phase in &phases {
        assert_eq!(listed(phase), 1, "{key}: {phase} in\n{printed}");
    }
}

// One test function: kept traces share the global buffer, so runs that
// keep theirs must not interleave with each other.
#[test]
fn run_reports_match_recorders_for_every_protocol() {
    check(ProtocolKind::Das(Default::default()), "obs-das");
    check(ProtocolKind::Commutative(Default::default()), "obs-comm");
    check(ProtocolKind::Pm(Default::default()), "obs-pm");
}
