//! The machine-readable report surface: `target/obs/lint.jsonl` records
//! round-trip through `secmed-obs::json`, carry the fields CI's failure
//! triage needs, and are byte-identical at any per-file thread count.

use secmed_lint::engine::run_with;
use secmed_lint::rules::default_rules;
use secmed_lint::SourceFile;
use secmed_obs::json::parse;

/// A three-file virtual workspace firing three different rules.
fn sources() -> Vec<SourceFile> {
    vec![
        SourceFile::new(
            "crates/crypto/src/paillier.rs",
            include_str!("fixtures/secret_flow_multihop_bad.rs"),
        ),
        SourceFile::new(
            "crates/crypto/src/fixture.rs",
            include_str!("fixtures/panic_freedom_bad.rs"),
        ),
        SourceFile::new(
            "crates/core/src/protocol/fixture.rs",
            include_str!("fixtures/determinism_bad.rs"),
        ),
    ]
}

#[test]
fn jsonl_report_round_trips_through_obs_json() {
    let out = run_with(&default_rules(), &sources(), 1);
    let jsonl = out.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), out.findings.len() + 1);

    // Every finding record parses and carries the triage fields.
    for (raw, finding) in lines.iter().zip(&out.findings) {
        let rec = parse(raw).expect("finding record is valid JSON");
        assert_eq!(
            rec.get("file").and_then(|v| v.as_str()),
            Some(finding.file.as_str())
        );
        assert_eq!(
            rec.get("line").and_then(|v| v.as_u64()),
            Some(u64::from(finding.line))
        );
        assert_eq!(rec.get("rule").and_then(|v| v.as_str()), Some(finding.rule));
        assert_eq!(
            rec.get("message").and_then(|v| v.as_str()),
            Some(finding.message.as_str())
        );
    }

    // The trailing summary record carries exact per-rule counts.
    let summary = parse(lines.last().unwrap()).expect("summary record is valid JSON");
    assert!(lines.last().unwrap().contains("\"summary\":true"));
    assert!(summary.get("clean").is_some());
    let by_rule = summary.get("by_rule").expect("summary has by_rule");
    assert_eq!(
        by_rule.get("secret-flow").and_then(|v| v.as_u64()),
        Some(3),
        "{jsonl}"
    );
    assert_eq!(
        by_rule.get("panic-freedom").and_then(|v| v.as_u64()),
        Some(4)
    );
    assert_eq!(by_rule.get("determinism").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(
        summary.get("total").and_then(|v| v.as_u64()),
        Some(out.findings.len() as u64)
    );
}

/// Findings are path-then-line sorted regardless of which worker lexed
/// which file: one thread and eight threads must render byte-identically.
#[test]
fn report_is_identical_at_one_and_eight_threads() {
    let sequential = run_with(&default_rules(), &sources(), 1);
    let parallel = run_with(&default_rules(), &sources(), 8);
    assert_eq!(sequential.to_jsonl(), parallel.to_jsonl());
    assert_eq!(sequential.files_scanned, parallel.files_scanned);
    assert_eq!(sequential.suppressions_used, parallel.suppressions_used);

    // And the ordering invariant itself: sorted by path, then line.
    let keys: Vec<(&str, u32)> = sequential
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}
