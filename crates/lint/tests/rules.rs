//! Fixture-driven rule tests: every rule has at least one fixture it must
//! flag and one it must pass, fed through the real engine (suppression
//! filter included) under virtual workspace paths so path-scoped rules see
//! the directories they guard.

use secmed_lint::engine::run;
use secmed_lint::rules::default_rules;
use secmed_lint::SourceFile;

/// Runs the default rule set over one fixture mounted at `path`.
fn lint_at(path: &str, fixture: &str) -> secmed_lint::RunOutcome {
    let src = SourceFile::new(path, fixture);
    run(&default_rules(), &[src])
}

#[test]
fn panic_freedom_flags_bad_fixture() {
    let out = lint_at(
        "crates/crypto/src/fixture.rs",
        include_str!("fixtures/panic_freedom_bad.rs"),
    );
    let lines: Vec<(u32, &str)> = out.findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(
        lines,
        vec![
            (5, "panic-freedom"),
            (6, "panic-freedom"),
            (8, "panic-freedom"),
            (10, "panic-freedom"),
        ],
        "{:#?}",
        out.findings
    );
}

#[test]
fn panic_freedom_passes_good_fixture() {
    let out = lint_at(
        "crates/crypto/src/fixture.rs",
        include_str!("fixtures/panic_freedom_good.rs"),
    );
    assert!(out.clean(), "{:#?}", out.findings);
}

/// The retired token-level `secret-branching` heuristic, re-implemented
/// verbatim in spirit: flag any *line* where a registered secret
/// identifier appears next to a branch keyword or an `==`/`!=` token.
/// Kept here as the baseline the interprocedural rule is measured against.
fn token_level_heuristic(src: &str) -> Vec<u32> {
    use secmed_lint::lexer::{lex, TokenKind};
    const SECRETS: &[&str] = &["lambda", "mu", "p", "q", "hp", "hq", "q_inv_p"];
    let mut secret_lines = std::collections::BTreeSet::new();
    let mut sink_lines = std::collections::BTreeSet::new();
    for t in lex(src) {
        match t.kind {
            TokenKind::Ident if SECRETS.contains(&t.text.as_str()) => {
                secret_lines.insert(t.line);
            }
            TokenKind::Ident if ["if", "while", "match"].contains(&t.text.as_str()) => {
                sink_lines.insert(t.line);
            }
            TokenKind::Punct if t.text == "==" || t.text == "!=" => {
                sink_lines.insert(t.line);
            }
            _ => {}
        }
    }
    secret_lines.intersection(&sink_lines).copied().collect()
}

/// The direct cases the old rule already caught stay caught: `==` on a
/// Paillier private-key field and a branch on `self.mu`, with exact file,
/// line, and rule id.
#[test]
fn secret_flow_catches_direct_branching() {
    let src = include_str!("fixtures/secret_flow_direct_bad.rs");
    let out = lint_at("crates/crypto/src/paillier.rs", src);
    let lines: Vec<(u32, &str)> = out.findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(
        lines,
        vec![(11, "secret-flow"), (15, "secret-flow")],
        "{:#?}",
        out.findings
    );
    let seeded = &out.findings[0];
    assert!(
        seeded.message.contains("`same_trapdoor`")
            && seeded.message.contains("`==`/`!=` comparison"),
        "{}",
        seeded.message
    );
    assert_eq!(
        seeded.render(),
        format!(
            "crates/crypto/src/paillier.rs:11: secret-flow: {}",
            seeded.message
        )
    );
    assert!(
        out.findings[1].message.contains("branch condition"),
        "{}",
        out.findings[1].message
    );
    // The token-level baseline also caught these — same two lines.
    assert_eq!(token_level_heuristic(src), vec![11, 15]);
}

/// The gap the interprocedural rule closes: the secret flows through a
/// helper return into an innocently named binding before reaching a
/// branch, an allocation length, and a callee-internal branch.  The old
/// per-line heuristic sees no line with a secret next to a sink token and
/// reports nothing; the taint analysis reports all three.
#[test]
fn secret_flow_catches_multihop_leak_the_token_rule_missed() {
    let src = include_str!("fixtures/secret_flow_multihop_bad.rs");
    assert_eq!(
        token_level_heuristic(src),
        Vec::<u32>::new(),
        "the multihop fixture must contain no single-line secret+sink pair"
    );
    let out = lint_at("crates/crypto/src/paillier.rs", src);
    let lines: Vec<(u32, &str)> = out.findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(
        lines,
        vec![
            (26, "secret-flow"),
            (29, "secret-flow"),
            (33, "secret-flow")
        ],
        "{:#?}",
        out.findings
    );
    assert!(
        out.findings[0].message.contains("branch condition"),
        "{}",
        out.findings[0].message
    );
    assert!(
        out.findings[1].message.contains("allocation length"),
        "{}",
        out.findings[1].message
    );
    assert!(
        out.findings[2]
            .message
            .contains("inside `clamp` via argument 0"),
        "{}",
        out.findings[2].message
    );
}

#[test]
fn secret_flow_passes_constant_time_fixture() {
    let out = lint_at(
        "crates/crypto/src/hybrid.rs",
        include_str!("fixtures/secret_flow_good.rs"),
    );
    assert!(out.clean(), "{:#?}", out.findings);
}

/// The multihop *shape* is fine over public data: deriving a width from
/// the published modulus and branching on it taints nothing.
#[test]
fn secret_flow_passes_public_multihop_fixture() {
    let out = lint_at(
        "crates/crypto/src/paillier.rs",
        include_str!("fixtures/secret_flow_multihop_good.rs"),
    );
    assert!(out.clean(), "{:#?}", out.findings);
}

#[test]
fn fault_discipline_flags_plan_construction_in_a_driver() {
    let out = lint_at(
        "crates/core/src/protocol/das.rs",
        include_str!("fixtures/fault_discipline_bad.rs"),
    );
    assert!(
        out.findings.iter().all(|f| f.rule == "fault-discipline"),
        "{:#?}",
        out.findings
    );
    let lines: Vec<u32> = out.findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![5, 6, 7, 12], "{:#?}", out.findings);
}

#[test]
fn fault_discipline_passes_degrade_only_driver_and_the_fabric_itself() {
    let out = lint_at(
        "crates/core/src/protocol/das.rs",
        include_str!("fixtures/fault_discipline_good.rs"),
    );
    assert!(out.clean(), "{:#?}", out.findings);
    // The same plan-building code is fine at the fabric boundary and in
    // the harness crates that seed chaos runs.
    for path in [
        "crates/core/src/transport/mod.rs",
        "crates/core/src/engine.rs",
        "crates/testkit/src/lib.rs",
        "crates/bench/src/bin/chaos_sweep.rs",
    ] {
        let out = lint_at(path, include_str!("fixtures/fault_discipline_bad.rs"));
        assert!(out.clean(), "{path}: {:#?}", out.findings);
    }
}

#[test]
fn determinism_flags_bad_fixture_even_in_tests() {
    let out = lint_at(
        "crates/core/src/protocol/fixture.rs",
        include_str!("fixtures/determinism_bad.rs"),
    );
    let lines: Vec<(u32, &str)> = out.findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(
        lines,
        vec![(4, "determinism"), (7, "determinism"), (15, "determinism")],
        "{:#?}",
        out.findings
    );
}

#[test]
fn determinism_flags_raw_threading_outside_pool() {
    let out = lint_at(
        "crates/core/src/protocol/fixture.rs",
        include_str!("fixtures/thread_outside_pool_bad.rs"),
    );
    let lines: Vec<(u32, &str)> = out.findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(
        lines,
        vec![(5, "determinism"), (8, "determinism")],
        "{:#?}",
        out.findings
    );
    assert!(
        out.findings
            .iter()
            .all(|f| f.message.contains("secmed-pool")),
        "{:#?}",
        out.findings
    );
}

#[test]
fn pool_crate_scoped_threading_is_clean() {
    let out = lint_at(
        "crates/pool/src/fixture.rs",
        include_str!("fixtures/pool_clean.rs"),
    );
    assert!(out.clean(), "{:#?}", out.findings);
}

#[test]
fn determinism_passes_inside_obs() {
    let out = lint_at(
        "crates/obs/src/fixture.rs",
        include_str!("fixtures/determinism_good.rs"),
    );
    assert!(out.clean(), "{:#?}", out.findings);
}

#[test]
fn audited_suppression_silences_but_unreasoned_does_not() {
    let out = lint_at(
        "crates/crypto/src/fixture.rs",
        include_str!("fixtures/suppressed.rs"),
    );
    // Line 6's expect is silenced by the audited comment on line 5.
    assert!(
        !out.findings.iter().any(|f| f.line == 6),
        "{:#?}",
        out.findings
    );
    assert_eq!(out.suppressions_used.len(), 1);
    assert!(out.suppressions_used[0].3.contains("audited escape"));
    // Line 10's reason-less comment silences nothing and is itself flagged.
    assert!(out
        .findings
        .iter()
        .any(|f| f.line == 10 && f.rule == "panic-freedom"));
    assert!(out
        .findings
        .iter()
        .any(|f| f.line == 10 && f.rule == "lint-allow"));
}

/// Lexer hardening, exercised end-to-end through the rules: rule-visible
/// constructs inside raw strings, nested block comments, and char
/// literals must not fire, and a lifetime must not be confused with an
/// unterminated char literal (which would swallow the rest of the file).
#[test]
fn lexer_hardening_raw_strings_nested_comments_lifetimes() {
    let src = "fn describe() -> &'static str {\n\
               \x20   let s = r#\"if lambda == 0 { x.unwrap() }\"#;\n\
               \x20   /* if mu > 0 { /* nested: lambda == 1 */ } */\n\
               \x20   let _c = 'x';\n\
               \x20   s\n\
               }\n";
    let out = lint_at("crates/crypto/src/paillier.rs", src);
    assert!(out.clean(), "{:#?}", out.findings);
}

/// Positive control for the above: the same constructs *preceding* a real
/// secret branch must not desynchronise token lines — the finding lands
/// exactly after the raw string and the nested comment.
#[test]
fn lexer_hardening_keeps_lines_straight_after_tricky_tokens() {
    let src = "fn leak(kp: &KeyPair) -> u64 {\n\
               \x20   let _s = r##\"a \"#quoted\"# b\"##;\n\
               \x20   /* outer /* inner */ tail */\n\
               \x20   if kp.lambda > 0 {\n\
               \x20       1\n\
               \x20   } else {\n\
               \x20       0\n\
               \x20   }\n\
               }\n";
    let out = lint_at("crates/crypto/src/paillier.rs", src);
    let lines: Vec<(u32, &str)> = out.findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(lines, vec![(4, "secret-flow")], "{:#?}", out.findings);
}

/// Satellite: one `lint:allow(a, b)` comment where both rules fire on the
/// suppressed line silences both and is recorded once with both rule ids.
#[test]
fn multi_rule_allow_with_both_rules_firing_is_fully_used() {
    let out = lint_at(
        "crates/crypto/src/fixture.rs",
        include_str!("fixtures/multi_allow_full.rs"),
    );
    assert!(out.clean(), "{:#?}", out.findings);
    assert_eq!(
        out.suppressions_used.len(),
        1,
        "{:#?}",
        out.suppressions_used
    );
    let (_, line, rules, reason) = &out.suppressions_used[0];
    assert_eq!(*line, 5);
    assert!(
        rules.contains("panic-freedom") && rules.contains("determinism"),
        "{rules}"
    );
    assert!(reason.contains("expect and Instant"), "{reason}");
}

/// The other way: only `panic-freedom` fires, so the `determinism` half
/// of the comment is dead weight and must itself be reported, while the
/// used half still counts as a suppression (with only the used rule id).
#[test]
fn multi_rule_allow_with_one_unused_rule_reports_the_unused_half() {
    let out = lint_at(
        "crates/crypto/src/fixture.rs",
        include_str!("fixtures/multi_allow_partial.rs"),
    );
    let lines: Vec<(u32, &str)> = out.findings.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(lines, vec![(6, "lint-allow")], "{:#?}", out.findings);
    assert!(
        out.findings[0]
            .message
            .contains("unused suppression for `determinism`"),
        "{}",
        out.findings[0].message
    );
    assert_eq!(
        out.suppressions_used.len(),
        1,
        "{:#?}",
        out.suppressions_used
    );
    let (_, _, rules, _) = &out.suppressions_used[0];
    assert_eq!(rules, "panic-freedom", "only the used subset is recorded");
}

#[test]
fn summary_table_and_jsonl_cover_all_fired_rules() {
    let out = lint_at(
        "crates/crypto/src/fixture.rs",
        include_str!("fixtures/panic_freedom_bad.rs"),
    );
    let table = out.summary_table();
    assert!(table.contains("panic-freedom"));
    assert!(table.contains("total"));
    let jsonl = out.to_jsonl();
    assert_eq!(jsonl.lines().count(), out.findings.len() + 1);
    let summary = jsonl.lines().last().unwrap();
    assert!(summary.contains("\"summary\":true"));
    assert!(summary.contains("\"panic-freedom\":4"));
}
