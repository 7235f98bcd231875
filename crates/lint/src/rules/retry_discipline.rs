//! `retry-discipline` — bounded retries and explained degradation.
//!
//! The chaos suite (PR 5) proved the protocol drivers terminate under
//! injected faults *because* every `DeliveryPolicy` carries a finite
//! `max_attempts`; a policy constructed with an unbounded attempt count
//! (or one inherited implicitly through `..` functional update) can spin
//! a mediator forever on a dead peer — a DoS lever the paper's
//! availability discussion rules out.  Similarly, a `RunOutcome::Degraded`
//! without `details` destroys the audit trail the leakage accounting
//! depends on: a degraded run must say *what* was lost.
//!
//! PR 10 extends the same discipline to the session-resilience layer:
//! a `ReconnectPolicy` with `max_reconnects: u32::MAX` redials a dead
//! server forever, and one with `backoff_cap_ns: 0` turns the capped
//! exponential backoff into a tight reconnect spin — both are the same
//! DoS lever wearing a transport hat.
//!
//! All checks are structural, over struct-literal expressions in the
//! AST:
//!
//! * `DeliveryPolicy { .. }` must set `max_attempts` explicitly, and not
//!   to `u32::MAX`,
//! * `ReconnectPolicy { .. }` must set `max_reconnects` explicitly (not
//!   `MAX`) and `backoff_cap_ns` explicitly (not a literal zero),
//! * `RunOutcome::Degraded { .. }` must set `details`, and not to an
//!   evidently-empty `vec![]` / `Vec::new()`.

use crate::ast::{walk_exprs, Expr};
use crate::engine::{Finding, Rule, WorkspaceView};

/// The retry-discipline rule (see module docs).
pub struct RetryDiscipline;

impl Rule for RetryDiscipline {
    fn id(&self) -> &'static str {
        "retry-discipline"
    }

    fn description(&self) -> &'static str {
        "DeliveryPolicy and ReconnectPolicy must bound their retry budgets; \
         RunOutcome::Degraded must attach details"
    }

    fn check_workspace(&self, ws: &WorkspaceView<'_>, findings: &mut Vec<Finding>) {
        for file in &ws.files {
            if file.is_test_file {
                continue;
            }
            crate::ast::for_each_fn(file.ast, &mut |_, item| {
                if file
                    .test_mask
                    .get(item.token_index)
                    .copied()
                    .unwrap_or(false)
                {
                    return;
                }
                walk_exprs(&item.body, &mut |e| {
                    let Expr::StructLit {
                        path,
                        fields,
                        has_rest,
                        line,
                    } = e
                    else {
                        return;
                    };
                    match path.last().map(String::as_str) {
                        Some("DeliveryPolicy") => {
                            check_policy(file.path, fields, *has_rest, *line, findings)
                        }
                        Some("ReconnectPolicy") => {
                            check_reconnect(file.path, fields, *has_rest, *line, findings)
                        }
                        Some("Degraded") if path.len() >= 2 => {
                            check_degraded(file.path, fields, *line, findings)
                        }
                        _ => {}
                    }
                });
            });
        }
    }
}

fn check_policy(
    path: &str,
    fields: &[crate::ast::FieldInit],
    has_rest: bool,
    line: u32,
    findings: &mut Vec<Finding>,
) {
    let finding = |message: String| Finding {
        file: path.to_string(),
        line,
        rule: "retry-discipline",
        message,
    };
    let Some(f) = fields.iter().find(|f| f.name == "max_attempts") else {
        findings.push(finding(format!(
            "DeliveryPolicy constructed without an explicit `max_attempts`{} — \
             every retry loop must be finitely bounded",
            if has_rest {
                " (inherited via `..` functional update)"
            } else {
                ""
            }
        )));
        return;
    };
    if let Some(Expr::Path { segs, .. }) = &f.value {
        if segs.last().map(String::as_str) == Some("MAX") {
            findings.push(finding(
                "DeliveryPolicy sets `max_attempts` to `MAX` — that is an unbounded \
                 retry loop in disguise"
                    .to_string(),
            ));
        }
    }
}

/// True when a numeric literal's token text evaluates to zero
/// (`0`, `0_u64`, `0x0`, ...): digit separators are dropped, any type
/// suffix is stripped, and what remains must be all zeros.
fn is_zero_literal(text: &str) -> bool {
    let compact: String = text.chars().filter(|&c| c != '_').collect();
    let hex = compact.strip_prefix("0x");
    let body = hex
        .or_else(|| compact.strip_prefix("0b"))
        .or_else(|| compact.strip_prefix("0o"))
        .unwrap_or(&compact);
    // The value part ends where a type suffix (`u64`, `usize`) begins.
    let is_digit = |c: char| {
        if hex.is_some() {
            c.is_ascii_hexdigit()
        } else {
            c.is_ascii_digit()
        }
    };
    let end = body.find(|c| !is_digit(c)).unwrap_or(body.len());
    let digits = body.get(..end).unwrap_or("");
    !digits.is_empty() && digits.chars().all(|c| c == '0')
}

fn check_reconnect(
    path: &str,
    fields: &[crate::ast::FieldInit],
    has_rest: bool,
    line: u32,
    findings: &mut Vec<Finding>,
) {
    let finding = |message: String| Finding {
        file: path.to_string(),
        line,
        rule: "retry-discipline",
        message,
    };
    let inherited = if has_rest {
        " (inherited via `..` functional update)"
    } else {
        ""
    };
    match fields.iter().find(|f| f.name == "max_reconnects") {
        None => findings.push(finding(format!(
            "ReconnectPolicy constructed without an explicit `max_reconnects`{inherited} — \
             every redial loop must be finitely bounded"
        ))),
        Some(f) => {
            if let Some(Expr::Path { segs, .. }) = &f.value {
                if segs.last().map(String::as_str) == Some("MAX") {
                    findings.push(finding(
                        "ReconnectPolicy sets `max_reconnects` to `MAX` — that is an \
                         unbounded redial loop in disguise"
                            .to_string(),
                    ));
                }
            }
        }
    }
    match fields.iter().find(|f| f.name == "backoff_cap_ns") {
        None => findings.push(finding(format!(
            "ReconnectPolicy constructed without an explicit `backoff_cap_ns`{inherited} — \
             the backoff ceiling must be stated where the policy is built"
        ))),
        Some(f) => {
            if let Some(Expr::Lit { text, .. }) = &f.value {
                if is_zero_literal(text) {
                    findings.push(finding(
                        "ReconnectPolicy sets `backoff_cap_ns` to zero — a zero cap \
                         collapses the exponential backoff into a reconnect spin"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

fn check_degraded(
    path: &str,
    fields: &[crate::ast::FieldInit],
    line: u32,
    findings: &mut Vec<Finding>,
) {
    let empty = match fields.iter().find(|f| f.name == "details") {
        None => true,
        Some(f) => match &f.value {
            Some(Expr::Macro { name, args, .. }) => name == "vec" && args.is_empty(),
            Some(Expr::Call { path, args, .. }) => {
                args.is_empty() && path.last().map(String::as_str) == Some("new")
            }
            _ => false,
        },
    };
    if empty {
        findings.push(Finding {
            file: path.to_string(),
            line,
            rule: "retry-discipline",
            message: "RunOutcome::Degraded without `details` — a degraded run must record \
                      what was lost for the audit trail"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::source::SourceFile;

    fn check(src: &str) -> Vec<Finding> {
        let rules: Vec<Box<dyn Rule>> = vec![Box::new(RetryDiscipline)];
        engine::run(
            &rules,
            &[SourceFile::new("crates/core/src/transport.rs", src)],
        )
        .findings
    }

    #[test]
    fn bounded_policy_and_detailed_degradation_pass() {
        let src = "\
fn f() -> DeliveryPolicy {
    let o = RunOutcome::Degraded { details: vec![reason], joined: 3 };
    DeliveryPolicy { max_attempts: 4, backoff: Backoff::None }
}
";
        assert!(check(src).is_empty());
    }

    #[test]
    fn missing_and_rest_inherited_max_attempts_are_flagged() {
        let src = "\
fn f() {
    let a = DeliveryPolicy { backoff: Backoff::None };
    let b = DeliveryPolicy { backoff: Backoff::None, ..base };
    let c = DeliveryPolicy { max_attempts: u32::MAX, backoff: Backoff::None };
}
";
        let out = check(src);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out[1].message.contains("functional update"));
        assert!(out[2].message.contains("unbounded"));
    }

    #[test]
    fn bounded_reconnect_policies_pass() {
        let src = "\
fn f() -> ReconnectPolicy {
    let quiet = ReconnectPolicy { max_reconnects: 0, base_backoff_ns: 0, backoff_cap_ns: 1, seed: 0 };
    ReconnectPolicy { max_reconnects: 8, base_backoff_ns: 200_000, backoff_cap_ns: 50_000_000, seed }
}
";
        assert!(check(src).is_empty());
    }

    #[test]
    fn unbounded_or_capless_reconnect_policies_are_flagged() {
        let src = "\
fn f() {
    let a = ReconnectPolicy { base_backoff_ns: 1, backoff_cap_ns: 5, seed: 0 };
    let b = ReconnectPolicy { backoff_cap_ns: 5, ..base };
    let c = ReconnectPolicy { max_reconnects: u32::MAX, base_backoff_ns: 1, backoff_cap_ns: 5, seed: 0 };
    let d = ReconnectPolicy { max_reconnects: 4, base_backoff_ns: 1, backoff_cap_ns: 0, seed: 0 };
    let e = ReconnectPolicy { max_reconnects: 4, base_backoff_ns: 1, backoff_cap_ns: 0_u64, seed: 0 };
    let g = ReconnectPolicy { max_reconnects: 4, seed: 0, ..base };
}
";
        let out = check(src);
        assert_eq!(out.len(), 6, "{out:?}");
        assert!(out[0].message.contains("max_reconnects"));
        assert!(out[1].message.contains("functional update"));
        assert!(out[2].message.contains("unbounded redial"));
        assert!(out[3].message.contains("zero cap"));
        assert!(out[4].message.contains("zero cap"));
        assert!(out[5].message.contains("backoff_cap_ns"));
    }

    #[test]
    fn zero_literal_detection_handles_rust_spellings() {
        for zero in ["0", "00", "0_u64", "0u32", "0x0", "0x00_u64", "0b000"] {
            assert!(is_zero_literal(zero), "{zero} is zero");
        }
        for nonzero in ["1", "0x10", "0xA", "10", "2_000_000", "1u64", ""] {
            assert!(!is_zero_literal(nonzero), "{nonzero} is not zero");
        }
    }

    #[test]
    fn empty_degraded_details_are_flagged() {
        let src = "\
fn f() {
    let a = RunOutcome::Degraded { joined: 0 };
    let b = RunOutcome::Degraded { details: vec![], joined: 0 };
    let c = RunOutcome::Degraded { details: Vec::new(), joined: 0 };
    let d = RunOutcome::Degraded { details, joined: 0 };
}
";
        let out = check(src);
        assert_eq!(out.len(), 3, "{out:?}");
        assert!(out[0].message.contains("audit trail"));
    }
}
