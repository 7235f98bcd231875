//! The pluggable rule engine: rules see lexed sources and parsed ASTs
//! with a workspace call graph; the engine applies suppressions and
//! audits the suppressions themselves.
//!
//! Per-file rules run in parallel via `secmed-pool` (one task per file,
//! results rejoined in input order), then workspace rules run once over
//! the parsed view, then suppressions are applied sequentially — so the
//! output is byte-identical at any thread count.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use secmed_obs::json::Json;
use secmed_pool::Pool;

use crate::ast::{self, Ast};
use crate::callgraph::{CallGraph, ParsedFile};
use crate::source::SourceFile;

/// Rule id used for problems with the suppression mechanism itself
/// (malformed `lint:allow` comments, unused suppressions).
pub const SUPPRESSION_RULE: &str = "lint-allow";

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule id (e.g. `panic-freedom`).
    pub rule: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl Finding {
    /// The `file:line: rule-id: message` rendering used on stderr/stdout.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }

    /// The machine-readable JSONL record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("file", Json::from(self.file.as_str())),
            ("line", Json::from(u64::from(self.line))),
            ("rule", Json::from(self.rule)),
            ("message", Json::from(self.message.as_str())),
        ])
    }
}

/// The parsed whole-workspace view handed to [`Rule::check_workspace`]:
/// every source's AST plus the call graph over all of them.
pub struct WorkspaceView<'a> {
    /// Parsed files, parallel to the engine's source list.
    pub files: Vec<ParsedFile<'a>>,
    /// The call graph over `files`.
    pub graph: CallGraph<'a>,
}

/// A lint rule over lexed sources and/or the parsed workspace.  Rules
/// must be `Sync`: per-file checks run in parallel.
pub trait Rule: Sync {
    /// Stable id, used in findings and `lint:allow` comments.
    fn id(&self) -> &'static str;
    /// One-line description for `--list` style output and reports.
    fn description(&self) -> &'static str;
    /// Checks one source file.
    fn check_source(&self, _file: &SourceFile, _findings: &mut Vec<Finding>) {}
    /// Checks the whole parsed workspace (AST/callgraph rules).
    fn check_workspace(&self, _ws: &WorkspaceView<'_>, _findings: &mut Vec<Finding>) {}
}

/// The outcome of a full engine run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Surviving findings, sorted by path then line.
    pub findings: Vec<Finding>,
    /// Source files scanned.
    pub files_scanned: usize,
    /// Suppressions that silenced at least one finding:
    /// `(file, line, rules, reason)`.
    pub suppressions_used: Vec<(String, u32, String, String)>,
}

impl RunOutcome {
    /// True when the workspace is violation-free.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings per rule id, sorted by id.
    pub fn counts_by_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for f in &self.findings {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        counts
    }

    /// The `rule → count` summary table printed on failure.
    pub fn summary_table(&self) -> String {
        let counts = self.counts_by_rule();
        let width = counts.keys().map(|r| r.len()).max().unwrap_or(4).max(4);
        let mut out = String::new();
        out.push_str(&format!("{:<width$}  count\n", "rule"));
        out.push_str(&format!("{:-<width$}  -----\n", ""));
        for (rule, count) in &counts {
            out.push_str(&format!("{rule:<width$}  {count:>5}\n"));
        }
        out.push_str(&format!(
            "{:<width$}  {:>5}\n",
            "total",
            self.findings.len()
        ));
        out
    }

    /// The JSONL report: one record per finding, then one summary record.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.to_json().render());
            out.push('\n');
        }
        let by_rule = Json::Object(
            self.counts_by_rule()
                .into_iter()
                .map(|(r, c)| (r.to_string(), Json::from(c)))
                .collect(),
        );
        let summary = Json::obj([
            ("summary", Json::from(true)),
            ("clean", Json::from(self.clean())),
            ("files_scanned", Json::from(self.files_scanned)),
            ("total", Json::from(self.findings.len())),
            ("by_rule", by_rule),
            (
                "suppressions_used",
                Json::arr(self.suppressions_used.iter().map(|(f, l, r, why)| {
                    Json::obj([
                        ("file", Json::from(f.as_str())),
                        ("line", Json::from(u64::from(*l))),
                        ("rules", Json::from(r.as_str())),
                        ("reason", Json::from(why.as_str())),
                    ])
                })),
            ),
        ]);
        out.push_str(&summary.render());
        out.push('\n');
        out
    }
}

/// Runs `rules` over the given sources on one thread.
pub fn run(rules: &[Box<dyn Rule>], sources: &[SourceFile]) -> RunOutcome {
    run_with(rules, sources, 1)
}

/// Runs `rules` with `threads` workers for the per-file phase (`0` ⇒ the
/// pool default).  Output is identical at any thread count.
pub fn run_with(rules: &[Box<dyn Rule>], sources: &[SourceFile], threads: usize) -> RunOutcome {
    let pool = match threads {
        0 => Pool::default(),
        1 => Pool::sequential(),
        n => Pool::with_threads(n),
    };

    // Phase 1 — parse + per-file rules, one task per file.  `par_map`
    // rejoins results in input order, so parallelism cannot reorder
    // findings.
    let per_file: Vec<(Ast, Vec<Finding>)> = pool.par_map(sources, |_, file| {
        let ast = ast::parse(&file.tokens);
        let mut raw = Vec::new();
        for rule in rules {
            rule.check_source(file, &mut raw);
        }
        (ast, raw)
    });

    // Phase 2 — workspace rules over the parsed view.
    let mut asts = Vec::with_capacity(per_file.len());
    let mut findings_raw = Vec::new();
    for (ast, raw) in per_file {
        asts.push(ast);
        findings_raw.extend(raw);
    }
    let files: Vec<ParsedFile<'_>> = sources
        .iter()
        .zip(&asts)
        .map(|(src, ast)| ParsedFile {
            path: &src.path,
            ast,
            test_mask: src.test_mask(),
            is_test_file: src.is_test_file,
        })
        .collect();
    let graph = CallGraph::build(&files);
    let ws = WorkspaceView { files, graph };
    for rule in rules {
        rule.check_workspace(&ws, &mut findings_raw);
    }

    // Phase 3 — suppressions, applied sequentially.  A finding survives
    // unless an audited allow-comment for its rule covers its line; usage
    // is tracked per (suppression, rule) so `lint:allow(a, b)` where only
    // `a` ever fires still reports `b` as unused.
    let by_path: HashMap<&str, usize> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| (s.path.as_str(), i))
        .collect();
    let mut used: Vec<Vec<BTreeSet<&str>>> = sources
        .iter()
        .map(|s| vec![BTreeSet::new(); s.suppressions.len()])
        .collect();
    let mut findings = Vec::new();
    for f in findings_raw {
        let silenced = by_path.get(f.file.as_str()).copied().and_then(|si| {
            sources[si]
                .suppression_for(f.rule, f.line)
                .map(|supp| (si, supp))
        });
        match silenced {
            Some((si, supp)) => {
                used[si][supp].insert(f.rule);
            }
            None => findings.push(f),
        }
    }

    // The suppression mechanism itself is audited.
    for (si, file) in sources.iter().enumerate() {
        for (line, problem) in &file.malformed {
            findings.push(Finding {
                file: file.path.clone(),
                line: *line,
                rule: SUPPRESSION_RULE,
                message: problem.clone(),
            });
        }
        for (supp, s) in file.suppressions.iter().enumerate() {
            let unused: Vec<&str> = s
                .rules
                .iter()
                .map(String::as_str)
                .filter(|r| !used[si][supp].contains(r))
                .collect();
            if !unused.is_empty() {
                findings.push(Finding {
                    file: file.path.clone(),
                    line: s.line,
                    rule: SUPPRESSION_RULE,
                    message: format!(
                        "unused suppression for `{}` — remove it or re-justify it",
                        unused.join(", ")
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    let suppressions_used = sources
        .iter()
        .enumerate()
        .flat_map(|(si, f)| {
            f.suppressions
                .iter()
                .enumerate()
                .filter(|&(supp, _)| !used[si][supp].is_empty())
                .map(|(supp, s)| {
                    let rules: Vec<&str> = used[si][supp].iter().copied().collect();
                    (f.path.clone(), s.line, rules.join(", "), s.reason.clone())
                })
                .collect::<Vec<_>>()
        })
        .collect();
    RunOutcome {
        findings,
        files_scanned: sources.len(),
        suppressions_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct BanFoo;
    impl Rule for BanFoo {
        fn id(&self) -> &'static str {
            "ban-foo"
        }
        fn description(&self) -> &'static str {
            "no foo"
        }
        fn check_source(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
            for t in &file.tokens {
                if t.is_ident("foo") {
                    findings.push(Finding {
                        file: file.path.clone(),
                        line: t.line,
                        rule: self.id(),
                        message: "found foo".into(),
                    });
                }
            }
        }
    }

    fn engine_rules() -> Vec<Box<dyn Rule>> {
        vec![Box::new(BanFoo)]
    }

    #[test]
    fn findings_survive_without_suppression() {
        let src = SourceFile::new("crates/x/src/lib.rs", "let foo = 1;");
        let out = run(&engine_rules(), &[src]);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(
            out.findings[0].render(),
            "crates/x/src/lib.rs:1: ban-foo: found foo"
        );
        assert!(!out.clean());
    }

    #[test]
    fn audited_suppression_silences_and_is_reported_used() {
        let src = SourceFile::new(
            "crates/x/src/lib.rs",
            "let foo = 1; // lint:allow(ban-foo) -- test fixture",
        );
        let out = run(&engine_rules(), &[src]);
        assert!(out.clean(), "{:?}", out.findings);
        assert_eq!(out.suppressions_used.len(), 1);
        assert_eq!(out.suppressions_used[0].3, "test fixture");
    }

    #[test]
    fn unreasoned_suppression_is_a_finding_and_does_not_silence() {
        let src = SourceFile::new("crates/x/src/lib.rs", "let foo = 1; // lint:allow(ban-foo)");
        let out = run(&engine_rules(), &[src]);
        let rules: Vec<_> = out.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"ban-foo"));
        assert!(rules.contains(&SUPPRESSION_RULE));
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let src = SourceFile::new(
            "crates/x/src/lib.rs",
            "// lint:allow(ban-foo) -- nothing here\nlet bar = 1;",
        );
        let out = run(&engine_rules(), &[src]);
        assert_eq!(out.findings.len(), 1);
        assert_eq!(out.findings[0].rule, SUPPRESSION_RULE);
    }

    #[test]
    fn jsonl_has_one_record_per_finding_plus_summary() {
        let src = SourceFile::new("crates/x/src/lib.rs", "foo(); foo();");
        let out = run(&engine_rules(), &[src]);
        let jsonl = out.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"rule\":\"ban-foo\""));
        assert!(lines[2].contains("\"summary\":true"));
        assert!(lines[2].contains("\"total\":2"));
    }

    #[test]
    fn summary_table_lists_rule_counts() {
        let src = SourceFile::new("crates/x/src/lib.rs", "foo();");
        let out = run(&engine_rules(), &[src]);
        let table = out.summary_table();
        assert!(table.contains("ban-foo"));
        assert!(table.contains("total"));
    }
}
