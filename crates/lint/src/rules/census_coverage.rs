//! `census-coverage` — every modular-exponentiation call site in
//! `crates/crypto` must be accounted to the primitive census.
//!
//! Table 2 of the paper and the closed forms in `core/src/cost.rs` count
//! *primitive operations*; the runtime census (`crypto::metrics::count`)
//! is what makes those counts checkable on every protocol run and keeps
//! the deterministic `BENCH_*.json` series exact.  A crypto function that
//! performs a `modpow`/`pow`/`pow_g` without any census bump silently
//! under-counts the very quantity the paper's evaluation reports.
//!
//! The entry points are every exponentiation `mpint` exposes: `modpow`
//! and `modpow_fixed` on a Montgomery context, `pow` on a fixed-base or
//! multi-base table, and the group wrappers `pow`/`pow_g`.
//!
//! A function containing a direct exponentiation is covered when any of:
//!
//! * it *is* the primitive wrapper itself (`pow`, `pow_g`, `modpow`,
//!   `modpow_fixed`),
//! * its body calls `count(..)` (the census bump),
//! * its name is on the keygen/setup exempt list — one-time operations
//!   the per-run census deliberately excludes, or
//! * every non-test caller (transitively) is covered, i.e. the function
//!   is an internal helper reachable only through counted entry points.

use std::collections::HashMap;

use crate::ast::{walk_exprs, Expr};
use crate::engine::{Finding, Rule, WorkspaceView};

/// Direct modular-exponentiation entry points.
const PRIMITIVE_FAMILY: &[&str] = &["modpow", "modpow_fixed", "pow", "pow_g"];

/// Keygen/setup functions: one-time, outside the per-run census by
/// design (the census counts per-protocol-run work, Table 2 style).
const EXEMPT_FNS: &[&str] = &[
    "generate",
    "new",
    "from_exponent",
    "from_modulus",
    "from_parts",
    "from_safe_prime",
    "preset",
    "certify",
    "is_subgroup_element",
    "random_exponent",
    "random_element",
    "random_unit",
    "test_keypair",
    "gen_prime",
    "derive",
];

/// The census-coverage rule (see module docs).
pub struct CensusCoverage;

impl Rule for CensusCoverage {
    fn id(&self) -> &'static str {
        "census-coverage"
    }

    fn description(&self) -> &'static str {
        "crypto functions performing modular exponentiation must bump the primitive census"
    }

    fn check_workspace(&self, ws: &WorkspaceView<'_>, findings: &mut Vec<Finding>) {
        // covered: None = in progress (cycle), Some(bool) = decided.
        let mut covered: HashMap<usize, Option<bool>> = HashMap::new();
        for (idx, node) in ws.graph.nodes.iter().enumerate() {
            if !node.file.starts_with("crates/crypto/src") || node.in_test_region {
                continue;
            }
            let Some(line) = first_primitive_call(node) else {
                continue;
            };
            if !is_covered(ws, idx, &mut covered) {
                findings.push(Finding {
                    file: node.file.to_string(),
                    line,
                    rule: self.id(),
                    message: format!(
                        "`{}` performs a modular exponentiation but neither it nor any \
                         caller bumps the primitive census — add `count(Op::..)` so \
                         Table 2 stays exact",
                        node.item.name
                    ),
                });
            }
        }
    }
}

/// Line of the first direct call into [`PRIMITIVE_FAMILY`] in the body.
fn first_primitive_call(node: &crate::callgraph::FnNode<'_>) -> Option<u32> {
    let mut found = None;
    walk_exprs(&node.item.body, &mut |e| {
        let (name, line) = match e {
            Expr::Call { path, line, .. } => (path.last().map(String::as_str), *line),
            Expr::MethodCall { name, line, .. } => (Some(name.as_str()), *line),
            _ => return,
        };
        if let Some(n) = name {
            if PRIMITIVE_FAMILY.contains(&n) && found.is_none() {
                found = Some(line);
            }
        }
    });
    found
}

/// Whether the body contains a census bump (`count(..)` /
/// `metrics::count(..)`), ignoring `debug_assert!`-style contents which
/// the parser already treats as opaque macro arguments we still walk —
/// a census bump inside one would be compiled out, but none exist and a
/// false "covered" there is the conservative direction we accept for a
/// token-free heuristic.
fn has_census_bump(node: &crate::callgraph::FnNode<'_>) -> bool {
    let mut found = false;
    walk_exprs(&node.item.body, &mut |e| {
        if let Expr::Call { path, .. } = e {
            if path.last().map(String::as_str) == Some("count") {
                found = true;
            }
        }
    });
    found
}

/// Coverage decision with cycle handling: a cycle with no census bump
/// anywhere on it is *not* covered.
fn is_covered(ws: &WorkspaceView<'_>, idx: usize, memo: &mut HashMap<usize, Option<bool>>) -> bool {
    match memo.get(&idx) {
        Some(Some(v)) => return *v,
        Some(None) => return false, // cycle: no bump seen on this path
        None => {}
    }
    memo.insert(idx, None);
    let node = &ws.graph.nodes[idx];
    let name = node.item.name.as_str();
    let decided = if PRIMITIVE_FAMILY.contains(&name)
        || EXEMPT_FNS.contains(&name)
        || has_census_bump(node)
    {
        true
    } else {
        // Only intra-crate callers count: cross-crate edges are resolved
        // by bare name and collide with unrelated `decrypt`/`pow`-style
        // methods, and external callers reach crypto through the counted
        // public API anyway.
        let callers: Vec<usize> = ws
            .graph
            .callers_of(idx)
            .iter()
            .copied()
            .filter(|&c| {
                c != idx
                    && !ws.graph.nodes[c].in_test_region
                    && ws.graph.nodes[c].file.starts_with("crates/crypto/src")
            })
            .collect();
        !callers.is_empty() && callers.into_iter().all(|c| is_covered(ws, c, memo))
    };
    memo.insert(idx, Some(decided));
    decided
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::source::SourceFile;

    fn check(src: &str) -> Vec<Finding> {
        let rules: Vec<Box<dyn Rule>> = vec![Box::new(CensusCoverage)];
        engine::run(
            &rules,
            &[SourceFile::new("crates/crypto/src/thing.rs", src)],
        )
        .findings
    }

    #[test]
    fn uncounted_exponentiation_is_flagged() {
        let src = "fn mystery(g: &E, e: &N) -> E { g.pow(e) }";
        let out = check(src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`mystery`"));
    }

    #[test]
    fn uncounted_fixed_shape_and_joint_exponentiations_are_flagged() {
        let src = "\
fn fixed(ctx: &Montgomery, b: &N, e: &N) -> N { ctx.modpow_fixed(b, e, 512) }
fn joint(t: &MultiBase, exps: &[N]) -> Result<N, E> { t.pow(exps, 512) }
fn counted(t: &MultiBase, exps: &[N]) -> Result<N, E> { count(Op::PaillierScale); t.pow(exps, 512) }
";
        let out = check(src);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].message.contains("`fixed`"), "{out:?}");
        assert!(out[1].message.contains("`joint`"), "{out:?}");
    }

    #[test]
    fn counted_and_wrapper_functions_are_covered() {
        let src = "\
fn pow(g: &E, e: &N) -> E { g.modpow(e) }
fn encrypt(m: &N) -> E { count(Op::PaillierEncrypt); pow(G, m) }
";
        assert!(check(src).is_empty());
    }

    #[test]
    fn helper_covered_through_all_counted_callers() {
        let src = "\
fn inner(e: &N) -> E { G.modpow(e) }
fn enc(m: &N) -> E { count(Op::X); inner(m) }
fn dec(c: &E) -> N { count(Op::Y); inner(c) }
";
        assert!(check(src).is_empty());
        let one_uncounted = "\
fn inner(e: &N) -> E { G.modpow(e) }
fn enc(m: &N) -> E { count(Op::X); inner(m) }
fn sneaky(c: &E) -> N { inner(c) }
";
        let out = check(one_uncounted);
        // Only the helper holds the exponentiation, so the single finding
        // lands there; `sneaky` is the caller that breaks its coverage.
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("`inner`"));
    }

    #[test]
    fn keygen_and_test_code_are_exempt() {
        let src = "\
fn generate(bits: u32) -> K { G.modpow(r) }
#[cfg(test)]
mod tests { fn t() { G.modpow(r); } }
";
        assert!(check(src).is_empty());
    }
}
