//! `secret-flow` — interprocedural replacement for the old token-level
//! `secret-branching` rule.
//!
//! The paper's security reductions (commutative encryption after Agrawal
//! et al. §4, private matching after Freedman et al. §5) model the
//! mediator as learning nothing beyond ciphertext equality; a branch, a
//! loop bound, an allocation size, or an `==` on a private exponent,
//! Paillier trapdoor, or DRBG state is exactly the data-dependent
//! behavior that collapses those arguments in practice.
//!
//! The old rule scanned single lines of tokens, so a secret that crossed
//! a `let` binding, a helper return, or a call argument escaped it.  This
//! rule runs the whole-workspace taint analysis ([`crate::taint`]) over
//! the call graph instead: seeds propagate through bindings, fields,
//! returns, and call arguments to a fixed point, and every sink a
//! seed-tainted value reaches becomes a finding — including sinks inside
//! a callee reached through a tainted argument, reported at the call
//! site.  Key *generation* legitimately inspects candidates (rejection
//! sampling); those sites carry audited `lint:allow(secret-flow)`
//! comments — the point is that every such branch is enumerable and
//! reviewed, not that none exist.

use crate::engine::{Finding, Rule, WorkspaceView};
use crate::taint::TaintAnalysis;

/// The secret-flow rule (see module docs).
pub struct SecretFlow;

impl Rule for SecretFlow {
    fn id(&self) -> &'static str {
        "secret-flow"
    }

    fn description(&self) -> &'static str {
        "secret key material must not flow into branches, loop bounds, allocation sizes, or ==/!="
    }

    fn check_workspace(&self, ws: &WorkspaceView<'_>, findings: &mut Vec<Finding>) {
        let analysis = TaintAnalysis::run(&ws.graph);
        for leak in analysis.leaks() {
            let node = &ws.graph.nodes[leak.node];
            findings.push(Finding {
                file: node.file.to_string(),
                line: leak.line,
                rule: self.id(),
                message: format!(
                    "in `{}`: {}; route through a constant-time helper or justify with \
                     `// lint:allow(secret-flow) -- reason`",
                    node.item.name, leak.message
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;
    use crate::source::SourceFile;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        let rules: Vec<Box<dyn Rule>> = vec![Box::new(SecretFlow)];
        engine::run(&rules, &[SourceFile::new(path, src)])
            .findings
            .into_iter()
            .filter(|f| f.rule == "secret-flow")
            .collect()
    }

    #[test]
    fn multihop_flow_is_flagged_with_function_context() {
        let src = "\
struct K { lambda: u64 }
impl K { fn half(&self) -> u64 { self.lambda / 2 } }
fn schedule(k: &K) -> u64 {
    let rounds = k.half();
    if rounds > 4 { 1 } else { 0 }
}
";
        let out = check("crates/crypto/src/paillier.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 5);
        assert!(out[0].message.contains("in `schedule`"));
    }

    #[test]
    fn suppression_silences_a_reviewed_site() {
        let src = "\
fn generate(p: u64) -> u64 {
    // lint:allow(secret-flow) -- rejection sampling inspects candidates
    if p == q { 1 } else { 0 }
}
";
        assert!(check("crates/crypto/src/paillier.rs", src).is_empty());
    }

    #[test]
    fn direct_branch_still_flagged_as_before() {
        let src = "fn f(&self) -> bool { self.lambda == other.lambda }";
        let out = check("crates/crypto/src/paillier.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("==`/`!="));
    }
}
