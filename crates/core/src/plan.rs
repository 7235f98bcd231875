//! Typed query plans and their execution over the mediator hierarchy.
//!
//! This module holds the *vocabulary* of the planning layer — the
//! [`LeakageBudget`] a client declares in the Table 1 view terms from
//! [`crate::audit`], the per-protocol [`exposure`] profiles scored against
//! it, and the typed [`Plan`] tree — plus [`Engine::run_plan`], which
//! executes a plan node by node: every join runs a full credential-checked
//! mediation with the node's chosen protocol, and each intermediate result
//! is installed as a derived datasource for its parent node (the Section 8
//! mediator hierarchy, over arbitrary left-deep trees with per-node
//! protocol choice; a chained join `(R1 ⨝ R2) ⨝ R3` is a two-node plan).
//!
//! The planning *algorithm* — join-order enumeration, statistics, cost
//! scoring — lives in the `secmed-plan` crate; this module only defines
//! what a plan *is* and how to run one, so `secmed-plan` can depend on
//! core without a cycle.

use relalg::sql::Residual;
use relalg::Relation;

use crate::cost::{divergence, predict, shape_of_join, Divergence, PredictedOps};
use crate::credential::CertificationAuthority;
use crate::engine::{Engine, RunOptions, TraceSink};
use crate::party::{Client, DataSource, Mediator};
use crate::policy::AccessPolicy;
use crate::protocol::{apply_residual, ProtocolKind, RunOutcome, RunReport, Scenario};
use crate::transport::{DeliveryPolicy, FaultPlan};
use crate::MedError;

/// What each party may learn beyond the exact global result, in the
/// Table 1 view vocabulary ([`crate::audit::MediatorView`] /
/// [`crate::audit::ClientView`]).  The same struct expresses a client's
/// *budget* (what it permits) and a protocol's *exposure* (what it
/// reveals); a protocol is admissible when its exposure is a subset of
/// the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeakageBudget {
    /// Mediator may learn the partial-result row counts (`|R_1|`,
    /// `|R_2|`) and the server-result size `|R_C|` (DAS).
    pub mediator_result_sizes: bool,
    /// Mediator may learn the active join-domain sizes
    /// (`|domactive(R_i.A_join)|` — commutative and PM).
    pub mediator_domain_sizes: bool,
    /// Mediator may learn the exact intersection size `|dom_1 ∩ dom_2|`
    /// (commutative only; a lower bound on the result size).
    pub mediator_intersection_size: bool,
    /// Mediator may hold the *plaintext* index tables (DAS mediator
    /// setting — the leakage that makes the client setting the default).
    pub plaintext_index_tables: bool,
    /// Client may receive a superset of the global result plus both index
    /// tables (DAS).
    pub client_superset: bool,
    /// Client may receive one ciphertext per active-domain value of either
    /// source, only the intersection of which decrypts usefully (PM).
    pub client_extra_ciphertexts: bool,
}

impl LeakageBudget {
    /// Everything permitted — cost alone decides.
    pub fn open() -> Self {
        LeakageBudget {
            mediator_result_sizes: true,
            mediator_domain_sizes: true,
            mediator_intersection_size: true,
            plaintext_index_tables: true,
            client_superset: true,
            client_extra_ciphertexts: true,
        }
    }

    /// Nothing permitted beyond the exact result — no protocol of the
    /// paper qualifies; planning under this budget reports why.
    pub fn exact_result_only() -> Self {
        LeakageBudget {
            mediator_result_sizes: false,
            mediator_domain_sizes: false,
            mediator_intersection_size: false,
            plaintext_index_tables: false,
            client_superset: false,
            client_extra_ciphertexts: false,
        }
    }

    /// True when `exposure` stays within this budget (pointwise
    /// implication: whatever the protocol reveals must be permitted).
    pub fn permits(&self, exposure: &LeakageBudget) -> bool {
        (!exposure.mediator_result_sizes || self.mediator_result_sizes)
            && (!exposure.mediator_domain_sizes || self.mediator_domain_sizes)
            && (!exposure.mediator_intersection_size || self.mediator_intersection_size)
            && (!exposure.plaintext_index_tables || self.plaintext_index_tables)
            && (!exposure.client_superset || self.client_superset)
            && (!exposure.client_extra_ciphertexts || self.client_extra_ciphertexts)
    }

    /// The Table 1 cells this profile asserts, for rationale strings.
    pub fn describe(&self) -> String {
        let mut on = Vec::new();
        if self.mediator_result_sizes {
            on.push("mediator:result-sizes");
        }
        if self.mediator_domain_sizes {
            on.push("mediator:domain-sizes");
        }
        if self.mediator_intersection_size {
            on.push("mediator:intersection-size");
        }
        if self.plaintext_index_tables {
            on.push("mediator:plaintext-index-tables");
        }
        if self.client_superset {
            on.push("client:superset");
        }
        if self.client_extra_ciphertexts {
            on.push("client:extra-ciphertexts");
        }
        if on.is_empty() {
            "exact result only".to_string()
        } else {
            on.join(", ")
        }
    }
}

/// The static leakage profile of one protocol configuration — Table 1
/// expressed as a [`LeakageBudget`]-shaped exposure set.
pub fn exposure(kind: &ProtocolKind) -> LeakageBudget {
    let mut e = LeakageBudget {
        mediator_result_sizes: false,
        mediator_domain_sizes: false,
        mediator_intersection_size: false,
        plaintext_index_tables: false,
        client_superset: false,
        client_extra_ciphertexts: false,
    };
    match kind {
        ProtocolKind::Das(cfg) => {
            e.mediator_result_sizes = true;
            e.client_superset = true;
            if matches!(cfg.setting, crate::protocol::DasSetting::MediatorSetting) {
                e.plaintext_index_tables = true;
            }
        }
        ProtocolKind::Commutative(_) => {
            e.mediator_domain_sizes = true;
            e.mediator_intersection_size = true;
        }
        ProtocolKind::Pm(_) => {
            e.mediator_domain_sizes = true;
            e.client_extra_ciphertexts = true;
        }
    }
    e
}

/// One base datasource handed to [`Engine::run_plan`].
pub struct SourceSpec {
    /// Relation name (must match the names used in the query).
    pub name: String,
    /// The relation served.
    pub relation: Relation,
    /// The source's access policy.
    pub policy: AccessPolicy,
}

/// One input of a plan node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeInput {
    /// A base datasource, by relation name.
    Source(String),
    /// The result of an earlier plan node (arena index — always less than
    /// the consuming node's own index).
    Node(usize),
}

/// One mediated join in the plan tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// Left input (source or earlier node).
    pub left: NodeInput,
    /// Right input.
    pub right: NodeInput,
    /// Join attribute base names.
    pub attrs: Vec<String>,
    /// The delivery protocol chosen for this node.
    pub protocol: ProtocolKind,
    /// Planning-time operation estimate from the §6 closed forms over the
    /// per-source statistics (the *exact* per-node prediction is
    /// recomputed from the actual input relations at execution time).
    pub predicted: PredictedOps,
    /// Estimated result rows (drives parent-node estimates).
    pub estimated_rows: u64,
    /// Why this protocol won: admissibility under the budget plus the
    /// weighted-cost comparison.
    pub rationale: String,
}

/// A typed query plan: an arena of join nodes (root last, inputs always
/// earlier), per-source pushed-down filters, and the client residual.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// The SQL text this plan was built from.
    pub query: String,
    /// Base relations in FROM order.
    pub tables: Vec<String>,
    /// Pushed-down per-source selections (applied before mediation).
    pub scan_preds: Vec<(String, relalg::Predicate)>,
    /// Join nodes in execution order; the last node is the root.
    pub nodes: Vec<PlanNode>,
    /// Client-side residual work after the root join.
    pub residual: Residual,
    /// The budget the plan was scored against.
    pub budget: LeakageBudget,
}

impl Plan {
    /// Human-readable rendering: one line per node.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "plan for {:?} under budget [{}]\n",
            self.query,
            self.budget.describe()
        ));
        for (i, n) in self.nodes.iter().enumerate() {
            let name = |input: &NodeInput| match input {
                NodeInput::Source(s) => s.clone(),
                NodeInput::Node(j) => format!("#{j}"),
            };
            out.push_str(&format!(
                "  #{i}: {} ⨝[{}] {} via {} (est. {} ops, {} rows) — {}\n",
                name(&n.left),
                n.attrs.join(","),
                name(&n.right),
                n.protocol.key(),
                n.predicted.weighted_cost(),
                n.estimated_rows,
                n.rationale
            ));
        }
        out
    }
}

/// Options for executing a plan (everything [`RunOptions`] carries except
/// the protocol, which the plan chooses per node).
#[derive(Debug, Clone)]
pub struct PlanRunOptions {
    /// Worker threads of the deterministic fork-join pool (`0` runs
    /// sequentially, like `1`).
    pub threads: usize,
    /// Trace handling for every node run.
    pub trace: TraceSink,
    /// Bounded-retry policy.
    pub delivery: DeliveryPolicy,
    /// Optional fault plan, installed on every node's fabric.
    pub faults: Option<FaultPlan>,
}

impl Default for PlanRunOptions {
    fn default() -> Self {
        PlanRunOptions {
            threads: 1,
            trace: TraceSink::Keep,
            delivery: DeliveryPolicy::default(),
            faults: None,
        }
    }
}

impl PlanRunOptions {
    /// Sets the worker-thread count (1 = sequential).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the trace sink.
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// The per-node [`RunOptions`] for a chosen protocol.
    fn node_options(&self, protocol: ProtocolKind) -> RunOptions {
        RunOptions {
            protocol,
            threads: self.threads,
            trace: self.trace,
            delivery: self.delivery,
            faults: self.faults.clone(),
        }
    }
}

/// Execution record of one plan node: the full protocol report plus the
/// predicted-vs-observed primitive cross-check.
#[derive(Debug)]
pub struct NodeReport {
    /// `left ⨝ right` with resolved input names.
    pub label: String,
    /// The protocol this node ran.
    pub protocol: ProtocolKind,
    /// Exact §6 prediction recomputed from the node's actual input
    /// relations (and, for DAS, the observed server-result size).
    pub predicted: PredictedOps,
    /// The measured primitive census of this node's run.
    pub observed: PredictedOps,
    /// Counter-by-counter comparison of the two.
    pub divergence: Divergence,
    /// The node's full protocol report.
    pub report: RunReport,
}

/// The outcome of executing a whole plan.
#[derive(Debug)]
pub struct PlanReport {
    /// The final result after the client residual.
    pub result: Relation,
    /// Per-node reports, in plan (execution) order.
    pub nodes: Vec<NodeReport>,
}

impl PlanReport {
    /// The plan's outcome key: its most severe node's, ranked aborted >
    /// degraded > recovered > clean (`clean` for a plan without nodes).
    pub fn outcome(&self) -> &'static str {
        self.nodes
            .iter()
            .map(|n| &n.report.outcome)
            .max_by_key(|o| severity(o))
            .map_or("clean", RunOutcome::key)
    }

    /// Retransmissions across every node, as their outcomes count them.
    pub fn retries(&self) -> u64 {
        self.nodes.iter().map(|n| n.report.outcome.retries()).sum()
    }
}

/// How bad a node outcome is, for [`PlanReport::outcome`].
fn severity(outcome: &RunOutcome) -> u8 {
    match outcome {
        RunOutcome::Clean => 0,
        RunOutcome::RecoveredWithRetries { .. } => 1,
        RunOutcome::Degraded { .. } => 2,
        RunOutcome::Aborted { .. } => 3,
    }
}

impl Engine {
    /// Executes a [`Plan`] over the mediator hierarchy: each node runs a
    /// full credential-checked mediation with its chosen protocol, and
    /// intermediate results become derived allow-all datasources for
    /// parent nodes (their rows were already filtered by the child
    /// stages' policies).  Pushed-down scan predicates are applied to the
    /// source relations before mediation; the plan's residual runs
    /// client-side at the end.
    ///
    /// The per-node `predicted` in the returned report is recomputed from
    /// the actual input relations, so for unfiltered (allow-all) policies
    /// it must match the observed census exactly — the
    /// [`Divergence`] cross-check enforces the §6 closed forms per node.
    pub fn run_plan(
        ca: &CertificationAuthority,
        client_template: impl Fn() -> Client,
        sources: Vec<SourceSpec>,
        plan: &Plan,
        opts: &PlanRunOptions,
    ) -> Result<PlanReport, MedError> {
        // Install pushed-down filters on the source relations.
        let mut pool: Vec<(String, Relation, AccessPolicy)> = Vec::new();
        for spec in sources {
            let relation = match plan
                .scan_preds
                .iter()
                .find(|(t, _)| *t == spec.name)
                .map(|(_, p)| p)
            {
                Some(pred) => spec.relation.select(pred)?,
                None => spec.relation,
            };
            pool.push((spec.name, relation, spec.policy));
        }

        let take_input = |pool: &mut Vec<(String, Relation, AccessPolicy)>,
                          results: &mut Vec<Option<(String, Relation)>>,
                          input: &NodeInput|
         -> Result<(String, Relation, AccessPolicy), MedError> {
            match input {
                NodeInput::Source(name) => {
                    let i = pool.iter().position(|(n, _, _)| n == name).ok_or_else(|| {
                        MedError::Protocol(format!(
                            "plan references source {name} not provided (or used twice)"
                        ))
                    })?;
                    let (n, r, p) = pool.remove(i);
                    Ok((n, r, p))
                }
                NodeInput::Node(j) => {
                    let (name, rel) =
                        results.get_mut(*j).and_then(Option::take).ok_or_else(|| {
                            MedError::Protocol(format!(
                                "plan node input #{j} missing or consumed twice"
                            ))
                        })?;
                    // A derived source serves rows the child stages already
                    // policy-filtered; it grants the same client full access.
                    Ok((name, rel, AccessPolicy::allow_all()))
                }
            }
        };

        let mut results: Vec<Option<(String, Relation)>> = Vec::new();
        let mut node_reports: Vec<NodeReport> = Vec::new();
        for node in &plan.nodes {
            let (lname, lrel, lpolicy) = take_input(&mut pool, &mut results, &node.left)?;
            let (rname, rrel, rpolicy) = take_input(&mut pool, &mut results, &node.right)?;
            let left = DataSource::new(&lname, lrel.clone(), lpolicy, ca.public_key().clone());
            let right = DataSource::new(&rname, rrel.clone(), rpolicy, ca.public_key().clone());
            let mediator = Mediator::new(&[&left, &right]);
            let conds: Vec<String> = node
                .attrs
                .iter()
                .map(|a| format!("{lname}.{a} = {rname}.{a}"))
                .collect();
            let query = format!(
                "select * from {lname}, {rname} where {}",
                conds.join(" and ")
            );
            let mut scenario = Scenario {
                client: client_template(),
                mediator,
                left,
                right,
                query,
            };
            let report = Engine::run(&mut scenario, &opts.node_options(node.protocol))?;
            if !report.outcome.delivered() {
                return Err(MedError::Protocol(format!(
                    "plan node {lname} ⨝ {rname} aborted; no relation to continue with ({})",
                    report.outcome
                )));
            }
            let server_result = report.mediator_view.server_result_size.unwrap_or(0);
            let predicted = predict(
                &node.protocol,
                &shape_of_join(&lrel, &rrel, &node.attrs, server_result)?,
            );
            let observed = crate::cost::observed(&report.primitives);
            let label = format!("{lname} ⨝ {rname}");
            results.push(Some((format!("{lname}_{rname}"), report.result.clone())));
            node_reports.push(NodeReport {
                label,
                protocol: node.protocol,
                divergence: divergence(&predicted, &observed),
                predicted,
                observed,
                report,
            });
        }

        let root = results
            .last_mut()
            .and_then(Option::take)
            .ok_or_else(|| MedError::Protocol("plan has no nodes".to_string()))?;
        let result = apply_residual(&root.1, &plan.residual)?;
        Ok(PlanReport {
            result,
            nodes: node_reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CommutativeConfig, DasConfig, DasSetting, PmConfig};

    #[test]
    fn exposure_profiles_follow_table1() {
        let das = exposure(&ProtocolKind::Das(DasConfig::default()));
        assert!(das.mediator_result_sizes && das.client_superset);
        assert!(!das.plaintext_index_tables, "client setting is the default");
        let das_med = exposure(&ProtocolKind::Das(DasConfig {
            setting: DasSetting::MediatorSetting,
            ..Default::default()
        }));
        assert!(das_med.plaintext_index_tables);
        let comm = exposure(&ProtocolKind::Commutative(CommutativeConfig::default()));
        assert!(comm.mediator_domain_sizes && comm.mediator_intersection_size);
        assert!(!comm.client_superset && !comm.client_extra_ciphertexts);
        let pm = exposure(&ProtocolKind::Pm(PmConfig::default()));
        assert!(pm.mediator_domain_sizes && pm.client_extra_ciphertexts);
        assert!(!pm.mediator_intersection_size);
    }

    #[test]
    fn budget_admissibility() {
        let open = LeakageBudget::open();
        let strict = LeakageBudget::exact_result_only();
        for kind in [
            ProtocolKind::Das(DasConfig::default()),
            ProtocolKind::Commutative(CommutativeConfig::default()),
            ProtocolKind::Pm(PmConfig::default()),
        ] {
            assert!(open.permits(&exposure(&kind)));
            assert!(!strict.permits(&exposure(&kind)));
        }
        // Refusing the intersection size rules out commutative but not PM.
        let no_intersection = LeakageBudget {
            mediator_intersection_size: false,
            ..LeakageBudget::open()
        };
        assert!(
            !no_intersection.permits(&exposure(&ProtocolKind::Commutative(
                CommutativeConfig::default()
            )))
        );
        assert!(no_intersection.permits(&exposure(&ProtocolKind::Pm(PmConfig::default()))));
    }
}
