#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Cost- and leakage-aware query planner.
//!
//! The planner turns a multi-way join query into a typed
//! [`Plan`](secmed_core::plan::Plan): it builds the
//! [`QueryGraph`](relalg::sql::QueryGraph) of the SQL text, enumerates the
//! connected left-deep join orders, and for every join node scores each
//! candidate [`ProtocolKind`] by two criteria:
//!
//! 1. **Admissibility** — the protocol's Table 1 exposure profile
//!    ([`secmed_core::plan::exposure`]) must stay within the client's
//!    [`LeakageBudget`] (pointwise: whatever the protocol reveals must be
//!    permitted).
//! 2. **Cost** — among admissible candidates, the cheapest by the §6
//!    closed forms: [`predict`] over a [`WorkloadShape`] estimated from
//!    per-source [`SourceStats`], scored with the integer
//!    [`PredictedOps::weighted_cost`].
//!
//! The order with the lowest total cost wins; every tie (between orders or
//! between protocols) breaks lexicographically, so planning is a pure
//! function of `(query, schemas, stats, budget, candidates)` and the
//! emitted plan is byte-identical across runs and platforms.  Execution
//! lives in core ([`secmed_core::Engine::run_plan`]); this crate never
//! touches a transport or a key.

use std::collections::BTreeMap;

use relalg::sql::{self, QueryGraph};
use relalg::{RelError, Relation, Schema};
use secmed_core::cost::{predict, PredictedOps, WorkloadShape};
use secmed_core::plan::{exposure, LeakageBudget, NodeInput, Plan, PlanNode};
use secmed_core::{CommutativeConfig, DasConfig, PmConfig, ProtocolKind};

/// Planning-time statistics of one source relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceStats {
    /// Row count (after any access-control filtering the caller expects).
    pub rows: u64,
    /// Active-domain size per attribute.
    pub domains: BTreeMap<String, u64>,
}

impl SourceStats {
    /// Exact statistics of a concrete relation.
    pub fn of(relation: &Relation) -> Self {
        let mut domains = BTreeMap::new();
        for name in relation.schema().attr_names() {
            // `name` comes from the relation's own schema, so the lookup
            // cannot fail.
            let dom = relation
                .active_domain(name)
                .expect("attribute from the relation's own schema");
            domains.insert(name.to_string(), dom.len() as u64);
        }
        SourceStats {
            rows: relation.len() as u64,
            domains,
        }
    }
}

/// Exact statistics for a whole catalog of relations.
pub fn stats_of(relations: &BTreeMap<String, Relation>) -> BTreeMap<String, SourceStats> {
    relations
        .iter()
        .map(|(name, rel)| (name.clone(), SourceStats::of(rel)))
        .collect()
}

/// Why planning failed.
#[derive(Debug)]
pub enum PlanError {
    /// Parsing or analysis of the SQL text failed.
    Rel(RelError),
    /// A table in the query has no entry in the statistics map.
    MissingStats(String),
    /// The query's join graph does not connect all tables (or joins fewer
    /// than two), so no left-deep order without a cross product exists.
    Disconnected(String),
    /// Some join node admits no candidate protocol under the budget.
    NoAdmissibleProtocol {
        /// The join that could not be planned, e.g. `"t0 ⨝ t1"`.
        node: String,
        /// Per-candidate explanation of what the budget refused.
        details: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Rel(e) => write!(f, "query error: {e}"),
            PlanError::MissingStats(t) => write!(f, "no statistics for table {t}"),
            PlanError::Disconnected(m) => write!(f, "join graph not connected: {m}"),
            PlanError::NoAdmissibleProtocol { node, details } => {
                write!(f, "no admissible protocol for {node}: {details}")
            }
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Rel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelError> for PlanError {
    fn from(e: RelError) -> Self {
        PlanError::Rel(e)
    }
}

/// Estimated shape of an intermediate result while simulating an order.
#[derive(Debug, Clone)]
struct Est {
    rows: u64,
    domains: BTreeMap<String, u64>,
}

impl Est {
    fn of(stats: &SourceStats) -> Est {
        Est {
            rows: stats.rows,
            domains: stats.domains.clone(),
        }
    }

    /// Estimated active-domain size of the (possibly composite) join key:
    /// the product of per-attribute domains, capped by the row count.
    fn key_domain(&self, attrs: &[String]) -> u64 {
        let mut d: u64 = 1;
        for a in attrs {
            d = d.saturating_mul(self.domains.get(a).copied().unwrap_or(0));
        }
        d.min(self.rows)
    }
}

/// The textbook equi-join size estimate: `|L| · |R| / max(dom_L, dom_R)`.
fn join_rows(left: &Est, right: &Est, attrs: &[String]) -> u64 {
    let d = left.key_domain(attrs).max(right.key_domain(attrs)).max(1);
    left.rows.saturating_mul(right.rows) / d
}

/// Budget flags a protocol's exposure exceeds, in Table 1 vocabulary.
fn violations(budget: &LeakageBudget, e: &LeakageBudget) -> Vec<&'static str> {
    let mut v = Vec::new();
    if e.mediator_result_sizes && !budget.mediator_result_sizes {
        v.push("mediator:result-sizes");
    }
    if e.mediator_domain_sizes && !budget.mediator_domain_sizes {
        v.push("mediator:domain-sizes");
    }
    if e.mediator_intersection_size && !budget.mediator_intersection_size {
        v.push("mediator:intersection-size");
    }
    if e.plaintext_index_tables && !budget.plaintext_index_tables {
        v.push("mediator:plaintext-index-tables");
    }
    if e.client_superset && !budget.client_superset {
        v.push("client:superset");
    }
    if e.client_extra_ciphertexts && !budget.client_extra_ciphertexts {
        v.push("client:extra-ciphertexts");
    }
    v
}

/// The cost- and leakage-aware planner.
///
/// Candidate protocols are scored in vector order; ties in weighted cost
/// go to the earlier candidate, so the candidate order is part of the
/// planner's deterministic configuration.
#[derive(Debug, Clone)]
pub struct Planner {
    /// Protocol configurations considered for every join node.
    pub candidates: Vec<ProtocolKind>,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new()
    }
}

impl Planner {
    /// A planner over the three paper protocols in their default
    /// configurations (DAS client setting, commutative, private matching).
    pub fn new() -> Self {
        Planner {
            candidates: vec![
                ProtocolKind::Das(DasConfig::default()),
                ProtocolKind::Commutative(CommutativeConfig::default()),
                ProtocolKind::Pm(PmConfig::default()),
            ],
        }
    }

    /// A planner restricted to the given candidate configurations.
    pub fn with_candidates(candidates: Vec<ProtocolKind>) -> Self {
        Planner { candidates }
    }

    /// Plans `sql_text` against base-relation `schemas` and per-source
    /// `stats` under `budget`.
    ///
    /// The emitted [`Plan`] is left-deep: node `i` joins the running
    /// intermediate result with one base table, with the protocol chosen
    /// per node.  Errors if the query parses but has no connected
    /// two-plus-table join, if a table lacks statistics, or if some node
    /// admits no protocol under the budget.
    pub fn plan(
        &self,
        sql_text: &str,
        schemas: &BTreeMap<String, Schema>,
        stats: &BTreeMap<String, SourceStats>,
        budget: LeakageBudget,
    ) -> Result<Plan, PlanError> {
        let tree = sql::parse(sql_text)?;
        let graph = sql::query_graph(&tree, schemas)?;
        if graph.tables.len() < 2 {
            return Err(PlanError::Disconnected(
                "query joins fewer than two tables".to_string(),
            ));
        }
        for t in &graph.tables {
            if !stats.contains_key(t) {
                return Err(PlanError::MissingStats(t.clone()));
            }
        }

        let orders = connected_orders(&graph);
        if orders.is_empty() {
            return Err(PlanError::Disconnected(format!(
                "no left-deep order joins {{{}}} without a cross product",
                graph.tables.join(", ")
            )));
        }

        // Score every order; keep the cheapest, ties broken by the
        // lexicographically first table sequence.
        let mut best: Option<(u64, Vec<String>, Vec<PlanNode>)> = None;
        let mut last_err: Option<PlanError> = None;
        for order in &orders {
            match self.plan_order(schemas, stats, &budget, order) {
                Ok((cost, nodes)) => {
                    let better = match &best {
                        None => true,
                        Some((bc, bo, _)) => cost < *bc || (cost == *bc && *order < *bo),
                    };
                    if better {
                        best = Some((cost, order.clone(), nodes));
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        let (_, _, nodes) = best.ok_or_else(|| {
            // Every order failed; surface the last (budget) error.
            last_err
                .unwrap_or_else(|| PlanError::Disconnected("no plannable join order".to_string()))
        })?;

        Ok(Plan {
            query: sql_text.to_string(),
            tables: graph.tables.clone(),
            scan_preds: graph.scan_preds.clone(),
            nodes,
            residual: graph.residual.clone(),
            budget,
        })
    }

    /// Builds and scores the node list for one table order.
    fn plan_order(
        &self,
        schemas: &BTreeMap<String, Schema>,
        stats: &BTreeMap<String, SourceStats>,
        budget: &LeakageBudget,
        order: &[String],
    ) -> Result<(u64, Vec<PlanNode>), PlanError> {
        let mut nodes: Vec<PlanNode> = Vec::new();
        let mut total: u64 = 0;
        let mut current = Est::of(&stats[&order[0]]);
        let mut current_name = order[0].clone();
        for (i, table) in order.iter().enumerate().skip(1) {
            let right = Est::of(&stats[table]);
            let attrs = shared_attrs(schemas, &order[..i], table);
            let est_rows = join_rows(&current, &right, &attrs);
            let shape = WorkloadShape {
                left_rows: current.rows as usize,
                right_rows: right.rows as usize,
                left_domain: current.key_domain(&attrs) as usize,
                right_domain: right.key_domain(&attrs) as usize,
                intersection: current.key_domain(&attrs).min(right.key_domain(&attrs)) as usize,
                // DAS server-result estimate: the join size (optimistic —
                // bucket collisions only add rows; the executed plan
                // recomputes the exact prediction from the observed size).
                server_result: est_rows as usize,
            };
            let label = format!("{current_name} ⨝ {table}");
            let (protocol, predicted, rationale, cost) =
                self.choose(budget, &shape, attrs.len(), &label)?;
            total = total.saturating_add(cost);
            nodes.push(PlanNode {
                left: if i == 1 {
                    NodeInput::Source(order[0].clone())
                } else {
                    NodeInput::Node(i - 2)
                },
                right: NodeInput::Source(table.clone()),
                attrs: attrs.clone(),
                protocol,
                predicted,
                estimated_rows: est_rows,
                rationale,
            });
            // Merge the estimate for the parent node: join attributes keep
            // the smaller domain, everything else carries over; domains
            // never exceed the estimated row count.
            let mut domains = current.domains.clone();
            for (a, d) in &right.domains {
                let merged = match domains.get(a) {
                    Some(existing) => (*existing).min(*d),
                    None => *d,
                };
                domains.insert(a.clone(), merged);
            }
            for d in domains.values_mut() {
                *d = (*d).min(est_rows);
            }
            current = Est {
                rows: est_rows,
                domains,
            };
            current_name = format!("{current_name}_{table}");
        }
        Ok((total, nodes))
    }

    /// Picks the cheapest admissible candidate for one node joining on
    /// `key_attrs` attributes.
    fn choose(
        &self,
        budget: &LeakageBudget,
        shape: &WorkloadShape,
        key_attrs: usize,
        label: &str,
    ) -> Result<(ProtocolKind, PredictedOps, String, u64), PlanError> {
        let mut verdicts: Vec<String> = Vec::new();
        let mut winner: Option<(ProtocolKind, PredictedOps, u64)> = None;
        for kind in &self.candidates {
            let mut vs = violations(budget, &exposure(kind));
            // DAS indexes a single join attribute (paper Section 2).
            if matches!(kind, ProtocolKind::Das(_)) && key_attrs > 1 {
                vs.push("composite key");
            }
            if vs.is_empty() {
                let predicted = predict(kind, shape);
                let cost = predicted.weighted_cost();
                verdicts.push(format!("{}: cost {cost}", kind.key()));
                if winner.as_ref().map(|(_, _, c)| cost < *c).unwrap_or(true) {
                    winner = Some((*kind, predicted, cost));
                }
            } else {
                verdicts.push(format!("{}: inadmissible[{}]", kind.key(), vs.join(",")));
            }
        }
        match winner {
            Some((kind, predicted, cost)) => {
                let rationale = format!("{} wins ({})", kind.key(), verdicts.join("; "));
                Ok((kind, predicted, rationale, cost))
            }
            None => Err(PlanError::NoAdmissibleProtocol {
                node: label.to_string(),
                details: verdicts.join("; "),
            }),
        }
    }
}

/// The attributes a left-deep node joining `table` onto the already-joined
/// `set` joins on: the sorted names `table` shares with any table of the
/// set, exactly what the engine's node query joins on.  The graph's edges
/// cannot say this, since they assign a name several tables carry to one
/// pair of them.
fn shared_attrs(schemas: &BTreeMap<String, Schema>, set: &[String], table: &str) -> Vec<String> {
    let names = |t: &str| -> Vec<&str> {
        schemas.get(t).map_or_else(Vec::new, |s| {
            s.attributes().iter().map(|a| a.base_name()).collect()
        })
    };
    let right = names(table);
    let mut attrs: Vec<String> = set
        .iter()
        .flat_map(|t| names(t))
        .filter(|a| right.contains(a))
        .map(str::to_string)
        .collect();
    attrs.sort();
    attrs.dedup();
    attrs
}

/// The query's join edges between `table` and the already-joined `set`, as
/// the sorted union of their attributes.  Empty means joining `table` next
/// would be a cross product; order enumeration reads nothing else from it.
fn attrs_to_set(graph: &QueryGraph, set: &[String], table: &str) -> Vec<String> {
    let mut attrs: Vec<String> = Vec::new();
    for s in set {
        if let Some(edge) = graph.edge_attrs(s, table) {
            for a in edge {
                if !attrs.contains(a) {
                    attrs.push(a.clone());
                }
            }
        }
    }
    attrs.sort();
    attrs
}

/// All left-deep orders where every table after the first shares a join
/// edge with some earlier table (no cross products), in lexicographic
/// order of the table sequence.
fn connected_orders(graph: &QueryGraph) -> Vec<Vec<String>> {
    let mut orders = Vec::new();
    let mut tables = graph.tables.clone();
    tables.sort();
    for start in &tables {
        let mut prefix = vec![start.clone()];
        extend_orders(graph, &tables, &mut prefix, &mut orders);
    }
    orders
}

fn extend_orders(
    graph: &QueryGraph,
    tables: &[String],
    prefix: &mut Vec<String>,
    orders: &mut Vec<Vec<String>>,
) {
    if prefix.len() == tables.len() {
        orders.push(prefix.clone());
        return;
    }
    for t in tables {
        if prefix.contains(t) {
            continue;
        }
        if attrs_to_set(graph, prefix, t).is_empty() {
            continue;
        }
        prefix.push(t.clone());
        extend_orders(graph, tables, prefix, orders);
        prefix.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relalg::Type;

    /// Chain schemas t0(k0,v0), t1(k0,k1,v1), t2(k1,k2,v2).
    fn chain_schemas() -> BTreeMap<String, Schema> {
        let mut m = BTreeMap::new();
        m.insert(
            "t0".to_string(),
            Schema::new(&[("k0", Type::Int), ("v0", Type::Int)]),
        );
        m.insert(
            "t1".to_string(),
            Schema::new(&[("k0", Type::Int), ("k1", Type::Int), ("v1", Type::Int)]),
        );
        m.insert(
            "t2".to_string(),
            Schema::new(&[("k1", Type::Int), ("k2", Type::Int), ("v2", Type::Int)]),
        );
        m
    }

    fn chain_stats(rows: [u64; 3], key_dom: u64) -> BTreeMap<String, SourceStats> {
        let mut m = BTreeMap::new();
        for (i, r) in rows.iter().enumerate() {
            let mut domains = BTreeMap::new();
            if i > 0 {
                domains.insert(format!("k{}", i - 1), key_dom.min(*r));
            }
            domains.insert(format!("k{i}"), key_dom.min(*r));
            domains.insert(format!("v{i}"), *r);
            m.insert(format!("t{i}"), SourceStats { rows: *r, domains });
        }
        m
    }

    const CHAIN_SQL: &str = "select * from t0 natural join t1 natural join t2";

    #[test]
    fn chain_plan_is_left_deep_and_deterministic() {
        let planner = Planner::new();
        let schemas = chain_schemas();
        let stats = chain_stats([20, 30, 40], 8);
        let a = planner
            .plan(CHAIN_SQL, &schemas, &stats, LeakageBudget::open())
            .unwrap();
        let b = planner
            .plan(CHAIN_SQL, &schemas, &stats, LeakageBudget::open())
            .unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.nodes.len(), 2);
        // Node 1 always consumes node 0's result (left-deep arena).
        assert_eq!(a.nodes[1].left, NodeInput::Node(0));
        for n in &a.nodes {
            assert_eq!(n.attrs.len(), 1, "chain joins on one key: {n:?}");
            assert!(!n.rationale.is_empty());
        }
    }

    #[test]
    fn budget_restricts_protocol_choice() {
        let planner = Planner::new();
        let schemas = chain_schemas();
        let stats = chain_stats([20, 30, 40], 8);
        // Only DAS-shaped leakage permitted → every node runs DAS.
        let das_only = LeakageBudget {
            mediator_domain_sizes: false,
            mediator_intersection_size: false,
            client_extra_ciphertexts: false,
            ..LeakageBudget::open()
        };
        let plan = planner.plan(CHAIN_SQL, &schemas, &stats, das_only).unwrap();
        for n in &plan.nodes {
            assert_eq!(n.protocol.key(), "das", "{}", n.rationale);
            assert!(n.rationale.contains("inadmissible"));
        }
        // Nothing permitted → typed refusal naming the candidates.
        let err = planner
            .plan(
                CHAIN_SQL,
                &schemas,
                &stats,
                LeakageBudget::exact_result_only(),
            )
            .unwrap_err();
        match err {
            PlanError::NoAdmissibleProtocol { details, .. } => {
                for key in ["das", "commutative", "pm"] {
                    assert!(details.contains(key), "{details}");
                }
            }
            other => panic!("expected NoAdmissibleProtocol, got {other:?}"),
        }
    }

    #[test]
    fn tightening_the_budget_flips_a_node() {
        // Commutative vs PM head-to-head: under an open budget the
        // planner may pick either by cost; refusing the intersection size
        // forces PM everywhere.
        let planner = Planner::with_candidates(vec![
            ProtocolKind::Commutative(CommutativeConfig::default()),
            ProtocolKind::Pm(PmConfig::default()),
        ]);
        let schemas = chain_schemas();
        let stats = chain_stats([20, 30, 40], 8);
        let open = planner
            .plan(CHAIN_SQL, &schemas, &stats, LeakageBudget::open())
            .unwrap();
        assert!(open.nodes.iter().any(|n| n.protocol.key() == "commutative"));
        let tight = LeakageBudget {
            mediator_intersection_size: false,
            ..LeakageBudget::open()
        };
        let flipped = planner.plan(CHAIN_SQL, &schemas, &stats, tight).unwrap();
        assert!(flipped.nodes.iter().all(|n| n.protocol.key() == "pm"));
    }

    #[test]
    fn missing_stats_and_single_table_are_typed_errors() {
        let planner = Planner::new();
        let schemas = chain_schemas();
        let mut stats = chain_stats([20, 30, 40], 8);
        stats.remove("t1");
        assert!(matches!(
            planner.plan(CHAIN_SQL, &schemas, &stats, LeakageBudget::open()),
            Err(PlanError::MissingStats(t)) if t == "t1"
        ));
        let stats = chain_stats([20, 30, 40], 8);
        assert!(matches!(
            planner.plan("select * from t0", &schemas, &stats, LeakageBudget::open()),
            Err(PlanError::Disconnected(_))
        ));
    }

    #[test]
    fn orders_never_cross_product() {
        // t0–t1 and t1–t2 are the only edges: no order may put t0 and t2
        // adjacent without t1 already in the set.
        let schemas = chain_schemas();
        let tree = sql::parse(CHAIN_SQL).unwrap();
        let graph = sql::query_graph(&tree, &schemas).unwrap();
        let orders = connected_orders(&graph);
        assert!(!orders.is_empty());
        for order in &orders {
            for i in 1..order.len() {
                assert!(
                    !attrs_to_set(&graph, &order[..i], &order[i]).is_empty(),
                    "cross product in {order:?}"
                );
            }
        }
        assert!(!orders.iter().any(|o| o[0] == "t0" && o[1] == "t2"));
    }

    #[test]
    fn source_stats_reads_exact_domains() {
        use relalg::Value;
        let rel = Relation::build(
            Schema::new(&[("k", Type::Int), ("v", Type::Int)]),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(20)],
                vec![Value::Int(2), Value::Int(20)],
            ],
        )
        .unwrap();
        let s = SourceStats::of(&rel);
        assert_eq!(s.rows, 3);
        assert_eq!(s.domains["k"], 2);
        assert_eq!(s.domains["v"], 2);
    }
}
