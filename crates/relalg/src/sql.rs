//! A SQL subset and the "SQL2Algebra" translation.
//!
//! The paper (Section 2) has the mediator transform SQL queries "into a
//! so-called 'algebra tree' (with relational operators in the inner nodes
//! of the tree and partial queries at the leaves) by using the
//! 'SQL2Algebra' library".  This module is that library:
//!
//! * [`parse`] — SQL text → [`Algebra`] tree,
//! * [`Algebra::eval`] — evaluate a tree against a catalog of relations,
//! * [`decompose`] — the mediator's step 2 of Listing 1: split a two-
//!   relation JOIN query into `select *` partial queries plus a
//!   [`JoinSpec`], with any residual selection/projection kept for post-
//!   processing.
//!
//! For multi-way queries there are two further entry points feeding the
//! planner:
//!
//! * [`query_graph`] — schema-aware analysis of a parsed tree: tables,
//!   per-table pushed-down filters, join edges with their attributes, and
//!   the client-side residual, with typed errors for unknown or ambiguous
//!   column references,
//! * [`push_down`] — rewrite a tree so single-table WHERE conjuncts sit
//!   directly above their scans (selection pushdown).
//!
//! Supported grammar:
//!
//! ```text
//! query  := SELECT (* | col[, col]*) FROM table_ref [WHERE cond]
//!           [GROUP BY col[, col]*]
//! table_ref := primary (join_tail)*
//! join_tail := NATURAL JOIN primary
//!            | JOIN primary ON col = col (AND col = col)*
//!            | , primary                -- equi-join via WHERE
//! primary := ident [[AS] ident]        -- optional table alias
//! cond   := atom (AND atom)*
//! atom   := operand (= | < | <=) operand
//! ```
//!
//! Table aliases are resolved away at parse time: every qualified column
//! reference in the returned tree names the underlying relation.  A
//! qualifier that names no FROM entry is [`RelError::UnknownAttribute`];
//! a repeated alias or relation is [`RelError::DuplicateAlias`].

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::aggregate::AggFn;
use crate::predicate::{Operand, Predicate};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::Value;
use crate::RelError;

/// A relational algebra tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Algebra {
    /// Leaf: scan a named base relation (a partial query target).
    Scan(String),
    /// σ.
    Select {
        /// Input expression.
        input: Box<Algebra>,
        /// Filter predicate.
        pred: Predicate,
    },
    /// π.
    Project {
        /// Input expression.
        input: Box<Algebra>,
        /// Output column names, in order.
        cols: Vec<String>,
    },
    /// γ — GROUP BY with aggregates.
    Aggregate {
        /// Input expression.
        input: Box<Algebra>,
        /// Grouping columns.
        group_cols: Vec<String>,
        /// Aggregates `(fn, column)`.
        aggs: Vec<(AggFn, String)>,
    },
    /// ⨝ on equal base names.
    Join {
        /// Left input.
        left: Box<Algebra>,
        /// Right input.
        right: Box<Algebra>,
        /// Explicit join attributes (base names).
        on: Vec<String>,
        /// True for `NATURAL JOIN` (join attributes inferred from the
        /// schemas — in the mediator, from the global-schema embedding).
        natural: bool,
    },
}

impl Algebra {
    /// Evaluates the tree against named base relations.
    pub fn eval(&self, catalog: &HashMap<String, Relation>) -> Result<Relation, RelError> {
        match self {
            Algebra::Scan(name) => catalog
                .get(name)
                .cloned()
                .ok_or_else(|| RelError::UnknownAttribute(format!("relation {name}"))),
            Algebra::Select { input, pred } => input.eval(catalog)?.select(pred),
            Algebra::Project { input, cols } => {
                let rel = input.eval(catalog)?;
                let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                rel.project(&refs)
            }
            Algebra::Aggregate {
                input,
                group_cols,
                aggs,
            } => {
                let rel = input.eval(catalog)?;
                let groups: Vec<&str> = group_cols.iter().map(String::as_str).collect();
                let agg_refs: Vec<(AggFn, &str)> =
                    aggs.iter().map(|(f, c)| (*f, c.as_str())).collect();
                rel.aggregate(&groups, &agg_refs)
            }
            Algebra::Join {
                left,
                right,
                on,
                natural,
            } => {
                let l = left.eval(catalog)?;
                let r = right.eval(catalog)?;
                if *natural || on.is_empty() {
                    l.natural_join(&r)
                } else {
                    l.join_on(&r, on)
                }
            }
        }
    }

    /// Names of the base relations scanned by this tree.
    pub fn scans(&self) -> Vec<&str> {
        match self {
            Algebra::Scan(name) => vec![name.as_str()],
            Algebra::Select { input, .. }
            | Algebra::Project { input, .. }
            | Algebra::Aggregate { input, .. } => input.scans(),
            Algebra::Join { left, right, .. } => {
                let mut s = left.scans();
                s.extend(right.scans());
                s
            }
        }
    }
}

/// The JOIN the mediator must mediate: two source relations and their join
/// attributes (the paper's `A_join`, generalized to several attributes as
/// suggested in the future-work section).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSpec {
    /// Left relation name (source `S1`).
    pub left: String,
    /// Right relation name (source `S2`).
    pub right: String,
    /// Join attribute base names.
    pub attrs: Vec<String>,
}

/// A GROUP BY clause: grouping columns plus `(function, column)` aggregates.
pub type GroupBy = (Vec<String>, Vec<(AggFn, String)>);

/// Residual work the *client* performs after the mediated join (projection
/// and non-join selection; Listing 1 partial queries are plain `select *`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Residual {
    /// Post-join filter.
    pub pred: Option<Predicate>,
    /// Post-join projection.
    pub cols: Option<Vec<String>>,
    /// Post-join aggregation (GROUP BY columns, aggregates).
    pub aggregate: Option<GroupBy>,
}

/// The mediator's decomposition: partial queries plus join spec plus
/// residual client work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// `select * from <left>` — the partial query `q1`.
    pub q1: String,
    /// `select * from <right>` — the partial query `q2`.
    pub q2: String,
    /// The JOIN to execute over encrypted partial results.
    pub join: JoinSpec,
    /// What remains for the client.
    pub residual: Residual,
}

/// Parses SQL text into an algebra tree.
pub fn parse(sql: &str) -> Result<Algebra, RelError> {
    Parser::new(sql)?.parse_query()
}

/// Decomposes a parsed two-relation join query (Listing 1, step 2).
///
/// Join-attribute equalities in the `WHERE` clause (e.g.
/// `R1.ssn = R2.ssn`) become join attributes; all other conjuncts and any
/// projection become the client's residual work.
pub fn decompose(tree: &Algebra) -> Result<Decomposition, RelError> {
    // Aggregation and projection are always client-side work in the
    // mediated setting; the selection is split into join equalities and
    // residual filters below.
    let (aggregate, (cols, pred), inner) = peel(tree);
    let Algebra::Join {
        left,
        right,
        on,
        natural,
    } = inner
    else {
        return Err(RelError::Sql(
            "query is not a two-relation join".to_string(),
        ));
    };
    let (Algebra::Scan(l), Algebra::Scan(r)) = (left.as_ref(), right.as_ref()) else {
        return Err(RelError::Sql(
            "join inputs must be base relations".to_string(),
        ));
    };

    // Split WHERE conjuncts into join equalities and residual filters.
    let mut attrs = on.clone();
    let mut residual_pred: Option<Predicate> = None;
    if let Some(p) = pred {
        for conjunct in flatten_and(&p) {
            match join_attr_of(&conjunct, l, r) {
                Some(a) if !attrs.contains(&a) => attrs.push(a),
                Some(_) => {}
                None => {
                    residual_pred = Some(match residual_pred.take() {
                        Some(acc) => acc.and(conjunct),
                        None => conjunct,
                    });
                }
            }
        }
    }
    if attrs.is_empty() && !natural {
        return Err(RelError::Sql(
            "no join attribute: use NATURAL JOIN, JOIN..ON, or a WHERE equality".to_string(),
        ));
    }
    Ok(Decomposition {
        q1: format!("select * from {l}"),
        q2: format!("select * from {r}"),
        join: JoinSpec {
            left: l.clone(),
            right: r.clone(),
            attrs,
        },
        residual: Residual {
            pred: residual_pred,
            cols,
            aggregate,
        },
    })
}

/// Conjuncts of a predicate (flattening nested ANDs).
fn flatten_and(p: &Predicate) -> Vec<Predicate> {
    match p {
        Predicate::And(a, b) => {
            let mut out = flatten_and(a);
            out.extend(flatten_and(b));
            out
        }
        Predicate::True => vec![],
        other => vec![other.clone()],
    }
}

/// If `p` is `l.x = r.x` (one column from each relation, equal base names),
/// returns the base name.
fn join_attr_of(p: &Predicate, l: &str, r: &str) -> Option<String> {
    let Predicate::Eq(Operand::Col(a), Operand::Col(b)) = p else {
        return None;
    };
    let (qa, na) = split_qualified(a);
    let (qb, nb) = split_qualified(b);
    if na != nb {
        return None;
    }
    match (qa, qb) {
        (Some(x), Some(y)) if (x == l && y == r) || (x == r && y == l) => Some(na.to_string()),
        (None, None) => Some(na.to_string()),
        _ => None,
    }
}

fn split_qualified(name: &str) -> (Option<&str>, &str) {
    match name.rsplit_once('.') {
        Some((q, n)) => (Some(q), n),
        None => (None, name),
    }
}

/// Applies `f` to every column reference in the tree (projection columns,
/// grouping/aggregate columns, predicate operands).  Join attributes are
/// base names and stay untouched.
fn map_columns(
    tree: Algebra,
    f: &dyn Fn(&str) -> Result<String, RelError>,
) -> Result<Algebra, RelError> {
    Ok(match tree {
        Algebra::Scan(n) => Algebra::Scan(n),
        Algebra::Select { input, pred } => Algebra::Select {
            input: Box::new(map_columns(*input, f)?),
            pred: map_pred_columns(&pred, f)?,
        },
        Algebra::Project { input, cols } => Algebra::Project {
            input: Box::new(map_columns(*input, f)?),
            cols: cols.iter().map(|c| f(c)).collect::<Result<Vec<_>, _>>()?,
        },
        Algebra::Aggregate {
            input,
            group_cols,
            aggs,
        } => Algebra::Aggregate {
            input: Box::new(map_columns(*input, f)?),
            group_cols: group_cols
                .iter()
                .map(|c| f(c))
                .collect::<Result<Vec<_>, _>>()?,
            aggs: aggs
                .into_iter()
                .map(|(af, c)| Ok((af, f(&c)?)))
                .collect::<Result<Vec<_>, RelError>>()?,
        },
        Algebra::Join {
            left,
            right,
            on,
            natural,
        } => Algebra::Join {
            left: Box::new(map_columns(*left, f)?),
            right: Box::new(map_columns(*right, f)?),
            on,
            natural,
        },
    })
}

/// Applies `f` to every column operand of a predicate.
fn map_pred_columns(
    p: &Predicate,
    f: &dyn Fn(&str) -> Result<String, RelError>,
) -> Result<Predicate, RelError> {
    let op = |o: &Operand| -> Result<Operand, RelError> {
        Ok(match o {
            Operand::Col(c) => Operand::Col(f(c)?),
            Operand::Lit(v) => Operand::Lit(v.clone()),
        })
    };
    Ok(match p {
        Predicate::True => Predicate::True,
        Predicate::False => Predicate::False,
        Predicate::Eq(l, r) => Predicate::Eq(op(l)?, op(r)?),
        Predicate::Lt(l, r) => Predicate::Lt(op(l)?, op(r)?),
        Predicate::Le(l, r) => Predicate::Le(op(l)?, op(r)?),
        Predicate::And(a, b) => Predicate::And(
            Box::new(map_pred_columns(a, f)?),
            Box::new(map_pred_columns(b, f)?),
        ),
        Predicate::Or(a, b) => Predicate::Or(
            Box::new(map_pred_columns(a, f)?),
            Box::new(map_pred_columns(b, f)?),
        ),
        Predicate::Not(q) => Predicate::Not(Box::new(map_pred_columns(q, f)?)),
    })
}

/// Column operand names of a predicate, in syntactic order.
fn pred_columns(p: &Predicate, out: &mut Vec<String>) {
    match p {
        Predicate::True | Predicate::False => {}
        Predicate::Eq(l, r) | Predicate::Lt(l, r) | Predicate::Le(l, r) => {
            for o in [l, r] {
                if let Operand::Col(c) = o {
                    out.push(c.clone());
                }
            }
        }
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            pred_columns(a, out);
            pred_columns(b, out);
        }
        Predicate::Not(q) => pred_columns(q, out),
    }
}

// ---------------------------------------------------------------------------
// Query graph and selection pushdown
// ---------------------------------------------------------------------------

/// An equi-join edge between two base relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    /// Earlier relation (FROM order).
    pub left: String,
    /// Later relation.
    pub right: String,
    /// Join attribute base names.
    pub attrs: Vec<String>,
}

/// The planner's view of a multi-way query: base tables in FROM order,
/// pushed-down per-table filters, join edges, and the client residual —
/// everything expressed with bare attribute names so it can be evaluated
/// against source relations directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryGraph {
    /// Base relations in FROM order.
    pub tables: Vec<String>,
    /// Per-table pushed-down selections, in FROM order of the table.
    pub scan_preds: Vec<(String, Predicate)>,
    /// Equi-join edges.  Every adjacent join in the tree contributes one;
    /// WHERE equalities merge into the edge covering their table pair.
    pub edges: Vec<JoinEdge>,
    /// What remains for the client after all mediated joins.
    pub residual: Residual,
}

impl QueryGraph {
    /// The pushed-down predicate for `table`, if any.
    pub fn scan_pred(&self, table: &str) -> Option<&Predicate> {
        self.scan_preds
            .iter()
            .find(|(t, _)| t == table)
            .map(|(_, p)| p)
    }

    /// The join attributes between two tables, regardless of edge
    /// orientation.
    pub fn edge_attrs(&self, a: &str, b: &str) -> Option<&[String]> {
        self.edges
            .iter()
            .find(|e| (e.left == a && e.right == b) || (e.left == b && e.right == a))
            .map(|e| e.attrs.as_slice())
    }
}

/// Per-join-node resolution recorded while walking the tree, in post-order;
/// drives both edge extraction and the pushdown rebuild.
#[derive(Debug, Clone)]
struct JoinNodeInfo {
    left_set: Vec<String>,
    right_set: Vec<String>,
    on: Vec<String>,
}

/// Analyzes a parsed tree against the base-relation schemas.
///
/// Join attributes for `NATURAL JOIN` (and comma-style joins) are inferred
/// from shared base names, matching [`Algebra::eval`] semantics; WHERE
/// equalities between two tables merge into the join edge covering that
/// pair.  Single-table WHERE conjuncts become `scan_preds`; conjuncts on a
/// join attribute are pushed to *every* table carrying it (sound for
/// equi-joins); everything else lands in the residual.  Column references
/// are validated: unknown names or qualifiers are
/// [`RelError::UnknownAttribute`], and a bare name carried by several
/// tables that is not a join attribute is [`RelError::AmbiguousColumn`].
pub fn query_graph(
    tree: &Algebra,
    schemas: &BTreeMap<String, Schema>,
) -> Result<QueryGraph, RelError> {
    analyze(tree, schemas).map(|(g, _)| g)
}

/// Rewrites a tree so every single-table WHERE conjunct sits directly above
/// its scan, join attributes are explicit on every join node, and residual
/// predicates/columns use bare names.  The result evaluates to the same
/// relation as the input tree.
pub fn push_down(tree: &Algebra, schemas: &BTreeMap<String, Schema>) -> Result<Algebra, RelError> {
    let (graph, nodes) = analyze(tree, schemas)?;
    // Rebuild the join tree in the original shape, wrapping each scan with
    // its pushed-down predicate and making every join's attributes
    // explicit.
    let (_, _, inner) = peel(tree);
    let mut counter = 0usize;
    let mut joined = rebuild(inner, &graph, &nodes, &mut counter)?;
    if let Some(p) = &graph.residual.pred {
        joined = Algebra::Select {
            input: Box::new(joined),
            pred: p.clone(),
        };
    }
    if let Some(cols) = &graph.residual.cols {
        if !cols.is_empty() {
            joined = Algebra::Project {
                input: Box::new(joined),
                cols: cols.clone(),
            };
        }
    }
    if let Some((group_cols, aggs)) = &graph.residual.aggregate {
        joined = Algebra::Aggregate {
            input: Box::new(joined),
            group_cols: group_cols.clone(),
            aggs: aggs.clone(),
        };
    }
    Ok(joined)
}

/// Peels `Aggregate(Project(Select(joins)))` layering off the top of a
/// tree, returning the optional layers and the join tree beneath.
#[allow(clippy::type_complexity)]
fn peel(
    tree: &Algebra,
) -> (
    Option<GroupBy>,
    (Option<Vec<String>>, Option<Predicate>),
    &Algebra,
) {
    let (aggregate, tree) = match tree {
        Algebra::Aggregate {
            input,
            group_cols,
            aggs,
        } => (Some((group_cols.clone(), aggs.clone())), input.as_ref()),
        other => (None, other),
    };
    let (cols, tree) = match tree {
        Algebra::Project { input, cols } => (Some(cols.clone()), input.as_ref()),
        other => (None, other),
    };
    let (pred, tree) = match tree {
        Algebra::Select { input, pred } => (Some(pred.clone()), input.as_ref()),
        other => (None, other),
    };
    (aggregate, (cols, pred), tree)
}

fn rebuild(
    node: &Algebra,
    graph: &QueryGraph,
    nodes: &[JoinNodeInfo],
    counter: &mut usize,
) -> Result<Algebra, RelError> {
    match node {
        Algebra::Scan(t) => {
            let scan = Algebra::Scan(t.clone());
            Ok(match graph.scan_pred(t) {
                Some(p) => Algebra::Select {
                    input: Box::new(scan),
                    pred: p.clone(),
                },
                None => scan,
            })
        }
        Algebra::Join { left, right, .. } => {
            let l = rebuild(left, graph, nodes, counter)?;
            let r = rebuild(right, graph, nodes, counter)?;
            let info = &nodes[*counter];
            *counter += 1;
            Ok(Algebra::Join {
                left: Box::new(l),
                right: Box::new(r),
                on: info.on.clone(),
                natural: false,
            })
        }
        other => Err(RelError::Sql(format!(
            "unexpected operator inside join tree: {other:?}"
        ))),
    }
}

/// Shared implementation behind [`query_graph`] and [`push_down`].
fn analyze(
    tree: &Algebra,
    schemas: &BTreeMap<String, Schema>,
) -> Result<(QueryGraph, Vec<JoinNodeInfo>), RelError> {
    let (aggregate, (cols, pred), inner) = peel(tree);

    // Walk the join tree: collect tables and resolve per-node join attrs.
    let mut tables: Vec<String> = Vec::new();
    let mut nodes: Vec<JoinNodeInfo> = Vec::new();
    walk_joins(inner, schemas, &mut tables, &mut nodes)?;

    let has = |t: &str, attr: &str| -> bool {
        schemas
            .get(t)
            .is_some_and(|s| s.attributes().iter().any(|a| a.base_name() == attr))
    };

    // Edges from the join nodes themselves.
    let mut edges: Vec<JoinEdge> = Vec::new();
    let mut add_edge = |a: &str, b: &str, attr: &str| {
        if let Some(e) = edges
            .iter_mut()
            .find(|e| (e.left == a && e.right == b) || (e.left == b && e.right == a))
        {
            if !e.attrs.iter().any(|x| x == attr) {
                e.attrs.push(attr.to_string());
            }
            return;
        }
        edges.push(JoinEdge {
            left: a.to_string(),
            right: b.to_string(),
            attrs: vec![attr.to_string()],
        });
    };
    for info in &nodes {
        for attr in &info.on {
            let lt = pick_table(&info.left_set, attr, &has)?;
            let rt = pick_table(&info.right_set, attr, &has)?;
            add_edge(&lt, &rt, attr);
        }
    }

    // A join attribute (by base name) is one carried by the `on` list of
    // any join node, or equated across tables in WHERE; a bare reference
    // to it is never ambiguous because the join merges those columns.
    let conjuncts: Vec<Predicate> = pred.iter().flat_map(flatten_and).collect();
    let mut join_attrs: Vec<String> = nodes.iter().flat_map(|n| n.on.iter().cloned()).collect();
    for c in &conjuncts {
        if let Predicate::Eq(Operand::Col(a), Operand::Col(b)) = c {
            let (_, na) = split_qualified(a);
            let (_, nb) = split_qualified(b);
            if na == nb && !join_attrs.iter().any(|x| x == na) {
                join_attrs.push(na.to_string());
            }
        }
    }

    // Resolves a column reference to the set of tables carrying it, with
    // the bare name.  Errors on unknown names/qualifiers and on ambiguous
    // bare names.
    let resolve = |name: &str| -> Result<(Vec<String>, String), RelError> {
        let (q, base) = split_qualified(name);
        match q {
            Some(q) => {
                if !tables.iter().any(|t| t == q) {
                    return Err(RelError::UnknownAttribute(format!(
                        "{name}: no table {q} in FROM"
                    )));
                }
                if !has(q, base) {
                    return Err(RelError::UnknownAttribute(format!(
                        "{name}: table {q} has no attribute {base}"
                    )));
                }
                Ok((vec![q.to_string()], base.to_string()))
            }
            None => {
                let carriers: Vec<String> =
                    tables.iter().filter(|t| has(t, base)).cloned().collect();
                match carriers.len() {
                    0 => Err(RelError::UnknownAttribute(base.to_string())),
                    1 => Ok((carriers, base.to_string())),
                    _ if join_attrs.iter().any(|a| a == base) => Ok((carriers, base.to_string())),
                    _ => Err(RelError::AmbiguousColumn(format!(
                        "{base} is carried by {} and is not a join attribute; qualify it",
                        carriers.join(", ")
                    ))),
                }
            }
        }
    };
    let bare = |name: &str| -> Result<String, RelError> { resolve(name).map(|(_, b)| b) };

    // Classify WHERE conjuncts.
    let mut scan_preds: Vec<(String, Predicate)> = Vec::new();
    let mut push_to = |t: &str, p: Predicate| {
        if let Some((_, acc)) = scan_preds.iter_mut().find(|(n, _)| n == t) {
            *acc = acc.clone().and(p);
        } else {
            scan_preds.push((t.to_string(), p));
        }
    };
    let mut residual_pred: Option<Predicate> = None;
    let mut keep_residual = |p: Predicate| {
        residual_pred = Some(match residual_pred.take() {
            Some(acc) => acc.and(p),
            None => p,
        });
    };
    for conjunct in conjuncts {
        // Cross-table equality: a join edge, possibly strengthening an
        // existing join node.
        if let Predicate::Eq(Operand::Col(a), Operand::Col(b)) = &conjunct {
            let (ta, na) = resolve(a)?;
            let (tb, nb) = resolve(b)?;
            let cross = ta.len() == 1 && tb.len() == 1 && ta[0] != tb[0];
            if cross {
                if na != nb {
                    return Err(RelError::Sql(format!(
                        "cross-table equality requires equal attribute names, got {na} and {nb}"
                    )));
                }
                add_edge(&ta[0], &tb[0], &na);
                // Strengthen the lowest join node covering both tables so
                // the rebuilt tree enforces the equality.
                let covering = nodes.iter_mut().find(|info| {
                    let covers = |t: &str| {
                        info.left_set.iter().any(|x| x == t)
                            || info.right_set.iter().any(|x| x == t)
                    };
                    covers(&ta[0]) && covers(&tb[0])
                });
                if let Some(info) = covering {
                    if !info.on.iter().any(|x| x == &na) {
                        info.on.push(na.clone());
                    }
                }
                continue;
            }
            if na == nb && ta == tb && ta.len() > 1 {
                // `k = k` over a merged join column: tautology.
                continue;
            }
        }
        // Single-table or join-attribute conjunct: push down.
        let mut cols_in = Vec::new();
        pred_columns(&conjunct, &mut cols_in);
        let mut carrier_sets = Vec::new();
        for c in &cols_in {
            carrier_sets.push(resolve(c)?.0);
        }
        let rewritten = map_pred_columns(&conjunct, &bare)?;
        if cols_in.is_empty() {
            keep_residual(rewritten);
            continue;
        }
        // Intersection of carrier sets: tables that carry every column the
        // conjunct mentions.
        let mut common: Vec<String> = carrier_sets[0].clone();
        for set in &carrier_sets[1..] {
            common.retain(|t| set.iter().any(|x| x == t));
        }
        match common.len() {
            0 => keep_residual(rewritten),
            1 => push_to(&common[0], rewritten),
            _ => {
                // Every mentioned column is a join attribute shared by all
                // these tables: pushing the filter to each side of an
                // equi-join preserves the result.
                for t in &common {
                    push_to(t, rewritten.clone());
                }
            }
        }
    }

    // Every join node must have attributes by now (explicit, inferred, or
    // from WHERE).
    for info in &nodes {
        if info.on.is_empty() {
            return Err(RelError::Sql(format!(
                "no join attribute between {{{}}} and {{{}}}: use NATURAL JOIN, JOIN..ON, \
                 or a WHERE equality",
                info.left_set.join(", "),
                info.right_set.join(", ")
            )));
        }
    }

    // Validate and bare-rewrite the residual projection/aggregation.
    let cols = cols
        .map(|cs| cs.iter().map(|c| bare(c)).collect::<Result<Vec<_>, _>>())
        .transpose()?;
    let aggregate = aggregate
        .map(|(gs, aggs)| -> Result<GroupBy, RelError> {
            Ok((
                gs.iter().map(|c| bare(c)).collect::<Result<Vec<_>, _>>()?,
                aggs.iter()
                    .map(|(f, c)| Ok((*f, bare(c)?)))
                    .collect::<Result<Vec<_>, RelError>>()?,
            ))
        })
        .transpose()?;

    Ok((
        QueryGraph {
            tables,
            scan_preds,
            edges,
            residual: Residual {
                pred: residual_pred,
                cols,
                aggregate,
            },
        },
        nodes,
    ))
}

/// Post-order walk of the join tree: records tables in FROM order and one
/// [`JoinNodeInfo`] per join node with its (inferred or explicit) join
/// attributes.
fn walk_joins(
    node: &Algebra,
    schemas: &BTreeMap<String, Schema>,
    tables: &mut Vec<String>,
    nodes: &mut Vec<JoinNodeInfo>,
) -> Result<Vec<String>, RelError> {
    match node {
        Algebra::Scan(t) => {
            if !schemas.contains_key(t) {
                return Err(RelError::UnknownAttribute(format!(
                    "relation {t} has no schema"
                )));
            }
            if tables.iter().any(|x| x == t) {
                return Err(RelError::DuplicateAlias(format!(
                    "relation {t} appears twice in FROM (self-joins are unsupported)"
                )));
            }
            tables.push(t.clone());
            Ok(vec![t.clone()])
        }
        Algebra::Join {
            left, right, on, ..
        } => {
            let left_set = walk_joins(left, schemas, tables, nodes)?;
            let right_set = walk_joins(right, schemas, tables, nodes)?;
            let on = if on.is_empty() {
                // Natural / comma join: shared base names across the two
                // sides (matching eval semantics).
                let mut inferred = Vec::new();
                for lt in &left_set {
                    let Some(ls) = schemas.get(lt) else { continue };
                    for a in ls.attributes() {
                        let base = a.base_name();
                        let on_right = right_set.iter().any(|rt| {
                            schemas.get(rt).is_some_and(|rs| {
                                rs.attributes().iter().any(|b| b.base_name() == base)
                            })
                        });
                        if on_right && !inferred.iter().any(|x| x == base) {
                            inferred.push(base.to_string());
                        }
                    }
                }
                inferred
            } else {
                on.clone()
            };
            let mut all = left_set.clone();
            all.extend(right_set.iter().cloned());
            nodes.push(JoinNodeInfo {
                left_set,
                right_set,
                on,
            });
            Ok(all)
        }
        other => Err(RelError::Sql(format!(
            "unexpected operator inside join tree: {other:?}"
        ))),
    }
}

/// Picks the table within one side of a join that carries `attr`.  Several
/// carriers are fine only when earlier joins already merged them on that
/// attribute — then the latest carrier stands for the merged column.
fn pick_table(
    side: &[String],
    attr: &str,
    has: &dyn Fn(&str, &str) -> bool,
) -> Result<String, RelError> {
    let carriers: Vec<&String> = side.iter().filter(|t| has(t, attr)).collect();
    match carriers.as_slice() {
        [] => Err(RelError::UnknownAttribute(format!(
            "join attribute {attr} not carried by {{{}}}",
            side.join(", ")
        ))),
        [t] => Ok((*t).clone()),
        many => Ok((*many[many.len() - 1]).clone()),
    }
}

// ---------------------------------------------------------------------------
// Lexer and parser
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Int(i64),
    Str(String),
    Star,
    Comma,
    LParen,
    RParen,
    Eq,
    Lt,
    Le,
    Kw(Keyword),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Keyword {
    Select,
    From,
    Where,
    And,
    Natural,
    Join,
    On,
    Group,
    By,
    As,
    True,
    False,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Star => write!(f, "*"),
            Token::Comma => write!(f, ","),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Eq => write!(f, "="),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Kw(k) => write!(f, "{k:?}"),
        }
    }
}

fn lex(sql: &str) -> Result<Vec<Token>, RelError> {
    let mut tokens = Vec::new();
    let mut chars = sql.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '*' => {
                chars.next();
                tokens.push(Token::Star);
            }
            ',' => {
                chars.next();
                tokens.push(Token::Comma);
            }
            '(' => {
                chars.next();
                tokens.push(Token::LParen);
            }
            ')' => {
                chars.next();
                tokens.push(Token::RParen);
            }
            '=' => {
                chars.next();
                tokens.push(Token::Eq);
            }
            '<' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    tokens.push(Token::Le);
                } else {
                    tokens.push(Token::Lt);
                }
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\'') => break,
                        Some(c) => s.push(c),
                        None => return Err(RelError::Sql("unterminated string".to_string())),
                    }
                }
                tokens.push(Token::Str(s));
            }
            c if c.is_ascii_digit() || c == '-' => {
                chars.next();
                let mut s = c.to_string();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let v = s
                    .parse()
                    .map_err(|_| RelError::Sql(format!("bad integer literal {s}")))?;
                tokens.push(Token::Int(v));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' || d == '.' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(match s.to_ascii_lowercase().as_str() {
                    "select" => Token::Kw(Keyword::Select),
                    "from" => Token::Kw(Keyword::From),
                    "where" => Token::Kw(Keyword::Where),
                    "and" => Token::Kw(Keyword::And),
                    "natural" => Token::Kw(Keyword::Natural),
                    "join" => Token::Kw(Keyword::Join),
                    "on" => Token::Kw(Keyword::On),
                    "group" => Token::Kw(Keyword::Group),
                    "by" => Token::Kw(Keyword::By),
                    "as" => Token::Kw(Keyword::As),
                    "true" => Token::Kw(Keyword::True),
                    "false" => Token::Kw(Keyword::False),
                    _ => Token::Ident(s),
                });
            }
            other => return Err(RelError::Sql(format!("unexpected character {other:?}"))),
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// FROM-clause scope: `(key, relation)` where `key` is the alias if
    /// one was given, else the relation name.
    scope: Vec<(String, String)>,
}

impl Parser {
    fn new(sql: &str) -> Result<Self, RelError> {
        Ok(Parser {
            tokens: lex(sql)?,
            pos: 0,
            scope: Vec::new(),
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_kw(&mut self, kw: Keyword) -> Result<(), RelError> {
        match self.next() {
            Some(Token::Kw(k)) if k == kw => Ok(()),
            other => Err(RelError::Sql(format!("expected {kw:?}, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, RelError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(RelError::Sql(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn parse_query(&mut self) -> Result<Algebra, RelError> {
        self.expect_kw(Keyword::Select)?;
        let (cols, aggs) = self.parse_select_list()?;
        self.expect_kw(Keyword::From)?;
        let mut tree = self.parse_table_ref()?;
        if matches!(self.peek(), Some(Token::Kw(Keyword::Where))) {
            self.next();
            let pred = self.parse_condition()?;
            tree = Algebra::Select {
                input: Box::new(tree),
                pred,
            };
        }
        let mut group_cols = Vec::new();
        if matches!(self.peek(), Some(Token::Kw(Keyword::Group))) {
            self.next();
            self.expect_kw(Keyword::By)?;
            group_cols.push(self.expect_ident()?);
            while matches!(self.peek(), Some(Token::Comma)) {
                self.next();
                group_cols.push(self.expect_ident()?);
            }
        }
        if let Some(t) = self.peek() {
            return Err(RelError::Sql(format!("unexpected trailing token {t}")));
        }
        if !aggs.is_empty() {
            // Aggregated query: plain columns must equal the GROUP BY list.
            if let Some(plain) = &cols {
                if *plain != group_cols {
                    return Err(RelError::Sql(
                        "non-aggregated select columns must match GROUP BY".to_string(),
                    ));
                }
            }
            tree = Algebra::Aggregate {
                input: Box::new(tree),
                group_cols,
                aggs,
            };
        } else {
            if !group_cols.is_empty() {
                return Err(RelError::Sql("GROUP BY without aggregates".to_string()));
            }
            if let Some(cols) = cols {
                tree = Algebra::Project {
                    input: Box::new(tree),
                    cols,
                };
            }
        }
        self.resolve_aliases(tree)
    }

    /// Rewrites every qualified column reference `q.c` so that `q` is the
    /// underlying relation name, erroring on qualifiers that name no FROM
    /// entry.  Aliases disappear from the tree here; downstream consumers
    /// (decomposition, the query graph, evaluation) only ever see relation
    /// names.
    fn resolve_aliases(&self, tree: Algebra) -> Result<Algebra, RelError> {
        map_columns(tree, &|name| {
            let (q, base) = split_qualified(name);
            match q {
                None => Ok(name.to_string()),
                Some(q) => match self.scope.iter().find(|(k, _)| k == q) {
                    Some((_, rel)) => Ok(format!("{rel}.{base}")),
                    None => Err(RelError::UnknownAttribute(format!(
                        "{name}: no table or alias {q} in FROM"
                    ))),
                },
            }
        })
    }

    /// `(None, [])` means `*`; aggregates are `fn(col)` items.
    #[allow(clippy::type_complexity)]
    fn parse_select_list(
        &mut self,
    ) -> Result<(Option<Vec<String>>, Vec<(AggFn, String)>), RelError> {
        if matches!(self.peek(), Some(Token::Star)) {
            self.next();
            return Ok((None, Vec::new()));
        }
        let mut cols = Vec::new();
        let mut aggs = Vec::new();
        loop {
            let ident = self.expect_ident()?;
            if matches!(self.peek(), Some(Token::LParen)) {
                self.next();
                let col = self.expect_ident()?;
                match self.next() {
                    Some(Token::RParen) => {}
                    other => return Err(RelError::Sql(format!("expected ), found {other:?}"))),
                }
                let f = match ident.to_ascii_lowercase().as_str() {
                    "count" => AggFn::Count,
                    "sum" => AggFn::Sum,
                    "min" => AggFn::Min,
                    "max" => AggFn::Max,
                    other => return Err(RelError::Sql(format!("unknown aggregate {other}"))),
                };
                aggs.push((f, col));
            } else {
                cols.push(ident);
            }
            if matches!(self.peek(), Some(Token::Comma)) {
                self.next();
            } else {
                break;
            }
        }
        let cols = if cols.is_empty() && !aggs.is_empty() {
            Some(Vec::new())
        } else {
            Some(cols)
        };
        Ok((cols, aggs))
    }

    /// `primary (NATURAL JOIN primary | JOIN primary ON ... | , primary)*`
    /// — builds a left-deep join tree in FROM order.
    fn parse_table_ref(&mut self) -> Result<Algebra, RelError> {
        let mut tree = self.parse_primary()?;
        loop {
            match self.peek() {
                Some(Token::Kw(Keyword::Natural)) => {
                    self.next();
                    self.expect_kw(Keyword::Join)?;
                    let right = self.parse_primary()?;
                    tree = Algebra::Join {
                        left: Box::new(tree),
                        right: Box::new(right),
                        on: vec![],
                        natural: true,
                    };
                }
                Some(Token::Kw(Keyword::Join)) => {
                    self.next();
                    let right = self.parse_primary()?;
                    self.expect_kw(Keyword::On)?;
                    let on = self.parse_on_list()?;
                    tree = Algebra::Join {
                        left: Box::new(tree),
                        right: Box::new(right),
                        on,
                        natural: false,
                    };
                }
                Some(Token::Comma) => {
                    self.next();
                    let right = self.parse_primary()?;
                    // Implicit join; the WHERE equalities (or shared
                    // attribute names) turn it into an equi-join.
                    tree = Algebra::Join {
                        left: Box::new(tree),
                        right: Box::new(right),
                        on: vec![],
                        natural: false,
                    };
                }
                _ => return Ok(tree),
            }
        }
    }

    /// One FROM entry: a relation name with an optional (`AS`) alias,
    /// registered in the parser scope.  Repeats — of an alias key or of
    /// the relation itself — are rejected: the mediation machinery
    /// addresses sources by relation name, so self-joins are out of this
    /// subset.
    fn parse_primary(&mut self) -> Result<Algebra, RelError> {
        let name = self.expect_ident()?;
        if name.contains('.') {
            return Err(RelError::Sql(format!("bad relation name {name}")));
        }
        let alias = match self.peek() {
            Some(Token::Kw(Keyword::As)) => {
                self.next();
                Some(self.expect_ident()?)
            }
            Some(Token::Ident(_)) => match self.next() {
                Some(Token::Ident(a)) => Some(a),
                _ => unreachable!("peeked an identifier"),
            },
            _ => None,
        };
        let key = alias.unwrap_or_else(|| name.clone());
        if key.contains('.') {
            return Err(RelError::Sql(format!("bad table alias {key}")));
        }
        for (k, rel) in &self.scope {
            if *k == key {
                return Err(RelError::DuplicateAlias(key));
            }
            if *rel == name {
                return Err(RelError::DuplicateAlias(format!(
                    "relation {name} appears twice in FROM (self-joins are unsupported)"
                )));
            }
        }
        self.scope.push((key, name.clone()));
        Ok(Algebra::Scan(name))
    }

    /// `col = col (AND col = col)*` — each equality must pair the same
    /// base attribute name; qualifiers must name tables already in scope.
    fn parse_on_list(&mut self) -> Result<Vec<String>, RelError> {
        let mut on: Vec<String> = Vec::new();
        loop {
            let a = self.expect_ident()?;
            match self.next() {
                Some(Token::Eq) => {}
                other => return Err(RelError::Sql(format!("expected = in ON, found {other:?}"))),
            }
            let b = self.expect_ident()?;
            let (qa, na) = split_qualified(&a);
            let (qb, nb) = split_qualified(&b);
            if na != nb {
                return Err(RelError::Sql(format!(
                    "ON requires equal attribute names, got {na} and {nb}"
                )));
            }
            for q in [qa, qb].into_iter().flatten() {
                if !self.scope.iter().any(|(k, _)| k == q) {
                    return Err(RelError::UnknownAttribute(format!(
                        "{q}.{na}: no table or alias {q} in FROM"
                    )));
                }
            }
            if !on.iter().any(|x| x == na) {
                on.push(na.to_string());
            }
            if matches!(self.peek(), Some(Token::Kw(Keyword::And))) {
                self.next();
            } else {
                break;
            }
        }
        Ok(on)
    }

    fn parse_condition(&mut self) -> Result<Predicate, RelError> {
        let mut pred = self.parse_atom()?;
        while matches!(self.peek(), Some(Token::Kw(Keyword::And))) {
            self.next();
            pred = pred.and(self.parse_atom()?);
        }
        Ok(pred)
    }

    fn parse_atom(&mut self) -> Result<Predicate, RelError> {
        let left = self.parse_operand()?;
        let op = self.next();
        let right = self.parse_operand()?;
        match op {
            Some(Token::Eq) => Ok(Predicate::Eq(left, right)),
            Some(Token::Lt) => Ok(Predicate::Lt(left, right)),
            Some(Token::Le) => Ok(Predicate::Le(left, right)),
            other => Err(RelError::Sql(format!(
                "expected comparison, found {other:?}"
            ))),
        }
    }

    fn parse_operand(&mut self) -> Result<Operand, RelError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(Operand::Col(s)),
            Some(Token::Int(v)) => Ok(Operand::Lit(Value::Int(v))),
            Some(Token::Str(s)) => Ok(Operand::Lit(Value::Str(s))),
            Some(Token::Kw(Keyword::True)) => Ok(Operand::Lit(Value::Bool(true))),
            Some(Token::Kw(Keyword::False)) => Ok(Operand::Lit(Value::Bool(false))),
            other => Err(RelError::Sql(format!("expected operand, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::Type;

    fn catalog() -> HashMap<String, Relation> {
        let mut c = HashMap::new();
        c.insert(
            "patients".to_string(),
            Relation::build(
                Schema::new(&[("ssn", Type::Int), ("name", Type::Str)]),
                vec![
                    vec![Value::Int(1), Value::from("ada")],
                    vec![Value::Int(2), Value::from("grace")],
                ],
            )
            .unwrap(),
        );
        c.insert(
            "claims".to_string(),
            Relation::build(
                Schema::new(&[("ssn", Type::Int), ("amount", Type::Int)]),
                vec![
                    vec![Value::Int(2), Value::Int(500)],
                    vec![Value::Int(3), Value::Int(900)],
                ],
            )
            .unwrap(),
        );
        c
    }

    #[test]
    fn parse_simple_select() {
        let tree = parse("select * from patients").unwrap();
        assert_eq!(tree, Algebra::Scan("patients".to_string()));
        assert_eq!(tree.eval(&catalog()).unwrap().len(), 2);
    }

    #[test]
    fn parse_projection_and_filter() {
        let tree = parse("select name from patients where ssn = 2").unwrap();
        let r = tree.eval(&catalog()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].at(0), &Value::from("grace"));
    }

    #[test]
    fn parse_natural_join() {
        let tree = parse("SELECT * FROM patients NATURAL JOIN claims").unwrap();
        let r = tree.eval(&catalog()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.schema().attr_names(), vec!["ssn", "name", "amount"]);
    }

    #[test]
    fn parse_join_on() {
        let tree =
            parse("select * from patients join claims on patients.ssn = claims.ssn").unwrap();
        assert_eq!(tree.eval(&catalog()).unwrap().len(), 1);
    }

    #[test]
    fn parse_string_and_bool_literals() {
        let tree = parse("select * from patients where name = 'ada'").unwrap();
        assert_eq!(tree.eval(&catalog()).unwrap().len(), 1);
    }

    #[test]
    fn parse_errors() {
        assert!(parse("").is_err());
        assert!(parse("select").is_err());
        assert!(parse("select * from").is_err());
        assert!(parse("select * from t where").is_err());
        // `t x` is an alias, so the trailing token is `y`.
        assert!(parse("select * from t x y").is_err());
        assert!(parse("select * from t where a = 'unterminated").is_err());
        assert!(parse("select * from a join b on a.x = b.y").is_err());
    }

    #[test]
    fn parse_alias_resolves_to_relation_name() {
        let tree = parse("select p.name from patients as p").unwrap();
        assert_eq!(
            tree,
            Algebra::Project {
                input: Box::new(Algebra::Scan("patients".to_string())),
                cols: vec!["patients.name".to_string()],
            },
            "qualified refs must carry the relation name, not the alias"
        );
        let d = parse("select * from patients p, claims c where p.ssn = c.ssn").unwrap();
        let d = decompose(&d).unwrap();
        assert_eq!(d.join.left, "patients");
        assert_eq!(d.join.right, "claims");
        assert_eq!(d.join.attrs, vec!["ssn"]);
    }

    #[test]
    fn parse_rejects_duplicate_alias_and_self_join() {
        assert!(matches!(
            parse("select * from a x, b x"),
            Err(RelError::DuplicateAlias(_))
        ));
        assert!(matches!(
            parse("select * from a, a"),
            Err(RelError::DuplicateAlias(_))
        ));
        assert!(matches!(
            parse("select * from a p, a q"),
            Err(RelError::DuplicateAlias(_))
        ));
    }

    #[test]
    fn parse_rejects_unknown_qualifier() {
        assert!(matches!(
            parse("select * from a, b where c.k = b.k"),
            Err(RelError::UnknownAttribute(_))
        ));
        assert!(matches!(
            parse("select ghost.k from a, b where a.k = b.k"),
            Err(RelError::UnknownAttribute(_))
        ));
        // ON qualifiers are checked against the scope parsed so far.
        assert!(matches!(
            parse("select * from a join b on c.k = b.k"),
            Err(RelError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn parse_multi_conjunct_on() {
        let tree = parse("select * from a join b on a.k = b.k and a.j = b.j").unwrap();
        let Algebra::Join { on, .. } = &tree else {
            panic!("expected join, got {tree:?}");
        };
        assert_eq!(on, &vec!["k".to_string(), "j".to_string()]);
    }

    #[test]
    fn parse_three_table_chain_is_left_deep() {
        let tree = parse("select * from a join b on a.k = b.k join c on b.j = c.j").unwrap();
        let Algebra::Join {
            left, right, on, ..
        } = &tree
        else {
            panic!("expected join");
        };
        assert_eq!(on, &vec!["j".to_string()]);
        assert_eq!(**right, Algebra::Scan("c".to_string()));
        let Algebra::Join {
            left: ll,
            right: lr,
            ..
        } = left.as_ref()
        else {
            panic!("expected nested join");
        };
        assert_eq!(**ll, Algebra::Scan("a".to_string()));
        assert_eq!(**lr, Algebra::Scan("b".to_string()));
        assert_eq!(tree.scans(), vec!["a", "b", "c"]);
    }

    #[test]
    fn decompose_natural_join() {
        let tree = parse("select * from patients natural join claims").unwrap();
        let d = decompose(&tree).unwrap();
        assert_eq!(d.q1, "select * from patients");
        assert_eq!(d.q2, "select * from claims");
        assert_eq!(d.join.left, "patients");
        assert_eq!(d.join.right, "claims");
        // NATURAL JOIN leaves `attrs` to be inferred from schemas at run
        // time — here the parse carries no explicit attribute, so attrs
        // comes from ON/WHERE only.
        assert!(d.join.attrs.is_empty() || d.join.attrs == vec!["ssn"]);
    }

    #[test]
    fn decompose_where_join() {
        let tree = parse(
            "select * from patients, claims where patients.ssn = claims.ssn and amount < 600",
        )
        .unwrap();
        let d = decompose(&tree).unwrap();
        assert_eq!(d.join.attrs, vec!["ssn"]);
        assert!(d.residual.pred.is_some());
        assert!(d.residual.cols.is_none());
    }

    #[test]
    fn decompose_with_projection() {
        let tree = parse("select name from patients join claims on ssn = ssn").unwrap();
        let d = decompose(&tree).unwrap();
        assert_eq!(d.join.attrs, vec!["ssn"]);
        assert_eq!(d.residual.cols, Some(vec!["name".to_string()]));
    }

    #[test]
    fn decompose_rejects_single_relation() {
        let tree = parse("select * from patients").unwrap();
        assert!(decompose(&tree).is_err());
    }

    #[test]
    fn decompose_rejects_missing_join_attr() {
        let tree = parse("select * from patients, claims where amount < 100").unwrap();
        assert!(decompose(&tree).is_err());
    }

    #[test]
    fn parse_group_by_aggregates() {
        let tree =
            parse("select ssn, count(amount), sum(amount) from claims group by ssn").unwrap();
        let r = tree.eval(&catalog()).unwrap();
        assert_eq!(
            r.schema().attr_names(),
            vec!["ssn", "count_amount", "sum_amount"]
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn parse_global_aggregate() {
        let tree = parse("select sum(amount) from claims").unwrap();
        let r = tree.eval(&catalog()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].at(0), &Value::Int(1400));
    }

    #[test]
    fn aggregate_parse_errors() {
        // GROUP BY without aggregates.
        assert!(parse("select ssn from claims group by ssn").is_err());
        // Plain columns not matching GROUP BY.
        assert!(parse("select amount, count(ssn) from claims group by ssn").is_err());
        // Unknown aggregate function.
        assert!(parse("select median(amount) from claims").is_err());
        // Unbalanced parens.
        assert!(parse("select sum(amount from claims").is_err());
    }

    #[test]
    fn decompose_peels_aggregation_into_residual() {
        let tree = parse("select k, sum(v) from a, b where a.k = b.k group by k").unwrap();
        let d = decompose(&tree).unwrap();
        assert_eq!(d.join.attrs, vec!["k"]);
        let (groups, aggs) = d.residual.aggregate.expect("aggregate residual");
        assert_eq!(groups, vec!["k"]);
        assert_eq!(aggs.len(), 1);
    }

    #[test]
    fn scans_lists_base_relations() {
        let tree = parse("select * from a natural join b").unwrap();
        assert_eq!(tree.scans(), vec!["a", "b"]);
    }

    /// Chain schemas t0(k0,v0) – t1(k0,k1,v1) – t2(k1,k2,v2).
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

    #[test]
    fn query_graph_three_table_chain() {
        let tree =
            parse("select * from t0, t1, t2 where t0.k0 = t1.k0 and t1.k1 = t2.k1 and v2 < 10")
                .unwrap();
        let g = query_graph(&tree, &chain_schemas()).unwrap();
        assert_eq!(g.tables, vec!["t0", "t1", "t2"]);
        assert_eq!(g.edge_attrs("t0", "t1"), Some(&["k0".to_string()][..]));
        assert_eq!(g.edge_attrs("t1", "t2"), Some(&["k1".to_string()][..]));
        assert_eq!(g.edge_attrs("t0", "t2"), None);
        // `v2 < 10` is single-table: pushed to t2, not residual.
        assert_eq!(
            g.scan_pred("t2"),
            Some(&Predicate::Lt(Operand::col("v2"), Operand::lit(10i64)))
        );
        assert!(g.residual.pred.is_none());
    }

    #[test]
    fn query_graph_pushes_join_attr_filter_to_all_carriers() {
        let tree = parse("select * from t0 natural join t1 where k0 <= 3").unwrap();
        let g = query_graph(&tree, &chain_schemas()).unwrap();
        let expect = Predicate::Le(Operand::col("k0"), Operand::lit(3i64));
        assert_eq!(g.scan_pred("t0"), Some(&expect));
        assert_eq!(g.scan_pred("t1"), Some(&expect));
        assert!(g.residual.pred.is_none());
    }

    #[test]
    fn query_graph_rejects_ambiguous_and_unknown_columns() {
        // `y` lives in both tables but the join is on `x` only, so a bare
        // `y` is ambiguous (evaluating the join would even panic on the
        // duplicate column — the typed error fires first).
        let mut schemas = BTreeMap::new();
        schemas.insert(
            "a".to_string(),
            Schema::new(&[("x", Type::Int), ("y", Type::Int), ("va", Type::Int)]),
        );
        schemas.insert(
            "b".to_string(),
            Schema::new(&[("x", Type::Int), ("y", Type::Int), ("vb", Type::Int)]),
        );
        let tree = parse("select * from a join b on a.x = b.x where y < 5").unwrap();
        assert!(matches!(
            query_graph(&tree, &schemas),
            Err(RelError::AmbiguousColumn(_))
        ));
        let schemas = chain_schemas();
        // Unknown bare column.
        let tree = parse("select * from t0 natural join t1 where ghost = 1").unwrap();
        assert!(matches!(
            query_graph(&tree, &schemas),
            Err(RelError::UnknownAttribute(_))
        ));
        // Qualified column whose table lacks the attribute.
        let tree = parse("select * from t0 natural join t1 where t0.v1 = 1").unwrap();
        assert!(matches!(
            query_graph(&tree, &schemas),
            Err(RelError::UnknownAttribute(_))
        ));
        // Scan of a relation with no schema.
        let tree = parse("select * from t0 natural join t9").unwrap();
        assert!(matches!(
            query_graph(&tree, &schemas),
            Err(RelError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn query_graph_merges_where_equality_into_on_edge() {
        let tree = parse("select * from t0 join t1 on t0.k0 = t1.k0 where t0.v0 = t1.v0").unwrap();
        let mut schemas = chain_schemas();
        schemas.insert(
            "t1".to_string(),
            Schema::new(&[("k0", Type::Int), ("v0", Type::Int)]),
        );
        // v0 now lives in both; the WHERE equality makes it a join attr.
        let g = query_graph(&tree, &schemas).unwrap();
        assert_eq!(
            g.edge_attrs("t0", "t1"),
            Some(&["k0".to_string(), "v0".to_string()][..])
        );
        assert!(g.residual.pred.is_none());
    }

    #[test]
    fn push_down_is_result_equivalent() {
        let mut catalog = HashMap::new();
        catalog.insert(
            "t0".to_string(),
            Relation::build(
                Schema::new(&[("k0", Type::Int), ("v0", Type::Int)]),
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(2), Value::Int(20)],
                    vec![Value::Int(3), Value::Int(30)],
                ],
            )
            .unwrap(),
        );
        catalog.insert(
            "t1".to_string(),
            Relation::build(
                Schema::new(&[("k0", Type::Int), ("k1", Type::Int), ("v1", Type::Int)]),
                vec![
                    vec![Value::Int(1), Value::Int(7), Value::Int(100)],
                    vec![Value::Int(2), Value::Int(8), Value::Int(200)],
                ],
            )
            .unwrap(),
        );
        catalog.insert(
            "t2".to_string(),
            Relation::build(
                Schema::new(&[("k1", Type::Int), ("v2", Type::Int)]),
                vec![
                    vec![Value::Int(7), Value::Int(1000)],
                    vec![Value::Int(8), Value::Int(2000)],
                    vec![Value::Int(9), Value::Int(3000)],
                ],
            )
            .unwrap(),
        );
        let schemas: BTreeMap<String, Schema> = catalog
            .iter()
            .map(|(k, v)| (k.clone(), v.schema().clone()))
            .collect();
        let tree =
            parse("select * from t0 natural join t1 natural join t2 where v0 <= 20 and v2 < 2500")
                .unwrap();
        let pushed = push_down(&tree, &schemas).unwrap();
        let a = tree.eval(&catalog).unwrap();
        let b = pushed.eval(&catalog).unwrap();
        assert_eq!(a.schema().attr_names(), b.schema().attr_names());
        assert_eq!(a.tuples(), b.tuples());
        assert_eq!(b.len(), 2);
        // The pushed tree really did move the filters below the joins.
        fn has_select_above_join(t: &Algebra) -> bool {
            match t {
                Algebra::Select { input, .. } => {
                    matches!(input.as_ref(), Algebra::Join { .. })
                }
                Algebra::Project { input, .. } | Algebra::Aggregate { input, .. } => {
                    has_select_above_join(input)
                }
                _ => false,
            }
        }
        assert!(!has_select_above_join(&pushed));
    }
}
