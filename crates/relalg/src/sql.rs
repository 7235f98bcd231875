//! A SQL subset and the "SQL2Algebra" translation.
//!
//! The paper (Section 2) has the mediator transform SQL queries "into a
//! so-called 'algebra tree' (with relational operators in the inner nodes
//! of the tree and partial queries at the leaves) by using the
//! 'SQL2Algebra' library".  This module is that library:
//!
//! * [`parse`] — SQL text → [`Algebra`] tree,
//! * [`Algebra::eval`] — evaluate a tree against a catalog of relations
//!   (the plaintext reference),
//! * [`query_graph`] — the one query analysis, schema-aware: tables,
//!   per-table filters, join edges with their attributes, and the client
//!   residual, with typed errors for unknown or ambiguous column
//!   references.  The mediator reads Listing 1 step 2 from it (a two-table
//!   query is a one-edge graph); the planner orders multi-way joins over
//!   it.
//!
//! Supported grammar:
//!
//! ```text
//! query  := SELECT (* | col[, col]*) FROM table_ref [WHERE cond]
//!           [GROUP BY col[, col]*]
//! table_ref := primary (join_tail)*
//! join_tail := NATURAL JOIN primary
//!            | JOIN primary ON col = col (AND col = col)*
//!            | , primary                -- natural join on the shared
//!                                       -- names; WHERE equalities add
//!                                       -- attributes
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
        /// Explicit join attributes (base names).  Empty for `NATURAL
        /// JOIN` and comma joins, which join on every name both sides
        /// carry (in the mediator, from the global-schema embedding).
        on: Vec<String>,
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
            Algebra::Join { left, right, on } => {
                let l = left.eval(catalog)?;
                let r = right.eval(catalog)?;
                if on.is_empty() {
                    l.natural_join(&r)
                } else {
                    l.join_on(&r, on)
                }
            }
        }
    }
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

/// Parses SQL text into an algebra tree.
pub fn parse(sql: &str) -> Result<Algebra, RelError> {
    Parser::new(sql)?.parse_query()
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
        Algebra::Join { left, right, on } => Algebra::Join {
            left: Box::new(map_columns(*left, f)?),
            right: Box::new(map_columns(*right, f)?),
            on,
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
// Query graph
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

/// The analysed query: base tables in FROM order, per-table filters, join
/// edges, and the client residual — everything expressed with bare
/// attribute names so it can be evaluated against source relations
/// directly.  The mediator reads a two-table query as a one-edge graph;
/// the planner orders the edges of a multi-way one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryGraph {
    /// Base relations in FROM order.
    pub tables: Vec<String>,
    /// Per-table selections, in FROM order of the table (the planner
    /// pushes them to the sources; the mediator keeps them client-side).
    pub scan_preds: Vec<(String, Predicate)>,
    /// Equi-join edges.  Every adjacent join in the tree contributes one;
    /// WHERE equalities merge into the edge covering their table pair.
    pub edges: Vec<JoinEdge>,
    /// What remains for the client after all mediated joins.
    pub residual: Residual,
}

impl QueryGraph {
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
/// drives edge extraction and the per-node join-attribute checks.
#[derive(Debug, Clone)]
struct JoinNodeInfo {
    left_set: Vec<String>,
    right_set: Vec<String>,
    on: Vec<String>,
}

/// Analyzes a parsed tree against the base-relation schemas.
///
/// Join attributes for `NATURAL JOIN` and comma joins are inferred from
/// shared base names, matching [`Algebra::eval`] semantics; WHERE
/// equalities between two tables merge into the join edge covering that
/// pair.  Single-table WHERE conjuncts become `scan_preds`; conjuncts on a
/// join attribute go to *every* table carrying it (sound for equi-joins);
/// everything else lands in the residual.  Column references are
/// validated: unknown names or qualifiers are
/// [`RelError::UnknownAttribute`], and a bare name carried by several
/// tables that is not a join attribute is [`RelError::AmbiguousColumn`] —
/// as is a join whose two sides share a name it does not join on, since
/// that name would appear twice in the join's result.
pub fn query_graph(
    tree: &Algebra,
    schemas: &BTreeMap<String, Schema>,
) -> Result<QueryGraph, RelError> {
    // Aggregation, projection and the WHERE clause sit above the joins.
    let (aggregate, tree) = match tree {
        Algebra::Aggregate {
            input,
            group_cols,
            aggs,
        } => (Some((group_cols, aggs)), input.as_ref()),
        other => (None, other),
    };
    let (cols, tree) = match tree {
        Algebra::Project { input, cols } => (Some(cols), input.as_ref()),
        other => (None, other),
    };
    let (pred, inner) = match tree {
        Algebra::Select { input, pred } => (Some(pred), input.as_ref()),
        other => (None, other),
    };

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
    let conjuncts: Vec<Predicate> = pred.into_iter().flat_map(flatten_and).collect();
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
    let mut leftover: Vec<Predicate> = Vec::new();
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
                // The equality joins the lowest join node covering both
                // tables on this attribute too.
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
            leftover.push(rewritten);
            continue;
        }
        // Intersection of carrier sets: tables that carry every column the
        // conjunct mentions.
        let mut common: Vec<String> = carrier_sets[0].clone();
        for set in &carrier_sets[1..] {
            common.retain(|t| set.iter().any(|x| x == t));
        }
        match common.len() {
            0 => leftover.push(rewritten),
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
    // from WHERE), and must join on every name both sides carry: one left
    // out would appear twice in the node's result.
    let names_of = |side: &[String]| -> Vec<String> {
        side.iter()
            .filter_map(|t| schemas.get(t))
            .flat_map(|s| s.attributes().iter().map(|a| a.base_name().to_string()))
            .collect()
    };
    for info in &nodes {
        if info.on.is_empty() {
            return Err(RelError::Sql(format!(
                "no join attribute between {{{}}} and {{{}}}: use NATURAL JOIN, JOIN..ON, \
                 or a WHERE equality",
                info.left_set.join(", "),
                info.right_set.join(", ")
            )));
        }
        let right_names = names_of(&info.right_set);
        if let Some(name) = names_of(&info.left_set)
            .into_iter()
            .find(|n| right_names.contains(n) && !info.on.contains(n))
        {
            return Err(RelError::AmbiguousColumn(format!(
                "{name} is carried by {{{}}} and {{{}}}, which join on {} only",
                info.left_set.join(", "),
                info.right_set.join(", "),
                info.on.join(", ")
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

    Ok(QueryGraph {
        tables,
        scan_preds,
        edges,
        residual: Residual {
            pred: leftover.into_iter().reduce(Predicate::and),
            cols,
            aggregate,
        },
    })
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
        Algebra::Join { left, right, on } => {
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
    /// (the query graph, evaluation) only ever see relation names.
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
            // A NATURAL JOIN and a comma join both leave `on` empty: they
            // join on the shared names, and WHERE equalities may add more.
            let explicit = match self.peek() {
                Some(Token::Kw(Keyword::Natural)) => {
                    self.next();
                    self.expect_kw(Keyword::Join)?;
                    false
                }
                Some(Token::Comma) => {
                    self.next();
                    false
                }
                Some(Token::Kw(Keyword::Join)) => {
                    self.next();
                    true
                }
                _ => return Ok(tree),
            };
            let right = self.parse_primary()?;
            let on = if explicit {
                self.expect_kw(Keyword::On)?;
                self.parse_on_list()?
            } else {
                Vec::new()
            };
            tree = Algebra::Join {
                left: Box::new(tree),
                right: Box::new(right),
                on,
            };
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

    fn schemas(catalog: &HashMap<String, Relation>) -> BTreeMap<String, Schema> {
        catalog
            .iter()
            .map(|(k, v)| (k.clone(), v.schema().clone()))
            .collect()
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
        let tree = parse("select * from patients p, claims c where p.ssn = c.ssn").unwrap();
        let g = query_graph(&tree, &schemas(&catalog())).unwrap();
        assert_eq!(g.tables, vec!["patients", "claims"]);
        assert_eq!(
            g.edges,
            vec![JoinEdge {
                left: "patients".to_string(),
                right: "claims".to_string(),
                attrs: vec!["ssn".to_string()],
            }]
        );
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
        let Algebra::Join { left, right, on } = &tree else {
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
    fn query_graph_reads_joins_filters_and_residuals() {
        let schemas = schemas(&catalog());
        let graph = |sql: &str| query_graph(&parse(sql).unwrap(), &schemas).unwrap();
        let ssn = Some(&["ssn".to_string()][..]);
        // A natural join, and a comma join with or without a WHERE
        // equality, all join on the shared name.
        for sql in [
            "select * from patients natural join claims",
            "select * from patients, claims",
            "select * from patients, claims where patients.ssn = claims.ssn",
        ] {
            let g = graph(sql);
            assert_eq!(g.tables, vec!["patients", "claims"], "{sql}");
            assert_eq!(g.edge_attrs("patients", "claims"), ssn, "{sql}");
            assert_eq!(g.residual, Residual::default(), "{sql}");
        }
        // A single-table filter is a scan predicate, not residual work.
        let g = graph(
            "select * from patients, claims where patients.ssn = claims.ssn and amount < 600",
        );
        assert_eq!(
            g.scan_preds,
            vec![(
                "claims".to_string(),
                Predicate::Lt(Operand::col("amount"), Operand::lit(600i64))
            )]
        );
        assert_eq!(g.residual, Residual::default());
        // Projection and aggregation are residual work, with bare names.
        let g = graph("select patients.name from patients join claims on ssn = ssn");
        assert_eq!(g.edge_attrs("patients", "claims"), ssn);
        assert_eq!(g.residual.cols, Some(vec!["name".to_string()]));
        let g = graph("select ssn, sum(amount) from patients, claims group by ssn");
        assert_eq!(
            g.residual.aggregate,
            Some((
                vec!["ssn".to_string()],
                vec![(AggFn::Sum, "amount".to_string())]
            ))
        );
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
            g.scan_preds,
            vec![(
                "t2".to_string(),
                Predicate::Lt(Operand::col("v2"), Operand::lit(10i64))
            )]
        );
        assert!(g.residual.pred.is_none());
    }

    #[test]
    fn query_graph_pushes_join_attr_filter_to_all_carriers() {
        let tree = parse("select * from t0 natural join t1 where k0 <= 3").unwrap();
        let g = query_graph(&tree, &chain_schemas()).unwrap();
        let expect = Predicate::Le(Operand::col("k0"), Operand::lit(3i64));
        assert_eq!(
            g.scan_preds,
            vec![
                ("t0".to_string(), expect.clone()),
                ("t1".to_string(), expect)
            ]
        );
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
        // Without any reference to `y` the join is still refused: its
        // result would carry `y` twice.
        let tree = parse("select * from a join b on a.x = b.x").unwrap();
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
        // Joins of relations that share no name.
        for sql in [
            "select * from t0 natural join t2",
            "select * from t0, t2 where v0 < 5",
        ] {
            assert!(
                matches!(
                    query_graph(&parse(sql).unwrap(), &schemas),
                    Err(RelError::Sql(_))
                ),
                "{sql}"
            );
        }
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
}
