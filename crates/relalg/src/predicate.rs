//! Selection predicates.
//!
//! Rich enough for the paper's needs: equality/comparison between columns
//! and literals, conjunction, disjunction, negation.  The DAS server query
//! `Cond_S` (a DNF over index-value equalities) and the client query
//! `Cond_C` are both built from these nodes.

use std::fmt;

use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::RelError;

/// A comparison operand: a column reference or a literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    /// Named column, resolved against the schema at evaluation time.
    Col(String),
    /// Literal value.
    Lit(Value),
}

impl Operand {
    /// Column operand.
    pub fn col(name: impl Into<String>) -> Self {
        Operand::Col(name.into())
    }

    /// Literal operand.
    pub fn lit(v: impl Into<Value>) -> Self {
        Operand::Lit(v.into())
    }

    fn resolve<'a>(&'a self, schema: &Schema, tuple: &'a Tuple) -> Result<&'a Value, RelError> {
        match self {
            Operand::Col(name) => tuple.get(schema, name),
            Operand::Lit(v) => Ok(v),
        }
    }
}

/// A boolean predicate over tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Always true (the neutral element of `and`).
    True,
    /// Always false (the neutral element of `or`).
    False,
    /// `left = right`.
    Eq(Operand, Operand),
    /// `left < right` (values must have the same type).
    Lt(Operand, Operand),
    /// `left <= right`.
    Le(Operand, Operand),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column = literal`.
    pub fn eq_lit(col: impl Into<String>, v: impl Into<Value>) -> Self {
        Predicate::Eq(Operand::col(col), Operand::lit(v))
    }

    /// `self AND other`, simplifying around the constants.
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (Predicate::False, _) | (_, Predicate::False) => Predicate::False,
            (a, b) => Predicate::And(Box::new(a), Box::new(b)),
        }
    }

    /// `self OR other`, simplifying around the constants.
    pub fn or(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::False, p) | (p, Predicate::False) => p,
            (Predicate::True, _) | (_, Predicate::True) => Predicate::True,
            (a, b) => Predicate::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Builds the disjunction of a list of predicates (`False` if empty).
    pub fn any(preds: impl IntoIterator<Item = Predicate>) -> Predicate {
        preds.into_iter().fold(Predicate::False, Predicate::or)
    }

    /// Builds the conjunction of a list of predicates (`True` if empty).
    pub fn all(preds: impl IntoIterator<Item = Predicate>) -> Predicate {
        preds.into_iter().fold(Predicate::True, Predicate::and)
    }

    /// Evaluates against a tuple under a schema.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Result<bool, RelError> {
        match self {
            Predicate::True => Ok(true),
            Predicate::False => Ok(false),
            Predicate::Eq(l, r) => Ok(l.resolve(schema, tuple)? == r.resolve(schema, tuple)?),
            Predicate::Lt(l, r) => {
                let (lv, rv) = (l.resolve(schema, tuple)?, r.resolve(schema, tuple)?);
                check_same_type(lv, rv)?;
                Ok(lv < rv)
            }
            Predicate::Le(l, r) => {
                let (lv, rv) = (l.resolve(schema, tuple)?, r.resolve(schema, tuple)?);
                check_same_type(lv, rv)?;
                Ok(lv <= rv)
            }
            Predicate::And(a, b) => Ok(a.eval(schema, tuple)? && b.eval(schema, tuple)?),
            Predicate::Or(a, b) => Ok(a.eval(schema, tuple)? || b.eval(schema, tuple)?),
            Predicate::Not(p) => Ok(!p.eval(schema, tuple)?),
        }
    }

    /// Number of atomic comparisons — used to report the size of the DAS
    /// server condition `Cond_S`.
    pub fn atom_count(&self) -> usize {
        match self {
            Predicate::True | Predicate::False => 0,
            Predicate::Eq(..) | Predicate::Lt(..) | Predicate::Le(..) => 1,
            Predicate::And(a, b) | Predicate::Or(a, b) => a.atom_count() + b.atom_count(),
            Predicate::Not(p) => p.atom_count(),
        }
    }
}

fn check_same_type(a: &Value, b: &Value) -> Result<(), RelError> {
    if a.ty() != b.ty() {
        return Err(RelError::SchemaMismatch(format!(
            "cannot compare {} with {}",
            a.ty(),
            b.ty()
        )));
    }
    Ok(())
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Eq(l, r) => write!(f, "{l} = {r}"),
            Predicate::Lt(l, r) => write!(f, "{l} < {r}"),
            Predicate::Le(l, r) => write!(f, "{l} <= {r}"),
            Predicate::And(a, b) => write!(f, "({a} ∧ {b})"),
            Predicate::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Predicate::Not(p) => write!(f, "¬{p}"),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Col(c) => write!(f, "{c}"),
            Operand::Lit(v) => write!(f, "{v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Type;

    fn setup() -> (Schema, Tuple) {
        (
            Schema::new(&[("id", Type::Int), ("name", Type::Str)]),
            Tuple::new(vec![Value::Int(7), Value::from("ada")]),
        )
    }

    #[test]
    fn equality() {
        let (s, t) = setup();
        assert!(Predicate::eq_lit("id", 7i64).eval(&s, &t).unwrap());
        assert!(!Predicate::eq_lit("id", 8i64).eval(&s, &t).unwrap());
        assert!(Predicate::eq_lit("name", "ada").eval(&s, &t).unwrap());
    }

    #[test]
    fn comparisons_and_type_errors() {
        let (s, t) = setup();
        let lt = Predicate::Lt(Operand::col("id"), Operand::lit(10i64));
        assert!(lt.eval(&s, &t).unwrap());
        let bad = Predicate::Lt(Operand::col("id"), Operand::lit("x"));
        assert!(bad.eval(&s, &t).is_err());
    }

    #[test]
    fn connectives() {
        let (s, t) = setup();
        let p = Predicate::eq_lit("id", 7i64).and(Predicate::eq_lit("name", "ada"));
        assert!(p.eval(&s, &t).unwrap());
        let q = Predicate::eq_lit("id", 0i64).or(Predicate::eq_lit("name", "ada"));
        assert!(q.eval(&s, &t).unwrap());
        let n = Predicate::Not(Box::new(Predicate::eq_lit("id", 7i64)));
        assert!(!n.eval(&s, &t).unwrap());
    }

    #[test]
    fn constant_simplification() {
        let p = Predicate::True.and(Predicate::eq_lit("id", 1i64));
        assert_eq!(p, Predicate::eq_lit("id", 1i64));
        assert_eq!(
            Predicate::False.and(Predicate::eq_lit("id", 1i64)),
            Predicate::False
        );
        assert_eq!(Predicate::any(vec![]), Predicate::False);
        assert_eq!(Predicate::all(vec![]), Predicate::True);
    }

    #[test]
    fn atom_count_counts_dnf_terms() {
        let dnf = Predicate::any(
            (0..5).map(|i| Predicate::eq_lit("a", i as i64).and(Predicate::eq_lit("b", i as i64))),
        );
        assert_eq!(dnf.atom_count(), 10);
    }

    #[test]
    fn unknown_column_is_error() {
        let (s, t) = setup();
        assert!(Predicate::eq_lit("ghost", 1i64).eval(&s, &t).is_err());
    }
}
