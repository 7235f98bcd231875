//! `Algebra::eval` edge cases: empty relations and composite-key joins.

use std::collections::{BTreeMap, HashMap};

use relalg::sql;
use relalg::{Relation, Schema, Type, Value};

fn rel(attrs: &[(&str, Type)], rows: Vec<Vec<Value>>) -> Relation {
    Relation::build(Schema::new(attrs), rows).expect("well-typed rows")
}

fn schemas_of(catalog: &HashMap<String, Relation>) -> BTreeMap<String, Schema> {
    catalog
        .iter()
        .map(|(k, v)| (k.clone(), v.schema().clone()))
        .collect()
}

#[test]
fn join_with_empty_side_is_empty() {
    let mut catalog = HashMap::new();
    catalog.insert(
        "l".to_string(),
        rel(
            &[("k", Type::Int), ("vl", Type::Int)],
            vec![vec![Value::Int(1), Value::Int(10)]],
        ),
    );
    catalog.insert(
        "r".to_string(),
        rel(&[("k", Type::Int), ("vr", Type::Int)], vec![]),
    );
    for q in [
        "select * from l natural join r",
        "select * from r natural join l",
        "select * from l join r on l.k = r.k",
    ] {
        let tree = sql::parse(q).unwrap();
        let out = tree.eval(&catalog).unwrap();
        assert_eq!(out.len(), 0, "query {q} over an empty side");
        // The joined schema is still well-formed.
        assert_eq!(out.schema().arity(), 3);
    }
}

#[test]
fn both_sides_empty_and_filters_over_empty() {
    let mut catalog = HashMap::new();
    catalog.insert(
        "l".to_string(),
        rel(&[("k", Type::Int), ("vl", Type::Int)], vec![]),
    );
    catalog.insert(
        "r".to_string(),
        rel(&[("k", Type::Int), ("vr", Type::Int)], vec![]),
    );
    let tree = sql::parse("select vl from l natural join r where vr < 3").unwrap();
    let out = tree.eval(&catalog).unwrap();
    assert_eq!(out.len(), 0);
    assert_eq!(out.schema().attr_names(), vec!["vl"]);
}

#[test]
fn aggregate_over_empty_join_has_no_groups() {
    let mut catalog = HashMap::new();
    catalog.insert(
        "l".to_string(),
        rel(&[("k", Type::Int), ("vl", Type::Int)], vec![]),
    );
    catalog.insert(
        "r".to_string(),
        rel(&[("k", Type::Int), ("vr", Type::Int)], vec![]),
    );
    let tree = sql::parse("select k, sum(vr) from l natural join r group by k").unwrap();
    let out = tree.eval(&catalog).unwrap();
    assert_eq!(out.len(), 0);
}

#[test]
fn composite_key_join_matches_on_all_attributes() {
    let mut catalog = HashMap::new();
    catalog.insert(
        "l".to_string(),
        rel(
            &[("a", Type::Int), ("b", Type::Int), ("vl", Type::Int)],
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Int(10)],
                vec![Value::Int(1), Value::Int(2), Value::Int(20)],
                vec![Value::Int(2), Value::Int(1), Value::Int(30)],
            ],
        ),
    );
    catalog.insert(
        "r".to_string(),
        rel(
            &[("a", Type::Int), ("b", Type::Int), ("vr", Type::Int)],
            vec![
                vec![Value::Int(1), Value::Int(1), Value::Int(100)],
                vec![Value::Int(2), Value::Int(2), Value::Int(200)],
            ],
        ),
    );
    // Explicit two-attribute ON and NATURAL JOIN must agree: only the
    // (1,1) pair matches on both key parts.
    let on = sql::parse("select * from l join r on l.a = r.a and l.b = r.b").unwrap();
    let natural = sql::parse("select * from l natural join r").unwrap();
    let on_out = on.eval(&catalog).unwrap();
    let nat_out = natural.eval(&catalog).unwrap();
    assert_eq!(on_out.len(), 1);
    assert_eq!(on_out.tuples(), nat_out.tuples());
    assert_eq!(on_out.schema().attr_names(), vec!["a", "b", "vl", "vr"]);
    // A partial-key join would leave `b` colliding across the two sides;
    // the query graph rejects it as ambiguous.
    let partial = sql::parse("select * from l join r on l.a = r.a where b < 5").unwrap();
    assert!(matches!(
        sql::query_graph(&partial, &schemas_of(&catalog)),
        Err(relalg::RelError::AmbiguousColumn(_))
    ));
}

#[test]
fn composite_key_join_on_empty_intersection() {
    let mut catalog = HashMap::new();
    catalog.insert(
        "l".to_string(),
        rel(
            &[("a", Type::Int), ("b", Type::Int)],
            vec![vec![Value::Int(1), Value::Int(2)]],
        ),
    );
    catalog.insert(
        "r".to_string(),
        rel(
            &[("a", Type::Int), ("b", Type::Int)],
            vec![vec![Value::Int(2), Value::Int(1)]],
        ),
    );
    let tree = sql::parse("select * from l natural join r").unwrap();
    assert_eq!(tree.eval(&catalog).unwrap().len(), 0);
}
