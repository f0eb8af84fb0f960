//! Pins the order CSG conversion fills an instance in.
//!
//! Conversion reads each table column by column, but the instance it
//! builds must be the one a row-by-row walk builds: per table node the
//! tuples in row order; per attribute node the distinct non-null values
//! in first-seen row order; per attribute relationship one link per
//! non-null cell in row order; per foreign-key relationship one link per
//! referencing element that the referenced node also holds. The
//! expectation is computed here from the row view, `TableData::rows`.

use efes_csg::database_to_csg;
use efes_csg::instance::Element;
use efes_relational::{AttrId, DataType, Database, DatabaseBuilder, Value};
use efes_scenarios::standard_registry;
use std::collections::HashMap;

fn assert_converts_row_major(db: &Database, label: &str) {
    let conv = database_to_csg(db);
    let mut expected_elements: HashMap<_, Vec<Element>> = HashMap::new();
    for (ti, data) in db.instance.iter_tables() {
        let rows: Vec<_> = data.rows().collect();
        let tuples: Vec<Element> = (0..rows.len()).map(Element::Tuple).collect();
        assert_eq!(
            conv.instance.elements(conv.table_node(ti)),
            &tuples[..],
            "{label}: tuples of table {}",
            ti.0
        );
        for ai in 0..db.schema.table(ti).arity() {
            let attr = AttrId(ai);
            let mut elements = Vec::new();
            let mut index: HashMap<Value, u32> = HashMap::new();
            let mut links = Vec::new();
            for (ri, row) in rows.iter().enumerate() {
                let v = &row[ai];
                if v.is_null() {
                    continue;
                }
                let idx = *index.entry(v.clone()).or_insert_with(|| {
                    elements.push(Element::Val(v.clone()));
                    elements.len() as u32 - 1
                });
                links.push((ri as u32, idx));
            }
            let where_ = format!("{label}: {}", db.schema.qualified(ti, attr));
            assert_eq!(
                conv.instance.elements(conv.attr_node(ti, attr)),
                &elements[..],
                "{where_}"
            );
            assert_eq!(
                conv.instance.links_of(conv.attr_rel(ti, attr)),
                &links[..],
                "{where_}"
            );
            expected_elements.insert(conv.attr_node(ti, attr), elements);
        }
    }
    for (name, rel) in &conv.fk_rels {
        let r = conv.csg.relationship(*rel);
        let to: HashMap<&Element, u32> = expected_elements[&r.to]
            .iter()
            .enumerate()
            .map(|(i, e)| (e, i as u32))
            .collect();
        let links: Vec<(u32, u32)> = expected_elements[&r.from]
            .iter()
            .enumerate()
            .filter_map(|(i, e)| to.get(e).map(|&t| (i as u32, t)))
            .collect();
        assert_eq!(conv.instance.links_of(*rel), &links[..], "{label}: {name}");
    }
}

#[test]
fn registry_databases_convert_in_row_order() {
    let registry = standard_registry();
    let names = registry.names();
    assert!(!names.is_empty());
    for name in names {
        let scenario = registry.get(name).expect("listed scenarios resolve");
        for (i, db) in scenario.sources.iter().enumerate() {
            assert_converts_row_major(db, &format!("{name} source {i}"));
        }
        assert_converts_row_major(&scenario.target, &format!("{name} target"));
    }
}

#[test]
fn nulls_repeats_mixed_types_and_empty_tables_convert_in_row_order() {
    let db = DatabaseBuilder::new("hand")
        .table("t", |t| {
            t.attr("id", DataType::Integer)
                .attr("name", DataType::Text)
                .attr("score", DataType::Float)
                .attr("flag", DataType::Boolean)
                .primary_key(&["id"])
        })
        .table("u", |t| {
            t.attr("t_id", DataType::Integer)
                .attr("note", DataType::Text)
                .foreign_key(&["t_id"], "t", &["id"])
        })
        .table("empty", |t| {
            t.attr("x", DataType::Integer).attr("y", DataType::Text)
        })
        .rows(
            "t",
            vec![
                vec![1.into(), "a".into(), Value::Int(3), Value::Null],
                vec![2.into(), Value::Null, Value::Float(2.5), true.into()],
                vec![3.into(), "a".into(), Value::Null, false.into()],
                vec![4.into(), "b".into(), Value::Int(3), true.into()],
                vec![5.into(), Value::Null, Value::Float(3.0), Value::Null],
            ],
        )
        .rows(
            "u",
            vec![
                vec![2.into(), "x".into()],
                vec![Value::Null, "x".into()],
                vec![9.into(), Value::Null],
                vec![2.into(), "y".into()],
                vec![1.into(), "x".into()],
            ],
        )
        .build()
        .unwrap();
    // `t.score` mixes Int and Float cells, so it is stored type-mixed.
    let (t, score) = db.schema.resolve("t", "score").unwrap();
    assert_eq!(
        db.instance
            .table(t)
            .column_store(score)
            .unwrap()
            .type_label(),
        "mixed column"
    );
    assert_converts_row_major(&db, "hand");
}
