//! Pins the order CSG conversion fills an instance in.
//!
//! Conversion numbers each column's distinct values from its typed
//! storage, but the instance it builds must be the one a row-by-row walk
//! builds: per table node one element per row; per attribute node one
//! element per distinct non-null value, numbered in first-seen row
//! order; per attribute relationship one link per non-null cell in row
//! order; per foreign-key relationship one link per referencing element
//! that the referenced node also holds. The expectation is computed here
//! from the row view, `TableData::rows`, with `Value` equality.

use efes_csg::database_to_csg;
use efes_relational::{AttrId, DataType, Database, DatabaseBuilder, Instance, Value};
use efes_scenarios::standard_registry;
use proptest::prelude::*;
use serde::{Content, Deserialize, Serialize};
use std::collections::HashMap;

fn assert_converts_row_major(db: &Database, label: &str) {
    let conv = database_to_csg(db);
    let mut expected_elements: HashMap<_, Vec<Value>> = HashMap::new();
    for (ti, data) in db.instance.iter_tables() {
        let rows: Vec<_> = data.rows().collect();
        assert_eq!(
            conv.instance.element_count(conv.table_node(ti)),
            rows.len(),
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
                    elements.push(v.clone());
                    elements.len() as u32 - 1
                });
                links.push((ri as u32, idx));
            }
            let where_ = format!("{label}: {}", db.schema.qualified(ti, attr));
            assert_eq!(
                conv.instance.element_count(conv.attr_node(ti, attr)),
                elements.len(),
                "{where_}"
            );
            // Element `i` of the attribute node is the column's value
            // with first-seen code `i`.
            assert_eq!(db.instance.distinct_values(ti, attr), elements, "{where_}");
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
        let to: HashMap<&Value, u32> = expected_elements[&r.to]
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

/// The kinds of column the property draws: each typed variant, an
/// all-NULL column, and two type-mixed ones.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Int,
    Float,
    Text,
    Bool,
    Null,
    IntFloat,
    IntText,
}

const SHAPES: [Shape; 7] = [
    Shape::Int,
    Shape::Float,
    Shape::Text,
    Shape::Bool,
    Shape::Null,
    Shape::IntFloat,
    Shape::IntText,
];

/// Floats that `Value` tells apart by bit pattern only: both zeros and
/// two NaN payloads.
fn floats() -> [f64; 5] {
    [
        0.0,
        -0.0,
        f64::NAN,
        f64::from_bits(f64::NAN.to_bits() | 1),
        1.0,
    ]
}

impl Shape {
    fn datatype(self) -> DataType {
        match self {
            Shape::Int => DataType::Integer,
            Shape::Float | Shape::IntFloat => DataType::Float,
            Shape::Text | Shape::Null | Shape::IntText => DataType::Text,
            Shape::Bool => DataType::Boolean,
        }
    }

    /// A cell from a small domain, so repeats and key hits are common;
    /// `pick` 0 is NULL. The integer domains overlap across shapes, as
    /// do the float and text ones.
    fn cell(self, pick: u8) -> Value {
        if pick == 0 {
            return Value::Null;
        }
        let p = pick as usize;
        let even = p.is_multiple_of(2);
        let int = Value::Int((p % 3) as i64);
        let float = Value::Float(floats()[p % 5]);
        let text = Value::Text(["a", "b", "c"][p % 3].to_owned());
        match self {
            Shape::Int => int,
            Shape::Float => float,
            Shape::Text => text,
            Shape::Bool => Value::Bool(even),
            Shape::Null => Value::Null,
            Shape::IntFloat if even => int,
            Shape::IntFloat => float,
            Shape::IntText if even => int,
            Shape::IntText => text,
        }
    }
}

/// One table's rows, two columns wide: `(shapes, picks per row)`.
type TableDraw = ([usize; 2], Vec<(u8, u8)>);

fn arb_table() -> impl Strategy<Value = TableDraw> {
    (
        (0..SHAPES.len(), 0..SHAPES.len()),
        proptest::collection::vec((0u8..8, 0u8..8), 0..12),
    )
        .prop_map(|((a, b), rows)| ([a, b], rows))
}

/// `parent(k, x)` and `child(fk, y)` with foreign keys `child.fk →
/// parent.k` and `child.y → parent.x`. The rows are loaded through the
/// serialized form, which types each column by its cells alone, so any
/// column shape can sit under any key.
fn two_table_db(parent: &TableDraw, child: &TableDraw) -> Database {
    let shape = |draw: &TableDraw, i: usize| SHAPES[draw.0[i]];
    let mut db = DatabaseBuilder::new("prop")
        .table("parent", |t| {
            t.attr("k", shape(parent, 0).datatype())
                .attr("x", shape(parent, 1).datatype())
        })
        .table("child", |t| {
            t.attr("fk", shape(child, 0).datatype())
                .attr("y", shape(child, 1).datatype())
                .foreign_key(&["fk"], "parent", &["k"])
                .foreign_key(&["y"], "parent", &["x"])
        })
        .build()
        .unwrap();
    let rows = |draw: &TableDraw| -> Vec<Vec<Value>> {
        draw.1
            .iter()
            .map(|&(a, b)| vec![shape(draw, 0).cell(a), shape(draw, 1).cell(b)])
            .collect()
    };
    let table = |rows: Vec<Vec<Value>>| {
        Content::Map(vec![(Content::Str("rows".into()), rows.to_content())])
    };
    let instance = Content::Map(vec![(
        Content::Str("tables".into()),
        Content::Seq(vec![table(rows(parent)), table(rows(child))]),
    )]);
    db.instance = Instance::from_content(&instance).expect("rows of equal width");
    db
}

proptest! {
    /// Conversion matches the row-major walk on two tables joined by
    /// foreign keys over every pairing of column shapes: same type,
    /// cross type (no links), and mixed against typed.
    #[test]
    fn foreign_key_joins_convert_in_row_order(parent in arb_table(), child in arb_table()) {
        let db = two_table_db(&parent, &child);
        assert_converts_row_major(&db, &format!("{parent:?} {child:?}"));
    }
}

#[test]
fn every_shape_pair_converts_in_row_order() {
    // Each shape against each, with every domain value present on both
    // sides: the proptest's draws need not cover all 49 pairings.
    let all: Vec<(u8, u8)> = (0u8..8).map(|p| (p, 7 - p)).collect();
    for (p, parent_shape) in SHAPES.iter().enumerate() {
        for (c, child_shape) in SHAPES.iter().enumerate() {
            let parent = ([p, c], all.clone());
            let child = ([c, p], all.iter().rev().copied().collect());
            let db = two_table_db(&parent, &child);
            assert_converts_row_major(&db, &format!("{parent_shape:?} ← {child_shape:?}"));
        }
    }
}
