//! Property tests for the typed columnar storage layer: a column must
//! hold exactly the cells pushed into it — same iteration sequence, same
//! distinct values in the same first-seen order, same counts — for every
//! declared datatype and for type-mixed columns that fall back to
//! [`Column::Mixed`], whichever way the cells arrived.

use efes_relational::column::NullBitmap;
use efes_relational::{
    AttrId, Attribute, Column, DataType, DatabaseBuilder, Instance, Schema, Table, TableId,
    Value, ValueRef,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A column of values every declared datatype admits, with nulls mixed
/// in. Float columns may also hold ints (admits widening), exercising
/// the `Column::Mixed` fallback.
fn arb_typed_column() -> impl Strategy<Value = (Vec<Value>, DataType)> {
    let null = 2;
    prop_oneof![
        (
            proptest::collection::vec(
                prop_oneof![
                    null => Just(Value::Null),
                    8 => (-1_000i64..1_000).prop_map(Value::Int),
                ],
                0..50,
            ),
            Just(DataType::Integer)
        ),
        (
            proptest::collection::vec(
                prop_oneof![
                    null => Just(Value::Null),
                    6 => (-1_000i64..1_000).prop_map(Value::Int),
                    6 => (-100.0f64..100.0).prop_map(Value::Float),
                ],
                0..50,
            ),
            Just(DataType::Float)
        ),
        (
            proptest::collection::vec(
                prop_oneof![
                    null => Just(Value::Null),
                    8 => "[a-z0-9:é\\. -]{0,12}".prop_map(Value::Text),
                ],
                0..50,
            ),
            Just(DataType::Text)
        ),
        (
            proptest::collection::vec(
                prop_oneof![
                    null => Just(Value::Null),
                    8 => any::<bool>().prop_map(Value::Bool),
                ],
                0..50,
            ),
            Just(DataType::Boolean)
        ),
    ]
}

/// First-seen-order distinct values, straight off the row-major values —
/// the specification `Column::distinct_values` must reproduce.
fn rowmajor_distinct(values: &[Value]) -> Vec<Value> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for v in values {
        if !v.is_null() && seen.insert(v) {
            out.push(v.clone());
        }
    }
    out
}

proptest! {
    /// The columnar store yields exactly the row-major sequence, cell for
    /// cell, and agrees on length and null count.
    #[test]
    fn columnar_iteration_matches_rows((col, dt) in arb_typed_column()) {
        let db = DatabaseBuilder::new("c")
            .table("t", |t| t.attr("a", dt))
            .rows("t", col.iter().map(|v| vec![v.clone()]).collect())
            .build()
            .unwrap();
        let data = db.instance.table(db.schema.table_id("t").unwrap());
        let attr = efes_relational::schema::AttrId(0);

        let via_column: Vec<Value> = data.column(attr).map(|v| v.to_value()).collect();
        prop_assert_eq!(&via_column, &col);

        let via_rows: Vec<Value> = data.rows().map(|row| row[0].clone()).collect();
        prop_assert_eq!(&via_rows, &col);

        if let Some(store) = data.column_store(attr) {
            prop_assert_eq!(store.len(), col.len());
            prop_assert_eq!(
                store.null_count(),
                col.iter().filter(|v| v.is_null()).count()
            );
            let direct: Vec<Value> = (0..store.len()).map(|i| store.value(i).to_value()).collect();
            prop_assert_eq!(&direct, &col);
        } else {
            prop_assert!(col.is_empty());
        }
    }

    /// Distinct values come back in first-seen order with the row-major
    /// semantics, and `distinct_count` always agrees with them.
    #[test]
    fn distinct_values_match_rowmajor((col, dt) in arb_typed_column()) {
        let db = DatabaseBuilder::new("c")
            .table("t", |t| t.attr("a", dt))
            .rows("t", col.iter().map(|v| vec![v.clone()]).collect())
            .build()
            .unwrap();
        let t = db.schema.table_id("t").unwrap();
        let attr = efes_relational::schema::AttrId(0);

        let expected = rowmajor_distinct(&col);
        let got = db.instance.distinct_values(t, attr);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(db.instance.distinct_count(t, attr), expected.len());
    }

    /// The raw column distinct scan agrees with the first-seen
    /// specification even without a schema in the way (covers Mixed
    /// fallbacks with arbitrary value mixes).
    #[test]
    fn raw_column_distincts(col in proptest::collection::vec(
        prop_oneof![
            2 => Just(Value::Null),
            4 => (-50i64..50).prop_map(Value::Int),
            4 => (-5.0f64..5.0).prop_map(Value::Float),
            4 => "[a-c]{0,3}".prop_map(Value::Text),
            2 => any::<bool>().prop_map(Value::Bool),
        ],
        0..40,
    )) {
        let built = Column::from_cells(col.clone());
        let expected = rowmajor_distinct(&col);
        prop_assert_eq!(built.distinct_values(), expected.clone());
        prop_assert_eq!(built.distinct_count(), expected.len());
        let back: Vec<Value> = built.iter().map(|v| v.to_value()).collect();
        prop_assert_eq!(back, col);
    }

    /// A column checked against the cells pushed into it, the oracle:
    /// the cells round-trip bit-exactly; the variant is the one non-null
    /// variant the cells share, or `Mixed` when they have none or several;
    /// a text dictionary lists the distinct strings in first-seen order
    /// with their counts; a null bitmap is word-exact.
    #[test]
    fn column_matches_its_cells(cells in proptest::collection::vec(
        prop_oneof![
            3 => Just(Value::Null),
            4 => (-50i64..50).prop_map(Value::Int),
            4 => prop_oneof![(-5.0f64..5.0).prop_map(Value::Float), Just(Value::Float(f64::NAN)), Just(Value::Float(-0.0))],
            4 => "[a-c]{0,3}".prop_map(Value::Text),
            2 => any::<bool>().prop_map(Value::Bool),
        ],
        0..140,
    ).prop_flat_map(|cells| {
        // Half the time, cells of other variants than the picked one
        // become copies of it, so every typed variant is built (and long
        // enough to cross bitmap words), not only Mixed.
        let len = cells.len();
        (Just(cells), any::<bool>(), 0..len.max(1))
    }).prop_map(|(cells, homogeneous, pick)| {
        let like = cells.iter().cycle().skip(pick).take(cells.len()).find(|v| !v.is_null()).cloned();
        match like {
            Some(like) if homogeneous => cells
                .into_iter()
                .map(|v| {
                    if v.is_null() || std::mem::discriminant(&v) == std::mem::discriminant(&like) {
                        v
                    } else {
                        like.clone()
                    }
                })
                .collect(),
            _ => cells,
        }
    })) {
        let col = Column::from_cells(cells.clone());

        prop_assert_eq!(col.len(), cells.len());
        prop_assert!(col.iter().eq(cells.iter().map(ValueRef::of)), "cells do not round-trip");
        prop_assert_eq!(col.null_count(), cells.iter().filter(|v| v.is_null()).count());

        let variants: HashSet<_> =
            cells.iter().filter(|v| !v.is_null()).map(std::mem::discriminant).collect();
        let expected = match cells.iter().find(|v| !v.is_null()) {
            Some(Value::Int(_)) if variants.len() == 1 => "integer column",
            Some(Value::Float(_)) if variants.len() == 1 => "float column",
            Some(Value::Text(_)) if variants.len() == 1 => "text column",
            Some(Value::Bool(_)) if variants.len() == 1 => "boolean column",
            _ => "mixed column",
        };
        prop_assert_eq!(col.type_label(), expected);

        let mut bitmap = NullBitmap::new(cells.len());
        for (i, _) in cells.iter().enumerate().filter(|(_, v)| v.is_null()) {
            bitmap.set(i);
        }
        match &col {
            Column::Int { nulls, .. } | Column::Float { nulls, .. } | Column::Bool { nulls, .. } => {
                prop_assert_eq!(nulls, &bitmap);
            }
            Column::Text(t) => {
                let mut dict: Vec<&str> = Vec::new();
                let mut counts: HashMap<&str, usize> = HashMap::new();
                for s in cells.iter().filter_map(Value::as_text) {
                    if !counts.contains_key(s) {
                        dict.push(s);
                    }
                    *counts.entry(s).or_default() += 1;
                }
                prop_assert_eq!(t.dict_iter().collect::<Vec<_>>(), dict.clone());
                let expected_counts: Vec<usize> = dict.iter().map(|s| counts[s]).collect();
                prop_assert_eq!(t.dict_counts(), &expected_counts[..]);
            }
            Column::Mixed { .. } => {}
        }
    }

    /// Inserting rows one at a time and loading the same cells as
    /// columns build the same table: equal `TableData`, equal row views,
    /// and byte-identical JSON.
    #[test]
    fn insert_and_load_columns_build_identical_tables(
        (a, da) in arb_typed_column(),
        (b, db) in arb_typed_column(),
    ) {
        let n = a.len().min(b.len());
        let (a, b) = (a[..n].to_vec(), b[..n].to_vec());
        let mut schema = Schema::new("s");
        schema
            .add_table(Table::new("t", vec![Attribute::new("a", da), Attribute::new("b", db)]))
            .unwrap();
        let t = TableId(0);

        let mut inserted = Instance::empty(&schema);
        for (x, y) in a.iter().zip(&b) {
            inserted.insert(&schema, t, vec![x.clone(), y.clone()]).unwrap();
        }
        let mut loaded = Instance::empty(&schema);
        loaded
            .load_columns(&schema, t, vec![Column::from_cells(a.clone()), Column::from_cells(b.clone())])
            .unwrap();

        let (ti, tl) = (inserted.table(t), loaded.table(t));
        prop_assert_eq!(ti, tl);
        for attr in [AttrId(0), AttrId(1)] {
            prop_assert_eq!(ti.column_store(attr), tl.column_store(attr));
        }
        prop_assert!(ti.rows().eq(tl.rows()));
        let rows: Vec<Vec<Value>> = a.into_iter().zip(b).map(|(x, y)| vec![x, y]).collect();
        prop_assert_eq!(ti.rows().collect::<Vec<_>>(), rows);
        prop_assert_eq!(
            serde_json::to_string(&inserted).unwrap(),
            serde_json::to_string(&loaded).unwrap()
        );
    }
}
