//! Property tests for the typed columnar storage layer: the columnar
//! mirror must be observationally identical to the row-major rows it
//! shadows — same iteration sequence, same distinct values in the same
//! first-seen order, same counts — for every declared datatype and for
//! type-mixed columns that fall back to [`Column::Mixed`].

use efes_relational::{Column, DataType, DatabaseBuilder, Value};
use proptest::prelude::*;
use std::collections::HashSet;

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

        let via_rows: Vec<Value> = data.rows().iter().map(|row| row[0].clone()).collect();
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

    /// The raw `Column::build` distinct scan agrees with the row-major
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
        let rows: Vec<Vec<Value>> = col.iter().map(|v| vec![v.clone()]).collect();
        let built = Column::build(&rows, 0);
        let expected = rowmajor_distinct(&col);
        prop_assert_eq!(built.distinct_values(), expected.clone());
        prop_assert_eq!(built.distinct_count(), expected.len());
        let back: Vec<Value> = built.iter().map(|v| v.to_value()).collect();
        prop_assert_eq!(back, col);
    }

    /// The streaming `ColumnBuilder` is bit-identical to the batch
    /// `Column::from_cells` for every cell sequence — including mixed
    /// sequences that demote mid-stream and all-NULL columns.
    #[test]
    fn column_builder_matches_from_cells(col in proptest::collection::vec(
        prop_oneof![
            3 => Just(Value::Null),
            4 => (-50i64..50).prop_map(Value::Int),
            4 => (-5.0f64..5.0).prop_map(Value::Float),
            4 => "[a-c]{0,3}".prop_map(Value::Text),
            2 => any::<bool>().prop_map(Value::Bool),
        ],
        0..140,
    )) {
        let mut builder = efes_relational::ColumnBuilder::with_capacity(col.len());
        for v in &col {
            builder.push(v.clone());
        }
        prop_assert_eq!(builder.finish(), Column::from_cells(col));
    }
}
