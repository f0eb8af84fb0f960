//! Database instances (the data) and constraint validation.

use crate::column::{Column, ColumnIter, ValueRef};
use crate::constraint::{Constraint, ConstraintKind, ConstraintSet};
use crate::error::{Error, Result};
use crate::schema::{AttrId, Schema, TableId};
use crate::value::Value;
use serde::{content_get, Content, DeError, Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// One tuple of a relation.
pub type Row = Vec<Value>;

/// The data of a single table: one typed [`Column`] per attribute, all
/// of the same length, and nothing else.
///
/// Every way of filling a table — [`Instance::insert`] row by row,
/// [`Instance::load_columns`] column by column, CSV loads,
/// [`DatabaseBuilder`](crate::DatabaseBuilder), the ingest parser —
/// grows its columns with [`Column::push`], so equal cells make equal
/// columns whichever way they arrived. Readers take a column
/// ([`TableData::column_store`], [`TableData::column`]) or one cell
/// ([`TableData::value`]); [`TableData::rows`] materialises rows one at
/// a time on demand and keeps none.
///
/// The arity comes from the schema: [`Instance::empty`] gives every
/// table one empty column per attribute. The exception is a
/// deserialized table without rows — `{"rows": []}` carries no arity —
/// which holds no columns until its first insert.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    columns: Vec<Column>,
}

impl PartialEq for TableData {
    /// Cell-wise equality under [`Value`] semantics (floats bit-exact,
    /// cross-variant cells never equal). Tables without rows are equal
    /// whatever their arity, which rows cannot show.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && (self.is_empty()
                || (self.columns.len() == other.columns.len()
                    && self
                        .columns
                        .iter()
                        .zip(&other.columns)
                        .all(|(a, b)| a.iter().eq(b.iter()))))
    }
}

impl Eq for TableData {}

// Hand-written to keep the row-major wire format `{"rows": [...]}`:
// golden scenario dumps are row-shaped and must stay byte-identical.
impl Serialize for TableData {
    fn to_content(&self) -> Content {
        Content::Map(vec![(
            Content::Str("rows".into()),
            Content::Seq(self.rows().map(|row| row.to_content()).collect()),
        )])
    }
}

impl Deserialize for TableData {
    fn from_content(content: &Content) -> std::result::Result<Self, DeError> {
        let map = content
            .as_map()
            .ok_or_else(|| DeError::expected("JSON object for `TableData`"))?;
        let rows = match content_get(map, "rows") {
            Some(v) => Vec::<Row>::from_content(v)?,
            None => return Err(DeError::missing_field("TableData", "rows")),
        };
        let mut data = TableData::with_arity(rows.first().map_or(0, Vec::len));
        for (i, row) in rows.iter().enumerate() {
            if row.len() != data.columns.len() {
                return Err(DeError::custom(format!(
                    "`TableData` row {i} has {} cells, row 0 has {}",
                    row.len(),
                    data.columns.len()
                )));
            }
            data.push(row);
        }
        Ok(data)
    }
}

impl TableData {
    /// An empty table of `arity` attributes.
    fn with_arity(arity: usize) -> Self {
        TableData {
            columns: (0..arity).map(|_| Column::default()).collect(),
        }
    }

    /// Table data made of pre-built typed columns, one per attribute.
    ///
    /// Fails with [`Error::ColumnShape`] if the columns disagree on row
    /// count.
    pub fn from_columns(columns: Vec<Column>) -> Result<TableData> {
        let len = columns.first().map(Column::len).unwrap_or(0);
        if let Some(odd) = columns.iter().find(|c| c.len() != len) {
            return Err(Error::ColumnShape {
                expected: len,
                actual: odd.len(),
            });
        }
        Ok(TableData { columns })
    }

    /// Append a row, one cell per column (shape is checked by
    /// [`Instance::insert`]).
    fn push(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.columns.len(), "row shape is checked by the caller");
        for (col, cell) in self.columns.iter_mut().zip(row) {
            col.push(ValueRef::of(cell));
        }
    }

    /// The rows in insertion order, each materialised from the columns
    /// when the iterator reaches it — a row-major view for
    /// serialization, reports and tests. Nothing keeps them.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row> + '_ {
        (0..self.len()).map(|i| self.columns.iter().map(|c| c.value(i).to_value()).collect())
    }

    /// The cell at `row` of attribute `attr`.
    ///
    /// Panics if either is out of range.
    pub fn value(&self, row: usize, attr: AttrId) -> ValueRef<'_> {
        self.columns[attr.0].value(row)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// `true` iff the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed column of one attribute. `None` for out-of-range
    /// attributes (and so for every attribute of a deserialized table
    /// without rows, see the type docs).
    pub fn column_store(&self, attr: AttrId) -> Option<&Column> {
        self.columns.get(attr.0)
    }

    /// Iterate over the values of one column, in row order.
    pub fn column(&self, attr: AttrId) -> ColumnIter<'_> {
        self.column_store(attr).unwrap_or(Column::empty()).iter()
    }

    /// Approximate heap bytes of the table's data: the sum of
    /// [`Column::heap_bytes`] over its columns.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(Column::heap_bytes).sum()
    }
}

/// A violation found while validating an instance against its constraints.
///
/// EFES only ever needs violation *counts* per constraint (paper §4.1:
/// "we can count the number of albums in the source data, that are
/// associated to no or more than one artist"), but carrying the row index
/// makes the reports debuggable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Name of the violated constraint.
    pub constraint: String,
    /// Table the offending row lives in.
    pub table: TableId,
    /// Index of the offending row within its table.
    pub row: usize,
    /// Human-readable explanation.
    pub detail: String,
}

/// An instance of a [`Schema`]: one [`TableData`] per table.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instance {
    tables: Vec<TableData>,
}

impl Instance {
    /// An empty instance shaped for `schema`.
    pub fn empty(schema: &Schema) -> Self {
        Instance {
            tables: schema
                .tables()
                .iter()
                .map(|t| TableData::with_arity(t.arity()))
                .collect(),
        }
    }

    /// Insert a row after checking arity and declared types against
    /// `schema`, appending each cell to its attribute's column.
    pub fn insert(&mut self, schema: &Schema, table: TableId, row: Row) -> Result<()> {
        let t = schema.table(table);
        if row.len() != t.arity() {
            return Err(Error::RowShape {
                table: t.name.clone(),
                expected: t.arity(),
                actual: row.len(),
            });
        }
        for (i, v) in row.iter().enumerate() {
            let attr = &t.attributes[i];
            if !attr.datatype.admits(v) {
                return Err(Error::TypeMismatch {
                    table: t.name.clone(),
                    attribute: attr.name.clone(),
                    expected: attr.datatype.to_string(),
                    actual: v.type_name().to_owned(),
                });
            }
        }
        let data = &mut self.tables[table.0];
        if data.is_empty() {
            // A deserialized table without rows has no columns yet.
            data.columns.resize_with(t.arity(), Column::default);
        }
        data.push(&row);
        Ok(())
    }

    /// Replace one table's data with columns built column-wise, checking
    /// arity and declared types against `schema`.
    ///
    /// The type check is variant-level for typed columns (a whole
    /// [`Column::Int`] is admissible exactly when one `Int` cell is), so
    /// it costs O(1) per typed column; only [`Column::Mixed`] falls back
    /// to a per-cell [`DataType::admits`](crate::DataType::admits) walk.
    pub fn load_columns(
        &mut self,
        schema: &Schema,
        table: TableId,
        columns: Vec<Column>,
    ) -> Result<()> {
        let t = schema.table(table);
        if columns.len() != t.arity() {
            return Err(Error::RowShape {
                table: t.name.clone(),
                expected: t.arity(),
                actual: columns.len(),
            });
        }
        for (i, col) in columns.iter().enumerate() {
            let attr = &t.attributes[i];
            let ok = match col {
                Column::Int { .. } => attr.datatype.admits(&Value::Int(0)),
                Column::Float { .. } => attr.datatype.admits(&Value::Float(0.0)),
                Column::Text(_) => attr.datatype == crate::datatype::DataType::Text,
                Column::Bool { .. } => attr.datatype == crate::datatype::DataType::Boolean,
                Column::Mixed { cells, .. } => cells.iter().all(|v| attr.datatype.admits(v)),
            };
            if !ok {
                return Err(Error::TypeMismatch {
                    table: t.name.clone(),
                    attribute: attr.name.clone(),
                    expected: attr.datatype.to_string(),
                    actual: col.type_label().to_owned(),
                });
            }
        }
        self.tables[table.0] = TableData::from_columns(columns)?;
        Ok(())
    }

    /// Data of one table.
    pub fn table(&self, id: TableId) -> &TableData {
        &self.tables[id.0]
    }

    /// Total number of rows across all tables.
    pub fn row_count(&self) -> usize {
        self.tables.iter().map(TableData::len).sum()
    }

    /// Iterate over all `(TableId, &TableData)` pairs.
    pub fn iter_tables(&self) -> impl Iterator<Item = (TableId, &TableData)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId(i), t))
    }

    /// The distinct non-null values of one column, in first-seen order.
    ///
    /// Served by the columnar store: for text columns the dictionary
    /// *is* the answer (no hashing, no per-row clones). Callers that only
    /// need the cardinality should use [`Instance::distinct_count`]
    /// instead, which never clones.
    pub fn distinct_values(&self, table: TableId, attr: AttrId) -> Vec<Value> {
        match self.table(table).column_store(attr) {
            Some(col) => col.distinct_values(),
            None => Vec::new(),
        }
    }

    /// The number of distinct non-null values of one column — the
    /// allocation-free variant of [`Instance::distinct_values`] for the
    /// (common) callers that only need the count.
    pub fn distinct_count(&self, table: TableId, attr: AttrId) -> usize {
        match self.table(table).column_store(attr) {
            Some(col) => col.distinct_count(),
            None => 0,
        }
    }

    /// Validate the instance against `constraints`, returning every
    /// violation. An empty result means the instance is valid — the paper
    /// *assumes* source instances are valid w.r.t. their own schemas
    /// (§3.1), and the scenario generators use this to assert it.
    pub fn validate(&self, schema: &Schema, constraints: &ConstraintSet) -> Vec<Violation> {
        let mut out = Vec::new();
        for c in constraints.iter() {
            self.check_constraint(schema, c, &mut out);
        }
        out
    }

    fn check_constraint(&self, schema: &Schema, c: &Constraint, out: &mut Vec<Violation>) {
        match &c.kind {
            ConstraintKind::NotNull { table, attr } => {
                for (i, v) in self.table(*table).column(*attr).enumerate() {
                    if v.is_null() {
                        out.push(Violation {
                            constraint: c.name.clone(),
                            table: *table,
                            row: i,
                            detail: format!("NULL in {}", schema.qualified(*table, *attr)),
                        });
                    }
                }
            }
            ConstraintKind::PrimaryKey { table, attrs } | ConstraintKind::Unique { table, attrs } => {
                let is_pk = matches!(c.kind, ConstraintKind::PrimaryKey { .. });
                let data = self.table(*table);
                let mut seen: HashMap<Vec<ValueRef<'_>>, usize> = HashMap::new();
                for i in 0..data.len() {
                    let key: Vec<ValueRef<'_>> = attrs.iter().map(|a| data.value(i, *a)).collect();
                    if is_pk && key.iter().any(|v| v.is_null()) {
                        out.push(Violation {
                            constraint: c.name.clone(),
                            table: *table,
                            row: i,
                            detail: "NULL in primary key".to_owned(),
                        });
                        continue;
                    }
                    // SQL semantics: NULLs never collide under UNIQUE.
                    if !is_pk && key.iter().any(|v| v.is_null()) {
                        continue;
                    }
                    if let Some(first) = seen.insert(key, i) {
                        out.push(Violation {
                            constraint: c.name.clone(),
                            table: *table,
                            row: i,
                            detail: format!("duplicate key (first at row {first})"),
                        });
                    }
                }
            }
            ConstraintKind::ForeignKey {
                from_table,
                from_attrs,
                to_table,
                to_attrs,
            } => {
                let (to, from) = (self.table(*to_table), self.table(*from_table));
                let referenced: HashSet<Vec<ValueRef<'_>>> = (0..to.len())
                    .map(|i| to_attrs.iter().map(|a| to.value(i, *a)).collect())
                    .collect();
                for i in 0..from.len() {
                    let key: Vec<ValueRef<'_>> = from_attrs.iter().map(|a| from.value(i, *a)).collect();
                    // SQL MATCH SIMPLE: any NULL component satisfies the FK.
                    if key.iter().any(|v| v.is_null()) {
                        continue;
                    }
                    if !referenced.contains(&key) {
                        out.push(Violation {
                            constraint: c.name.clone(),
                            table: *from_table,
                            row: i,
                            detail: format!(
                                "dangling reference into `{}`",
                                schema.table(*to_table).name
                            ),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DatabaseBuilder;
    use crate::datatype::DataType;

    fn db() -> crate::database::Database {
        DatabaseBuilder::new("test")
            .table("records", |t| {
                t.attr("id", DataType::Integer)
                    .attr("title", DataType::Text)
                    .primary_key(&["id"])
                    .not_null("title")
            })
            .table("tracks", |t| {
                t.attr("record", DataType::Integer)
                    .attr("title", DataType::Text)
                    .foreign_key(&["record"], "records", &["id"])
            })
            .rows("records", vec![vec![1.into(), "A".into()], vec![2.into(), "B".into()]])
            .rows("tracks", vec![vec![1.into(), "x".into()]])
            .build()
            .unwrap()
    }

    #[test]
    fn valid_instance_has_no_violations() {
        let db = db();
        assert!(db.validate().is_empty());
    }

    #[test]
    fn not_null_violation_detected() {
        let mut db = db();
        let t = db.schema.table_id("records").unwrap();
        db.insert_by_name("records", vec![3.into(), Value::Null])
            .unwrap();
        let v = db.validate();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].table, t);
        assert!(v[0].detail.contains("NULL"));
    }

    #[test]
    fn duplicate_pk_detected() {
        let mut db = db();
        db.insert_by_name("records", vec![1.into(), "C".into()])
            .unwrap();
        let v = db.validate();
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("duplicate"));
    }

    #[test]
    fn dangling_fk_detected_and_null_fk_tolerated() {
        let mut db = db();
        db.insert_by_name("tracks", vec![99.into(), "y".into()])
            .unwrap();
        db.insert_by_name("tracks", vec![Value::Null, "z".into()])
            .unwrap();
        let v = db.validate();
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("dangling"));
    }

    #[test]
    fn unique_ignores_nulls() {
        let db = DatabaseBuilder::new("u")
            .table("t", |t| {
                t.attr("x", DataType::Integer).unique(&["x"])
            })
            .rows("t", vec![vec![Value::Null], vec![Value::Null], vec![1.into()]])
            .build()
            .unwrap();
        assert!(db.validate().is_empty());
    }

    #[test]
    fn insert_checks_shape_and_types() {
        let mut db = db();
        assert!(matches!(
            db.insert_by_name("records", vec![1.into()]),
            Err(Error::RowShape { .. })
        ));
        assert!(matches!(
            db.insert_by_name("records", vec!["notint".into(), "T".into()]),
            Err(Error::TypeMismatch { .. })
        ));
    }

    #[test]
    fn from_columns_keeps_the_columns_and_derives_rows() {
        let id = Column::from_cells(vec![1.into(), 2.into()]);
        let title = Column::from_cells(vec!["A".into(), Value::Null]);
        let data = TableData::from_columns(vec![id.clone(), title.clone()]).unwrap();
        assert_eq!(
            data.rows().collect::<Vec<_>>(),
            [vec![Value::Int(1), Value::Text("A".into())], vec![Value::Int(2), Value::Null]]
        );
        // The store is the very column we loaded, and a clone keeps it.
        assert_eq!(data.column_store(AttrId(0)), Some(&id));
        assert_eq!(data.clone().column_store(AttrId(1)), Some(&title));
        assert_eq!(data.value(0, AttrId(1)), ValueRef::Text("A"));
        assert!(data.value(1, AttrId(1)).is_null());
    }

    #[test]
    fn deserialized_tables_take_their_shape_from_the_rows() {
        let ragged = serde_json::from_str::<TableData>(r#"{"rows":[[{"Int":1}],[]]}"#);
        assert!(ragged.is_err());
        // An empty table carries no arity; its first insert shapes it.
        let mut database = db();
        let json = serde_json::to_string(&database.instance).unwrap();
        let mut instance: Instance = serde_json::from_str(&json).unwrap();
        assert_eq!(instance, database.instance);
        let t = database.schema.table_id("tracks").unwrap();
        instance.tables[t.0] = serde_json::from_str(r#"{"rows":[]}"#).unwrap();
        instance.insert(&database.schema, t, vec![2.into(), "y".into()]).unwrap();
        database.instance = instance;
        assert!(database.instance.table(t).rows().eq([vec![Value::Int(2), Value::Text("y".into())]]));
        assert!(database.validate().is_empty());
    }

    #[test]
    fn from_columns_rejects_ragged_lengths() {
        let a = Column::from_cells(vec![1.into(), 2.into()]);
        let b = Column::from_cells(vec![1.into()]);
        assert!(matches!(
            TableData::from_columns(vec![a, b]),
            Err(Error::ColumnShape { expected: 2, actual: 1 })
        ));
    }

    #[test]
    fn load_columns_by_name_checks_arity_and_types() {
        let mut database = db();
        // Wrong arity.
        assert!(matches!(
            database.load_columns_by_name("records", vec![Column::from_cells(vec![1.into()])]),
            Err(Error::RowShape { .. })
        ));
        // Wrong type for `id` (text column into an integer attribute).
        assert!(matches!(
            database.load_columns_by_name(
                "records",
                vec![
                    Column::from_cells(vec!["x".into()]),
                    Column::from_cells(vec!["t".into()]),
                ]
            ),
            Err(Error::TypeMismatch { .. })
        ));
        // A valid load replaces the data wholesale and validates clean.
        database
            .load_columns_by_name(
                "records",
                vec![
                    Column::from_cells(vec![7.into(), 8.into()]),
                    Column::from_cells(vec!["X".into(), "Y".into()]),
                ]
            )
            .unwrap();
        database
            .load_columns_by_name(
                "tracks",
                vec![
                    Column::from_cells(vec![7.into()]),
                    Column::from_cells(vec!["x".into()]),
                ]
            )
            .unwrap();
        let t = database.schema.table_id("records").unwrap();
        assert_eq!(database.instance.table(t).len(), 2);
        assert_eq!(
            database.instance.distinct_values(t, AttrId(0)),
            vec![Value::Int(7), Value::Int(8)]
        );
        assert!(database.validate().is_empty());
    }

    #[test]
    fn distinct_values_skips_nulls_and_dupes() {
        let mut db = db();
        db.insert_by_name("tracks", vec![1.into(), "x".into()])
            .unwrap();
        db.insert_by_name("tracks", vec![Value::Null, "w".into()])
            .unwrap();
        let t = db.schema.table_id("tracks").unwrap();
        let d = db.instance.distinct_values(t, AttrId(0));
        assert_eq!(d, vec![Value::Int(1)]);
    }
}
