//! Database instances (the data) and constraint validation.

use crate::column::{Column, ColumnIter, ValueRef};
use crate::constraint::{Constraint, ConstraintKind, ConstraintSet};
use crate::error::{Error, Result};
use crate::schema::{AttrId, Schema, TableId};
use crate::value::Value;
use serde::{content_get, Content, DeError, Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// One tuple of a relation.
pub type Row = Vec<Value>;

/// The data of a single table, held in whichever representation it
/// arrived in — row-major rows or typed [`Column`]s — with the other
/// derived lazily, at most once.
///
/// Row-built tables (inserts, CSV loads, deserialization) keep rows as
/// the source of truth and build their columnar mirror on first columnar
/// read, per attribute. Column-built tables
/// ([`TableData::from_columns`], the generators and the ingest path)
/// keep the typed columns as the source of truth and derive the
/// row-major view only if a row-shaped consumer (constraint validation,
/// serialization) actually asks — the inverse relationship, so streaming
/// ingest never pays a row-major detour. At least one representation is
/// always present. Mutation through [`Instance::insert`] materialises
/// rows and invalidates the columnar cache wholesale — the workload is
/// load-then-analyse, so rebuilds are rare.
#[derive(Debug)]
pub struct TableData {
    rows: OnceLock<Vec<Row>>,
    /// Per-attribute typed columns. Outer cell resolves the table's
    /// arity, inner cells build one column each, so a consumer touching
    /// one attribute does not pay for the others. For column-built
    /// tables every inner cell is pre-seeded.
    columns: OnceLock<Vec<OnceLock<Column>>>,
}

impl Default for TableData {
    fn default() -> Self {
        TableData::from_rows(Vec::new())
    }
}

impl Clone for TableData {
    fn clone(&self) -> Self {
        match self.rows.get() {
            // Row-primary: the columnar mirror is a pure cache; a clone
            // rebuilds it on first use instead of copying arenas.
            Some(rows) => TableData::from_rows(rows.clone()),
            // Column-primary: the columns are the source of truth; clone
            // them and leave the row view lazy.
            None => {
                let slots: Vec<OnceLock<Column>> = self
                    .column_slots()
                    .iter()
                    .map(|slot| {
                        OnceLock::from(slot.get().expect("column-primary slots are set").clone())
                    })
                    .collect();
                let data = TableData {
                    rows: OnceLock::new(),
                    columns: OnceLock::new(),
                };
                let _ = data.columns.set(slots);
                data
            }
        }
    }
}

/// Cell equality under [`Value`] semantics: floats compare by
/// [`f64::total_cmp`] (NaN equals NaN, `-0.0` differs from `0.0`),
/// cross-variant cells are never equal.
fn cell_eq(a: ValueRef<'_>, b: ValueRef<'_>) -> bool {
    match (a, b) {
        (ValueRef::Float(x), ValueRef::Float(y)) => x.total_cmp(&y).is_eq(),
        _ => a == b,
    }
}

impl PartialEq for TableData {
    fn eq(&self, other: &Self) -> bool {
        // When both sides are column-primary (the dedup-check hot case),
        // compare cell-wise through the columns without materialising a
        // row in sight; any row-primary side falls back to the row
        // comparison, deriving the other side's rows if needed.
        if self.rows.get().is_none() && other.rows.get().is_none() {
            if self.len() != other.len() {
                return false;
            }
            let (a, b) = (self.column_slots(), other.column_slots());
            if self.is_empty() {
                // No cells to compare; arity is unobservable through
                // rows, matching the row-major `[] == []`.
                return true;
            }
            if a.len() != b.len() {
                return false;
            }
            return a.iter().zip(b).all(|(sa, sb)| {
                let (ca, cb) = (sa.get().unwrap(), sb.get().unwrap());
                (0..ca.len()).all(|i| cell_eq(ca.value(i), cb.value(i)))
            });
        }
        self.rows() == other.rows()
    }
}

impl Eq for TableData {}

// Hand-written to keep the wire format of the old `#[derive]` on the
// row-major field — `{"rows": [...]}` — regardless of which
// representation is primary. Serializing a column-built table derives
// its rows first (golden scenario dumps are row-shaped and must stay
// byte-identical); deserialization always lands row-primary.
impl Serialize for TableData {
    fn to_content(&self) -> Content {
        Content::Map(vec![(
            Content::Str("rows".into()),
            self.rows().to_content(),
        )])
    }
}

impl Deserialize for TableData {
    fn from_content(content: &Content) -> std::result::Result<Self, DeError> {
        let map = content
            .as_map()
            .ok_or_else(|| DeError::expected("JSON object for `TableData`"))?;
        match content_get(map, "rows") {
            Some(v) => Ok(TableData::from_rows(Vec::<Row>::from_content(v)?)),
            None => Err(DeError::missing_field("TableData", "rows")),
        }
    }
}

impl TableData {
    /// Empty table data.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build row-primary table data (row shape is checked by the
    /// callers that have a schema in hand, e.g. [`Instance::insert`]).
    pub fn from_rows(rows: Vec<Row>) -> Self {
        TableData {
            rows: OnceLock::from(rows),
            columns: OnceLock::new(),
        }
    }

    /// Build column-primary table data from pre-built typed columns, one
    /// per attribute.
    ///
    /// The columns *are* the data: no row-major copy is made, and none
    /// ever will be unless a row-shaped consumer asks ([`TableData::rows`]
    /// derives them lazily, at most once). Because [`Column::from_cells`]
    /// / [`crate::ColumnBuilder`] and the lazy rebuild share one build
    /// core, a column loaded here is indistinguishable from one rebuilt
    /// off derived rows.
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
        let data = TableData {
            rows: OnceLock::new(),
            columns: OnceLock::new(),
        };
        let slots: Vec<OnceLock<Column>> = columns.into_iter().map(OnceLock::from).collect();
        let _ = data.columns.set(slots);
        Ok(data)
    }

    /// The column slots of a column-primary table (invariant: when rows
    /// are unset, the slots exist and are all seeded).
    fn column_slots(&self) -> &[OnceLock<Column>] {
        self.columns
            .get()
            .expect("TableData invariant: rows or columns are set")
    }

    /// Append a row (shape is checked by [`Instance::insert`]).
    ///
    /// Materialises the row view if the table was column-built, then
    /// invalidates the columnar cache wholesale.
    fn push(&mut self, row: Row) {
        self.rows();
        self.rows
            .get_mut()
            .expect("rows were just materialised")
            .push(row);
        self.columns = OnceLock::new();
    }

    /// All rows in insertion order, deriving them from the columns (at
    /// most once) for column-built tables.
    pub fn rows(&self) -> &[Row] {
        self.rows.get_or_init(|| {
            let slots = self.column_slots();
            let cols: Vec<&Column> = slots
                .iter()
                .map(|s| s.get().expect("column-primary slots are set"))
                .collect();
            let len = cols.first().map(|c| c.len()).unwrap_or(0);
            (0..len)
                .map(|i| cols.iter().map(|c| c.value(i).to_value()).collect())
                .collect()
        })
    }

    /// Number of rows (without materialising either representation).
    pub fn len(&self) -> usize {
        match self.rows.get() {
            Some(rows) => rows.len(),
            None => self
                .column_slots()
                .first()
                .map(|s| s.get().expect("column-primary slots are set").len())
                .unwrap_or(0),
        }
    }

    /// `true` iff the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed columnar store of one attribute, building (and caching)
    /// it on first access. `None` for out-of-range attributes and for
    /// row-built tables that hold no rows (an empty row-major table has
    /// unknowable arity).
    pub fn column_store(&self, attr: AttrId) -> Option<&Column> {
        let slots = match self.columns.get() {
            Some(slots) => slots,
            None => {
                let arity = self
                    .rows
                    .get()
                    .expect("TableData invariant: rows or columns are set")
                    .first()
                    .map(Vec::len)?;
                self.columns
                    .get_or_init(|| (0..arity).map(|_| OnceLock::new()).collect())
            }
        };
        slots
            .get(attr.0)
            .map(|slot| slot.get_or_init(|| Column::build(self.rows(), attr.0)))
    }

    /// Iterate over the values of one column, in row order, from the
    /// columnar store.
    pub fn column(&self, attr: AttrId) -> ColumnIter<'_> {
        match self.column_store(attr) {
            Some(col) => col.iter(),
            None => Column::empty().iter(),
        }
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
            tables: (0..schema.table_count()).map(|_| TableData::new()).collect(),
        }
    }

    /// Insert a row after checking arity and declared types against
    /// `schema`.
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
        self.tables[table.0].push(row);
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
                Column::Mixed(cells) => cells.iter().all(|v| attr.datatype.admits(v)),
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
                for (i, row) in self.table(*table).rows().iter().enumerate() {
                    if row[attr.0].is_null() {
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
                let mut seen: HashMap<Vec<&Value>, usize> = HashMap::new();
                for (i, row) in self.table(*table).rows().iter().enumerate() {
                    let key: Vec<&Value> = attrs.iter().map(|a| &row[a.0]).collect();
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
                let referenced: HashSet<Vec<&Value>> = self
                    .table(*to_table)
                    .rows()
                    .iter()
                    .map(|row| to_attrs.iter().map(|a| &row[a.0]).collect())
                    .collect();
                for (i, row) in self.table(*from_table).rows().iter().enumerate() {
                    let key: Vec<&Value> = from_attrs.iter().map(|a| &row[a.0]).collect();
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
    fn from_columns_derives_rows_and_seeds_cache() {
        let id = Column::from_cells(vec![1.into(), 2.into()]);
        let title = Column::from_cells(vec!["A".into(), Value::Null]);
        let data = TableData::from_columns(vec![id.clone(), title.clone()]).unwrap();
        assert_eq!(
            data.rows(),
            &[vec![Value::Int(1), Value::Text("A".into())], vec![Value::Int(2), Value::Null]]
        );
        // The cache is pre-seeded: the store is the very column we loaded.
        assert_eq!(data.column_store(AttrId(0)), Some(&id));
        assert_eq!(data.column_store(AttrId(1)), Some(&title));
        // And it equals what a lazy rebuild from the rows would produce.
        let rebuilt = data.clone();
        assert_eq!(rebuilt.column_store(AttrId(1)), Some(&title));
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
