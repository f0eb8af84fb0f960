//! The `POST /scenarios` wire format and its streaming parser.
//!
//! A [`ScenarioUpload`] is the JSON document a client sends to register
//! a scenario: source databases, the target database, and the
//! correspondences between them, all referenced *by name* (the wire
//! knows nothing of the crate's integer ids). Table payloads travel
//! either as JSON rows (`"rows": [[1, "a", null], …]`) or as embedded
//! CSV text (`"csv": "id,name\n1,a\n"`).
//!
//! ## Streaming into typed columns
//!
//! Deserialisation never materialises a row-major `Vec<Value>` table:
//! each table's declared attribute list is parsed first, then the
//! payload is walked record by record and every cell is cast to its
//! attribute's declared [`DataType`] and pushed straight into that
//! attribute's [`Column`] ([`Column::push`]). A parsed [`TableUpload`]
//! therefore holds finished typed columns — the only storage
//! [`TableData`](efes_relational::TableData) has — so
//! [`ScenarioUpload::into_scenario`] loads them without copying.
//!
//! ## Fidelity caveats
//!
//! Cells are cast to the *declared* attribute type, so an integer
//! literal in a float column ingests as the float it denotes — which is
//! also what makes JSON round trips exact: JSON cannot distinguish
//! `3.0` from `3`. Two corners do not survive the JSON number format:
//! non-finite floats serialise as `null`, and `-0.0` loses its sign.
//! CSV payloads additionally render empty text cells and NULLs
//! identically, so an empty string ingests as NULL there.

use crate::IngestError;
use efes_relational::{
    AttrRef, Attribute, Column, Constraint, ConstraintKind, ConstraintSet, Correspondence,
    CorrespondenceSet, DataType, Database, IntegrationScenario, Schema, SourceId, Table, Value,
    ValueRef,
};
use serde::{content_get, Content, DeError, Deserialize, Serialize};

/// How [`ScenarioUpload::from_scenario`] renders table payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UploadFormat {
    /// `"rows"`: a JSON array of row arrays. Exact for everything JSON
    /// numbers can carry (see the module docs for the two corners they
    /// cannot).
    #[default]
    JsonRows,
    /// `"csv"`: embedded RFC-4180-subset CSV text. Preserves non-finite
    /// floats (`NaN` parses back) but conflates empty text with NULL.
    Csv,
}

/// One declared attribute of an uploaded table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeUpload {
    /// Attribute name, unique within its table.
    pub name: String,
    /// Declared datatype; every payload cell is cast to it.
    pub datatype: DataType,
}

/// One uploaded table: declared attributes plus payload, already
/// streamed into typed columns (one per attribute, in declaration
/// order) by the parser.
#[derive(Debug, Clone, PartialEq)]
pub struct TableUpload {
    /// Table name, unique within its database.
    pub name: String,
    /// Declared attributes, in order.
    pub attributes: Vec<AttributeUpload>,
    /// The payload as typed columns, position-aligned with
    /// `attributes`. Empty-payload tables hold zero-row columns.
    pub columns: Vec<Column>,
    /// Which payload style the table arrived in (and will serialise
    /// back to).
    pub format: UploadFormat,
}

/// A named integrity constraint on an uploaded database, referencing
/// tables and attributes by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintUpload {
    /// Constraint name; synthesised from the shape when omitted.
    pub name: Option<String>,
    /// What the constraint requires.
    pub kind: ConstraintKindUpload,
}

/// The name-based twin of [`ConstraintKind`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintKindUpload {
    /// `{"primary_key": {"table": …, "attrs": […]}}`
    PrimaryKey {
        /// The constrained table.
        table: String,
        /// The key attributes.
        attrs: Vec<String>,
    },
    /// `{"unique": {"table": …, "attrs": […]}}`
    Unique {
        /// The constrained table.
        table: String,
        /// The unique attribute combination.
        attrs: Vec<String>,
    },
    /// `{"not_null": {"table": …, "attr": …}}`
    NotNull {
        /// The constrained table.
        table: String,
        /// The non-nullable attribute.
        attr: String,
    },
    /// `{"foreign_key": {"table": …, "attrs": […], "references": …,
    /// "referenced_attrs": […]}}`
    ForeignKey {
        /// The referencing table.
        table: String,
        /// The referencing attributes.
        attrs: Vec<String>,
        /// The referenced table.
        references: String,
        /// The referenced attributes, position-aligned with `attrs`.
        referenced_attrs: Vec<String>,
    },
}

/// One uploaded database: tables plus (optional) constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct DatabaseUpload {
    /// Database (schema) name.
    pub name: String,
    /// The tables, in declaration order.
    pub tables: Vec<TableUpload>,
    /// Declared constraints; may be empty.
    pub constraints: Vec<ConstraintUpload>,
}

/// One correspondence, by name. With `source_attr` and `target_attr`
/// both present it is an attribute correspondence; with both absent, a
/// table correspondence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrespondenceUpload {
    /// Index into the upload's `sources` array. Defaults to `0`.
    pub source: usize,
    /// The source table.
    pub source_table: String,
    /// The target table.
    pub target_table: String,
    /// Source attribute, for attribute correspondences.
    pub source_attr: Option<String>,
    /// Target attribute, for attribute correspondences.
    pub target_attr: Option<String>,
}

/// The full `POST /scenarios` document.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioUpload {
    /// Registry name for the scenario (also becomes the scenario's own
    /// name, so estimates against it are labelled consistently).
    pub name: String,
    /// One-line human description shown by `GET /scenarios`.
    pub description: String,
    /// The source databases, in order ([`CorrespondenceUpload::source`]
    /// indexes into this array).
    pub sources: Vec<DatabaseUpload>,
    /// The target database.
    pub target: DatabaseUpload,
    /// Correspondences between sources and target.
    pub correspondences: Vec<CorrespondenceUpload>,
}

// --- parsing helpers ----------------------------------------------------

fn parse_datatype(raw: &str) -> Result<DataType, DeError> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "integer" | "int" => Ok(DataType::Integer),
        "float" | "double" | "real" => Ok(DataType::Float),
        "text" | "string" | "varchar" => Ok(DataType::Text),
        "boolean" | "bool" => Ok(DataType::Boolean),
        other => Err(DeError::unknown_variant("DataType", other)),
    }
}

/// A JSON scalar cell as the [`Value`] it literally denotes, before the
/// declared-type cast.
fn scalar_value(c: &Content) -> Result<Value, DeError> {
    match c {
        Content::Null => Ok(Value::Null),
        Content::Bool(b) => Ok(Value::Bool(*b)),
        Content::I64(i) => Ok(Value::Int(*i)),
        Content::U64(u) => i64::try_from(*u)
            .map(Value::Int)
            .map_err(|_| DeError::custom(format!("integer cell {u} is out of i64 range"))),
        Content::F64(f) => Ok(Value::Float(*f)),
        Content::Str(s) => Ok(Value::Text(s.clone())),
        Content::Seq(_) | Content::Map(_) => {
            Err(DeError::expected("a scalar JSON value for a table cell"))
        }
    }
}

/// Cast one raw cell to its attribute's declared datatype, with full
/// location context on failure.
fn cast_cell(
    table: &str,
    attr: &AttributeUpload,
    row: usize,
    raw: Value,
) -> Result<Value, DeError> {
    attr.datatype.try_cast(&raw).ok_or_else(|| {
        DeError::custom(format!(
            "table `{table}`, attribute `{}`, row {row}: cannot cast {raw:?} to {}",
            attr.name, attr.datatype
        ))
    })
}

/// Walk CSV `text` record by record (record 0 is the header), calling
/// `on_record` with each complete record. Memory stays O(record), never
/// O(table) — this is what lets a large upload stream straight into
/// column builders. Same dialect as `efes_relational::csv::parse`:
/// quoted fields, `""` escapes, `\n` or `\r\n` endings, `,` delimiter.
fn stream_csv(
    text: &str,
    mut on_record: impl FnMut(usize, Vec<String>) -> Result<(), DeError>,
) -> Result<(), DeError> {
    let mut field = String::new();
    let mut record: Vec<String> = Vec::new();
    let mut records = 0usize;
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut chars = text.chars().peekable();

    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    field.push(c);
                    line += 1;
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    if !field.is_empty() {
                        return Err(DeError::custom(format!(
                            "csv line {line}: quote inside unquoted field"
                        )));
                    }
                    in_quotes = true;
                }
                ',' => record.push(std::mem::take(&mut field)),
                '\r' => {}
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    on_record(records, std::mem::take(&mut record))?;
                    records += 1;
                    line += 1;
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(DeError::custom(format!(
            "csv line {line}: unterminated quoted field"
        )));
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        on_record(records, record)?;
        records += 1;
    }
    if records == 0 {
        return Err(DeError::custom("csv payload is empty (no header)"));
    }
    Ok(())
}

/// Quote a CSV field if the dialect requires it.
fn csv_quote(field: &str) -> String {
    if field.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

// --- serde: AttributeUpload ---------------------------------------------

impl Serialize for AttributeUpload {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            (Content::Str("name".into()), Content::Str(self.name.clone())),
            (
                Content::Str("datatype".into()),
                Content::Str(self.datatype.to_string()),
            ),
        ])
    }
}

impl Deserialize for AttributeUpload {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let map = content
            .as_map()
            .ok_or_else(|| DeError::expected("JSON object for `AttributeUpload`"))?;
        let name = match content_get(map, "name") {
            Some(v) => String::from_content(v)?,
            None => return Err(DeError::missing_field("AttributeUpload", "name")),
        };
        let datatype = match content_get(map, "datatype") {
            Some(v) => parse_datatype(
                v.as_str()
                    .ok_or_else(|| DeError::expected("a string datatype name"))?,
            )?,
            None => return Err(DeError::missing_field("AttributeUpload", "datatype")),
        };
        Ok(AttributeUpload { name, datatype })
    }
}

// --- serde: TableUpload -------------------------------------------------

impl Serialize for TableUpload {
    fn to_content(&self) -> Content {
        let mut map = vec![
            (Content::Str("name".into()), Content::Str(self.name.clone())),
            (
                Content::Str("attributes".into()),
                self.attributes.to_content(),
            ),
        ];
        let len = self.columns.first().map(Column::len).unwrap_or(0);
        match self.format {
            UploadFormat::JsonRows => {
                let rows: Vec<Content> = (0..len)
                    .map(|i| {
                        Content::Seq(
                            self.columns
                                .iter()
                                .map(|c| match c.value(i) {
                                    ValueRef::Null => Content::Null,
                                    ValueRef::Int(v) => Content::I64(v),
                                    ValueRef::Float(v) => Content::F64(v),
                                    ValueRef::Text(s) => Content::Str(s.to_owned()),
                                    ValueRef::Bool(b) => Content::Bool(b),
                                })
                                .collect(),
                        )
                    })
                    .collect();
                map.push((Content::Str("rows".into()), Content::Seq(rows)));
            }
            UploadFormat::Csv => {
                let mut text = self
                    .attributes
                    .iter()
                    .map(|a| csv_quote(&a.name))
                    .collect::<Vec<_>>()
                    .join(",");
                text.push('\n');
                for i in 0..len {
                    let rendered = self
                        .columns
                        .iter()
                        .map(|c| csv_quote(&c.value(i).render()))
                        .collect::<Vec<_>>()
                        .join(",");
                    text.push_str(&rendered);
                    text.push('\n');
                }
                map.push((Content::Str("csv".into()), Content::Str(text)));
            }
        }
        Content::Map(map)
    }
}

impl Deserialize for TableUpload {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let map = content
            .as_map()
            .ok_or_else(|| DeError::expected("JSON object for `TableUpload`"))?;
        let name = match content_get(map, "name") {
            Some(v) => String::from_content(v)?,
            None => return Err(DeError::missing_field("TableUpload", "name")),
        };
        let attributes = match content_get(map, "attributes") {
            Some(v) => Vec::<AttributeUpload>::from_content(v)?,
            None => return Err(DeError::missing_field("TableUpload", "attributes")),
        };
        let rows = content_get(map, "rows");
        let csv = content_get(map, "csv");
        if rows.is_some() && csv.is_some() {
            return Err(DeError::custom(format!(
                "table `{name}`: give `rows` or `csv`, not both"
            )));
        }

        let mut columns: Vec<Column> = attributes.iter().map(|_| Column::default()).collect();
        let mut format = UploadFormat::JsonRows;

        if let Some(rows) = rows {
            let rows = rows
                .as_seq()
                .ok_or_else(|| DeError::expected("a JSON array for `rows`"))?;
            for (i, row) in rows.iter().enumerate() {
                let cells = row
                    .as_seq()
                    .ok_or_else(|| DeError::expected("a JSON array for each row"))?;
                if cells.len() != attributes.len() {
                    return Err(DeError::custom(format!(
                        "table `{name}`, row {i}: {} cells, {} attributes declared",
                        cells.len(),
                        attributes.len()
                    )));
                }
                for ((cell, attr), column) in cells.iter().zip(&attributes).zip(&mut columns) {
                    let raw = scalar_value(cell)?;
                    column.push(ValueRef::of(&cast_cell(&name, attr, i, raw)?));
                }
            }
        } else if let Some(csv) = csv {
            format = UploadFormat::Csv;
            let text = csv
                .as_str()
                .ok_or_else(|| DeError::expected("a string for `csv`"))?;
            stream_csv(text, |record, fields| {
                if record == 0 {
                    // Header: must name the declared attributes, in order.
                    let declared: Vec<&str> =
                        attributes.iter().map(|a| a.name.as_str()).collect();
                    if fields != declared {
                        return Err(DeError::custom(format!(
                            "table `{name}`: csv header {fields:?} does not match declared \
                             attributes {declared:?}"
                        )));
                    }
                    return Ok(());
                }
                let row = record - 1;
                if fields.len() != attributes.len() {
                    return Err(DeError::custom(format!(
                        "table `{name}`, csv row {row}: {} fields, {} attributes declared",
                        fields.len(),
                        attributes.len()
                    )));
                }
                for ((field, attr), column) in fields.into_iter().zip(&attributes).zip(&mut columns)
                {
                    let value = if field.is_empty() {
                        Value::Null
                    } else {
                        cast_cell(&name, attr, row, Value::Text(field))?
                    };
                    column.push(ValueRef::of(&value));
                }
                Ok(())
            })?;
        }

        Ok(TableUpload {
            name,
            attributes,
            columns,
            format,
        })
    }
}

// --- serde: ConstraintUpload --------------------------------------------

fn names_content(names: &[String]) -> Content {
    Content::Seq(names.iter().cloned().map(Content::Str).collect())
}

impl Serialize for ConstraintUpload {
    fn to_content(&self) -> Content {
        let mut map = Vec::new();
        if let Some(name) = &self.name {
            map.push((Content::Str("name".into()), Content::Str(name.clone())));
        }
        let (key, body) = match &self.kind {
            ConstraintKindUpload::PrimaryKey { table, attrs } => (
                "primary_key",
                vec![
                    (Content::Str("table".into()), Content::Str(table.clone())),
                    (Content::Str("attrs".into()), names_content(attrs)),
                ],
            ),
            ConstraintKindUpload::Unique { table, attrs } => (
                "unique",
                vec![
                    (Content::Str("table".into()), Content::Str(table.clone())),
                    (Content::Str("attrs".into()), names_content(attrs)),
                ],
            ),
            ConstraintKindUpload::NotNull { table, attr } => (
                "not_null",
                vec![
                    (Content::Str("table".into()), Content::Str(table.clone())),
                    (Content::Str("attr".into()), Content::Str(attr.clone())),
                ],
            ),
            ConstraintKindUpload::ForeignKey {
                table,
                attrs,
                references,
                referenced_attrs,
            } => (
                "foreign_key",
                vec![
                    (Content::Str("table".into()), Content::Str(table.clone())),
                    (Content::Str("attrs".into()), names_content(attrs)),
                    (
                        Content::Str("references".into()),
                        Content::Str(references.clone()),
                    ),
                    (
                        Content::Str("referenced_attrs".into()),
                        names_content(referenced_attrs),
                    ),
                ],
            ),
        };
        map.push((Content::Str(key.into()), Content::Map(body)));
        Content::Map(map)
    }
}

impl Deserialize for ConstraintUpload {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let map = content
            .as_map()
            .ok_or_else(|| DeError::expected("JSON object for `ConstraintUpload`"))?;
        let name = match content_get(map, "name") {
            Some(v) => Some(String::from_content(v)?),
            None => None,
        };
        let body = |key: &str| -> Result<&[(Content, Content)], DeError> {
            content_get(map, key)
                .and_then(Content::as_map)
                .ok_or_else(|| DeError::expected("a JSON object constraint body"))
        };
        let field = |m: &[(Content, Content)], key: &str| -> Result<String, DeError> {
            match content_get(m, key) {
                Some(v) => String::from_content(v),
                None => Err(DeError::missing_field("ConstraintUpload", key)),
            }
        };
        let list = |m: &[(Content, Content)], key: &str| -> Result<Vec<String>, DeError> {
            match content_get(m, key) {
                Some(v) => Vec::<String>::from_content(v),
                None => Err(DeError::missing_field("ConstraintUpload", key)),
            }
        };
        let kind = if content_get(map, "primary_key").is_some() {
            let m = body("primary_key")?;
            ConstraintKindUpload::PrimaryKey {
                table: field(m, "table")?,
                attrs: list(m, "attrs")?,
            }
        } else if content_get(map, "unique").is_some() {
            let m = body("unique")?;
            ConstraintKindUpload::Unique {
                table: field(m, "table")?,
                attrs: list(m, "attrs")?,
            }
        } else if content_get(map, "not_null").is_some() {
            let m = body("not_null")?;
            ConstraintKindUpload::NotNull {
                table: field(m, "table")?,
                attr: field(m, "attr")?,
            }
        } else if content_get(map, "foreign_key").is_some() {
            let m = body("foreign_key")?;
            ConstraintKindUpload::ForeignKey {
                table: field(m, "table")?,
                attrs: list(m, "attrs")?,
                references: field(m, "references")?,
                referenced_attrs: list(m, "referenced_attrs")?,
            }
        } else {
            return Err(DeError::expected(
                "one of `primary_key`, `unique`, `not_null`, `foreign_key`",
            ));
        };
        Ok(ConstraintUpload { name, kind })
    }
}

// --- serde: DatabaseUpload ----------------------------------------------

impl Serialize for DatabaseUpload {
    fn to_content(&self) -> Content {
        let mut map = vec![
            (Content::Str("name".into()), Content::Str(self.name.clone())),
            (Content::Str("tables".into()), self.tables.to_content()),
        ];
        if !self.constraints.is_empty() {
            map.push((
                Content::Str("constraints".into()),
                self.constraints.to_content(),
            ));
        }
        Content::Map(map)
    }
}

impl Deserialize for DatabaseUpload {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let map = content
            .as_map()
            .ok_or_else(|| DeError::expected("JSON object for `DatabaseUpload`"))?;
        let name = match content_get(map, "name") {
            Some(v) => String::from_content(v)?,
            None => return Err(DeError::missing_field("DatabaseUpload", "name")),
        };
        let tables = match content_get(map, "tables") {
            Some(v) => Vec::<TableUpload>::from_content(v)?,
            None => return Err(DeError::missing_field("DatabaseUpload", "tables")),
        };
        let constraints = match content_get(map, "constraints") {
            Some(v) => Vec::<ConstraintUpload>::from_content(v)?,
            None => Vec::new(),
        };
        Ok(DatabaseUpload {
            name,
            tables,
            constraints,
        })
    }
}

// --- serde: CorrespondenceUpload ----------------------------------------

impl Serialize for CorrespondenceUpload {
    fn to_content(&self) -> Content {
        let mut map = vec![
            (Content::Str("source".into()), Content::U64(self.source as u64)),
            (
                Content::Str("source_table".into()),
                Content::Str(self.source_table.clone()),
            ),
            (
                Content::Str("target_table".into()),
                Content::Str(self.target_table.clone()),
            ),
        ];
        if let Some(a) = &self.source_attr {
            map.push((Content::Str("source_attr".into()), Content::Str(a.clone())));
        }
        if let Some(a) = &self.target_attr {
            map.push((Content::Str("target_attr".into()), Content::Str(a.clone())));
        }
        Content::Map(map)
    }
}

impl Deserialize for CorrespondenceUpload {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let map = content
            .as_map()
            .ok_or_else(|| DeError::expected("JSON object for `CorrespondenceUpload`"))?;
        let source = match content_get(map, "source") {
            Some(v) => usize::from_content(v)?,
            None => 0,
        };
        let source_table = match content_get(map, "source_table") {
            Some(v) => String::from_content(v)?,
            None => return Err(DeError::missing_field("CorrespondenceUpload", "source_table")),
        };
        let target_table = match content_get(map, "target_table") {
            Some(v) => String::from_content(v)?,
            None => return Err(DeError::missing_field("CorrespondenceUpload", "target_table")),
        };
        let source_attr = match content_get(map, "source_attr") {
            Some(v) => Some(String::from_content(v)?),
            None => None,
        };
        let target_attr = match content_get(map, "target_attr") {
            Some(v) => Some(String::from_content(v)?),
            None => None,
        };
        Ok(CorrespondenceUpload {
            source,
            source_table,
            target_table,
            source_attr,
            target_attr,
        })
    }
}

// --- serde: ScenarioUpload ----------------------------------------------

impl Serialize for ScenarioUpload {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            (Content::Str("name".into()), Content::Str(self.name.clone())),
            (
                Content::Str("description".into()),
                Content::Str(self.description.clone()),
            ),
            (Content::Str("sources".into()), self.sources.to_content()),
            (Content::Str("target".into()), self.target.to_content()),
            (
                Content::Str("correspondences".into()),
                self.correspondences.to_content(),
            ),
        ])
    }
}

impl Deserialize for ScenarioUpload {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let map = content
            .as_map()
            .ok_or_else(|| DeError::expected("JSON object for `ScenarioUpload`"))?;
        let name = match content_get(map, "name") {
            Some(v) => String::from_content(v)?,
            None => return Err(DeError::missing_field("ScenarioUpload", "name")),
        };
        let description = match content_get(map, "description") {
            Some(v) => String::from_content(v)?,
            None => String::new(),
        };
        let sources = match content_get(map, "sources") {
            Some(v) => Vec::<DatabaseUpload>::from_content(v)?,
            None => return Err(DeError::missing_field("ScenarioUpload", "sources")),
        };
        let target = match content_get(map, "target") {
            Some(v) => DatabaseUpload::from_content(v)?,
            None => return Err(DeError::missing_field("ScenarioUpload", "target")),
        };
        let correspondences = match content_get(map, "correspondences") {
            Some(v) => Vec::<CorrespondenceUpload>::from_content(v)?,
            None => Vec::new(),
        };
        Ok(ScenarioUpload {
            name,
            description,
            sources,
            target,
            correspondences,
        })
    }
}

// --- assembly -----------------------------------------------------------

impl DatabaseUpload {
    /// Assemble the database: build the schema, resolve constraint names
    /// to ids, and load the typed columns without copying them.
    ///
    /// Declared constraints are *not* validated against the data —
    /// sources legitimately ship dirt (that is the whole point of
    /// estimating cleaning effort), and the synthetic generator's
    /// sources do too.
    fn into_database(self) -> Result<Database, IngestError> {
        let mut schema = Schema::new(&self.name);
        for t in &self.tables {
            let attrs = t
                .attributes
                .iter()
                .map(|a| Attribute::new(&a.name, a.datatype))
                .collect();
            schema.add_table(Table::new(&t.name, attrs)).map_err(|e| {
                IngestError::new(format!("database `{}`: {e}", self.name))
            })?;
        }
        let mut constraints = ConstraintSet::new();
        for c in &self.constraints {
            let (name, kind) = c.resolve(&self.name, &schema)?;
            let constraint = Constraint::new(name, kind);
            constraint.check_against(&schema).map_err(|e| {
                IngestError::new(format!("database `{}`: {e}", self.name))
            })?;
            constraints.push(constraint);
        }
        let mut db = Database::new(schema, constraints);
        for t in self.tables {
            db.load_columns_by_name(&t.name, t.columns).map_err(|e| {
                IngestError::new(format!(
                    "database `{}`, table `{}`: {e}",
                    self.name, t.name
                ))
            })?;
        }
        Ok(db)
    }

    /// The upload form of an assembled database, for clients and tests.
    pub fn from_database(db: &Database, format: UploadFormat) -> Self {
        let tables = db
            .schema
            .tables()
            .iter()
            .enumerate()
            .map(|(ti, t)| {
                let data = db.instance.table(efes_relational::TableId(ti));
                let columns: Vec<Column> = (0..t.arity())
                    .map(|ai| {
                        data.column_store(efes_relational::AttrId(ai))
                            .cloned()
                            .unwrap_or_default()
                    })
                    .collect();
                TableUpload {
                    name: t.name.clone(),
                    attributes: t
                        .attributes
                        .iter()
                        .map(|a| AttributeUpload {
                            name: a.name.clone(),
                            datatype: a.datatype,
                        })
                        .collect(),
                    columns,
                    format,
                }
            })
            .collect();
        let table_name = |id: efes_relational::TableId| db.schema.table(id).name.clone();
        let attr_names = |id: efes_relational::TableId, attrs: &[efes_relational::AttrId]| {
            attrs
                .iter()
                .map(|a| db.schema.table(id).attribute(*a).name.clone())
                .collect::<Vec<_>>()
        };
        let constraints = db
            .constraints
            .iter()
            .map(|c| ConstraintUpload {
                name: Some(c.name.clone()),
                kind: match &c.kind {
                    ConstraintKind::PrimaryKey { table, attrs } => {
                        ConstraintKindUpload::PrimaryKey {
                            table: table_name(*table),
                            attrs: attr_names(*table, attrs),
                        }
                    }
                    ConstraintKind::Unique { table, attrs } => ConstraintKindUpload::Unique {
                        table: table_name(*table),
                        attrs: attr_names(*table, attrs),
                    },
                    ConstraintKind::NotNull { table, attr } => ConstraintKindUpload::NotNull {
                        table: table_name(*table),
                        attr: db.schema.table(*table).attribute(*attr).name.clone(),
                    },
                    ConstraintKind::ForeignKey {
                        from_table,
                        from_attrs,
                        to_table,
                        to_attrs,
                    } => ConstraintKindUpload::ForeignKey {
                        table: table_name(*from_table),
                        attrs: attr_names(*from_table, from_attrs),
                        references: table_name(*to_table),
                        referenced_attrs: attr_names(*to_table, to_attrs),
                    },
                },
            })
            .collect();
        DatabaseUpload {
            name: db.name().to_owned(),
            tables,
            constraints,
        }
    }
}

impl ConstraintUpload {
    fn resolve(
        &self,
        db: &str,
        schema: &Schema,
    ) -> Result<(String, ConstraintKind), IngestError> {
        let table_id = |name: &str| {
            schema.table_id(name).ok_or_else(|| {
                IngestError::new(format!(
                    "database `{db}`: constraint references unknown table `{name}`"
                ))
            })
        };
        let attr_id = |tid: efes_relational::TableId, name: &str| {
            schema.table(tid).attr_id(name).ok_or_else(|| {
                IngestError::new(format!(
                    "database `{db}`: constraint references unknown attribute `{}.{name}`",
                    schema.table(tid).name
                ))
            })
        };
        let attr_ids = |tid: efes_relational::TableId, names: &[String]| {
            names
                .iter()
                .map(|n| attr_id(tid, n))
                .collect::<Result<Vec<_>, _>>()
        };
        Ok(match &self.kind {
            ConstraintKindUpload::PrimaryKey { table, attrs } => {
                let t = table_id(table)?;
                let name = self
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("{table}_pk"));
                (name, ConstraintKind::PrimaryKey { table: t, attrs: attr_ids(t, attrs)? })
            }
            ConstraintKindUpload::Unique { table, attrs } => {
                let t = table_id(table)?;
                let name = self
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("{table}_{}_unique", attrs.join("_")));
                (name, ConstraintKind::Unique { table: t, attrs: attr_ids(t, attrs)? })
            }
            ConstraintKindUpload::NotNull { table, attr } => {
                let t = table_id(table)?;
                let name = self
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("{table}_{attr}_not_null"));
                (name, ConstraintKind::NotNull { table: t, attr: attr_id(t, attr)? })
            }
            ConstraintKindUpload::ForeignKey {
                table,
                attrs,
                references,
                referenced_attrs,
            } => {
                let from = table_id(table)?;
                let to = table_id(references)?;
                let name = self
                    .name
                    .clone()
                    .unwrap_or_else(|| format!("{table}_{}_fk", attrs.join("_")));
                (
                    name,
                    ConstraintKind::ForeignKey {
                        from_table: from,
                        from_attrs: attr_ids(from, attrs)?,
                        to_table: to,
                        to_attrs: attr_ids(to, referenced_attrs)?,
                    },
                )
            }
        })
    }
}

impl ScenarioUpload {
    /// Parse an upload document from raw request bytes.
    pub fn parse(bytes: &[u8]) -> Result<Self, IngestError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| IngestError::new("request body is not valid UTF-8"))?;
        serde_json::from_str::<ScenarioUpload>(text)
            .map_err(|e| IngestError::new(format!("invalid upload document: {e}")))
    }

    /// Assemble the full [`IntegrationScenario`]: databases, resolved
    /// correspondences, and the scenario-level well-formedness check.
    /// The upload's `name` becomes the scenario's name.
    pub fn into_scenario(self) -> Result<IntegrationScenario, IngestError> {
        if self.sources.is_empty() {
            return Err(IngestError::new("upload declares no source databases"));
        }
        let n_sources = self.sources.len();
        let sources: Vec<Database> = self
            .sources
            .into_iter()
            .map(DatabaseUpload::into_database)
            .collect::<Result<_, _>>()?;
        let target = self.target.into_database()?;
        let mut correspondences = CorrespondenceSet::new();
        for (i, c) in self.correspondences.iter().enumerate() {
            if c.source >= n_sources {
                return Err(IngestError::new(format!(
                    "correspondence {i}: source index {} out of range ({n_sources} sources)",
                    c.source
                )));
            }
            let src_schema = &sources[c.source].schema;
            let st = src_schema.table_id(&c.source_table).ok_or_else(|| {
                IngestError::new(format!(
                    "correspondence {i}: unknown source table `{}`",
                    c.source_table
                ))
            })?;
            let tt = target.schema.table_id(&c.target_table).ok_or_else(|| {
                IngestError::new(format!(
                    "correspondence {i}: unknown target table `{}`",
                    c.target_table
                ))
            })?;
            match (&c.source_attr, &c.target_attr) {
                (None, None) => correspondences.push(Correspondence::Table {
                    source: SourceId(c.source),
                    source_table: st,
                    target_table: tt,
                }),
                (Some(sa), Some(ta)) => {
                    let said = src_schema.table(st).attr_id(sa).ok_or_else(|| {
                        IngestError::new(format!(
                            "correspondence {i}: unknown source attribute `{}.{sa}`",
                            c.source_table
                        ))
                    })?;
                    let taid = target.schema.table(tt).attr_id(ta).ok_or_else(|| {
                        IngestError::new(format!(
                            "correspondence {i}: unknown target attribute `{}.{ta}`",
                            c.target_table
                        ))
                    })?;
                    correspondences.push(Correspondence::Attribute {
                        source: SourceId(c.source),
                        source_attr: AttrRef { table: st, attr: said },
                        target_attr: AttrRef { table: tt, attr: taid },
                    });
                }
                _ => {
                    return Err(IngestError::new(format!(
                        "correspondence {i}: `source_attr` and `target_attr` must be given \
                         together (or both omitted for a table correspondence)"
                    )))
                }
            }
        }
        IntegrationScenario::multi_source(self.name, sources, target, correspondences)
            .map_err(|e| IngestError::new(format!("scenario is not well-formed: {e}")))
    }

    /// The upload form of an existing scenario — how test harnesses, the
    /// CI smoke job, and the example client produce upload documents.
    pub fn from_scenario(scenario: &IntegrationScenario, format: UploadFormat) -> Self {
        let mut correspondences = Vec::new();
        for c in scenario.correspondences.iter() {
            let src = &scenario.sources[c.source().0].schema;
            correspondences.push(match c {
                Correspondence::Table {
                    source,
                    source_table,
                    target_table,
                } => CorrespondenceUpload {
                    source: source.0,
                    source_table: src.table(*source_table).name.clone(),
                    target_table: scenario.target.schema.table(*target_table).name.clone(),
                    source_attr: None,
                    target_attr: None,
                },
                Correspondence::Attribute {
                    source,
                    source_attr,
                    target_attr,
                } => CorrespondenceUpload {
                    source: source.0,
                    source_table: src.table(source_attr.table).name.clone(),
                    target_table: scenario
                        .target
                        .schema
                        .table(target_attr.table)
                        .name
                        .clone(),
                    source_attr: Some(
                        src.table(source_attr.table)
                            .attribute(source_attr.attr)
                            .name
                            .clone(),
                    ),
                    target_attr: Some(
                        scenario
                            .target
                            .schema
                            .table(target_attr.table)
                            .attribute(target_attr.attr)
                            .name
                            .clone(),
                    ),
                },
            });
        }
        ScenarioUpload {
            name: scenario.name.clone(),
            description: String::new(),
            sources: scenario
                .sources
                .iter()
                .map(|db| DatabaseUpload::from_database(db, format))
                .collect(),
            target: DatabaseUpload::from_database(&scenario.target, format),
            correspondences,
        }
    }
}
