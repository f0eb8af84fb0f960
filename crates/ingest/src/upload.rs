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
//! [`ScenarioUpload::parse`] walks the request bytes with a pull reader
//! and never builds a tree of the document: each table's declared
//! attribute list is read first, then the payload is walked record by
//! record and every cell is cast to its attribute's declared
//! [`DataType`] and pushed straight into that attribute's [`Column`]
//! ([`Column::push`]). A number goes in without an owned [`Value`], a
//! text cell borrowed from the body unless it holds an escape; a `csv`
//! payload is unescaped once and split into fields borrowed from that
//! copy. Only a cell of another type than its column (a number in a text
//! column, text in a number column, …) builds a [`Value`] for
//! [`DataType::try_cast`]. The small objects — attributes, constraints,
//! correspondences — go through `serde_json` from the text they span.
//! Besides the body, a parse therefore holds the growing columns and at
//! most one unescaped CSV payload. A parsed [`TableUpload`] holds
//! finished typed columns — the only storage
//! [`TableData`](efes_relational::TableData) has — so
//! [`ScenarioUpload::into_scenario`] loads them without copying.
//!
//! Keys may come in any order: a payload met before its table's name and
//! attributes is checked, noted, and streamed once they are known. A
//! repeated key keeps its first value; later ones are checked for syntax
//! only. Arrays and objects nest at most 127 deep.
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

use crate::json::{Reader, Scalar, Span};
use crate::IngestError;
use efes_relational::{
    AttrRef, Attribute, Column, Constraint, ConstraintKind, ConstraintSet, Correspondence,
    CorrespondenceSet, DataType, Database, IntegrationScenario, Schema, SourceId, Table, Value,
    ValueRef,
};
use serde::{content_get, Content, DeError, Deserialize, Serialize};
use std::borrow::Cow;
use std::ops::Range;

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

/// The error for a cell that does not cast to its attribute's declared
/// type, with full location context.
fn cast_error(table: &str, attr: &AttributeUpload, row: usize, raw: &Value) -> DeError {
    DeError::custom(format!(
        "table `{table}`, attribute `{}`, row {row}: cannot cast {raw:?} to {}",
        attr.name, attr.datatype
    ))
}

/// Push a text payload (a JSON string cell or a non-empty CSV field)
/// into its column, cast to the attribute's declared type; text stays
/// borrowed until the column's dictionary copies it.
fn push_text(
    column: &mut Column,
    table: &str,
    attr: &AttributeUpload,
    row: usize,
    text: &str,
) -> Result<(), DeError> {
    let cell = attr
        .datatype
        .cast_text(text)
        .ok_or_else(|| cast_error(table, attr, row, &Value::Text(text.to_owned())))?;
    column.push(cell);
    Ok(())
}

/// Push one JSON cell into its column, cast to the attribute's declared
/// type as [`DataType::try_cast`] casts the [`Value`] the cell denotes.
/// A cell of its column's own type, or an integer in a float column,
/// goes in directly; only the other casts build that [`Value`].
fn push_cell(
    column: &mut Column,
    table: &str,
    attr: &AttributeUpload,
    row: usize,
    cell: Scalar<'_>,
) -> Result<(), DeError> {
    let raw = match cell {
        Scalar::Null => ValueRef::Null,
        Scalar::Bool(b) => ValueRef::Bool(b),
        Scalar::I64(i) => ValueRef::Int(i),
        Scalar::U64(u) => ValueRef::Int(i64::try_from(u).map_err(|_| {
            DeError::custom(format!("integer cell {u} is out of i64 range"))
        })?),
        Scalar::F64(f) => ValueRef::Float(f),
        Scalar::Str(text) => return push_text(column, table, attr, row, &text),
    };
    match (attr.datatype, raw) {
        (_, ValueRef::Null)
        | (DataType::Integer, ValueRef::Int(_))
        | (DataType::Float, ValueRef::Float(_))
        | (DataType::Boolean, ValueRef::Bool(_)) => column.push(raw),
        (DataType::Float, ValueRef::Int(i)) => column.push(ValueRef::Float(i as f64)),
        (datatype, _) => {
            let raw = raw.to_value();
            let cast = datatype
                .try_cast(&raw)
                .ok_or_else(|| cast_error(table, attr, row, &raw))?;
            column.push(ValueRef::of(&cast));
        }
    }
    Ok(())
}

/// One CSV field as it is read: a run of the text, copied out only when
/// a skipped byte — the second quote of a `""` escape, a `\r`, the quote
/// closing a field that text follows — breaks the run.
#[derive(Default)]
struct Field {
    copied: Option<String>,
    run: Range<usize>,
}

impl Field {
    /// Append `text[at..to]`.
    fn push(&mut self, text: &str, at: usize, to: usize) {
        if at == to {
            return;
        }
        if self.run.is_empty() {
            self.run = at..to;
        } else if self.run.end == at {
            self.run.end = to;
        } else {
            self.copied
                .get_or_insert_with(String::new)
                .push_str(&text[self.run.clone()]);
            self.run = at..to;
        }
    }

    fn is_empty(&self) -> bool {
        self.run.is_empty() && self.copied.as_ref().is_none_or(String::is_empty)
    }

    /// The field's text, leaving the field empty.
    fn take<'t>(&mut self, text: &'t str) -> Cow<'t, str> {
        let run = &text[std::mem::take(&mut self.run)];
        match self.copied.take() {
            None => Cow::Borrowed(run),
            Some(mut copied) => {
                copied.push_str(run);
                Cow::Owned(copied)
            }
        }
    }
}

/// Walk CSV `text` record by record (record 0 is the header), calling
/// `on_record` with each complete record's fields. Fields borrow `text`
/// (only a quoted field holding a `""` escape is copied) and one field
/// buffer serves every record, so the walk allocates O(record) beyond
/// the text. Same dialect as `efes_relational::csv::parse`: quoted
/// fields, `""` escapes, `\n` or `\r\n` endings, `,` delimiter; a `\r`
/// outside quotes is dropped.
fn stream_csv<'t>(
    text: &'t str,
    mut on_record: impl FnMut(usize, &[Cow<'t, str>]) -> Result<(), DeError>,
) -> Result<(), DeError> {
    let bytes = text.as_bytes();
    let mut field = Field::default();
    let mut record: Vec<Cow<'t, str>> = Vec::new();
    let mut records = 0usize;
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut i = 0;
    while i < bytes.len() {
        let mut rest = bytes[i..].iter();
        let found = if in_quotes {
            rest.position(|&b| b == b'"' || b == b'\n')
        } else {
            rest.position(|&b| matches!(b, b'"' | b',' | b'\r' | b'\n'))
        };
        let at = found.map_or(bytes.len(), |n| i + n);
        field.push(text, i, at);
        i = at + 1;
        let Some(&b) = bytes.get(at) else { break };
        match (in_quotes, b) {
            (true, b'"') if bytes.get(i) == Some(&b'"') => {
                field.push(text, at, i);
                i += 1;
            }
            (true, b'"') => in_quotes = false,
            (true, _) => {
                field.push(text, at, i);
                line += 1;
            }
            (false, b'"') => {
                if !field.is_empty() {
                    return Err(DeError::custom(format!(
                        "csv line {line}: quote inside unquoted field"
                    )));
                }
                in_quotes = true;
            }
            (false, b',') => record.push(field.take(text)),
            (false, b'\r') => {}
            (false, _) => {
                record.push(field.take(text));
                on_record(records, &record)?;
                record.clear();
                records += 1;
                line += 1;
            }
        }
    }
    if in_quotes {
        return Err(DeError::custom(format!(
            "csv line {line}: unterminated quoted field"
        )));
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field.take(text));
        on_record(records, &record)?;
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

// --- the streaming parser -----------------------------------------------

/// Read an array whose elements `item` reads.
fn read_seq<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, DeError>,
) -> Result<Vec<T>, DeError> {
    let mut items = r.array("sequence")?;
    let mut out = Vec::new();
    while items.next(r)? {
        out.push(item(r)?);
    }
    Ok(out)
}

/// Read a small value (attributes, constraints, correspondences) through
/// `serde_json` and its `Content` model, from the text the value spans.
fn read_small<T: Deserialize>(r: &mut Reader<'_>) -> Result<T, DeError> {
    let span = r.skip_value()?;
    serde_json::from_str(r.slice(span)).map_err(|e| DeError::custom(e.to_string()))
}

fn read_string(r: &mut Reader<'_>) -> Result<String, DeError> {
    r.string("string").map(Cow::into_owned)
}

fn read_scenario(r: &mut Reader<'_>) -> Result<ScenarioUpload, DeError> {
    let (mut name, mut description, mut sources, mut target, mut correspondences) =
        (None, None, None, None, None);
    let mut keys = r.object("JSON object for `ScenarioUpload`")?;
    while let Some(key) = keys.next_key(r)? {
        match &*key {
            "name" if name.is_none() => name = Some(read_string(r)?),
            "description" if description.is_none() => description = Some(read_string(r)?),
            "sources" if sources.is_none() => sources = Some(read_seq(r, read_database)?),
            "target" if target.is_none() => target = Some(read_database(r)?),
            "correspondences" if correspondences.is_none() => {
                correspondences = Some(read_small(r)?)
            }
            _ => {
                r.skip_value()?;
            }
        }
    }
    Ok(ScenarioUpload {
        name: name.ok_or_else(|| DeError::missing_field("ScenarioUpload", "name"))?,
        description: description.unwrap_or_default(),
        sources: sources.ok_or_else(|| DeError::missing_field("ScenarioUpload", "sources"))?,
        target: target.ok_or_else(|| DeError::missing_field("ScenarioUpload", "target"))?,
        correspondences: correspondences.unwrap_or_default(),
    })
}

fn read_database(r: &mut Reader<'_>) -> Result<DatabaseUpload, DeError> {
    let (mut name, mut tables, mut constraints) = (None, None, None);
    let mut keys = r.object("JSON object for `DatabaseUpload`")?;
    while let Some(key) = keys.next_key(r)? {
        match &*key {
            "name" if name.is_none() => name = Some(read_string(r)?),
            "tables" if tables.is_none() => tables = Some(read_seq(r, read_table)?),
            "constraints" if constraints.is_none() => constraints = Some(read_small(r)?),
            _ => {
                r.skip_value()?;
            }
        }
    }
    Ok(DatabaseUpload {
        name: name.ok_or_else(|| DeError::missing_field("DatabaseUpload", "name"))?,
        tables: tables.ok_or_else(|| DeError::missing_field("DatabaseUpload", "tables"))?,
        constraints: constraints.unwrap_or_default(),
    })
}

/// A table's payload as the walk meets it: streamed into columns if the
/// table's name and attributes came first (the order
/// `serde_json::to_string` writes), else where it lies, to be streamed
/// once they are known.
enum Payload {
    Streamed(Vec<Column>),
    Deferred(Span),
}

fn read_table(r: &mut Reader<'_>) -> Result<TableUpload, DeError> {
    let mut name: Option<String> = None;
    let mut attributes: Option<Vec<AttributeUpload>> = None;
    let mut payload: Option<(UploadFormat, Payload)> = None;
    let mut both = false;
    let mut keys = r.object("JSON object for `TableUpload`")?;
    while let Some(key) = keys.next_key(r)? {
        match &*key {
            "name" if name.is_none() => name = Some(read_string(r)?),
            "attributes" if attributes.is_none() => attributes = Some(read_small(r)?),
            "rows" | "csv" => {
                let format = if key == "rows" {
                    UploadFormat::JsonRows
                } else {
                    UploadFormat::Csv
                };
                let first = payload.as_ref().map(|(format, _)| *format);
                match (first, &name, &attributes) {
                    (None, Some(name), Some(attributes)) => {
                        let columns = stream(r, format, name, attributes)?;
                        payload = Some((format, Payload::Streamed(columns)));
                    }
                    (None, _, _) => payload = Some((format, Payload::Deferred(r.skip_value()?))),
                    (Some(first), _, _) => {
                        both |= first != format;
                        r.skip_value()?;
                    }
                }
            }
            _ => {
                r.skip_value()?;
            }
        }
    }
    let name = name.ok_or_else(|| DeError::missing_field("TableUpload", "name"))?;
    let attributes =
        attributes.ok_or_else(|| DeError::missing_field("TableUpload", "attributes"))?;
    if both {
        return Err(DeError::custom(format!(
            "table `{name}`: give `rows` or `csv`, not both"
        )));
    }
    let (format, columns) = match payload {
        None => (
            UploadFormat::JsonRows,
            attributes.iter().map(|_| Column::default()).collect(),
        ),
        Some((format, Payload::Streamed(columns))) => (format, columns),
        Some((format, Payload::Deferred(span))) => {
            let columns = stream(&mut r.revisit(span), format, &name, &attributes)?;
            (format, columns)
        }
    };
    Ok(TableUpload {
        name,
        attributes,
        columns,
        format,
    })
}

/// Stream one table payload into typed columns, one per attribute.
fn stream(
    r: &mut Reader<'_>,
    format: UploadFormat,
    table: &str,
    attributes: &[AttributeUpload],
) -> Result<Vec<Column>, DeError> {
    let mut columns: Vec<Column> = attributes.iter().map(|_| Column::default()).collect();
    match format {
        UploadFormat::JsonRows => read_rows(r, table, attributes, &mut columns)?,
        UploadFormat::Csv => read_csv(r, table, attributes, &mut columns)?,
    }
    Ok(columns)
}

/// Stream a `rows` array cell by cell into `columns`.
fn read_rows(
    r: &mut Reader<'_>,
    table: &str,
    attributes: &[AttributeUpload],
    columns: &mut [Column],
) -> Result<(), DeError> {
    let mut rows = r.array("a JSON array for `rows`")?;
    let mut row = 0;
    while rows.next(r)? {
        let mut cells = r.array("a JSON array for each row")?;
        let mut n = 0;
        while cells.next(r)? {
            match attributes.get(n) {
                Some(attr) => {
                    let cell = r.scalar("a scalar JSON value for a table cell")?;
                    push_cell(&mut columns[n], table, attr, row, cell)?;
                }
                // A cell too many: counted for the error below.
                None => {
                    r.skip_value()?;
                }
            }
            n += 1;
        }
        if n != attributes.len() {
            return Err(DeError::custom(format!(
                "table `{table}`, row {row}: {n} cells, {} attributes declared",
                attributes.len()
            )));
        }
        row += 1;
    }
    Ok(())
}

/// Stream a `csv` string record by record into `columns`. The header
/// must name the declared attributes, in order; an empty field is NULL.
fn read_csv(
    r: &mut Reader<'_>,
    table: &str,
    attributes: &[AttributeUpload],
    columns: &mut [Column],
) -> Result<(), DeError> {
    let text = r.string("a string for `csv`")?;
    let declared = || attributes.iter().map(|a| a.name.as_str());
    stream_csv(&text, |record, fields| {
        if record == 0 {
            if !fields.iter().map(|f| &**f).eq(declared()) {
                return Err(DeError::custom(format!(
                    "table `{table}`: csv header {fields:?} does not match declared \
                     attributes {:?}",
                    declared().collect::<Vec<_>>()
                )));
            }
            return Ok(());
        }
        let row = record - 1;
        if fields.len() != attributes.len() {
            return Err(DeError::custom(format!(
                "table `{table}`, csv row {row}: {} fields, {} attributes declared",
                fields.len(),
                attributes.len()
            )));
        }
        for ((field, attr), column) in fields.iter().zip(attributes).zip(columns.iter_mut()) {
            if field.is_empty() {
                column.push(ValueRef::Null);
            } else {
                push_text(column, table, attr, row, field)?;
            }
        }
        Ok(())
    })
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
    ///
    /// Streams every table payload into typed columns as it goes (see
    /// the module docs). Peak extra heap stays within the body's size
    /// plus twice the resulting columns' [`Column::heap_bytes`], a bound
    /// the `parse_heap` test checks.
    pub fn parse(bytes: &[u8]) -> Result<Self, IngestError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| IngestError::new("request body is not valid UTF-8"))?;
        let mut r = Reader::new(text);
        read_scenario(&mut r)
            .and_then(|upload| r.finish().map(|()| upload))
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
