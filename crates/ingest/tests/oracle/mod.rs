//! The `Content`-tree upload parser, kept as the oracle the streaming
//! `ScenarioUpload::parse` is checked against: `serde_json::from_str`
//! builds a tree of the whole document, and these functions walk it into
//! a `ScenarioUpload`, casting every cell through an owned `Value`. They
//! are free functions because the orphan rule forbids implementing the
//! foreign `Deserialize` for the foreign upload types here.
//!
//! [`assert_agree`] parses one body both ways and requires the same
//! upload — and the same content fingerprint once assembled — or a
//! failure from both.

#![allow(dead_code)]

use efes_ingest::{
    scenario_fingerprint, AttributeUpload, ConstraintUpload, CorrespondenceUpload, DatabaseUpload,
    IngestError, ScenarioUpload, TableUpload, UploadFormat,
};
use efes_relational::{Column, Value, ValueRef};
use serde::{content_get, Content, DeError, Deserialize};

/// A whole document, as the vendored parser's tree.
struct Tree(Content);

impl Deserialize for Tree {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        Ok(Tree(content.clone()))
    }
}

/// Parse an upload document the `Content`-tree way.
pub fn parse(bytes: &[u8]) -> Result<ScenarioUpload, IngestError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| IngestError::new("request body is not valid UTF-8"))?;
    serde_json::from_str::<Tree>(text)
        .map_err(|e| e.to_string())
        .and_then(|Tree(content)| scenario_from_content(&content).map_err(|e| e.to_string()))
        .map_err(|e| IngestError::new(format!("invalid upload document: {e}")))
}

/// Parse `bytes` with the streaming parser and the oracle and require
/// that they agree: equal uploads, cells compared by [`ValueRef`] (so
/// floats by their bits), and equal fingerprints once assembled — or an
/// error from both. Returns the streaming parser's result.
pub fn assert_agree(bytes: &[u8]) -> Result<ScenarioUpload, IngestError> {
    let streamed = ScenarioUpload::parse(bytes);
    let oracle = parse(bytes);
    match (&streamed, &oracle) {
        (Ok(a), Ok(b)) => {
            assert_same(a, b);
            let assembled = (a.clone().into_scenario(), b.clone().into_scenario());
            match assembled {
                (Ok(a), Ok(b)) => assert_eq!(scenario_fingerprint(&a), scenario_fingerprint(&b)),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("assembly disagrees: streamed {a:?}, oracle {b:?}"),
            }
        }
        (Err(_), Err(_)) => {}
        (a, b) => panic!(
            "parsers disagree on {:?}: streamed {:?}, oracle {:?}",
            String::from_utf8_lossy(&bytes[..bytes.len().min(400)]),
            a.as_ref().map(|_| "ok"),
            b.as_ref().map(|_| "ok"),
        ),
    }
    streamed
}

/// Two uploads hold the same document: every field equal, and every
/// column of the same variant with cell-for-cell equal [`ValueRef`]s.
pub fn assert_same(a: &ScenarioUpload, b: &ScenarioUpload) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.description, b.description);
    assert_eq!(a.correspondences, b.correspondences);
    assert_eq!(a.sources.len(), b.sources.len());
    for (x, y) in a
        .sources
        .iter()
        .chain([&a.target])
        .zip(b.sources.iter().chain([&b.target]))
    {
        assert_eq!(x.name, y.name);
        assert_eq!(x.constraints, y.constraints);
        assert_eq!(x.tables.len(), y.tables.len());
        for (s, t) in x.tables.iter().zip(&y.tables) {
            assert_eq!(
                (&s.name, &s.attributes, s.format),
                (&t.name, &t.attributes, t.format)
            );
            assert_eq!(s.columns.len(), t.columns.len());
            for (c, d) in s.columns.iter().zip(&t.columns) {
                assert_eq!(c.type_label(), d.type_label(), "table `{}`", s.name);
                assert!(c.iter().eq(d.iter()), "table `{}`: cells differ", s.name);
            }
        }
    }
}

fn seq<T>(content: &Content, item: fn(&Content) -> Result<T, DeError>) -> Result<Vec<T>, DeError> {
    content
        .as_seq()
        .ok_or_else(|| DeError::expected("sequence"))?
        .iter()
        .map(item)
        .collect()
}

/// A JSON scalar cell as the `Value` it literally denotes, before the
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
/// `on_record` with each complete record. Same dialect as `efes_relational::csv::parse`:
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

fn table_from_content(content: &Content) -> Result<TableUpload, DeError> {
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
                let declared: Vec<&str> = attributes.iter().map(|a| a.name.as_str()).collect();
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
            for ((field, attr), column) in fields.into_iter().zip(&attributes).zip(&mut columns) {
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

fn database_from_content(content: &Content) -> Result<DatabaseUpload, DeError> {
    let map = content
        .as_map()
        .ok_or_else(|| DeError::expected("JSON object for `DatabaseUpload`"))?;
    let name = match content_get(map, "name") {
        Some(v) => String::from_content(v)?,
        None => return Err(DeError::missing_field("DatabaseUpload", "name")),
    };
    let tables = match content_get(map, "tables") {
        Some(v) => seq(v, table_from_content)?,
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

fn scenario_from_content(content: &Content) -> Result<ScenarioUpload, DeError> {
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
        Some(v) => seq(v, database_from_content)?,
        None => return Err(DeError::missing_field("ScenarioUpload", "sources")),
    };
    let target = match content_get(map, "target") {
        Some(v) => database_from_content(v)?,
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
