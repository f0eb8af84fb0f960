//! A dependency-free CSV reader/writer (RFC 4180 subset).
//!
//! The case-study datasets the paper loads from PostgreSQL dumps are, in
//! this reproduction, generated in memory — but a downstream user will want
//! to point EFES at real files. This module gives the substrate a loading
//! path: parse a CSV into typed columns (with [`DataType::infer`]) and write
//! instances back out.

use crate::database::Database;
use crate::datatype::DataType;
use crate::error::{Error, Result};
use crate::instance::Row;
use crate::schema::{AttrId, Attribute, Schema, Table, TableId};
use crate::value::Value;

/// Parse CSV text into a header and string records.
///
/// Supports quoted fields (`"a,b"`), escaped quotes (`""`), and both `\n`
/// and `\r\n` line endings. The delimiter is `,`.
pub fn parse(text: &str) -> Result<(Vec<String>, Vec<Vec<String>>)> {
    let mut records: Vec<Vec<String>> = Vec::new();
    let mut field = String::new();
    let mut record: Vec<String> = Vec::new();
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
                        return Err(Error::Csv {
                            line,
                            message: "quote inside unquoted field".to_owned(),
                        });
                    }
                    in_quotes = true;
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {
                    // swallow; the following \n terminates the record
                }
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                    line += 1;
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(Error::Csv {
            line,
            message: "unterminated quoted field".to_owned(),
        });
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if records.is_empty() {
        return Err(Error::Csv {
            line: 1,
            message: "empty input".to_owned(),
        });
    }
    let header = records.remove(0);
    let width = header.len();
    for (i, r) in records.iter().enumerate() {
        if r.len() != width {
            return Err(Error::Csv {
                line: i + 2,
                message: format!("record has {} fields, header has {width}", r.len()),
            });
        }
    }
    Ok((header, records))
}

/// Interpret a raw CSV field as a [`Value`]: empty → NULL, otherwise try
/// integer, then float, then boolean, falling back to text.
pub fn field_to_value(field: &str) -> Value {
    if field.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = field.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = field.parse::<f64>() {
        // Avoid turning things like "nan" city names into floats.
        if field.chars().next().is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+' || c == '.') {
            return Value::Float(f);
        }
    }
    match field {
        "true" | "TRUE" | "True" => Value::Bool(true),
        "false" | "FALSE" | "False" => Value::Bool(false),
        _ => Value::Text(field.to_owned()),
    }
}

/// Load a CSV into a fresh single-table [`Database`], inferring column
/// types from the data — the "data dump without a schema definition" path
/// of paper §3.1. Constraints can afterwards be reverse-engineered with
/// `efes-profiling`.
pub fn load_table(db_name: &str, table_name: &str, text: &str) -> Result<Database> {
    let (header, records) = parse(text)?;
    let typed: Vec<Vec<Value>> = records
        .iter()
        .map(|r| r.iter().map(|f| field_to_value(f)).collect())
        .collect();

    let n_cols = header.len();
    let mut attrs = Vec::with_capacity(n_cols);
    for (ci, name) in header.iter().enumerate() {
        let dt = DataType::infer(typed.iter().map(|r| &r[ci]));
        attrs.push(Attribute::new(name.clone(), dt));
    }

    let mut schema = Schema::new(db_name);
    let tid = schema.add_table(Table::new(table_name, attrs))?;
    let mut db = Database::new(schema, Default::default());
    for raw in typed {
        // Re-cast every field to the inferred column type so mixed columns
        // (e.g. a numeric column with one stray word) become uniform text.
        let row: Row = raw
            .into_iter()
            .enumerate()
            .map(|(ci, v)| {
                let dt = db.schema.table(tid).attributes[ci].datatype;
                dt.try_cast(&v).unwrap_or(Value::Null)
            })
            .collect();
        db.instance.insert(&db.schema, tid, row)?;
    }
    Ok(db)
}

/// Serialise one table of a database to CSV text.
pub fn write_table(db: &Database, table: TableId) -> String {
    let t = db.schema.table(table);
    let mut out = String::new();
    let escape = |s: &str| -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_owned()
        }
    };
    out.push_str(
        &t.attributes
            .iter()
            .map(|a| escape(&a.name))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    let data = db.instance.table(table);
    for i in 0..data.len() {
        out.push_str(
            &(0..t.arity())
                .map(|a| escape(&data.value(i, AttrId(a)).render()))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_quoted_fields_and_crlf() {
        let (h, r) = parse("a,b\r\n\"x,y\",\"he said \"\"hi\"\"\"\r\n1,2\r\n").unwrap();
        assert_eq!(h, vec!["a", "b"]);
        assert_eq!(r[0], vec!["x,y", "he said \"hi\""]);
        assert_eq!(r[1], vec!["1", "2"]);
    }

    #[test]
    fn rejects_ragged_records() {
        assert!(matches!(parse("a,b\n1\n"), Err(Error::Csv { line: 2, .. })));
    }

    #[test]
    fn rejects_unterminated_quote() {
        assert!(parse("a\n\"oops\n").is_err());
    }

    #[test]
    fn field_typing() {
        assert_eq!(field_to_value(""), Value::Null);
        assert_eq!(field_to_value("42"), Value::Int(42));
        assert_eq!(field_to_value("4.5"), Value::Float(4.5));
        assert_eq!(field_to_value("4:43"), Value::Text("4:43".into()));
        assert_eq!(field_to_value("true"), Value::Bool(true));
    }

    #[test]
    fn load_infers_types_and_round_trips() {
        let text = "id,title,duration\n1,Sweet Home Alabama,4:43\n2,I Need You,6:55\n";
        let db = load_table("t", "tracks", text).unwrap();
        let tid = db.schema.table_id("tracks").unwrap();
        let t = db.schema.table(tid);
        assert_eq!(t.attributes[0].datatype, DataType::Integer);
        assert_eq!(t.attributes[2].datatype, DataType::Text);
        assert_eq!(db.instance.table(tid).len(), 2);

        let written = write_table(&db, tid);
        let reloaded = load_table("t", "tracks", &written).unwrap();
        assert_eq!(reloaded.instance, db.instance);
    }

    #[test]
    fn mixed_column_becomes_text() {
        let text = "x\n1\nhello\n";
        let db = load_table("t", "m", text).unwrap();
        let tid = db.schema.table_id("m").unwrap();
        assert_eq!(
            db.schema.table(tid).attributes[0].datatype,
            DataType::Text
        );
        assert_eq!(
            db.instance.table(tid).value(0, AttrId(0)).to_value(),
            Value::Text("1".into())
        );
    }

    #[test]
    fn empty_fields_become_null() {
        let text = "a,b\n1,\n,2\n";
        let db = load_table("t", "n", text).unwrap();
        let tid = db.schema.table_id("n").unwrap();
        assert!(db.instance.table(tid).value(0, AttrId(1)).is_null());
        assert!(db.instance.table(tid).value(1, AttrId(0)).is_null());
    }
}
