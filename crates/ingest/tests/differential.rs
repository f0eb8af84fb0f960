//! Explicit differential cases: the streaming `ScenarioUpload::parse`
//! against the `Content`-tree oracle on the corners generated uploads
//! never reach — key order, repeated and unknown keys, escapes, numeric
//! extremes, cells of another type than their column, whitespace,
//! trailing bytes and deep nesting. Each case also pins what the
//! document parses to.

mod oracle;

use efes_ingest::{ScenarioUpload, UploadFormat};
use efes_relational::Value;

/// An upload whose one source table is `table`, the text of a JSON
/// object.
fn doc(table: &str) -> String {
    format!(
        r#"{{"name": "d", "sources": [{{"name": "s", "tables": [{table}]}}],
          "target": {{"name": "g", "tables": [{{"name": "u",
            "attributes": [{{"name": "id", "datatype": "integer"}}], "rows": [[1]]}}]}},
          "correspondences": [{{"source_table": "t", "target_table": "u"}}]}}"#
    )
}

/// One attribute of each datatype.
const ATTRS: &str = r#""attributes": [
    {"name": "i", "datatype": "integer"}, {"name": "f", "datatype": "float"},
    {"name": "s", "datatype": "text"}, {"name": "b", "datatype": "boolean"}]"#;

/// A source table `t` of [`ATTRS`] holding `rows`.
fn rows_doc(rows: &str) -> String {
    doc(&format!(r#"{{"name": "t", {ATTRS}, "rows": {rows}}}"#))
}

/// Parse `body` both ways; both must succeed and agree. Returns the
/// upload.
fn accept(body: &str) -> ScenarioUpload {
    oracle::assert_agree(body.as_bytes()).unwrap_or_else(|e| panic!("{e}\n{body}"))
}

/// Parse `body` both ways; both must fail. Returns the streaming error.
fn reject(body: &str) -> String {
    match oracle::assert_agree(body.as_bytes()) {
        Ok(_) => panic!("accepted: {body}"),
        Err(e) => e.to_string(),
    }
}

/// The first source table's cells, row by row.
fn cells(upload: &ScenarioUpload) -> Vec<Vec<Value>> {
    let columns = &upload.sources[0].tables[0].columns;
    let len = columns.first().map_or(0, |c| c.len());
    (0..len)
        .map(|i| columns.iter().map(|c| c.value(i).to_value()).collect())
        .collect()
}

fn text(s: &str) -> Value {
    Value::Text(s.to_owned())
}

#[test]
fn payload_before_name_and_attributes_streams_once_they_are_known() {
    let expected = vec![vec![
        Value::Int(1),
        Value::Float(2.5),
        text("a"),
        Value::Bool(true),
    ]];
    let rows_first = doc(&format!(
        r#"{{"rows": [[1, 2.5, "a", true]], {ATTRS}, "name": "t"}}"#
    ));
    assert_eq!(cells(&accept(&rows_first)), expected);
    let csv_first = doc(&format!(
        r#"{{"csv": "i,f,s,b\n1,2.5,a,true\n", "name": "t", {ATTRS}}}"#
    ));
    let upload = accept(&csv_first);
    assert_eq!(cells(&upload), expected);
    assert_eq!(upload.sources[0].tables[0].format, UploadFormat::Csv);
    // A cell error in a deferred payload still names its place.
    let bad = doc(&format!(
        r#"{{"rows": [[1, "x", "a", true]], "name": "t", {ATTRS}}}"#
    ));
    let err = reject(&bad);
    assert!(err.contains("table `t`, attribute `f`, row 0"), "{err}");
}

#[test]
fn repeated_keys_keep_their_first_value() {
    let twice = doc(&format!(
        r#"{{"name": "t", {ATTRS}, "rows": [[1, 1.5, "x", false]],
            "rows": [[2, 2.5, "y", true], [3, 3.5, "z", true]], "name": "other",
            "attributes": [{{"name": "z", "datatype": "text"}}]}}"#
    ));
    let upload = accept(&twice);
    let table = &upload.sources[0].tables[0];
    assert_eq!(table.name, "t");
    assert_eq!(table.attributes.len(), 4);
    assert_eq!(cells(&upload).len(), 1);
    let renamed = twice.replacen(r#""name": "d""#, r#""name": "d", "name": "e""#, 1);
    assert_eq!(accept(&renamed).name, "d");
    // A later duplicate is still checked for syntax.
    reject(&twice.replace(r#""rows": [[2, 2.5"#, r#""rows": [[2,, 2.5"#));
    // A first value of the wrong type fails even if a later one fits.
    reject(&rows_doc("[]").replacen(r#""name": "d""#, r#""name": 5, "name": "d""#, 1));
}

#[test]
fn unknown_keys_are_checked_and_skipped() {
    let extra = r#""extra": {"a": [1, {"b": [null, "é", true]}], "c": -1.5e3}"#;
    let body = doc(&format!(
        r#"{{"name": "t", {extra}, {ATTRS}, "rows": [[1, 1, "a", true]]}}"#
    ))
    .replacen(r#""name": "s","#, &format!(r#""name": "s", {extra},"#), 1)
    .replacen(
        r#"{"name": "d","#,
        &format!(r#"{{{extra}, "name": "d","#),
        1,
    );
    assert_eq!(cells(&accept(&body)).len(), 1);
    reject(&body.replacen(r#"[null, "é", true]"#, "[null,]", 1));
}

#[test]
fn rows_and_csv_together_are_rejected_in_either_order() {
    for payloads in [
        r#""rows": [], "csv": "i,f,s,b\n""#,
        r#""csv": "i,f,s,b\n", "rows": []"#,
    ] {
        let err = reject(&doc(&format!(r#"{{"name": "t", {ATTRS}, {payloads}}}"#)));
        assert!(err.contains("not both"), "{err}");
    }
}

#[test]
fn escaped_text_cells_decode() {
    let body = rows_doc(
        r#"[[1, 1, "say \"hi\"", true], [2, 2, "café", true], [3, 3, "😀/\/\\\t", false]]"#,
    );
    let got: Vec<Value> = cells(&accept(&body))
        .into_iter()
        .map(|r| r[2].clone())
        .collect();
    assert_eq!(
        got,
        vec![text("say \"hi\""), text("café"), text("😀//\\\t")]
    );
    for lone in [r#""\ud800""#, r#""\udc00""#, r#""\ud800A""#, r#""\u00e""#] {
        reject(&rows_doc(&format!("[[1, 1, {lone}, true]]")));
    }
}

#[test]
fn integer_extremes_and_out_of_range() {
    let body =
        rows_doc("[[-9223372036854775808, 0, null, null], [9223372036854775807, 0, null, null]]");
    let got: Vec<Value> = cells(&accept(&body))
        .into_iter()
        .map(|r| r[0].clone())
        .collect();
    assert_eq!(got, vec![Value::Int(i64::MIN), Value::Int(i64::MAX)]);
    let err = reject(&rows_doc("[[9223372036854775808, 0, null, null]]"));
    assert!(err.contains("out of i64 range"), "{err}");
    reject(&rows_doc("[[-9223372036854775809, 0, null, null]]"));
    reject(&rows_doc("[[0, 9223372036854775808, null, null]]"));
}

#[test]
fn cells_of_another_type_cast_as_declared() {
    let body = rows_doc(
        r#"[[1.0, 3, 7, 1], [1e3, -2, 2.5, 0], [01, 4.0, true, "yes"], ["12", "0.5", 1e3, "F"],
            [true, false, null, false]]"#,
    );
    assert_eq!(
        cells(&accept(&body)),
        vec![
            vec![
                Value::Int(1),
                Value::Float(3.0),
                text("7"),
                Value::Bool(true)
            ],
            vec![
                Value::Int(1000),
                Value::Float(-2.0),
                text("2.5"),
                Value::Bool(false)
            ],
            vec![
                Value::Int(1),
                Value::Float(4.0),
                text("true"),
                Value::Bool(true)
            ],
            vec![
                Value::Int(12),
                Value::Float(0.5),
                text("1000"),
                Value::Bool(false)
            ],
            vec![
                Value::Int(1),
                Value::Float(0.0),
                Value::Null,
                Value::Bool(false)
            ],
        ]
    );
    for bad in [
        r#"[[1.5, 0, null, null]]"#,
        r#"[["x", 0, null, null]]"#,
        r#"[[0, "x", null, null]]"#,
        r#"[[0, 0, null, 2]]"#,
        r#"[[0, 0, null, 1.0]]"#,
        r#"[[0, 0, [1], null]]"#,
        r#"[[0, 0, {}, null]]"#,
    ] {
        let err = reject(&rows_doc(bad));
        assert!(
            err.contains("cannot cast") || err.contains("scalar"),
            "{err}"
        );
    }
}

#[test]
fn csv_fields_borrow_or_copy_as_the_dialect_requires() {
    let body = doc(&format!(
        r#"{{"name": "t", {ATTRS},
            "csv": "i,f,s,b\r\n1,2,\"a,\"\"b\"\"\",t\r\n2,,\"ab\"cd,\n3,1,x\ry,no\n4,1,\"\",yes"}}"#
    ));
    assert_eq!(
        cells(&accept(&body)),
        vec![
            vec![
                Value::Int(1),
                Value::Float(2.0),
                text("a,\"b\""),
                Value::Bool(true)
            ],
            vec![Value::Int(2), Value::Null, text("abcd"), Value::Null],
            vec![
                Value::Int(3),
                Value::Float(1.0),
                text("xy"),
                Value::Bool(false)
            ],
            vec![
                Value::Int(4),
                Value::Float(1.0),
                Value::Null,
                Value::Bool(true)
            ],
        ]
    );
    for bad in [
        "i,f,s,b\n1,2,a\"b\",t\n",
        "i,f,s,b\n1,2,\"open",
        "",
        "i,f\n",
    ] {
        let escaped = serde_json::to_string(bad).unwrap();
        reject(&doc(&format!(
            r#"{{"name": "t", {ATTRS}, "csv": {escaped}}}"#
        )));
    }
}

/// `json` with `pad` between every pair of tokens.
fn pad_tokens(json: &str, pad: &str) -> String {
    let mut out = String::new();
    let (mut in_string, mut escaped) = (false, false);
    for c in json.chars() {
        if in_string {
            out.push(c);
            match (escaped, c) {
                (false, '\\') => escaped = true,
                (false, '"') => {
                    in_string = false;
                    out.push_str(pad);
                }
                _ => escaped = false,
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push_str(pad);
                out.push(c);
            }
            '[' | ']' | '{' | '}' | ',' | ':' => {
                out.push_str(pad);
                out.push(c);
                out.push_str(pad);
            }
            _ => out.push(c),
        }
    }
    out
}

#[test]
fn whitespace_between_every_token_and_trailing_bytes() {
    let body = rows_doc(r#"[[1, 2.5, "a b", true], [null, -3, "\"", false]]"#);
    let compact = serde_json::to_string(&accept(&body)).unwrap();
    let padded = pad_tokens(&compact, " \t\r\n");
    assert!(padded.len() > compact.len() * 2);
    oracle::assert_same(&accept(&padded), &accept(&compact));
    accept(&format!(" \n{body}\t\r\n "));
    for trailing in ["x", "{}", "]", "0"] {
        let err = reject(&format!("{body}{trailing}"));
        assert!(err.contains("trailing characters"), "{err}");
    }
}

/// Parse `body` both ways on a spawned thread (default stack) and
/// return the streaming error.
fn reject_on_thread(body: String) -> String {
    std::thread::spawn(move || reject(&body))
        .join()
        .expect("no stack overflow")
}

#[test]
fn deep_nesting_is_an_error_not_an_overflow() {
    let err = reject_on_thread("[".repeat(10_000));
    assert!(err.contains("expected JSON object"), "{err}");
    let chain = r#"{"a":"#.repeat(10_000) + "1" + &"}".repeat(10_000);
    let err = reject_on_thread(chain);
    assert!(err.contains("recursion limit exceeded at offset"), "{err}");
    // Deep values where the walk skips, defers or reads a table payload.
    let deep = "[".repeat(10_000);
    for body in [
        doc(&format!(r#"{{"name": "t", "extra": {deep}}}"#)),
        doc(&format!(r#"{{"rows": {deep}}}"#)),
        doc(&format!(r#"{{"name": "t", "attributes": {deep}}}"#)),
        rows_doc(&format!("[[1, 1, {deep}")),
    ] {
        let err = reject_on_thread(body);
        assert!(
            err.contains("recursion limit exceeded") || err.contains("scalar"),
            "{err}"
        );
    }
    // Legitimate uploads nest 7 deep; 127 levels still parse.
    let ok = "[".repeat(120) + &"]".repeat(120);
    accept(&doc(&format!(r#"{{"name": "t", {ATTRS}, "extra": {ok}}}"#)));
}
