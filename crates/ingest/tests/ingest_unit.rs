//! Unit-level behaviour of the upload wire format and the dynamic
//! registry: declared-type casting, error reporting, deduplication,
//! budgeting and LRU eviction.

use efes::{ScenarioProvider, ScenarioRegistry};
use efes_ingest::{
    approx_scenario_bytes, parse_budget, scenario_fingerprint, DynamicRegistry, InsertError,
    InsertOutcome, RemoveError, ScenarioUpload, UploadFormat,
};
use efes_relational::{AttrId, IntegrationScenario, TableId, Value};

/// A small two-sided upload document; `marker` varies one cell so
/// different markers mean different content (and fingerprints).
fn doc(name: &str, marker: i64) -> String {
    format!(
        r#"{{
          "name": "{name}",
          "description": "test upload",
          "sources": [{{
            "name": "src",
            "tables": [{{
              "name": "albums",
              "attributes": [
                {{"name": "id", "datatype": "integer"}},
                {{"name": "title", "datatype": "text"}},
                {{"name": "price", "datatype": "float"}}
              ],
              "rows": [[1, "First", 9.99], [{marker}, "Second", 3], [4, null, null]]
            }}],
            "constraints": [{{"primary_key": {{"table": "albums", "attrs": ["id"]}}}}]
          }}],
          "target": {{
            "name": "tgt",
            "tables": [{{
              "name": "records",
              "attributes": [
                {{"name": "id", "datatype": "integer"}},
                {{"name": "title", "datatype": "text"}},
                {{"name": "price", "datatype": "float"}}
              ],
              "rows": []
            }}],
            "constraints": [{{"primary_key": {{"table": "records", "attrs": ["id"]}}}}]
          }},
          "correspondences": [
            {{"source_table": "albums", "target_table": "records"}},
            {{"source_table": "albums", "source_attr": "title",
              "target_table": "records", "target_attr": "title"}},
            {{"source_table": "albums", "source_attr": "price",
              "target_table": "records", "target_attr": "price"}}
          ]
        }}"#
    )
}

fn scenario(name: &str, marker: i64) -> IntegrationScenario {
    ScenarioUpload::parse(doc(name, marker).as_bytes())
        .unwrap()
        .into_scenario()
        .unwrap()
}

#[test]
fn json_rows_ingest_casts_by_declared_type() {
    let s = scenario("demo", 2);
    assert_eq!(s.name, "demo");
    assert_eq!(s.sources.len(), 1);
    let data = s.sources[0].instance.table(TableId(0));
    assert_eq!(data.len(), 3);
    let rows: Vec<_> = data.rows().collect();
    // JSON `3` in a float attribute recovers as the float it denotes.
    assert_eq!(rows[1][2], Value::Float(3.0));
    assert_eq!(rows[0][2], Value::Float(9.99));
    assert_eq!(rows[2][1], Value::Null);
    // The payload landed column-primary: typed stores exist without any
    // row materialisation having been needed.
    assert!(data.column_store(AttrId(0)).is_some());
    assert_eq!(s.correspondences.len(), 3);
}

#[test]
fn csv_payload_ingests_with_quotes_and_nulls() {
    let body = r#"{
      "name": "csvdemo",
      "sources": [{
        "name": "s",
        "tables": [{
          "name": "t",
          "attributes": [
            {"name": "id", "datatype": "integer"},
            {"name": "note", "datatype": "text"}
          ],
          "csv": "id,note\r\n1,\"a,\"\"b\"\"\"\n2,\n"
        }]
      }],
      "target": {
        "name": "g",
        "tables": [{
          "name": "t2",
          "attributes": [{"name": "id", "datatype": "integer"}],
          "rows": []
        }]
      },
      "correspondences": [{"source_table": "t", "target_table": "t2"}]
    }"#;
    let s = ScenarioUpload::parse(body.as_bytes())
        .unwrap()
        .into_scenario()
        .unwrap();
    let rows: Vec<_> = s.sources[0].instance.table(TableId(0)).rows().collect();
    assert_eq!(rows[0][1], Value::Text("a,\"b\"".into()));
    // An empty CSV field is NULL, not an empty string.
    assert_eq!(rows[1][1], Value::Null);
    assert_eq!(rows[1][0], Value::Int(2));
}

#[test]
fn upload_round_trips_through_both_formats() {
    let original = scenario("round", 2);
    for format in [UploadFormat::JsonRows, UploadFormat::Csv] {
        let up = ScenarioUpload::from_scenario(&original, format);
        let json = serde_json::to_string(&up).unwrap();
        let back = ScenarioUpload::parse(json.as_bytes())
            .unwrap()
            .into_scenario()
            .unwrap();
        assert_eq!(back.name, original.name);
        assert_eq!(back.sources, original.sources);
        assert_eq!(back.target, original.target);
        assert_eq!(back.correspondences, original.correspondences);
        assert_eq!(
            scenario_fingerprint(&back),
            scenario_fingerprint(&original),
            "{format:?} round trip must preserve the content fingerprint"
        );
    }
}

#[test]
fn malformed_documents_are_rejected_with_context() {
    // Not UTF-8.
    assert!(ScenarioUpload::parse(&[0xff, 0xfe, 0x00]).is_err());
    // Not JSON.
    assert!(ScenarioUpload::parse(b"not json").is_err());

    // Both payload styles at once.
    let both = doc("x", 2).replace(
        r#""rows": [[1, "First", 9.99], [2, "Second", 3], [4, null, null]]"#,
        r#""rows": [], "csv": "id,title,price\n""#,
    );
    let err = ScenarioUpload::parse(both.as_bytes()).unwrap_err();
    assert!(err.to_string().contains("not both"), "{err}");

    // Ragged row.
    let ragged = doc("x", 2).replace("[4, null, null]", "[4, null]");
    let err = ScenarioUpload::parse(ragged.as_bytes()).unwrap_err();
    assert!(err.to_string().contains("2 cells"), "{err}");

    // A cell that cannot cast to its declared type, with full location.
    let bad = doc("x", 2).replace(r#"[4, null, null]"#, r#"[4, null, "abc"]"#);
    let err = ScenarioUpload::parse(bad.as_bytes()).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("albums") && msg.contains("price") && msg.contains("row 2"),
        "{msg}"
    );

    // CSV header must match the declared attributes.
    let hdr = r#"{
      "name": "h", "sources": [{"name": "s", "tables": [{
        "name": "t",
        "attributes": [{"name": "id", "datatype": "integer"}],
        "csv": "wrong\n1\n"
      }]}],
      "target": {"name": "g", "tables": []}
    }"#;
    let err = ScenarioUpload::parse(hdr.as_bytes()).unwrap_err();
    assert!(err.to_string().contains("header"), "{err}");

    // Out-of-range integer cell.
    let big = doc("x", 2).replace("[4, null, null]", "[18446744073709551615, null, null]");
    assert!(ScenarioUpload::parse(big.as_bytes()).is_err());
}

#[test]
fn scenario_assembly_errors_name_the_offender() {
    // Unknown correspondence attribute.
    let bad = doc("x", 2).replace(r#""source_attr": "price""#, r#""source_attr": "nope""#);
    let err = ScenarioUpload::parse(bad.as_bytes())
        .unwrap()
        .into_scenario()
        .unwrap_err();
    assert!(err.to_string().contains("nope"), "{err}");

    // Source index out of range.
    let oob = doc("x", 2).replace(
        r#"{"source_table": "albums", "target_table": "records"}"#,
        r#"{"source": 7, "source_table": "albums", "target_table": "records"}"#,
    );
    let err = ScenarioUpload::parse(oob.as_bytes())
        .unwrap()
        .into_scenario()
        .unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");

    // Constraint referencing an unknown table.
    let badc = doc("x", 2).replace(
        r#""primary_key": {"table": "albums""#,
        r#""primary_key": {"table": "ghost""#,
    );
    let err = ScenarioUpload::parse(badc.as_bytes())
        .unwrap()
        .into_scenario()
        .unwrap_err();
    assert!(err.to_string().contains("ghost"), "{err}");
}

#[test]
fn fingerprint_ignores_name_but_not_content() {
    let a = scenario("first", 2);
    let b = scenario("second", 2);
    let c = scenario("first", 3);
    assert_eq!(scenario_fingerprint(&a), scenario_fingerprint(&b));
    assert_ne!(scenario_fingerprint(&a), scenario_fingerprint(&c));
}

fn statics_with_tiny() -> ScenarioRegistry {
    let mut statics = ScenarioRegistry::new();
    statics.register("tiny", "compiled-in scenario", || scenario("tiny", 99));
    statics
}

#[test]
fn registry_insert_get_list_remove() {
    let reg = DynamicRegistry::new(statics_with_tiny(), Some(1 << 20));
    let s = scenario("up-a", 2);
    let bytes = approx_scenario_bytes(&s);
    match reg.insert("up-a", "uploaded a", s).unwrap() {
        InsertOutcome::Inserted { bytes: b, evicted } => {
            assert_eq!(b, bytes);
            assert!(evicted.is_empty());
        }
        other => panic!("expected Inserted, got {other:?}"),
    }
    assert!(reg.contains("up-a"));
    assert!(reg.get("up-a").is_some());
    assert_eq!(reg.resident_bytes(), bytes);
    assert_eq!(reg.uploaded_len(), 1);
    assert_eq!(reg.static_len(), 1);

    let infos = reg.infos();
    assert_eq!(infos.len(), 2);
    // Sorted by name: "tiny" after "up-a"? No — 't' < 'u'.
    assert_eq!(infos[0].name, "tiny");
    assert_eq!(infos[0].provenance, "static");
    assert_eq!(infos[0].resident_bytes, None);
    assert_eq!(infos[1].name, "up-a");
    assert_eq!(infos[1].provenance, "uploaded");
    assert_eq!(infos[1].resident_bytes, Some(bytes as u64));
    assert!(infos[1].cached);

    assert_eq!(reg.remove("up-a").unwrap(), bytes);
    assert_eq!(reg.resident_bytes(), 0);
    assert_eq!(reg.remove("up-a"), Err(RemoveError::NotFound));
    assert_eq!(reg.remove("tiny"), Err(RemoveError::Static));
    assert!(reg.get("tiny").is_some(), "statics survive everything");
}

#[test]
fn registry_rejects_conflicts_and_bad_names() {
    let reg = DynamicRegistry::new(statics_with_tiny(), Some(1 << 20));
    assert_eq!(
        reg.insert("tiny", "", scenario("tiny", 2)),
        Err(InsertError::NameTaken("tiny".into()))
    );
    reg.insert("up-a", "", scenario("up-a", 2)).unwrap();
    assert_eq!(
        reg.insert("up-a", "", scenario("up-a", 3)),
        Err(InsertError::NameTaken("up-a".into()))
    );
    assert!(matches!(
        reg.insert("bad name!", "", scenario("x", 2)),
        Err(InsertError::InvalidName(_))
    ));
    assert!(matches!(
        reg.insert("", "", scenario("x", 2)),
        Err(InsertError::InvalidName(_))
    ));
}

#[test]
fn registry_deduplicates_identical_content_across_names() {
    let reg = DynamicRegistry::new(statics_with_tiny(), Some(1 << 20));
    reg.insert("up-a", "", scenario("up-a", 2)).unwrap();
    // Same content under a different registration name: no new entry.
    assert_eq!(
        reg.insert("up-b", "", scenario("up-b", 2)).unwrap(),
        InsertOutcome::Deduplicated {
            existing: "up-a".into()
        }
    );
    // And under its own name: a retried upload is a cheap no-op.
    assert_eq!(
        reg.insert("up-a", "", scenario("up-a", 2)).unwrap(),
        InsertOutcome::Deduplicated {
            existing: "up-a".into()
        }
    );
    assert_eq!(reg.uploaded_len(), 1);
    assert!(!reg.contains("up-b"));
}

#[test]
fn registry_evicts_lru_uploads_never_statics() {
    let size = approx_scenario_bytes(&scenario("a", 10));
    // Room for two uploads and some change, not three.
    let reg = DynamicRegistry::new(statics_with_tiny(), Some(2 * size + size / 2));
    reg.insert("up-a", "", scenario("up-a", 10)).unwrap();
    reg.insert("up-b", "", scenario("up-b", 20)).unwrap();
    // Touch a so b becomes the least recently used.
    assert!(reg.get("up-a").is_some());
    match reg.insert("up-c", "", scenario("up-c", 30)).unwrap() {
        InsertOutcome::Inserted { evicted, .. } => assert_eq!(evicted, vec!["up-b".to_owned()]),
        other => panic!("expected Inserted, got {other:?}"),
    }
    assert!(reg.contains("up-a"));
    assert!(!reg.contains("up-b"));
    assert!(reg.contains("up-c"));
    assert!(reg.contains("tiny"), "static entries are never evicted");
    assert_eq!(reg.resident_bytes(), 2 * size);

    // A scenario larger than the whole budget is rejected outright.
    let tiny_budget = DynamicRegistry::new(ScenarioRegistry::new(), Some(16));
    assert!(matches!(
        tiny_budget.insert("big", "", scenario("big", 2)),
        Err(InsertError::OverBudget { .. })
    ));
}

#[test]
fn registry_accepts_row_extensions_in_place() {
    use efes_ingest::TableGrowth;
    // The same document with `extra` rows appended to the source table.
    fn grown(name: &str, extra: &str) -> IntegrationScenario {
        let body = doc(name, 2).replace(
            r#"[4, null, null]]"#,
            &format!(r#"[4, null, null]{extra}]"#),
        );
        ScenarioUpload::parse(body.as_bytes())
            .unwrap()
            .into_scenario()
            .unwrap()
    }

    let reg = DynamicRegistry::new(statics_with_tiny(), Some(1 << 20));
    reg.insert("up-a", "v1", scenario("up-a", 2)).unwrap();
    let v2 = grown("up-a", r#", [5, "Third", 1.5], [6, "Third", null]"#);
    let v2_bytes = approx_scenario_bytes(&v2);
    match reg.insert("up-a", "v2", v2).unwrap() {
        InsertOutcome::Extended {
            bytes,
            evicted,
            growth,
        } => {
            assert_eq!(bytes, v2_bytes);
            assert!(evicted.is_empty());
            assert_eq!(
                growth,
                vec![
                    TableGrowth {
                        source: Some(0),
                        table: TableId(0),
                        old_rows: 3,
                        new_rows: 5,
                    },
                    TableGrowth {
                        source: None,
                        table: TableId(0),
                        old_rows: 0,
                        new_rows: 0,
                    },
                ]
            );
        }
        other => panic!("expected Extended, got {other:?}"),
    }
    // The replacement is what lookups now see, charged at its own size.
    assert_eq!(reg.uploaded_len(), 1);
    assert_eq!(reg.resident_bytes(), v2_bytes);
    let resident = reg.get("up-a").unwrap();
    assert_eq!(resident.sources[0].instance.table(TableId(0)).len(), 5);

    // Shrinking back is not an extension: the old entry stays.
    assert_eq!(
        reg.insert("up-a", "v1 again", scenario("up-a", 2)),
        Err(InsertError::NameTaken("up-a".into()))
    );
    assert_eq!(reg.resident_bytes(), v2_bytes);
}

#[test]
fn budget_strings_parse_with_binary_suffixes() {
    assert_eq!(parse_budget("123"), Some(123));
    assert_eq!(parse_budget("64k"), Some(64 * 1024));
    assert_eq!(parse_budget("2M"), Some(2 * 1024 * 1024));
    assert_eq!(parse_budget("1g"), Some(1024 * 1024 * 1024));
    assert_eq!(parse_budget(" 8m "), Some(8 * 1024 * 1024));
    assert_eq!(parse_budget("lots"), None);
    assert_eq!(parse_budget(""), None);
    assert_eq!(parse_budget("-5"), None);
}

/// The README's "Uploading scenarios" walkthrough document, verbatim —
/// if the wire format drifts, this fails before the docs lie.
#[test]
fn readme_walkthrough_document_ingests() {
    let doc = r#"{
    "name": "shop-demo",
    "description": "two-table demo upload",
    "sources": [{
      "name": "src",
      "tables": [{
        "name": "albums",
        "attributes": [{"name": "id", "datatype": "integer"},
                       {"name": "title", "datatype": "text"},
                       {"name": "price", "datatype": "float"}],
        "csv": "id,title,price\n1,Second Helping,9.99\n2,,12.50\n"
      }],
      "constraints": [{"primary_key": {"table": "albums", "attrs": ["id"]}}]
    }],
    "target": {
      "name": "tgt",
      "tables": [{
        "name": "records",
        "attributes": [{"name": "nr", "datatype": "integer"},
                       {"name": "name", "datatype": "text"}],
        "rows": []
      }]
    },
    "correspondences": [
      {"source_table": "albums", "target_table": "records"},
      {"source_table": "albums", "source_attr": "id",
       "target_table": "records", "target_attr": "nr"},
      {"source_table": "albums", "source_attr": "title",
       "target_table": "records", "target_attr": "name"}
    ]
  }"#;
    let scenario = ScenarioUpload::parse(doc.as_bytes())
        .unwrap()
        .into_scenario()
        .unwrap();
    assert_eq!(scenario.name, "shop-demo");
    assert_eq!(scenario.sources[0].instance.table(TableId(0)).len(), 2);
    assert_eq!(scenario.correspondences.len(), 3);
}
