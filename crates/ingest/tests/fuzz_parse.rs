//! Robustness properties: no input, however hostile, may panic the
//! ingest parser. Errors are the contract; crashes are bugs. Every input
//! also goes through the `Content`-tree oracle, and the streaming parser
//! must agree with it (see `oracle::assert_agree`).

mod oracle;

use proptest::prelude::*;

/// A valid document to mutate, with both payload styles present.
const SEED_DOC: &str = r#"{
  "name": "seed",
  "sources": [{
    "name": "s",
    "tables": [{
      "name": "t",
      "attributes": [
        {"name": "id", "datatype": "integer"},
        {"name": "note", "datatype": "text"},
        {"name": "price", "datatype": "float"}
      ],
      "rows": [[1, "a", 1.5], [2, null, 3], [3, "c,\"d\"", null]]
    }]
  }],
  "target": {
    "name": "g",
    "tables": [{
      "name": "u",
      "attributes": [{"name": "id", "datatype": "integer"}],
      "csv": "id\n1\n"
    }]
  },
  "correspondences": [{"source_table": "t", "target_table": "u"}]
}"#;

/// Parse both ways and, when the document survives parsing, assemble —
/// both stages must fail gracefully, never panic, and agree with the
/// oracle.
fn exercise(bytes: &[u8]) {
    let _ = oracle::assert_agree(bytes);
}

proptest! {
    /// Completely arbitrary bytes never panic the parser.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        exercise(&bytes);
    }

    /// A valid document with one byte smashed never panics — this walks
    /// the parser into the deep, almost-valid corners raw noise misses.
    #[test]
    fn mutated_document_never_panics(pos in any::<usize>(), byte in any::<u8>()) {
        let mut bytes = SEED_DOC.as_bytes().to_vec();
        let pos = pos % bytes.len();
        bytes[pos] = byte;
        exercise(&bytes);
    }

    /// Truncating a valid document anywhere never panics.
    #[test]
    fn truncated_document_never_panics(len in any::<usize>()) {
        let bytes = SEED_DOC.as_bytes();
        exercise(&bytes[..len % (bytes.len() + 1)]);
    }

    /// Arbitrary text as an embedded CSV payload never panics the
    /// streaming CSV parser, whatever quotes or separators it contains.
    #[test]
    fn arbitrary_csv_payload_never_panics(csv in "[a-z0-9 ,\\.\"\\n-]{0,200}") {
        let escaped = serde_json::to_string(&csv).unwrap();
        let doc = format!(
            r#"{{
              "name": "f",
              "sources": [{{
                "name": "s",
                "tables": [{{
                  "name": "t",
                  "attributes": [
                    {{"name": "a", "datatype": "integer"}},
                    {{"name": "b", "datatype": "text"}}
                  ],
                  "csv": {escaped}
                }}]
              }}],
              "target": {{"name": "g", "tables": []}}
            }}"#
        );
        exercise(doc.as_bytes());
    }
}
