//! End-to-end fidelity: a generated synthetic scenario, serialised to
//! an upload document and ingested back, reproduces the exact scenario
//! — including every defect the generator's manifest records — and the
//! streaming parser reads each document as the `Content`-tree oracle
//! does.

mod oracle;

use efes_ingest::{scenario_fingerprint, ScenarioUpload, UploadFormat};
use efes_relational::{IntegrationScenario, TableId, Value};
use efes_synth::{generate, SynthConfig};

fn round_trip(format: UploadFormat) -> (IntegrationScenario, IntegrationScenario) {
    let cfg = SynthConfig::default().with_seed(7).with_rows(120).with_sources(2);
    let synth = generate(&cfg);
    // The defaults inject real dirt; an accidental clean scenario would
    // make this test vacuous.
    assert!(synth.manifest.total_nulls() > 0);
    assert!(synth.manifest.total_alt_format() > 0);
    assert!(synth.manifest.total_key_violations() > 0);

    let upload = ScenarioUpload::from_scenario(&synth.scenario, format);
    let json = serde_json::to_string(&upload).unwrap();
    let back = oracle::assert_agree(json.as_bytes())
        .unwrap()
        .into_scenario()
        .unwrap();
    (synth.scenario, back)
}

fn assert_identical(original: &IntegrationScenario, back: &IntegrationScenario) {
    assert_eq!(back.name, original.name);
    assert_eq!(back.correspondences, original.correspondences);
    assert_eq!(back.target, original.target);
    assert_eq!(back.sources, original.sources);
    assert_eq!(
        scenario_fingerprint(back),
        scenario_fingerprint(original),
        "round trip must land on the same content fingerprint (dedup relies on it)"
    );
}

#[test]
fn synth_scenario_round_trips_via_json_rows() {
    let (original, back) = round_trip(UploadFormat::JsonRows);
    assert_identical(&original, &back);
}

#[test]
fn synth_scenario_round_trips_via_csv() {
    let (original, back) = round_trip(UploadFormat::Csv);
    assert_identical(&original, &back);
}

/// The ingested copy carries the manifest's defects verbatim: with
/// duplicate injection off (duplicates copy payload cells, nulls
/// included), the NULLs found in the ingested sources are exactly the
/// NULLs the generator says it injected.
#[test]
fn ingested_copy_reproduces_manifest_null_counts() {
    let mut cfg = SynthConfig::default().with_seed(11).with_rows(150);
    cfg.dirt.duplicate_rate = 0.0;
    let synth = generate(&cfg);
    assert!(synth.manifest.total_nulls() > 0);

    let upload = ScenarioUpload::from_scenario(&synth.scenario, UploadFormat::JsonRows);
    let json = serde_json::to_string(&upload).unwrap();
    let back = ScenarioUpload::parse(json.as_bytes())
        .unwrap()
        .into_scenario()
        .unwrap();

    let mut nulls = 0usize;
    for db in &back.sources {
        for ti in 0..db.schema.tables().len() {
            for row in db.instance.table(TableId(ti)).rows() {
                nulls += row.iter().filter(|v| **v == Value::Null).count();
            }
        }
    }
    assert_eq!(nulls, synth.manifest.total_nulls());
}
