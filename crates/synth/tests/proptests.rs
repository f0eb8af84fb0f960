//! Property tests over the generator's invariants: the ground-truth
//! manifest must be *exactly* re-derivable from the generated data by
//! independent scans, and the generator must be fully deterministic.

use efes_relational::{AttrId, Database, Value};
use efes_synth::{generate, DirtKnobs, PayloadKind, SynthConfig, SynthManifest, TableDirt};
use proptest::prelude::*;
use std::collections::HashSet;

/// A configuration strategy over small shapes and the interesting corners
/// of the dirt space (zero, light, heavy, and over-unity rates that
/// normalization must clamp).
fn arb_rate() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(0.01),
        Just(0.05),
        Just(0.2),
        Just(0.5),
        Just(1.0),
        Just(1.5), // clamped to 1.0 by normalization
    ]
}

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (
        any::<u64>(),
        (1usize..=3, 1usize..=5, 20usize..=120), // tables, payload_attrs, rows
        (1usize..=3, 1usize..=2),                // fanout, sources
        proptest::collection::vec(arb_rate(), 7),
    )
        .prop_map(|(seed, (tables, payload_attrs, rows), (fanout, sources), r)| {
            let mut cfg = SynthConfig::default().with_seed(seed);
            cfg.shape.tables = tables;
            cfg.shape.payload_attrs = payload_attrs;
            cfg.shape.rows = rows;
            cfg.shape.fanout = fanout;
            cfg.shape.sources = sources;
            cfg.dirt = DirtKnobs {
                null_rate: r[0],
                numeric_format_rate: r[1],
                date_format_rate: r[2],
                key_violation_rate: r[3],
                fk_violation_rate: r[4],
                synonym_rename_rate: r[5],
                duplicate_rate: r[6],
            };
            cfg
        })
}

/// Independently re-derive every defect set of one fragment from its
/// realized rows and compare against the manifest, exactly.
fn check_fragment(db: &Database, dirt: &TableDirt) {
    let tid = db
        .schema
        .table_id(&dirt.table)
        .unwrap_or_else(|| panic!("manifest table `{}` missing from schema", dirt.table));
    let table = db.schema.table(tid);
    let rows: Vec<_> = db.instance.table(tid).rows().collect();
    assert_eq!(rows.len(), dirt.rows, "row count disagrees with manifest");

    // Payload columns: NULL and alternate-format sets, by scan.
    for (p, col_dirt) in dirt.columns.iter().enumerate() {
        let attr = AttrId(p + 1); // after `id`
        assert_eq!(table.attribute(attr).name, col_dirt.attribute);
        let scanned_nulls: Vec<usize> = (0..rows.len())
            .filter(|&r| rows[r][attr.0].is_null())
            .collect();
        assert_eq!(scanned_nulls, col_dirt.nulls, "NULL set disagrees");
        // Canonical formats never contain the alternate-format marker
        // (',' for numeric text, '/' for dates), so a scan for the
        // marker is an exact re-derivation.
        let marker = match col_dirt.kind {
            PayloadKind::NumericText => Some(','),
            PayloadKind::DateText => Some('/'),
            _ => None,
        };
        let scanned_alt: Vec<usize> = match marker {
            Some(m) => (0..rows.len())
                .filter(|&r| {
                    rows[r][attr.0]
                        .as_text()
                        .is_some_and(|t| t.contains(m))
                })
                .collect(),
            None => Vec::new(),
        };
        assert_eq!(scanned_alt, col_dirt.alt_format, "alt-format set disagrees");
    }

    // Keys: every recorded violation holds, and the distinct-id count
    // equals rows minus destroyed keys (duplicate-pair rows carry fresh
    // unique ids, so they don't collapse the count).
    let ids: Vec<i64> = rows
        .iter()
        .map(|r| r[0].as_int().expect("ids are integers"))
        .collect();
    for kv in &dirt.key_violations {
        assert_eq!(ids[kv.victim_row], kv.value);
        assert_eq!(ids[kv.donor_row], kv.value);
        assert_ne!(kv.victim_row, kv.donor_row);
    }
    let distinct: HashSet<i64> = ids.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        rows.len() - dirt.key_violations.len(),
        "distinct id count disagrees with key-violation count"
    );

    // References: the dangling set is exactly the negative-valued rows
    // (real ids are non-negative by construction).
    if let Some(ref_attr) = table.attr_id("ref") {
        let scanned_dangling: Vec<usize> = (0..rows.len())
            .filter(|&r| {
                rows[r][ref_attr.0]
                    .as_int()
                    .is_some_and(|v| v < 0)
            })
            .collect();
        let recorded: Vec<usize> = {
            let mut v: Vec<usize> = dirt.fk_violations.iter().map(|f| f.row).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(scanned_dangling, recorded, "dangling set disagrees");
        for fk in &dirt.fk_violations {
            assert_eq!(rows[fk.row][ref_attr.0], Value::Int(fk.value));
            assert!(fk.value < 0, "dangling values are negative");
        }
    } else {
        assert!(dirt.fk_violations.is_empty());
    }

    // Duplicate pairs: the appended row copies every non-id cell.
    for dp in &dirt.duplicate_pairs {
        assert!(dp.dup_row > dp.base_row);
        assert_ne!(ids[dp.dup_row], ids[dp.base_row], "duplicates get fresh ids");
        for (dup_cell, base_cell) in rows[dp.dup_row].iter().zip(&rows[dp.base_row]).skip(1) {
            assert_eq!(
                dup_cell, base_cell,
                "duplicate rows must copy all payload/ref cells"
            );
        }
    }
}

/// Re-derive the whole manifest from the scenario and compare.
fn check_manifest(scenario: &efes_synth::IntegrationScenario, manifest: &SynthManifest) {
    assert_eq!(scenario.sources.len(), manifest.sources.len());
    for (db, source_dirt) in scenario.sources.iter().zip(&manifest.sources) {
        assert_eq!(db.name(), source_dirt.source);
        assert_eq!(db.schema.table_count(), source_dirt.tables.len());
        for table_dirt in &source_dirt.tables {
            check_fragment(db, table_dirt);
        }
    }
    for rename in &manifest.renames {
        let db = &scenario.sources[rename.source];
        let tid = db.schema.table_id(&rename.table).expect("renamed table exists");
        let table = db.schema.table(tid);
        assert!(
            table.attr_id(&rename.renamed).is_some(),
            "synonym `{}` missing from `{}`",
            rename.renamed,
            rename.table
        );
        assert!(
            table.attr_id(&rename.canonical).is_none(),
            "canonical `{}` should have been replaced in `{}`",
            rename.canonical,
            rename.table
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The manifest is exactly re-derivable from the data: same defect
    /// counts, same row indices, same values, under any knob combination.
    #[test]
    fn manifest_matches_realized_defects(cfg in arb_config()) {
        let out = generate(&cfg);
        check_manifest(&out.scenario, &out.manifest);
    }

    /// The generator is a pure function of its configuration: the same
    /// config serializes to byte-identical scenario and manifest JSON.
    #[test]
    fn same_seed_is_byte_identical(cfg in arb_config()) {
        let a = generate(&cfg);
        let b = generate(&cfg);
        let scenario_a = serde_json::to_string(&a.scenario).unwrap();
        let scenario_b = serde_json::to_string(&b.scenario).unwrap();
        prop_assert_eq!(scenario_a, scenario_b);
        let manifest_a = serde_json::to_string(&a.manifest).unwrap();
        let manifest_b = serde_json::to_string(&b.manifest).unwrap();
        prop_assert_eq!(manifest_a, manifest_b);
    }

    /// All-zero dirt knobs produce sources that validate clean against
    /// their declared constraints and an empty manifest.
    #[test]
    fn clean_config_produces_valid_sources(seed in any::<u64>(), rows in 10usize..=80) {
        let cfg = SynthConfig::clean().with_seed(seed).with_rows(rows);
        let out = generate(&cfg);
        prop_assert!(out.manifest.is_clean());
        for db in &out.scenario.sources {
            prop_assert!(db.validate().is_empty());
        }
    }
}

// ---------------------------------------------------------------------
// Pinned cases. The vendored proptest runner enumerates deterministic
// inputs rather than replaying `.proptest-regressions` corpora, so the
// seeds recorded in `proptests.proptest-regressions` are *also* pinned
// here as explicit unit tests — they stay exercised on every run even
// if the corpus replay semantics never materialize.
// ---------------------------------------------------------------------

/// Pinned: maximum dirt everywhere (every rate saturated at 1.0).
#[test]
fn pinned_saturated_dirt_rates() {
    let mut cfg = SynthConfig::default().with_seed(0xDEAD_BEEF).with_rows(40);
    cfg.dirt = DirtKnobs {
        null_rate: 1.0,
        numeric_format_rate: 1.0,
        date_format_rate: 1.0,
        key_violation_rate: 1.0,
        fk_violation_rate: 1.0,
        synonym_rename_rate: 1.0,
        duplicate_rate: 1.0,
    };
    let out = generate(&cfg);
    check_manifest(&out.scenario, &out.manifest);
    // Saturated format + NULL rates: formats win the contested cells
    // (k_null is clamped to the remainder), so no column double-counts.
    assert!(out.manifest.total_alt_format() > 0);
    assert!(out.manifest.total_key_violations() > 0);
    assert!(out.manifest.total_duplicate_pairs() > 0);
}

/// Pinned: single-row fragments (rows < fanout leaves empty fragments).
#[test]
fn pinned_tiny_fragments() {
    let mut cfg = SynthConfig::default().with_seed(7).with_rows(2);
    cfg.shape.fanout = 3; // fragment 2 gets zero rows
    cfg.shape.tables = 2;
    let out = generate(&cfg);
    check_manifest(&out.scenario, &out.manifest);
}

/// Pinned: over-unity and negative rates normalize instead of panicking.
#[test]
fn pinned_out_of_range_rates() {
    let mut cfg = SynthConfig::default().with_seed(99).with_rows(30);
    cfg.dirt.null_rate = 1.5;
    cfg.dirt.duplicate_rate = -0.25;
    cfg.dirt.key_violation_rate = f64::NAN;
    let out = generate(&cfg);
    check_manifest(&out.scenario, &out.manifest);
    assert_eq!(out.manifest.total_key_violations(), 0);
    assert_eq!(out.manifest.total_duplicate_pairs(), 0);
}

/// Pinned: multi-source scenarios keep per-source manifests aligned.
#[test]
fn pinned_multi_source_alignment() {
    let cfg = SynthConfig::default().with_seed(0xA11CE).with_rows(50).with_sources(3);
    let out = generate(&cfg);
    check_manifest(&out.scenario, &out.manifest);
    assert_eq!(out.manifest.sources.len(), 3);
    // Sources are independent draws: their defect positions differ.
    let a = serde_json::to_string(&out.manifest.sources[0].tables).unwrap();
    let b = serde_json::to_string(&out.manifest.sources[1].tables).unwrap();
    assert_ne!(
        a.replace("synth_src0", "X"),
        b.replace("synth_src1", "X"),
        "independent sources should not be identical draws"
    );
}
