//! The generator proper: schemas, clean data, exact-count dirt
//! injection, and the correspondence wiring.

use crate::config::SynthConfig;
use crate::manifest::{
    ColumnDirt, DuplicatePair, FkViolation, KeyViolation, PayloadKind, RenameRecord, SourceDirt,
    SynthManifest, TableDirt,
};
use efes_relational::{
    Column, CorrespondenceBuilder, Database, DatabaseBuilder, DataType, IntegrationScenario, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// A generated scenario together with its ground-truth manifest.
#[derive(Debug, Clone)]
pub struct SynthScenario {
    /// The integration scenario, ready for the estimator.
    pub scenario: IntegrationScenario,
    /// The machine-readable record of every injected defect.
    pub manifest: SynthManifest,
}

/// Target table name pool; suffixed once the pool wraps.
const TABLE_NAMES: [&str; 8] = [
    "items", "orders", "events", "entries", "stocks", "labels", "assets", "notes",
];

/// Payload kinds with their canonical and synonym attribute names, in
/// cycle order.
const PAYLOADS: [(PayloadKind, &str, &str); 5] = [
    (PayloadKind::Categorical, "category", "genre"),
    (PayloadKind::Integer, "amount", "quantity"),
    (PayloadKind::Float, "rating", "score"),
    (PayloadKind::NumericText, "price", "cost"),
    (PayloadKind::DateText, "added", "created"),
];

/// Vocabulary for categorical payload columns.
const CATEGORIES: [&str; 16] = [
    "rock", "jazz", "folk", "blues", "soul", "punk", "metal", "indie", "house", "ambient", "ska",
    "funk", "gospel", "grunge", "techno", "dub",
];

fn table_name(i: usize) -> String {
    let base = TABLE_NAMES[i % TABLE_NAMES.len()];
    if i < TABLE_NAMES.len() {
        base.to_owned()
    } else {
        format!("{base}{}", i / TABLE_NAMES.len())
    }
}

fn fragment_name(table: usize, fragment: usize) -> String {
    format!("{}_p{fragment}", table_name(table))
}

/// The `(kind, canonical name, synonym name)` of payload attribute `p`.
fn payload_spec(p: usize) -> (PayloadKind, String, String) {
    let (kind, canonical, synonym) = PAYLOADS[p % PAYLOADS.len()];
    if p < PAYLOADS.len() {
        (kind, canonical.to_owned(), synonym.to_owned())
    } else {
        let n = p / PAYLOADS.len();
        (kind, format!("{canonical}{n}"), format!("{synonym}{n}"))
    }
}

fn datatype_of(kind: PayloadKind) -> DataType {
    match kind {
        PayloadKind::Integer => DataType::Integer,
        PayloadKind::Float => DataType::Float,
        PayloadKind::Categorical | PayloadKind::NumericText | PayloadKind::DateText => {
            DataType::Text
        }
    }
}

/// Exact defect count for a rate over `n` rows: `round(rate · n)`.
fn count_of(rate: f64, n: usize) -> usize {
    ((rate * n as f64).round() as usize).min(n)
}

/// `k` distinct indices from `0..n` via a partial Fisher–Yates shuffle —
/// O(n) and exactly as random as the RNG, with no rejection loops.
fn sample_distinct(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    let mut idx: Vec<usize> = (0..n).collect();
    for t in 0..k {
        let j = rng.gen_range(t..n);
        idx.swap(t, j);
    }
    idx.truncate(k);
    idx
}

/// Reformat a canonical numeric-text cell (`"1234567"`) into the
/// alternate thousands-separator format (`"1,234,567"`).
fn alt_numeric(canonical: &str) -> String {
    let digits: Vec<u8> = canonical.bytes().collect();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, b) in digits.iter().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(*b as char);
    }
    out
}

/// Reformat a canonical ISO date (`"2024-03-07"`) into the alternate
/// `DD/MM/YYYY` format (`"07/03/2024"`).
fn alt_date(canonical: &str) -> String {
    let mut parts = canonical.splitn(3, '-');
    let (y, m, d) = (
        parts.next().unwrap_or(""),
        parts.next().unwrap_or(""),
        parts.next().unwrap_or(""),
    );
    format!("{d}/{m}/{y}")
}

/// One clean payload cell.
fn clean_cell(rng: &mut StdRng, kind: PayloadKind) -> Value {
    match kind {
        PayloadKind::Categorical => {
            Value::Text(CATEGORIES[rng.gen_range(0..CATEGORIES.len())].to_owned())
        }
        PayloadKind::Integer => Value::Int(rng.gen_range(0..100_000i64)),
        PayloadKind::Float => Value::Float(rng.gen_range(0..1_000_000i64) as f64 / 100.0),
        PayloadKind::NumericText => Value::Text(rng.gen_range(1_000..10_000_000i64).to_string()),
        PayloadKind::DateText => {
            let y = rng.gen_range(1990..2025i64);
            let m = rng.gen_range(1..13i64);
            let d = rng.gen_range(1..29i64);
            Value::Text(format!("{y:04}-{m:02}-{d:02}"))
        }
    }
}

/// Rows of fragment `j` when `rows` are split across `fanout` fragments.
fn fragment_rows(rows: usize, fanout: usize, j: usize) -> usize {
    rows / fanout + usize::from(j < rows % fanout)
}

/// Generate a scenario from a configuration. The configuration is
/// [normalized](SynthConfig::normalized) first, the RNG is seeded from
/// `config.seed`, and everything downstream is deterministic: the same
/// configuration always yields a byte-identical scenario and manifest.
pub fn generate(config: &SynthConfig) -> SynthScenario {
    let cfg = config.normalized();
    let shape = cfg.shape;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let target = target_database(&cfg);
    let mut manifest = SynthManifest {
        seed: cfg.seed,
        sources: Vec::new(),
        renames: Vec::new(),
    };
    let mut sources: Vec<Database> = Vec::new();
    for s in 0..shape.sources {
        let built = generate_source(s, &cfg, &mut rng);
        manifest.sources.push(built.dirt);
        manifest.renames.extend(built.renames);
        sources.push(built.db);
    }

    // Correspondences: every fragment feeds its target table; attributes
    // map by position (id → id, payload p → payload p, ref → ref), with
    // names resolved against the possibly-renamed source schema.
    let mut cb = CorrespondenceBuilder::multi(sources.iter().collect(), &target);
    for (s, db) in sources.iter().enumerate() {
        for i in 0..shape.tables {
            let tt = table_name(i);
            for j in 0..shape.fanout {
                let st = fragment_name(i, j);
                let stid = db.schema.table_id(&st).expect("fragment exists");
                cb = cb
                    .table_from(s, &st, &tt)
                    .and_then(|b| b.attr_from(s, &st, "id", &tt, "id"))
                    .expect("id correspondence resolves");
                for p in 0..shape.payload_attrs {
                    let (_, canonical, _) = payload_spec(p);
                    // Attribute p + 1 in declaration order (after `id`).
                    let source_attr =
                        db.schema.table(stid).attributes[p + 1].name.clone();
                    cb = cb
                        .attr_from(s, &st, &source_attr, &tt, &canonical)
                        .expect("payload correspondence resolves");
                }
                if i > 0 {
                    cb = cb
                        .attr_from(s, &st, "ref", &tt, "ref")
                        .expect("ref correspondence resolves");
                }
            }
        }
    }
    let correspondences = cb.finish();

    let name = format!(
        "synth-seed{}-t{}x{}-r{}-f{}-s{}",
        cfg.seed, shape.tables, shape.payload_attrs, shape.rows, shape.fanout, shape.sources
    );
    let scenario = IntegrationScenario::multi_source(name, sources, target, correspondences)
        .expect("generated correspondences are well-formed");
    SynthScenario { scenario, manifest }
}

/// The target schema: `id` primary keys, NOT NULL payloads, and a `ref`
/// foreign key from every non-parent table into the parent. These
/// prescribed constraints are what make the injected dirt *visible* to
/// the structure detector (the sources deliberately declare none of
/// them).
fn target_database(cfg: &SynthConfig) -> Database {
    let shape = cfg.shape;
    let parent = table_name(0);
    let mut b = DatabaseBuilder::new("synth_target");
    for i in 0..shape.tables {
        let parent = parent.clone();
        b = b.table(&table_name(i), |mut t| {
            t = t.attr("id", DataType::Integer).primary_key(&["id"]);
            for p in 0..shape.payload_attrs {
                let (kind, canonical, _) = payload_spec(p);
                t = t.attr(&canonical, datatype_of(kind)).not_null(&canonical);
            }
            if i > 0 {
                t = t
                    .attr("ref", DataType::Integer)
                    .foreign_key(&["ref"], &parent, &["id"]);
            }
            t
        });
    }
    b.build().expect("target schema is well-formed")
}

struct BuiltSource {
    db: Database,
    dirt: SourceDirt,
    renames: Vec<RenameRecord>,
}

fn generate_source(s: usize, cfg: &SynthConfig, rng: &mut StdRng) -> BuiltSource {
    let shape = cfg.shape;
    let dirt = cfg.dirt;
    let db_name = format!("synth_src{s}");

    // 1. Decide synonym renames up front (schema construction consumes
    //    them in declaration order).
    let mut renames: Vec<RenameRecord> = Vec::new();
    let mut attr_names: Vec<Vec<Vec<String>>> = Vec::new(); // [table][fragment][payload]
    for i in 0..shape.tables {
        let mut per_fragment = Vec::new();
        for j in 0..shape.fanout {
            let mut names = Vec::new();
            for p in 0..shape.payload_attrs {
                let (_, canonical, synonym) = payload_spec(p);
                if rng.gen_range(0.0..1.0) < dirt.synonym_rename_rate {
                    renames.push(RenameRecord {
                        source: s,
                        table: fragment_name(i, j),
                        canonical,
                        renamed: synonym.clone(),
                    });
                    names.push(synonym);
                } else {
                    names.push(canonical);
                }
            }
            per_fragment.push(names);
        }
        attr_names.push(per_fragment);
    }

    // 2. Source schema: fragments declare *only* the intra-source FK
    //    (child fragment j → parent fragment j). No PK / UNIQUE / NOT
    //    NULL — the conflict detector infers weak cardinalities and must
    //    consult the data wherever the target prescribes more.
    let mut b = DatabaseBuilder::new(&db_name);
    for (i, per_fragment) in attr_names.iter().enumerate() {
        for (j, fragment_attrs) in per_fragment.iter().enumerate() {
            let names = fragment_attrs.clone();
            let parent = fragment_name(0, j);
            b = b.table(&fragment_name(i, j), |mut t| {
                t = t.attr("id", DataType::Integer);
                for (p, name) in names.iter().enumerate() {
                    let (kind, _, _) = payload_spec(p);
                    t = t.attr(name, datatype_of(kind));
                }
                if i > 0 {
                    t = t
                        .attr("ref", DataType::Integer)
                        .foreign_key(&["ref"], &parent, &["id"]);
                }
                t
            });
        }
    }
    let mut db = b.build().expect("source schema is well-formed");

    // 3. Per-fragment data. Parent fragments (table 0) are generated
    //    first so child refs can sample from the parent's *final* id
    //    column (key-violation injection destroys some original ids).
    let mut parent_ids: Vec<Vec<i64>> = Vec::new();
    let mut dangling_next: i64 = -1; // negative ⇒ never a real id
    let mut tables_dirt: Vec<TableDirt> = Vec::new();
    for (i, per_fragment) in attr_names.iter().enumerate() {
        for (j, fragment_attrs) in per_fragment.iter().enumerate() {
            let n = fragment_rows(shape.rows, shape.fanout, j);
            // Disjoint id ranges per fragment: n originals + up to n
            // duplicate keys fit in a stride of 2n (+1 for n = 0).
            let offset = ((i * shape.fanout + j) * (2 * shape.rows + 1)) as i64;
            let fragment = generate_fragment(FragmentSpec {
                rng,
                cfg,
                name: fragment_name(i, j),
                target_table: table_name(i),
                attr_names: fragment_attrs,
                n,
                offset,
                parent_ids: if i > 0 { Some(&parent_ids[j]) } else { None },
                dangling_next: &mut dangling_next,
            });
            if i == 0 {
                let ids = fragment
                    .columns[0]
                    .iter()
                    .map(|v| v.as_int().expect("id column holds integers"))
                    .collect();
                parent_ids.push(ids);
            }
            db.load_columns_by_name(
                &fragment.dirt.table.clone(),
                fragment
                    .columns
                    .into_iter()
                    .map(Column::from_cells)
                    .collect(),
            )
            .expect("generated columns match the declared schema");
            tables_dirt.push(fragment.dirt);
        }
    }

    BuiltSource {
        db,
        dirt: SourceDirt {
            source: db_name,
            tables: tables_dirt,
        },
        renames,
    }
}

struct FragmentSpec<'a> {
    rng: &'a mut StdRng,
    cfg: &'a SynthConfig,
    name: String,
    target_table: String,
    attr_names: &'a [String],
    n: usize,
    offset: i64,
    parent_ids: Option<&'a [i64]>,
    dangling_next: &'a mut i64,
}

struct Fragment {
    /// `id`, payloads…, and (for child fragments) `ref` — cell vectors
    /// in declaration order, ready for [`Column::from_cells`].
    columns: Vec<Vec<Value>>,
    dirt: TableDirt,
}

/// Generate one fragment: clean columns first, then dirt injected in a
/// fixed order whose defect sets are pairwise disjoint per column, so
/// the manifest counts are exact under any knob combination:
///
/// 1. per payload column, alternate formats then NULLs (one disjoint
///    index sample covers both);
/// 2. duplicate keys (victims and donors pairwise distinct);
/// 3. dangling references (child fragments only);
/// 4. appended near-duplicate rows, with incremental bookkeeping for
///    every defect the copied cells carry along.
fn generate_fragment(spec: FragmentSpec<'_>) -> Fragment {
    let FragmentSpec {
        rng,
        cfg,
        name,
        target_table,
        attr_names,
        n,
        offset,
        parent_ids,
        dangling_next,
    } = spec;
    let dirt = cfg.dirt;
    let payloads = cfg.shape.payload_attrs;

    // Clean columns, generated column-major.
    let mut id_col: Vec<Value> = (0..n).map(|r| Value::Int(offset + r as i64)).collect();
    let mut payload_cols: Vec<Vec<Value>> = (0..payloads)
        .map(|p| {
            let (kind, _, _) = payload_spec(p);
            (0..n).map(|_| clean_cell(rng, kind)).collect()
        })
        .collect();
    let mut ref_col: Option<Vec<Value>> = parent_ids.map(|ids| {
        (0..n)
            .map(|_| {
                if ids.is_empty() {
                    Value::Null
                } else {
                    Value::Int(ids[rng.gen_range(0..ids.len())])
                }
            })
            .collect()
    });

    // 1. Format heterogeneity + NULLs, one disjoint sample per column.
    let mut columns_dirt: Vec<ColumnDirt> = Vec::new();
    for (p, col) in payload_cols.iter_mut().enumerate() {
        let (kind, canonical, _) = payload_spec(p);
        let fmt_rate = match kind {
            PayloadKind::NumericText => dirt.numeric_format_rate,
            PayloadKind::DateText => dirt.date_format_rate,
            _ => 0.0,
        };
        let k_fmt = count_of(fmt_rate, n);
        let k_null = count_of(dirt.null_rate, n).min(n - k_fmt);
        let picked = sample_distinct(rng, n, k_fmt + k_null);
        let mut alt_format: Vec<usize> = picked[..k_fmt].to_vec();
        let mut nulls: Vec<usize> = picked[k_fmt..].to_vec();
        alt_format.sort_unstable();
        nulls.sort_unstable();
        for &r in &alt_format {
            let canonical_text = col[r].as_text().expect("formatted cells are text");
            col[r] = Value::Text(match kind {
                PayloadKind::NumericText => alt_numeric(canonical_text),
                PayloadKind::DateText => alt_date(canonical_text),
                _ => unreachable!("only text kinds get alternate formats"),
            });
        }
        for &r in &nulls {
            col[r] = Value::Null;
        }
        columns_dirt.push(ColumnDirt {
            attribute: attr_names[p].clone(),
            canonical,
            kind,
            nulls,
            alt_format,
        });
    }

    // 2. Duplicate keys: victims take donors' ids.
    let k_key = count_of(dirt.key_violation_rate, n).min(n / 2);
    let picked = sample_distinct(rng, n, 2 * k_key);
    let mut key_violations: Vec<KeyViolation> = (0..k_key)
        .map(|t| {
            let (victim_row, donor_row) = (picked[t], picked[k_key + t]);
            let value = id_col[donor_row].as_int().expect("ids are integers");
            id_col[victim_row] = Value::Int(value);
            KeyViolation {
                victim_row,
                donor_row,
                value,
            }
        })
        .collect();
    key_violations.sort_unstable_by_key(|v| v.victim_row);

    // 3. Dangling references (child fragments only).
    let mut fk_violations: Vec<FkViolation> = Vec::new();
    if let Some(refs) = ref_col.as_mut() {
        let k_fk = count_of(dirt.fk_violation_rate, n);
        let mut rows = sample_distinct(rng, n, k_fk);
        rows.sort_unstable();
        for r in rows {
            let value = *dangling_next;
            *dangling_next -= 1;
            refs[r] = Value::Int(value);
            fk_violations.push(FkViolation { row: r, value });
        }
    }

    // 4. Appended near-duplicates, copying payload and ref cells (and
    //    therefore any defects those cells carry) under a fresh id.
    let k_dup = count_of(dirt.duplicate_rate, n);
    let mut bases = sample_distinct(rng, n, k_dup);
    bases.sort_unstable();
    let null_sets: Vec<HashSet<usize>> = columns_dirt
        .iter()
        .map(|c| c.nulls.iter().copied().collect())
        .collect();
    let alt_sets: Vec<HashSet<usize>> = columns_dirt
        .iter()
        .map(|c| c.alt_format.iter().copied().collect())
        .collect();
    let dangling_of: HashMap<usize, i64> = fk_violations
        .iter()
        .map(|v| (v.row, v.value))
        .collect();
    let mut duplicate_pairs: Vec<DuplicatePair> = Vec::new();
    for (t, &base_row) in bases.iter().enumerate() {
        let dup_row = n + t;
        id_col.push(Value::Int(offset + (n + t) as i64));
        for (p, col) in payload_cols.iter_mut().enumerate() {
            col.push(col[base_row].clone());
            if null_sets[p].contains(&base_row) {
                columns_dirt[p].nulls.push(dup_row);
            }
            if alt_sets[p].contains(&base_row) {
                columns_dirt[p].alt_format.push(dup_row);
            }
        }
        if let Some(refs) = ref_col.as_mut() {
            refs.push(refs[base_row].clone());
            if let Some(&value) = dangling_of.get(&base_row) {
                fk_violations.push(FkViolation { row: dup_row, value });
            }
        }
        duplicate_pairs.push(DuplicatePair { base_row, dup_row });
    }

    let mut columns = Vec::with_capacity(1 + payloads + usize::from(ref_col.is_some()));
    columns.push(id_col);
    columns.extend(payload_cols);
    if let Some(refs) = ref_col {
        columns.push(refs);
    }
    Fragment {
        columns,
        dirt: TableDirt {
            table: name,
            target_table,
            rows: n + k_dup,
            columns: columns_dirt,
            key_violations,
            fk_violations,
            duplicate_pairs,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_byte_identical() {
        let cfg = SynthConfig::default().with_rows(120);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.scenario.name, b.scenario.name);
        assert_eq!(a.scenario.sources, b.scenario.sources);
        assert_eq!(a.scenario.target, b.scenario.target);
        assert_eq!(a.scenario.correspondences, b.scenario.correspondences);
        assert_eq!(a.manifest, b.manifest);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SynthConfig::default().with_rows(60).with_seed(1));
        let b = generate(&SynthConfig::default().with_rows(60).with_seed(2));
        assert_ne!(a.scenario.sources, b.scenario.sources);
    }

    #[test]
    fn clean_sources_validate_against_their_schemas() {
        let out = generate(&SynthConfig::clean().with_rows(80).with_sources(2));
        assert!(out.manifest.is_clean());
        for db in &out.scenario.sources {
            db.assert_valid();
        }
    }

    #[test]
    fn shape_matches_knobs() {
        let mut cfg = SynthConfig::default().with_rows(50);
        cfg.shape.tables = 3;
        cfg.shape.fanout = 2;
        cfg.shape.payload_attrs = 4;
        cfg.shape.sources = 2;
        let out = generate(&cfg);
        assert_eq!(out.scenario.sources.len(), 2);
        assert_eq!(out.scenario.target.schema.table_count(), 3);
        for db in &out.scenario.sources {
            assert_eq!(db.schema.table_count(), 3 * 2);
        }
        // Fragments split the per-table row budget (before duplicates).
        let parent_rows: usize = (0..2).map(|j| fragment_rows(50, 2, j)).sum();
        assert_eq!(parent_rows, 50);
        // id + payloads for parent fragments; +ref for child fragments.
        let db = &out.scenario.sources[0];
        let parent = db.schema.table_id("items_p0").unwrap();
        assert_eq!(db.schema.table(parent).arity(), 1 + 4);
        let child = db.schema.table_id("orders_p0").unwrap();
        assert_eq!(db.schema.table(child).arity(), 1 + 4 + 1);
    }

    #[test]
    fn alt_formats_round_trip() {
        assert_eq!(alt_numeric("1234567"), "1,234,567");
        assert_eq!(alt_numeric("123"), "123");
        assert_eq!(alt_numeric("1234"), "1,234");
        assert_eq!(alt_date("2024-03-07"), "07/03/2024");
    }

    #[test]
    fn columnar_cache_is_seeded_by_the_generator() {
        let out = generate(&SynthConfig::default().with_rows(40));
        let db = &out.scenario.sources[0];
        let tid = db.schema.table_id("items_p0").unwrap();
        // The column store exists without any profiling having run; it
        // must hold exactly the cells of the table's rows.
        let data = db.instance.table(tid);
        let seeded = data.column_store(efes_relational::AttrId(0)).unwrap();
        let cells: Vec<Value> = data.rows().map(|row| row[0].clone()).collect();
        assert_eq!(seeded, &Column::from_cells(cells));
    }
}
