//! `bench_smoke` — a fast, plain-wall-clock benchmark of the profiling
//! and matching hot paths, for CI smoke runs and for recording the
//! accumulator / columnar-store / sparse-flooding / pruned-matcher
//! speedups next to the commit that produced them.
//!
//! ```text
//! cargo run --release -p efes-bench --bin bench_smoke -- --quick
//! cargo run --release -p efes-bench --bin bench_smoke -- \
//!     --out BENCH_profiling.json --out-matching BENCH_matching.json
//! ```
//!
//! Unlike the Criterion benches (`cargo bench -p efes-bench`), this
//! finishes in seconds: per stage it takes the median of a handful of
//! timed runs. Numbers are indicative, not statistically rigorous — the
//! point is a recorded order-of-magnitude trend per commit. The process
//! fails (non-zero exit) only on build/run errors, never on regressions.

use efes_bench::Provenance;
use efes_exec::ExecutionMode;
use efes_matching::{
    similarity_flooding, similarity_flooding_reference, CombinedMatcher, FloodingConfig,
    MatcherConfig, PrunePolicy,
};
use efes_profiling::{AttributeProfile, ProfileCache};
use efes_relational::{Column, DataType, Database, DatabaseBuilder, Value};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Stage {
    name: String,
    rows: usize,
    iters: usize,
    median_ns: u64,
    median_ms: f64,
}

#[derive(Serialize)]
struct Speedups {
    text_accumulator: f64,
    text_columnar: f64,
    text_columnar_including_build: f64,
    numeric_accumulator: f64,
    numeric_columnar: f64,
}

#[derive(Serialize)]
struct Report {
    scenario: String,
    provenance: Provenance,
    quick: bool,
    stages: Vec<Stage>,
    speedups_vs_multipass: Speedups,
}

#[derive(Serialize)]
struct MatchingSpeedups {
    flooding_sparse_vs_reference: f64,
    matcher_pruned_vs_exhaustive: f64,
}

#[derive(Serialize)]
struct MatchingReport {
    scenario: String,
    provenance: Provenance,
    quick: bool,
    tables: usize,
    attrs_per_table: usize,
    stages: Vec<Stage>,
    speedups: MatchingSpeedups,
}

/// A wide schema-only database for the matching benchmark: `tables`
/// tables of `attrs_per_table` attributes, names drawn from a shared
/// 120-word vocabulary of realistic identifiers (`album_id`,
/// `venue_date`, …) so labels repeat across tables and source/target
/// overlap partially — the shape pruning and interning target.
fn wide_schema(tag: &str, tables: usize, attrs_per_table: usize, stride: usize) -> Database {
    const STEMS: [&str; 20] = [
        "album", "artist", "track", "genre", "year", "price", "isbn", "venue", "city", "count",
        "length", "title", "owner", "email", "phone", "status", "region", "volume", "weight",
        "height",
    ];
    const SUFFIXES: [&str; 6] = ["", "_id", "_name", "_code", "_date", "_num"];
    let vocab: Vec<String> = STEMS
        .iter()
        .flat_map(|s| SUFFIXES.iter().map(move |x| format!("{s}{x}")))
        .collect();
    let mut b = DatabaseBuilder::new(tag);
    for i in 0..tables {
        let table = format!("{}_{i}", STEMS[(i * stride) % STEMS.len()]);
        b = b.table(&table, |mut t| {
            for j in 0..attrs_per_table {
                // j·7 mod 120 is injective for j < 20: unique per table.
                t = t.attr(&vocab[(i * stride + j * 7) % vocab.len()], DataType::Text);
            }
            t
        });
    }
    b.build().expect("synthetic schema")
}

/// Dictionary-friendly text column: `m:ss` durations, ~420 distinct
/// values — the text-heavy shape the columnar kernel targets.
fn text_column(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| Value::Text(format!("{}:{:02}", 2 + i % 7, (i * 13) % 60)))
        .collect()
}

fn int_column(n: usize) -> Vec<Value> {
    (0..n).map(|i| Value::Int(120_000 + i as i64 * 37)).collect()
}

/// High-cardinality text column: essentially one distinct string per
/// row. The dictionary walk *is* the profiling cost here, and there is
/// one value count per row, so this is the shape where finalizing
/// (constancy over every count, top-k selection) costs the most.
fn hicard_text_column(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| {
            Value::Text(format!(
                "record-{i:06} {}",
                (i.wrapping_mul(2_654_435_761)) % 997
            ))
        })
        .collect()
}

/// Median wall-clock nanoseconds of `iters` runs of `f` (after one
/// warm-up run).
fn median_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    f();
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_profiling.json".to_owned());
    let out_matching = args
        .iter()
        .position(|a| a == "--out-matching")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_matching.json".to_owned());
    // Captured before either report is written, so the dirty flag
    // describes the measured tree, not this run's own output.
    let provenance = Provenance::capture();

    let (rows, iters) = if quick { (20_000usize, 5usize) } else { (100_000, 9) };

    let texts = text_column(rows);
    let ints = int_column(rows);

    let mut stages = Vec::new();
    let mut record = |name: &str, ns: u64| {
        eprintln!("  {name:32} {:10.3} ms", ns as f64 / 1e6);
        stages.push(Stage {
            name: name.to_owned(),
            rows,
            iters,
            median_ns: ns,
            median_ms: ns as f64 / 1e6,
        });
        ns
    };

    eprintln!("bench_smoke: profiling hot path, {rows} rows × {iters} iters (median)");
    let text_multi = record("text_profile_multipass", median_ns(iters, || {
        std::hint::black_box(AttributeProfile::compute_multipass(texts.iter(), DataType::Text));
    }));
    let text_acc = record("text_profile_accumulator", median_ns(iters, || {
        std::hint::black_box(AttributeProfile::compute(texts.iter(), DataType::Text));
    }));
    // Includes building the column from a copy of the cells: the cost of
    // loading the data as well as profiling it.
    let text_col_build = record("text_columnar_build_plus_profile", median_ns(iters, || {
        let col = Column::from_cells(texts.clone());
        std::hint::black_box(AttributeProfile::compute_columnar(&col, DataType::Text));
    }));
    let text_store = Column::from_cells(texts.clone());
    let text_col = record("text_profile_columnar", median_ns(iters, || {
        std::hint::black_box(AttributeProfile::compute_columnar(&text_store, DataType::Text));
    }));

    let num_multi = record("numeric_profile_multipass", median_ns(iters, || {
        std::hint::black_box(AttributeProfile::compute_multipass(ints.iter(), DataType::Integer));
    }));
    let num_acc = record("numeric_profile_accumulator", median_ns(iters, || {
        std::hint::black_box(AttributeProfile::compute(ints.iter(), DataType::Integer));
    }));
    let int_store = Column::from_cells(ints.clone());
    let num_col = record("numeric_profile_columnar", median_ns(iters, || {
        std::hint::black_box(AttributeProfile::compute_columnar(&int_store, DataType::Integer));
    }));

    // ---- accumulator over typed columns, fixed 100k rows ----
    // Always the full-size columns (even under --quick, with fewer
    // iters): high-cardinality text and distinct integers are where the
    // count map, and so finalize, is largest.
    let wide_rows = 100_000usize;
    let wide_iters = if quick { 3usize } else { 5 };
    let hicard_store = Column::from_cells(hicard_text_column(wide_rows));
    let int100_store = Column::from_cells(int_column(wide_rows));

    let mut record_wide = |name: &str, ns: u64| {
        eprintln!("  {name:32} {:10.3} ms", ns as f64 / 1e6);
        stages.push(Stage {
            name: name.to_owned(),
            rows: wide_rows,
            iters: wide_iters,
            median_ns: ns,
            median_ms: ns as f64 / 1e6,
        });
        ns
    };

    eprintln!(
        "bench_smoke: accumulator over typed columns, {wide_rows} rows × {wide_iters} iters (median)"
    );
    record_wide("text_hicard_profile_accumulator", median_ns(wide_iters, || {
        std::hint::black_box(AttributeProfile::compute_columnar(&hicard_store, DataType::Text));
    }));
    record_wide("numeric_100k_profile_accumulator", median_ns(wide_iters, || {
        std::hint::black_box(AttributeProfile::compute_columnar(&int100_store, DataType::Integer));
    }));

    let ratio = |base: u64, new: u64| {
        if new == 0 {
            0.0
        } else {
            base as f64 / new as f64
        }
    };
    let report = Report {
        scenario: "profiling-hot-path".to_owned(),
        provenance: provenance.clone(),
        quick,
        stages,
        speedups_vs_multipass: Speedups {
            text_accumulator: ratio(text_multi, text_acc),
            text_columnar: ratio(text_multi, text_col),
            text_columnar_including_build: ratio(text_multi, text_col_build),
            numeric_accumulator: ratio(num_multi, num_acc),
            numeric_columnar: ratio(num_multi, num_col),
        },
    };
    let pretty = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, pretty + "\n").expect("write report");
    eprintln!(
        "speedups vs multipass: text accumulator {:.2}x, text columnar {:.2}x, numeric accumulator {:.2}x, numeric columnar {:.2}x",
        ratio(text_multi, text_acc),
        ratio(text_multi, text_col),
        ratio(num_multi, num_acc),
        ratio(num_multi, num_col),
    );
    eprintln!("wrote {out_path}");

    // ---- matching hot path: wide synthetic schema ----
    let (m_tables, m_attrs, m_iters) = if quick { (12usize, 8usize, 3usize) } else { (50, 20, 3) };
    let m_src = wide_schema("wide_src", m_tables, m_attrs, 13);
    let m_tgt = wide_schema("wide_tgt", m_tables, m_attrs, 31);
    let attrs_total = m_tables * m_attrs;
    // Fixed iteration budget: sparse and reference run the identical
    // fixpoint (bit-equal results), so wall-clock is directly comparable.
    let flood_cfg = FloodingConfig {
        max_iterations: 8,
        epsilon: 1e-4,
    };

    let mut m_stages = Vec::new();
    let mut m_record = |name: &str, ns: u64| {
        eprintln!("  {name:32} {:10.3} ms", ns as f64 / 1e6);
        m_stages.push(Stage {
            name: name.to_owned(),
            rows: attrs_total,
            iters: m_iters,
            median_ns: ns,
            median_ms: ns as f64 / 1e6,
        });
        ns
    };

    eprintln!(
        "bench_smoke: matching hot path, {m_tables} tables × {m_attrs} attrs ({attrs_total} attrs/side) × {m_iters} iters (median)"
    );
    let flood_ref = m_record("flooding_reference", median_ns(m_iters, || {
        std::hint::black_box(similarity_flooding_reference(&m_src, &m_tgt, &flood_cfg));
    }));
    let flood_sparse = m_record("flooding_sparse", median_ns(m_iters, || {
        std::hint::black_box(similarity_flooding(&m_src, &m_tgt, &flood_cfg));
    }));

    let run_matcher = |prune: PrunePolicy| {
        let matcher = CombinedMatcher::new(MatcherConfig::default()).with_prune(prune);
        std::hint::black_box(matcher.propose_attribute_matches_with(
            &m_src,
            &m_tgt,
            &ProfileCache::new(),
            ExecutionMode::from_env(),
        ));
    };
    let matcher_exhaustive = m_record("matcher_exhaustive", median_ns(m_iters, || {
        run_matcher(PrunePolicy::Off);
    }));
    let matcher_pruned = m_record("matcher_pruned", median_ns(m_iters, || {
        run_matcher(PrunePolicy::On);
    }));

    let matching_report = MatchingReport {
        scenario: "matching-hot-path".to_owned(),
        provenance,
        quick,
        tables: m_tables,
        attrs_per_table: m_attrs,
        stages: m_stages,
        speedups: MatchingSpeedups {
            flooding_sparse_vs_reference: ratio(flood_ref, flood_sparse),
            matcher_pruned_vs_exhaustive: ratio(matcher_exhaustive, matcher_pruned),
        },
    };
    let pretty = serde_json::to_string_pretty(&matching_report).expect("serialize matching report");
    std::fs::write(&out_matching, pretty + "\n").expect("write matching report");
    eprintln!(
        "matching speedups: sparse flooding {:.2}x vs reference, pruned matcher {:.2}x vs exhaustive",
        ratio(flood_ref, flood_sparse),
        ratio(matcher_exhaustive, matcher_pruned),
    );
    eprintln!("wrote {out_matching}");
}
