//! `bench_scale` — a scale sweep over synthetic scenarios that fits a
//! per-stage scaling exponent, to find the next super-linear hot path.
//!
//! ```text
//! cargo run --release -p efes-bench --bin bench_scale               # 10^4 → 10^7
//! cargo run --release -p efes-bench --bin bench_scale -- --quick    # 10^4 → 10^5
//! ```
//!
//! For each row count the sweep generates one seeded scenario with
//! `efes-synth` (fixed shape, default dirt) and times seven stages
//! independently: generation itself, parsing the scenario's JSON-rows
//! upload body (`ScenarioUpload::parse`; the body is serialised once
//! per scale, outside the timed region), attribute profiling, matcher
//! scoring, CSG conversion of the source alone, CSG planning (the
//! structure module's assess + plan, as a served estimate runs them:
//! source conversion, relationship matching and conflict detection,
//! then the repair simulation over the findings), and the full
//! sequential estimate. A log-log least-squares
//! fit of median wall-clock against row count yields each stage's
//! empirical scaling exponent — `1.0` is linear, `2.0` quadratic. Like
//! `bench_smoke`, numbers are medians of a handful of runs: indicative
//! trends, not statistics. The process only fails on build/run errors;
//! exponent gating is the CI job's concern.

use efes::modules::StructureModule;
use efes::prelude::*;
use efes_bench::Provenance;
use efes_csg::database_to_csg_ctx;
use efes_exec::{ExecutionMode, RunContext};
use efes_ingest::{ScenarioUpload, UploadFormat};
use efes_matching::CombinedMatcher;
use efes_profiling::{AttributeProfile, ProfileCache};
use efes_synth::{SynthConfig, SynthScenario};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

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

#[derive(Serialize)]
struct Point {
    rows: usize,
    iters: usize,
    /// Median wall-clock nanoseconds per stage at this scale.
    median_ns: BTreeMap<String, u64>,
}

#[derive(Serialize)]
struct StageFit {
    name: String,
    /// Log-log least-squares slope: the empirical scaling exponent.
    exponent: f64,
    /// Goodness of the fit (1.0 = perfect power law).
    r2: f64,
    /// Median milliseconds at the largest swept scale.
    median_ms_at_max: f64,
}

#[derive(Serialize)]
struct ShapeSummary {
    tables: usize,
    payload_attrs: usize,
    fanout: usize,
    sources: usize,
    seed: u64,
}

#[derive(Serialize)]
struct Report {
    scenario: String,
    provenance: Provenance,
    quick: bool,
    shape: ShapeSummary,
    points: Vec<Point>,
    stages: Vec<StageFit>,
}

/// Ordinary least squares on `(ln x, ln y)`: returns `(slope, r²)`.
fn fit_power(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let xs: Vec<f64> = points.iter().map(|(x, _)| x.ln()).collect();
    let ys: Vec<f64> = points.iter().map(|(_, y)| y.max(1.0).ln()).collect();
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let syy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    if sxx == 0.0 {
        return (0.0, 0.0);
    }
    let slope = sxy / sxx;
    let r2 = if syy == 0.0 { 1.0 } else { (sxy * sxy) / (sxx * syy) };
    (slope, r2)
}

/// The fixed sweep shape: only `rows` varies, so the fitted exponent is
/// a pure function of data volume.
fn sweep_config(rows: usize) -> SynthConfig {
    let mut cfg = SynthConfig::default().with_rows(rows);
    cfg.shape.tables = 2;
    cfg.shape.payload_attrs = 3;
    cfg.shape.fanout = 2;
    cfg.shape.sources = 1;
    cfg
}

/// Profile every attribute of every source table through a fresh cache —
/// the phase-1 workload of the values module.
fn profile_all(out: &SynthScenario) {
    let db = &out.scenario.sources[0];
    for (tid, table) in db.schema.tables().iter().enumerate() {
        for (aid, attr) in table.attributes.iter().enumerate() {
            std::hint::black_box(AttributeProfile::of_attribute(
                db,
                efes_relational::TableId(tid),
                efes_relational::AttrId(aid),
                attr.datatype,
            ));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_scale.json".to_owned());
    // Captured before anything is written, so the dirty flag describes
    // the measured tree, not this run's own report.
    let provenance = Provenance::capture();

    // Half-decade steps 10^4 → 10^7 (10^4 → 10^5 for --quick).
    let scales: &[usize] = if quick {
        &[10_000, 31_623, 100_000]
    } else {
        &[10_000, 31_623, 100_000, 316_228, 1_000_000, 3_162_278, 10_000_000]
    };
    // Above 10^6 rows each stage already runs for seconds; two timed
    // iterations (plus the warm-up) keep the full sweep tractable
    // without moving the median discernibly.
    let iters_at = |rows: usize| if rows > 1_000_000 { 2usize } else { 3usize };

    let est_config = || EstimationConfig::default().with_execution(ExecutionPolicy::Sequential);
    let mut points: Vec<Point> = Vec::new();
    eprintln!(
        "bench_scale: rows {:?} (median of 2-3 iters), fixed shape 2 tables × 3 payload attrs × fan-out 2",
        scales
    );
    for &rows in scales {
        let cfg = sweep_config(rows);
        let iters = iters_at(rows);
        let mut medians = BTreeMap::new();
        eprintln!("rows = {rows} ({iters} iters)");
        let mut record = |name: &str, ns: u64| {
            eprintln!("  {name:16} {:12.3} ms", ns as f64 / 1e6);
            medians.insert(name.to_owned(), ns);
        };

        record("generate", median_ns(iters, || {
            std::hint::black_box(efes_synth::generate(&cfg));
        }));

        let out = efes_synth::generate(&cfg);
        let body = serde_json::to_string(&ScenarioUpload::from_scenario(
            &out.scenario,
            UploadFormat::JsonRows,
        ))
        .expect("serialize upload");
        record("ingest_parse", median_ns(iters, || {
            std::hint::black_box(ScenarioUpload::parse(body.as_bytes()).expect("upload parses"));
        }));
        drop(body);
        record("profiling", median_ns(iters, || profile_all(&out)));
        record("matching", median_ns(iters, || {
            std::hint::black_box(CombinedMatcher::default().propose_attribute_matches_with(
                &out.scenario.sources[0],
                &out.scenario.target,
                &ProfileCache::new(),
                ExecutionMode::Sequential,
            ));
        }));
        record("csg_convert", median_ns(iters, || {
            std::hint::black_box(database_to_csg_ctx(
                &out.scenario.sources[0],
                &RunContext::unbounded(),
            ))
            .expect("unbounded runs never cancel");
        }));
        record("csg_planning", median_ns(iters, || {
            let module = StructureModule::default();
            let report = module.assess(&out.scenario).expect("assessment succeeds");
            std::hint::black_box(
                module
                    .plan(&out.scenario, &report, &est_config())
                    .expect("planning succeeds"),
            );
        }));
        record("end_to_end", median_ns(iters, || {
            std::hint::black_box(
                Estimator::with_default_modules(est_config())
                    .estimate(&out.scenario)
                    .expect("estimation succeeds"),
            );
        }));
        points.push(Point {
            rows,
            iters,
            median_ns: medians,
        });
    }

    let stage_names: Vec<String> = points[0].median_ns.keys().cloned().collect();
    let mut stages: Vec<StageFit> = Vec::new();
    eprintln!("fitted scaling exponents (ln t ~ e · ln rows):");
    for name in &stage_names {
        let series: Vec<(f64, f64)> = points
            .iter()
            .map(|p| (p.rows as f64, p.median_ns[name] as f64))
            .collect();
        let (exponent, r2) = fit_power(&series);
        let max_ns = points.last().unwrap().median_ns[name];
        eprintln!("  {name:16} e = {exponent:5.2}  (r² = {r2:4.2})");
        stages.push(StageFit {
            name: name.clone(),
            exponent,
            r2,
            median_ms_at_max: max_ns as f64 / 1e6,
        });
    }

    let shape = sweep_config(0);
    let report = Report {
        scenario: "synth-scale-sweep".to_owned(),
        provenance,
        quick,
        shape: ShapeSummary {
            tables: shape.shape.tables,
            payload_attrs: shape.shape.payload_attrs,
            fanout: shape.shape.fanout,
            sources: shape.shape.sources,
            seed: shape.seed,
        },
        points,
        stages,
    };
    let pretty = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, pretty + "\n").expect("write report");
    eprintln!("wrote {out_path}");
}
