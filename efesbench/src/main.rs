//! `efesbench` — measure `efes-serve` end to end, or layer by layer.
//!
//! ```text
//! bash efesbench/run.sh --workload paper_mix --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.sh` builds `efes-serve` and this benchmark in release mode and
//! passes `--server` and `--trace-dir`. The last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! ## Workloads
//!
//! * `paper_mix` — 2 clients send a seeded sequence of `POST /estimate`
//!   over the compiled-in case-study scenarios (all but
//!   `music-example-paper`) × {low-effort, high-quality}; every 10th op
//!   is a `POST /match`.
//! * `cold_scale` — 1 client uploads a fresh synthetic scenario
//!   (2.5·10⁴ rows per table), estimates it and deletes it, cycling through
//!   4 pre-generated bodies.
//! * `append_grow` — 1 client re-uploads one synthetic scenario with
//!   3000 more rows per table each step (`extended`) and estimates it;
//!   after 5 steps it deletes the scenario and starts again. Runs cover
//!   whole cycles.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! An op is timed from its first request byte sent to its last response
//! byte read. `setup_s` is the median over several boots of the time
//! from spawning the server until every op of the workload has been
//! answered once and verified; one untimed boot first puts the binary in
//! the page cache, and the last boot serves the timed window.
//! `throughput_rps` is successful ops per second, the median over
//! consecutive blocks of completions (one cycle, or 200 ops for the
//! paper mix), so that a burst of interference from a shared host moves
//! only the blocks it hits. `latency_p50_ms` is the median op latency,
//! `latency_tail_ms` the workload's fixed tail percentile (the run fails
//! when fewer than 10 ops lie beyond it; the percentile and n are
//! printed), and `peak_rss_mb` the server's `VmHWM` at the end.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! The traced run first drives the server exactly like the untimed run
//! for 40 % of `--seconds` (giving `exec.cpu_per_wall`), then replays the
//! ops one at a time against the server and in-process for the rest (see
//! the `layers` module). Timed layers report the median per-op self time
//! of their spans; a layer reports 0 on a workload where it does not
//! run.

use efesbench::child::Server;
use efesbench::layers;
use efesbench::load;
use efesbench::procfs;
use efesbench::stats::{self, median, MIN_BEYOND_TAIL};
use efesbench::workload::{self, Inputs, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed boots whose median is `setup_s`.
const SETUP_BOOTS: usize = 5;
/// Share of a traced run spent in the closed loop; the rest replays.
const TRACE_LOAD_SHARE: f64 = 0.4;

/// `(name, unit)` of every end-to-end metric.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut trace_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
        trace_dir: trace_dir.unwrap_or_else(|| PathBuf::from(".")),
    })
}

/// Turn an I/O error into a message naming what failed.
fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

/// One printed metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
    }
}

/// What one run produced.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

fn untraced(args: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    Server::spawn(&args.server)
        .and_then(Server::shutdown)
        .map_err(io("untimed boot"))?;
    let mut setups = Vec::with_capacity(SETUP_BOOTS);
    let mut serving = None;
    for boot in 0..SETUP_BOOTS {
        let started = Instant::now();
        let server = Server::spawn(&args.server).map_err(io("boot"))?;
        load::warm_up(server.addr(), inputs)?;
        setups.push(started.elapsed().as_secs_f64());
        if boot + 1 < SETUP_BOOTS {
            server.shutdown().map_err(io("shutdown"))?;
        } else {
            serving = Some(server);
        }
    }
    let server = serving.expect("at least one boot");

    let window = load::closed_loop(server.addr(), inputs, args.workload.clients(), args.seconds);
    let peak_rss = procfs::peak_rss_mib(server.pid()).map_err(io("reading VmHWM"))?;
    server.shutdown().map_err(io("shutdown"))?;

    let mut sorted = window.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let p = args.workload.tail_percentile();
    let tail = stats::percentile(&sorted, p)
        .filter(|t| t.beyond >= MIN_BEYOND_TAIL)
        .ok_or_else(|| {
            format!(
                "p{p} of {} successful ops leaves fewer than {MIN_BEYOND_TAIL} samples beyond it",
                sorted.len()
            )
        })?;
    println!(
        "latency_tail_ms is p{} of n={} ops ({} beyond it); setup_s boots: {:?}",
        tail.percentile, tail.n, tail.beyond, setups
    );
    let values = [
        median(&setups),
        stats::median_block_rate(&window.completions_s, inputs.block),
        median(&window.latencies_ms),
        tail.value,
        peak_rss,
    ];
    Ok(Outcome {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| metric(name, unit, value))
            .collect(),
        attempted: window.attempted,
        failed: window.failed,
        errors: window.errors,
    })
}

fn traced(args: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    let server = Server::spawn(&args.server).map_err(io("boot"))?;
    load::warm_up(server.addr(), inputs)?;

    let cpu_before = procfs::cpu_seconds(server.pid()).map_err(io("reading stat"))?;
    let window = load::closed_loop(
        server.addr(),
        inputs,
        args.workload.clients(),
        args.seconds * TRACE_LOAD_SHARE,
    );
    let cpu = procfs::cpu_seconds(server.pid()).map_err(io("reading stat"))? - cpu_before;
    let (report, rec) = layers::replay(
        server.addr(),
        inputs,
        args.seconds * (1.0 - TRACE_LOAD_SHARE),
    )?;
    server.shutdown().map_err(io("shutdown"))?;

    std::fs::create_dir_all(&args.trace_dir).map_err(io("creating the trace directory"))?;
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io("trace file"))?);
    rec.write_jsonl(&mut file).map_err(io("writing spans"))?;
    std::io::Write::flush(&mut file).map_err(io("writing spans"))?;
    println!("spans written to {}", path.display());

    let layer = |name: &str| median(report.samples.get(name).map_or(&[][..], Vec::as_slice));
    let mut metrics = vec![
        metric("serve.tax_ms", "ms", layer("serve.tax_ms")),
        metric("serve.response_kb", "KiB", layer("serve.response_kb")),
        metric(
            "exec.cpu_per_wall",
            "ratio",
            cpu / window.wall.as_secs_f64(),
        ),
        metric("ingest.charged_mb", "MiB", layer("ingest.charged_mb")),
        metric("profiling.hit_ratio", "ratio", report.hit_ratio),
        metric(
            "profiling.delta_row_share",
            "ratio",
            layer("profiling.delta_row_share"),
        ),
        metric(
            "matching.pruned_share",
            "ratio",
            layer("matching.pruned_share"),
        ),
        metric("csg.conflicts", "count", report.conflicts as f64),
        metric(
            "trace.attributed_share",
            "ratio",
            layer("trace.attributed_share"),
        ),
        metric("trace.overhead_share", "ratio", report.overhead_share),
    ];
    for name in layers::TIMED_LAYERS {
        let key = format!("{name}_ms");
        metrics.push(metric(&key, "ms", layer(&key)));
    }
    let mut errors = window.errors;
    errors.extend(report.errors);
    Ok(Outcome {
        metrics,
        attempted: window.attempted + report.attempted,
        failed: window.failed + report.failed,
        errors,
    })
}

/// FNV-1a over the sorted paths and contents of every source file the
/// benchmark builds from, so a result names the tree it measured even
/// where there is no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "target" && !name.to_string_lossy().starts_with('.') {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["crates", "vendor", "efesbench"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// `(commit, dirty)` from git when the working directory is a checkout
/// with git metadata, else `("unknown", "unknown")`.
fn git_state() -> (String, String) {
    let git = |args: &[&str]| -> Option<String> {
        if !Path::new(".git").exists() {
            return None;
        }
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    let commit = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .map_or("unknown".to_owned(), |s| (!s.is_empty()).to_string());
    (commit, dirty)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() {
    // The server under test and the in-process replays read no EFES_*
    // setting (EFES_THREADS, EFES_FAULTS, EFES_PROFILE_SHARD,
    // EFES_MATCH_PRUNE, EFES_CSG_COUNT, EFES_COLUMNAR,
    // EFES_INGEST_BUDGET, ...): strip them before any thread starts, so
    // the child inherits none of them either.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("EFES_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("efesbench: {e}");
            std::process::exit(2);
        }
    };
    let inputs = workload::inputs(args.workload, args.seed);
    let (commit, dirty) = git_state();
    println!(
        "provenance: {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"rows\":{},\"commit\":\"{commit}\",\"dirty\":\"{dirty}\",\"source_digest\":\"{}\",\"nproc\":{}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        inputs.rows(),
        source_digest(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let outcome = if args.trace {
        traced(&args, &inputs)
    } else {
        untraced(&args, &inputs)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("efesbench: {e}");
            std::process::exit(1);
        }
    };
    for e in &outcome.errors {
        eprintln!("efesbench: failed op: {e}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = outcome.attempted > 0
        && outcome.failed == 0
        && outcome.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
