//! The three workloads: their seeded inputs, and the exact bytes the
//! server must answer with, computed in-process from the same library
//! before anything is timed.

use efes::{
    EstimateRequest, EstimateResponse, EstimationConfig, Estimator, ExecutionPolicy, Quality,
};
use efes_exec::{ExecutionMode, RunContext};
use efes_ingest::{approx_scenario_bytes, ScenarioUpload, UploadFormat};
use efes_matching::{CombinedMatcher, MatcherConfig};
use efes_profiling::ProfileCache;
use efes_relational::{Column, IntegrationScenario};
use efes_serve::{DeleteResponse, MatchEntry, MatchRequest, MatchResponse, UploadResponse};
use efes_synth::SynthConfig;
use std::sync::Arc;

/// Entry bound of every per-scenario profile cache (`--cache-capacity`).
const CACHE_CAPACITY: usize = 4096;
/// Byte budget of uploaded scenarios (`--ingest-budget 256m`).
pub(crate) const INGEST_BUDGET: usize = 256 << 20;

/// Rows per target table of a `cold_scale` scenario.
const COLD_ROWS: usize = 25_000;
/// Distinct `cold_scale` bodies the client cycles through.
const COLD_BODIES: usize = 4;
/// Rows per target table of the full `append_grow` scenario.
const GROW_FULL_ROWS: usize = 30_000;
/// The `append_grow` cycle starts at this share of the full scenario …
const GROW_BASE_ROWS: usize = 15_000;
/// … and appends this many rows per table per step.
const GROW_BATCH_ROWS: usize = 3_000;
/// Paper-mix ops per seeded sequence (clients wrap around it).
const MIX_SEQUENCE: usize = 1 << 16;
/// Paper-mix ops per throughput block (a few tenths of a second).
const MIX_BLOCK: usize = 200;
/// Every `MIX_MATCH_EVERY`-th paper-mix op is a `POST /match`.
const MIX_MATCH_EVERY: usize = 10;
/// Left out of the paper mix: its ~0.85 s estimate would swamp the mix.
const MIX_EXCLUDED: &str = "music-example-paper";

/// Which traffic mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Case-study estimates (and every 10th a match) from 2 clients.
    PaperMix,
    /// Upload, estimate and delete fresh synthetic scenarios, 1 client.
    ColdScale,
    /// Grow one uploaded scenario by appended rows, 1 client.
    AppendGrow,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMix,
        Workload::ColdScale,
        Workload::AppendGrow,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::ColdScale => "cold_scale",
            Workload::AppendGrow => "append_grow",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile `latency_tail_ms` reports: the highest of 99.9,
    /// 99, 95, 90, 75 that leaves at least 10 of the workload's ops
    /// beyond it in a 20-second run. Fixed per workload, so that op
    /// counts varying from run to run never change which percentile is
    /// compared; a run where it leaves fewer than 10 fails.
    pub fn tail_percentile(self) -> f64 {
        match self {
            Workload::PaperMix => 99.0,
            Workload::ColdScale | Workload::AppendGrow => 75.0,
        }
    }

    /// Closed-loop clients driving the server.
    pub fn clients(self) -> usize {
        match self {
            Workload::PaperMix => 2,
            Workload::ColdScale | Workload::AppendGrow => 1,
        }
    }
}

/// One HTTP request and the exact answer it must get.
#[derive(Debug, Clone)]
pub struct Call {
    /// `GET`, `POST` or `DELETE`.
    pub method: &'static str,
    /// Request target.
    pub path: String,
    /// Request body.
    pub body: Arc<[u8]>,
    /// Expected status code.
    pub status: u16,
    /// Expected response body, byte for byte.
    pub expect: Arc<[u8]>,
}

/// What an op does, for the in-process replay of the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Estimate static scenario `scenario` (index into
    /// [`Inputs::scenarios`]).
    Estimate {
        /// Scenario index.
        scenario: usize,
        /// Requested quality.
        quality: Quality,
    },
    /// Match source 0 of static scenario `scenario` against its target.
    Match {
        /// Scenario index.
        scenario: usize,
    },
    /// Upload [`Inputs::uploads`]`[upload]` and estimate it, then delete
    /// it if `delete`.
    Upload {
        /// Upload index.
        upload: usize,
        /// Whether the op ends by deleting the scenario.
        delete: bool,
    },
}

/// One closed-loop operation: a fixed series of calls.
#[derive(Debug, Clone)]
pub struct Op {
    /// What the calls do.
    pub kind: OpKind,
    /// The calls, sent in order.
    pub calls: Vec<Call>,
}

/// A scenario upload document and what it describes.
#[derive(Debug, Clone)]
pub struct UploadInput {
    /// Registry name.
    pub name: String,
    /// The `POST /scenarios` body.
    pub body: Arc<[u8]>,
    /// Quality its estimate asks for.
    pub quality: Quality,
    /// Rows across all its tables.
    pub rows: usize,
}

/// Everything a run sends, and what it must get back.
pub struct Inputs {
    /// The distinct ops.
    pub ops: Vec<Op>,
    /// Op indices in the order clients take them; clients wrap around.
    pub sequence: Vec<usize>,
    /// Ops per cycle: a run stops only at a multiple of this, so every
    /// run sees whole cycles.
    pub cycle: usize,
    /// Successful ops per block of `throughput_rps`'s block median.
    pub block: usize,
    /// Compiled-in scenarios the ops name (paper mix only).
    pub scenarios: Vec<(String, Arc<IntegrationScenario>)>,
    /// Upload documents the ops send.
    pub uploads: Vec<UploadInput>,
}

impl Inputs {
    /// Rows the workload's scenarios hold: the compiled-in scenarios'
    /// total for the paper mix, the largest upload otherwise.
    pub fn rows(&self) -> usize {
        let scenario_rows = |s: &IntegrationScenario| {
            s.sources
                .iter()
                .map(|d| d.instance.row_count())
                .sum::<usize>()
                + s.target.instance.row_count()
        };
        self.scenarios
            .iter()
            .map(|(_, s)| scenario_rows(s))
            .sum::<usize>()
            .max(self.uploads.iter().map(|u| u.rows).max().unwrap_or(0))
    }
}

/// SplitMix64: a tiny, fixed PRNG, so the op sequence depends on the
/// seed alone.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The estimator exactly as the server configures it for `quality`.
pub(crate) fn estimator(quality: Quality) -> Estimator {
    let mut config = EstimationConfig::for_quality(quality);
    config.execution = ExecutionPolicy::Sequential;
    Estimator::with_default_modules(config)
}

/// A profile cache exactly as the server makes one: bounded, and
/// retaining partials for uploaded scenarios.
pub(crate) fn server_cache(uploaded: bool) -> ProfileCache {
    let cache = ProfileCache::bounded(CACHE_CAPACITY);
    if uploaded {
        cache.retaining_partials()
    } else {
        cache
    }
}

fn json<T: serde::Serialize>(value: &T) -> Arc<[u8]> {
    serde_json::to_string(value)
        .expect("wire types serialise")
        .into_bytes()
        .into()
}

/// The request and expected response of estimating `scenario`, which is
/// registered as `name`, on a cold cache.
fn estimate_call(
    name: &str,
    scenario: &IntegrationScenario,
    quality: Quality,
    uploaded: bool,
) -> Call {
    let request = EstimateRequest {
        quality,
        ..EstimateRequest::new(name)
    };
    let estimate = estimator(quality)
        .estimate_with_cache_ctx(
            scenario,
            Arc::new(server_cache(uploaded)),
            RunContext::unbounded(),
        )
        .expect("workload scenarios estimate");
    Call {
        method: "POST",
        path: "/estimate".to_owned(),
        body: json(&request),
        status: 200,
        expect: json(&EstimateResponse::from_estimate(&estimate, &request)),
    }
}

/// The `/match` response for source 0 of `scenario`, built the way the
/// server builds it.
fn match_response(name: &str, scenario: &IntegrationScenario) -> MatchResponse {
    let source = &scenario.sources[0];
    let (proposed, stats) = CombinedMatcher::new(MatcherConfig::default())
        .propose_attribute_matches_stats(
            source,
            &scenario.target,
            &ProfileCache::new(),
            ExecutionMode::Sequential,
        );
    let matches = proposed
        .into_iter()
        .map(|m| {
            let s_table = source.schema.table(m.source.0);
            let t_table = scenario.target.schema.table(m.target.0);
            MatchEntry {
                source_table: s_table.name.clone(),
                source_attr: s_table.attributes[m.source.1 .0].name.clone(),
                target_table: t_table.name.clone(),
                target_attr: t_table.attributes[m.target.1 .0].name.clone(),
                score: m.score,
            }
        })
        .collect();
    MatchResponse {
        scenario: name.to_owned(),
        source: 0,
        pairs_total: stats.pairs_total as u64,
        pairs_pruned: stats.pairs_pruned as u64,
        matches,
    }
}

fn paper_mix(seed: u64) -> Inputs {
    let registry = efes_scenarios::standard_registry();
    let scenarios: Vec<(String, Arc<IntegrationScenario>)> = registry
        .names()
        .into_iter()
        .filter(|n| *n != MIX_EXCLUDED)
        .map(|n| (n.to_owned(), registry.get(n).expect("listed names resolve")))
        .collect();
    let mut ops = Vec::new();
    for (i, (name, scenario)) in scenarios.iter().enumerate() {
        for quality in [Quality::LowEffort, Quality::HighQuality] {
            ops.push(Op {
                kind: OpKind::Estimate {
                    scenario: i,
                    quality,
                },
                calls: vec![estimate_call(name, scenario, quality, false)],
            });
        }
    }
    let estimates = ops.len();
    for (i, (name, scenario)) in scenarios.iter().enumerate() {
        let request = MatchRequest {
            scenario: name.clone(),
            source: 0,
        };
        ops.push(Op {
            kind: OpKind::Match { scenario: i },
            calls: vec![Call {
                method: "POST",
                path: "/match".to_owned(),
                body: json(&request),
                status: 200,
                expect: json(&match_response(name, scenario)),
            }],
        });
    }
    let mut state = seed ^ 0x7061_7065_725f_6d69;
    let sequence = (0..MIX_SEQUENCE)
        .map(|i| {
            let r = splitmix64(&mut state) as usize;
            if i % MIX_MATCH_EVERY == MIX_MATCH_EVERY - 1 {
                estimates + r % scenarios.len()
            } else {
                r % estimates
            }
        })
        .collect();
    Inputs {
        ops,
        sequence,
        cycle: 1,
        block: MIX_BLOCK,
        scenarios,
        uploads: Vec::new(),
    }
}

/// `bench_scale`'s fixed shape: 2 tables × 3 payload attributes, each
/// fed by 2 source fragments, one source.
fn synth_upload(rows: usize, seed: u64, name: &str) -> ScenarioUpload {
    let mut cfg = SynthConfig::default().with_rows(rows).with_seed(seed);
    cfg.shape.tables = 2;
    cfg.shape.payload_attrs = 3;
    cfg.shape.fanout = 2;
    cfg.shape.sources = 1;
    let synth = efes_synth::generate(&cfg);
    let mut upload = ScenarioUpload::from_scenario(&synth.scenario, UploadFormat::JsonRows);
    upload.name = name.to_owned();
    upload.description = format!("efesbench synthetic scenario, {rows} rows per table");
    upload
}

/// The calls of one upload op, with their expected answers: the upload
/// (`created` or `extended`), the estimate, and optionally the delete.
fn upload_calls(input: &UploadInput, extends: bool, delete: bool) -> Vec<Call> {
    let scenario = ScenarioUpload::parse(&input.body)
        .and_then(ScenarioUpload::into_scenario)
        .expect("generated uploads parse");
    let bytes = approx_scenario_bytes(&scenario) as u64;
    let (status, label) = if extends {
        (200, "extended")
    } else {
        (201, "created")
    };
    let mut calls = vec![
        Call {
            method: "POST",
            path: "/scenarios".to_owned(),
            body: input.body.clone(),
            status,
            expect: json(&UploadResponse {
                scenario: input.name.clone(),
                status: label.to_owned(),
                resident_bytes: bytes,
                evicted: Vec::new(),
            }),
        },
        estimate_call(&input.name, &scenario, input.quality, true),
    ];
    if delete {
        calls.push(Call {
            method: "DELETE",
            path: format!("/scenarios/{}", input.name),
            body: Arc::from(&b""[..]),
            status: 200,
            expect: json(&DeleteResponse {
                scenario: input.name.clone(),
                freed_bytes: bytes,
            }),
        });
    }
    calls
}

fn upload_rows(upload: &ScenarioUpload) -> usize {
    upload
        .sources
        .iter()
        .chain(std::iter::once(&upload.target))
        .flat_map(|db| &db.tables)
        .map(|t| t.columns.first().map_or(0, Column::len))
        .sum()
}

fn upload_input(upload: &ScenarioUpload, quality: Quality) -> UploadInput {
    UploadInput {
        name: upload.name.clone(),
        body: json(upload),
        quality,
        rows: upload_rows(upload),
    }
}

fn cold_scale(seed: u64) -> Inputs {
    let mut state = seed ^ 0x636f_6c64_5f73_6361;
    let uploads: Vec<UploadInput> = (0..COLD_BODIES)
        .map(|k| {
            let upload = synth_upload(COLD_ROWS, splitmix64(&mut state), &format!("cold-{k}"));
            // Alternate qualities so both repair planners run cold.
            let quality = if k % 2 == 0 {
                Quality::HighQuality
            } else {
                Quality::LowEffort
            };
            upload_input(&upload, quality)
        })
        .collect();
    let ops = uploads
        .iter()
        .enumerate()
        .map(|(k, input)| Op {
            kind: OpKind::Upload {
                upload: k,
                delete: true,
            },
            calls: upload_calls(input, false, true),
        })
        .collect();
    Inputs {
        ops,
        sequence: (0..COLD_BODIES).collect(),
        cycle: COLD_BODIES,
        block: COLD_BODIES,
        scenarios: Vec::new(),
        uploads,
    }
}

/// `upload` with every source table cut to its first `keep / of` rows.
fn row_prefix(upload: &ScenarioUpload, keep: usize, of: usize) -> ScenarioUpload {
    let mut prefix = upload.clone();
    for table in prefix.sources.iter_mut().flat_map(|db| &mut db.tables) {
        for column in &mut table.columns {
            let n = column.len() * keep / of;
            *column = Column::from_cells(column.iter().take(n).map(|v| v.to_value()).collect());
        }
    }
    prefix
}

fn append_grow(seed: u64) -> Inputs {
    let mut state = seed ^ 0x6772_6f77_5f61_7070;
    let full = synth_upload(GROW_FULL_ROWS, splitmix64(&mut state), "grow");
    let steps = (GROW_FULL_ROWS - GROW_BASE_ROWS) / GROW_BATCH_ROWS;
    let uploads: Vec<UploadInput> = (0..=steps)
        .map(|k| {
            let prefix = row_prefix(&full, GROW_BASE_ROWS + k * GROW_BATCH_ROWS, GROW_FULL_ROWS);
            upload_input(&prefix, Quality::HighQuality)
        })
        .collect();
    let ops = uploads
        .iter()
        .enumerate()
        .map(|(k, input)| Op {
            kind: OpKind::Upload {
                upload: k,
                delete: k == steps,
            },
            calls: upload_calls(input, k > 0, k == steps),
        })
        .collect();
    Inputs {
        ops,
        sequence: (0..=steps).collect(),
        cycle: steps + 1,
        block: steps + 1,
        scenarios: Vec::new(),
        uploads,
    }
}

/// Generate `workload`'s inputs from `seed`, with every expected answer.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    match workload {
        Workload::PaperMix => paper_mix(seed),
        Workload::ColdScale => cold_scale(seed),
        Workload::AppendGrow => append_grow(seed),
    }
}
