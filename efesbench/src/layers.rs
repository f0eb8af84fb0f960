//! The traced run: every op is sent to the server once more, one at a
//! time, and then replayed in-process with a span around each call into
//! a crate's public functions. Nothing inside the program is
//! instrumented; the spans sit at the crate boundaries, in this file.
//!
//! Per op the replay runs, in order:
//!
//! * the served calls (`serve.request` spans);
//! * for uploads: `ingest.parse`, `ingest.assemble`, `ingest.insert` into
//!   a local [`DynamicRegistry`] that mirrors the server's, then
//!   `relational.rows` on a freshly assembled copy, and for extension
//!   uploads `profiling.delta` (the server's retained-partials refresh);
//! * `core.estimate`: one untraced estimate against the cache state the
//!   server had for that op;
//! * the estimate's layers called one by one, twice: once with spans
//!   (`profiling.profile`, `csg.convert`, `csg.match`, `csg.detect`,
//!   `csg.repair`, `core.mapping`, `core.structure`, `core.values`,
//!   `core.price`) and once without, which gives the tracing overhead;
//! * for matches: `matching.propose`.

use crate::client;
use crate::load::run_op;
use crate::span::{self_times_ns, Recorder};
use crate::workload::{estimator, server_cache, Inputs, OpKind, INGEST_BUDGET};
use efes::modules::{MappingModule, StructureModule, ValueModule};
use efes::{AssessContext, EstimateRequest, EstimateResponse, EstimationModule, Quality, Task};
use efes_csg::planner::PlannerOptions;
use efes_csg::{
    database_to_csg_ctx, detect_conflicts_ctx, match_relationships_with, plan_repairs,
    NodeCorrespondences,
};
use efes_exec::{ExecutionMode, RunContext};
use efes_ingest::{DynamicRegistry, InsertOutcome, ScenarioUpload, TableGrowth};
use efes_matching::{CombinedMatcher, MatcherConfig};
use efes_profiling::{DbTag, ProfileCache, ProfileKey};
use efes_relational::{IntegrationScenario, TableId};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODE: ExecutionMode = ExecutionMode::Sequential;
const MIB: f64 = 1024.0 * 1024.0;

/// Span names whose per-op self time becomes a `<name>_ms` metric.
pub const TIMED_LAYERS: [&str; 16] = [
    "ingest.parse",
    "ingest.assemble",
    "ingest.insert",
    "relational.rows",
    "profiling.profile",
    "profiling.delta",
    "matching.propose",
    "csg.convert",
    "csg.match",
    "csg.detect",
    "csg.repair",
    "core.mapping",
    "core.structure",
    "core.values",
    "core.price",
    "core.estimate",
];

/// The module-level spans that partition an estimate on a filled cache.
const MODULE_LAYERS: [&str; 4] = [
    "core.mapping",
    "core.structure",
    "core.values",
    "core.price",
];

/// The traced run's per-layer results.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Per metric name, one sample per op in which the layer ran.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Profile-cache hits ÷ lookups over the replayed estimates.
    pub hit_ratio: f64,
    /// Conflicts found, summed over the distinct ops replayed.
    pub conflicts: u64,
    /// Traced ÷ untraced time of the same layer calls, minus one.
    pub overhead_share: f64,
    /// Ops replayed, and how many of them failed.
    pub attempted: usize,
    /// Ops with a wrong answer, on the wire or in-process.
    pub failed: usize,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl LayerReport {
    fn sample(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }
}

/// Server counters read from `GET /metrics`.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    cache_hits: f64,
    cache_misses: f64,
    delta_rows: f64,
}

fn scrape(addr: SocketAddr) -> Result<Counters, String> {
    let reply = client::request(addr, "GET", "/metrics", b"").map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&reply.body);
    let value = |name: &str| -> Result<f64, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .ok_or_else(|| format!("/metrics has no {name}"))
    };
    Ok(Counters {
        cache_hits: value("efes_profile_cache_hits_total")?,
        cache_misses: value("efes_profile_cache_misses_total")?,
        delta_rows: value("efes_profile_delta_rows_total")?,
    })
}

/// Rebuild an extended scenario's cache from the previous version's
/// retained partials, as the server does on an `extended` upload.
/// Returns `(appended rows absorbed, rows of the refreshed profiles)`.
fn refresh(
    old: &ProfileCache,
    fresh: &ProfileCache,
    scenario: &IntegrationScenario,
    growth: &[TableGrowth],
) -> (u64, u64) {
    let run = RunContext::unbounded();
    let (mut delta, mut resident) = (0u64, 0u64);
    for (key, profile, partial) in old.snapshot_partials() {
        let (source, db) = if key.db == DbTag::TARGET {
            (None, &scenario.target)
        } else {
            let i = key.db.0 as usize;
            (Some(i), &scenario.sources[i])
        };
        let Some(g) = growth
            .iter()
            .find(|g| g.source == source && g.table == key.table)
        else {
            continue;
        };
        if partial.rows_seen() != g.old_rows {
            continue;
        }
        if g.old_rows == g.new_rows {
            fresh.seed(key, profile, Some(partial));
            continue;
        }
        let Some(col) = db.instance.table(key.table).column_store(key.attr) else {
            continue;
        };
        let mut grown = (*partial).clone();
        grown
            .accumulate_range(col, g.old_rows, g.new_rows, &run.checkpoint())
            .expect("unbounded runs never cancel");
        fresh.seed(key, Arc::new(grown.finalize()), Some(Arc::new(grown)));
        delta += (g.new_rows - g.old_rows) as u64;
        resident += g.new_rows as u64;
    }
    (delta, resident)
}

/// Profile every correspondence column of `scenario` into `cache`, the
/// lookups the value module makes.
fn profile_all(scenario: &IntegrationScenario, cache: &ProfileCache) {
    let run = RunContext::unbounded();
    for (sid, source) in scenario.iter_sources() {
        for (sa, ta) in scenario.correspondences.attribute_correspondences(sid) {
            let reference_type = scenario
                .target
                .schema
                .table(ta.table)
                .attribute(ta.attr)
                .datatype;
            let ends = [
                (source, DbTag::source(sid.0 as u32), sa),
                (&scenario.target, DbTag::TARGET, ta),
            ];
            for (db, tag, at) in ends {
                let key = ProfileKey {
                    db: tag,
                    table: at.table,
                    attr: at.attr,
                    reference_type,
                };
                cache
                    .of_attribute_sharded_ctx(&run, db, key, MODE)
                    .expect("unbounded runs never cancel");
            }
        }
    }
}

/// The estimate's layers called one by one on `filled` (the cache after
/// the estimate). Returns the conflicts found and the total minutes,
/// which must equal the estimate's.
fn estimate_layers(
    rec: &mut Recorder,
    op: u64,
    root: Option<usize>,
    scenario: &IntegrationScenario,
    quality: Quality,
    filled: &Arc<ProfileCache>,
    uploaded: bool,
) -> (u64, f64) {
    let run = RunContext::unbounded();
    let est = estimator(quality);
    let config = est.config();

    let fresh = server_cache(uploaded);
    rec.span("profiling.profile", op, root, || {
        profile_all(scenario, &fresh)
    });

    let mut conflicts = 0u64;
    let options = PlannerOptions {
        max_iterations: config.max_repair_iterations,
        ..PlannerOptions::default()
    };
    for (sid, source) in scenario.iter_sources() {
        let target_conv = rec.span("csg.convert", op, root, || {
            database_to_csg_ctx(&scenario.target, &run).expect("unbounded runs never cancel")
        });
        let source_conv = rec.span("csg.convert", op, root, || {
            database_to_csg_ctx(source, &run).expect("unbounded runs never cancel")
        });
        let matches = rec.span("csg.match", op, root, || {
            let corr =
                NodeCorrespondences::from_scenario(scenario, sid, &target_conv, &source_conv);
            match_relationships_with(&target_conv.csg, &source_conv.csg, &corr, MODE)
        });
        let found = rec.span("csg.detect", op, root, || {
            detect_conflicts_ctx(&target_conv, &source_conv, &matches, &run)
                .expect("unbounded runs never cancel")
        });
        conflicts += found.len() as u64;
        rec.span("csg.repair", op, root, || {
            plan_repairs(&target_conv, &matches, &found, config.quality, &options)
                .expect("workload scenarios plan")
        });
    }

    let ctx = AssessContext {
        cache: Arc::clone(filled),
        mode: MODE,
        run,
    };
    let module_tasks = |m: &dyn EstimationModule| -> Vec<Task> {
        let report = m
            .assess_with(scenario, &ctx)
            .expect("workload scenarios assess");
        m.plan_with(scenario, &report, config, &ctx)
            .expect("workload scenarios plan")
    };
    let mut tasks = rec.span("core.mapping", op, root, || module_tasks(&MappingModule));
    tasks.extend(rec.span("core.structure", op, root, || {
        module_tasks(&StructureModule::default())
    }));
    tasks.extend(rec.span("core.values", op, root, || {
        module_tasks(&ValueModule::default())
    }));
    let minutes = rec.span("core.price", op, root, || {
        tasks
            .iter()
            .map(|t| config.effort_model.minutes_for(t, &config.settings))
            .sum::<f64>()
    });
    (conflicts, minutes)
}

/// The replay state that persists across ops.
struct Replay<'a> {
    inputs: &'a Inputs,
    addr: SocketAddr,
    rec: Recorder,
    report: LayerReport,
    /// Warm caches of the compiled-in scenarios, as the server has them.
    static_caches: Vec<Arc<ProfileCache>>,
    /// The local mirror of the server's upload registry.
    registry: DynamicRegistry,
    /// The current uploaded scenario's cache.
    upload_cache: Option<Arc<ProfileCache>>,
    /// Conflicts per distinct op; a repeat must find the same count.
    conflicts: BTreeMap<usize, u64>,
    /// Ops whose estimate computed profiles (ran on a cold cache).
    cold_estimates: BTreeMap<u64, bool>,
    traced: Duration,
    untraced: Duration,
    hits: u64,
    misses: u64,
    delta_rows: u64,
}

impl Replay<'_> {
    /// Replay distinct op `index` as op number `op`.
    fn op(&mut self, op: u64, index: usize) {
        let inputs = self.inputs;
        let spec = &inputs.ops[index];
        let root = self.rec.open("op", op, None);

        let served = self
            .rec
            .span("serve.request", op, root, || run_op(self.addr, spec));
        self.report.attempted += 1;
        if let Some(e) = served.error {
            self.report.fail(e);
            self.rec.close(root);
            return;
        }
        let estimate_call = spec.calls.iter().position(|c| c.path == "/estimate");
        let answer = estimate_call
            .or_else(|| spec.calls.iter().position(|c| c.path == "/match"))
            .map(|i| &served.replies[i]);
        if let Some(reply) = answer {
            self.report
                .sample("serve.response_kb", reply.body.len() as f64 / 1024.0);
        }
        let served_estimate = estimate_call.map(|i| served.replies[i].elapsed);

        match spec.kind {
            OpKind::Estimate { scenario, quality } => {
                let (name, sc) = &inputs.scenarios[scenario];
                let cache = Arc::clone(&self.static_caches[scenario]);
                self.estimate(
                    op,
                    index,
                    root,
                    name,
                    sc,
                    quality,
                    &cache,
                    false,
                    served_estimate,
                );
            }
            OpKind::Match { scenario } => {
                let (_, sc) = &inputs.scenarios[scenario];
                let (_, stats) = self.rec.span("matching.propose", op, root, || {
                    CombinedMatcher::new(MatcherConfig::default()).propose_attribute_matches_stats(
                        &sc.sources[0],
                        &sc.target,
                        &ProfileCache::new(),
                        MODE,
                    )
                });
                self.report.sample(
                    "matching.pruned_share",
                    stats.pairs_pruned as f64 / stats.pairs_total.max(1) as f64,
                );
            }
            OpKind::Upload { upload, delete } => {
                self.upload(op, index, root, upload, served_estimate);
                if delete {
                    let name = &inputs.uploads[upload].name;
                    self.registry
                        .remove(name)
                        .expect("the mirror holds the upload");
                    self.upload_cache = None;
                }
            }
        }
        self.rec.close(root);
    }

    fn upload(
        &mut self,
        op: u64,
        index: usize,
        root: Option<usize>,
        upload: usize,
        served_estimate: Option<Duration>,
    ) {
        let input = &self.inputs.uploads[upload];
        let rec = &mut self.rec;
        let parsed = rec.span("ingest.parse", op, root, || {
            ScenarioUpload::parse(&input.body)
        });
        let parsed = parsed.expect("generated uploads parse");
        let (name, description) = (parsed.name.clone(), parsed.description.clone());
        let scenario = rec
            .span("ingest.assemble", op, root, || parsed.into_scenario())
            .expect("generated uploads assemble");
        let registry = &self.registry;
        let outcome = rec
            .span("ingest.insert", op, root, || {
                registry.insert(&name, &description, scenario)
            })
            .expect("the mirror registry accepts the upload");
        self.report.sample(
            "ingest.charged_mb",
            self.registry.resident_bytes() as f64 / MIB,
        );

        // Rows are built lazily; time the first build on an untouched copy.
        let copy = ScenarioUpload::parse(&input.body)
            .and_then(ScenarioUpload::into_scenario)
            .expect("generated uploads parse");
        self.rec.span("relational.rows", op, root, || {
            for db in copy.sources.iter().chain(std::iter::once(&copy.target)) {
                for t in 0..db.schema.tables().len() {
                    std::hint::black_box(db.instance.table(TableId(t)).rows());
                }
            }
        });

        let scenario = efes::ScenarioProvider::get(&self.registry, &name)
            .expect("the mirror holds the upload");
        let cache = Arc::new(server_cache(true));
        match (outcome, self.upload_cache.take()) {
            (InsertOutcome::Extended { growth, .. }, Some(old)) => {
                let (delta, resident) = self.rec.span("profiling.delta", op, root, || {
                    refresh(&old, &cache, &scenario, &growth)
                });
                self.delta_rows += delta;
                self.report.sample(
                    "profiling.delta_row_share",
                    delta as f64 / resident.max(1) as f64,
                );
            }
            (InsertOutcome::Inserted { .. }, None) => {}
            (outcome, old) => {
                self.report.fail(format!(
                    "mirror registry answered {outcome:?} with a cache present: {}",
                    old.is_some()
                ));
                return;
            }
        }
        self.upload_cache = Some(Arc::clone(&cache));
        self.estimate(
            op,
            index,
            root,
            &name,
            &scenario,
            input.quality,
            &cache,
            true,
            served_estimate,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn estimate(
        &mut self,
        op: u64,
        index: usize,
        root: Option<usize>,
        name: &str,
        scenario: &IntegrationScenario,
        quality: Quality,
        cache: &Arc<ProfileCache>,
        uploaded: bool,
        served: Option<Duration>,
    ) {
        let (hits, misses) = (cache.hits(), cache.misses());
        let started = Instant::now();
        let estimate = self.rec.span("core.estimate", op, root, || {
            estimator(quality)
                .estimate_with_cache_ctx(scenario, Arc::clone(cache), RunContext::unbounded())
                .expect("workload scenarios estimate")
        });
        let estimate_time = started.elapsed();
        let (hits, misses) = (cache.hits() - hits, cache.misses() - misses);
        self.hits += hits;
        self.misses += misses;
        self.cold_estimates.insert(op, misses > 0);
        if let Some(served) = served {
            self.report.sample(
                "serve.tax_ms",
                (served.as_secs_f64() - estimate_time.as_secs_f64()) * 1e3,
            );
        }
        let request = EstimateRequest {
            quality,
            ..EstimateRequest::new(name)
        };
        let expected = self.inputs.ops[index]
            .calls
            .iter()
            .find(|c| c.path == "/estimate")
            .map(|c| c.expect.clone());
        let replayed = serde_json::to_string(&EstimateResponse::from_estimate(&estimate, &request))
            .expect("wire types serialise");
        if expected.as_deref() != Some(replayed.as_bytes()) {
            self.report.fail(format!(
                "in-process estimate of {name} differs from the served one"
            ));
        }

        // Traced and untraced passes alternate which goes first.
        let mut untraced = Recorder::new(false);
        let mut results = Vec::with_capacity(2);
        for traced in [op.is_multiple_of(2), !op.is_multiple_of(2)] {
            let rec = if traced { &mut self.rec } else { &mut untraced };
            let started = Instant::now();
            results.push(estimate_layers(
                rec, op, root, scenario, quality, cache, uploaded,
            ));
            let took = started.elapsed();
            if traced {
                self.traced += took;
            } else {
                self.untraced += took;
            }
        }
        let (conflicts, minutes) = results[0];
        if results[1] != results[0] || minutes != estimate.total_minutes() {
            self.report.fail(format!(
                "layer replay of {name} priced {minutes} min, the estimate {}",
                estimate.total_minutes()
            ));
        }
        if *self.conflicts.entry(index).or_insert(conflicts) != conflicts {
            self.report
                .fail(format!("{name}: conflict count changed between repeats"));
        }
    }
}

/// Replay `inputs`' ops against the server at `addr` and in-process for
/// at least `seconds` (whole cycles), then derive every per-layer metric
/// from the recorded spans. Returns the report and the recorder.
pub fn replay(
    addr: SocketAddr,
    inputs: &Inputs,
    seconds: f64,
) -> Result<(LayerReport, Recorder), String> {
    // The compiled-in scenarios' caches are warm on the server (warm-up
    // estimated every one of them); warm the mirrors the same way.
    let static_caches = inputs
        .scenarios
        .iter()
        .map(|(_, sc)| {
            let cache = Arc::new(server_cache(false));
            estimator(Quality::HighQuality)
                .estimate_with_cache_ctx(sc, Arc::clone(&cache), RunContext::unbounded())
                .expect("workload scenarios estimate");
            cache
        })
        .collect();
    let mut replay = Replay {
        inputs,
        addr,
        rec: Recorder::new(true),
        report: LayerReport::default(),
        static_caches,
        registry: DynamicRegistry::new(efes::ScenarioRegistry::new(), Some(INGEST_BUDGET)),
        upload_cache: None,
        conflicts: BTreeMap::new(),
        cold_estimates: BTreeMap::new(),
        traced: Duration::ZERO,
        untraced: Duration::ZERO,
        hits: 0,
        misses: 0,
        delta_rows: 0,
    };

    let before = scrape(addr)?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0usize;
    while !i.is_multiple_of(inputs.cycle) || Instant::now() < deadline {
        let index = inputs.sequence[i % inputs.sequence.len()];
        replay.op(i as u64, index);
        i += 1;
    }
    let after = scrape(addr)?;

    let Replay {
        rec,
        mut report,
        conflicts,
        cold_estimates,
        traced,
        untraced,
        hits,
        misses,
        delta_rows,
        ..
    } = replay;

    // Cross-checks against the server's own counters. Uploaded
    // scenarios' caches leave the server's totals when deleted, so the
    // cache counters compare only where every cache persists.
    if inputs.uploads.is_empty() {
        let served = (
            after.cache_hits - before.cache_hits,
            after.cache_misses - before.cache_misses,
        );
        if served != (hits as f64, misses as f64) {
            report.fail(format!(
                "server counted {served:?} cache hits/misses, the replay ({hits}, {misses})"
            ));
        }
    }
    if after.delta_rows - before.delta_rows != delta_rows as f64 {
        report.fail(format!(
            "server absorbed {} appended rows, the replay {delta_rows}",
            after.delta_rows - before.delta_rows
        ));
    }

    // Per-op self time of every span, summed by layer name.
    let spans = rec.spans();
    let mut per_op: BTreeMap<(u64, &str), f64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        *per_op.entry((s.op, s.name)).or_default() += self_ns as f64 / 1e6;
    }
    for ((_, name), ms) in &per_op {
        if TIMED_LAYERS.contains(name) {
            report.sample(&format!("{name}_ms"), *ms);
        }
    }
    for (&op, &cold) in &cold_estimates {
        let layer = |name: &str| per_op.get(&(op, name)).copied().unwrap_or(0.0);
        let mut attributed: f64 = MODULE_LAYERS.iter().map(|n| layer(n)).sum();
        if cold {
            attributed += layer("profiling.profile");
        }
        report.sample(
            "trace.attributed_share",
            attributed / layer("core.estimate"),
        );
    }
    report.hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    report.conflicts = conflicts.values().sum();
    report.overhead_share = traced.as_secs_f64() / untraced.as_secs_f64().max(1e-12) - 1.0;
    Ok((report, rec))
}
