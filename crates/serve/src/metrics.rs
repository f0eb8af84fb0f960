//! The service's metrics registry, rendered in the Prometheus text
//! exposition format at `GET /metrics`.
//!
//! Everything is plain `std` atomics: monotone counters for request and
//! outcome totals, gauges sampled at scrape time (queue depth, cache
//! entries), and fixed-bucket histograms for per-stage estimation
//! latency fed from the pipeline's own [`PipelineTimings`] — the same
//! numbers the repro binary prints, now scrapeable from a long-running
//! server.
//!
//! [`PipelineTimings`]: efes::PipelineTimings

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Histogram bucket upper bounds, in milliseconds. Chosen to straddle
/// the observed per-stage range: sub-millisecond mapping passes up to
/// multi-second value-module scans on the paper-size scenarios.
const BUCKET_BOUNDS_MS: [f64; 10] = [
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0, 2500.0, 10_000.0,
];

/// A fixed-bucket latency histogram (milliseconds).
#[derive(Debug, Default, Clone)]
struct Histogram {
    /// Cumulative counts per bucket in [`BUCKET_BOUNDS_MS`] order,
    /// plus the implicit `+Inf` bucket at the end.
    counts: [u64; BUCKET_BOUNDS_MS.len() + 1],
    sum_ms: f64,
    total: u64,
}

impl Histogram {
    fn observe(&mut self, ms: f64) {
        let bucket = BUCKET_BOUNDS_MS
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(BUCKET_BOUNDS_MS.len());
        self.counts[bucket] += 1;
        self.sum_ms += ms;
        self.total += 1;
    }
}

/// Counter indices for [`Metrics::requests`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /estimate`
    Estimate,
    /// `POST /match`
    Match,
    /// `GET /scenarios`
    Scenarios,
    /// `POST /scenarios` and `DELETE /scenarios/{name}`
    Ingest,
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// Anything else (404s, bad requests, …).
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 7] = [
        Endpoint::Estimate,
        Endpoint::Match,
        Endpoint::Scenarios,
        Endpoint::Ingest,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Other,
    ];

    fn label(self) -> &'static str {
        match self {
            Endpoint::Estimate => "estimate",
            Endpoint::Match => "match",
            Endpoint::Scenarios => "scenarios",
            Endpoint::Ingest => "ingest",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Estimate => 0,
            Endpoint::Match => 1,
            Endpoint::Scenarios => 2,
            Endpoint::Ingest => 3,
            Endpoint::Healthz => 4,
            Endpoint::Metrics => 5,
            Endpoint::Other => 6,
        }
    }
}

/// Gauges sampled by the server at scrape time and passed to
/// [`Metrics::render`] — values owned by other subsystems (the worker
/// pool, the per-scenario profile caches).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sampled {
    /// Jobs waiting in the bounded queue.
    pub queue_depth: usize,
    /// The queue's capacity bound.
    pub queue_capacity: usize,
    /// Jobs currently executing.
    pub in_flight: usize,
    /// Worker threads.
    pub workers: usize,
    /// Profile-cache entries resident across all scenario caches.
    pub cache_entries: usize,
    /// Cumulative profile-cache hits across all scenario caches.
    pub cache_hits: u64,
    /// Cumulative profile-cache misses across all scenario caches.
    pub cache_misses: u64,
    /// Profile-cache entries evicted to enforce the size bound.
    pub cache_evictions: u64,
    /// Approximate bytes of uploaded scenarios resident in the dynamic
    /// registry.
    pub ingest_resident_bytes: u64,
    /// The configured ingest budget in bytes.
    pub ingest_budget_bytes: u64,
    /// Compiled-in scenarios in the registry.
    pub scenarios_static: usize,
    /// Uploaded scenarios currently resident.
    pub scenarios_uploaded: usize,
}

/// The registry: counters the request path bumps, histograms the job
/// path feeds, and a renderer for the exposition format.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: [AtomicU64; 7],
    /// Completed estimates (`200`).
    pub estimates_ok: AtomicU64,
    /// Completed schema-match requests (`200`).
    pub matches_ok: AtomicU64,
    /// Requests shed because the queue was full (`429`).
    pub rejected_queue_full: AtomicU64,
    /// Requests whose deadline expired before completion (`503`).
    pub deadline_expired: AtomicU64,
    /// Estimation jobs skipped because their caller had already given up.
    pub jobs_abandoned: AtomicU64,
    /// Malformed requests answered `400`.
    pub bad_requests: AtomicU64,
    /// Oversized requests answered `413`.
    pub too_large: AtomicU64,
    /// Unknown paths/methods answered `404`/`405`.
    pub not_found: AtomicU64,
    /// Estimation failures answered `500`.
    pub estimate_errors: AtomicU64,
    /// Scenario uploads accepted as new registry entries (`201`).
    pub ingests_ok: AtomicU64,
    /// Scenario uploads rejected (`400`/`409`/`413`).
    pub ingests_rejected: AtomicU64,
    /// Uploads that deduplicated onto an existing entry (`200`).
    pub ingests_deduplicated: AtomicU64,
    /// Uploaded scenarios evicted to fit the ingest budget.
    pub ingests_evicted: AtomicU64,
    /// Uploaded scenarios removed via `DELETE /scenarios/{name}`.
    pub ingests_deleted: AtomicU64,
    /// Uploads accepted as in-place row extensions of an existing
    /// uploaded scenario (`200`, status `"extended"`).
    pub ingests_extended: AtomicU64,
    /// Extension uploads whose profiles were refreshed incrementally
    /// from retained partial states instead of re-profiled from scratch.
    pub profile_deltas: AtomicU64,
    /// Appended rows absorbed by those incremental profile refreshes.
    pub profile_delta_rows: AtomicU64,
    /// Panics caught at an isolation boundary (estimation job or
    /// connection handler) without taking the server down.
    pub panics_recovered: AtomicU64,
    /// Estimation runs that aborted cooperatively, keyed by the pipeline
    /// stage that observed the cancellation.
    cancelled_in_stage: Mutex<BTreeMap<String, u64>>,
    /// Worker time (microseconds) handed back by cooperative aborts:
    /// per cancelled run, the mean uncancelled estimate latency minus
    /// the time the run actually held a worker.
    reclaimed_micros: AtomicU64,
    /// Per-stage latency histograms, keyed by pipeline stage name.
    stage_latency: Mutex<BTreeMap<String, Histogram>>,
    /// End-to-end estimate latency (queue wait + execution).
    request_latency: Mutex<Histogram>,
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one request against `endpoint`.
    pub fn count_request(&self, endpoint: Endpoint) {
        self.requests[endpoint.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Requests counted against `endpoint` so far.
    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        self.requests[endpoint.index()].load(Ordering::Relaxed)
    }

    /// Record one pipeline stage's wall-clock time.
    pub fn observe_stage(&self, stage: &str, ms: f64) {
        let mut stages = self.stage_latency.lock().expect("metrics poisoned");
        stages.entry(stage.to_owned()).or_default().observe(ms);
    }

    /// Record one estimate's end-to-end latency.
    pub fn observe_request_latency(&self, ms: f64) {
        self.request_latency
            .lock()
            .expect("metrics poisoned")
            .observe(ms);
    }

    /// Count one cooperative abort against the stage that observed it.
    pub fn count_cancelled_stage(&self, stage: &str) {
        let mut stages = self.cancelled_in_stage.lock().expect("metrics poisoned");
        *stages.entry(stage.to_owned()).or_insert(0) += 1;
    }

    /// Cooperative aborts observed in `stage` so far (for tests).
    pub fn cancelled_in_stage(&self, stage: &str) -> u64 {
        self.cancelled_in_stage
            .lock()
            .expect("metrics poisoned")
            .get(stage)
            .copied()
            .unwrap_or(0)
    }

    /// Credit `micros` of worker time reclaimed by a cooperative abort.
    pub fn add_reclaimed_micros(&self, micros: u64) {
        self.reclaimed_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total worker microseconds reclaimed so far (for tests).
    pub fn reclaimed_micros(&self) -> u64 {
        self.reclaimed_micros.load(Ordering::Relaxed)
    }

    /// Mean end-to-end latency of completed estimates in milliseconds,
    /// or `None` before the first completion. Used as the baseline when
    /// crediting reclaimed worker time.
    pub fn mean_request_latency_ms(&self) -> Option<f64> {
        let latency = self.request_latency.lock().expect("metrics poisoned");
        (latency.total > 0).then(|| latency.sum_ms / latency.total as f64)
    }

    /// Render the exposition text, folding in the `sampled` gauges.
    pub fn render(&self, sampled: &Sampled) -> String {
        let mut out = String::with_capacity(4096);

        out.push_str("# HELP efes_requests_total Requests received, by endpoint.\n");
        out.push_str("# TYPE efes_requests_total counter\n");
        for endpoint in Endpoint::ALL {
            let _ = writeln!(
                out,
                "efes_requests_total{{endpoint=\"{}\"}} {}",
                endpoint.label(),
                self.requests(endpoint)
            );
        }

        let counters: [(&str, &str, u64); 18] = [
            (
                "efes_estimates_ok_total",
                "Estimates completed successfully.",
                self.estimates_ok.load(Ordering::Relaxed),
            ),
            (
                "efes_matches_ok_total",
                "Schema-match requests completed successfully.",
                self.matches_ok.load(Ordering::Relaxed),
            ),
            (
                "efes_rejected_total",
                "Estimate requests shed with 429 because the queue was full.",
                self.rejected_queue_full.load(Ordering::Relaxed),
            ),
            (
                "efes_deadline_expired_total",
                "Estimate requests answered 503 because their deadline expired.",
                self.deadline_expired.load(Ordering::Relaxed),
            ),
            (
                "efes_jobs_abandoned_total",
                "Queued jobs skipped because the caller had given up.",
                self.jobs_abandoned.load(Ordering::Relaxed),
            ),
            (
                "efes_bad_requests_total",
                "Malformed requests answered 400.",
                self.bad_requests.load(Ordering::Relaxed),
            ),
            (
                "efes_too_large_total",
                "Oversized requests answered 413.",
                self.too_large.load(Ordering::Relaxed),
            ),
            (
                "efes_not_found_total",
                "Requests for unknown paths or methods.",
                self.not_found.load(Ordering::Relaxed),
            ),
            (
                "efes_estimate_errors_total",
                "Estimation failures answered 500.",
                self.estimate_errors.load(Ordering::Relaxed),
            ),
            (
                "efes_ingest_ok_total",
                "Scenario uploads accepted as new registry entries.",
                self.ingests_ok.load(Ordering::Relaxed),
            ),
            (
                "efes_ingest_rejected_total",
                "Scenario uploads rejected (bad document, name conflict, over budget).",
                self.ingests_rejected.load(Ordering::Relaxed),
            ),
            (
                "efes_ingest_deduplicated_total",
                "Uploads that matched an existing entry's content fingerprint.",
                self.ingests_deduplicated.load(Ordering::Relaxed),
            ),
            (
                "efes_ingest_evicted_total",
                "Uploaded scenarios evicted to fit the ingest budget.",
                self.ingests_evicted.load(Ordering::Relaxed),
            ),
            (
                "efes_ingest_deleted_total",
                "Uploaded scenarios removed by DELETE.",
                self.ingests_deleted.load(Ordering::Relaxed),
            ),
            (
                "efes_ingest_extended_total",
                "Uploads accepted as in-place row extensions of an existing uploaded scenario.",
                self.ingests_extended.load(Ordering::Relaxed),
            ),
            (
                "efes_profile_delta_total",
                "Profiles refreshed incrementally from retained partial states on extension uploads.",
                self.profile_deltas.load(Ordering::Relaxed),
            ),
            (
                "efes_profile_delta_rows_total",
                "Appended rows absorbed by incremental profile refreshes.",
                self.profile_delta_rows.load(Ordering::Relaxed),
            ),
            (
                "efes_panics_recovered_total",
                "Panics caught at an isolation boundary without taking the server down.",
                self.panics_recovered.load(Ordering::Relaxed),
            ),
        ];
        for (name, help, value) in counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }

        out.push_str(
            "# HELP efes_cancelled_in_stage_total Estimates aborted cooperatively, by the stage that observed the cancellation.\n",
        );
        out.push_str("# TYPE efes_cancelled_in_stage_total counter\n");
        {
            let stages = self.cancelled_in_stage.lock().expect("metrics poisoned");
            for (stage, count) in stages.iter() {
                let _ = writeln!(
                    out,
                    "efes_cancelled_in_stage_total{{stage=\"{stage}\"}} {count}"
                );
            }
        }

        out.push_str(
            "# HELP efes_worker_seconds_reclaimed_total Worker time handed back by cooperative aborts (mean uncancelled latency minus time actually held).\n",
        );
        out.push_str("# TYPE efes_worker_seconds_reclaimed_total counter\n");
        let _ = writeln!(
            out,
            "efes_worker_seconds_reclaimed_total {}",
            self.reclaimed_micros.load(Ordering::Relaxed) as f64 / 1e6
        );

        out.push_str(
            "# HELP efes_fault_injected_total Faults injected by the EFES_FAULTS harness, by site and mode.\n",
        );
        out.push_str("# TYPE efes_fault_injected_total counter\n");
        for ((site, mode), count) in efes_exec::fault::injected_counters() {
            let _ = writeln!(
                out,
                "efes_fault_injected_total{{site=\"{site}\",mode=\"{mode}\"}} {count}"
            );
        }

        let (memo_hits, memo_misses) = efes_csg::eval_memo_counters();
        for (name, help, value) in [
            (
                "efes_csg_eval_memo_hits_total",
                "CSG expression-count evaluations served from the per-instance memo.",
                memo_hits,
            ),
            (
                "efes_csg_eval_memo_misses_total",
                "CSG expression-count evaluations computed fresh (memo misses).",
                memo_misses,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }

        let gauges: [(&str, &str, u64); 12] = [
            (
                "efes_queue_depth",
                "Jobs waiting in the bounded queue.",
                sampled.queue_depth as u64,
            ),
            (
                "efes_queue_capacity",
                "Capacity bound of the job queue.",
                sampled.queue_capacity as u64,
            ),
            (
                "efes_jobs_in_flight",
                "Jobs currently executing.",
                sampled.in_flight as u64,
            ),
            (
                "efes_workers",
                "Worker threads in the pool.",
                sampled.workers as u64,
            ),
            (
                "efes_profile_cache_entries",
                "Profiles resident across all scenario caches.",
                sampled.cache_entries as u64,
            ),
            (
                "efes_profile_cache_hits_total",
                "Profile lookups served from memory.",
                sampled.cache_hits,
            ),
            (
                "efes_profile_cache_misses_total",
                "Profile lookups that computed a fresh profile.",
                sampled.cache_misses,
            ),
            (
                "efes_profile_cache_evictions_total",
                "Profiles evicted to enforce the cache size bound.",
                sampled.cache_evictions,
            ),
            (
                "efes_ingest_resident_bytes",
                "Approximate bytes of uploaded scenarios resident in memory.",
                sampled.ingest_resident_bytes,
            ),
            (
                "efes_ingest_budget_bytes",
                "Configured ingest budget in bytes.",
                sampled.ingest_budget_bytes,
            ),
            (
                "efes_scenarios_static",
                "Compiled-in scenarios in the registry.",
                sampled.scenarios_static as u64,
            ),
            (
                "efes_scenarios_uploaded",
                "Uploaded scenarios currently resident.",
                sampled.scenarios_uploaded as u64,
            ),
        ];
        for (name, help, value) in gauges {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }

        out.push_str(
            "# HELP efes_stage_latency_ms Wall-clock time of each pipeline stage per estimate.\n",
        );
        out.push_str("# TYPE efes_stage_latency_ms histogram\n");
        {
            let stages = self.stage_latency.lock().expect("metrics poisoned");
            for (stage, histogram) in stages.iter() {
                render_histogram(
                    &mut out,
                    "efes_stage_latency_ms",
                    &format!("stage=\"{stage}\","),
                    histogram,
                );
            }
        }

        out.push_str(
            "# HELP efes_request_latency_ms End-to-end estimate latency (queue wait + execution).\n",
        );
        out.push_str("# TYPE efes_request_latency_ms histogram\n");
        render_histogram(
            &mut out,
            "efes_request_latency_ms",
            "",
            &self.request_latency.lock().expect("metrics poisoned").clone(),
        );

        out
    }
}

fn render_histogram(out: &mut String, name: &str, label_prefix: &str, histogram: &Histogram) {
    let mut cumulative = 0u64;
    for (i, bound) in BUCKET_BOUNDS_MS.iter().enumerate() {
        cumulative += histogram.counts[i];
        let _ = writeln!(out, "{name}_bucket{{{label_prefix}le=\"{bound}\"}} {cumulative}");
    }
    cumulative += histogram.counts[BUCKET_BOUNDS_MS.len()];
    let _ = writeln!(out, "{name}_bucket{{{label_prefix}le=\"+Inf\"}} {cumulative}");
    let bare = label_prefix.trim_end_matches(',');
    let labels = if bare.is_empty() {
        String::new()
    } else {
        format!("{{{bare}}}")
    };
    let _ = writeln!(out, "{name}_sum{labels} {sum}", sum = histogram.sum_ms);
    let _ = writeln!(out, "{name}_count{labels} {count}", count = histogram.total);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_render() {
        let m = Metrics::new();
        m.count_request(Endpoint::Estimate);
        m.count_request(Endpoint::Estimate);
        m.count_request(Endpoint::Healthz);
        m.count_request(Endpoint::Match);
        m.matches_ok.fetch_add(1, Ordering::Relaxed);
        m.rejected_queue_full.fetch_add(3, Ordering::Relaxed);
        m.observe_stage("values", 12.0);
        m.observe_stage("values", 800.0);
        m.observe_stage("mapping", 0.2);
        m.observe_request_latency(42.0);
        m.count_request(Endpoint::Ingest);
        m.ingests_ok.fetch_add(1, Ordering::Relaxed);
        m.ingests_evicted.fetch_add(2, Ordering::Relaxed);
        m.panics_recovered.fetch_add(1, Ordering::Relaxed);
        m.ingests_extended.fetch_add(1, Ordering::Relaxed);
        m.profile_deltas.fetch_add(2, Ordering::Relaxed);
        m.profile_delta_rows.fetch_add(500, Ordering::Relaxed);
        m.count_cancelled_stage("values");
        m.count_cancelled_stage("values");
        m.add_reclaimed_micros(1_500_000);
        let text = m.render(&Sampled {
            queue_depth: 2,
            queue_capacity: 8,
            in_flight: 1,
            workers: 4,
            cache_entries: 10,
            cache_hits: 100,
            cache_misses: 20,
            cache_evictions: 5,
            ingest_resident_bytes: 4096,
            ingest_budget_bytes: 65536,
            scenarios_static: 7,
            scenarios_uploaded: 1,
        });
        assert!(text.contains("efes_requests_total{endpoint=\"estimate\"} 2"));
        assert!(text.contains("efes_requests_total{endpoint=\"healthz\"} 1"));
        assert!(text.contains("efes_requests_total{endpoint=\"match\"} 1"));
        assert!(text.contains("efes_matches_ok_total 1"));
        assert!(text.contains("efes_rejected_total 3"));
        assert!(text.contains("efes_requests_total{endpoint=\"ingest\"} 1"));
        assert!(text.contains("efes_ingest_ok_total 1"));
        assert!(text.contains("efes_ingest_evicted_total 2"));
        assert!(text.contains("efes_ingest_resident_bytes 4096"));
        assert!(text.contains("efes_ingest_budget_bytes 65536"));
        assert!(text.contains("efes_scenarios_uploaded 1"));
        assert!(text.contains("efes_queue_depth 2"));
        assert!(text.contains("efes_queue_capacity 8"));
        assert!(text.contains("efes_profile_cache_hits_total 100"));
        assert!(text.contains("efes_stage_latency_ms_bucket{stage=\"values\",le=\"25\"} 1"));
        assert!(text.contains("efes_stage_latency_ms_bucket{stage=\"values\",le=\"+Inf\"} 2"));
        assert!(text.contains("efes_stage_latency_ms_count{stage=\"values\"} 2"));
        assert!(text.contains("efes_stage_latency_ms_count{stage=\"mapping\"} 1"));
        assert!(text.contains("efes_request_latency_ms_count 1"));
        assert!(text.contains("efes_request_latency_ms_sum 42"));
        assert!(text.contains("efes_panics_recovered_total 1"));
        assert!(text.contains("efes_cancelled_in_stage_total{stage=\"values\"} 2"));
        assert!(text.contains("efes_worker_seconds_reclaimed_total 1.5"));
        assert!(text.contains("# TYPE efes_fault_injected_total counter"));
        assert!(text.contains("efes_ingest_extended_total 1"));
        assert!(text.contains("efes_profile_delta_total 2"));
        assert!(text.contains("efes_profile_delta_rows_total 500"));
        assert_eq!(m.cancelled_in_stage("values"), 2);
        assert_eq!(m.cancelled_in_stage("structure"), 0);
        assert_eq!(m.reclaimed_micros(), 1_500_000);
        assert_eq!(m.mean_request_latency_ms(), Some(42.0));
        assert!(Metrics::new().mean_request_latency_ms().is_none());
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = Histogram::default();
        h.observe(0.5);
        h.observe(3.0);
        h.observe(99_999.0);
        assert_eq!(h.total, 3);
        assert_eq!(h.counts[0], 1); // <= 1ms
        assert_eq!(h.counts[1], 1); // <= 5ms
        assert_eq!(h.counts[BUCKET_BOUNDS_MS.len()], 1); // +Inf
    }
}
