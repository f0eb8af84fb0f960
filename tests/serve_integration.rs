//! End-to-end tests of `efes-serve` over real sockets: a full estimate
//! round-trip that byte-matches the library path, load shedding under a
//! saturated queue, deadline expiry, graceful drain, and the metrics
//! endpoint.

use efes::{
    EstimateRequest, EstimateResponse, EstimationConfig, Estimator, ExecutionPolicy, Quality,
    ScenarioRegistry,
};
use efes_relational::{
    CorrespondenceBuilder, DataType, DatabaseBuilder, IntegrationScenario, Value,
};
use efes_serve::{MatchResponse, Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A raw one-request HTTP client: returns (status, headers, body).
fn send_raw(addr: SocketAddr, request: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(request).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8_lossy(&response).into_owned();
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {text:?}"));
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    (status, head.to_owned(), body.to_owned())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    send_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: efes\r\n\r\n").as_bytes(),
    )
}

fn post_estimate(addr: SocketAddr, body: &str) -> (u16, String, String) {
    send_raw(
        addr,
        format!(
            "POST /estimate HTTP/1.1\r\nhost: efes\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

fn post_match(addr: SocketAddr, body: &str) -> (u16, String, String) {
    send_raw(
        addr,
        format!(
            "POST /match HTTP/1.1\r\nhost: efes\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// Poll the in-process metrics until `line` appears or `within` elapses.
fn wait_for_metric(handle: &ServerHandle, line: &str, within: Duration) {
    let start = Instant::now();
    loop {
        if handle.scrape().lines().any(|l| l == line) {
            return;
        }
        assert!(
            start.elapsed() < within,
            "metric line {line:?} did not appear within {within:?}; scrape:\n{}",
            handle.scrape()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A scenario that is deliberately expensive to estimate: with enough
/// rows profiling dominates, so a single permit stays held long enough
/// for queueing and deadline behaviour to be observable.
fn slow_scenario(rows: usize) -> IntegrationScenario {
    let rows: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Text(format!("name-{}", i * 7919 % 997)),
                Value::Text(format!("place {} nr {}", i % 97, i)),
                Value::Text(format!("note:{:04x}", i * 31 % 4096)),
            ]
        })
        .collect();
    let source = DatabaseBuilder::new("big_src")
        .table("events", |t| {
            t.attr("id", DataType::Integer)
                .attr("name", DataType::Text)
                .attr("place", DataType::Text)
                .attr("note", DataType::Text)
        })
        .rows("events", rows)
        .build()
        .unwrap();
    let target = DatabaseBuilder::new("big_tgt")
        .table("records", |t| {
            t.attr("nr", DataType::Integer)
                .attr("title", DataType::Text)
                .attr("venue", DataType::Text)
                .attr("remark", DataType::Text)
        })
        .build()
        .unwrap();
    let corrs = CorrespondenceBuilder::new(&source, &target)
        .table("events", "records")
        .unwrap()
        .attr("events", "id", "records", "nr")
        .unwrap()
        .attr("events", "name", "records", "title")
        .unwrap()
        .attr("events", "place", "records", "venue")
        .unwrap()
        .attr("events", "note", "records", "remark")
        .unwrap()
        .finish();
    IntegrationScenario::single_source("slow", source, target, corrs).unwrap()
}

/// The row count at which one uncancelled, sequential estimate of
/// [`slow_scenario`] takes at least 200 ms on this build and host:
/// doubled from 6,000 until a measured in-process run is that slow.
/// Release builds estimate several times faster than debug ones, so a
/// fixed size that keeps the permit held in one would race the tests'
/// 5 ms metric polling in the other.
fn slow_rows() -> usize {
    static ROWS: OnceLock<usize> = OnceLock::new();
    *ROWS.get_or_init(|| {
        let estimator = Estimator::with_default_modules(
            EstimationConfig::default().with_execution(ExecutionPolicy::Sequential),
        );
        let mut rows = 6000;
        loop {
            let scenario = slow_scenario(rows);
            let started = Instant::now();
            estimator
                .estimate(&scenario)
                .expect("slow scenario estimates");
            if started.elapsed() >= Duration::from_millis(200) || rows >= 1 << 18 {
                return rows;
            }
            rows *= 2;
        }
    })
}

/// One permit, one queue slot, and profile caching effectively disabled
/// so repeated estimates of the slow scenario stay slow.
fn slow_server() -> ServerHandle {
    let mut registry = ScenarioRegistry::new();
    let rows = slow_rows();
    registry.register("slow", "deliberately expensive scenario", move || {
        slow_scenario(rows)
    });
    Server::start(
        ServerConfig {
            workers: ExecutionPolicy::Threads(1),
            queue_capacity: 1,
            profile_cache_capacity: Some(1),
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("start server")
}

#[test]
fn estimate_round_trip_byte_matches_the_library() {
    let handle = Server::start(
        ServerConfig {
            workers: ExecutionPolicy::Threads(2),
            ..ServerConfig::default()
        },
        efes_scenarios::standard_registry(),
    )
    .expect("start server");

    let (status, _, body) = post_estimate(
        handle.addr(),
        r#"{"scenario":"music-example","include_tasks":true}"#,
    );
    assert_eq!(status, 200, "body: {body}");
    let served: EstimateResponse = serde_json::from_str(&body).expect("parse response");

    // The same request through the library, bypassing the server.
    let mut request = EstimateRequest::new("music-example");
    request.include_tasks = true;
    let scenario = efes_scenarios::standard_registry()
        .get("music-example")
        .unwrap();
    let estimate = Estimator::with_default_modules(EstimationConfig::for_quality(
        Quality::HighQuality,
    ))
    .estimate(&scenario)
    .unwrap();
    let expected = EstimateResponse::from_estimate(&estimate, &request);

    assert_eq!(served, expected);
    // Byte-for-byte: serialising both sides yields identical JSON.
    assert_eq!(
        serde_json::to_string(&served).unwrap(),
        serde_json::to_string(&expected).unwrap()
    );
    assert!(served.total_minutes > 0.0);
    handle.shutdown();
}

#[test]
fn discovery_and_error_paths_answer_without_panicking() {
    let handle = Server::start(ServerConfig::default(), efes_scenarios::standard_registry())
        .expect("start server");
    let addr = handle.addr();

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!((status, body.contains("ok")), (200, true));

    let (status, _, body) = get(addr, "/scenarios");
    assert_eq!(status, 200);
    assert!(body.contains("music-example"), "body: {body}");
    assert!(body.contains("amalgam-s1-s2"), "body: {body}");
    assert!(body.contains("discography-f1-m2"), "body: {body}");

    // Unknown path, wrong method, malformed JSON, unknown scenario,
    // invalid UTF-8, protocol garbage, oversized body.
    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(
        send_raw(addr, b"POST /healthz HTTP/1.1\r\n\r\n").0,
        405
    );
    let (status, _, body) = post_estimate(addr, "{not json");
    assert_eq!(status, 400, "body: {body}");
    let (status, _, body) = post_estimate(addr, r#"{"quality":"LowEffort"}"#);
    assert_eq!(status, 400, "body: {body}");
    let (status, _, body) = post_estimate(addr, r#"{"scenario":"no-such-scenario"}"#);
    assert_eq!(status, 404, "body: {body}");
    let mut non_utf8 = b"POST /estimate HTTP/1.1\r\ncontent-length: 3\r\n\r\n".to_vec();
    non_utf8.extend_from_slice(&[0xff, 0xfe, 0x00]);
    assert_eq!(send_raw(addr, &non_utf8).0, 400);
    assert_eq!(send_raw(addr, b"SPDY is not http\r\n\r\n").0, 400);
    let huge = format!(
        "POST /estimate HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        64 * 1024 * 1024
    );
    assert_eq!(send_raw(addr, huge.as_bytes()).0, 413);

    let metrics = handle.scrape();
    assert!(
        metrics.contains("efes_bad_requests_total 4"),
        "metrics:\n{metrics}"
    );
    assert!(metrics.contains("efes_too_large_total 1"), "metrics:\n{metrics}");
    handle.shutdown();
}

/// Ten thousand nested arrays, or a chain of ten thousand objects, once
/// overflowed a connection thread's stack and aborted the process. Every
/// endpoint that parses JSON now answers 400, and the server stays up.
#[test]
fn deeply_nested_bodies_answer_400_and_the_server_stays_up() {
    let handle = Server::start(ServerConfig::default(), efes_scenarios::standard_registry())
        .expect("start server");
    let addr = handle.addr();
    let arrays = "[".repeat(10_000);
    let objects = r#"{"a":"#.repeat(10_000);
    for path in ["/estimate", "/match", "/scenarios"] {
        for deep in [&arrays, &objects] {
            let request = format!(
                "POST {path} HTTP/1.1\r\nhost: efes\r\ncontent-length: {}\r\n\r\n{deep}",
                deep.len()
            );
            let (status, _, body) = send_raw(addr, request.as_bytes());
            assert_eq!(status, 400, "{path}: {body}");
            if deep.starts_with('{') {
                assert!(body.contains("recursion limit exceeded"), "{path}: {body}");
            }
            let (status, _, _) = get(addr, "/healthz");
            assert_eq!(status, 200, "/healthz after a deep body to {path}");
        }
    }
    handle.shutdown();
}

#[test]
fn saturated_queue_sheds_with_429_and_retry_after() {
    let handle = slow_server();
    let addr = handle.addr();
    let body = r#"{"scenario":"slow","deadline_ms":120000}"#;

    // Occupy the single permit…
    let first = std::thread::spawn(move || post_estimate(addr, body));
    wait_for_metric(&handle, "efes_jobs_in_flight 1", Duration::from_secs(30));
    // …fill the single queue slot…
    let second = std::thread::spawn(move || post_estimate(addr, body));
    wait_for_metric(&handle, "efes_queue_depth 1", Duration::from_secs(30));
    // …and the next request must be shed, not queued.
    let (status, head, body_text) = post_estimate(addr, body);
    assert_eq!(status, 429, "body: {body_text}");
    assert!(
        head.to_ascii_lowercase().contains("retry-after: 1"),
        "head: {head}"
    );

    let (status, _, _) = first.join().unwrap();
    assert_eq!(status, 200);
    let (status, _, _) = second.join().unwrap();
    assert_eq!(status, 200);

    let metrics = handle.scrape();
    assert!(metrics.contains("efes_rejected_total 1"), "metrics:\n{metrics}");
    assert!(
        metrics.contains("efes_estimates_ok_total 2"),
        "metrics:\n{metrics}"
    );
    handle.shutdown();
}

#[test]
fn expired_deadlines_answer_503_and_abandon_the_job() {
    let handle = slow_server();
    let addr = handle.addr();

    // One uncancelled run measures how long the blocker below holds the
    // permit on this build and host.
    let (status, _, body) = post_estimate(addr, r#"{"scenario":"slow","deadline_ms":120000}"#);
    assert_eq!(status, 200, "body: {body}");
    let runtime_ms = handle.metrics().mean_request_latency_ms().unwrap();
    // The next estimate to hold the permit must be the blocker's.
    wait_for_metric(&handle, "efes_jobs_in_flight 0", Duration::from_secs(30));

    // Hold the only permit so the deadlined request can never start.
    let blocker = std::thread::spawn(move || {
        post_estimate(addr, r#"{"scenario":"slow","deadline_ms":120000}"#)
    });
    wait_for_metric(&handle, "efes_jobs_in_flight 1", Duration::from_secs(30));

    // A tenth of the blocker's runtime: the deadline fires while the
    // request still waits for the permit, whatever the build's speed.
    let deadline_ms = ((runtime_ms / 10.0) as u64).max(1);
    let (status, _, body) = post_estimate(
        addr,
        &format!(r#"{{"scenario":"slow","deadline_ms":{deadline_ms}}}"#),
    );
    assert_eq!(status, 503, "body: {body}");
    assert!(body.contains("deadline"), "body: {body}");

    let (status, _, body) = blocker.join().unwrap();
    assert_eq!(status, 200, "blocker body: {body}");
    // The deadlined request left the queue without running.
    wait_for_metric(&handle, "efes_jobs_abandoned_total 1", Duration::from_secs(30));
    wait_for_metric(&handle, "efes_deadline_expired_total 1", Duration::from_secs(5));
    handle.shutdown();
}

#[test]
fn tight_deadline_aborts_a_running_estimate_and_frees_the_worker() {
    // Two synthetic scenarios: a large one whose uncancelled estimate
    // serves as the baseline, and a ~10⁶-row one that only ever runs
    // under a tight deadline — its uncancelled runtime would dwarf the
    // whole test.
    let mut registry = ScenarioRegistry::new();
    registry.register("synth-large", "large synthetic scenario", || {
        efes_synth::generate(&efes_synth::SynthConfig::default().with_rows(20_000)).scenario
    });
    registry.register("synth-xl", "million-row synthetic scenario", || {
        efes_synth::generate(&efes_synth::SynthConfig::default().with_rows(333_334)).scenario
    });
    let handle = Server::start(
        ServerConfig {
            workers: ExecutionPolicy::Threads(1),
            queue_capacity: 1,
            profile_cache_capacity: Some(1),
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("start server");
    let addr = handle.addr();

    // Baseline: the large scenario estimated uncancelled. Seeds the
    // server's mean request latency, which sets the deadline below, and
    // bounds both how late the deadline's answer may come and the
    // "permit free again" assertion.
    let baseline_started = Instant::now();
    let (status, _, body) = post_estimate(addr, r#"{"scenario":"synth-large"}"#);
    assert_eq!(status, 200, "body: {body}");
    let baseline = baseline_started.elapsed();

    // Scenario generation runs on the connection thread before the
    // server's clock starts, and for the million-row scenario it takes
    // longer than the estimate the deadline cuts short. Build it first,
    // under a deadline that aborts its estimate at once, so the timed
    // request below measures only the estimate.
    let (status, _, body) = post_estimate(addr, r#"{"scenario":"synth-xl","deadline_ms":1}"#);
    assert_eq!(status, 503, "body: {body}");

    // The million-row scenario under a deadline of a quarter of the
    // baseline's estimation time: the running estimate aborts at its
    // next checkpoint after the deadline and answers 503 naming the
    // deadline, instead of holding its permit for the full estimate.
    let mean_ms = handle.metrics().mean_request_latency_ms().unwrap();
    let deadline = Duration::from_millis(((mean_ms / 4.0) as u64).max(1));
    let sent = Instant::now();
    let (status, _, body) = post_estimate(
        addr,
        &format!(
            r#"{{"scenario":"synth-xl","deadline_ms":{}}}"#,
            deadline.as_millis()
        ),
    );
    let aborted_at = Instant::now();
    assert_eq!(status, 503, "body: {body}");
    assert!(body.contains("deadline"), "body: {body}");
    // The answer comes by the deadline plus the run's checkpoint gap,
    // which is far below a whole uncancelled estimate.
    assert!(
        aborted_at - sent < deadline + baseline,
        "answered {:?} after sending, deadline {deadline:?}, baseline {baseline:?}",
        aborted_at - sent
    );

    // The permit must come free well before even the *baseline*
    // uncancelled runtime — of a scenario a seventeenth the size —
    // pinning that the abort was cooperative, not a run-to-completion.
    let free_bound = baseline.max(Duration::from_secs(2));
    wait_for_metric(&handle, "efes_jobs_in_flight 0", free_bound);
    assert!(
        aborted_at.elapsed() < free_bound,
        "permit still held after {:?} (baseline {:?})",
        aborted_at.elapsed(),
        baseline
    );

    // The abort is attributed to the pipeline stage that observed it.
    let abort_deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let cancelled_line = handle.scrape().lines().any(|l| {
            l.starts_with("efes_cancelled_in_stage_total{stage=")
                && !l.ends_with(" 0")
        });
        if cancelled_line {
            break;
        }
        assert!(
            Instant::now() < abort_deadline,
            "no efes_cancelled_in_stage_total sample; scrape:\n{}",
            handle.scrape()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The server is fully healthy afterwards: the freed permit serves
    // the next estimate normally.
    let (status, _, body) = post_estimate(addr, r#"{"scenario":"synth-large"}"#);
    assert_eq!(status, 200, "body: {body}");
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_in_flight_estimates() {
    let handle = slow_server();
    let addr = handle.addr();

    let client = std::thread::spawn(move || {
        post_estimate(addr, r#"{"scenario":"slow","deadline_ms":120000}"#)
    });
    wait_for_metric(&handle, "efes_jobs_in_flight 1", Duration::from_secs(30));
    handle.shutdown();

    // The in-flight request still completed successfully.
    let (status, _, body) = client.join().unwrap();
    assert_eq!(status, 200, "body: {body}");
    let parsed: EstimateResponse = serde_json::from_str(&body).expect("parse drained response");
    assert_eq!(parsed.scenario, "slow");

    // And the listener is gone.
    assert!(TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_err());
}

#[test]
fn match_endpoint_proposes_correspondences_by_name() {
    let handle = Server::start(ServerConfig::default(), efes_scenarios::standard_registry())
        .expect("start server");
    let addr = handle.addr();

    let (status, _, body) = post_match(addr, r#"{"scenario":"music-example"}"#);
    assert_eq!(status, 200, "body: {body}");
    let served: MatchResponse = serde_json::from_str(&body).expect("parse match response");
    assert_eq!(served.scenario, "music-example");
    assert_eq!(served.source, 0);
    assert!(served.pairs_total > 0);
    assert!(!served.matches.is_empty(), "body: {body}");
    for m in &served.matches {
        assert!(m.score > 0.0 && m.score <= 1.0, "score {m:?}");
        assert!(!m.source_attr.is_empty() && !m.target_attr.is_empty());
    }
    // Best-first ordering survives the wire.
    for pair in served.matches.windows(2) {
        assert!(pair[0].score >= pair[1].score, "body: {body}");
    }

    // Error paths: unknown scenario, out-of-range source, bad JSON.
    assert_eq!(post_match(addr, r#"{"scenario":"no-such"}"#).0, 404);
    let (status, _, body) = post_match(addr, r#"{"scenario":"music-example","source":99}"#);
    assert_eq!(status, 404, "body: {body}");
    assert!(body.contains("no index 99"), "body: {body}");
    assert_eq!(post_match(addr, "{nope").0, 400);

    let metrics = handle.scrape();
    assert!(
        metrics.contains("efes_requests_total{endpoint=\"match\"} 4"),
        "metrics:\n{metrics}"
    );
    assert!(metrics.contains("efes_matches_ok_total 1"), "metrics:\n{metrics}");
    assert!(
        metrics.contains("efes_stage_latency_ms_count{stage=\"matching\"} 1"),
        "metrics:\n{metrics}"
    );
    handle.shutdown();
}

#[test]
fn metrics_expose_stage_latencies_and_cache_counters() {
    let handle = Server::start(ServerConfig::default(), efes_scenarios::standard_registry())
        .expect("start server");
    let addr = handle.addr();
    let body = r#"{"scenario":"music-example"}"#;
    assert_eq!(post_estimate(addr, body).0, 200);
    assert_eq!(post_estimate(addr, body).0, 200);

    let (status, _, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("efes_requests_total{endpoint=\"estimate\"} 2"),
        "metrics:\n{metrics}"
    );
    assert!(metrics.contains("efes_estimates_ok_total 2"), "metrics:\n{metrics}");
    for stage in ["mapping", "structure", "values"] {
        assert!(
            metrics.contains(&format!("efes_stage_latency_ms_count{{stage=\"{stage}\"}} 2")),
            "missing stage {stage}; metrics:\n{metrics}"
        );
    }
    assert!(metrics.contains("efes_request_latency_ms_count 2"), "metrics:\n{metrics}");
    assert!(metrics.contains("efes_queue_capacity 64"), "metrics:\n{metrics}");
    assert!(metrics.contains("efes_workers"), "metrics:\n{metrics}");

    // The second estimate of the same scenario was served from the
    // per-scenario profile cache: hits > 0, and entries are resident.
    let cache_line = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in metrics:\n{metrics}"))
    };
    assert!(cache_line("efes_profile_cache_hits_total ") > 0);
    assert!(cache_line("efes_profile_cache_misses_total ") > 0);
    assert!(cache_line("efes_profile_cache_entries ") > 0);

    // The structure stage runs the CSG counting evaluator; its
    // expression memo counters are exported. Each estimate rebuilds the
    // source conversions, so misses are guaranteed; hits depend on how
    // many repeated (expr, node) evaluations one run performs, so only
    // assert the counter is present (process-global, monotonic).
    assert!(
        cache_line("efes_csg_eval_memo_misses_total ") > 0,
        "metrics:\n{metrics}"
    );
    let _hits = cache_line("efes_csg_eval_memo_hits_total ");
    // csg_planning work is folded into the structure stage histogram:
    // both estimates must have recorded a structure-stage latency above.
    assert!(
        metrics.contains("efes_stage_latency_ms_sum{stage=\"structure\"}"),
        "metrics:\n{metrics}"
    );
    handle.shutdown();
}
