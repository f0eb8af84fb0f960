//! Chaos suite: drives a live server under deterministic fault
//! injection (`EFES_FAULTS`) and asserts the blast radius of every
//! fault mode stays inside its isolation boundary — a panicking
//! estimate answers `500` and frees its permit, a spurious cancel answers
//! `503` and the next request recovers byte-identically, a delay only
//! slows the answer, an ingest allocation cap rejects one upload, and
//! shutdown drains cleanly while faults keep firing.
//!
//! The whole suite is ONE test function: the fault spec is process
//! environment, so sub-steps must run sequentially. The schedule seed
//! comes from `EFES_CHAOS_SEED` (CI runs a small matrix of seeds);
//! every assertion below is seed-independent because each step pins
//! `rate=1` with a single mode, except the drain step, which only
//! asserts that responses stay in the allowed status set.

use efes_exec::ExecutionPolicy;
use efes_ingest::{ScenarioUpload, UploadFormat};
use efes_serve::{Server, ServerConfig};
use efes_synth::{generate, SynthConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A raw one-request HTTP client: returns (status, body).
fn send_raw(addr: SocketAddr, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // No request may ever hang: a stuck server fails the suite here.
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
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
    (status, body.to_owned())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    send_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: efes\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    send_raw(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nhost: efes\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// The schedule seed under test; CI sweeps a matrix of these.
fn chaos_seed() -> u64 {
    std::env::var("EFES_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Sets `EFES_FAULTS` for one sub-step; clears it on drop so a failing
/// assertion cannot leak faults into the next step.
struct FaultGuard;

fn with_faults(spec: &str) -> FaultGuard {
    std::env::set_var(efes_exec::fault::FAULTS_ENV_VAR, spec);
    FaultGuard
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        std::env::remove_var(efes_exec::fault::FAULTS_ENV_VAR);
    }
}

fn delete(addr: SocketAddr, name: &str) -> (u16, String) {
    send_raw(
        addr,
        format!("DELETE /scenarios/{name} HTTP/1.1\r\nhost: efes\r\n\r\n").as_bytes(),
    )
}

/// A small synthetic scenario serialised as an upload document.
fn upload_doc(name: &str) -> String {
    let cfg = SynthConfig::default().with_seed(7).with_rows(40);
    let scenario = generate(&cfg).scenario;
    let mut upload = ScenarioUpload::from_scenario(&scenario, UploadFormat::JsonRows);
    upload.name = name.to_owned();
    serde_json::to_string(&upload).expect("serialise upload")
}

#[test]
fn injected_faults_stay_inside_their_isolation_boundaries() {
    let seed = chaos_seed();
    // One permit and one waiting slot: a permit leaked by a panicking,
    // cancelled or delayed estimate makes the next request wait out its
    // deadline, which fails the recovery assertions below.
    let handle = Server::start(
        ServerConfig {
            workers: ExecutionPolicy::Threads(1),
            queue_capacity: 1,
            ..ServerConfig::default()
        },
        efes_scenarios::standard_registry(),
    )
    .expect("start server");
    let addr = handle.addr();
    let estimate_body = r#"{"scenario":"music-example","include_tasks":true}"#;

    // Baseline, no faults: the byte-exact answer every recovery below
    // must reproduce.
    let (status, baseline) = post(addr, "/estimate", estimate_body);
    assert_eq!(status, 200, "baseline body: {baseline}");

    // --- Panic in the estimate: 500 now, clean recovery next. ---
    {
        let _g = with_faults(&format!(
            "seed={seed},rate=1,site=serve.estimate.job,mode=panic"
        ));
        let (status, body) = post(addr, "/estimate", estimate_body);
        assert_eq!(status, 500, "body: {body}");
        assert!(body.contains("panicked"), "body: {body}");
    }
    let (status, body) = post(addr, "/estimate", estimate_body);
    assert_eq!(status, 200, "post-panic body: {body}");
    assert_eq!(body, baseline, "recovery after panic must be byte-identical");

    // --- Spurious cancel: the run aborts cooperatively with 503. ---
    {
        let _g = with_faults(&format!(
            "seed={seed},rate=1,site=serve.estimate.job,mode=cancel"
        ));
        let (status, body) = post(addr, "/estimate", estimate_body);
        assert_eq!(status, 503, "body: {body}");
        assert!(body.contains("cancelled in stage"), "body: {body}");
    }
    let (status, body) = post(addr, "/estimate", estimate_body);
    assert_eq!(status, 200, "post-cancel body: {body}");
    assert_eq!(body, baseline, "recovery after cancel must be byte-identical");

    // --- Delay: slower, but still the exact same answer. ---
    {
        let _g = with_faults(&format!(
            "seed={seed},rate=1,site=serve.estimate.job,mode=delay"
        ));
        let (status, body) = post(addr, "/estimate", estimate_body);
        assert_eq!(status, 200, "body: {body}");
        assert_eq!(body, baseline, "a delay must not change the estimate");
    }

    // --- Ingest allocation cap: one upload bounces, the retry lands. ---
    let doc = upload_doc("chaos-upload");
    {
        let _g = with_faults(&format!("seed={seed},rate=1,site=ingest.upload,mode=alloc"));
        let (status, body) = post(addr, "/scenarios", &doc);
        assert_eq!(status, 413, "body: {body}");
        assert!(body.contains("injected fault"), "body: {body}");
    }
    let (status, body) = post(addr, "/scenarios", &doc);
    assert_eq!(status, 201, "post-alloc-cap body: {body}");

    // --- Panic on the connection thread (ingest site): the unwind
    // boundary answers 500 and the server stays up. ---
    {
        let _g = with_faults(&format!("seed={seed},rate=1,site=ingest.upload,mode=panic"));
        let (status, body) = post(addr, "/scenarios", &doc);
        assert_eq!(status, 500, "body: {body}");
        assert!(body.contains("internal panic"), "body: {body}");
    }
    assert_eq!(get(addr, "/healthz").0, 200);

    // --- Faults inside a profile-cache fill: neither a panic nor a
    // cancel mid-fill may hang the estimate or poison the scenario's
    // profile-cache slot. `profiling.fill` fires once per cache miss,
    // so each fault needs a cold cache: the scenario is dropped and
    // re-uploaded after the baseline fills it. ---
    {
        let (status, fill_baseline) = post(
            addr,
            "/estimate",
            r#"{"scenario":"chaos-upload","include_tasks":true}"#,
        );
        assert_eq!(status, 200, "fill baseline: {fill_baseline}");

        assert_eq!(delete(addr, "chaos-upload").0, 200);
        assert_eq!(post(addr, "/scenarios", &doc).0, 201);
        {
            let _g = with_faults(&format!(
                "seed={seed},rate=1,site=profiling.fill,mode=panic"
            ));
            let (status, body) = post(addr, "/estimate", r#"{"scenario":"chaos-upload"}"#);
            assert_eq!(status, 500, "body: {body}");
            assert!(body.contains("panicked"), "body: {body}");
        }
        {
            let _g = with_faults(&format!(
                "seed={seed},rate=1,site=profiling.fill,mode=cancel"
            ));
            let (status, body) = post(addr, "/estimate", r#"{"scenario":"chaos-upload"}"#);
            assert_eq!(status, 503, "body: {body}");
            assert!(body.contains("cancelled in stage"), "body: {body}");
        }
        // Faults cleared, cache slot survived both: the same entry now
        // fills cleanly and answers byte-identically.
        let (status, body) = post(
            addr,
            "/estimate",
            r#"{"scenario":"chaos-upload","include_tasks":true}"#,
        );
        assert_eq!(status, 200, "post-fill-fault body: {body}");
        assert_eq!(
            body, fill_baseline,
            "recovery after cache-fill faults must be byte-identical"
        );
    }

    // Every injected fault is visible in the metrics, per site and mode.
    let metrics = handle.scrape();
    for line in [
        "efes_fault_injected_total{site=\"serve.estimate.job\",mode=\"panic\"} 1",
        "efes_fault_injected_total{site=\"serve.estimate.job\",mode=\"cancel\"} 1",
        "efes_fault_injected_total{site=\"serve.estimate.job\",mode=\"delay\"} 1",
        "efes_fault_injected_total{site=\"ingest.upload\",mode=\"alloc\"} 1",
        "efes_fault_injected_total{site=\"ingest.upload\",mode=\"panic\"} 1",
        "efes_fault_injected_total{site=\"profiling.fill\",mode=\"panic\"} 1",
        "efes_fault_injected_total{site=\"profiling.fill\",mode=\"cancel\"} 1",
        "efes_panics_recovered_total 3",
    ] {
        assert!(metrics.contains(line), "missing {line:?} in:\n{metrics}");
    }
    assert!(
        metrics
            .lines()
            .any(|l| l.starts_with("efes_cancelled_in_stage_total{stage=") && !l.ends_with(" 0")),
        "no cancelled-in-stage sample in:\n{metrics}"
    );

    // --- Drain under a mixed fault storm: the seed decides which mode
    // each request draws; whatever it draws, the answer is one of the
    // three legal statuses, never a hang. ---
    {
        let _g = with_faults(&format!(
            "seed={seed},rate=0.6,site=serve.estimate.job,mode=panic|delay|cancel"
        ));
        for i in 0..6 {
            let (status, body) = post(addr, "/estimate", estimate_body);
            assert!(
                matches!(status, 200 | 500 | 503),
                "request {i} under fault storm answered {status}: {body}"
            );
        }
    }

    // Faults cleared: the very next request is exact again, and
    // shutdown drains without hanging.
    let (status, body) = post(addr, "/estimate", estimate_body);
    assert_eq!(status, 200, "post-storm body: {body}");
    assert_eq!(body, baseline, "recovery after the storm must be byte-identical");
    handle.shutdown();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_err(),
        "listener must be gone after shutdown"
    );
}
