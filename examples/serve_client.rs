//! A loopback round-trip against an in-process `efes-serve` server.
//!
//! Starts the server on an ephemeral port, lists the scenarios, prices
//! one over HTTP, scrapes the metrics, and shuts down gracefully —
//! the whole service lifecycle in one process, no external tools.
//!
//! The client side is a well-behaved tenant: every POST goes through
//! [`post_json_with_retry`], which honours `429` + `Retry-After` with
//! full-jitter exponential backoff. The burst section at the end
//! overflows a one-permit, one-slot server on purpose to show the
//! backoff working.
//!
//! Run with: `cargo run --release -p efes-serve --example serve_client`

use efes_exec::ExecutionPolicy;
use efes_serve::{Server, ServerConfig};
use efes_synth::{generate, SynthConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Send one request, return the raw response text (head + body).
fn send(addr: SocketAddr, request: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(request.as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

fn get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    send(addr, &format!("GET {path} HTTP/1.1\r\nhost: efes\r\n\r\n"))
}

fn post_json(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<String> {
    send(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: efes\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
}

fn status_of(response: &str) -> u16 {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Case-insensitive header lookup in a raw response head.
fn header_value<'a>(response: &'a str, name: &str) -> Option<&'a str> {
    let head = response.split("\r\n\r\n").next()?;
    head.lines().skip(1).find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.trim().eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

/// splitmix64 — a deterministic jitter source, no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// POST, honouring `429` + `Retry-After`: each retry waits the server's
/// hint plus full jitter drawn from an exponentially growing window, so
/// shed clients return desynchronised instead of stampeding together.
fn post_json_with_retry(
    addr: SocketAddr,
    path: &str,
    body: &str,
    jitter_seed: &mut u64,
) -> std::io::Result<String> {
    const MAX_ATTEMPTS: u32 = 5;
    for attempt in 0..MAX_ATTEMPTS {
        let response = post_json(addr, path, body)?;
        if status_of(&response) != 429 || attempt + 1 == MAX_ATTEMPTS {
            return Ok(response);
        }
        let hint_ms = header_value(&response, "retry-after")
            .and_then(|v| v.parse::<u64>().ok())
            .map_or(0, |secs| secs * 1000);
        let window_ms = 100u64 << attempt; // 100, 200, 400, 800 ms
        let wait_ms = hint_ms + splitmix64(jitter_seed) % window_ms;
        println!("  shed with 429 (attempt {}), retrying in {wait_ms} ms", attempt + 1);
        std::thread::sleep(Duration::from_millis(wait_ms));
    }
    unreachable!("the loop returns on its last attempt")
}

fn main() -> std::io::Result<()> {
    // One permit and a one-slot queue: enough for the sequential walk
    // below, and guarantees the closing burst actually sheds.
    let mut registry = efes_scenarios::standard_registry();
    registry.register("synth-burst", "synthetic burst-demo scenario", || {
        generate(&SynthConfig::default().with_seed(11).with_rows(20_000)).scenario
    });
    let handle = Server::start(
        ServerConfig {
            workers: ExecutionPolicy::Threads(1),
            queue_capacity: 1,
            ..ServerConfig::default()
        },
        registry,
    )?;
    let addr = handle.addr();
    println!("serving on {addr}\n");

    println!("GET /scenarios =>");
    println!("  {}\n", body_of(&get(addr, "/scenarios")?));

    let mut seed = 0xefe5;
    let request = r#"{"scenario":"music-example","quality":"HighQuality"}"#;
    println!("POST /estimate {request} =>");
    println!(
        "  {}\n",
        body_of(&post_json_with_retry(addr, "/estimate", request, &mut seed)?)
    );

    // A second estimate of the same scenario is served from the
    // per-scenario profile cache — visible in the metrics below.
    let _ = post_json_with_retry(addr, "/estimate", request, &mut seed)?;

    // Four concurrent clients against one permit and one queue slot:
    // one runs, one waits for the permit, the rest shed with 429 +
    // Retry-After and come back after a jittered backoff to find the
    // queue drained.
    println!("burst: 4 concurrent estimates of synth-burst =>");
    let burst = r#"{"scenario":"synth-burst"}"#;
    let clients: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut seed = 0xefe5 ^ (i as u64);
                post_json_with_retry(addr, "/estimate", burst, &mut seed).map(|r| status_of(&r))
            })
        })
        .collect();
    for (i, client) in clients.into_iter().enumerate() {
        let status = client.join().expect("burst client panicked")?;
        println!("  client {i}: final status {status}");
    }
    println!();

    println!("GET /metrics (excerpt) =>");
    let metrics = get(addr, "/metrics")?;
    for line in body_of(&metrics)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.starts_with("efes_requests_total")
                || l.starts_with("efes_estimates_ok_total")
                || l.starts_with("efes_rejected_total")
                || l.starts_with("efes_profile_cache")
                || l.starts_with("efes_queue_")
        })
    {
        println!("  {line}");
    }

    handle.shutdown();
    println!("\nserver drained and stopped");
    Ok(())
}
