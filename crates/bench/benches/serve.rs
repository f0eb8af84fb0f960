//! Serving overhead: one estimate through `efes-serve` over a loopback
//! socket versus the same estimate as a direct library call. The delta
//! is the full service tax — connection setup and its thread, HTTP
//! parsing, taking a permit, and JSON serialisation of the response.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use efes::prelude::*;
use efes::settings::Quality;
use efes_serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const REQUEST_BODY: &str = r#"{"scenario":"music-example"}"#;

fn estimate_over_loopback(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(
            format!(
                "POST /estimate HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{}",
                REQUEST_BODY.len(),
                REQUEST_BODY
            )
            .as_bytes(),
        )
        .expect("write");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    response
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);

    let handle = Server::start(
        ServerConfig {
            workers: ExecutionPolicy::Threads(2),
            ..ServerConfig::default()
        },
        efes_scenarios::standard_registry(),
    )
    .expect("start server");
    let addr = handle.addr();
    // Warm the scenario build and its profile cache so the loop
    // measures steady-state serving, not first-request construction.
    estimate_over_loopback(addr);

    group.bench_function("music_example_over_loopback", |b| {
        b.iter(|| black_box(estimate_over_loopback(addr)))
    });

    let scenario = efes_scenarios::standard_registry()
        .get("music-example")
        .unwrap();
    group.bench_function("music_example_library_call", |b| {
        let estimator = Estimator::with_default_modules(EstimationConfig::for_quality(
            Quality::HighQuality,
        ));
        b.iter(|| estimator.estimate(black_box(&scenario)).unwrap())
    });

    group.bench_function("metrics_scrape", |b| {
        b.iter(|| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"GET /metrics HTTP/1.1\r\nhost: bench\r\n\r\n")
                .expect("write");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read");
            black_box(response)
        })
    });

    group.finish();
    handle.shutdown();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
