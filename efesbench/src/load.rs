//! The closed-loop load generator: each client sends its next op only
//! after the previous one has been answered and checked.

use crate::client::{self, Reply};
use crate::workload::{Inputs, Op};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The outcome of one op.
#[derive(Debug)]
pub struct OpOutcome {
    /// From the first request byte sent to the last response byte read.
    pub latency: Duration,
    /// Each call's reply, in order (fewer than the op's calls if one
    /// failed).
    pub replies: Vec<Reply>,
    /// Why the op failed, if it did.
    pub error: Option<String>,
}

/// Send `op`'s calls in order, checking every status and body byte for
/// byte; stops at the first failed call.
pub fn run_op(addr: SocketAddr, op: &Op) -> OpOutcome {
    let started = Instant::now();
    let mut replies = Vec::with_capacity(op.calls.len());
    let mut error = None;
    for call in &op.calls {
        match client::request(addr, call.method, &call.path, &call.body) {
            Ok(reply) => {
                let ok = reply.status == call.status && *reply.body == *call.expect;
                if !ok {
                    error = Some(format!(
                        "{} {} answered {} {:?}, expected {} {:?}",
                        call.method,
                        call.path,
                        reply.status,
                        String::from_utf8_lossy(&reply.body[..reply.body.len().min(300)]),
                        call.status,
                        String::from_utf8_lossy(&call.expect[..call.expect.len().min(300)]),
                    ));
                }
                replies.push(reply);
            }
            Err(e) => error = Some(format!("{} {}: {e}", call.method, call.path)),
        }
        if error.is_some() {
            break;
        }
    }
    OpOutcome {
        latency: started.elapsed(),
        replies,
        error,
    }
}

/// What a timed window measured.
#[derive(Debug, Default)]
pub struct Window {
    /// Latencies of the ops that succeeded, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// When each successful op completed, in seconds from the window's
    /// start, ascending.
    pub completions_s: Vec<f64>,
    /// Ops started.
    pub attempted: usize,
    /// Ops that got a wrong, non-2xx or no answer.
    pub failed: usize,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// From the first op sent to the last op answered.
    pub wall: Duration,
}

/// Drive the server with `clients` closed-loop clients for at least
/// `seconds`. Clients take ops from `inputs.sequence` in order; a client
/// starts a new op after the deadline only to finish a cycle, so the
/// window always holds whole cycles.
pub fn closed_loop(addr: SocketAddr, inputs: &Inputs, clients: usize, seconds: f64) -> Window {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let per_client: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut w = Window::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i.is_multiple_of(inputs.cycle) && Instant::now() >= deadline {
                            break;
                        }
                        let op = &inputs.ops[inputs.sequence[i % inputs.sequence.len()]];
                        let outcome = run_op(addr, op);
                        w.attempted += 1;
                        match outcome.error {
                            None => {
                                w.latencies_ms.push(outcome.latency.as_secs_f64() * 1e3);
                                w.completions_s.push(started.elapsed().as_secs_f64());
                            }
                            Some(e) => {
                                w.failed += 1;
                                if w.errors.len() < 5 {
                                    w.errors.push(e);
                                }
                            }
                        }
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Window {
        wall: started.elapsed(),
        ..Window::default()
    };
    for w in per_client {
        total.latencies_ms.extend(w.latencies_ms);
        total.completions_s.extend(w.completions_s);
        total.attempted += w.attempted;
        total.failed += w.failed;
        total.errors.extend(w.errors);
    }
    total.completions_s.sort_by(f64::total_cmp);
    total
}

/// Send every distinct op once, in order, and fail on the first wrong
/// answer: after this every scenario and quality the workload uses has
/// been answered and verified.
pub fn warm_up(addr: SocketAddr, inputs: &Inputs) -> Result<(), String> {
    for op in &inputs.ops {
        if let Some(e) = run_op(addr, op).error {
            return Err(format!("warm-up: {e}"));
        }
    }
    Ok(())
}
