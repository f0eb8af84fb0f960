//! The estimation server: a `std`-only TCP acceptor, one handler thread
//! per connection, and an admission gate in front of estimation.
//!
//! The shape is deliberately boring: one acceptor thread, and one
//! handler thread per connection (capped) that parses its request and,
//! for `POST /estimate`, runs the estimate itself once it holds one of
//! `workers` permits. While every permit is taken it waits, oldest
//! first, behind at most `queue_capacity` others. Every overload path
//! is explicit — a full queue sheds with `429` + `Retry-After`, a
//! connection cap sheds with `503`, a deadline that passes while the
//! request waits answers `503` at once and one that passes while it
//! runs answers `503` at the run's next checkpoint, and shutdown lets
//! every accepted connection finish before returning. All of it is
//! observable at `GET /metrics` (see [`crate::metrics`]).

use crate::http::{self, Limits, ParseError, Request, Response};
use crate::metrics::{Endpoint, Metrics, Sampled};
use efes::{
    EstimateRequest, EstimateResponse, EstimationConfig, Estimator, ExecutionPolicy,
    ModuleError, ScenarioProvider, ScenarioRegistry,
};
use efes_exec::{fault, CancellationToken, RunContext};
use efes_ingest::{
    DynamicRegistry, InsertError, InsertOutcome, RemoveError, ScenarioUpload, TableGrowth,
};
use efes_matching::{CombinedMatcher, MatcherConfig};
use efes_profiling::{DbTag, ProfileCache};
use serde::{content_get, Content, DeError, Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables. [`ServerConfig::default`] is sized for tests and
/// local use; the binary maps CLI flags onto these fields.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// How many estimates may run at once: one permit each, and each
    /// estimate runs on its own connection thread.
    pub workers: ExecutionPolicy,
    /// Bound on estimates *waiting* for a permit, admitted oldest
    /// first; beyond it requests shed with `429`.
    pub queue_capacity: usize,
    /// Bound on concurrently handled connections; beyond it the
    /// acceptor sheds with `503`.
    pub max_connections: usize,
    /// Deadline applied when a request names none.
    pub default_deadline: Duration,
    /// Hard ceiling any requested deadline is clamped to.
    pub max_deadline: Duration,
    /// Socket read/write timeout per connection.
    pub io_timeout: Duration,
    /// Request parsing limits.
    pub limits: Limits,
    /// Execution policy *inside* one estimate. Defaults to sequential:
    /// the permits already run `workers` estimates side by side, and
    /// per-request sequential execution keeps them from oversubscribing
    /// the machine. The estimate itself is identical either way.
    pub estimation: ExecutionPolicy,
    /// Per-scenario [`ProfileCache`] bound (`None` = unbounded).
    pub profile_cache_capacity: Option<usize>,
    /// Whether `POST /shutdown` is honoured (off by default; meant for
    /// CI and supervised deployments).
    pub allow_remote_shutdown: bool,
    /// Byte budget for uploaded scenarios (`POST /scenarios`). `None`
    /// falls back to the `EFES_INGEST_BUDGET` environment variable, or
    /// 256 MiB.
    pub ingest_budget: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: ExecutionPolicy::FromEnv,
            queue_capacity: 64,
            max_connections: 128,
            default_deadline: Duration::from_secs(30),
            max_deadline: Duration::from_secs(120),
            io_timeout: Duration::from_secs(10),
            limits: Limits::default(),
            estimation: ExecutionPolicy::Sequential,
            profile_cache_capacity: Some(4096),
            allow_remote_shutdown: false,
            ingest_budget: None,
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The admission gate in front of estimation: at most `permits`
/// estimates run at once, and at most `capacity` more wait for a
/// permit, admitted in the order they arrived.
struct Gate {
    permits: usize,
    capacity: usize,
    state: Mutex<GateState>,
    /// Signalled when a permit comes free or a waiter leaves, so the
    /// waiter now first in line looks again.
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Estimates holding a permit.
    running: usize,
    /// Tickets of the callers waiting for a permit, oldest first.
    waiting: VecDeque<u64>,
    /// The ticket the next waiter draws.
    next_ticket: u64,
}

/// Why [`Gate::admit`] turned a caller away.
#[derive(Debug, PartialEq, Eq)]
enum Refused {
    /// `capacity` callers were already waiting.
    QueueFull,
    /// The caller's deadline passed while it waited.
    Expired,
}

impl Gate {
    /// `permits` and `capacity` of at least one each.
    fn new(permits: usize, capacity: usize) -> Self {
        Gate {
            permits: permits.max(1),
            capacity: capacity.max(1),
            state: Mutex::new(GateState::default()),
            changed: Condvar::new(),
        }
    }

    /// Take a permit: at once if one is free and nobody waits, else
    /// after every earlier waiter, giving up at `expires`.
    fn admit(&self, expires: Instant) -> Result<Permit<'_>, Refused> {
        let mut state = self.state.lock().expect("gate lock poisoned");
        if state.running < self.permits && state.waiting.is_empty() {
            state.running += 1;
            return Ok(Permit(self));
        }
        if state.waiting.len() >= self.capacity {
            return Err(Refused::QueueFull);
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.waiting.push_back(ticket);
        loop {
            let now = Instant::now();
            if now >= expires {
                state.waiting.retain(|&t| t != ticket);
                drop(state);
                // The waiter behind this one may now be first in line
                // for a free permit.
                self.changed.notify_all();
                return Err(Refused::Expired);
            }
            if state.running < self.permits && state.waiting.front() == Some(&ticket) {
                state.waiting.pop_front();
                state.running += 1;
                drop(state);
                // A second free permit is now the next waiter's.
                self.changed.notify_all();
                return Ok(Permit(self));
            }
            state = self
                .changed
                .wait_timeout(state, expires - now)
                .expect("gate lock poisoned")
                .0;
        }
    }

    /// Estimates running and estimates waiting, right now.
    fn load(&self) -> (usize, usize) {
        let state = self.state.lock().expect("gate lock poisoned");
        (state.running, state.waiting.len())
    }
}

/// A held permit. Dropping it, however the estimate ended, frees the
/// permit for the oldest waiter.
struct Permit<'a>(&'a Gate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // Only the gate's own bookkeeping runs under its lock, and every
        // step of it leaves the state valid, so a poisoned lock is safe
        // to take over; `Drop` must not panic.
        let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
        state.running -= 1;
        drop(state);
        self.0.changed.notify_all();
    }
}

struct ServerState {
    config: ServerConfig,
    registry: DynamicRegistry,
    metrics: Metrics,
    gate: Gate,
    /// One profile cache per scenario name — never shared across
    /// scenarios, because `DbTag`s are only unambiguous within one.
    caches: Mutex<BTreeMap<String, Arc<ProfileCache>>>,
    /// Set when shutdown starts: the acceptor exits and new estimates
    /// answer `503`.
    shutting_down: AtomicBool,
    active_connections: AtomicUsize,
    /// Set by `POST /shutdown` (when allowed) or
    /// [`ServerHandle::request_shutdown`]; the binary blocks on it.
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
}

impl ServerState {
    fn cache_for(&self, scenario: &str) -> Arc<ProfileCache> {
        // Uploaded scenarios retain the mergeable partial state behind
        // each profile so a later extension upload can absorb just its
        // appended rows; static scenarios never grow, so their caches
        // skip the extra memory.
        let retain = !self.registry.is_static(scenario);
        let mut caches = self.caches.lock().expect("cache map poisoned");
        Arc::clone(caches.entry(scenario.to_owned()).or_insert_with(|| {
            let cache = match self.config.profile_cache_capacity {
                Some(cap) => ProfileCache::bounded(cap),
                None => ProfileCache::new(),
            };
            Arc::new(if retain { cache.retaining_partials() } else { cache })
        }))
    }

    /// Drop a scenario's profile cache (after eviction or deletion) so
    /// its profiles stop counting against memory.
    fn drop_cache(&self, scenario: &str) {
        self.caches
            .lock()
            .expect("cache map poisoned")
            .remove(scenario);
    }

    fn sample(&self) -> Sampled {
        let caches = self.caches.lock().expect("cache map poisoned");
        let (in_flight, queue_depth) = self.gate.load();
        let mut sampled = Sampled {
            queue_depth,
            queue_capacity: self.gate.capacity,
            in_flight,
            workers: self.gate.permits,
            ingest_resident_bytes: self.registry.resident_bytes() as u64,
            ingest_budget_bytes: self.registry.budget() as u64,
            scenarios_static: self.registry.static_len(),
            scenarios_uploaded: self.registry.uploaded_len(),
            ..Sampled::default()
        };
        for cache in caches.values() {
            sampled.cache_entries += cache.len();
            sampled.cache_hits += cache.hits();
            sampled.cache_misses += cache.misses();
            sampled.cache_evictions += cache.evictions();
        }
        sampled
    }

    fn request_shutdown(&self) {
        let mut requested = self.shutdown_requested.lock().expect("shutdown poisoned");
        *requested = true;
        drop(requested);
        self.shutdown_cv.notify_all();
    }
}

/// The server constructor. [`Server::start`] returns once the listener
/// is bound and accepting.
pub struct Server;

impl Server {
    /// Bind `config.addr`, spawn the acceptor, and return a handle for
    /// address discovery and shutdown.
    pub fn start(config: ServerConfig, registry: ScenarioRegistry) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            gate: Gate::new(config.workers.mode().threads(), config.queue_capacity),
            registry: DynamicRegistry::new(registry, config.ingest_budget),
            config,
            metrics: Metrics::new(),
            caches: Mutex::new(BTreeMap::new()),
            shutting_down: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
        });
        let acceptor_state = Arc::clone(&state);
        let acceptor = std::thread::Builder::new()
            .name("efes-acceptor".to_owned())
            .spawn(move || accept_loop(&listener, &acceptor_state))?;
        Ok(ServerHandle {
            addr,
            state,
            acceptor: Some(acceptor),
        })
    }
}

/// A handle to a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry (for tests and in-process clients).
    pub fn metrics(&self) -> &Metrics {
        &self.state.metrics
    }

    /// Render the metrics exposition text, exactly as `GET /metrics`
    /// would.
    pub fn scrape(&self) -> String {
        self.state.metrics.render(&self.state.sample())
    }

    /// Ask for shutdown without performing it — wakes
    /// [`wait_for_shutdown_request`](Self::wait_for_shutdown_request).
    pub fn request_shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Block until someone requests shutdown (`POST /shutdown` when
    /// enabled, or [`request_shutdown`](Self::request_shutdown)).
    pub fn wait_for_shutdown_request(&self) {
        let mut requested = self
            .state
            .shutdown_requested
            .lock()
            .expect("shutdown poisoned");
        while !*requested {
            requested = self
                .state
                .shutdown_cv
                .wait(requested)
                .expect("shutdown poisoned");
        }
    }

    /// Graceful shutdown: stop accepting, then let every accepted
    /// connection finish, estimates waiting for a permit included.
    /// Returns when the server is fully stopped.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.state.shutting_down.store(true, Ordering::Release);
        self.state.request_shutdown();
        // The acceptor blocks in accept(); poke it with a throwaway
        // connection so it observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        let _ = acceptor.join();
        // In-flight connections finish on their own: each runs or waits
        // for its estimate under a deadline. Cap the drain defensively
        // anyway.
        let drain_cap = self.state.config.max_deadline
            + self.state.config.io_timeout
            + self.state.config.io_timeout
            + Duration::from_secs(5);
        let drain_start = Instant::now();
        while self.state.active_connections.load(Ordering::Acquire) > 0
            && drain_start.elapsed() < drain_cap
        {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Decrements the connection gauge when a handler thread exits, however
/// it exits.
struct ConnectionGuard(Arc<ServerState>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.active_connections.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if state.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                // Transient accept failure (e.g. fd exhaustion): back
                // off briefly instead of spinning.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if state.shutting_down.load(Ordering::Acquire) {
            return;
        }
        let active = state.active_connections.fetch_add(1, Ordering::AcqRel) + 1;
        let guard = ConnectionGuard(Arc::clone(state));
        if active > state.config.max_connections {
            let _ = stream.set_write_timeout(Some(state.config.io_timeout));
            let mut stream = stream;
            let _ = http::write_response(
                &mut stream,
                &Response::error(503, "too many connections").with_header("retry-after", "1"),
            );
            drop(guard);
            continue;
        }
        let conn_state = Arc::clone(state);
        let spawned = std::thread::Builder::new()
            .name("efes-conn".to_owned())
            .spawn(move || {
                let _guard = guard;
                handle_connection(&conn_state, stream);
            });
        if spawned.is_err() {
            // Could not spawn — the guard travelled into the failed
            // closure and already decremented; nothing else to do.
            continue;
        }
    }
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(state.config.io_timeout));
    let _ = stream.set_write_timeout(Some(state.config.io_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    let response = match http::read_request(&mut reader, &state.config.limits) {
        // Unwind boundary: a panic while routing (real or injected via
        // `EFES_FAULTS`) answers `500` on this connection and leaves
        // the server untouched, instead of silently dropping the
        // socket with the handler thread.
        Ok(request) => match catch_unwind(AssertUnwindSafe(|| route(state, &request))) {
            Ok(response) => response,
            Err(payload) => {
                state
                    .metrics
                    .panics_recovered
                    .fetch_add(1, Ordering::Relaxed);
                Response::error(
                    500,
                    &format!("internal panic: {}", panic_message(payload.as_ref())),
                )
            }
        },
        Err(ParseError::BadRequest(message)) => {
            state.metrics.count_request(Endpoint::Other);
            state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            Response::error(400, &message)
        }
        Err(ParseError::TooLarge(message)) => {
            state.metrics.count_request(Endpoint::Other);
            state.metrics.too_large.fetch_add(1, Ordering::Relaxed);
            Response::error(413, &message)
        }
        Err(ParseError::ConnectionClosed) => return,
        Err(ParseError::Io(e)) => {
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                state.metrics.count_request(Endpoint::Other);
                Response::error(408, "timed out reading request")
            } else {
                return;
            }
        }
    };
    let _ = http::write_response(&mut stream, &response);
}

fn route(state: &Arc<ServerState>, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            state.metrics.count_request(Endpoint::Healthz);
            Response::json(200, &b"{\"status\":\"ok\"}"[..])
        }
        ("GET", "/scenarios") => {
            state.metrics.count_request(Endpoint::Scenarios);
            match serde_json::to_string(&state.registry.infos()) {
                Ok(body) => Response::json(200, body.into_bytes()),
                Err(e) => {
                    state.metrics.estimate_errors.fetch_add(1, Ordering::Relaxed);
                    Response::error(500, &format!("serialising scenario list: {e}"))
                }
            }
        }
        ("GET", "/metrics") => {
            state.metrics.count_request(Endpoint::Metrics);
            Response::text(200, state.metrics.render(&state.sample()).into_bytes())
        }
        ("POST", "/estimate") => {
            state.metrics.count_request(Endpoint::Estimate);
            handle_estimate(state, request)
        }
        ("POST", "/match") => {
            state.metrics.count_request(Endpoint::Match);
            handle_match(state, request)
        }
        ("POST", "/scenarios") => {
            state.metrics.count_request(Endpoint::Ingest);
            handle_upload(state, request)
        }
        ("DELETE", path) if path.strip_prefix("/scenarios/").is_some_and(|n| !n.is_empty()) => {
            state.metrics.count_request(Endpoint::Ingest);
            handle_delete(state, &request.path["/scenarios/".len()..])
        }
        ("POST", "/shutdown") if state.config.allow_remote_shutdown => {
            state.metrics.count_request(Endpoint::Other);
            state.request_shutdown();
            Response::json(200, &b"{\"status\":\"shutting down\"}"[..])
        }
        (_, "/healthz" | "/scenarios" | "/metrics" | "/estimate" | "/match") => {
            state.metrics.count_request(Endpoint::Other);
            state.metrics.not_found.fetch_add(1, Ordering::Relaxed);
            Response::error(405, &format!("{} not allowed on {}", request.method, request.path))
        }
        (_, path) if path.starts_with("/scenarios/") => {
            state.metrics.count_request(Endpoint::Other);
            state.metrics.not_found.fetch_add(1, Ordering::Relaxed);
            Response::error(405, &format!("{} not allowed on {}", request.method, request.path))
        }
        _ => {
            state.metrics.count_request(Endpoint::Other);
            state.metrics.not_found.fetch_add(1, Ordering::Relaxed);
            Response::error(404, &format!("no such endpoint {:?}", request.path))
        }
    }
}

fn handle_estimate(state: &Arc<ServerState>, request: &Request) -> Response {
    if state.shutting_down.load(Ordering::Acquire) {
        return Response::error(503, "server is shutting down");
    }
    let Ok(body) = std::str::from_utf8(&request.body) else {
        state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
        return Response::error(400, "request body is not valid UTF-8");
    };
    let estimate_request: EstimateRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => {
            state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            return Response::error(400, &format!("invalid estimate request: {e}"));
        }
    };
    let Some(scenario) = state.registry.get(&estimate_request.scenario) else {
        state.metrics.not_found.fetch_add(1, Ordering::Relaxed);
        return Response::error(
            404,
            &format!("unknown scenario {:?}", estimate_request.scenario),
        );
    };
    let deadline = estimate_request
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(state.config.default_deadline)
        .min(state.config.max_deadline);

    let cache = state.cache_for(&estimate_request.scenario);
    // Waiting for a permit counts against the deadline: the run
    // observes the same instant the wait gives up at, so an estimate
    // admitted with no budget left aborts at its first checkpoint.
    let started = Instant::now();
    let expires = started + deadline;
    let outcome = {
        let _permit = match state.gate.admit(expires) {
            Ok(permit) => permit,
            Err(Refused::QueueFull) => {
                state
                    .metrics
                    .rejected_queue_full
                    .fetch_add(1, Ordering::Relaxed);
                return Response::error(429, "estimation queue is full")
                    .with_header("retry-after", "1");
            }
            Err(Refused::Expired) => {
                state
                    .metrics
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                state.metrics.jobs_abandoned.fetch_add(1, Ordering::Relaxed);
                return Response::error(
                    503,
                    &format!("deadline of {} ms expired", deadline.as_millis()),
                );
            }
        };
        let token = CancellationToken::new();
        let run = RunContext::new(token.clone(), Some(expires));
        catch_unwind(AssertUnwindSafe(|| {
            if fault::fire("serve.estimate.job", Some(&token)) {
                return Err(ModuleError::PlanningFailed(
                    "injected fault: estimation allocation cap exhausted".to_owned(),
                ));
            }
            let mut config = EstimationConfig::for_quality(estimate_request.quality);
            config.execution = state.config.estimation;
            let estimator = Estimator::with_selected_modules(config, estimate_request.modules);
            estimator.estimate_with_cache_ctx(&scenario, cache, run)
        }))
    };
    match outcome {
        Err(payload) => {
            state
                .metrics
                .panics_recovered
                .fetch_add(1, Ordering::Relaxed);
            state
                .metrics
                .estimate_errors
                .fetch_add(1, Ordering::Relaxed);
            Response::error(
                500,
                &format!(
                    "estimation job panicked: {}",
                    panic_message(payload.as_ref())
                ),
            )
        }
        Ok(Ok(estimate)) => {
            for stage in &estimate.timings.stages {
                state.metrics.observe_stage(&stage.stage, stage.millis);
            }
            state.metrics.estimates_ok.fetch_add(1, Ordering::Relaxed);
            state
                .metrics
                .observe_request_latency(started.elapsed().as_secs_f64() * 1e3);
            let response = EstimateResponse::from_estimate(&estimate, &estimate_request);
            match serde_json::to_string(&response) {
                Ok(body) => Response::json(200, body.into_bytes()),
                Err(e) => {
                    state
                        .metrics
                        .estimate_errors
                        .fetch_add(1, Ordering::Relaxed);
                    Response::error(500, &format!("serialising estimate: {e}"))
                }
            }
        }
        // The run aborted cooperatively: its deadline passed, or its
        // token was cancelled (fault injection). The caller stopped
        // wanting the answer; that is shed load, not a failure.
        Ok(Err(ModuleError::Cancelled(stage))) => {
            state.metrics.count_cancelled_stage(&stage);
            if Instant::now() >= expires {
                state
                    .metrics
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                Response::error(
                    503,
                    &format!(
                        "deadline of {} ms expired (cancelled in stage {stage})",
                        deadline.as_millis()
                    ),
                )
            } else {
                Response::error(503, &format!("estimation cancelled in stage {stage}"))
            }
        }
        Ok(Err(e)) => {
            state
                .metrics
                .estimate_errors
                .fetch_add(1, Ordering::Relaxed);
            Response::error(500, &format!("estimation failed: {e}"))
        }
    }
}

/// A schema-match request: run the combined matcher over one source of
/// a registered scenario. Wire format is a JSON object; only
/// `"scenario"` is required — `"source"` (index into the scenario's
/// sources) defaults to `0`.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchRequest {
    /// Name of a registered scenario.
    pub scenario: String,
    /// Which source database to match against the target.
    pub source: usize,
}

impl Serialize for MatchRequest {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            (
                Content::Str("scenario".into()),
                Content::Str(self.scenario.clone()),
            ),
            (Content::Str("source".into()), self.source.to_content()),
        ])
    }
}

impl Deserialize for MatchRequest {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let map = content
            .as_map()
            .ok_or_else(|| DeError::expected("JSON object for `MatchRequest`"))?;
        let scenario = match content_get(map, "scenario") {
            Some(v) => String::from_content(v)?,
            None => return Err(DeError::missing_field("MatchRequest", "scenario")),
        };
        let mut request = MatchRequest {
            scenario,
            source: 0,
        };
        if let Some(v) = content_get(map, "source") {
            request.source = usize::from_content(v)?;
        }
        Ok(request)
    }
}

/// One proposed attribute correspondence on the wire, by name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchEntry {
    /// Source table name.
    pub source_table: String,
    /// Source attribute name.
    pub source_attr: String,
    /// Target table name.
    pub target_table: String,
    /// Target attribute name.
    pub target_attr: String,
    /// Combined similarity score.
    pub score: f64,
}

/// The `POST /match` response: the accepted 1:1 correspondences plus
/// how much of the pair grid the candidate filter pruned.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchResponse {
    /// The scenario that was matched.
    pub scenario: String,
    /// Index of the matched source database.
    pub source: usize,
    /// Size of the full source×target attribute grid.
    pub pairs_total: u64,
    /// Pairs skipped by the candidate filter.
    pub pairs_pruned: u64,
    /// Accepted correspondences, best first.
    pub matches: Vec<MatchEntry>,
}

/// `POST /match` — runs without a permit: the matcher is orders of
/// magnitude cheaper than an estimate (no instance profiling beyond the
/// named source/target columns).
fn handle_match(state: &Arc<ServerState>, request: &Request) -> Response {
    if state.shutting_down.load(Ordering::Acquire) {
        return Response::error(503, "server is shutting down");
    }
    let Ok(body) = std::str::from_utf8(&request.body) else {
        state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
        return Response::error(400, "request body is not valid UTF-8");
    };
    let match_request: MatchRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => {
            state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            return Response::error(400, &format!("invalid match request: {e}"));
        }
    };
    let Some(scenario) = state.registry.get(&match_request.scenario) else {
        state.metrics.not_found.fetch_add(1, Ordering::Relaxed);
        return Response::error(
            404,
            &format!("unknown scenario {:?}", match_request.scenario),
        );
    };
    let Some(source) = scenario.sources.get(match_request.source) else {
        state.metrics.not_found.fetch_add(1, Ordering::Relaxed);
        return Response::error(
            404,
            &format!(
                "scenario {:?} has {} sources, no index {}",
                match_request.scenario,
                scenario.sources.len(),
                match_request.source
            ),
        );
    };

    let started = Instant::now();
    // A fresh cache per request: the matcher keys its source columns as
    // `DbTag(0)` whatever the source index, so the scenario's shared
    // estimate cache (keyed by real source indices) must not be mixed
    // in.
    let matcher = CombinedMatcher::new(MatcherConfig::default());
    let (proposed, stats) = matcher.propose_attribute_matches_stats(
        source,
        &scenario.target,
        &ProfileCache::new(),
        state.config.estimation.mode(),
    );
    state
        .metrics
        .observe_stage("matching", started.elapsed().as_secs_f64() * 1e3);

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
    let response = MatchResponse {
        scenario: match_request.scenario,
        source: match_request.source,
        pairs_total: stats.pairs_total as u64,
        pairs_pruned: stats.pairs_pruned as u64,
        matches,
    };
    match serde_json::to_string(&response) {
        Ok(body) => {
            state.metrics.matches_ok.fetch_add(1, Ordering::Relaxed);
            Response::json(200, body.into_bytes())
        }
        Err(e) => {
            state.metrics.estimate_errors.fetch_add(1, Ordering::Relaxed);
            Response::error(500, &format!("serialising match result: {e}"))
        }
    }
}

/// Rebuild an extended scenario's profile cache from the partial states
/// retained by the previous version's cache: unchanged tables re-seed
/// their profiles for free, grown tables absorb only the appended rows
/// and finalize — bit-identical to a cold re-profile, because
/// accumulating consecutive row ranges equals one cold build. A text
/// column lends its dictionary as the numbering; any other grown column
/// is numbered again once.
fn refresh_extended_cache(state: &Arc<ServerState>, name: &str, growth: &[TableGrowth]) {
    let Some(scenario) = state.registry.get(name) else {
        return;
    };
    let old = state
        .caches
        .lock()
        .expect("cache map poisoned")
        .remove(name);
    let Some(old) = old else {
        // Never estimated: nothing to carry over, the next estimate
        // profiles the extended data cold.
        return;
    };
    let fresh = state.cache_for(name);
    let run = RunContext::unbounded();
    // Dropping the old cache leaves the snapshot as the only owner of
    // each partial, unless an in-flight estimate still holds the cache.
    let partials = old.snapshot_partials();
    drop(old);
    for (key, profile, partial) in partials {
        let (source, db) = if key.db == DbTag::TARGET {
            (None, &scenario.target)
        } else {
            let i = key.db.0 as usize;
            match scenario.sources.get(i) {
                Some(db) => (Some(i), db),
                None => continue,
            }
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
            // The table did not grow: the old profile is the new one.
            fresh.seed(key, profile, Some(partial));
            continue;
        }
        let Some(col) = db.instance.table(key.table).column_store(key.attr) else {
            continue;
        };
        // Grown in place when it is ours alone; copied only while the
        // old cache is still shared.
        let mut grown = Arc::try_unwrap(partial).unwrap_or_else(|p| (*p).clone());
        let ck = run.checkpoint();
        if grown
            .accumulate_range(col, g.old_rows, g.new_rows, &ck)
            .is_err()
        {
            continue;
        }
        let refreshed = grown.finalize();
        fresh.seed(key, Arc::new(refreshed), Some(Arc::new(grown)));
        state.metrics.profile_deltas.fetch_add(1, Ordering::Relaxed);
        state
            .metrics
            .profile_delta_rows
            .fetch_add((g.new_rows - g.old_rows) as u64, Ordering::Relaxed);
    }
}

/// The `POST /scenarios` response: what the registry did with the
/// upload. `status` is `"created"` (`201`), `"deduplicated"` (`200`) or
/// `"extended"` (`200`, a row-wise extension replaced the entry in
/// place); on deduplication `scenario` names the *existing* entry
/// estimates should be addressed to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UploadResponse {
    /// The name the scenario is resolvable under.
    pub scenario: String,
    /// `"created"`, `"deduplicated"` or `"extended"`.
    pub status: String,
    /// Approximate resident bytes charged against the ingest budget
    /// (the existing entry's charge when deduplicated).
    pub resident_bytes: u64,
    /// Uploaded scenarios evicted to make room, oldest first.
    pub evicted: Vec<String>,
}

/// The `DELETE /scenarios/{name}` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeleteResponse {
    /// The deleted scenario.
    pub scenario: String,
    /// Approximate bytes returned to the ingest budget.
    pub freed_bytes: u64,
}

/// `POST /scenarios` — runs without a permit, like `/match`: parsing
/// streams into typed columns without profiling anything.
fn handle_upload(state: &Arc<ServerState>, request: &Request) -> Response {
    if state.shutting_down.load(Ordering::Acquire) {
        return Response::error(503, "server is shutting down");
    }
    let reject = |status: u16, message: &str| {
        state
            .metrics
            .ingests_rejected
            .fetch_add(1, Ordering::Relaxed);
        Response::error(status, message)
    };
    // Fault site: `alloc` mode reports the ingest budget as exhausted
    // (the client-visible shape of a real over-budget upload); `panic`
    // is caught by the connection handler's unwind boundary.
    if fault::fire("ingest.upload", None) {
        state.metrics.too_large.fetch_add(1, Ordering::Relaxed);
        return reject(413, "injected fault: ingest budget exhausted");
    }
    let upload = match ScenarioUpload::parse(&request.body) {
        Ok(upload) => upload,
        Err(e) => {
            state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            return reject(400, &e.to_string());
        }
    };
    let (name, description) = (upload.name.clone(), upload.description.clone());
    let scenario = match upload.into_scenario() {
        Ok(scenario) => scenario,
        Err(e) => {
            state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            return reject(400, &e.to_string());
        }
    };
    match state.registry.insert(&name, &description, scenario) {
        Ok(InsertOutcome::Inserted { bytes, evicted }) => {
            state.metrics.ingests_ok.fetch_add(1, Ordering::Relaxed);
            state
                .metrics
                .ingests_evicted
                .fetch_add(evicted.len() as u64, Ordering::Relaxed);
            for gone in &evicted {
                state.drop_cache(gone);
            }
            let response = UploadResponse {
                scenario: name,
                status: "created".to_owned(),
                resident_bytes: bytes as u64,
                evicted,
            };
            match serde_json::to_string(&response) {
                Ok(body) => Response::json(201, body.into_bytes()),
                Err(e) => Response::error(500, &format!("serialising upload result: {e}")),
            }
        }
        Ok(InsertOutcome::Extended {
            bytes,
            evicted,
            growth,
        }) => {
            state.metrics.ingests_extended.fetch_add(1, Ordering::Relaxed);
            state
                .metrics
                .ingests_evicted
                .fetch_add(evicted.len() as u64, Ordering::Relaxed);
            for gone in &evicted {
                state.drop_cache(gone);
            }
            refresh_extended_cache(state, &name, &growth);
            let response = UploadResponse {
                scenario: name,
                status: "extended".to_owned(),
                resident_bytes: bytes as u64,
                evicted,
            };
            match serde_json::to_string(&response) {
                Ok(body) => Response::json(200, body.into_bytes()),
                Err(e) => Response::error(500, &format!("serialising upload result: {e}")),
            }
        }
        Ok(InsertOutcome::Deduplicated { existing }) => {
            state
                .metrics
                .ingests_deduplicated
                .fetch_add(1, Ordering::Relaxed);
            let resident = state
                .registry
                .infos()
                .into_iter()
                .find(|i| i.name == existing)
                .and_then(|i| i.resident_bytes)
                .unwrap_or(0);
            let response = UploadResponse {
                scenario: existing,
                status: "deduplicated".to_owned(),
                resident_bytes: resident,
                evicted: Vec::new(),
            };
            match serde_json::to_string(&response) {
                Ok(body) => Response::json(200, body.into_bytes()),
                Err(e) => Response::error(500, &format!("serialising upload result: {e}")),
            }
        }
        Err(e @ InsertError::NameTaken(_)) => reject(409, &e.to_string()),
        Err(e @ InsertError::OverBudget { .. }) => {
            state.metrics.too_large.fetch_add(1, Ordering::Relaxed);
            reject(413, &e.to_string())
        }
        Err(e @ InsertError::InvalidName(_)) => {
            state.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
            reject(400, &e.to_string())
        }
    }
}

/// `DELETE /scenarios/{name}` — removes an uploaded scenario and its
/// profile cache. Static scenarios answer `403`.
fn handle_delete(state: &Arc<ServerState>, name: &str) -> Response {
    match state.registry.remove(name) {
        Ok(freed) => {
            state.metrics.ingests_deleted.fetch_add(1, Ordering::Relaxed);
            state.drop_cache(name);
            let response = DeleteResponse {
                scenario: name.to_owned(),
                freed_bytes: freed as u64,
            };
            match serde_json::to_string(&response) {
                Ok(body) => Response::json(200, body.into_bytes()),
                Err(e) => Response::error(500, &format!("serialising delete result: {e}")),
            }
        }
        Err(RemoveError::NotFound) => {
            state.metrics.not_found.fetch_add(1, Ordering::Relaxed);
            Response::error(404, &format!("no uploaded scenario {name:?}"))
        }
        Err(RemoveError::Static) => {
            Response::error(403, &format!("scenario {name:?} is compiled in and cannot be deleted"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// Spin until the gate reports `(running, waiting)`; each test
    /// drives the gate into that state itself, so this only waits for
    /// the spawned threads to get there.
    fn wait_for_load(gate: &Gate, load: (usize, usize)) {
        let start = Instant::now();
        while gate.load() != load {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "gate stuck at {:?}, expected {load:?}",
                gate.load()
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn no_more_than_permits_estimates_run_at_once() {
        let gate = Gate::new(2, 8);
        let start = Barrier::new(8);
        let running = AtomicUsize::new(0);
        let most = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    let _permit = gate.admit(far()).expect("eight fit: two run, six wait");
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    most.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(most.load(Ordering::SeqCst) <= 2, "{most:?} ran at once");
        assert_eq!(gate.load(), (0, 0));
    }

    #[test]
    fn the_waiter_beyond_capacity_is_refused() {
        let gate = Gate::new(1, 1);
        let held = gate.admit(far()).expect("a free permit");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.admit(far()).map(drop));
            wait_for_load(&gate, (1, 1));
            assert_eq!(gate.admit(far()).err(), Some(Refused::QueueFull));
            drop(held);
            assert_eq!(waiter.join().expect("waiter thread"), Ok(()));
        });
        assert_eq!(gate.load(), (0, 0));
    }

    #[test]
    fn waiters_are_admitted_oldest_first() {
        let gate = Gate::new(1, 4);
        let order = Mutex::new(Vec::new());
        let held = gate.admit(far()).expect("a free permit");
        std::thread::scope(|scope| {
            for i in 0..4 {
                let (gate, order) = (&gate, &order);
                scope.spawn(move || {
                    let _permit = gate.admit(far()).expect("four fit in the queue");
                    order.lock().expect("order lock").push(i);
                });
                // Queue the waiters one by one, so arrival order is i.
                wait_for_load(gate, (1, i + 1));
            }
            drop(held);
        });
        assert_eq!(*order.lock().expect("order lock"), vec![0, 1, 2, 3]);
    }

    #[test]
    fn a_waiter_leaves_at_its_deadline() {
        let gate = Gate::new(1, 2);
        let held = gate.admit(far()).expect("a free permit");
        std::thread::scope(|scope| {
            let patient = scope.spawn(|| gate.admit(far()).map(drop));
            wait_for_load(&gate, (1, 1));
            let asked = Instant::now();
            let wait = Duration::from_millis(20);
            assert_eq!(gate.admit(asked + wait).err(), Some(Refused::Expired));
            assert!(asked.elapsed() >= wait);
            // The expired waiter left; the one ahead of it still waits.
            assert_eq!(gate.load(), (1, 1));
            drop(held);
            assert_eq!(patient.join().expect("patient thread"), Ok(()));
        });
        assert_eq!(gate.load(), (0, 0));
    }

    #[test]
    fn a_permit_is_released_when_its_holder_panics() {
        let gate = Gate::new(1, 1);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _permit = gate.admit(far()).expect("a free permit");
            panic!("estimate panicked");
        }));
        assert!(outcome.is_err());
        assert_eq!(gate.load(), (0, 0));
        assert!(
            gate.admit(Instant::now()).is_ok(),
            "the permit is free again"
        );
    }
}
