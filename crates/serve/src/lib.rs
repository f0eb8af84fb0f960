//! # efes-serve
//!
//! EFES as a long-running service: the estimation pipeline behind a
//! minimal, dependency-free HTTP/1.1 server.
//!
//! The paper frames effort estimation as something you consult
//! repeatedly while negotiating an integration project — which makes it
//! a service workload, not a batch run. This crate serves the library
//! pipeline over `std::net` only (no async runtime, no HTTP dependency;
//! the vendored-workspace rule applies to the server too):
//!
//! * `POST /estimate` — price a registered scenario by name, with
//!   per-request quality, module selection and deadline
//!   ([`efes::EstimateRequest`] / [`efes::EstimateResponse`]);
//! * `POST /match` — run the candidate-pruned combined matcher over one
//!   source of a registered scenario and return the accepted attribute
//!   correspondences by name ([`server::MatchRequest`] /
//!   [`server::MatchResponse`]);
//! * `POST /scenarios` — upload a scenario (JSON document with CSV or
//!   JSON-rows table payloads, parsed straight into typed columns by
//!   `efes-ingest`); uploads land in a [`efes_ingest::DynamicRegistry`]
//!   with a memory budget, content-fingerprint deduplication and LRU
//!   eviction of idle uploads ([`server::UploadResponse`]);
//! * `DELETE /scenarios/{name}` — drop an uploaded scenario and its
//!   profile cache (`403` for compiled-in scenarios);
//! * `GET /scenarios` — list what the registry serves, static and
//!   uploaded alike, with provenance and cache state;
//! * `GET /healthz` — liveness;
//! * `GET /metrics` — Prometheus text: request counters, per-stage
//!   latency histograms fed from the pipeline's own timings, profile-
//!   cache hit/miss/eviction counters, permits in use and waiting;
//! * `POST /shutdown` — graceful stop (opt-in, for CI and supervisors).
//!
//! Each estimate runs on its own connection thread once it holds one of
//! `--workers` permits. Overload never queues unboundedly: at most
//! `--queue-capacity` estimates wait for a permit, oldest first (beyond
//! that → `429` + `Retry-After`), connections are capped (`503`), a
//! deadline answers `503` — at once for a waiting estimate, at the next
//! cancellation checkpoint for a running one — and shutdown drains
//! accepted work. Estimates returned over the wire are byte-identical
//! to library calls — the server adds scheduling, never arithmetic.

#![warn(missing_docs)]

pub mod http;
pub mod metrics;
pub mod server;

pub use metrics::{Endpoint, Metrics, Sampled};
pub use server::{
    DeleteResponse, MatchEntry, MatchRequest, MatchResponse, Server, ServerConfig, ServerHandle,
    UploadResponse,
};
