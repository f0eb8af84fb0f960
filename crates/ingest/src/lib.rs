//! # efes-ingest — dynamic scenario ingestion
//!
//! Everything between a `POST /scenarios` request body and a scenario
//! the estimator can price:
//!
//! * [`upload`] — the JSON wire format ([`ScenarioUpload`] and
//!   friends) with a streaming parser that casts each cell to its
//!   declared datatype and appends it straight into a typed
//!   [`Column`](efes_relational::Column), so payloads land in the one
//!   representation every table has — no row-major detour.
//! * [`registry`] — the [`DynamicRegistry`], which layers uploaded
//!   scenarios over the compiled-in
//!   [`ScenarioRegistry`](efes::ScenarioRegistry) behind the single
//!   [`ScenarioProvider`](efes::ScenarioProvider) lookup trait:
//!   per-scenario memory accounting against a byte budget, LRU
//!   eviction of idle uploads (never static entries), and content
//!   fingerprinting so byte-identical re-uploads deduplicate onto one
//!   entry (and therefore one profile cache).
//!
//! `efes-serve` wires these into the HTTP surface; this crate stays
//! transport-free so library users can ingest documents directly.

#![warn(missing_docs)]

pub mod registry;
pub mod upload;

pub use registry::{
    approx_scenario_bytes, budget_from_env, parse_budget, scenario_fingerprint, DynamicRegistry,
    InsertError, InsertOutcome, RemoveError, TableGrowth, DEFAULT_INGEST_BUDGET,
    INGEST_BUDGET_ENV_VAR,
};
pub use upload::{
    AttributeUpload, ConstraintKindUpload, ConstraintUpload, CorrespondenceUpload, DatabaseUpload,
    ScenarioUpload, TableUpload, UploadFormat,
};

/// Why an upload document could not be turned into a scenario. All
/// variants are client errors (the server maps them to `400`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestError {
    message: String,
}

impl IngestError {
    /// An error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        IngestError {
            message: message.into(),
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for IngestError {}
