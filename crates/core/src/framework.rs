//! The estimation-module abstraction (paper §3.2, Figure 3).
//!
//! *"It handles different kinds of integration challenges by accepting a
//! dedicated estimation module to cope with each of them independently.
//! Such modularity makes it easier to revise and refine individual
//! modules and establishes the desired extensibility by plugging new
//! ones."*

use crate::config::EstimationConfig;
use crate::task::Task;
use efes_exec::{ExecutionMode, RunContext};
use efes_profiling::ProfileCache;
use efes_relational::IntegrationScenario;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A metric value inside a finding — keeps complexity reports structured
/// and serialisable without fixing their shape (*"There is no formal
/// definition for such a report; rather, it can be tailored to the
/// specific, needed complexity indicators."*).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// An integer count (violations, repetitions, tables, …).
    Int(u64),
    /// A real-valued score (fit values, ratios).
    Float(f64),
    /// A textual annotation (cardinalities, patterns).
    Text(String),
    /// A boolean flag (e.g. "primary key needed").
    Flag(bool),
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::Int(v) => write!(f, "{v}"),
            MetricValue::Float(v) => write!(f, "{v:.3}"),
            MetricValue::Text(v) => write!(f, "{v}"),
            MetricValue::Flag(v) => write!(f, "{}", if *v { "yes" } else { "no" }),
        }
    }
}

/// One entry of a data complexity report: a concrete, located integration
/// problem (the paper's granularity requirement: *"it is important to
/// know which source and/or target attributes are cause of problems and
/// how"*).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Machine-readable kind, e.g. `structural-conflict`,
    /// `value-heterogeneity`, `mapping-connection`.
    pub kind: String,
    /// Where the problem sits, e.g. `records ← albums` or
    /// `length → duration`.
    pub location: String,
    /// Structured metrics (violation counts, fit values, …).
    pub metrics: BTreeMap<String, MetricValue>,
    /// One-line human-readable description.
    pub note: String,
}

impl Finding {
    /// Create a finding.
    pub fn new(kind: impl Into<String>, location: impl Into<String>, note: impl Into<String>) -> Self {
        Finding {
            kind: kind.into(),
            location: location.into(),
            metrics: BTreeMap::new(),
            note: note.into(),
        }
    }

    /// Attach an integer metric (builder style).
    pub fn with_int(mut self, key: &str, value: u64) -> Self {
        self.metrics.insert(key.to_owned(), MetricValue::Int(value));
        self
    }

    /// Attach a float metric.
    pub fn with_float(mut self, key: &str, value: f64) -> Self {
        self.metrics.insert(key.to_owned(), MetricValue::Float(value));
        self
    }

    /// Attach a text metric.
    pub fn with_text(mut self, key: &str, value: impl Into<String>) -> Self {
        self.metrics
            .insert(key.to_owned(), MetricValue::Text(value.into()));
        self
    }

    /// Attach a boolean metric.
    pub fn with_flag(mut self, key: &str, value: bool) -> Self {
        self.metrics.insert(key.to_owned(), MetricValue::Flag(value));
        self
    }

    /// Read an integer metric.
    pub fn int(&self, key: &str) -> Option<u64> {
        match self.metrics.get(key) {
            Some(MetricValue::Int(v)) => Some(*v),
            _ => None,
        }
    }

    /// Read a float metric.
    pub fn float(&self, key: &str) -> Option<f64> {
        match self.metrics.get(key) {
            Some(MetricValue::Float(v)) => Some(*v),
            _ => None,
        }
    }

    /// Read a flag metric.
    pub fn flag(&self, key: &str) -> Option<bool> {
        match self.metrics.get(key) {
            Some(MetricValue::Flag(v)) => Some(*v),
            _ => None,
        }
    }

    /// Read a text metric.
    pub fn text(&self, key: &str) -> Option<&str> {
        match self.metrics.get(key) {
            Some(MetricValue::Text(v)) => Some(v),
            _ => None,
        }
    }
}

/// The data complexity report of one module for one scenario.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModuleReport {
    /// The producing module's name.
    pub module: String,
    /// The findings, in deterministic order.
    pub findings: Vec<Finding>,
}

impl ModuleReport {
    /// An empty report for a module.
    pub fn new(module: impl Into<String>) -> Self {
        ModuleReport {
            module: module.into(),
            findings: Vec::new(),
        }
    }

    /// Append a finding.
    pub fn push(&mut self, finding: Finding) {
        self.findings.push(finding);
    }

    /// Findings of one kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Finding> {
        self.findings.iter().filter(move |f| f.kind == kind)
    }
}

/// Errors raised by estimation modules.
#[derive(Debug, Clone)]
pub enum ModuleError {
    /// The scenario is malformed for this module.
    InvalidScenario(String),
    /// The module's planner could not produce a consistent plan (e.g. an
    /// infinite cleaning loop, §4.2).
    PlanningFailed(String),
    /// The run was cancelled (deadline expiry or caller abandonment)
    /// while this stage was executing; the payload names the stage. Not
    /// a failure of the scenario — the caller stopped wanting the
    /// answer, and the stage aborted at its next checkpoint.
    Cancelled(String),
}

impl ModuleError {
    /// A [`ModuleError::Cancelled`] attributed to `stage`.
    pub fn cancelled(stage: impl Into<String>) -> Self {
        ModuleError::Cancelled(stage.into())
    }

    /// Whether this error is a cooperative cancellation (as opposed to
    /// a genuine scenario/planning failure).
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ModuleError::Cancelled(_))
    }
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleError::InvalidScenario(m) => write!(f, "invalid scenario: {m}"),
            ModuleError::PlanningFailed(m) => write!(f, "planning failed: {m}"),
            ModuleError::Cancelled(stage) => write!(f, "cancelled in stage {stage}"),
        }
    }
}

impl std::error::Error for ModuleError {}

/// Shared per-run state handed to modules during assessment: the column
/// profile cache (so modules stop recomputing identical statistics) and
/// the execution mode (so modules can fan their inner loops out over the
/// same thread budget the estimator uses).
#[derive(Debug, Clone)]
pub struct AssessContext {
    /// Memoized per-column [`efes_profiling::AttributeProfile`]s, shared
    /// by every module of one estimation run.
    pub cache: Arc<ProfileCache>,
    /// How modules should execute their independent inner units.
    pub mode: ExecutionMode,
    /// Cancellation and deadline scope of the run. Modules poll this at
    /// checkpoints inside long loops and bail with
    /// [`ModuleError::Cancelled`] when it fires; the unbounded default
    /// never fires, so direct callers see no behaviour change.
    pub run: RunContext,
}

impl AssessContext {
    /// A standalone context: fresh cache, sequential execution, no
    /// cancellation. Used when a module's `assess` is called directly
    /// rather than via the estimator.
    pub fn standalone() -> Self {
        AssessContext {
            cache: Arc::new(ProfileCache::new()),
            mode: ExecutionMode::Sequential,
            run: RunContext::unbounded(),
        }
    }

    /// A context with a fresh cache under the given mode.
    pub fn with_mode(mode: ExecutionMode) -> Self {
        AssessContext {
            cache: Arc::new(ProfileCache::new()),
            mode,
            run: RunContext::unbounded(),
        }
    }

    /// Scope this context to the given run (builder style).
    pub fn with_run(mut self, run: RunContext) -> Self {
        self.run = run;
        self
    }

    /// Map a cancellation from `run` into a [`ModuleError::Cancelled`]
    /// attributed to `stage`.
    pub fn check(&self, stage: &str) -> Result<(), ModuleError> {
        self.run.check().map_err(|_| ModuleError::cancelled(stage))
    }
}

/// An estimation module: a *data complexity detector* plus a *task
/// planner* (Figure 3).
///
/// Custom modules implement this trait and are registered with the
/// [`crate::estimate::Estimator`]; the `examples/custom_module.rs`
/// example plugs a duplicate-detection effort module this way.
///
/// `Send + Sync` is required so the estimator can assess modules on
/// worker threads; modules are stateless detectors in practice, so the
/// bound costs implementors nothing.
pub trait EstimationModule: Send + Sync {
    /// Stable module name, used in reports and task attribution.
    fn name(&self) -> &str;

    /// Phase 1 — complexity assessment: extract complexity indicators
    /// from the scenario. Must not depend on execution settings or
    /// expected quality (the paper keeps this phase objective).
    fn assess(&self, scenario: &IntegrationScenario) -> Result<ModuleReport, ModuleError>;

    /// Phase 1, context-aware variant: like [`assess`](Self::assess) but
    /// with access to the run's shared [`AssessContext`]. Modules that
    /// profile columns or fan out inner loops override this; the default
    /// ignores the context and delegates to `assess`, so existing custom
    /// modules keep working unchanged. The report must not depend on
    /// `ctx` — the context only changes *how fast* it is produced.
    fn assess_with(
        &self,
        scenario: &IntegrationScenario,
        ctx: &AssessContext,
    ) -> Result<ModuleReport, ModuleError> {
        let _ = ctx;
        self.assess(scenario)
    }

    /// Phase 2 — task planning: convert the module's own report into
    /// concrete tasks under the given configuration.
    fn plan(
        &self,
        scenario: &IntegrationScenario,
        report: &ModuleReport,
        config: &EstimationConfig,
    ) -> Result<Vec<Task>, ModuleError>;

    /// Phase 2, context-aware variant: like [`plan`](Self::plan) but with
    /// access to the run's [`AssessContext`]; the estimator calls this.
    /// The default ignores the context and delegates to `plan`, and no
    /// built-in module overrides it: each gathers its evidence once, in
    /// assess (where the cancellation checkpoints sit), and plans from
    /// its report alone, which is cheap and reads no data. The plan must
    /// not depend on `ctx`.
    fn plan_with(
        &self,
        scenario: &IntegrationScenario,
        report: &ModuleReport,
        config: &EstimationConfig,
        ctx: &AssessContext,
    ) -> Result<Vec<Task>, ModuleError> {
        let _ = ctx;
        self.plan(scenario, report, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_metrics_round_trip() {
        let f = Finding::new("structural-conflict", "records→artist", "too many artists")
            .with_int("violations", 503)
            .with_float("fit", 0.42)
            .with_flag("primary-key", true)
            .with_text("prescribed", "1");
        assert_eq!(f.int("violations"), Some(503));
        assert_eq!(f.float("fit"), Some(0.42));
        assert_eq!(f.flag("primary-key"), Some(true));
        assert_eq!(f.text("prescribed"), Some("1"));
        assert_eq!(f.int("missing"), None);
        assert_eq!(f.int("fit"), None); // wrong type reads as None
    }

    #[test]
    fn report_filters_by_kind() {
        let mut r = ModuleReport::new("test");
        r.push(Finding::new("a", "x", ""));
        r.push(Finding::new("b", "y", ""));
        r.push(Finding::new("a", "z", ""));
        assert_eq!(r.of_kind("a").count(), 2);
        assert_eq!(r.of_kind("b").count(), 1);
        assert_eq!(r.of_kind("c").count(), 0);
    }

    #[test]
    fn metric_display() {
        assert_eq!(MetricValue::Int(7).to_string(), "7");
        assert_eq!(MetricValue::Flag(false).to_string(), "no");
        assert_eq!(MetricValue::Float(0.5).to_string(), "0.500");
    }
}
