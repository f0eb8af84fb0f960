//! # efes-synth — seeded synthetic integration scenarios
//!
//! A deterministic generator of [`IntegrationScenario`]s at arbitrary
//! scale, together with a machine-readable *ground-truth manifest* of
//! every defect it injected. Two consumers drive the design:
//!
//! * **Scale sweeps** (`bench_scale` in `crates/bench`): the shape knobs
//!   ([`ShapeKnobs`]) scale rows, tables, attributes, correspondence
//!   fan-out, and source count independently, so per-stage scaling
//!   exponents can be fitted against one axis at a time.
//! * **Property tests**: the dirt knobs ([`DirtKnobs`]) are realised as
//!   *exact rounded counts* with recorded row indices — never Bernoulli
//!   coin flips — so a test can re-derive the defect sets from the data
//!   by independent scans and require them to match the manifest
//!   exactly.
//!
//! ## Determinism
//!
//! Everything flows from a single [`rand::rngs::StdRng`] seeded with
//! [`SynthConfig::seed`]; the generator has no ambient randomness (no
//! clocks, no hashing nondeterminism — iteration orders are all over
//! `Vec`s or `BTree` structures). The same configuration therefore
//! produces a byte-identical scenario and manifest, which is what makes
//! committed regression corpora and differential tests meaningful.
//!
//! ## What the estimator can and cannot see
//!
//! The generated *target* prescribes the strong constraints (primary
//! keys, NOT NULL payloads, a `ref` foreign key into the parent table);
//! the *sources* declare almost none of them, so the structure module's
//! conflict detector must consult the data. Two consequences worth
//! knowing when interpreting estimates against the manifest:
//!
//! * **NULLs and duplicate keys are visible.** Sources declare no NOT
//!   NULL and no keys, so the detector infers weak cardinalities,
//!   notices the target prescribes more, and simulates the violation
//!   counts from the instance — which match the manifest's counts.
//! * **Dangling references are invisible.** Child fragments *declare*
//!   their intra-source foreign key (fragment-to-fragment), and the
//!   detector trusts declared source constraints: the inferred
//!   cardinality is subsumed by the prescribed one, so the check is
//!   skipped and the injected dangling rows never surface as conflicts.
//!   They are ground-truth-only dirt — a recorded gap between actual and
//!   detected effort, available to future repair modules (and a good
//!   reason the manifest exists at all).
//!
//! Near-duplicate pairs are likewise not consumed by any current module;
//! they are recorded for the dedup workload the roadmap plans.
//!
//! ## Columnar streaming
//!
//! Fragment data is generated column-wise, each column built by
//! [`efes_relational::Column::from_cells`] and loaded through
//! [`efes_relational::Database::load_columns_by_name`] as the table's
//! storage — no row-major copy is made at any point.

#![warn(missing_docs)]

mod config;
mod generator;
mod manifest;

pub use config::{DirtKnobs, ShapeKnobs, SynthConfig};
pub use generator::{generate, SynthScenario};
pub use manifest::{
    ColumnDirt, DuplicatePair, FkViolation, KeyViolation, PayloadKind, RenameRecord, SourceDirt,
    SynthManifest, TableDirt,
};

// Re-exported so downstream crates (bench, tests) can name the scenario
// type without depending on efes-relational directly.
pub use efes_relational::IntegrationScenario;
