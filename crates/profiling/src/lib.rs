//! # efes-profiling
//!
//! Data-profiling substrate for EFES (*Estimating Data Integration and
//! Cleaning Effort*, EDBT 2015).
//!
//! Two roles, mirroring the paper:
//!
//! 1. **Statistics for the value fit detector (§5.1).** For each attribute
//!    we compute the nine statistics the paper lists — fill status,
//!    constancy, text patterns, character histogram, string length, mean,
//!    histogram, value range, top-k values — each with an *importance*
//!    score (how characteristic the statistic is for the target attribute)
//!    and a *fit* value (how well a source attribute's statistic matches),
//!    combined into the importance-weighted overall fit of §5.1.
//!
//! 2. **Schema reverse engineering (§3.1 "completeness").** Constraints
//!    that hold in the data but are not declared — not-null, uniques/key
//!    candidates, inclusion dependencies (foreign-key candidates) and
//!    single-LHS functional dependencies — are discovered by
//!    [`discovery`] and can be merged into a database's constraint set.

#![warn(missing_docs)]

pub mod cache;
pub mod discovery;
mod kernel;
pub mod partial;
pub mod profile;
pub mod stats;

pub use cache::{DbTag, ProfileCache, ProfileKey};
pub use partial::PartialProfile;
pub use discovery::{
    discover_constraints, discover_constraints_with, DiscoveryOptions, InclusionDependency,
};
pub use profile::{AttributeProfile, FitBreakdown, FitComponent};
pub use stats::{
    CharHistogram, Constancy, FillStatus, NumericHistogram, NumericMean, StringLength,
    TextPatterns, TopK, ValueRange,
};
