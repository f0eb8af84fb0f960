//! # efes-matching
//!
//! Schema-matching substrate for EFES (*Estimating Data Integration and
//! Cleaning Effort*, EDBT 2015).
//!
//! The paper *assumes* correspondences are given, noting *"they can be
//! automatically discovered with schema matching tools"* (§3.1) and names
//! dropping that assumption as future work (§7), pointing at Melnik's
//! similarity flooding and its accuracy measure. This crate provides that
//! substrate:
//!
//! * [`similarity`] — string similarities (Levenshtein, Jaro-Winkler,
//!   trigram Jaccard) and identifier tokenisation;
//! * [`name`] — a name-based matcher over table/attribute identifiers;
//! * [`instance`] — an instance-based matcher driven by the profiling
//!   statistics (two attributes match when their value distributions fit
//!   each other);
//! * [`combined`] — weighted combination, greedy stable 1:1 assignment,
//!   and emission of [`efes_relational::CorrespondenceSet`]s;
//! * [`flooding`] — a compact similarity-flooding implementation over
//!   schema graphs (Melnik, Garcia-Molina, Rahm, ICDE 2002 — the paper's
//!   \[19\]);
//! * [`accuracy`] — Melnik's match *accuracy*: the fraction of needed
//!   user additions/deletions saved by a proposed match result, which §7
//!   suggests as the bridge from matcher output to mapping-effort
//!   estimates.

#![warn(missing_docs)]

pub mod accuracy;
pub mod combined;
pub mod flooding;
pub mod instance;
pub mod name;
pub mod similarity;

pub use accuracy::{match_accuracy, MatchDiff};
pub use combined::{CombinedMatcher, MatchStats, MatcherConfig, ProposedMatch, PrunePolicy};
pub use flooding::{
    similarity_flooding, similarity_flooding_ctx, similarity_flooding_reference,
    similarity_flooding_with, FloodingConfig,
};
pub use instance::{instance_similarity, instance_similarity_cached, instance_similarity_cached_ctx};
pub use name::{name_similarity, NameIndex};
pub use similarity::{jaro_winkler, levenshtein, tokenize, trigram_jaccard};
