//! # efes-csg
//!
//! **Cardinality-constrained schema graphs** (CSGs) — the modelling
//! formalism of §4 of *Estimating Data Integration and Cleaning Effort*
//! (Kruse, Papotti, Naumann, EDBT 2015), built in full:
//!
//! * [`cardinality`] — cardinality sets `κ: P → 2^ℕ` as normalised unions
//!   of integer intervals, with the inference operators of Lemmas 1–4
//!   (composition, union with `+`/`+̂`, join, collateral);
//! * [`graph`] — CSG nodes (table/attribute), relationships with
//!   prescribed cardinalities in both directions;
//! * [`expr`] — the relationship-construction algebra `∘ ∪ ⋈ ∥` and static
//!   cardinality inference;
//! * [`instance`] — CSG instances `I(Γ) = (I_N, I_P)` and expression
//!   evaluation over them;
//! * [`convert`] — lossless conversion of relational databases into CSGs
//!   (*"any relational database can be turned into a CSG without loss of
//!   information"*);
//! * [`matching`] — matching target relationships to source relationship
//!   expressions as a graph-search problem, with the conciseness order and
//!   the Occam's-razor tie-break;
//! * [`violations`] — the structure conflict detector: classify and count
//!   structural conflicts in source data (Table 3);
//! * [`virtual_instance`] — virtual CSG instances with *actual* vs
//!   *prescribed* cardinalities and cleaning-task side-effect simulation
//!   (Figure 5);
//! * [`nary`] — n-ary uniqueness and composite foreign keys via the
//!   join and collateral operators;
//! * [`planner`] — the structure repair planner: task selection per result
//!   quality (Table 4), ordering, and infinite-cleaning-loop detection;
//! * [`dot`] — Graphviz rendering (regenerates Figure 4).

#![warn(missing_docs)]

pub mod cardinality;
pub mod convert;
pub mod dot;
pub mod expr;
pub mod graph;
pub mod instance;
pub mod matching;
pub mod nary;
pub mod planner;
pub mod violations;
pub mod virtual_instance;

pub use cardinality::Cardinality;
pub use convert::{database_to_csg, database_to_csg_ctx, schema_to_csg};
pub use expr::{DomainWidth, RelExpr};
pub use graph::{Csg, Direction, NodeId, NodeKind, RelId, RelKind, RelRef};
pub use instance::{eval_memo_counters, CsgInstance};
pub use matching::{
    match_relationships, match_relationships_ctx, match_relationships_with, NodeCorrespondences,
    RelationshipMatch,
};
pub use nary::{
    composite_fk_violations, composite_fk_violations_reference, composite_unique_violations,
    composite_unique_violations_reference, fd_violations,
};
pub use planner::{
    plan_repairs, simulate_repairs, PlannedRepair, PlannerError, Quality, StructureTaskKind,
};
pub use violations::{detect_conflicts, detect_conflicts_ctx, ConflictKind, StructuralConflict};
pub use virtual_instance::VirtualCsg;
