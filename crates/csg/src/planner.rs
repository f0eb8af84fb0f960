//! The structure repair planner (paper §4.2, Tables 4 & 5).
//!
//! *"This procedure of picking a task and simulating its effects is
//! repeated until the virtual CSG instance contains no more violations.
//! [...] doing so allows for the detection of 'infinite cleaning loops',
//! where the execution order of cleaning tasks forms a cycle. In most
//! cases, these cycles are a consequence of contradicting repair tasks.
//! EFES proposes only consistent repair strategies."*
//!
//! ## Scaling
//!
//! Planning itself is schema-bound: the simulation touches one
//! actual/affected pair per target reading per iteration, independent
//! of the row count, and `plan_repairs` takes under a millisecond even
//! at 10⁶ source rows. What scales with the data is the evidence the
//! plan is seeded from — converting the source (`database_to_csg_ctx`)
//! and counting its violations (`detect_conflicts_ctx`). The structure
//! module runs those once per source, in its assess phase; its planner
//! reads the findings back and never converts, matches or detects
//! again. `bench_scale`'s `csg_planning` stage times that assess + plan
//! pair and its `csg_convert` stage the conversion alone; CI gates both
//! exponents at ≤ 1.3. Conversion reads the columns' first-seen
//! distinct codes (DESIGN.md §2i, "column-native instance") and, at
//! about a tenth of what it cost when it hashed every cell, no longer
//! dominates: conversion and detection are each one linear pass, the
//! counting evaluator (`count_eval_ctx`) keeping detection near-linear.

use crate::cardinality::Cardinality;
use crate::convert::CsgConversion;
use crate::graph::{Direction, RelKind, RelRef};
use crate::matching::RelationshipMatch;
use crate::violations::{ConflictKind, StructuralConflict};
use crate::virtual_instance::{AffectedCounts, VirtualCsg, VirtualViolation};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Expected result quality of the integration (paper §3.4: *"We defined
/// two instances of expected quality, namely low effort (removal of
/// tuples) and high quality (updates)."*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Quality {
    /// Cheapest acceptable result — remove offending data.
    LowEffort,
    /// Best achievable result — repair offending data.
    HighQuality,
}

impl fmt::Display for Quality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quality::LowEffort => write!(f, "low effort"),
            Quality::HighQuality => write!(f, "high quality"),
        }
    }
}

/// The structural cleaning tasks of Table 4 (both quality columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StructureTaskKind {
    /// `Not null violated`, low effort.
    RejectTuples,
    /// `Not null violated`, high quality.
    AddMissingValues,
    /// `Unique violated`, low effort.
    SetValuesToNull,
    /// `Unique violated`, high quality.
    AggregateTuples,
    /// `Multiple attribute values`, low effort.
    KeepAnyValue,
    /// `Multiple attribute values`, high quality.
    MergeValues,
    /// `Value w/o enclosing tuple`, low effort.
    DropValues,
    /// `Value w/o enclosing tuple`, high quality — "Create enclosing
    /// tuple"; rendered as *Add tuples* in Table 5.
    CreateEnclosingTuples,
    /// `FK violated`, low effort.
    DeleteDanglingValues,
    /// `FK violated`, high quality.
    AddReferencedValues,
}

impl StructureTaskKind {
    /// Table 4: the task for a conflict kind at a quality level.
    pub fn for_conflict(kind: ConflictKind, quality: Quality) -> StructureTaskKind {
        use ConflictKind::*;
        use StructureTaskKind::*;
        match (kind, quality) {
            (NotNullViolated, Quality::LowEffort) => RejectTuples,
            (NotNullViolated, Quality::HighQuality) => AddMissingValues,
            (UniqueViolated, Quality::LowEffort) => SetValuesToNull,
            (UniqueViolated, Quality::HighQuality) => AggregateTuples,
            (MultipleAttributeValues, Quality::LowEffort) => KeepAnyValue,
            (MultipleAttributeValues, Quality::HighQuality) => MergeValues,
            (ValueWithoutEnclosingTuple, Quality::LowEffort) => DropValues,
            (ValueWithoutEnclosingTuple, Quality::HighQuality) => CreateEnclosingTuples,
            (FkViolated, Quality::LowEffort) => DeleteDanglingValues,
            (FkViolated, Quality::HighQuality) => AddReferencedValues,
        }
    }

    /// Display name as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            StructureTaskKind::RejectTuples => "Reject tuples",
            StructureTaskKind::AddMissingValues => "Add missing values",
            StructureTaskKind::SetValuesToNull => "Set values to null",
            StructureTaskKind::AggregateTuples => "Aggregate tuples",
            StructureTaskKind::KeepAnyValue => "Keep any value",
            StructureTaskKind::MergeValues => "Merge values",
            StructureTaskKind::DropValues => "Drop values",
            StructureTaskKind::CreateEnclosingTuples => "Add tuples",
            StructureTaskKind::DeleteDanglingValues => "Delete dangling values",
            StructureTaskKind::AddReferencedValues => "Add referenced values",
        }
    }
}

/// One planned repair step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlannedRepair {
    /// The chosen task.
    pub kind: StructureTaskKind,
    /// The violated reading it repairs (index into the target CSG).
    pub target_rel: usize,
    /// The reading direction.
    pub direction: Direction,
    /// How often the task must be performed (its `#repetitions`
    /// parameter for the effort-calculation functions).
    pub repetitions: u64,
    /// Human-readable location, e.g. `records→artist` or the attribute
    /// name in parentheses as Table 5 prints it.
    pub location: String,
}

/// The planner failed to find a consistent repair strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannerError {
    /// The simulation revisited a prior state: *"the execution order of
    /// cleaning tasks forms a cycle [...] a consequence of contradicting
    /// repair tasks."* Contains the task labels of the detected cycle.
    InfiniteCleaningLoop(Vec<String>),
    /// Safety valve: the simulation exceeded the iteration budget.
    IterationLimitExceeded(usize),
}

impl fmt::Display for PlannerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlannerError::InfiniteCleaningLoop(tasks) => {
                write!(f, "infinite cleaning loop: {}", tasks.join(" → "))
            }
            PlannerError::IterationLimitExceeded(n) => {
                write!(f, "repair simulation exceeded {n} iterations")
            }
        }
    }
}

impl std::error::Error for PlannerError {}

/// Knobs for the repair simulation.
#[derive(Debug, Clone)]
pub struct PlannerOptions {
    /// Iteration budget before giving up.
    pub max_iterations: usize,
    /// Model "Add missing values" as potentially colliding with a unique
    /// constraint on the same attribute. With the default (false), added
    /// values are assumed fresh; enabling this can produce contradicting
    /// repairs (add ↔ null-out) and exercises the loop detector.
    pub pessimistic_added_values: bool,
    /// Task adaptations: replace the Table 4 default for a conflict kind
    /// with a user-chosen task. Paper §6.1: *"If a data complexity aspect
    /// was properly recognized but we preferred a different integration
    /// task, we have adapted the proposed tasks."*
    pub overrides: Vec<(ConflictKind, StructureTaskKind)>,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            max_iterations: 1000,
            pessimistic_added_values: false,
            overrides: Vec::new(),
        }
    }
}

/// Classify a virtual violation (which aspect to repair first) into a
/// conflict kind. `too_many` aspects are handled before `too_few` on the
/// same reading, mirroring the paper's Table 5 where merge precedes any
/// fill-in.
fn classify_violation(g: &crate::graph::Csg, v: &VirtualViolation) -> ConflictKind {
    let rel_kind = g.relationship(v.reading.rel).kind;
    let prescribed_max = v.prescribed.max().flatten();
    let prescribed_min = v.prescribed.min().unwrap_or(0);
    let actual_max = v.actual.max().flatten();
    let actual_min = v.actual.min().unwrap_or(0);
    let exceeds = match (actual_max, prescribed_max) {
        (None, Some(_)) => true,
        (Some(a), Some(p)) => a > p,
        _ => false,
    };
    let falls_short = actual_min < prescribed_min;
    match (rel_kind, v.reading.dir) {
        (RelKind::Attribute, Direction::Forward) => {
            if exceeds && (v.affected.too_many > 0 || !falls_short) {
                ConflictKind::MultipleAttributeValues
            } else {
                ConflictKind::NotNullViolated
            }
        }
        (RelKind::Attribute, Direction::Backward) => {
            if falls_short && (v.affected.too_few > 0 || !exceeds) {
                ConflictKind::ValueWithoutEnclosingTuple
            } else {
                ConflictKind::UniqueViolated
            }
        }
        (RelKind::Equality, _) => ConflictKind::FkViolated,
    }
}

/// Apply a task's effect (and side effects) to the virtual instance.
/// Returns the repetition count consumed.
fn apply_task(
    v: &mut VirtualCsg<'_>,
    task: StructureTaskKind,
    reading: RelRef,
    opts: &PlannerOptions,
) -> u64 {
    let g = v.graph();
    let prescribed = g.card_of(reading).clone();
    let actual = v.actual_of(reading).clone();
    let affected = v.affected_of(reading);
    let p_min = prescribed.min().unwrap_or(0);
    let p_max = prescribed.max().flatten();
    let a_min = actual.min().unwrap_or(0);
    let a_max = actual.max().flatten();

    // Helper: cap the actual max down to the prescribed max.
    let capped_max = || -> Cardinality {
        match p_max {
            Some(mx) => Cardinality::range(a_min.min(mx), mx),
            None => actual.clone(),
        }
    };
    // Helper: raise the actual min up to the prescribed min.
    let raised_min = || -> Cardinality {
        match a_max {
            Some(mx) => Cardinality::range(p_min, mx.max(p_min)),
            None => Cardinality::at_least(p_min),
        }
    };

    match task {
        StructureTaskKind::MergeValues | StructureTaskKind::KeepAnyValue => {
            let reps = affected.too_many;
            v.set_actual(reading, capped_max());
            v.set_affected(
                reading,
                AffectedCounts {
                    too_few: affected.too_few,
                    too_many: 0,
                },
            );
            reps
        }
        StructureTaskKind::AddMissingValues => {
            let reps = affected.too_few;
            v.set_actual(reading, raised_min());
            v.set_affected(
                reading,
                AffectedCounts {
                    too_few: 0,
                    too_many: affected.too_many,
                },
            );
            if opts.pessimistic_added_values {
                // New values might collide with a unique prescription on
                // the same attribute: value→tuple may now exceed 1.
                let bwd = reading.reverse();
                let bwd_prescribed = g.card_of(bwd).clone();
                if bwd_prescribed.max().flatten() == Some(1) {
                    v.set_actual(bwd, Cardinality::one_or_more());
                    v.add_affected(
                        bwd,
                        AffectedCounts {
                            too_few: 0,
                            too_many: reps,
                        },
                    );
                }
            }
            reps
        }
        StructureTaskKind::RejectTuples => {
            let reps = affected.too_few;
            v.set_actual(reading, raised_min());
            v.set_affected(
                reading,
                AffectedCounts {
                    too_few: 0,
                    too_many: affected.too_many,
                },
            );
            reps
        }
        StructureTaskKind::SetValuesToNull => {
            // Null out surplus values: value→tuple capped; the owning
            // tuples may now miss a required value.
            let reps = affected.too_many;
            v.set_actual(reading, capped_max());
            v.set_affected(
                reading,
                AffectedCounts {
                    too_few: affected.too_few,
                    too_many: 0,
                },
            );
            let fwd = reading.reverse();
            let fwd_prescribed = g.card_of(fwd).clone();
            if fwd_prescribed.min().unwrap_or(0) >= 1 {
                let fwd_actual = v.actual_of(fwd).clone();
                let new_max = fwd_actual.max().flatten();
                v.set_actual(
                    fwd,
                    match new_max {
                        Some(mx) => Cardinality::range(0, mx),
                        None => Cardinality::any(),
                    },
                );
                v.add_affected(
                    fwd,
                    AffectedCounts {
                        too_few: reps,
                        too_many: 0,
                    },
                );
            }
            reps
        }
        StructureTaskKind::AggregateTuples => {
            // Merge tuples sharing a value: uniqueness restored, but the
            // merged tuples may now carry several values for *other*
            // attributes.
            let reps = affected.too_many;
            v.set_actual(reading, capped_max());
            v.set_affected(
                reading,
                AffectedCounts {
                    too_few: affected.too_few,
                    too_many: 0,
                },
            );
            for sib in v.sibling_attribute_rels(reading.rel) {
                let fwd = RelRef::fwd(sib);
                let fwd_prescribed = g.card_of(fwd).clone();
                if fwd_prescribed.max().flatten().is_some() {
                    let cur = v.actual_of(fwd).clone();
                    let lo = cur.min().unwrap_or(0);
                    v.set_actual(fwd, Cardinality::at_least(lo));
                    v.add_affected(
                        fwd,
                        AffectedCounts {
                            too_few: 0,
                            too_many: reps,
                        },
                    );
                }
            }
            reps
        }
        StructureTaskKind::DropValues => {
            let reps = affected.too_few;
            v.set_actual(reading, raised_min());
            v.set_affected(
                reading,
                AffectedCounts {
                    too_few: 0,
                    too_many: affected.too_many,
                },
            );
            reps
        }
        StructureTaskKind::CreateEnclosingTuples => {
            // Create a tuple per detached value. The new tuples have no
            // values for the table's other attributes (Figure 5b) —
            // except key-like attributes (unique value→tuple reading):
            // the mapping generates fresh key values mechanically, so
            // they need no cleaning task (Table 5 repairs only `title`,
            // not `id`).
            let reps = affected.too_few;
            v.set_actual(reading, raised_min());
            v.set_affected(
                reading,
                AffectedCounts {
                    too_few: 0,
                    too_many: affected.too_many,
                },
            );
            for sib in v.sibling_attribute_rels(reading.rel) {
                let fwd = RelRef::fwd(sib);
                if g.card_of(RelRef::bwd(sib)).max().flatten() == Some(1) {
                    continue; // key-like: generated, not hand-filled
                }
                let fwd_prescribed = g.card_of(fwd).clone();
                if fwd_prescribed.min().unwrap_or(0) >= 1 {
                    let cur = v.actual_of(fwd).clone();
                    let mx = cur.max().flatten();
                    v.set_actual(
                        fwd,
                        match mx {
                            Some(m) => Cardinality::range(0, m),
                            None => Cardinality::any(),
                        },
                    );
                    v.add_affected(
                        fwd,
                        AffectedCounts {
                            too_few: reps,
                            too_many: 0,
                        },
                    );
                }
            }
            reps
        }
        StructureTaskKind::DeleteDanglingValues => {
            let reps = affected.too_few.max(affected.too_many);
            v.set_actual(reading, g.card_of(reading).clone());
            v.set_affected(reading, AffectedCounts::default());
            reps
        }
        StructureTaskKind::AddReferencedValues => {
            // Insert the missing referenced values; they arrive without an
            // enclosing tuple in the referenced table.
            let reps = affected.too_few.max(affected.too_many);
            v.set_actual(reading, g.card_of(reading).clone());
            v.set_affected(reading, AffectedCounts::default());
            let referenced_node = g.end_of(RelRef::fwd(reading.rel));
            if let Some(attr_rel) = v.attribute_rel_into(referenced_node) {
                let bwd = RelRef::bwd(attr_rel);
                if g.card_of(bwd).min().unwrap_or(0) >= 1 {
                    let cur = v.actual_of(bwd).clone();
                    let mx = cur.max().flatten();
                    v.set_actual(
                        bwd,
                        match mx {
                            Some(m) => Cardinality::range(0, m),
                            None => Cardinality::any(),
                        },
                    );
                    v.add_affected(
                        bwd,
                        AffectedCounts {
                            too_few: reps,
                            too_many: 0,
                        },
                    );
                }
            }
            reps
        }
    }
}

/// Apply one repair task to a virtual instance, with its side effects —
/// the single-step form of the simulation, used to replay plans state by
/// state (regenerating Figure 5). Returns the repetition count consumed.
pub fn apply_single_repair(
    v: &mut VirtualCsg<'_>,
    task: StructureTaskKind,
    reading: RelRef,
) -> u64 {
    apply_task(v, task, reading, &PlannerOptions::default())
}

/// Derive the attribute name Table 5 prints in parentheses: the end node
/// of the reading, with its table prefix stripped.
fn location_label(g: &crate::graph::Csg, reading: RelRef) -> String {
    let node = match reading.dir {
        Direction::Forward => g.relationship(reading.rel).to,
        Direction::Backward => g.relationship(reading.rel).from,
    };
    let name = &g.node(node).name;
    name.rsplit('.').next().unwrap_or(name).to_owned()
}

/// Plan the repairs of detected conflicts: seed a virtual instance of the
/// target with them ([`VirtualCsg::from_conflicts`]) and run
/// [`simulate_repairs`] on it.
pub fn plan_repairs(
    target_conv: &CsgConversion,
    matches: &[RelationshipMatch],
    conflicts: &[StructuralConflict],
    quality: Quality,
    opts: &PlannerOptions,
) -> Result<Vec<PlannedRepair>, PlannerError> {
    simulate_repairs(
        VirtualCsg::from_conflicts(target_conv, matches, conflicts),
        quality,
        opts,
    )
}

/// Run the repair simulation on a seeded virtual instance: pick a
/// violation, select its Table 4 task for the requested quality, apply
/// its (side) effects, repeat until the virtual instance is clean. The
/// returned list is already in a valid execution order (causing tasks
/// precede fixing tasks by construction).
pub fn simulate_repairs(
    mut v: VirtualCsg<'_>,
    quality: Quality,
    opts: &PlannerOptions,
) -> Result<Vec<PlannedRepair>, PlannerError> {
    let g = v.graph();
    let mut plan: Vec<PlannedRepair> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(v.state_hash());

    for _ in 0..opts.max_iterations {
        let violations = v.violations();
        let Some(first) = violations.first() else {
            return Ok(plan);
        };
        let kind = classify_violation(g, first);
        let task = opts
            .overrides
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, t)| *t)
            .unwrap_or_else(|| StructureTaskKind::for_conflict(kind, quality));
        let reps = apply_task(&mut v, task, first.reading, opts);
        if reps > 0 {
            plan.push(PlannedRepair {
                kind: task,
                target_rel: first.reading.rel.0,
                direction: first.reading.dir,
                repetitions: reps,
                location: location_label(g, first.reading),
            });
        }
        let h = v.state_hash();
        if !seen.insert(h) {
            let cycle = plan.iter().map(|p| p.kind.label().to_owned()).collect();
            return Err(PlannerError::InfiniteCleaningLoop(cycle));
        }
    }
    if v.is_clean() {
        Ok(plan)
    } else {
        Err(PlannerError::IterationLimitExceeded(opts.max_iterations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::database_to_csg;
    use crate::graph::RelId;
    use efes_relational::{DataType, DatabaseBuilder};

    /// Target: records(artist NN, title NN) — build a conflict set that
    /// mirrors the paper: 503 multi-artist albums, 102 detached artists.
    fn paper_like_setup() -> (CsgConversion, Vec<StructuralConflict>) {
        let tgt = DatabaseBuilder::new("tgt")
            .table("records", |t| {
                t.attr("artist", DataType::Text)
                    .attr("title", DataType::Text)
                    .not_null("artist")
                    .not_null("title")
            })
            .build()
            .unwrap();
        let conv = database_to_csg(&tgt);
        let artist_rel = 0usize; // records→artist is the first relationship
        let conflicts = vec![
            StructuralConflict {
                target_rel: artist_rel,
                direction: Direction::Forward,
                prescribed: Cardinality::one(),
                inferred: Cardinality::one_or_more(),
                observed: Cardinality::range(1, 4),
                kind: ConflictKind::MultipleAttributeValues,
                violation_count: 503,
                too_few: 0,
                too_many: 503,
                constraint_label: "κ(records→records.artist) = 1".into(),
            },
            StructuralConflict {
                target_rel: artist_rel,
                direction: Direction::Backward,
                prescribed: Cardinality::one_or_more(),
                inferred: Cardinality::any(),
                observed: Cardinality::range(0, 3),
                kind: ConflictKind::ValueWithoutEnclosingTuple,
                violation_count: 102,
                too_few: 102,
                too_many: 0,
                constraint_label: "κ(records.artist→records) = 1..*".into(),
            },
        ];
        (conv, conflicts)
    }

    /// Build matches consistent with the conflicts: artist reads 1..* fwd,
    /// 0..* bwd in the source.
    fn paper_like_matches(conv: &CsgConversion) -> Vec<RelationshipMatch> {
        let matches = vec![RelationshipMatch {
            target: RelRef::fwd(RelId(0)),
            source_expr: crate::expr::RelExpr::Atomic(RelRef::fwd(RelId(0))),
            inferred_fwd: Cardinality::one_or_more(),
            inferred_bwd: Cardinality::any(),
        }];
        let _ = conv;
        matches
    }

    #[test]
    fn high_quality_plan_reproduces_table5_shape() {
        let (conv, conflicts) = paper_like_setup();
        let matches = paper_like_matches(&conv);
        let plan = plan_repairs(
            &conv,
            &matches,
            &conflicts,
            Quality::HighQuality,
            &PlannerOptions::default(),
        )
        .unwrap();
        let rendered: Vec<(String, u64)> = plan
            .iter()
            .map(|p| (format!("{} ({})", p.kind.label(), p.location), p.repetitions))
            .collect();
        // Table 5: Merge values ×503 (artist), Add tuples ×102 (records),
        // Add missing values ×102 (title). Order: the forward violation is
        // processed first (deterministic order), then the backward one,
        // whose side effect spawns the title repair.
        assert!(rendered.contains(&("Merge values (artist)".into(), 503)));
        assert!(rendered.contains(&("Add tuples (records)".into(), 102)));
        assert!(rendered.contains(&("Add missing values (title)".into(), 102)));
        assert_eq!(plan.len(), 3, "{rendered:?}");
        // Causal order: Add tuples precedes Add missing values (title).
        let add_tuples = plan.iter().position(|p| p.kind == StructureTaskKind::CreateEnclosingTuples).unwrap();
        let add_values = plan.iter().position(|p| p.kind == StructureTaskKind::AddMissingValues).unwrap();
        assert!(add_tuples < add_values);
    }

    #[test]
    fn low_effort_plan_uses_cheap_tasks() {
        let (conv, conflicts) = paper_like_setup();
        let matches = paper_like_matches(&conv);
        let plan = plan_repairs(
            &conv,
            &matches,
            &conflicts,
            Quality::LowEffort,
            &PlannerOptions::default(),
        )
        .unwrap();
        let kinds: Vec<StructureTaskKind> = plan.iter().map(|p| p.kind).collect();
        assert!(kinds.contains(&StructureTaskKind::KeepAnyValue));
        assert!(kinds.contains(&StructureTaskKind::DropValues));
        // Dropping detached values has no side effects: exactly 2 tasks.
        assert_eq!(plan.len(), 2);
    }

    #[test]
    fn no_conflicts_yields_empty_plan() {
        let (conv, _) = paper_like_setup();
        let plan = plan_repairs(
            &conv,
            &[],
            &[],
            Quality::HighQuality,
            &PlannerOptions::default(),
        )
        .unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn pessimistic_added_values_triggers_loop_detection() {
        // Target with a UNIQUE + NOT NULL attribute; a source that leaves
        // it empty. High-quality repair adds values; pessimistically they
        // collide with the unique constraint, whose repair nulls them out
        // again — a contradicting cycle the planner must detect.
        let tgt = DatabaseBuilder::new("t")
            .table("users", |t| {
                t.attr("email", DataType::Text)
                    .not_null("email")
                    .unique(&["email"])
            })
            .build()
            .unwrap();
        let conv = database_to_csg(&tgt);
        let conflicts = vec![StructuralConflict {
            target_rel: 0,
            direction: Direction::Forward,
            prescribed: Cardinality::one(),
            inferred: Cardinality::zero_or_one(),
            observed: Cardinality::zero_or_one(),
            kind: ConflictKind::NotNullViolated,
            violation_count: 10,
            too_few: 10,
            too_many: 0,
            constraint_label: "κ(users→users.email) = 1".into(),
        }];
        let matches = vec![RelationshipMatch {
            target: RelRef::fwd(RelId(0)),
            source_expr: crate::expr::RelExpr::Atomic(RelRef::fwd(RelId(0))),
            inferred_fwd: Cardinality::zero_or_one(),
            inferred_bwd: Cardinality::one(),
        }];
        let opts = PlannerOptions {
            pessimistic_added_values: true,
            // Adapt the unique repair to the low-effort null-out (§6.1
            // task adaptation): together with pessimistic added values
            // this contradicts "Add missing values" and must cycle.
            overrides: vec![(ConflictKind::UniqueViolated, StructureTaskKind::SetValuesToNull)],
            ..PlannerOptions::default()
        };
        let err = plan_repairs(&conv, &matches, &conflicts, Quality::HighQuality, &opts)
            .unwrap_err();
        assert!(matches!(err, PlannerError::InfiniteCleaningLoop(_)), "{err}");
    }

    #[test]
    fn fk_violations_planned_per_quality() {
        let tgt = DatabaseBuilder::new("t")
            .table("records", |t| {
                t.attr("id", DataType::Integer)
                    .attr("title", DataType::Text)
                    .primary_key(&["id"])
                    .not_null("title")
            })
            .table("tracks", |t| {
                t.attr("record", DataType::Integer)
                    .foreign_key(&["record"], "records", &["id"])
            })
            .build()
            .unwrap();
        let conv = database_to_csg(&tgt);
        // The equality relationship is the last one added.
        let fk_rel = conv.fk_rels[0].1;
        let conflicts = vec![StructuralConflict {
            target_rel: fk_rel.0,
            direction: Direction::Forward,
            prescribed: Cardinality::one(),
            inferred: Cardinality::zero_or_one(),
            observed: Cardinality::zero_or_one(),
            kind: ConflictKind::FkViolated,
            violation_count: 7,
            too_few: 7,
            too_many: 0,
            constraint_label: "κ(tracks.record→records.id) = 1".into(),
        }];
        let matches = vec![RelationshipMatch {
            target: RelRef::fwd(fk_rel),
            source_expr: crate::expr::RelExpr::Atomic(RelRef::fwd(fk_rel)),
            inferred_fwd: Cardinality::zero_or_one(),
            inferred_bwd: Cardinality::zero_or_one(),
        }];
        let low = plan_repairs(&conv, &matches, &conflicts, Quality::LowEffort, &PlannerOptions::default()).unwrap();
        assert_eq!(low[0].kind, StructureTaskKind::DeleteDanglingValues);
        let high = plan_repairs(&conv, &matches, &conflicts, Quality::HighQuality, &PlannerOptions::default()).unwrap();
        assert_eq!(high[0].kind, StructureTaskKind::AddReferencedValues);
        // High quality cascades: the new id values need enclosing records
        // tuples, which in turn need titles.
        let kinds: Vec<_> = high.iter().map(|p| p.kind).collect();
        assert!(kinds.contains(&StructureTaskKind::CreateEnclosingTuples));
        assert!(kinds.contains(&StructureTaskKind::AddMissingValues));
    }
}
