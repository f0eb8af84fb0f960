//! The structural-conflicts estimation module (paper §4) — wraps the
//! `efes-csg` structure conflict detector and structure repair planner
//! into the framework interface.
//!
//! Like every module (Figure 3), the planner turns the module's *own*
//! complexity report into tasks:
//!
//! * **assess** builds the target's graph once, from its schema only
//!   ([`schema_to_csg`]: detection reads no target rows). Each source is
//!   converted once, matched and checked against that graph, and its
//!   conversion dropped. Every conflict becomes one
//!   `structural-conflict` finding that records all the repair planner
//!   needs: `source`, `target-rel`, `direction`, the observed
//!   cardinality as `observed-min`..`observed-max`, and the `too-few` /
//!   `too-many` element counts.
//! * **plan** rebuilds the target's schema graph, seeds one
//!   [`VirtualCsg`] per source from that source's findings and runs the
//!   repair simulation ([`simulate_repairs`]). It reads no source data,
//!   so its cost is independent of the row count, and a malformed report
//!   is a [`ModuleError::PlanningFailed`], never a panic.

use crate::config::EstimationConfig;
use crate::framework::{AssessContext, EstimationModule, Finding, ModuleError, ModuleReport};
use crate::task::{Task, TaskParams, TaskType};
use efes_csg::convert::CsgConversion;
use efes_csg::planner::{PlannerOptions, StructureTaskKind};
use efes_csg::virtual_instance::AffectedCounts;
use efes_csg::{
    database_to_csg_ctx, detect_conflicts_ctx, match_relationships_ctx, schema_to_csg,
    simulate_repairs, Cardinality, Csg, Direction, NodeCorrespondences, RelId, RelRef,
    StructuralConflict, VirtualCsg,
};
use efes_exec::{parallel_map, ExecutionMode, RunContext};
use efes_relational::{IntegrationScenario, SourceId};

/// The structure module.
#[derive(Debug, Clone, Default)]
pub struct StructureModule {
    /// Planner options (task adaptations, pessimism, iteration cap).
    pub planner_options: PlannerOptions,
}

/// The finding kind this module reports and plans from.
const FINDING_KIND: &str = "structural-conflict";

/// Map the CSG-level repair task onto the framework task type priced by
/// Table 9. `CreateEnclosingTuples` is priced as Table 5's "Add tuples";
/// `DropValues` as "Delete detached values" (skipping them is free);
/// `AddMissingValues` as "Add values" (2·#values).
fn task_type_of(kind: StructureTaskKind) -> TaskType {
    match kind {
        StructureTaskKind::RejectTuples => TaskType::RejectTuples,
        StructureTaskKind::AddMissingValues => TaskType::AddValues,
        StructureTaskKind::SetValuesToNull => TaskType::SetValuesToNull,
        StructureTaskKind::AggregateTuples => TaskType::AggregateTuples,
        StructureTaskKind::KeepAnyValue => TaskType::KeepAnyValue,
        StructureTaskKind::MergeValues => TaskType::MergeValues,
        StructureTaskKind::DropValues => TaskType::DeleteDetachedValues,
        StructureTaskKind::CreateEnclosingTuples => TaskType::AddTuples,
        StructureTaskKind::DeleteDanglingValues => TaskType::DeleteDanglingValues,
        StructureTaskKind::AddReferencedValues => TaskType::AddReferencedValues,
    }
}

/// One conflict as a finding of source `sid`.
fn finding_of(c: StructuralConflict, sid: SourceId, source_name: &str) -> Finding {
    // Detection emits a conflict only after seeing some element's link
    // count, so the observed cardinality is the finite range of those
    // counts and two integers encode it exactly.
    let (Some(observed_min), Some(Some(observed_max))) = (c.observed.min(), c.observed.max())
    else {
        unreachable!("observed cardinality {} is not a finite range", c.observed)
    };
    Finding::new(
        FINDING_KIND,
        format!("{} [{}]", c.constraint_label, source_name),
        format!(
            "{}: inferred source cardinality {} violates prescribed {}",
            c.kind.label(),
            c.inferred,
            c.prescribed
        ),
    )
    .with_int("violations", c.violation_count)
    .with_int("too-few", c.too_few)
    .with_int("too-many", c.too_many)
    .with_int("source", sid.0 as u64)
    .with_int("target-rel", c.target_rel as u64)
    .with_text(
        "direction",
        match c.direction {
            Direction::Forward => "forward",
            Direction::Backward => "backward",
        },
    )
    .with_int("observed-min", observed_min)
    .with_int("observed-max", observed_max)
    .with_text("prescribed", c.prescribed.to_string())
    .with_text("inferred", c.inferred.to_string())
    .with_text("conflict-kind", c.kind.label())
}

/// Read a finding back into what it seeds into its source's virtual
/// instance — the source index, the violated reading, its observed
/// cardinality and the offending element counts — checking it against
/// the target graph and the scenario's `sources` count. A missing or
/// out-of-range metric is an error, not a default.
fn seed_of(
    f: &Finding,
    target: &Csg,
    sources: usize,
) -> Result<(usize, RelRef, Cardinality, AffectedCounts), ModuleError> {
    let malformed = |what: String| {
        ModuleError::PlanningFailed(format!("structural finding {:?} {what}", f.location))
    };
    let int = |key: &str| {
        f.int(key)
            .ok_or_else(|| malformed(format!("lacks `{key}`")))
    };
    let source = int("source")?;
    if source >= sources as u64 {
        return Err(malformed(format!(
            "names source {source}, but the scenario has {sources} source(s)"
        )));
    }
    let rel = int("target-rel")?;
    if rel >= target.relationships().len() as u64 {
        return Err(malformed(format!(
            "names relationship {rel} outside the target graph"
        )));
    }
    let dir = match f.text("direction") {
        Some("forward") => Direction::Forward,
        Some("backward") => Direction::Backward,
        Some(other) => return Err(malformed(format!("has direction {other:?}"))),
        None => return Err(malformed("lacks `direction`".to_owned())),
    };
    let (lo, hi) = (int("observed-min")?, int("observed-max")?);
    if lo > hi {
        return Err(malformed(format!(
            "has observed-min {lo} above observed-max {hi}"
        )));
    }
    let observed = Cardinality::range(lo, hi);
    let affected = AffectedCounts {
        too_few: int("too-few")?,
        too_many: int("too-many")?,
    };
    let reading = RelRef {
        rel: RelId(rel as usize),
        dir,
    };
    Ok((source as usize, reading, observed, affected))
}

impl StructureModule {
    /// Detect conflicts for one source against the target's graph,
    /// returning its findings in deterministic order, or `Err` when `run`
    /// is cancelled mid-sweep. The source's conversion lives only for
    /// this call.
    fn assess_source(
        &self,
        scenario: &IntegrationScenario,
        target: &CsgConversion,
        sid: SourceId,
        mode: ExecutionMode,
        run: &RunContext,
    ) -> Result<Vec<Finding>, ModuleError> {
        let source = scenario.source(sid);
        let cancelled = |_| ModuleError::cancelled("structure");
        let source_conv = database_to_csg_ctx(source, run).map_err(cancelled)?;
        let corr = NodeCorrespondences::from_scenario(scenario, sid, target, &source_conv);
        let matches = match_relationships_ctx(&target.csg, &source_conv.csg, &corr, mode, run)
            .map_err(cancelled)?;
        Ok(detect_conflicts_ctx(target, &source_conv, &matches, run)
            .map_err(cancelled)?
            .into_iter()
            .map(|c| finding_of(c, sid, source.name()))
            .collect())
    }
}

impl EstimationModule for StructureModule {
    fn name(&self) -> &str {
        "structure"
    }

    fn assess(&self, scenario: &IntegrationScenario) -> Result<ModuleReport, ModuleError> {
        self.assess_with(scenario, &AssessContext::standalone())
    }

    /// Sources are independent, so they fan out under `ctx.mode`; within
    /// one source the relationship matching fans out as well. Findings
    /// come back in source order, identical to a sequential pass.
    fn assess_with(
        &self,
        scenario: &IntegrationScenario,
        ctx: &AssessContext,
    ) -> Result<ModuleReport, ModuleError> {
        let target = schema_to_csg(&scenario.target);
        let sids: Vec<SourceId> = scenario.iter_sources().map(|(sid, _)| sid).collect();
        let mut report = ModuleReport::new(self.name());
        for findings in parallel_map(ctx.mode, sids, |sid| {
            self.assess_source(scenario, &target, sid, ctx.mode, &ctx.run)
        }) {
            report.findings.extend(findings?);
        }
        Ok(report)
    }

    /// Seed one virtual instance of the target's schema graph per source
    /// from that source's findings, then simulate each source's repairs
    /// in source order.
    fn plan(
        &self,
        scenario: &IntegrationScenario,
        report: &ModuleReport,
        config: &EstimationConfig,
    ) -> Result<Vec<Task>, ModuleError> {
        let target = schema_to_csg(&scenario.target);
        let mut virtuals: Vec<VirtualCsg<'_>> = scenario
            .sources
            .iter()
            .map(|_| VirtualCsg::new(&target.csg))
            .collect();
        for f in report.of_kind(FINDING_KIND) {
            let (source, reading, observed, affected) = seed_of(f, &target.csg, virtuals.len())?;
            virtuals[source].observe(reading, observed, affected);
        }
        let mut opts = self.planner_options.clone();
        opts.max_iterations = config.max_repair_iterations;
        let mut tasks = Vec::new();
        for v in virtuals {
            let repairs = simulate_repairs(v, config.quality, &opts)
                .map_err(|e| ModuleError::PlanningFailed(e.to_string()))?;
            tasks.extend(repairs.into_iter().map(|repair| {
                Task::new(
                    task_type_of(repair.kind),
                    config.quality,
                    TaskParams::repeated(repair.repetitions),
                    repair.location,
                    self.name(),
                )
            }));
        }
        Ok(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::MetricValue;
    use crate::settings::Quality;
    use efes_relational::{CorrespondenceBuilder, DataType, DatabaseBuilder, Instance};

    /// Source with 3 multi-artist albums and 2 detached artists, shaped
    /// like the paper's Figure 2: the artist_lists indirection keeps the
    /// source locally valid while producing both conflict kinds.
    fn scenario() -> IntegrationScenario {
        let mut source = DatabaseBuilder::new("src")
            .table("albums", |t| {
                t.attr("id", DataType::Integer)
                    .attr("name", DataType::Text)
                    .attr("artist_list", DataType::Integer)
                    .primary_key(&["id"])
                    .not_null("name")
                    .not_null("artist_list")
                    .foreign_key(&["artist_list"], "artist_lists", &["id"])
            })
            .table("artist_lists", |t| t.attr("id", DataType::Integer).primary_key(&["id"]))
            .table("credits", |t| {
                t.attr("artist_list", DataType::Integer)
                    .attr("artist", DataType::Text)
                    .not_null("artist")
                    .foreign_key(&["artist_list"], "artist_lists", &["id"])
            })
            .build()
            .unwrap();
        for i in 0..3i64 {
            source.insert_by_name("artist_lists", vec![i.into()]).unwrap();
            source
                .insert_by_name(
                    "albums",
                    vec![i.into(), format!("Album {i}").into(), i.into()],
                )
                .unwrap();
            // Two artists per album → multiple-attribute-values conflicts.
            source
                .insert_by_name("credits", vec![i.into(), format!("Artist A{i}").into()])
                .unwrap();
            source
                .insert_by_name("credits", vec![i.into(), format!("Artist B{i}").into()])
                .unwrap();
        }
        // Two artists on lists no album references → detached artists.
        for (list, name) in [(90i64, "Loner 1"), (91, "Loner 2")] {
            source.insert_by_name("artist_lists", vec![list.into()]).unwrap();
            source
                .insert_by_name("credits", vec![list.into(), name.into()])
                .unwrap();
        }
        source.assert_valid();

        let target = DatabaseBuilder::new("tgt")
            .table("records", |t| {
                t.attr("title", DataType::Text)
                    .attr("artist", DataType::Text)
                    .not_null("title")
                    .not_null("artist")
            })
            .build()
            .unwrap();
        let corrs = CorrespondenceBuilder::new(&source, &target)
            .table("albums", "records")
            .unwrap()
            .attr("albums", "name", "records", "title")
            .unwrap()
            .attr("credits", "artist", "records", "artist")
            .unwrap()
            .finish();
        IntegrationScenario::single_source("structure-test", source, target, corrs).unwrap()
    }

    #[test]
    fn assess_reports_conflicts_with_counts() {
        let m = StructureModule::default();
        let report = m.assess(&scenario()).unwrap();
        assert!(!report.findings.is_empty());
        let multi = report
            .findings
            .iter()
            .find(|f| f.text("conflict-kind") == Some("Multiple attribute values"));
        assert!(multi.is_some(), "{report:?}");
        assert_eq!(multi.unwrap().int("violations"), Some(3));
    }

    #[test]
    fn high_quality_plan_contains_merges() {
        let m = StructureModule::default();
        let s = scenario();
        let report = m.assess(&s).unwrap();
        let cfg = EstimationConfig::for_quality(Quality::HighQuality);
        let tasks = m.plan(&s, &report, &cfg).unwrap();
        assert!(tasks.iter().any(|t| t.task_type == TaskType::MergeValues));
        let merge = tasks
            .iter()
            .find(|t| t.task_type == TaskType::MergeValues)
            .unwrap();
        assert_eq!(merge.params.repetitions, 3);
    }

    #[test]
    fn low_effort_plan_contains_cheap_tasks() {
        let m = StructureModule::default();
        let s = scenario();
        let report = m.assess(&s).unwrap();
        let cfg = EstimationConfig::for_quality(Quality::LowEffort);
        let tasks = m.plan(&s, &report, &cfg).unwrap();
        assert!(tasks.iter().any(|t| t.task_type == TaskType::KeepAnyValue));
        assert!(!tasks.iter().any(|t| t.task_type == TaskType::MergeValues));
    }

    #[test]
    fn identical_schemas_produce_no_tasks() {
        let db = DatabaseBuilder::new("same")
            .table("t", |t| {
                t.attr("id", DataType::Integer)
                    .attr("x", DataType::Text)
                    .primary_key(&["id"])
            })
            .rows(
                "t",
                vec![
                    vec![1.into(), "a".into()],
                    vec![2.into(), "b".into()],
                    vec![3.into(), "c".into()],
                ],
            )
            .build()
            .unwrap();
        let mut target = db.clone();
        target.schema.name = "tgt".into();
        let corrs = CorrespondenceBuilder::new(&db, &target)
            .table("t", "t")
            .unwrap()
            .attr("t", "id", "t", "id")
            .unwrap()
            .attr("t", "x", "t", "x")
            .unwrap()
            .finish();
        let s = IntegrationScenario::single_source("identical", db, target, corrs).unwrap();
        let m = StructureModule::default();
        let report = m.assess(&s).unwrap();
        assert!(report.findings.is_empty());
        let tasks = m
            .plan(&s, &report, &EstimationConfig::default())
            .unwrap();
        assert!(tasks.is_empty());
    }

    #[test]
    fn findings_record_what_the_planner_reads() {
        let report = StructureModule::default().assess(&scenario()).unwrap();
        let multi = report
            .findings
            .iter()
            .find(|f| f.text("conflict-kind") == Some("Multiple attribute values"))
            .unwrap();
        assert_eq!(multi.text("direction"), Some("forward"));
        // Every album carries exactly two artists.
        assert_eq!(multi.int("observed-min"), Some(2));
        assert_eq!(multi.int("observed-max"), Some(2));
        assert_eq!(multi.int("too-many"), Some(3));
        let detached = report
            .findings
            .iter()
            .find(|f| f.text("conflict-kind") == Some("Value w/o enclosing tuple"))
            .unwrap();
        assert_eq!(detached.text("direction"), Some("backward"));
        assert_eq!(detached.int("observed-min"), Some(0));
        assert_eq!(detached.int("too-few"), Some(2));
    }

    #[test]
    fn plan_reads_the_report_not_the_source_data() {
        let m = StructureModule::default();
        let full = scenario();
        let report = m.assess(&full).unwrap();
        let mut emptied = full.clone();
        for db in &mut emptied.sources {
            db.instance = Instance::empty(&db.schema);
        }
        assert!(m.assess(&emptied).unwrap().findings.is_empty());
        for quality in [Quality::LowEffort, Quality::HighQuality] {
            let cfg = EstimationConfig::for_quality(quality);
            let tasks = m.plan(&full, &report, &cfg).unwrap();
            assert!(!tasks.is_empty());
            assert_eq!(m.plan(&emptied, &report, &cfg).unwrap(), tasks);
        }
    }

    /// Plan the module's own report after `edit` has broken its first
    /// finding; returns the error message, which must be a planning
    /// failure rather than a panic.
    fn plan_with_broken_finding(edit: impl FnOnce(&mut Finding)) -> String {
        let m = StructureModule::default();
        let s = scenario();
        let mut report = m.assess(&s).unwrap();
        edit(&mut report.findings[0]);
        match m.plan(&s, &report, &EstimationConfig::default()) {
            Err(ModuleError::PlanningFailed(message)) => message,
            other => panic!("expected a planning failure, got {other:?}"),
        }
    }

    #[test]
    fn finding_without_direction_fails_planning() {
        let msg = plan_with_broken_finding(|f| {
            f.metrics.remove("direction");
        });
        assert!(msg.contains("lacks `direction`"), "{msg}");
    }

    #[test]
    fn finding_with_unknown_direction_fails_planning() {
        let msg = plan_with_broken_finding(|f| {
            f.metrics
                .insert("direction".into(), MetricValue::Text("sideways".into()));
        });
        assert!(msg.contains("\"sideways\""), "{msg}");
    }

    #[test]
    fn finding_without_observed_min_fails_planning() {
        let msg = plan_with_broken_finding(|f| {
            f.metrics.remove("observed-min");
        });
        assert!(msg.contains("lacks `observed-min`"), "{msg}");
    }

    #[test]
    fn finding_without_observed_max_fails_planning() {
        let msg = plan_with_broken_finding(|f| {
            f.metrics.remove("observed-max");
        });
        assert!(msg.contains("lacks `observed-max`"), "{msg}");
    }

    #[test]
    fn finding_without_target_rel_fails_planning() {
        let msg = plan_with_broken_finding(|f| {
            f.metrics.remove("target-rel");
        });
        assert!(msg.contains("lacks `target-rel`"), "{msg}");
    }

    #[test]
    fn finding_outside_the_target_graph_fails_planning() {
        let msg = plan_with_broken_finding(|f| {
            f.metrics.insert("target-rel".into(), MetricValue::Int(99));
        });
        assert!(
            msg.contains("relationship 99 outside the target graph"),
            "{msg}"
        );
    }

    #[test]
    fn finding_of_an_unknown_source_fails_planning() {
        let msg = plan_with_broken_finding(|f| {
            f.metrics.insert("source".into(), MetricValue::Int(1));
        });
        assert!(
            msg.contains("names source 1, but the scenario has 1 source(s)"),
            "{msg}"
        );
    }

    #[test]
    fn finding_with_inverted_observed_range_fails_planning() {
        let msg = plan_with_broken_finding(|f| {
            f.metrics.insert("observed-min".into(), MetricValue::Int(5));
            f.metrics.insert("observed-max".into(), MetricValue::Int(4));
        });
        assert!(msg.contains("observed-min 5 above observed-max 4"), "{msg}");
    }

    #[test]
    fn absurd_counts_saturate_instead_of_overflowing() {
        // A satisfied reading with a huge too-few count, which creating
        // enclosing tuples for the detached artists then adds to: the
        // sum must saturate, not overflow.
        let m = StructureModule::default();
        let s = scenario();
        let mut report = m.assess(&s).unwrap();
        let title = schema_to_csg(&s.target)
            .attr_rel(efes_relational::TableId(0), efes_relational::AttrId(0));
        let mut padded = report.findings[0].clone();
        for (key, value) in [
            ("target-rel", title.0 as u64),
            ("observed-min", 1),
            ("observed-max", 1),
            ("too-few", u64::MAX),
            ("too-many", 0),
        ] {
            padded.metrics.insert(key.into(), MetricValue::Int(value));
        }
        padded
            .metrics
            .insert("direction".into(), MetricValue::Text("forward".into()));
        report.findings.push(padded);
        let cfg = EstimationConfig::for_quality(Quality::HighQuality);
        let tasks = m.plan(&s, &report, &cfg).unwrap();
        let fill = tasks
            .iter()
            .find(|t| t.task_type == TaskType::AddValues)
            .unwrap();
        assert_eq!(fill.params.repetitions, u64::MAX);
    }
}
