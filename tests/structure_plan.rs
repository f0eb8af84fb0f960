//! The structure module plans from its own report (paper §3.2, Figure 3:
//! each module's task planner turns *its* complexity report into tasks).
//!
//! * An oracle built only from public `efes-csg` calls — full conversion
//!   of target and source, matching, detection, `plan_repairs` — plans
//!   exactly the module's tasks on every registry scenario at both
//!   qualities, and on a two-source scenario, where findings must be
//!   grouped by their `source`.
//! * Planning reads no source data: emptying the sources after assess
//!   leaves the plan unchanged.
//! * Detection reads no target rows: dropping them leaves report and
//!   plan unchanged, which is why the module converts only the target's
//!   schema.

use efes::framework::{EstimationModule, ModuleReport};
use efes::modules::StructureModule;
use efes::prelude::*;
use efes::settings::Quality;
use efes_csg::planner::{PlannerOptions, StructureTaskKind};
use efes_csg::{
    database_to_csg, detect_conflicts, match_relationships, plan_repairs, NodeCorrespondences,
};
use efes_relational::{Instance, IntegrationScenario};
use efes_scenarios::standard_registry;

const QUALITIES: [Quality; 2] = [Quality::LowEffort, Quality::HighQuality];

/// Table 4's task kinds as the Table 9 task types that price them.
fn task_type(kind: StructureTaskKind) -> TaskType {
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

/// The structure plan derived straight from the data, source by source,
/// with the target converted in full (rows included).
fn oracle_tasks(scenario: &IntegrationScenario, config: &EstimationConfig) -> Vec<Task> {
    let options = PlannerOptions {
        max_iterations: config.max_repair_iterations,
        ..PlannerOptions::default()
    };
    let mut tasks = Vec::new();
    for (sid, source) in scenario.iter_sources() {
        let target_conv = database_to_csg(&scenario.target);
        let source_conv = database_to_csg(source);
        let corr = NodeCorrespondences::from_scenario(scenario, sid, &target_conv, &source_conv);
        let matches = match_relationships(&target_conv.csg, &source_conv.csg, &corr);
        let conflicts = detect_conflicts(&target_conv, &source_conv, &matches);
        let repairs = plan_repairs(&target_conv, &matches, &conflicts, config.quality, &options)
            .expect("oracle plans");
        tasks.extend(repairs.into_iter().map(|r| {
            Task::new(
                task_type(r.kind),
                config.quality,
                TaskParams::repeated(r.repetitions),
                r.location,
                "structure",
            )
        }));
    }
    tasks
}

/// The module's report and its plan at each quality.
fn assess_and_plan(scenario: &IntegrationScenario) -> (ModuleReport, Vec<Vec<Task>>) {
    let module = StructureModule::default();
    let report = module.assess(scenario).unwrap();
    let plans = QUALITIES
        .iter()
        .map(|&q| {
            module
                .plan(scenario, &report, &EstimationConfig::for_quality(q))
                .unwrap()
        })
        .collect();
    (report, plans)
}

/// Two sources into one target, both dirty: the synthetic generator's
/// key, FK and null defects land in each source with different counts.
fn two_source_scenario() -> IntegrationScenario {
    let mut config = efes_synth::SynthConfig::default()
        .with_rows(300)
        .with_sources(2);
    config.shape.tables = 2;
    efes_synth::generate(&config).scenario
}

fn registry_scenarios() -> Vec<IntegrationScenario> {
    let registry = standard_registry();
    let names = registry.names();
    assert_eq!(names.len(), 10);
    names
        .iter()
        .map(|name| (*registry.get(name).unwrap()).clone())
        .collect()
}

fn assert_module_matches_oracle(scenario: &IntegrationScenario) {
    let (_, plans) = assess_and_plan(scenario);
    for (quality, tasks) in QUALITIES.iter().zip(plans) {
        let oracle = oracle_tasks(scenario, &EstimationConfig::for_quality(*quality));
        assert_eq!(tasks, oracle, "{} at {quality}", scenario.name);
    }
}

#[test]
fn module_plans_equal_the_oracle_on_every_registry_scenario() {
    for scenario in registry_scenarios() {
        assert_module_matches_oracle(&scenario);
    }
}

#[test]
fn module_plans_equal_the_oracle_per_source() {
    let scenario = two_source_scenario();
    let (report, _) = assess_and_plan(&scenario);
    for source in 0..2 {
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.int("source") == Some(source)),
            "source {source} has no structural findings: {report:?}"
        );
    }
    assert_module_matches_oracle(&scenario);
}

#[test]
fn plan_reads_no_source_rows() {
    let scenario = (*standard_registry().get("amalgam-s1-s2").unwrap()).clone();
    let (report, plans) = assess_and_plan(&scenario);
    assert!(plans.iter().all(|tasks| !tasks.is_empty()));
    let mut emptied = scenario.clone();
    for db in &mut emptied.sources {
        db.instance = Instance::empty(&db.schema);
    }
    let module = StructureModule::default();
    for (quality, tasks) in QUALITIES.iter().zip(&plans) {
        let config = EstimationConfig::for_quality(*quality);
        assert_eq!(&module.plan(&emptied, &report, &config).unwrap(), tasks);
    }
}

#[test]
fn target_rows_change_neither_report_nor_plan() {
    let mut with_target_rows = 0;
    for scenario in registry_scenarios() {
        if scenario.target.instance.row_count() > 0 {
            with_target_rows += 1;
        }
        let mut rowless = scenario.clone();
        rowless.target.instance = Instance::empty(&rowless.target.schema);
        assert_eq!(
            assess_and_plan(&rowless),
            assess_and_plan(&scenario),
            "{}",
            scenario.name
        );
    }
    assert!(with_target_rows > 0, "no registry target has rows");
}
