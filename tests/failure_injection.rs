//! Failure-injection tests: the pipeline degrades loudly, not wrongly —
//! malformed inputs are rejected at construction, planner pathologies
//! surface as typed errors, and misconfiguration is observable.

use efes::framework::{EstimationModule, ModuleError, ModuleReport};
use efes::modules::StructureModule;
use efes::prelude::*;
use efes::settings::Quality;
use efes_csg::planner::{PlannerOptions, StructureTaskKind};
use efes_csg::violations::ConflictKind;
use efes_relational::{
    csv, CorrespondenceBuilder, DataType, DatabaseBuilder, IntegrationScenario,
};

#[test]
fn malformed_csv_is_rejected_with_line_numbers() {
    let err = csv::load_table("x", "t", "a,b\n1\n").unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
    let err = csv::load_table("x", "t", "").unwrap_err();
    assert!(err.to_string().contains("empty"), "{err}");
    let err = csv::parse("a\n\"unterminated\n").unwrap_err();
    assert!(err.to_string().contains("unterminated"), "{err}");
}

#[test]
fn type_violations_fail_at_insertion() {
    let mut db = DatabaseBuilder::new("x")
        .table("t", |t| t.attr("n", DataType::Integer))
        .build()
        .unwrap();
    let err = db.insert_by_name("t", vec!["not a number".into()]).unwrap_err();
    assert!(err.to_string().contains("expected integer"), "{err}");
    let err = db.insert_by_name("t", vec![]).unwrap_err();
    assert!(err.to_string().contains("0 values"), "{err}");
    let err = db.insert_by_name("nope", vec![1.into()]).unwrap_err();
    assert!(err.to_string().contains("unknown table"), "{err}");
}

#[test]
fn dangling_correspondences_fail_scenario_construction() {
    use efes_relational::{Correspondence, CorrespondenceSet, SourceId, TableId};
    let source = DatabaseBuilder::new("s")
        .table("a", |t| t.attr("x", DataType::Text))
        .build()
        .unwrap();
    let target = DatabaseBuilder::new("t")
        .table("b", |t| t.attr("y", DataType::Text))
        .build()
        .unwrap();
    let mut corrs = CorrespondenceSet::new();
    corrs.push(Correspondence::Table {
        source: SourceId(5), // no such source
        source_table: TableId(0),
        target_table: TableId(0),
    });
    let err = IntegrationScenario::single_source("bad", source, target, corrs).unwrap_err();
    assert!(err.to_string().contains("unknown source"), "{err}");
}

#[test]
fn contradictory_repair_adaptation_reports_a_cleaning_loop() {
    // A target with a UNIQUE + NOT NULL attribute fed by an empty-ish
    // source; adapting the unique repair to "set values to null" under
    // pessimistic added values contradicts "add missing values" — the
    // module must surface the planner's loop error, not hang or emit a
    // bogus plan.
    let mut source = DatabaseBuilder::new("s")
        .table("users", |t| t.attr("email", DataType::Text))
        .build()
        .unwrap();
    for i in 0..10 {
        source
            .insert_by_name(
                "users",
                vec![if i % 2 == 0 {
                    efes_relational::Value::Null
                } else {
                    format!("user{i}@example.org").into()
                }],
            )
            .unwrap();
    }
    let target = DatabaseBuilder::new("t")
        .table("users", |t| {
            t.attr("email", DataType::Text)
                .not_null("email")
                .unique(&["email"])
        })
        .build()
        .unwrap();
    let corrs = CorrespondenceBuilder::new(&source, &target)
        .table("users", "users")
        .unwrap()
        .attr("users", "email", "users", "email")
        .unwrap()
        .finish();
    let scenario = IntegrationScenario::single_source("loop", source, target, corrs).unwrap();

    let module = StructureModule {
        planner_options: PlannerOptions {
            pessimistic_added_values: true,
            overrides: vec![(ConflictKind::UniqueViolated, StructureTaskKind::SetValuesToNull)],
            ..PlannerOptions::default()
        },
    };
    let report = module.assess(&scenario).unwrap();
    let err = module
        .plan(
            &scenario,
            &report,
            &EstimationConfig::for_quality(Quality::HighQuality),
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("infinite cleaning loop"),
        "{err}"
    );
}

/// A module whose detector always fails: the estimator must propagate
/// the error instead of producing a partial estimate.
struct BrokenModule;

impl EstimationModule for BrokenModule {
    fn name(&self) -> &str {
        "broken"
    }
    fn assess(
        &self,
        _scenario: &efes_relational::IntegrationScenario,
    ) -> Result<ModuleReport, ModuleError> {
        Err(ModuleError::InvalidScenario("injected failure".into()))
    }
    fn plan(
        &self,
        _scenario: &efes_relational::IntegrationScenario,
        _: &ModuleReport,
        _config: &EstimationConfig,
    ) -> Result<Vec<Task>, ModuleError> {
        unreachable!("assess failed first")
    }
}

#[test]
fn module_errors_propagate_out_of_the_estimator() {
    let source = DatabaseBuilder::new("s")
        .table("t", |t| t.attr("x", DataType::Text))
        .build()
        .unwrap();
    let target = source.clone();
    let corrs = CorrespondenceBuilder::new(&source, &target)
        .table("t", "t")
        .unwrap()
        .finish();
    let scenario = IntegrationScenario::single_source("x", source, target, corrs).unwrap();
    let mut estimator = Estimator::with_default_modules(EstimationConfig::default());
    estimator.register(Box::new(BrokenModule));
    let err = estimator.estimate(&scenario).unwrap_err();
    assert!(err.to_string().contains("injected failure"), "{err}");
}

#[test]
fn unpriced_custom_tasks_are_visible_as_zero_minutes() {
    // Forgetting to register an effort function is observable: the task
    // appears in the estimate with 0 minutes rather than vanishing.
    let model = EffortModel::table9();
    let task = Task::new(
        TaskType::Custom("unpriced".into()),
        Quality::HighQuality,
        TaskParams::repeated(100),
        "loc",
        "custom",
    );
    assert_eq!(model.minutes_for(&task, &Default::default()), 0.0);
}

/// Path search in a dense foreign-key mesh whose end is unreachable. The
/// source has `T` tables, each keyed and referencing every other, plus a
/// table no key reaches; the target relationship `x → x.b` corresponds
/// to a meshed table and the lone table's key, which no source path
/// joins. Enumerating every simple path of up to 8 readings through the
/// mesh grows about as T⁵ and checked no deadline: at T = 34 one
/// sequential estimate took 3.7–5.3 s in a release build. Pruned by the
/// distance to the end, the search costs one breadth-first pass.
#[test]
fn unreachable_path_ends_in_a_foreign_key_mesh_answer_within_the_deadline() {
    use efes_exec::{CancellationToken, RunContext};
    use efes_profiling::ProfileCache;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const T: usize = 34;
    let mut source = DatabaseBuilder::new("mesh");
    for i in 0..T {
        source = source.table(&format!("t{i}"), |mut t| {
            t = t.attr("id", DataType::Integer).primary_key(&["id"]);
            for j in (0..T).filter(|&j| j != i) {
                let fk = format!("r{j}");
                t = t
                    .attr(&fk, DataType::Integer)
                    .foreign_key(&[&fk], &format!("t{j}"), &["id"]);
            }
            t
        });
    }
    let source = source
        .table("lone", |t| t.attr("id", DataType::Integer))
        .build()
        .unwrap();
    let target = DatabaseBuilder::new("target")
        .table("x", |t| {
            t.attr("a", DataType::Integer).attr("b", DataType::Integer)
        })
        .build()
        .unwrap();
    let corrs = CorrespondenceBuilder::new(&source, &target)
        .table("t0", "x")
        .unwrap()
        .attr("t0", "id", "x", "a")
        .unwrap()
        .attr("lone", "id", "x", "b")
        .unwrap()
        .finish();
    let scenario = IntegrationScenario::single_source("mesh", source, target, corrs).unwrap();

    let deadline = Duration::from_secs(2);
    let started = Instant::now();
    let run = RunContext::new(CancellationToken::new(), Some(started + deadline));
    let config = EstimationConfig {
        execution: ExecutionPolicy::Sequential,
        ..EstimationConfig::default()
    };
    let estimate = Estimator::with_default_modules(config).estimate_with_cache_ctx(
        &scenario,
        Arc::new(ProfileCache::new()),
        run,
    );
    let took = started.elapsed();
    assert!(
        estimate.is_ok(),
        "the estimate overran its {deadline:?} deadline: {:?} after {took:?}",
        estimate.err()
    );
    assert!(took < deadline, "took {took:?}");
}
