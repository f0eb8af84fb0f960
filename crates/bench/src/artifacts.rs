//! Regeneration of the paper's Tables 1–9 and the running-example
//! figures (2, 4, 5).

use efes::baseline::{harden_total_hours_per_attribute, HARDEN_TASKS};
use efes::framework::EstimationModule;
use efes::modules::{MappingModule, StructureModule, ValueModule};
use efes::prelude::*;
use efes::report::text_table;
use efes::settings::Quality;
use efes::task::TaskType;
use efes_csg::planner::StructureTaskKind;
use efes_csg::violations::ConflictKind;
use efes_csg::{database_to_csg, detect_conflicts, match_relationships, NodeCorrespondences};
use efes_relational::{AttrId, SourceId};
use efes_scenarios::{music_example_scenario, MusicExampleConfig};

/// Table 1: Harden's per-attribute task hours.
pub fn table1() -> String {
    let rows: Vec<Vec<String>> = HARDEN_TASKS
        .iter()
        .map(|t| vec![t.name.to_owned(), format!("{:.2}", t.hours_per_attribute)])
        .collect();
    let mut out = String::from("Table 1: Tasks and effort per attribute from [Harden 2010].\n\n");
    out.push_str(&text_table(&["Task", "Hours per attribute"], &rows));
    out.push_str(&format!(
        "\nTotal: {:.2} hours per source attribute\n",
        harden_total_hours_per_attribute()
    ));
    out
}

/// Table 2: the mapping complexity report of the running example.
pub fn table2(cfg: &MusicExampleConfig) -> String {
    let (scenario, _) = music_example_scenario(cfg);
    let conns = MappingModule::connections(&scenario);
    let rows: Vec<Vec<String>> = conns
        .iter()
        .map(|c| {
            vec![
                scenario.target.schema.table(c.target_table).name.clone(),
                c.source_tables.len().to_string(),
                c.attributes.to_string(),
                if c.primary_key { "yes" } else { "no" }.to_owned(),
            ]
        })
        .collect();
    let mut out =
        String::from("Table 2: Mapping complexity report of the scenario in Figure 2.\n\n");
    out.push_str(&text_table(
        &["Target table", "Source tables", "Attributes", "Primary key"],
        &rows,
    ));
    out.push_str(
        "\nNote: the paper reports 3 source tables for `tracks`; our connection\n\
         counter yields 2 (songs + the albums anchor joined via songs.album).\n\
         See EXPERIMENTS.md.\n",
    );
    out
}

/// Table 3: the structure conflict detector's complexity report.
pub fn table3(cfg: &MusicExampleConfig) -> String {
    let (scenario, _) = music_example_scenario(cfg);
    let target_conv = database_to_csg(&scenario.target);
    let source_conv = database_to_csg(scenario.source(SourceId(0)));
    let corr =
        NodeCorrespondences::from_scenario(&scenario, SourceId(0), &target_conv, &source_conv);
    let matches = match_relationships(&target_conv.csg, &source_conv.csg, &corr);
    let conflicts = detect_conflicts(&target_conv, &source_conv, &matches);
    let rows: Vec<Vec<String>> = conflicts
        .iter()
        .map(|c| {
            vec![
                c.constraint_label.clone(),
                c.violation_count.to_string(),
            ]
        })
        .collect();
    let mut out =
        String::from("Table 3: Complexity report of the structure conflict detector.\n\n");
    out.push_str(&text_table(
        &["Constraint in target schema", "Violation count in source data"],
        &rows,
    ));
    out
}

/// Table 4: structural conflicts and their cleaning tasks.
pub fn table4() -> String {
    let rows: Vec<Vec<String>> = [
        ConflictKind::NotNullViolated,
        ConflictKind::UniqueViolated,
        ConflictKind::MultipleAttributeValues,
        ConflictKind::ValueWithoutEnclosingTuple,
        ConflictKind::FkViolated,
    ]
    .iter()
    .map(|k| {
        vec![
            k.label().to_owned(),
            StructureTaskKind::for_conflict(*k, Quality::LowEffort)
                .label()
                .to_owned(),
            StructureTaskKind::for_conflict(*k, Quality::HighQuality)
                .label()
                .to_owned(),
        ]
    })
    .collect();
    let mut out = String::from(
        "Table 4: Structural conflicts and their corresponding cleaning tasks.\n\n",
    );
    out.push_str(&text_table(
        &["Constraint", "Low effort", "High quality"],
        &rows,
    ));
    out
}

/// Table 5: the high-quality structure repair plan with efforts.
pub fn table5(cfg: &MusicExampleConfig) -> String {
    let (scenario, _) = music_example_scenario(cfg);
    let module = StructureModule::default();
    let config = EstimationConfig::for_quality(Quality::HighQuality);
    let report = module.assess(&scenario).expect("assessment");
    let tasks = module.plan(&scenario, &report, &config).expect("plan");
    let mut total = 0.0;
    let rows: Vec<Vec<String>> = tasks
        .iter()
        .map(|t| {
            let minutes = config.effort_model.minutes_for(t, &config.settings);
            total += minutes;
            vec![
                format!("{} ({})", t.task_type.label(), t.location),
                t.params.repetitions.to_string(),
                format!("{minutes:.0} mins"),
            ]
        })
        .collect();
    let mut out = String::from(
        "Table 5: High-quality structure repair tasks and their estimated effort.\n\n",
    );
    out.push_str(&text_table(&["Task", "Repetitions", "Effort"], &rows));
    out.push_str(&format!("\nTotal  {total:.0} mins\n"));
    out
}

/// Table 6: the value fit detector's complexity report.
pub fn table6(cfg: &MusicExampleConfig) -> String {
    let (scenario, _) = music_example_scenario(cfg);
    let module = ValueModule::default();
    let report = module.assess(&scenario).expect("assessment");
    let rows: Vec<Vec<String>> = report
        .findings
        .iter()
        .map(|f| {
            vec![
                format!("{} ({})", f.note, f.location),
                format!(
                    "{} source values, {} distinct source values",
                    f.int("source-values").unwrap_or(0),
                    f.int("distinct-source-values").unwrap_or(0)
                ),
            ]
        })
        .collect();
    let mut out = String::from("Table 6: Complexity report of the value fit detector.\n\n");
    out.push_str(&text_table(
        &["Value heterogeneity", "Additional parameters"],
        &rows,
    ));
    out
}

/// Table 7: value heterogeneities and their cleaning tasks.
pub fn table7() -> String {
    let rows = vec![
        vec!["Too few elements".into(), "-".into(), "Add values".into()],
        vec![
            "Different representations (critical)".into(),
            "Drop values".into(),
            "Convert values".into(),
        ],
        vec![
            "Different representations (uncritical)".into(),
            "-".into(),
            "Convert values".into(),
        ],
        vec!["Too specific".into(), "-".into(), "Generalize values".into()],
        vec!["Too general".into(), "-".into(), "Refine values".into()],
    ];
    let mut out = String::from(
        "Table 7: Value heterogeneities and corresponding cleaning tasks.\n\n",
    );
    out.push_str(&text_table(
        &["Value heterogeneity", "Low effort", "High quality"],
        &rows,
    ));
    out
}

/// Table 8: the value transformation plan with efforts.
///
/// The paper prices the 260,923-distinct-value conversion at 15 minutes —
/// its own Table 9 function would yield 65,231. We therefore print both:
/// the §6.1-adapted configuration (constant 15, reproducing Table 8
/// verbatim) and the Table 9 default.
pub fn table8(cfg: &MusicExampleConfig) -> String {
    let (scenario, _) = music_example_scenario(cfg);
    let module = ValueModule::default();
    let report = module.assess(&scenario).expect("assessment");
    let mut config = EstimationConfig::for_quality(Quality::HighQuality);
    // The adapted configuration of the worked example: one conversion
    // script regardless of volume.
    config
        .effort_model
        .set(TaskType::ConvertValues, efes::EffortFunction::Constant(15.0));
    let tasks = module.plan(&scenario, &report, &config).expect("plan");
    let mut total = 0.0;
    let default_model = EstimationConfig::default().effort_model;
    let mut rows = Vec::new();
    for t in &tasks {
        let minutes = config.effort_model.minutes_for(t, &config.settings);
        total += minutes;
        rows.push(vec![
            format!("{} ({})", t.task_type.label(), t.location),
            format!(
                "{} values, {} distinct values",
                t.params.values, t.params.distinct_values
            ),
            format!("{minutes:.0} mins"),
            format!(
                "{:.0} mins",
                default_model.minutes_for(t, &config.settings)
            ),
        ]);
    }
    let mut out = String::from(
        "Table 8: Value transformation tasks and their estimated effort.\n\n",
    );
    out.push_str(&text_table(
        &["Task", "Parameters", "Effort (adapted)", "Effort (Table 9 default)"],
        &rows,
    ));
    out.push_str(&format!("\nTotal (adapted)  {total:.0} mins\n"));
    out
}

/// Table 9: the effort-calculation functions.
pub fn table9() -> String {
    let model = efes::EffortModel::table9();
    let rows: Vec<Vec<String>> = model
        .iter()
        .map(|(t, f)| vec![t.label().to_owned(), f.describe()])
        .collect();
    let mut out = String::from(
        "Table 9: Effort calculation functions used for the experiments (minutes).\n\n",
    );
    out.push_str(&text_table(&["Task", "Effort function (mins)"], &rows));
    out
}

/// Figure 2: the running-example scenario (schemas, constraints,
/// correspondences, sample instances).
pub fn figure2(cfg: &MusicExampleConfig) -> String {
    let (scenario, _) = music_example_scenario(cfg);
    let mut out = String::from("Figure 2: The example data integration scenario.\n\n");
    out.push_str(&scenario.describe());
    out.push_str("\n\n(a) Schemas and constraints:\n");
    for db in scenario.sources.iter().chain(std::iter::once(&scenario.target)) {
        out.push_str(&format!("  {}:\n", db.name()));
        for (i, t) in db.schema.tables().iter().enumerate() {
            let cols: Vec<String> = t
                .attributes
                .iter()
                .enumerate()
                .map(|(ai, a)| {
                    let tid = efes_relational::TableId(i);
                    let aid = efes_relational::AttrId(ai);
                    let mut marks = Vec::new();
                    if db
                        .constraints
                        .primary_key(tid)
                        .is_some_and(|pk| pk.contains(&aid))
                    {
                        marks.push("PK");
                    }
                    if db.constraints.is_not_null(tid, aid) {
                        marks.push("NN");
                    }
                    if marks.is_empty() {
                        format!("{} {}", a.name, a.datatype)
                    } else {
                        format!("{} {} [{}]", a.name, a.datatype, marks.join(","))
                    }
                })
                .collect();
            out.push_str(&format!("    {}({})\n", t.name, cols.join(", ")));
        }
    }
    out.push_str("\n(b) Example instances from the target table tracks:\n");
    let tid = scenario.target.schema.table_id("tracks").unwrap();
    let tracks = scenario.target.instance.table(tid);
    for i in 0..tracks.len().min(3) {
        let cell = |a| tracks.value(i, AttrId(a));
        out.push_str(&format!(
            "    record {} | {} | {}\n",
            cell(0).render(),
            cell(1).to_value(),
            cell(2).to_value()
        ));
    }
    out.push_str("\n(c) Example instances from the source table songs:\n");
    let src = scenario.source(SourceId(0));
    let tid = src.schema.table_id("songs").unwrap();
    let songs = src.instance.table(tid);
    for i in 0..songs.len().min(3) {
        let cell = |a| songs.value(i, AttrId(a));
        out.push_str(&format!(
            "    album s{} | {} | {}\n",
            cell(0).render(),
            cell(1).to_value(),
            cell(3).render()
        ));
    }
    out
}

/// Figure 4: the source and target CSGs in Graphviz DOT.
pub fn figure4(cfg: &MusicExampleConfig) -> String {
    let (scenario, _) = music_example_scenario(cfg);
    let src = database_to_csg(scenario.source(SourceId(0)));
    let tgt = database_to_csg(&scenario.target);
    format!(
        "Figure 4: The integration scenario translated into cardinality-\n\
         constrained schema graphs (Graphviz DOT, render with `dot -Tsvg`).\n\n\
         // --- source CSG ---\n{}\n// --- target CSG ---\n{}",
        efes_csg::dot::to_dot(&src.csg),
        efes_csg::dot::to_dot(&tgt.csg)
    )
}

/// Figure 5: the virtual CSG instance as cleaning tasks are simulated.
pub fn figure5(cfg: &MusicExampleConfig) -> String {
    use efes_csg::virtual_instance::VirtualCsg;
    use efes_csg::planner::{plan_repairs, PlannerOptions};

    let (scenario, _) = music_example_scenario(cfg);
    let target_conv = database_to_csg(&scenario.target);
    let source_conv = database_to_csg(scenario.source(SourceId(0)));
    let corr =
        NodeCorrespondences::from_scenario(&scenario, SourceId(0), &target_conv, &source_conv);
    let matches = match_relationships(&target_conv.csg, &source_conv.csg, &corr);
    let conflicts = detect_conflicts(&target_conv, &source_conv, &matches);

    let mut out = String::from(
        "Figure 5: Extract of a virtual CSG instance as cleaning tasks are\n\
         performed on it (actual ⊆/⊄ prescribed cardinalities).\n\n(a) Initial state:\n",
    );
    let initial = VirtualCsg::from_conflicts(&target_conv, &matches, &conflicts);
    out.push_str(&initial.describe_state());

    // Re-run the plan while capturing each intermediate state.
    let plan = plan_repairs(
        &target_conv,
        &matches,
        &conflicts,
        Quality::HighQuality,
        &PlannerOptions::default(),
    )
    .expect("consistent repair strategy");
    let mut v = initial;
    for (i, step) in plan.iter().enumerate() {
        // Re-apply by replaying the planner on the same deterministic
        // order: apply one task at a time through the public simulation
        // API.
        let reading = efes_csg::RelRef {
            rel: efes_csg::graph::RelId(step.target_rel),
            dir: step.direction,
        };
        efes_csg::planner::apply_single_repair(&mut v, step.kind, reading);
        out.push_str(&format!(
            "\n({}) State after {} ({}) ×{}:\n",
            (b'b' + i as u8) as char,
            step.kind.label(),
            step.location,
            step.repetitions
        ));
        out.push_str(&v.describe_state());
    }
    out
}
