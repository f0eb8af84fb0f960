//! The value-heterogeneity estimation module (paper §5): the **value fit
//! detector** (Algorithm 1 over profiling statistics) and the **value
//! transformation planner** (Table 7).

use crate::config::EstimationConfig;
use crate::framework::{AssessContext, EstimationModule, Finding, ModuleError, ModuleReport};
use crate::settings::Quality;
use crate::task::{Task, TaskParams, TaskType};
use efes_exec::parallel_map;
use efes_profiling::{AttributeProfile, DbTag, FillStatus, ProfileKey};
use efes_relational::IntegrationScenario;
use serde::{Deserialize, Serialize};

/// The value heterogeneity types of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeterogeneityKind {
    /// `substantiallyFewerSourceValues` fired.
    TooFewSourceElements,
    /// `hasIncompatibleValues` fired: some source values cannot even be
    /// cast to the target datatype.
    DifferentRepresentationsCritical,
    /// Source domain-restricted, target not: *too coarse-grained source
    /// values* (Table 7's "Too general").
    TooCoarseGrained,
    /// Target domain-restricted, source not: *too fine-grained source
    /// values* (Table 7's "Too specific").
    TooFineGrained,
    /// `domainSpecificDifferences`: the importance-weighted fit fell
    /// below the threshold.
    DifferentRepresentations,
}

impl HeterogeneityKind {
    /// Paper wording.
    pub fn label(self) -> &'static str {
        match self {
            HeterogeneityKind::TooFewSourceElements => "Too few source elements",
            HeterogeneityKind::DifferentRepresentationsCritical => {
                "Different value representations (critical)"
            }
            HeterogeneityKind::TooCoarseGrained => "Too coarse-grained source values",
            HeterogeneityKind::TooFineGrained => "Too fine-grained source values",
            HeterogeneityKind::DifferentRepresentations => "Different value representations",
        }
    }

    fn as_key(self) -> &'static str {
        match self {
            HeterogeneityKind::TooFewSourceElements => "too-few",
            HeterogeneityKind::DifferentRepresentationsCritical => "different-critical",
            HeterogeneityKind::TooCoarseGrained => "too-coarse",
            HeterogeneityKind::TooFineGrained => "too-fine",
            HeterogeneityKind::DifferentRepresentations => "different",
        }
    }

    fn from_key(key: &str) -> Option<Self> {
        Some(match key {
            "too-few" => HeterogeneityKind::TooFewSourceElements,
            "different-critical" => HeterogeneityKind::DifferentRepresentationsCritical,
            "too-coarse" => HeterogeneityKind::TooCoarseGrained,
            "too-fine" => HeterogeneityKind::TooFineGrained,
            "different" => HeterogeneityKind::DifferentRepresentations,
            _ => return None,
        })
    }
}

/// The value module.
#[derive(Debug, Clone)]
pub struct ValueModule {
    /// Fit threshold below which `domainSpecificDifferences` fires —
    /// *"we found 0.9 to be a good threshold"* (§5.1).
    pub fit_threshold: f64,
    /// Margin for `substantiallyFewerSourceValues` (absolute fill-ratio
    /// difference).
    pub fewer_values_margin: f64,
}

impl Default for ValueModule {
    fn default() -> Self {
        ValueModule {
            fit_threshold: 0.9,
            fewer_values_margin: 0.2,
        }
    }
}

impl ValueModule {
    /// Algorithm 1 for one attribute correspondence: profile both ends
    /// (through the shared cache) and emit the heterogeneity findings.
    fn assess_correspondence(
        &self,
        scenario: &IntegrationScenario,
        ctx: &AssessContext,
        sid: efes_relational::SourceId,
        source: &efes_relational::Database,
        sa: efes_relational::AttrRef,
        ta: efes_relational::AttrRef,
    ) -> Result<Vec<Finding>, ModuleError> {
        let target_type = scenario
            .target
            .schema
            .table(ta.table)
            .attribute(ta.attr)
            .datatype;
        let cancelled = || ModuleError::cancelled("values");
        let source_profile = ctx
            .cache
            .of_attribute_ctx(
                &ctx.run,
                source,
                ProfileKey {
                    db: DbTag::source(sid.0 as u32),
                    table: sa.table,
                    attr: sa.attr,
                    reference_type: target_type,
                },
            )
            .map_err(|_| cancelled())?;
        let target_profile = ctx
            .cache
            .of_attribute_ctx(
                &ctx.run,
                &scenario.target,
                ProfileKey {
                    db: DbTag::TARGET,
                    table: ta.table,
                    attr: ta.attr,
                    reference_type: target_type,
                },
            )
            .map_err(|_| cancelled())?;
        let location = format!(
            "{} → {}",
            source.schema.qualified(sa.table, sa.attr),
            scenario.target.schema.qualified(ta.table, ta.attr)
        );
        let source_values = source.instance.table(sa.table).len() as u64;
        // The profile's constancy counts the distinct non-null values:
        // `Column::distinct_count`, without a second pass.
        let distinct = source_profile.constancy.distinct as u64;

        let mut heterogeneities: Vec<(HeterogeneityKind, f64)> = Vec::new();
        // Rule 1: substantiallyFewerSourceValues.
        if FillStatus::substantially_fewer(
            &source_profile.fill,
            &target_profile.fill,
            self.fewer_values_margin,
        ) {
            heterogeneities.push((
                HeterogeneityKind::TooFewSourceElements,
                source_profile.fill.presence_ratio(),
            ));
        }
        // Rule 2: hasIncompatibleValues.
        if source_profile.fill.has_incompatible() {
            heterogeneities.push((
                HeterogeneityKind::DifferentRepresentationsCritical,
                source_profile.fill.incompatible as f64,
            ));
        }
        // Rules 3–5: domain granularity, then domain-specific
        // differences. An empty target column cannot designate
        // characteristics, so the fit rule only applies when the
        // target carries data.
        let target_has_data = target_profile.fill.total > 0;
        let src_restricted = source_profile.domain_restricted();
        let tgt_restricted = target_has_data && target_profile.domain_restricted();
        // Granularity rules additionally require a real disparity
        // in domain sizes (≥ 3×): a borderline restricted/open
        // classification with similar distinct counts is a format
        // question (rule 5), not a granularity one.
        let src_distinct = source_profile.constancy.distinct.max(1);
        let tgt_distinct = target_profile.constancy.distinct.max(1);
        if target_has_data
            && src_restricted
            && !tgt_restricted
            && tgt_distinct >= 3 * src_distinct
        {
            heterogeneities.push((HeterogeneityKind::TooCoarseGrained, 0.0));
        } else if target_has_data
            && !src_restricted
            && tgt_restricted
            && src_distinct >= 3 * tgt_distinct
        {
            heterogeneities.push((HeterogeneityKind::TooFineGrained, 0.0));
        } else if target_has_data {
            let fit = AttributeProfile::fit_against(&source_profile, &target_profile);
            if fit.overall < self.fit_threshold {
                heterogeneities.push((HeterogeneityKind::DifferentRepresentations, fit.overall));
            }
        }

        Ok(heterogeneities
            .into_iter()
            .map(|(kind, score)| {
                Finding::new(
                    "value-heterogeneity",
                    location.clone(),
                    kind.label().to_owned(),
                )
                .with_text("heterogeneity", kind.as_key())
                .with_int("source-values", source_values)
                .with_int("distinct-source-values", distinct)
                .with_float("score", score)
            })
            .collect())
    }
}

impl EstimationModule for ValueModule {
    fn name(&self) -> &str {
        "values"
    }

    /// Algorithm 1, per attribute correspondence.
    fn assess(&self, scenario: &IntegrationScenario) -> Result<ModuleReport, ModuleError> {
        self.assess_with(scenario, &AssessContext::standalone())
    }

    /// Correspondences are independent of each other, so they fan out
    /// under `ctx.mode`; findings are flattened back in correspondence
    /// order, keeping the report identical to a sequential pass.
    fn assess_with(
        &self,
        scenario: &IntegrationScenario,
        ctx: &AssessContext,
    ) -> Result<ModuleReport, ModuleError> {
        let units: Vec<_> = scenario
            .iter_sources()
            .flat_map(|(sid, source)| {
                scenario
                    .correspondences
                    .attribute_correspondences(sid)
                    .map(move |(sa, ta)| (sid, source, sa, ta))
            })
            .collect();
        let mut report = ModuleReport::new(self.name());
        for findings in parallel_map(ctx.mode, units, |(sid, source, sa, ta)| {
            self.assess_correspondence(scenario, ctx, sid, source, sa, ta)
        }) {
            report.findings.extend(findings?);
        }
        Ok(report)
    }

    /// Table 7: tasks per heterogeneity and quality. *"for a low-effort
    /// integration result, value heterogeneities can in most cases be
    /// simply ignored"* — the `-` cells plan nothing.
    fn plan(
        &self,
        _scenario: &IntegrationScenario,
        report: &ModuleReport,
        config: &EstimationConfig,
    ) -> Result<Vec<Task>, ModuleError> {
        let mut tasks = Vec::new();
        for f in report.of_kind("value-heterogeneity") {
            let Some(kind) = f.text("heterogeneity").and_then(HeterogeneityKind::from_key)
            else {
                continue;
            };
            let params = TaskParams {
                values: f.int("source-values").unwrap_or(0),
                distinct_values: f.int("distinct-source-values").unwrap_or(0),
                repetitions: 1,
                ..TaskParams::default()
            };
            let task_type = match (kind, config.quality) {
                (HeterogeneityKind::TooFewSourceElements, Quality::LowEffort) => None,
                (HeterogeneityKind::TooFewSourceElements, Quality::HighQuality) => {
                    Some(TaskType::AddValues)
                }
                (HeterogeneityKind::DifferentRepresentationsCritical, Quality::LowEffort) => {
                    Some(TaskType::DropValues)
                }
                (HeterogeneityKind::DifferentRepresentationsCritical, Quality::HighQuality) => {
                    Some(TaskType::ConvertValues)
                }
                (HeterogeneityKind::DifferentRepresentations, Quality::LowEffort) => None,
                (HeterogeneityKind::DifferentRepresentations, Quality::HighQuality) => {
                    Some(TaskType::ConvertValues)
                }
                (HeterogeneityKind::TooFineGrained, Quality::LowEffort) => None,
                (HeterogeneityKind::TooFineGrained, Quality::HighQuality) => {
                    Some(TaskType::GeneralizeValues)
                }
                (HeterogeneityKind::TooCoarseGrained, Quality::LowEffort) => None,
                (HeterogeneityKind::TooCoarseGrained, Quality::HighQuality) => {
                    Some(TaskType::RefineValues)
                }
            };
            if let Some(tt) = task_type {
                // "Add values" for too-few-elements repairs the *missing*
                // values, not every row.
                let mut params = params;
                if kind == HeterogeneityKind::TooFewSourceElements {
                    let missing = ((1.0 - f.float("score").unwrap_or(0.0))
                        * params.values as f64)
                        .round() as u64;
                    params.values = missing;
                    params.distinct_values = params.distinct_values.min(missing);
                }
                tasks.push(Task::new(
                    tt,
                    config.quality,
                    params,
                    f.location.clone(),
                    self.name(),
                ));
            }
        }
        Ok(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use efes_relational::{CorrespondenceBuilder, DataType, DatabaseBuilder, Database, Value};

    /// songs.length (millisecond integers) vs tracks.duration (m:ss
    /// strings with pre-existing target data) — Example 3.3.
    fn scenario() -> IntegrationScenario {
        const SRC_TITLES: &[&str] = &[
            "Sweet Home Alabama",
            "I Need You",
            "Don't Ask Me No Questions",
            "Workin' for MCA",
            "The Ballad of Curtis Loew",
            "Swamp Music",
            "The Needle and the Spoon",
            "Call Me the Breeze",
            "Hands Up",
            "Labor Day",
            "Anxiety",
            "Lose Yourself",
            "Without Me",
            "Rolling in the Deep",
            "Someone Like You",
            "Set Fire to the Rain",
            "Turning Tables",
            "Rumour Has It",
            "Take It or Leave It",
            "One and Only",
        ];
        const TGT_TITLES: &[&str] = &[
            "Smells Like Teen Spirit",
            "Come as You Are",
            "Lithium",
            "In Bloom",
            "Gloria",
            "Redondo Beach",
            "Birdland",
            "Free Money",
            "Kimberly",
            "Break It Up",
        ];
        let mut source = DatabaseBuilder::new("src")
            .table("songs", |t| {
                t.attr("name", DataType::Text).attr("length", DataType::Integer)
            })
            .build()
            .unwrap();
        for (i, title) in SRC_TITLES.iter().enumerate() {
            source
                .insert_by_name(
                    "songs",
                    vec![(*title).into(), (180_000 + i as i64 * 7411).into()],
                )
                .unwrap();
        }
        let mut target = DatabaseBuilder::new("tgt")
            .table("tracks", |t| {
                t.attr("title", DataType::Text).attr("duration", DataType::Text)
            })
            .build()
            .unwrap();
        for (i, title) in TGT_TITLES.iter().enumerate() {
            let i = i as i64;
            target
                .insert_by_name(
                    "tracks",
                    vec![
                        (*title).into(),
                        format!("{}:{:02}", 3 + i % 4, (i * 13) % 60).into(),
                    ],
                )
                .unwrap();
        }
        let corrs = CorrespondenceBuilder::new(&source, &target)
            .table("songs", "tracks")
            .unwrap()
            .attr("songs", "name", "tracks", "title")
            .unwrap()
            .attr("songs", "length", "tracks", "duration")
            .unwrap()
            .finish();
        IntegrationScenario::single_source("values-test", source, target, corrs).unwrap()
    }

    #[test]
    fn detects_length_duration_heterogeneity() {
        let m = ValueModule::default();
        let report = m.assess(&scenario()).unwrap();
        let het = report
            .findings
            .iter()
            .find(|f| f.location.contains("length"))
            .expect("length→duration heterogeneity");
        assert_eq!(het.text("heterogeneity"), Some("different"));
        assert_eq!(het.int("source-values"), Some(20));
        assert_eq!(het.int("distinct-source-values"), Some(20));
        // name → title must NOT be flagged: free text fits free text.
        assert!(report
            .findings
            .iter()
            .all(|f| !f.location.contains("songs.name")));
    }

    #[test]
    fn table7_high_quality_converts_low_effort_ignores() {
        let m = ValueModule::default();
        let s = scenario();
        let report = m.assess(&s).unwrap();
        let high = m
            .plan(&s, &report, &EstimationConfig::for_quality(Quality::HighQuality))
            .unwrap();
        assert_eq!(high.len(), 1);
        assert_eq!(high[0].task_type, TaskType::ConvertValues);
        let low = m
            .plan(&s, &report, &EstimationConfig::for_quality(Quality::LowEffort))
            .unwrap();
        assert!(low.is_empty(), "uncritical heterogeneities are ignored at low effort");
    }

    fn single_column_db(name: &str, dt: DataType, values: Vec<Value>) -> Database {
        let mut b = DatabaseBuilder::new(name).table("t", |t| t.attr("a", dt));
        b = b.rows("t", values.into_iter().map(|v| vec![v]).collect());
        b.build().unwrap()
    }

    fn pair_scenario(source: Database, target: Database) -> IntegrationScenario {
        let corrs = CorrespondenceBuilder::new(&source, &target)
            .table("t", "t")
            .unwrap()
            .attr("t", "a", "t", "a")
            .unwrap()
            .finish();
        IntegrationScenario::single_source("pair", source, target, corrs).unwrap()
    }

    #[test]
    fn critical_heterogeneity_for_uncastable_values() {
        // Text durations cannot be cast into an integer target column.
        let source = single_column_db(
            "s",
            DataType::Text,
            vec!["4:43".into(), "6:55".into(), "3:26".into()],
        );
        let target = single_column_db("t", DataType::Integer, vec![215900.into(), 238100.into()]);
        let m = ValueModule::default();
        let s = pair_scenario(source, target);
        let report = m.assess(&s).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.text("heterogeneity") == Some("different-critical")));
        // Low effort on critical: Drop values (10 mins), not ignored.
        let low = m
            .plan(&s, &report, &EstimationConfig::for_quality(Quality::LowEffort))
            .unwrap();
        assert!(low.iter().any(|t| t.task_type == TaskType::DropValues));
    }

    #[test]
    fn too_few_source_values_detected() {
        let source = single_column_db(
            "s",
            DataType::Text,
            vec!["x".into(), Value::Null, Value::Null, Value::Null],
        );
        let target = single_column_db(
            "t",
            DataType::Text,
            vec!["a".into(), "b".into(), "c".into(), "d".into()],
        );
        let m = ValueModule::default();
        let s = pair_scenario(source, target);
        let report = m.assess(&s).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.text("heterogeneity") == Some("too-few")));
        let high = m
            .plan(&s, &report, &EstimationConfig::for_quality(Quality::HighQuality))
            .unwrap();
        let add = high.iter().find(|t| t.task_type == TaskType::AddValues).unwrap();
        assert_eq!(add.params.values, 3); // the three missing values
    }

    #[test]
    fn granularity_mismatch_detected() {
        // Source: a tiny label vocabulary; target: free-form strings.
        let source = single_column_db(
            "s",
            DataType::Text,
            (0..40).map(|i| ["rock", "pop"][i % 2].into()).collect(),
        );
        let target = single_column_db(
            "t",
            DataType::Text,
            (0..40).map(|i| format!("Free text value number {i}").into()).collect(),
        );
        let m = ValueModule::default();
        let s = pair_scenario(source, target);
        let report = m.assess(&s).unwrap();
        assert!(report
            .findings
            .iter()
            .any(|f| f.text("heterogeneity") == Some("too-coarse")));
        let high = m
            .plan(&s, &report, &EstimationConfig::for_quality(Quality::HighQuality))
            .unwrap();
        assert!(high.iter().any(|t| t.task_type == TaskType::RefineValues));
    }

    #[test]
    fn identical_columns_report_nothing() {
        let data: Vec<Value> = (0..30).map(|i| format!("{}:{:02}", 3 + i % 5, i % 60).into()).collect();
        let source = single_column_db("s", DataType::Text, data.clone());
        let target = single_column_db("t", DataType::Text, data);
        let m = ValueModule::default();
        let s = pair_scenario(source, target);
        let report = m.assess(&s).unwrap();
        assert!(report.findings.is_empty(), "{report:?}");
    }
}
