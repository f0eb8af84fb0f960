//! Attribute profiles: all statistics of one column, plus the
//! importance-weighted fit combination of §5.1.

use crate::partial::PartialProfile;
use crate::stats::{
    CharHistogram, Constancy, FillStatus, NumericHistogram, NumericMean, StringLength,
    TextPatterns, TopK, ValueRange,
};
use efes_relational::schema::{AttrId, TableId};
use efes_relational::{Column, DataType, Database, Value, ValueRef};
use serde::{Deserialize, Serialize};

/// One statistic's contribution to the overall fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitComponent {
    /// Statistic name (e.g. `"text-patterns"`).
    pub statistic: String,
    /// Importance weight taken from the target's statistic.
    pub importance: f64,
    /// Fit of the source statistic into the target statistic.
    pub fit: f64,
}

/// The weighted-fit result: `f = Σ i·f / Σ i` over all applied statistics
/// (§5.1's formula, normalised so that weights form a convex combination).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitBreakdown {
    /// Per-statistic contributions.
    pub components: Vec<FitComponent>,
    /// The overall fit in `[0,1]`.
    pub overall: f64,
}

/// All statistics of a single attribute's column, computed against a
/// reference (target) datatype.
///
/// ```
/// use efes_profiling::AttributeProfile;
/// use efes_relational::{DataType, Value};
///
/// // The paper's Example 3.3: m:ss duration strings vs millisecond ints.
/// // (Columns need ~20+ values: tiny samples are confidence-discounted.)
/// let durations: Vec<Value> = (0..24)
///     .map(|i| Value::from(format!("{}:{:02}", 3 + i % 5, (i * 13) % 60)))
///     .collect();
/// let millis: Vec<Value> = (0..24).map(|i| Value::from(180_000i64 + i * 4321)).collect();
///
/// let target = AttributeProfile::compute(durations.iter(), DataType::Text);
/// let source = AttributeProfile::compute(millis.iter(), DataType::Text);
/// let fit = AttributeProfile::fit_against(&source, &target);
/// assert!(fit.overall < 0.9, "flagged as a value heterogeneity");
/// ```
///
/// The paper computes, per correspondence, statistics for both ends with
/// *"the target attribute's datatype designating which exact statistic
/// types to use"*. [`AttributeProfile::compute`] therefore takes that
/// designated type, not the column's own declared type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeProfile {
    /// The datatype the statistics were selected for.
    pub reference_type: DataType,
    /// Fill status (always computed).
    pub fill: FillStatus,
    /// Constancy (always computed).
    pub constancy: Constancy,
    /// Text patterns (string-designated attributes).
    pub text_patterns: Option<TextPatterns>,
    /// Character histogram (string-designated attributes).
    pub char_histogram: Option<CharHistogram>,
    /// String lengths (string-designated attributes).
    pub string_length: Option<StringLength>,
    /// Mean/σ (numeric-designated attributes).
    pub mean: Option<NumericMean>,
    /// Equi-width histogram (numeric-designated attributes).
    pub histogram: Option<NumericHistogram>,
    /// Min/max (numeric-designated attributes).
    pub range: Option<ValueRange>,
    /// Top-k values (always computed; weighted by domain-restriction).
    pub top_k: TopK,
}

impl AttributeProfile {
    /// Profile a column (an iterator of values) against `reference_type`.
    ///
    /// Pushes the values into a typed [`Column`], as
    /// [`Column::from_cells`] does, and profiles that through the one
    /// [`PartialProfile`] kernel. The output is bit-identical to the
    /// multi-pass oracle, [`AttributeProfile::compute_multipass`] (the
    /// property tests in this crate compare them field for field).
    pub fn compute<'a, I>(values: I, reference_type: DataType) -> Self
    where
        I: IntoIterator<Item = &'a Value>,
    {
        let mut column = Column::default();
        for v in values {
            column.push(ValueRef::of(v));
        }
        Self::compute_columnar(&column, reference_type)
    }

    /// The multi-pass oracle: one full walk of the column per statistic,
    /// exactly as each statistic's own `compute` defines it. The
    /// executable specification the accumulator is differentially tested
    /// (and benchmarked) against; no production path calls it.
    pub fn compute_multipass<'a, I>(values: I, reference_type: DataType) -> Self
    where
        I: IntoIterator<Item = &'a Value>,
        I::IntoIter: Clone,
    {
        let it = values.into_iter();
        let fill = FillStatus::compute(it.clone(), reference_type);
        let constancy = Constancy::compute(it.clone());
        let top_k = TopK::compute(it.clone(), TopK::DEFAULT_K);
        let mut p = AttributeProfile {
            reference_type,
            fill,
            constancy,
            text_patterns: None,
            char_histogram: None,
            string_length: None,
            mean: None,
            histogram: None,
            range: None,
            top_k,
        };
        match reference_type {
            DataType::Text => {
                p.text_patterns = Some(TextPatterns::compute(it.clone()));
                p.char_histogram = Some(CharHistogram::compute(it.clone()));
                p.string_length = Some(StringLength::compute(it));
            }
            DataType::Integer | DataType::Float => {
                p.mean = Some(NumericMean::compute(it.clone()));
                p.histogram = Some(NumericHistogram::compute(
                    it.clone(),
                    NumericHistogram::DEFAULT_BUCKETS,
                ));
                p.range = Some(ValueRange::compute(it));
            }
            DataType::Boolean => {}
        }
        p
    }

    /// Profile a typed [`Column`] directly through
    /// [`PartialProfile::of_column_ctx`]: per-value work once per
    /// distinct value of the column's first-seen numbering.
    pub fn compute_columnar(column: &Column, reference_type: DataType) -> Self {
        let run = efes_exec::RunContext::unbounded();
        PartialProfile::of_column_ctx(column, reference_type, &run.checkpoint())
            .expect("unbounded context never cancels")
            .finalize()
    }

    /// Profile a concrete attribute of a database from its typed column
    /// store.
    pub fn of_attribute(
        db: &Database,
        table: TableId,
        attr: AttrId,
        reference_type: DataType,
    ) -> Self {
        let ctx = efes_exec::RunContext::unbounded();
        let ck = ctx.checkpoint();
        Self::of_attribute_ctx(db, table, attr, reference_type, &ck)
            .expect("unbounded context never cancels")
    }

    /// [`of_attribute`](Self::of_attribute) with a cancellation
    /// [`Checkpoint`](efes_exec::Checkpoint) ticked once per cell, so a
    /// cancelled run aborts the walk within one check interval.
    pub fn of_attribute_ctx(
        db: &Database,
        table: TableId,
        attr: AttrId,
        reference_type: DataType,
        ck: &efes_exec::Checkpoint<'_>,
    ) -> Result<Self, efes_exec::Cancelled> {
        Ok(PartialProfile::of_attribute_ctx(db, table, attr, reference_type, ck)?.finalize())
    }

    /// The `domainRestricted` predicate of Algorithm 1.
    pub fn domain_restricted(&self) -> bool {
        self.constancy.domain_restricted()
    }

    /// The importance-weighted fit of `source` into `target` (§5.1):
    /// `f = Σ_τ i(S_t(τ)) · f(S_s(τ), S_t(τ)) / Σ_τ i(S_t(τ))`.
    ///
    /// Only statistics present on both profiles participate. If the target
    /// has no characteristic statistic at all (all importances 0), the fit
    /// defaults to 1: nothing observable to violate.
    pub fn fit_against(source: &AttributeProfile, target: &AttributeProfile) -> FitBreakdown {
        let mut components = Vec::new();

        if let (Some(s), Some(t)) = (&source.text_patterns, &target.text_patterns) {
            components.push(FitComponent {
                statistic: "text-patterns".to_owned(),
                importance: t.importance(),
                fit: TextPatterns::fit(s, t),
            });
        }
        if let (Some(s), Some(t)) = (&source.char_histogram, &target.char_histogram) {
            components.push(FitComponent {
                statistic: "char-histogram".to_owned(),
                importance: t.importance(),
                fit: CharHistogram::fit(s, t),
            });
        }
        if let (Some(s), Some(t)) = (&source.string_length, &target.string_length) {
            components.push(FitComponent {
                statistic: "string-length".to_owned(),
                importance: t.importance(),
                fit: StringLength::fit(s, t),
            });
        }
        if let (Some(s), Some(t)) = (&source.mean, &target.mean) {
            components.push(FitComponent {
                statistic: "mean".to_owned(),
                importance: t.importance(),
                fit: NumericMean::fit(s, t),
            });
        }
        if let (Some(s), Some(t)) = (&source.histogram, &target.histogram) {
            components.push(FitComponent {
                statistic: "histogram".to_owned(),
                importance: t.importance(),
                fit: NumericHistogram::fit(s, t),
            });
        }
        if let (Some(s), Some(t)) = (&source.range, &target.range) {
            components.push(FitComponent {
                statistic: "value-range".to_owned(),
                importance: t.importance(),
                fit: ValueRange::fit(s, t),
            });
        }
        // Top-k participates for text-designated attributes when either
        // side is domain-restricted: a shared controlled vocabulary is
        // then the defining characteristic. Numeric attributes are
        // excluded — two samples of the same numeric domain (years,
        // ratings) legitimately disagree on exact values while mean/
        // range/histogram already capture their compatibility.
        if target.reference_type == DataType::Text
            && (source.domain_restricted() || target.domain_restricted())
        {
            components.push(FitComponent {
                statistic: "top-k".to_owned(),
                importance: target.top_k.importance(),
                fit: TopK::fit(&source.top_k, &target.top_k),
            });
        }

        // Combine as importance-discounted penalties: each statistic can
        // only hurt the fit to the extent it is characteristic for the
        // target (`1 − i·(1−f)`), and the overall fit is their mean. A
        // plain importance-weighted average would let weak statistics
        // dominate attributes that have *no* strong characteristics
        // (free-text titles), flagging legitimately compatible columns;
        // with discounted penalties such targets converge to fit ≈ 1 —
        // "nothing important to violate" — which is the semantics §5.1
        // describes ("to what extent the source attribute fulfills the
        // most important characteristics of the target attribute").
        let overall = if components.is_empty() {
            1.0
        } else {
            components
                .iter()
                .map(|c| 1.0 - c.importance * (1.0 - c.fit))
                .sum::<f64>()
                / components.len() as f64
        };
        // Sample-size confidence: a handful of values cannot establish a
        // heterogeneity — discount the penalty toward neutral (fit 1)
        // when either column holds fewer than 20 non-null values. Gross
        // mismatches (raw fit ≈ 0) still fall below the 0.9 threshold at
        // 8+ values; mild statistical noise does not.
        let min_count = source.constancy.count.min(target.constancy.count) as f64;
        let confidence = (min_count / 20.0).clamp(0.0, 1.0);
        let overall = 1.0 - confidence * (1.0 - overall);
        FitBreakdown {
            components,
            overall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(items: &[&str]) -> Vec<Value> {
        items.iter().map(|s| Value::Text((*s).into())).collect()
    }

    fn durations() -> Vec<Value> {
        texts(&["4:43", "6:55", "3:26", "5:12", "2:58", "4:01", "7:33", "3:44"])
    }

    fn millis() -> Vec<Value> {
        vec![
            Value::Int(215900),
            Value::Int(238100),
            Value::Int(218200),
            Value::Int(312000),
            Value::Int(178000),
        ]
    }

    #[test]
    fn paper_example_length_vs_duration_fits_below_threshold() {
        // tracks.duration is Text, so Text designates the statistics.
        let target = AttributeProfile::compute(durations().iter(), DataType::Text);
        let source = AttributeProfile::compute(millis().iter(), DataType::Text);
        let fit = AttributeProfile::fit_against(&source, &target);
        assert!(
            fit.overall < 0.9,
            "millisecond lengths must not fit m:ss durations (got {})",
            fit.overall
        );
    }

    #[test]
    fn self_fit_is_essentially_one() {
        let target = AttributeProfile::compute(durations().iter(), DataType::Text);
        let fit = AttributeProfile::fit_against(&target, &target);
        assert!(fit.overall > 0.95, "self fit was {}", fit.overall);
    }

    #[test]
    fn numeric_profiles_use_numeric_statistics() {
        let p = AttributeProfile::compute(millis().iter(), DataType::Integer);
        assert!(p.mean.is_some() && p.range.is_some() && p.histogram.is_some());
        assert!(p.text_patterns.is_none());
    }

    #[test]
    fn text_profiles_use_string_statistics() {
        let p = AttributeProfile::compute(durations().iter(), DataType::Text);
        assert!(p.text_patterns.is_some() && p.char_histogram.is_some());
        assert!(p.mean.is_none());
    }

    #[test]
    fn compatible_numeric_columns_fit() {
        let a: Vec<Value> = (1990..2015).map(Value::Int).collect();
        let b: Vec<Value> = (1985..2012).map(Value::Int).collect();
        let ta = AttributeProfile::compute(a.iter(), DataType::Integer);
        let tb = AttributeProfile::compute(b.iter(), DataType::Integer);
        let fit = AttributeProfile::fit_against(&tb, &ta);
        assert!(fit.overall > 0.9, "year ranges should fit (got {})", fit.overall);
    }

    #[test]
    fn boolean_targets_have_neutral_fit() {
        let a = [Value::Bool(true), Value::Bool(false)];
        let ta = AttributeProfile::compute(a.iter(), DataType::Boolean);
        let tb = AttributeProfile::compute(a.iter(), DataType::Boolean);
        let fit = AttributeProfile::fit_against(&tb, &ta);
        // Booleans are domain-restricted, so top-k should carry the fit.
        assert!(fit.overall > 0.99);
    }

    #[test]
    fn breakdown_components_are_reported() {
        let target = AttributeProfile::compute(durations().iter(), DataType::Text);
        let source = AttributeProfile::compute(millis().iter(), DataType::Text);
        let fit = AttributeProfile::fit_against(&source, &target);
        let names: Vec<&str> = fit.components.iter().map(|c| c.statistic.as_str()).collect();
        assert!(names.contains(&"text-patterns"));
        assert!(names.contains(&"string-length"));
    }
}
