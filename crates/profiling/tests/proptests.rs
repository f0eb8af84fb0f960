//! Property-based tests for the profiling statistics.
//!
//! The invariants here back the §5.1 machinery: all importance and fit
//! scores stay in [0,1], self-fit of any column is ≥ the domain-difference
//! threshold (0.9), and fill ratios behave monotonically.

use efes_exec::RunContext;
use efes_profiling::stats::*;
use efes_profiling::{AttributeProfile, DbTag, PartialProfile, ProfileCache, ProfileKey};
use efes_relational::schema::{AttrId, TableId};
use efes_relational::{Column, DataType, DatabaseBuilder, Value};
use proptest::prelude::*;

fn arb_column() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(Value::Null),
            10 => (-10_000i64..10_000).prop_map(Value::Int),
            10 => "[a-z0-9:\\. -]{0,15}".prop_map(Value::Text),
            2 => any::<bool>().prop_map(Value::Bool),
        ],
        0..60,
    )
}

/// Like [`arb_column`] but with floats mixed in (kept finite: a NaN
/// statistic is NaN on both sides yet `NaN != NaN` would fail the
/// differential equality assertions below).
fn arb_column_with_floats() -> impl Strategy<Value = Vec<Value>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(Value::Null),
            8 => (-10_000i64..10_000).prop_map(Value::Int),
            6 => (-1.0e6f64..1.0e6).prop_map(Value::Float),
            8 => "[a-z0-9:é\\. -]{0,15}".prop_map(Value::Text),
            2 => any::<bool>().prop_map(Value::Bool),
        ],
        0..60,
    )
}

/// A column every declared datatype admits, paired with that type, so a
/// [`DatabaseBuilder`] accepts it — exercising each typed `Column`
/// variant (and the `Mixed` fallback via int-bearing float columns) in
/// the columnar-vs-multipass test.
fn arb_admitted_column() -> impl Strategy<Value = (Vec<Value>, DataType)> {
    prop_oneof![
        (
            proptest::collection::vec(
                prop_oneof![
                    2 => Just(Value::Null),
                    8 => (-10_000i64..10_000).prop_map(Value::Int),
                ],
                0..50,
            ),
            Just(DataType::Integer)
        ),
        (
            proptest::collection::vec(
                prop_oneof![
                    2 => Just(Value::Null),
                    5 => (-10_000i64..10_000).prop_map(Value::Int),
                    5 => (-1.0e6f64..1.0e6).prop_map(Value::Float),
                ],
                0..50,
            ),
            Just(DataType::Float)
        ),
        (
            proptest::collection::vec(
                prop_oneof![
                    2 => Just(Value::Null),
                    8 => "[a-z0-9:é\\. -]{0,15}".prop_map(Value::Text),
                ],
                0..50,
            ),
            Just(DataType::Text)
        ),
        (
            proptest::collection::vec(
                prop_oneof![
                    2 => Just(Value::Null),
                    8 => any::<bool>().prop_map(Value::Bool),
                ],
                0..50,
            ),
            Just(DataType::Boolean)
        ),
    ]
}

/// The columns the append differentials draw from: columns a declared
/// type admits, and free mixes of every variant. A mix's prefix can be a
/// text, boolean or integer column whose full column is `Mixed`, so a
/// partial of the prefix must read the extended column's numbering.
fn arb_extendable_column() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        arb_admitted_column().prop_map(|(col, _)| col),
        arb_column_with_floats(),
    ]
}

fn arb_homogeneous_column() -> impl Strategy<Value = (Vec<Value>, DataType)> {
    prop_oneof![
        proptest::collection::vec((-10_000i64..10_000).prop_map(Value::Int), 1..60)
            .prop_map(|v| (v, DataType::Integer)),
        proptest::collection::vec("[a-z0-9:\\. -]{1,15}".prop_map(Value::Text), 1..60)
            .prop_map(|v| (v, DataType::Text)),
    ]
}

proptest! {
    /// Every statistic's importance and every pairwise fit is within [0,1].
    #[test]
    fn scores_are_unit_interval(a in arb_column(), b in arb_column()) {
        for dt in [DataType::Text, DataType::Integer, DataType::Float, DataType::Boolean] {
            let pa = AttributeProfile::compute(a.iter(), dt);
            let pb = AttributeProfile::compute(b.iter(), dt);
            let fit = AttributeProfile::fit_against(&pa, &pb);
            prop_assert!((0.0..=1.0).contains(&fit.overall), "overall {}", fit.overall);
            for c in &fit.components {
                prop_assert!((0.0..=1.0).contains(&c.importance), "imp {}", c.importance);
                prop_assert!((0.0..=1.0).contains(&c.fit), "fit {}", c.fit);
            }
        }
    }

    /// An attribute always fits itself above the paper's 0.9 threshold —
    /// otherwise identical-schema scenarios (s4-s4, d1-d2) would report
    /// spurious value heterogeneities.
    #[test]
    fn self_fit_clears_threshold((col, dt) in arb_homogeneous_column()) {
        let p = AttributeProfile::compute(col.iter(), dt);
        let fit = AttributeProfile::fit_against(&p, &p);
        prop_assert!(fit.overall > 0.9, "self fit {} for {:?}", fit.overall, dt);
    }

    /// Fill ratio is (total - nulls - incompatible) / total and in [0,1].
    #[test]
    fn fill_ratio_bounds(col in arb_column()) {
        let fs = FillStatus::compute(col.iter(), DataType::Integer);
        prop_assert!((0.0..=1.0).contains(&fs.fill_ratio()));
        prop_assert!(fs.nulls + fs.incompatible <= fs.total);
    }

    /// Constancy is in [0,1] and equals 1 iff at most one distinct value.
    #[test]
    fn constancy_bounds(col in arb_column()) {
        let c = Constancy::compute(col.iter());
        prop_assert!((0.0..=1.0).contains(&c.constancy));
        if c.distinct <= 1 {
            prop_assert_eq!(c.constancy, 1.0);
        }
    }

    /// Pattern counts partition the non-null values.
    #[test]
    fn pattern_counts_partition(col in arb_column()) {
        let tp = TextPatterns::compute(col.iter());
        let sum: usize = tp.counts.iter().map(|(_, c)| *c).sum();
        prop_assert_eq!(sum, tp.total);
    }

    /// Histogram buckets sum to ~1 when any numeric values exist.
    #[test]
    fn histogram_mass_conserved(col in proptest::collection::vec((-1000i64..1000).prop_map(Value::Int), 1..50)) {
        let h = NumericHistogram::compute(col.iter(), 8);
        let sum: f64 = h.buckets.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    /// Top-k coverage never exceeds 1 and the retained counts are sorted.
    #[test]
    fn top_k_sorted_and_bounded(col in arb_column()) {
        let t = TopK::compute(col.iter(), 5);
        prop_assert!(t.coverage() <= 1.0 + 1e-12);
        for w in t.values.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
        prop_assert!(t.values.len() <= 5);
    }

    /// Range fit is symmetric in the degenerate equal case.
    #[test]
    fn range_self_fit(col in proptest::collection::vec((-1000i64..1000).prop_map(Value::Int), 1..50)) {
        let r = ValueRange::compute(col.iter());
        prop_assert_eq!(ValueRange::fit(&r, &r), 1.0);
    }

    /// The single-pass kernel — `compute` feeds every value through one
    /// `PartialProfile` accumulator — is bit-identical to the multi-pass
    /// oracle, field for field, for any value mix and any designating
    /// datatype. Exact `==` (not approximate): the accumulator preserves
    /// the multi-pass float operation sequences.
    #[test]
    fn fused_kernel_matches_multipass(col in arb_column_with_floats()) {
        let distinct = Column::from_cells(col.clone()).distinct_count();
        for dt in [DataType::Text, DataType::Integer, DataType::Float, DataType::Boolean] {
            let accumulated = AttributeProfile::compute(col.iter(), dt);
            let legacy = AttributeProfile::compute_multipass(col.iter(), dt);
            prop_assert_eq!(&accumulated, &legacy, "accumulator != multipass for {:?}", dt);
            // The value module reads a column's distinct count off its
            // profile.
            prop_assert_eq!(accumulated.constancy.distinct, distinct, "distinct count for {:?}", dt);
        }
    }

    /// The accumulator over the typed column store (per-value work once
    /// per distinct value of the column's codes) produces exactly the
    /// profile the multi-pass walk over the row-major rows produces —
    /// the end-to-end guarantee behind `of_attribute`.
    #[test]
    fn columnar_profile_matches_multipass((col, declared) in arb_admitted_column()) {
        let db = DatabaseBuilder::new("p")
            .table("t", |t| t.attr("a", declared))
            .rows("t", col.iter().map(|v| vec![v.clone()]).collect())
            .build()
            .unwrap();
        let t = TableId(0);
        let a = AttrId(0);
        for dt in [DataType::Text, DataType::Integer, DataType::Float, DataType::Boolean] {
            let columnar = AttributeProfile::of_attribute(&db, t, a, dt);
            let legacy = AttributeProfile::compute_multipass(col.iter(), dt);
            prop_assert_eq!(&columnar, &legacy, "columnar != multipass for {:?}/{:?}", declared, dt);
        }
    }

    /// A profile served by the cache is indistinguishable from one
    /// computed fresh, for any column content and any designating
    /// datatype — and repeat lookups are hits, not recomputations.
    #[test]
    fn cached_profile_equals_fresh(col in proptest::collection::vec(
        prop_oneof![
            1 => Just(Value::Null),
            5 => "[a-z0-9:\\. -]{0,12}".prop_map(Value::Text),
        ],
        1..40,
    )) {
        let db = DatabaseBuilder::new("p")
            .table("t", |t| t.attr("a", DataType::Text))
            .rows("t", col.into_iter().map(|v| vec![v]).collect())
            .build()
            .unwrap();
        let cache = ProfileCache::new();
        for dt in [DataType::Text, DataType::Integer, DataType::Float, DataType::Boolean] {
            let key = ProfileKey {
                db: DbTag(0),
                table: TableId(0),
                attr: AttrId(0),
                reference_type: dt,
            };
            let fresh = AttributeProfile::of_attribute(&db, TableId(0), AttrId(0), dt);
            let cached = cache.of_attribute(&db, key);
            prop_assert_eq!(&*cached, &fresh);
            let again = cache.of_attribute(&db, key);
            prop_assert_eq!(&*again, &fresh);
        }
        prop_assert_eq!(cache.misses(), 4);
        prop_assert_eq!(cache.hits(), 4);
        prop_assert_eq!(cache.len(), 4);
    }

    /// Chunk-split invariance: feeding a column to one partial as any
    /// sequence of consecutive `accumulate_range` calls finalizes to
    /// exactly (`==`, not approximately) one cold `of_column_ctx` build.
    /// This is the invariant that makes O(delta) appends bit-identical
    /// to cold profiling.
    #[test]
    fn partial_profiles_are_chunk_split_invariant(
        col in arb_extendable_column(),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..4),
    ) {
        let column = Column::from_cells(col.clone());
        let run = RunContext::unbounded();
        let ck = run.checkpoint();
        let mut splits: Vec<usize> = cuts.iter().map(|f| (f * column.len() as f64) as usize).collect();
        splits.push(0);
        splits.push(column.len());
        splits.sort_unstable();
        for dt in [DataType::Text, DataType::Integer, DataType::Float, DataType::Boolean] {
            let mut chunked = PartialProfile::new(dt);
            for pair in splits.windows(2) {
                chunked.accumulate_range(&column, pair[0], pair[1], &ck).unwrap();
            }
            let cold = PartialProfile::of_column_ctx(&column, dt, &ck).unwrap();
            prop_assert_eq!(chunked.rows_seen(), column.len());
            prop_assert_eq!(&chunked.finalize(), &cold.finalize(), "split {:?} != cold for {:?}", &splits, dt);
        }
    }

    /// The delta-append path: a partial built over a prefix column that
    /// then absorbs the appended tail from the *extended* column equals
    /// a cold profile of the whole extended column, and the multi-pass
    /// oracle. Exactly what the server replays on an extension upload.
    #[test]
    fn prefix_partial_plus_tail_equals_cold_profile(
        col in arb_extendable_column(),
        cut in 0.0f64..1.0,
    ) {
        let split = (cut * col.len() as f64) as usize;
        let prefix = Column::from_cells(col[..split].to_vec());
        let full = Column::from_cells(col.clone());
        let run = RunContext::unbounded();
        let ck = run.checkpoint();
        for dt in [DataType::Text, DataType::Integer, DataType::Float, DataType::Boolean] {
            let mut partial = PartialProfile::of_column_ctx(&prefix, dt, &ck).unwrap();
            partial.accumulate_range(&full, split, full.len(), &ck).unwrap();
            let delta = partial.finalize();
            let cold = AttributeProfile::compute_columnar(&full, dt);
            prop_assert_eq!(&delta, &cold, "delta != cold for {:?} at {}", dt, split);
            let oracle = AttributeProfile::compute_multipass(col.iter(), dt);
            prop_assert_eq!(&delta, &oracle, "delta != multipass for {:?} at {}", dt, split);
        }
    }
}
