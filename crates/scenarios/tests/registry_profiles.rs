//! Differential gate for the profiling kernel on the paper's case-study
//! data: for every attribute of every database of every scenario in the
//! standard registry, and for every designating reference type, the
//! `PartialProfile` accumulator must be bit-identical (`==`, exact float
//! bits) to the multi-pass oracle — both when it profiles the column
//! cold and when it absorbs the column as a prefix plus an appended tail
//! (the O(delta) upload path). Either way its distinct count must be
//! the column's own (`Column::distinct_count`), which the value module
//! relies on.
//!
//! The same differentials over arbitrary synthetic columns live with
//! the profiling crate; this test closes the loop on real scenarios.

use efes_exec::RunContext;
use efes_profiling::{AttributeProfile, PartialProfile};
use efes_relational::{AttrId, DataType, Database, TableId};
use efes_scenarios::standard_registry;

fn check_database(db: &Database, label: &str) -> usize {
    let run = RunContext::unbounded();
    let ck = run.checkpoint();
    let mut checked = 0;
    for (ti, table) in db.schema.tables().iter().enumerate() {
        let data = db.instance.table(TableId(ti));
        let rows: Vec<_> = data.rows().collect();
        for ai in 0..table.arity() {
            let Some(col) = data.column_store(AttrId(ai)) else {
                continue;
            };
            let cells = || rows.iter().map(move |row| &row[ai]);
            for rt in [
                DataType::Text,
                DataType::Integer,
                DataType::Float,
                DataType::Boolean,
            ] {
                let where_ = format!(
                    "{label}.{}.{} as {rt:?}",
                    table.name, table.attributes[ai].name
                );
                let oracle = AttributeProfile::compute_multipass(cells(), rt);
                let cold = AttributeProfile::of_attribute(db, TableId(ti), AttrId(ai), rt);
                assert_eq!(cold, oracle, "accumulator != multipass for {where_}");
                // The value module reads a column's distinct count off
                // its profile.
                assert_eq!(
                    cold.constancy.distinct,
                    col.distinct_count(),
                    "profiled distinct count != Column::distinct_count for {where_}"
                );

                let half = col.len() / 2;
                let mut appended = PartialProfile::new(rt);
                appended.accumulate_range(col, 0, half, &ck).unwrap();
                appended
                    .accumulate_range(col, half, col.len(), &ck)
                    .unwrap();
                let appended = appended.finalize();
                assert_eq!(appended, oracle, "prefix + tail != multipass for {where_}");
                assert_eq!(
                    appended.constancy.distinct,
                    col.distinct_count(),
                    "prefix + tail distinct count != Column::distinct_count for {where_}"
                );
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn accumulator_profiles_match_multipass_across_the_standard_registry() {
    let registry = standard_registry();
    let mut names: Vec<String> = registry.names().iter().map(|n| n.to_string()).collect();
    names.sort();
    assert!(!names.is_empty());
    let mut checked = 0;
    for name in names {
        let scenario = registry.get(&name).expect("registry name resolves");
        for source in &scenario.sources {
            checked += check_database(source, &format!("{name}/src/{}", source.name()));
        }
        checked += check_database(&scenario.target, &format!("{name}/target"));
    }
    assert!(checked > 100, "expected a broad sweep, checked {checked}");
}
