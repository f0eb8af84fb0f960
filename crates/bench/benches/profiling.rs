//! Throughput of the §5.1 statistics — the cost of the value fit
//! detector over realistic column sizes.
//!
//! Three paths are measured against each other:
//!
//! * `*_multipass` — the legacy reference: one full column walk per
//!   statistic (up to eight passes);
//! * `*_profile` — the single-pass `PartialProfile` accumulator fed
//!   row-major values one at a time;
//! * `*_columnar` — the same accumulator over the typed columnar store
//!   (dictionary-weighted statistics for text columns).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use efes_profiling::AttributeProfile;
use efes_relational::{Column, DataType, Value};

fn text_column(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| Value::Text(format!("{}:{:02}", 2 + i % 7, (i * 13) % 60)))
        .collect()
}

fn int_column(n: usize) -> Vec<Value> {
    (0..n).map(|i| Value::Int(120_000 + i as i64 * 37)).collect()
}

fn bench_profiling(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiling");
    for n in [1_000usize, 10_000, 100_000] {
        let texts = text_column(n);
        let ints = int_column(n);
        let text_store = Column::from_cells(texts.clone());
        let int_store = Column::from_cells(ints.clone());

        group.bench_with_input(BenchmarkId::new("text_profile", n), &texts, |b, col| {
            b.iter(|| AttributeProfile::compute(black_box(col.iter()), DataType::Text))
        });
        group.bench_with_input(
            BenchmarkId::new("text_profile_multipass", n),
            &texts,
            |b, col| {
                b.iter(|| {
                    AttributeProfile::compute_multipass(black_box(col.iter()), DataType::Text)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("text_profile_columnar", n),
            &text_store,
            |b, col| {
                b.iter(|| AttributeProfile::compute_columnar(black_box(col), DataType::Text))
            },
        );

        group.bench_with_input(BenchmarkId::new("numeric_profile", n), &ints, |b, col| {
            b.iter(|| AttributeProfile::compute(black_box(col.iter()), DataType::Integer))
        });
        group.bench_with_input(
            BenchmarkId::new("numeric_profile_multipass", n),
            &ints,
            |b, col| {
                b.iter(|| {
                    AttributeProfile::compute_multipass(black_box(col.iter()), DataType::Integer)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("numeric_profile_columnar", n),
            &int_store,
            |b, col| {
                b.iter(|| AttributeProfile::compute_columnar(black_box(col), DataType::Integer))
            },
        );
    }
    group.finish();

    // The fit combination itself (cheap; dominated by the profiles).
    let a = AttributeProfile::compute(text_column(10_000).iter(), DataType::Text);
    let b_profile = AttributeProfile::compute(text_column(10_000).iter(), DataType::Text);
    c.bench_function("profiling/fit_against", |b| {
        b.iter(|| AttributeProfile::fit_against(black_box(&a), black_box(&b_profile)))
    });
}

criterion_group!(benches, bench_profiling);
criterion_main!(benches);
