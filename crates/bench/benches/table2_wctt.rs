//! Criterion bench: cost of regenerating Table II (analytical WCTT bounds for
//! every mesh size, both designs) and of the per-size analytical rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wnoc_core::analysis::table::FlowScenario;
use wnoc_core::analysis::WcttTable;

fn bench_full_table(c: &mut Criterion) {
    c.bench_function("table2/analytical_full", |b| {
        b.iter(|| {
            let table = WcttTable::table2().unwrap();
            black_box(table.rows().len())
        })
    });
}

fn bench_per_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2/analytical_row");
    for side in [2u16, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(side), &side, |b, &side| {
            b.iter(|| {
                let row =
                    WcttTable::row(black_box(side), FlowScenario::paper_default(), 1).unwrap();
                black_box(row.regular.max)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_full_table, bench_per_size);
criterion_main!(benches);
