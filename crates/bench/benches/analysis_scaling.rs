//! Criterion bench: scaling of the analytical WCTT models with mesh size —
//! chained-blocking recursion (regular) vs weighted bandwidth-share model
//! (WaW + WaP) — plus the WaW weight-table derivation and the construction
//! of the priority-preemptive oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wnoc_core::analysis::preemptive::PreemptiveOracle;
use wnoc_core::analysis::{RegularWcttModel, WeightedWcttModel};
use wnoc_core::flow::FlowSet;
use wnoc_core::routing::{RoutingAlgorithm, XyRouting};
use wnoc_core::weights::WeightTable;
use wnoc_core::{BufferConfig, Coord, Mesh, NocConfig, RouterTiming, VcAssignment, VcConfig};

fn bench_regular_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/regular_corner_wctt");
    for side in [4u16, 8, 12] {
        group.bench_with_input(BenchmarkId::from_parameter(side), &side, |b, &side| {
            let mesh = Mesh::square(side).unwrap();
            let memory = Coord::from_row_col(0, 0);
            let flows = FlowSet::all_to_one(&mesh, memory).unwrap();
            let corner = XyRouting
                .route(&mesh, Coord::new(side - 1, side - 1), memory)
                .unwrap();
            b.iter(|| {
                let mut model = RegularWcttModel::new(&flows, RouterTiming::CANONICAL, 1);
                black_box(model.route_wctt(black_box(&corner), 1))
            })
        });
    }
    group.finish();
}

fn bench_weighted_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/weighted_corner_wctt");
    for side in [4u16, 8, 12] {
        group.bench_with_input(BenchmarkId::from_parameter(side), &side, |b, &side| {
            let mesh = Mesh::square(side).unwrap();
            let memory = Coord::from_row_col(0, 0);
            let flows = FlowSet::all_to_one(&mesh, memory).unwrap();
            let weights = WeightTable::from_flow_set(&flows);
            let model = WeightedWcttModel::new(weights, RouterTiming::CANONICAL, 1);
            let corner = XyRouting
                .route(&mesh, Coord::new(side - 1, side - 1), memory)
                .unwrap();
            b.iter(|| black_box(model.packet_wctt(black_box(&corner))))
        });
    }
    group.finish();
}

fn bench_weight_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/weight_table_from_flows");
    group.sample_size(20);
    for side in [4u16, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(side), &side, |b, &side| {
            let mesh = Mesh::square(side).unwrap();
            let flows =
                FlowSet::to_and_from_endpoints(&mesh, &[Coord::from_row_col(0, 0)]).unwrap();
            b.iter(|| black_box(WeightTable::from_flow_set(black_box(&flows))))
        });
    }
    group.finish();
}

/// Preemptive oracle construction on 12×12 all-to-one: under a single VC the
/// interference sets are skipped; at 3 VCs by distance every flow shares the
/// ejection link, so this is the worst case of the `S_D ∪ S_I` build.
fn bench_preemptive_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/preemptive_oracle_new");
    let mesh = Mesh::square(12).unwrap();
    let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
    let config = NocConfig::regular(4);
    let buffers = BufferConfig::uniform(config.input_buffer_flits);
    for (label, vcs) in [
        ("12x12_1vc", VcConfig::single()),
        (
            "12x12_3vc_dist",
            VcConfig::new(3, VcAssignment::Distance).unwrap(),
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &vcs, |b, &vcs| {
            b.iter(|| black_box(PreemptiveOracle::new(&flows, &config, &buffers, vcs)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_regular_model,
    bench_weighted_model,
    bench_weight_table,
    bench_preemptive_oracle
);
criterion_main!(benches);
