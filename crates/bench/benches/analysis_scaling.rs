//! Criterion bench: scaling of the analytical WCTT models with mesh size —
//! chained-blocking recursion (regular) vs weighted bandwidth-share model
//! (WaW + WaP) — plus the WaW weight-table derivation, the construction of
//! the priority-preemptive oracle and the per-scenario analysis set-up of a
//! bursty conformance scenario.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wnoc_core::analysis::oracle::{
    oracle_suite_with_curve, BufferAwareOracle, GraphBufferAwareOracle,
};
use wnoc_core::analysis::preemptive::PreemptiveOracle;
use wnoc_core::analysis::{RegularWcttModel, WeightedWcttModel};
use wnoc_core::buffers::per_port_table;
use wnoc_core::flow::FlowSet;
use wnoc_core::routing::{RoutingAlgorithm, XyRouting};
use wnoc_core::weights::WeightTable;
use wnoc_core::{ArrivalCurve, BufferConfig, Coord, Mesh, NocConfig, VcAssignment, VcConfig};

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
                let mut model = RegularWcttModel::new(&flows, 1);
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
            let model = WeightedWcttModel::new(weights, 1);
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

/// Every oracle a bursty conformance scenario builds on an 8×8 all-to-one
/// mesh with heterogeneous buffers: the bursty suite (its contention table
/// cloned, as out of the campaign's flow-set cache) plus the three oracles
/// of the ordering check — the depth-doubled buffer-aware oracle and the
/// burst-free and raised-burst graph-based oracles.  Each builds its own
/// weight table, so this group prices the table at the suite layer.
fn bench_bursty_suite_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/bursty_suite_build");
    let mesh = Mesh::square(8).unwrap();
    let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
    let counts = WeightTable::from_flow_set(&flows);
    let config = NocConfig::waw_wap();
    // Depths 1, 2, 4 and 8 spread over the ports.
    let buffers = per_port_table(&mesh, |node, port| 1 << ((node.index() + port.index()) % 4));
    let (burst, gap, cv) = (4, 20_000, 25);
    group.bench_function("8x8", |b| {
        b.iter(|| {
            let suite = oracle_suite_with_curve(
                &flows,
                &config,
                mesh,
                &buffers,
                VcConfig::single(),
                counts.clone(),
                ArrivalCurve::bursty(burst, gap).with_jitter(cv),
            )
            .unwrap();
            let deepened = BufferAwareOracle::new(&flows, &config, mesh, buffers.scaled(2));
            let collapsed = GraphBufferAwareOracle::new(
                &flows,
                &config,
                mesh,
                buffers.clone(),
                ArrivalCurve::bursty(1, gap),
            );
            let raised = GraphBufferAwareOracle::new(
                &flows,
                &config,
                mesh,
                buffers.clone(),
                ArrivalCurve::bursty(burst + 1, gap).with_jitter(cv),
            );
            black_box((suite, deepened, collapsed, raised))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_regular_model,
    bench_weighted_model,
    bench_weight_table,
    bench_preemptive_oracle,
    bench_bursty_suite_build
);
criterion_main!(benches);
