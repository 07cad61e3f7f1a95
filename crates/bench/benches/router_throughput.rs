//! Criterion bench: raw throughput of the cycle-accurate simulator substrate —
//! cycles per second of an 8×8 network under hotspot load (single-VC
//! round robin and WaW, and round robin over three virtual channels), the
//! closed-loop probing driver on the same hotspot (whose timed loop offers
//! and delivers messages, not only steps), and the average performance
//! experiment on the 4×4 platform.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use wnoc_bench::avg_perf::{run, AvgPerfParams};
use wnoc_core::flow::FlowSet;
use wnoc_core::vc::{VcAssignment, VcConfig};
use wnoc_core::{BufferConfig, Coord, Mesh, NocConfig};
use wnoc_sim::network::Network;
use wnoc_sim::Simulation;

fn bench_network_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/hotspot_steps");
    let cycles_per_iter = 1_000u64;
    group.throughput(Throughput::Elements(cycles_per_iter));
    group.sample_size(20);
    let three_vcs = VcConfig::new(3, VcAssignment::Distance).unwrap();
    for (label, config, vcs) in [
        ("regular", NocConfig::regular(4), VcConfig::single()),
        ("waw_wap", NocConfig::waw_wap(), VcConfig::single()),
        ("regular_3vc", NocConfig::regular(4), three_vcs),
    ] {
        group.bench_function(label, |b| {
            let mesh = Mesh::square(8).unwrap();
            let hotspot = Coord::from_row_col(0, 0);
            let flows = FlowSet::all_to_one(&mesh, hotspot).unwrap();
            let buffers = BufferConfig::uniform(config.input_buffer_flits);
            b.iter_batched(
                || {
                    let mut network =
                        Network::with_vcs(mesh, config, &flows, &buffers, vcs).unwrap();
                    // Pre-load traffic so every step has work to do.
                    let dst = mesh.node_id(hotspot).unwrap();
                    for flow in flows.flows() {
                        for _ in 0..4 {
                            network.offer(flow.src, dst, 4).unwrap();
                        }
                    }
                    network
                },
                |mut network| {
                    for _ in 0..cycles_per_iter {
                        network.step();
                    }
                    black_box(network.stats().flits_delivered)
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// The conformance campaigns' probing discipline: every source keeps one
/// message outstanding and offers the next on delivery, so the timed loop
/// covers the per-message path (offer, injection, delivery bookkeeping) as
/// well as stepping.  Building the simulation is batch set-up, untimed.
fn bench_closed_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/closed_loop_hotspot");
    let cycles_per_iter = 2_000u64;
    group.throughput(Throughput::Elements(cycles_per_iter));
    group.sample_size(20);
    for (label, config, message_flits) in [
        ("regular", NocConfig::regular(4), 4),
        ("waw_wap", NocConfig::waw_wap(), 1),
    ] {
        group.bench_function(label, |b| {
            let mesh = Mesh::square(8).unwrap();
            let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
            b.iter_batched(
                || Simulation::new(mesh, config, &flows).unwrap(),
                |mut sim| {
                    let report = sim
                        .run_closed_loop(&flows, message_flits, cycles_per_iter)
                        .unwrap();
                    black_box(report.max())
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_avg_perf_small(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator/avg_perf_4x4");
    group.sample_size(10);
    group.bench_function("both_designs", |b| {
        b.iter(|| {
            let result = run(AvgPerfParams {
                mesh_side: 4,
                loaded_cores: 15,
                events_per_core: 30,
                seed: 7,
                max_cycles: 5_000_000,
            })
            .unwrap();
            black_box(result.waw_wap_cycles)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_network_step,
    bench_closed_loop,
    bench_avg_perf_small
);
criterion_main!(benches);
