//! Criterion bench: the event-horizon kernel against its dense per-cycle
//! reference, on the two traffic regimes that bracket its design space.
//!
//! * **dense traffic** — a saturated 8×8 hotspot, where something moves at
//!   every router every cycle, so the horizon is `now + 1` essentially
//!   always and the event-horizon machinery can only add overhead.  The
//!   horizon kernel should stay within a few percent of the dense reference
//!   here; no gate enforces it (CI only smoke-runs this bench), so compare
//!   the two lines by hand when touching the scheduler.
//! * **sparse closed-loop probing** — a single flow crossing a 12×12 mesh
//!   with one outstanding message, where almost every cycle is inert for
//!   almost every component: blocked-router skipping, horizon jumps and the
//!   contention-free worm fast-forward dominate, and the horizon kernel
//!   should win by an order of magnitude.
//!
//! Golden-free by design: wall-clock benches have no stable output to pin.
//! The bit-for-bit equivalence of the two kernels is pinned elsewhere
//! (`kernel_equivalence`, `differential`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use wnoc_core::flow::FlowSet;
use wnoc_core::{Coord, Mesh, NocConfig};
use wnoc_sim::network::Network;
use wnoc_sim::Simulation;

/// Saturated hotspot stepping: every cycle is busy, horizon ≈ `now + 1`.
fn bench_dense_traffic(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_horizon/dense_hotspot_8x8");
    let cycles_per_iter = 1_000u64;
    group.throughput(Throughput::Elements(cycles_per_iter));
    group.sample_size(20);
    for (label, dense) in [("horizon", false), ("dense-reference", true)] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            let mesh = Mesh::square(8).unwrap();
            let hotspot = Coord::from_row_col(0, 0);
            let flows = FlowSet::all_to_one(&mesh, hotspot).unwrap();
            b.iter_batched(
                || {
                    let mut network = Network::new(mesh, NocConfig::waw_wap(), &flows).unwrap();
                    network.set_dense_kernel(dense);
                    let dst = mesh.node_id(hotspot).unwrap();
                    for flow in flows.flows() {
                        for _ in 0..6 {
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

/// Sparse probing: one flow, one outstanding message, a 12×12 mesh of idle
/// routers — the regime the horizon kernel (jumps, blocked-router skipping,
/// worm fast-forward) was built for.
fn bench_sparse_probing(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_horizon/sparse_probe_12x12");
    let probe_cycles = 4_000u64;
    group.throughput(Throughput::Elements(probe_cycles));
    group.sample_size(20);
    let mesh = Mesh::square(12).unwrap();
    let flows = FlowSet::from_pairs(
        &mesh,
        vec![(
            mesh.node_id(Coord::from_row_col(11, 11)).unwrap(),
            mesh.node_id(Coord::from_row_col(0, 0)).unwrap(),
        )],
    )
    .unwrap();
    for (label, dense) in [("horizon", false), ("dense-reference", true)] {
        for (design_label, config, message_flits) in [
            ("regular4", NocConfig::regular(4), 4u32),
            ("waw_wap", NocConfig::waw_wap(), 1u32),
        ] {
            group.bench_function(BenchmarkId::new(label, design_label), |b| {
                b.iter_batched(
                    || {
                        // Construction is excluded: the regimes differ in
                        // *stepping* cost, and a 12×12 build would drown it.
                        let mut sim = Simulation::new(mesh, config, &flows).unwrap();
                        sim.set_dense_kernel(dense);
                        sim
                    },
                    |mut sim| {
                        let report = sim
                            .run_closed_loop(&flows, message_flits, probe_cycles)
                            .unwrap();
                        black_box(report.max())
                    },
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_dense_traffic, bench_sparse_probing);
criterion_main!(benches);
