//! Cross-crate integration tests of the cycle-accurate pipeline: workloads
//! running on the manycore platform through the simulated NoC, and consistency
//! between the simulator and the analytical bounds.

use wnoc::core::analysis::WeightedWcttModel;
use wnoc::core::flow::FlowSet;
use wnoc::core::routing::{RoutingAlgorithm, XyRouting};
use wnoc::core::weights::WeightTable;
use wnoc::core::{zero_load_head_latency, Coord, Mesh, NocConfig};
use wnoc::manycore::system::{ManycoreSystem, PlatformConfig};
use wnoc::manycore::trace::Trace;
use wnoc::sim::Simulation;
use wnoc::workloads::eembc::EembcBenchmark;

/// EEMBC-like traces run to completion on the simulated 4x4 platform under both
/// designs, and the WaW+WaP average-performance penalty stays small.
#[test]
fn eembc_workload_completes_on_both_designs() {
    let truncate = |benchmark: EembcBenchmark| -> Trace {
        benchmark
            .trace(11)
            .events()
            .iter()
            .copied()
            .take(30)
            .collect()
    };
    let mut workloads = Vec::new();
    let benchmarks = EembcBenchmark::ALL;
    let mut index = 0;
    for row in 0..4u16 {
        for col in 0..4u16 {
            if row == 0 && col == 0 {
                continue;
            }
            workloads.push((
                Coord::from_row_col(row, col),
                truncate(benchmarks[index % 16]),
            ));
            index += 1;
        }
    }
    let mut times = Vec::new();
    for noc in [NocConfig::regular(4), NocConfig::waw_wap()] {
        let platform = PlatformConfig::small_4x4(noc);
        let mut system = ManycoreSystem::new(platform, workloads.clone()).unwrap();
        assert!(
            system.run_until_finished(5_000_000),
            "{} did not finish",
            noc.label()
        );
        // Every core issued every access of its trace.
        for ((coord, trace), (_, stats)) in workloads.iter().zip(system.core_stats()) {
            assert_eq!(
                stats.loads + stats.evictions,
                trace.total_accesses(),
                "core {coord} dropped transactions"
            );
        }
        times.push(system.execution_time());
    }
    let degradation = times[1] as f64 / times[0] as f64;
    assert!(
        degradation < 1.15,
        "average performance degradation too large: {degradation}"
    );
}

/// The analytical WaW+WaP bound dominates the latency of a *probe* packet
/// injected into a network whose every other flow is saturated — exactly the
/// situation the WCTT is defined for (a ready packet facing worst-case
/// contention from its contenders, without queueing behind earlier packets of
/// its own flow).  The analytical model only charges one weighted arbitration
/// round per hop; the simulator additionally exhibits FIFO occupancy and
/// backpressure effects, so a 2x engineering margin is allowed (see
/// EXPERIMENTS.md for the discussion).
#[test]
fn weighted_bound_dominates_observed_latency() {
    let mesh = Mesh::square(4).unwrap();
    let hotspot = Coord::from_row_col(0, 0);
    let flows = FlowSet::all_to_one(&mesh, hotspot).unwrap();
    let model = WeightedWcttModel::new(WeightTable::from_flow_set(&flows), 1);
    let hotspot_node = mesh.node_id(hotspot).unwrap();

    for probe in [Coord::from_row_col(3, 3), Coord::from_row_col(0, 1)] {
        let probe_node = mesh.node_id(probe).unwrap();
        let mut sim = Simulation::new(mesh, NocConfig::waw_wap(), &flows).unwrap();
        let background: Vec<_> = flows
            .flows()
            .iter()
            .filter(|f| f.src != probe_node)
            .copied()
            .collect();
        // Warm the network up with saturated background traffic.
        for _ in 0..3_000 {
            for flow in &background {
                if sim.network().nic_backlog(flow.src) < 8 {
                    sim.network_mut().offer(flow.src, flow.dst, 1).unwrap();
                }
            }
            sim.network_mut().step();
        }
        // Inject the probe and keep the background saturated until it arrives.
        sim.network_mut()
            .offer(probe_node, hotspot_node, 1)
            .unwrap();
        let probe_flow = sim.network_mut().flow_id(probe_node, hotspot_node);
        for _ in 0..10_000 {
            for flow in &background {
                if sim.network().nic_backlog(flow.src) < 8 {
                    sim.network_mut().offer(flow.src, flow.dst, 1).unwrap();
                }
            }
            sim.network_mut().step();
            if sim.stats().flow_message_latency(probe_flow).is_some() {
                break;
            }
        }
        let observed = sim
            .stats()
            .flow_traversal_latency(probe_flow)
            .expect("probe message delivered")
            .max;
        let route = XyRouting.route(&mesh, probe, hotspot).unwrap();
        let bound = model.packet_wctt(&route);
        assert!(
            observed <= 2 * bound,
            "probe from {probe}: observed {observed} exceeds 2x the analytical bound {bound}"
        );
        // The bound is not vacuous either: it stays within a small factor of
        // the observation instead of being orders of magnitude above it.
        assert!(
            bound <= 4 * observed,
            "bound {bound} is far looser than observed {observed}"
        );
    }
}

/// The observed unfairness of the regular design matches Figure 1(b): under
/// saturation, flows near the hotspot are served much more often than distant
/// ones, and WaW+WaP removes most of that spread.
#[test]
fn waw_wap_equalises_observed_service() {
    let mesh = Mesh::square(4).unwrap();
    let hotspot = Coord::from_row_col(0, 0);
    let spread = |config: NocConfig| -> f64 {
        let report = Simulation::saturated_hotspot(mesh, config, hotspot, 1, 3_000, 6_000).unwrap();
        report.max() as f64 / report.min_of_max().max(1) as f64
    };
    let regular_spread = spread(NocConfig::regular(1));
    let proposed_spread = spread(NocConfig::waw_wap());
    assert!(
        regular_spread > proposed_spread,
        "regular spread {regular_spread} vs proposed {proposed_spread}"
    );
}

/// Determinism: the same seed and configuration produce bit-identical
/// simulation statistics (required for reproducible experiments).
#[test]
fn simulation_is_deterministic() {
    let run = || -> (u64, u64) {
        let mesh = Mesh::square(4).unwrap();
        let hotspot = Coord::from_row_col(0, 0);
        let report =
            Simulation::saturated_hotspot(mesh, NocConfig::waw_wap(), hotspot, 1, 1_000, 2_000)
                .unwrap();
        (report.max(), report.min_of_max())
    };
    assert_eq!(run(), run());
}

/// Single-message zero-load latency through the simulator matches the
/// analytical zero-load formula for the same path length.
#[test]
fn zero_load_latency_consistency() {
    let mesh = Mesh::square(8).unwrap();
    let memory = Coord::from_row_col(0, 0);
    let flows = FlowSet::all_to_one(&mesh, memory).unwrap();
    let mut sim = Simulation::new(mesh, NocConfig::regular(4), &flows).unwrap();
    let src = mesh.node_id(Coord::from_row_col(7, 7)).unwrap();
    let dst = mesh.node_id(memory).unwrap();
    sim.network_mut().offer(src, dst, 1).unwrap();
    assert!(sim.network_mut().run_until_drained(1_000));
    let observed = sim.stats().overall_traversal_latency().max;
    let route = XyRouting
        .route(&mesh, Coord::from_row_col(7, 7), memory)
        .unwrap();
    let zero_load = zero_load_head_latency(route.hop_count());
    // A lone flit in an empty mesh spends at least one cycle per hop and never
    // more than twice the analyses' zero-load latency.
    assert!(observed as f64 >= route.hop_count() as f64);
    assert!(
        (observed) <= 2 * zero_load,
        "observed {observed} vs zero-load {zero_load}"
    );
}
