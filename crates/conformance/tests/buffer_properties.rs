//! Buffer-depth edge cases and properties: depth-1 wormhole liveness,
//! heterogeneous determinism, and the envelope property of single-buffer
//! deepening.
//!
//! # On monotonicity of *observations*
//!
//! The analytic buffer-aware bound tightens monotonically with depth (a
//! machine-checked ordering invariant), but observed latencies do **not**:
//! wormhole meshes exhibit classic scheduling anomalies where extra
//! buffering admits more cross-traffic into a contested FIFO ahead of a
//! probe.  Concrete counterexample (pinned by
//! `deepening_one_buffer_can_raise_an_observation_but_never_escapes_the_envelope`):
//! on the 4×4 WaW + WaP all-to-one hotspot with uniform depth-2 buffers,
//! deepening only `R(0,0)`'s south input buffer to 6 flits raises flow f6's
//! worst closed-loop latency from 17 to 28 cycles.  The sound property — and
//! the one the analysis actually promises — is that every post-deepening
//! observation stays within the buffer-aware bound of the *original*
//! (shallower) configuration: anomalies never escape the analytic envelope.

use proptest::prelude::*;

use wnoc_conformance::{BufferChoice, Scenario};
use wnoc_core::analysis::oracle::{BufferAwareOracle, WcttBoundModel};
use wnoc_core::flow::FlowSet;
use wnoc_core::{BufferConfig, Coord, Mesh, NocConfig, NodeId, Port, VcConfig};
use wnoc_sim::Simulation;

/// Depth-1 wormhole still drains: `SimulationStalled` never fires on
/// conformance-legal scenarios (XY routing is deadlock-free at any depth;
/// depth 1 only serialises the pipeline).
#[test]
fn depth_one_never_stalls_on_sampled_scenarios() {
    let mut checked = 0;
    for index in 0..60 {
        let mut scenario = Scenario::sample(index, 31);
        if scenario.side > 5 {
            continue; // keep the debug-build runtime reasonable
        }
        scenario.buffers = BufferChoice::Uniform { depth: 1 };
        scenario.cycles = scenario.cycles.min(2_000);
        let outcome = scenario
            .run()
            .unwrap_or_else(|e| panic!("{} stalled or failed: {e}", scenario.label()));
        assert!(outcome.observed.count > 0, "{}", scenario.label());
        checked += 1;
        if checked >= 8 {
            break;
        }
    }
    assert!(checked >= 4, "too few small scenarios sampled");
}

/// Heterogeneous configurations are deterministic end to end: the same
/// seeded per-port assignment produces byte-identical scenario outcomes.
#[test]
fn heterogeneous_config_runs_are_deterministic() {
    let mut scenario = Scenario::sample(2, 17);
    // Pin a small platform so the test is brisk in debug builds.
    while scenario.side > 5 {
        scenario = Scenario::sample(scenario.index + 7, 17);
    }
    scenario.buffers = BufferChoice::Heterogeneous { seed: 4242 };
    scenario.cycles = scenario.cycles.min(2_000);
    let a = scenario.run().unwrap();
    let b = scenario.run().unwrap();
    assert_eq!(a, b, "heterogeneous runs must reproduce");
    assert!(a.passed(), "{:?} {:?}", a.violations, a.ordering_violations);
}

/// The pinned anomaly counterexample plus its envelope property, documented
/// at module level: deepening one buffer raises an observation yet stays
/// within the shallow config's buffer-aware bound.
#[test]
fn deepening_one_buffer_can_raise_an_observation_but_never_escapes_the_envelope() {
    let mesh = Mesh::square(4).unwrap();
    let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
    let config = NocConfig::waw_wap();
    let shallow = BufferConfig::uniform(2);
    let run = |buffers: &BufferConfig| {
        let mut sim =
            Simulation::with_vcs(mesh, config, &flows, buffers, VcConfig::single()).unwrap();
        sim.run_closed_loop(&flows, 1, 1_500).unwrap()
    };
    let before = run(&shallow);
    let hotspot = mesh.node_id(Coord::from_row_col(0, 0)).unwrap();
    let deepened_cfg =
        shallow.with_buffer_depth(&mesh, hotspot, Port::Mesh(wnoc_core::Direction::South), 6);
    let after = run(&deepened_cfg);

    // The anomaly is real: at least one flow got *worse* with more buffer.
    let anomaly = after
        .per_flow_max()
        .iter()
        .any(|&(flow, max)| before.flow_max(flow).is_some_and(|b| max > b));
    assert!(anomaly, "expected a deepening anomaly on this platform");

    // ...but every observation stays inside the shallow config's envelope.
    let mut envelope = BufferAwareOracle::new(&flows, &config, mesh, shallow);
    for (flow, observed) in after.per_flow_max() {
        let bound = envelope.message_bound(flow, 1).unwrap();
        assert!(
            observed <= bound,
            "{flow}: deepened observation {observed} escaped shallow envelope {bound}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Deepening any single buffer keeps every per-flow observed maximum
    /// within the buffer-aware bound of the original configuration (and, by
    /// dominance, within the deepened configuration's own bound).
    #[test]
    fn single_buffer_deepening_stays_within_the_shallow_envelope(
        side in 2u16..=4,
        base_depth in 1u32..=4,
        node_roll in any::<u64>(),
        port_roll in 0usize..5,
        extra in 1u32..=8,
        hotspot_roll in any::<u64>(),
    ) {
        let mesh = Mesh::square(side).unwrap();
        let nodes = usize::from(side) * usize::from(side);
        let hotspot = Coord::new(
            (hotspot_roll % u64::from(side)) as u16,
            ((hotspot_roll >> 8) % u64::from(side)) as u16,
        );
        // The buffer-aware analysis covers output-consistent WaW platforms;
        // all-to-one hotspots are its canonical class.
        let flows = FlowSet::all_to_one(&mesh, hotspot).unwrap();
        let config = NocConfig::waw_wap();
        let shallow = BufferConfig::uniform(base_depth);
        let node = NodeId((node_roll as usize) % nodes);
        let port = Port::from_index(port_roll);
        let deepened = shallow.with_buffer_depth(&mesh, node, port, base_depth + extra);

        let run = |buffers: &BufferConfig| {
            let mut sim = Simulation::with_vcs(mesh, config, &flows, buffers, VcConfig::single()).unwrap();
            sim.run_closed_loop(&flows, 1, 1_200).unwrap()
        };
        let observed = run(&deepened);
        let mut shallow_envelope = BufferAwareOracle::new(&flows, &config, mesh, shallow);
        let mut deep_envelope = BufferAwareOracle::new(&flows, &config, mesh, deepened);
        for (flow, max) in observed.per_flow_max() {
            let loose = shallow_envelope.message_bound(flow, 1).unwrap();
            let tight = deep_envelope.message_bound(flow, 1).unwrap();
            prop_assert!(tight <= loose, "{flow}: deepening raised the bound {loose} -> {tight}");
            prop_assert!(
                max <= tight,
                "{flow}: observation {max} above deepened bound {tight}"
            );
        }
    }
}
