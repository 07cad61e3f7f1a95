//! Bound-vs-VC sweep: virtual channels as a design axis (experiment `V1`).
//!
//! Sweeps the per-port virtual-channel count {1, 2, 3, 4} crossed with both
//! static flow → VC assignment rules over the all-to-one hotspot platform on
//! the 4×4 and 8×8 meshes under the regular round-robin design, printing
//! observed closed-loop worst latencies next to the chained-blocking bound
//! and the priority-preemptive bound of Nikolić & Indrusiak
//! (arXiv:1605.07888):
//!
//! * **analytic** — the paper-form chained-blocking bound (VC-independent;
//!   only sound as a *message* bound up to one maximum packet) and the
//!   worst finite priority-preemptive bound, whose per-flow value depends on
//!   the VC priority a flow is assigned;
//! * **observed** — the worst closed-loop traversal latency on the
//!   cycle-accurate simulator built with the same [`VcConfig`].
//!
//! Flows whose higher-priority interference diverges under closed-loop
//! saturation carry the saturation sentinel (no finite bound exists for
//! them); the table reports how many flows per configuration are saturated
//! that way, and checks dominance for every finite-bounded flow.

use wnoc_core::analysis::oracle::{RegularOracle, WcttBoundModel};
use wnoc_core::analysis::preemptive::{PreemptiveOracle, SATURATION_SENTINEL};
use wnoc_core::flow::FlowSet;
use wnoc_core::vc::{VcAssignment, VcConfig};
use wnoc_core::{BufferConfig, Coord, Mesh, NocConfig, Result};
use wnoc_sim::Simulation;

/// The VC configurations swept, in rendering order: the single-queue paper
/// design, then counts 2–4 under both assignment rules.
pub fn swept_configs() -> Vec<VcConfig> {
    let mut configs = vec![VcConfig::single()];
    for count in 2..=4u32 {
        for assignment in [VcAssignment::FlowIndex, VcAssignment::Distance] {
            configs.push(VcConfig::new(count, assignment).expect("swept VC counts are in range"));
        }
    }
    configs
}

/// One VC sample of one platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcPoint {
    /// The VC configuration label (`vc=1`, `vc=3/idx`, …).
    pub label: String,
    /// Worst observed closed-loop traversal latency across all flows.
    pub observed_max: u64,
    /// Worst-flow chained-blocking bound (VC-independent).
    pub regular_bound: u64,
    /// Worst finite priority-preemptive bound, or `None` when every flow is
    /// saturated.
    pub preemptive_max_finite: Option<u64>,
    /// Flows whose preemptive bound is the saturation sentinel (closed-loop
    /// saturation of a strictly-higher-priority VC admits no finite bound).
    pub saturated_flows: usize,
    /// Finite-bounded flows whose observation exceeded their preemptive
    /// bound — must be zero (the golden pins it).
    pub dominance_violations: usize,
}

/// The sweep of one mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcSweepRow {
    /// Mesh side.
    pub side: u16,
    /// Design label.
    pub design: String,
    /// Probe message size in regular-packetization flits.
    pub message_flits: u32,
    /// One sample per entry of [`swept_configs`].
    pub points: Vec<VcPoint>,
}

/// The complete bound-vs-VC table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcSweepTable {
    /// One row per mesh.
    pub rows: Vec<VcSweepRow>,
}

impl VcSweepTable {
    /// Runs the sweep: 4×4 and 8×8 all-to-one hotspot platforms under the
    /// regular design (`L = 4`, one-packet probes), every configuration of
    /// [`swept_configs`].  Fully deterministic (closed-loop probing involves
    /// no randomness).
    ///
    /// # Errors
    ///
    /// Returns an error if a platform fails to build or drain.
    pub fn generate() -> Result<Self> {
        let mut rows = Vec::new();
        let config = NocConfig::regular(4);
        let message_flits = 4u32;
        for side in [4u16, 8] {
            let mesh = Mesh::square(side)?;
            let hotspot = Coord::from_row_col(0, 0);
            let flows = FlowSet::all_to_one(&mesh, hotspot)?;
            let buffers = BufferConfig::uniform(config.input_buffer_flits);
            let cycles = if side == 4 { 2_000 } else { 3_000 };
            let mut points = Vec::new();
            for vcs in swept_configs() {
                let mut sim = Simulation::with_vcs(mesh, config, &flows, &buffers, vcs)?;
                let report = sim.run_closed_loop(&flows, message_flits, cycles)?;
                points.push(sample_point(
                    &flows,
                    &config,
                    &buffers,
                    vcs,
                    message_flits,
                    &report.per_flow_max(),
                    report.max(),
                ));
            }
            rows.push(VcSweepRow {
                side,
                design: config.label(),
                message_flits,
                points,
            });
        }
        Ok(Self { rows })
    }

    /// Deterministic human-readable rendering (the golden snapshot).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Virtual channels as a design axis — bound vs VC count, all-to-one hotspot R(0,0)\n",
        );
        out.push_str(
            "(closed-loop probing; 'sat' counts flows with no finite bound under \
             closed-loop saturation of a higher-priority VC)\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "\n== {}x{} {} mf={} ==\n",
                row.side, row.side, row.design, row.message_flits
            ));
            out.push_str(
                "vc config | observed max | regular bound | preemptive max | sat | violations\n",
            );
            for point in &row.points {
                let preemptive = match point.preemptive_max_finite {
                    Some(bound) => bound.to_string(),
                    None => "-".to_string(),
                };
                out.push_str(&format!(
                    "{:>9} | {:>12} | {:>13} | {:>14} | {:>3} | {:>10}\n",
                    point.label,
                    point.observed_max,
                    point.regular_bound,
                    preemptive,
                    point.saturated_flows,
                    point.dominance_violations
                ));
            }
        }
        out
    }
}

/// Computes one table point from a finished run.
fn sample_point(
    flows: &FlowSet,
    config: &NocConfig,
    buffers: &BufferConfig,
    vcs: VcConfig,
    message_flits: u32,
    per_flow_max: &[(wnoc_core::FlowId, u64)],
    observed_max: u64,
) -> VcPoint {
    let l = config.packetization.worst_case_contender_flits();
    let mut regular = RegularOracle::new(flows, l);
    let mut preemptive = PreemptiveOracle::new(flows, config, buffers, vcs);
    let regular_bound = flows
        .iter()
        .filter_map(|(id, _)| regular.message_bound(id, message_flits))
        .max()
        .unwrap_or(0);
    let mut max_finite = None;
    let mut saturated = 0usize;
    for (id, _) in flows.iter() {
        match preemptive.message_bound(id, message_flits) {
            Some(bound) if bound >= SATURATION_SENTINEL => saturated += 1,
            Some(bound) => max_finite = Some(max_finite.map_or(bound, |m: u64| m.max(bound))),
            None => {}
        }
    }
    let mut violations = 0usize;
    for &(flow, observed) in per_flow_max {
        if let Some(bound) = preemptive.message_bound(flow, message_flits) {
            if bound < SATURATION_SENTINEL && observed > bound {
                violations += 1;
            }
        }
    }
    VcPoint {
        label: vcs.label(),
        observed_max,
        regular_bound,
        preemptive_max_finite: max_finite,
        saturated_flows: saturated,
        dominance_violations: violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_every_config_in_order() {
        let configs = swept_configs();
        assert_eq!(configs.len(), 7);
        assert_eq!(configs[0], VcConfig::single());
        let labels: Vec<String> = configs.iter().map(VcConfig::label).collect();
        assert_eq!(
            labels,
            [
                "vc=1",
                "vc=2/idx",
                "vc=2/dist",
                "vc=3/idx",
                "vc=3/dist",
                "vc=4/idx",
                "vc=4/dist"
            ]
        );
    }

    /// A reduced sweep (4×4 only) exercising the full pipeline; the complete
    /// table is covered by the golden snapshot in release CI.
    #[test]
    fn small_sweep_invariants() {
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let config = NocConfig::regular(4);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        for vcs in [
            VcConfig::single(),
            VcConfig::new(2, VcAssignment::FlowIndex).unwrap(),
            VcConfig::new(3, VcAssignment::Distance).unwrap(),
        ] {
            let mut sim = Simulation::with_vcs(mesh, config, &flows, &buffers, vcs).unwrap();
            let report = sim.run_closed_loop(&flows, 4, 1_500).unwrap();
            let point = sample_point(
                &flows,
                &config,
                &buffers,
                vcs,
                4,
                &report.per_flow_max(),
                report.max(),
            );
            assert_eq!(point.dominance_violations, 0, "{}", point.label);
            assert!(point.observed_max > 0, "{}", point.label);
            if vcs.is_single() {
                // The single-queue design has no higher-priority VC to
                // saturate, and the preemptive bound reduces to the regular
                // chained-blocking bound at the calibration depth.
                assert_eq!(point.saturated_flows, 0);
                assert_eq!(point.preemptive_max_finite, Some(point.regular_bound));
            }
        }
    }

    #[test]
    fn render_lists_every_config() {
        let table = VcSweepTable {
            rows: vec![VcSweepRow {
                side: 4,
                design: "regular".to_string(),
                message_flits: 4,
                points: swept_configs()
                    .iter()
                    .map(|vcs| VcPoint {
                        label: vcs.label(),
                        observed_max: 10,
                        regular_bound: 20,
                        preemptive_max_finite: Some(20),
                        saturated_flows: 0,
                        dominance_violations: 0,
                    })
                    .collect(),
            }],
        };
        let text = table.render();
        for vcs in swept_configs() {
            assert!(text.contains(&vcs.label()), "{text}");
        }
    }
}
