//! Bound-vs-depth sweep: buffer depth as a design axis (experiment `B1`).
//!
//! Reproduces the headline curve of the related buffer-aware wormhole
//! analyses (Mifdaoui & Ayed, arXiv:1602.01732): worst-case traversal bounds
//! *improve as router buffers deepen* and degrade towards the backpressured
//! regime as they shrink — an axis the paper's own evaluation holds fixed.
//! For the all-to-one hotspot platform on the 4×4 and 8×8 meshes, both
//! designs are swept over uniform input-buffer depths
//! {1, 2, 4, 8, ∞-equivalent}:
//!
//! * **analytic** — the paper-form bound (depth-independent), and under WaW
//!   the backpressured bound plus the buffer-aware bound
//!   ([`BufferAwareWcttModel`](wnoc_core::analysis::buffer_aware::BufferAwareWcttModel))
//!   that interpolates between them;
//! * **observed** — the worst closed-loop traversal latency on the
//!   cycle-accurate simulator built with the same [`BufferConfig`].
//!
//! The table demonstrates the two qualitative claims the conformance
//! harness machine-checks campaign-wide: the buffer-aware bound tightens
//! monotonically with depth while never dropping below an observation, and
//! the observations themselves relax as buffers deepen (backpressure
//! vanishes) — wormhole WCTT tightness is bought with buffer area.

use wnoc_core::analysis::oracle::{
    BufferAwareOracle, RegularOracle, WcttBoundModel, WeightedFlavor, WeightedOracle,
};
use wnoc_core::flow::FlowSet;
use wnoc_core::{BufferConfig, Coord, Mesh, NocConfig, Result, VcConfig};
use wnoc_sim::Simulation;

/// The uniform depths swept, in flits (4 is the historical default, the last
/// entry is the ∞-equivalent point).
pub const DEPTHS: [u32; 5] = [1, 2, 4, 8, BufferConfig::INFINITE_EQUIVALENT];

/// One depth sample of one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthPoint {
    /// Uniform input-buffer depth, in flits.
    pub depth: u32,
    /// Worst observed closed-loop traversal latency across all flows.
    pub observed_max: u64,
    /// Worst-flow paper-form analytic bound (depth-independent).
    pub paper_bound: u64,
    /// Worst-flow backpressured bound (WaW only; depth-independent).
    pub backpressured_bound: Option<u64>,
    /// Worst-flow buffer-aware bound at this depth (WaW only).
    pub buffer_aware_bound: Option<u64>,
}

/// The sweep of one (mesh, design) platform.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Mesh side.
    pub side: u16,
    /// Design label.
    pub design: String,
    /// Probe message size in regular-packetization flits.
    pub message_flits: u32,
    /// One sample per entry of [`DEPTHS`].
    pub points: Vec<DepthPoint>,
}

/// The complete bound-vs-depth table.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferSweepTable {
    /// One row per (mesh, design) platform.
    pub rows: Vec<SweepRow>,
}

impl BufferSweepTable {
    /// Runs the sweep: 4×4 and 8×8 all-to-one hotspot platforms, both
    /// designs, every depth of [`DEPTHS`].  Fully deterministic (closed-loop
    /// probing involves no randomness).
    ///
    /// # Errors
    ///
    /// Returns an error if a platform fails to build or drain.
    pub fn generate() -> Result<Self> {
        let mut rows = Vec::new();
        for side in [4u16, 8] {
            let mesh = Mesh::square(side)?;
            let hotspot = Coord::from_row_col(0, 0);
            let flows = FlowSet::all_to_one(&mesh, hotspot)?;
            let cycles = if side == 4 { 2_000 } else { 3_000 };
            for (config, message_flits) in
                [(NocConfig::regular(4), 4u32), (NocConfig::waw_wap(), 1)]
            {
                let mut points = Vec::with_capacity(DEPTHS.len());
                for depth in DEPTHS {
                    let buffers = BufferConfig::uniform(depth);
                    let mut sim =
                        Simulation::with_vcs(mesh, config, &flows, &buffers, VcConfig::single())?;
                    let report = sim.run_closed_loop(&flows, message_flits, cycles)?;
                    points.push(DepthPoint {
                        depth,
                        observed_max: report.max(),
                        paper_bound: worst_paper_bound(&flows, &config, message_flits),
                        backpressured_bound: worst_weighted_bound(
                            &flows,
                            &config,
                            message_flits,
                            WeightedFlavor::Backpressured,
                        ),
                        buffer_aware_bound: worst_buffer_aware_bound(
                            &flows,
                            &config,
                            mesh,
                            &buffers,
                            message_flits,
                        ),
                    });
                }
                rows.push(SweepRow {
                    side,
                    design: config.label(),
                    message_flits,
                    points,
                });
            }
        }
        Ok(Self { rows })
    }

    /// Deterministic human-readable rendering (the golden snapshot).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Buffer depth as a design axis — bound vs depth, all-to-one hotspot R(0,0)\n");
        out.push_str(
            "(closed-loop probing; '-' where the analysis does not apply to the design)\n",
        );
        let fmt_opt = |value: Option<u64>| match value {
            Some(v) => v.to_string(),
            None => "-".to_string(),
        };
        for row in &self.rows {
            out.push_str(&format!(
                "\n== {}x{} {} mf={} ==\n",
                row.side, row.side, row.design, row.message_flits
            ));
            out.push_str("depth | observed max | paper bound | buffer-aware | backpressured\n");
            for point in &row.points {
                out.push_str(&format!(
                    "{:>5} | {:>12} | {:>11} | {:>12} | {:>13}\n",
                    point.depth,
                    point.observed_max,
                    point.paper_bound,
                    fmt_opt(point.buffer_aware_bound),
                    fmt_opt(point.backpressured_bound),
                ));
            }
        }
        out
    }
}

/// Worst-flow paper-form bound: the chained-blocking model under round
/// robin, the paper-flavour weighted bound under WaW.
fn worst_paper_bound(flows: &FlowSet, config: &NocConfig, message_flits: u32) -> u64 {
    match config.arbitration {
        wnoc_core::ArbitrationPolicy::RoundRobin => {
            let l = config.packetization.worst_case_contender_flits();
            let mut oracle = RegularOracle::new(flows, config, l);
            worst_bound(&mut oracle, flows, message_flits).unwrap_or(0)
        }
        wnoc_core::ArbitrationPolicy::Waw => {
            let mut oracle = WeightedOracle::with_flavor(flows, config, WeightedFlavor::Paper);
            worst_bound(&mut oracle, flows, message_flits).unwrap_or(0)
        }
    }
}

/// Worst-flow weighted bound in the given flavour (WaW designs only).
fn worst_weighted_bound(
    flows: &FlowSet,
    config: &NocConfig,
    message_flits: u32,
    flavor: WeightedFlavor,
) -> Option<u64> {
    if config.arbitration != wnoc_core::ArbitrationPolicy::Waw {
        return None;
    }
    let mut oracle = WeightedOracle::with_flavor(flows, config, flavor);
    worst_bound(&mut oracle, flows, message_flits)
}

/// Worst-flow buffer-aware bound (WaW designs only).
fn worst_buffer_aware_bound(
    flows: &FlowSet,
    config: &NocConfig,
    mesh: Mesh,
    buffers: &BufferConfig,
    message_flits: u32,
) -> Option<u64> {
    if config.arbitration != wnoc_core::ArbitrationPolicy::Waw {
        return None;
    }
    let mut oracle = BufferAwareOracle::new(flows, config, mesh, buffers.clone());
    worst_bound(&mut oracle, flows, message_flits)
}

fn worst_bound(
    oracle: &mut dyn WcttBoundModel,
    flows: &FlowSet,
    message_flits: u32,
) -> Option<u64> {
    flows
        .iter()
        .filter_map(|(id, _)| oracle.message_bound(id, message_flits))
        .max()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced sweep (4×4 only) exercising the full pipeline; the complete
    /// table is covered by the golden snapshot in release CI.
    #[test]
    fn small_sweep_shape_and_invariants() {
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let config = NocConfig::waw_wap();
        let mut last_ba = u64::MAX;
        for depth in DEPTHS {
            let buffers = BufferConfig::uniform(depth);
            let mut sim =
                Simulation::with_vcs(mesh, config, &flows, &buffers, VcConfig::single()).unwrap();
            let report = sim.run_closed_loop(&flows, 1, 1_500).unwrap();
            let ba = worst_buffer_aware_bound(&flows, &config, mesh, &buffers, 1).unwrap();
            // Dominance at every depth, monotone tightening across depths.
            assert!(report.max() <= ba, "depth {depth}: {} > {ba}", report.max());
            assert!(ba <= last_ba, "depth {depth}: bound not monotone");
            last_ba = ba;
        }
    }

    #[test]
    fn render_lists_every_depth() {
        let table = BufferSweepTable {
            rows: vec![SweepRow {
                side: 4,
                design: "WaW+WaP".to_string(),
                message_flits: 1,
                points: DEPTHS
                    .iter()
                    .map(|&depth| DepthPoint {
                        depth,
                        observed_max: 10,
                        paper_bound: 20,
                        backpressured_bound: Some(30),
                        buffer_aware_bound: Some(25),
                    })
                    .collect(),
            }],
        };
        let text = table.render();
        for depth in DEPTHS {
            assert!(text.contains(&format!("\n{depth:>5} |")), "{text}");
        }
        assert!(text.contains("WaW+WaP"));
    }
}
