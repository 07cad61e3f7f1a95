//! Experiment E7 — the Section III worked example: worst-case latency at a
//! single output port contended by four input ports, regular packetization
//! (`3·L + S`) vs WaP (`3·m + m`), both analytically and observed on a single
//! simulated router.

use wnoc_core::analysis::slot::{contended_port_latency, wap_improvement_factor};
use wnoc_core::flow::FlowSet;
use wnoc_core::{Coord, Mesh, NocConfig, Result};
use wnoc_sim::Simulation;

/// One row of the slot-model experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotPoint {
    /// Maximum packet size `L` in flits.
    pub max_packet_flits: u32,
    /// Analytical worst-case latency with regular packetization (`3·L + S`).
    pub regular_latency: u64,
    /// Analytical worst-case latency with WaP (`3·m + m`, `m` = 1).
    pub wap_latency: u64,
    /// Improvement factor.
    pub improvement: f64,
}

/// The slot-model experiment: the analytical sweep plus one simulated
/// cross-check of a 4-way contended ejection port.
#[derive(Debug, Clone)]
pub struct SlotModel {
    /// Analytical sweep over maximum packet sizes.
    pub points: Vec<SlotPoint>,
    /// Observed worst traversal latency of a 4-flit message through a 4-way
    /// contended hotspot under the regular design (simulated).
    pub observed_regular: u64,
    /// Same under WaW + WaP.
    pub observed_wap: u64,
}

impl SlotModel {
    /// Runs the analytical sweep (contending inputs fixed at 4, as in the
    /// paper's example) and a small simulated cross-check on a 3×3 mesh whose
    /// centre node is a hotspot reached from four directions.
    ///
    /// # Errors
    ///
    /// Never fails in practice.
    pub fn run() -> Result<Self> {
        let contenders = 4;
        let points = [2u32, 4, 8, 16]
            .iter()
            .map(|&l| SlotPoint {
                max_packet_flits: l,
                regular_latency: contended_port_latency(contenders, l, l),
                wap_latency: contended_port_latency(contenders, 1, 1),
                improvement: wap_improvement_factor(contenders, l, l, 1),
            })
            .collect();

        // Simulated cross-check: the centre of a 3x3 mesh is flooded from its
        // four neighbours; the observed worst latency of a 4-flit message is
        // much larger under regular packetization than under WaW+WaP.
        let mesh = Mesh::square(3)?;
        let hotspot = Coord::from_row_col(1, 1);
        let measure = |config: NocConfig| -> Result<u64> {
            let flows = FlowSet::from_pairs(
                &mesh,
                [(0u16, 1u16), (1, 0), (1, 2), (2, 1)]
                    .iter()
                    .map(|&(r, c)| {
                        (
                            mesh.node_id(Coord::from_row_col(r, c))
                                .expect("inside mesh"),
                            mesh.node_id(hotspot).expect("inside mesh"),
                        )
                    }),
            )?;
            let mut sim = Simulation::new(mesh, config, &flows)?;
            let report = sim.run_saturated(&flows, 4, 1_000, 2_000)?;
            Ok(report.max())
        };
        let observed_regular = measure(NocConfig::regular(4))?;
        let observed_wap = measure(NocConfig::waw_wap())?;

        Ok(Self {
            points,
            observed_regular,
            observed_wap,
        })
    }

    /// Renders the experiment as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Section III slot model — 4 contending inputs at one output port\n");
        out.push_str("L      | regular (3L+S) | WaP (3m+m) | improvement\n");
        for p in &self.points {
            out.push_str(&format!(
                "L{:<5} | {:>14} | {:>10} | {:>10.2}x\n",
                p.max_packet_flits, p.regular_latency, p.wap_latency, p.improvement
            ));
        }
        out.push_str(&format!(
            "\nObserved on a simulated 4-way hotspot (4-flit messages): regular {} cycles, WaW+WaP {} cycles\n",
            self.observed_regular, self.observed_wap
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytical_points_match_the_formula() {
        let slot = SlotModel::run().unwrap();
        for p in &slot.points {
            assert_eq!(
                p.regular_latency,
                3 * u64::from(p.max_packet_flits) + u64::from(p.max_packet_flits)
            );
            assert_eq!(p.wap_latency, 4);
            assert!(p.improvement > 1.0);
        }
        // Improvement grows with L.
        assert!(slot.points.last().unwrap().improvement > slot.points[0].improvement);
    }

    #[test]
    fn simulated_hotspot_reflects_the_slot_model() {
        let slot = SlotModel::run().unwrap();
        assert!(slot.observed_regular > 0);
        assert!(slot.observed_wap > 0);
        let text = slot.render();
        assert!(text.contains("improvement"));
    }
}
