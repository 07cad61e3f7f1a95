//! Experiment A1 (ours) — ablation of the two mechanisms: how much of the WCTT
//! improvement comes from WaP (minimum-size packets) and how much from WaW
//! (weighted arbitration)?
//!
//! The paper always evaluates the two together; this ablation computes the
//! Table-II style worst-case WCTT of the 8×8 all-to-`R(0,0)` scenario for the
//! four combinations, with the message size of a cache-line response (4 flits).

use wnoc_core::analysis::{RegularWcttModel, WeightedWcttModel};
use wnoc_core::flow::FlowSet;
use wnoc_core::weights::WeightTable;
use wnoc_core::{Coord, Mesh, PacketizationPolicy, Result};

/// WCTT summary of one design point of the ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Human-readable design label.
    pub design: String,
    /// Worst per-flow WCTT bound.
    pub max: u64,
    /// Mean per-flow WCTT bound.
    pub mean: f64,
    /// Best per-flow WCTT bound.
    pub min: u64,
}

/// The full ablation result.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// Mesh side used.
    pub side: u16,
    /// Message size in regular-packetization flits.
    pub message_flits: u32,
    /// One point per design combination.
    pub points: Vec<AblationPoint>,
}

fn summarise(design: &str, values: &[u64]) -> AblationPoint {
    let max = values.iter().max().copied().unwrap_or(0);
    let min = values.iter().min().copied().unwrap_or(0);
    let mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len().max(1) as f64;
    AblationPoint {
        design: design.to_string(),
        max,
        mean,
        min,
    }
}

impl Ablation {
    /// Runs the ablation for a `side × side` mesh and a message of
    /// `message_flits` flits (4 = one cache line), with maximum packet size
    /// `max_packet_flits` for the designs that use regular packetization.
    ///
    /// # Errors
    ///
    /// Never fails for valid parameters.
    pub fn run(side: u16, message_flits: u32, max_packet_flits: u32) -> Result<Self> {
        let mesh = Mesh::square(side)?;
        let memory = Coord::from_row_col(0, 0);
        let flows = FlowSet::all_to_one(&mesh, memory)?;
        let weights = WeightTable::from_flow_set(&flows);
        // Baseline: round robin + regular packetization (contenders of size L).
        let mut baseline = RegularWcttModel::new(&flows, max_packet_flits);
        // WaP only: round robin, but every packet in the network is one flit.
        let mut wap_only = RegularWcttModel::new(&flows, 1);
        // WaW only: weighted arbitration, packets stay L flits long.
        let waw_only = WeightedWcttModel::new(weights.clone(), max_packet_flits);
        // Full proposal: weighted arbitration + single-flit slices.
        let full = WeightedWcttModel::new(weights, 1);

        // Under WaP the message is sliced into single-flit packets that each
        // replicate the control information (a cache line becomes 5).
        let slices = PacketizationPolicy::Wap.split(message_flits);

        let mut baseline_values = Vec::new();
        let mut wap_values = Vec::new();
        let mut waw_values = Vec::new();
        let mut full_values = Vec::new();
        for (id, _flow) in flows.iter() {
            let route = flows.route(id).expect("route exists");
            baseline_values.push(baseline.route_wctt(route, message_flits));
            wap_values.push(wap_only.message_wctt(route, slices));
            waw_values.push(waw_only.message_wctt(route, 1));
            full_values.push(full.message_wctt(route, slices.packets));
        }

        Ok(Self {
            side,
            message_flits,
            points: vec![
                summarise("regular (RR + L-flit packets)", &baseline_values),
                summarise("WaP only (RR + 1-flit packets)", &wap_values),
                summarise("WaW only (weighted + L-flit packets)", &waw_values),
                summarise("WaW + WaP", &full_values),
            ],
        })
    }

    /// Looks up a point by its design label prefix.
    pub fn point(&self, prefix: &str) -> Option<&AblationPoint> {
        self.points.iter().find(|p| p.design.starts_with(prefix))
    }

    /// Renders the ablation as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Ablation — {0}x{0} mesh, all nodes -> R(0,0), {1}-flit messages\n",
            self.side, self.message_flits
        ));
        out.push_str(
            "design                                  |        max |       mean |    min\n",
        );
        for point in &self.points {
            out.push_str(&format!(
                "{:<39} | {:>10} | {:>10.1} | {:>6}\n",
                point.design, point.max, point.mean, point.min
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_mechanism_helps_and_the_combination_wins() {
        let ablation = Ablation::run(8, 4, 4).unwrap();
        let baseline = ablation.point("regular").unwrap().max;
        let wap_only = ablation.point("WaP only").unwrap().max;
        let waw_only = ablation.point("WaW only").unwrap().max;
        let full = ablation.point("WaW + WaP").unwrap().max;

        // WaP alone shrinks every *contender* slot to one flit, but under plain
        // round robin the sender's own message is now several packets that each
        // re-arbitrate, so the end-to-end bound of the worst flow stays in the
        // same order of magnitude as the baseline — WaP needs WaW to pay off.
        assert!(wap_only > baseline / 10);
        assert!(wap_only < 10 * baseline);
        // WaW alone removes the exponential unfairness entirely.
        assert!(waw_only < baseline / 100);
        // The combination is the best of all four for the worst-served flow.
        assert!(full <= waw_only);
        assert!(full <= wap_only);
        assert!(full < baseline / 1000);
    }

    #[test]
    fn ablation_has_four_points() {
        let ablation = Ablation::run(4, 4, 4).unwrap();
        assert_eq!(ablation.points.len(), 4);
        let text = ablation.render();
        assert!(text.contains("WaW + WaP"));
        assert!(text.contains("WaP only"));
    }
}
