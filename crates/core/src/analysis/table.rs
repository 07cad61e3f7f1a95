//! Whole-mesh WCTT tables (the paper's Table II).
//!
//! For every flow of a scenario (by default: every node sends to the memory
//! controller at `R(0,0)`, as in Section IV), the per-flow WCTT bound is
//! computed with both the regular chained-blocking model and the WaW + WaP
//! weighted model; the table reports the maximum, mean and minimum across all
//! flows for each mesh size.

use crate::analysis::regular::RegularWcttModel;
use crate::analysis::weighted::WeightedWcttModel;
use crate::config::RouterTiming;
use crate::error::Result;
use crate::flow::FlowSet;
use crate::geometry::{Coord, MeshDims};
use crate::topology::Mesh;
use crate::weights::WeightTable;

/// Max / mean / min of a per-flow WCTT distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WcttSummary {
    /// Worst (largest) per-flow WCTT.
    pub max: u64,
    /// Mean per-flow WCTT.
    pub mean: f64,
    /// Best (smallest) per-flow WCTT.
    pub min: u64,
}

impl WcttSummary {
    /// Summarises a non-empty slice of per-flow WCTT values.
    ///
    /// Returns `None` for an empty slice.
    pub fn from_values(values: &[u64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let max = *values.iter().max().expect("non-empty");
        let min = *values.iter().min().expect("non-empty");
        let mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
        Some(Self { max, mean, min })
    }
}

/// One row of Table II: a mesh size with the regular and WaW + WaP summaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WcttTableRow {
    /// Mesh dimensions of this row.
    pub dims: MeshDims,
    /// Per-flow WCTT summary of the regular (round robin, no WaP) design.
    pub regular: WcttSummary,
    /// Per-flow WCTT summary of the WaW + WaP design.
    pub waw_wap: WcttSummary,
}

/// The complete WCTT table over a set of mesh sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct WcttTable {
    rows: Vec<WcttTableRow>,
}

/// Communication scenario the table is computed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowScenario {
    /// Every node sends to the node at the given coordinate (the paper's
    /// memory-controller scenario, `R(0,0)` in Section IV).
    AllToOne(Coord),
    /// Every node sends to every other node (assumption (1) taken literally).
    AllToAll,
}

impl FlowScenario {
    /// The scenario used by the paper's evaluation: all nodes to `R(0,0)`.
    pub fn paper_default() -> Self {
        FlowScenario::AllToOne(Coord::from_row_col(0, 0))
    }

    /// Materialises the flow set for `mesh`.
    ///
    /// # Errors
    ///
    /// Returns an error if the destination lies outside the mesh.
    pub fn flow_set(&self, mesh: &Mesh) -> Result<FlowSet> {
        match self {
            FlowScenario::AllToOne(dst) => FlowSet::all_to_one(mesh, *dst),
            FlowScenario::AllToAll => FlowSet::all_to_all(mesh),
        }
    }
}

impl WcttTable {
    /// Computes one row: per-flow WCTT bounds for a `side × side` mesh with
    /// `packet_flits`-flit packets (Table II uses 1-flit packets).
    ///
    /// # Errors
    ///
    /// Returns an error if the mesh cannot be built or the scenario is invalid.
    pub fn row(
        side: u16,
        scenario: FlowScenario,
        timing: RouterTiming,
        packet_flits: u32,
    ) -> Result<WcttTableRow> {
        let mesh = Mesh::square(side)?;
        let flows = scenario.flow_set(&mesh)?;
        let mut regular_model = RegularWcttModel::new(&flows, timing, packet_flits);
        // WaP slices every message into single-flit packets at the NIC, so
        // the weighted model's packet size is 1 regardless of `packet_flits`.
        let weighted_model = WeightedWcttModel::new(WeightTable::from_flow_set(&flows), timing, 1);
        let mut regular_values = Vec::with_capacity(flows.len());
        let mut weighted_values = Vec::with_capacity(flows.len());
        for (id, _flow) in flows.iter() {
            let route = flows.route(id).expect("route exists for every flow");
            regular_values.push(regular_model.route_wctt(route, packet_flits));
            weighted_values.push(weighted_model.message_wctt(route, packet_flits));
        }
        Ok(WcttTableRow {
            dims: mesh.dims(),
            regular: WcttSummary::from_values(&regular_values).expect("at least one flow"),
            waw_wap: WcttSummary::from_values(&weighted_values).expect("at least one flow"),
        })
    }

    /// Computes the full table for the given square mesh sizes (the paper uses
    /// 2..=8).
    ///
    /// # Errors
    ///
    /// Returns an error if any row cannot be computed.
    pub fn for_sizes(
        sides: &[u16],
        scenario: FlowScenario,
        timing: RouterTiming,
        packet_flits: u32,
    ) -> Result<Self> {
        let rows = sides
            .iter()
            .map(|&side| Self::row(side, scenario, timing, packet_flits))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { rows })
    }

    /// Reproduces the paper's Table II setup: square meshes from 2×2 to 8×8,
    /// 1-flit packets, every node sending to `R(0,0)`.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept for API uniformity.
    pub fn table2(timing: RouterTiming) -> Result<Self> {
        Self::for_sizes(
            &[2, 3, 4, 5, 6, 7, 8],
            FlowScenario::paper_default(),
            timing,
            1,
        )
    }

    /// The table rows.
    pub fn rows(&self) -> &[WcttTableRow] {
        &self.rows
    }

    /// Renders the table as aligned plain text (one line per mesh size).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "size   | regular max  regular mean  regular min | waw+wap max  waw+wap mean  waw+wap min\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{:<6} | {:>11}  {:>12.2}  {:>11} | {:>11}  {:>12.2}  {:>11}\n",
                row.dims.to_string(),
                row.regular.max,
                row.regular.mean,
                row.regular.min,
                row.waw_wap.max,
                row.waw_wap.mean,
                row.waw_wap.min,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_from_values() {
        let s = WcttSummary::from_values(&[6, 10, 14]).unwrap();
        assert_eq!(s.max, 14);
        assert_eq!(s.min, 6);
        assert!((s.mean - 10.0).abs() < 1e-9);
        assert!(WcttSummary::from_values(&[]).is_none());
    }

    #[test]
    fn row_basic_properties() {
        let row =
            WcttTable::row(4, FlowScenario::paper_default(), RouterTiming::CANONICAL, 1).unwrap();
        assert_eq!(row.dims.node_count(), 16);
        assert!(row.regular.max >= row.regular.mean as u64);
        assert!(row.regular.min <= row.regular.mean as u64);
        assert!(row.waw_wap.max >= row.waw_wap.min);
    }

    #[test]
    fn table2_shape_matches_paper() {
        // The qualitative claims of Table II:
        //  * the regular design's max WCTT explodes with mesh size;
        //  * the WaW+WaP max grows slowly (roughly linearly in the flow count);
        //  * for the small 2x2 mesh the two designs are comparable;
        //  * for the 8x8 mesh the regular max is orders of magnitude above
        //    WaW+WaP's, while the regular min stays below WaW+WaP's min.
        let table = WcttTable::table2(RouterTiming::CANONICAL).unwrap();
        let rows = table.rows();
        assert_eq!(rows.len(), 7);

        let first = &rows[0];
        let last = &rows[6];
        assert_eq!(first.dims.node_count(), 4);
        assert_eq!(last.dims.node_count(), 64);

        // 2x2: same order of magnitude.
        assert!(first.regular.max < 5 * first.waw_wap.max);

        // 8x8: regular max is at least 3 orders of magnitude above WaW+WaP max.
        assert!(
            last.regular.max > 1_000 * last.waw_wap.max,
            "regular {} vs waw {}",
            last.regular.max,
            last.waw_wap.max
        );
        // Regular min (adjacent node) stays small, below the WaW+WaP min.
        assert!(last.regular.min < last.waw_wap.min);

        // Regular max grows strictly and sharply with size.
        for pair in rows.windows(2) {
            assert!(pair[1].regular.max > 3 * pair[0].regular.max);
            assert!(pair[1].waw_wap.max > pair[0].waw_wap.max);
        }
    }

    #[test]
    fn waw_wap_max_scales_roughly_linearly_with_flows() {
        let table = WcttTable::table2(RouterTiming::CANONICAL).unwrap();
        for row in table.rows() {
            let flows = (row.dims.node_count() - 1) as u64;
            // Between 2 and 8 "cycles per contending flow", as in the paper
            // (310/63 ~ 4.9, 11/3 ~ 3.7).
            assert!(row.waw_wap.max >= 2 * flows, "{row:?}");
            assert!(row.waw_wap.max <= 8 * flows, "{row:?}");
        }
    }

    #[test]
    fn render_contains_all_sizes() {
        let table = WcttTable::for_sizes(
            &[2, 3],
            FlowScenario::paper_default(),
            RouterTiming::CANONICAL,
            1,
        )
        .unwrap();
        let text = table.render();
        assert!(text.contains("2x2"));
        assert!(text.contains("3x3"));
    }

    #[test]
    fn all_to_all_scenario_also_works() {
        let row = WcttTable::row(3, FlowScenario::AllToAll, RouterTiming::CANONICAL, 1).unwrap();
        assert!(row.regular.max > row.waw_wap.max);
    }
}
