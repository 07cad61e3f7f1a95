//! Experiment E2 — Table II: WCTT values (max / mean / min) for mesh sizes
//! 2×2 … 8×8 with 1-flit packets, regular mesh vs WaW + WaP.
//!
//! Two views are produced:
//!
//! * the **analytical** bounds (the quantity the paper tabulates), computed
//!   with the chained-blocking model for the regular mesh and the weighted
//!   bandwidth-share model for WaW + WaP;
//! * optionally, **observed** worst traversal latencies measured on the
//!   cycle-accurate simulator under a saturated all-to-`R(0,0)` hotspot, which
//!   validates the ordering (regular ≫ WaW + WaP for far nodes) on small
//!   meshes.

use wnoc_core::analysis::{WcttTable, WcttTableRow};
use wnoc_core::{Coord, Mesh, NocConfig, Result, RouterTiming};
use wnoc_sim::Simulation;

/// Observed (simulated) WCTT summary for one mesh size and one design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedRow {
    /// Mesh side.
    pub side: u16,
    /// Worst observed per-flow latency, regular design.
    pub regular_max: u64,
    /// Worst observed per-flow latency, WaW + WaP design.
    pub waw_wap_max: u64,
    /// Best flow's worst observed latency, regular design.
    pub regular_min: u64,
    /// Best flow's worst observed latency, WaW + WaP design.
    pub waw_wap_min: u64,
}

/// The complete Table II reproduction.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Analytical rows, one per mesh size.
    pub analytical: Vec<WcttTableRow>,
    /// Observed rows for the sizes that were simulated (may be empty).
    pub observed: Vec<ObservedRow>,
}

impl Table2 {
    /// The mesh sizes tabulated by the paper.
    pub const PAPER_SIZES: [u16; 7] = [2, 3, 4, 5, 6, 7, 8];

    /// Computes the analytical table for the paper's sizes.
    ///
    /// # Errors
    ///
    /// Never fails in practice.
    pub fn analytical() -> Result<Vec<WcttTableRow>> {
        Ok(WcttTable::table2(RouterTiming::CANONICAL)?.rows().to_vec())
    }

    /// Runs the saturated-hotspot simulation for the given sizes and returns
    /// the observed per-flow worst latencies.
    ///
    /// # Errors
    ///
    /// Never fails for valid sizes.
    pub fn observed(sides: &[u16], warmup: u64, measure: u64) -> Result<Vec<ObservedRow>> {
        let mut rows = Vec::new();
        for &side in sides {
            let mesh = Mesh::square(side)?;
            let hotspot = Coord::from_row_col(0, 0);
            let regular = Simulation::saturated_hotspot(
                mesh,
                NocConfig::regular(1),
                hotspot,
                1,
                warmup,
                measure,
            )?;
            let proposed = Simulation::saturated_hotspot(
                mesh,
                NocConfig::waw_wap(),
                hotspot,
                1,
                warmup,
                measure,
            )?;
            rows.push(ObservedRow {
                side,
                regular_max: regular.max(),
                waw_wap_max: proposed.max(),
                regular_min: regular.min_of_max(),
                waw_wap_min: proposed.min_of_max(),
            });
        }
        Ok(rows)
    }

    /// Runs the full experiment: analytical bounds for all paper sizes plus
    /// observed latencies for the small sizes (2–4) that simulate quickly.
    ///
    /// # Errors
    ///
    /// Never fails in practice.
    pub fn run(simulate: bool) -> Result<Self> {
        let analytical = Self::analytical()?;
        let observed = if simulate {
            Self::observed(&[2, 3, 4], 2_000, 4_000)?
        } else {
            Vec::new()
        };
        Ok(Self {
            analytical,
            observed,
        })
    }

    /// Renders both views as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Table II — analytical WCTT bounds, 1-flit packets, all nodes -> R(0,0)\n");
        out.push_str(
            "size   | regular max  regular mean  regular min | waw+wap max  waw+wap mean  waw+wap min\n",
        );
        for row in &self.analytical {
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
        if !self.observed.is_empty() {
            out.push_str("\nObserved worst traversal latencies under saturation (cycle-accurate simulator)\n");
            out.push_str("size   | regular max  regular min | waw+wap max  waw+wap min\n");
            for row in &self.observed {
                out.push_str(&format!(
                    "{:<6} | {:>11}  {:>11} | {:>11}  {:>11}\n",
                    format!("{0}x{0}", row.side),
                    row.regular_max,
                    row.regular_min,
                    row.waw_wap_max,
                    row.waw_wap_min,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytical_table_has_paper_shape() {
        let rows = Table2::analytical().unwrap();
        assert_eq!(rows.len(), 7);
        let last = rows.last().unwrap();
        // 8x8: regular max is orders of magnitude above WaW+WaP max.
        assert!(last.regular.max > 1_000 * last.waw_wap.max);
        // The regular min (node adjacent to the memory) is below WaW+WaP's min.
        assert!(last.regular.min < last.waw_wap.min);
    }

    #[test]
    fn observed_rows_confirm_the_ordering_on_a_small_mesh() {
        let rows = Table2::observed(&[3], 1_000, 2_000).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        // Under saturation the far flows of the regular design are served far
        // worse than the best flow; WaW+WaP narrows that spread.
        assert!(row.regular_max > row.waw_wap_max / 4);
        assert!(row.regular_max >= row.regular_min);
        assert!(row.waw_wap_max >= row.waw_wap_min);
    }

    #[test]
    fn render_contains_both_sections_when_simulated() {
        let table = Table2 {
            analytical: Table2::analytical().unwrap(),
            observed: Table2::observed(&[2], 500, 1_000).unwrap(),
        };
        let text = table.render();
        assert!(text.contains("8x8"));
        assert!(text.contains("Observed"));
    }
}
