//! Experiment E1 — Table I: arbitration weights of router `R(1,1)` in a 2×2
//! mesh, plain round robin vs WaW.

use wnoc_core::weights::WeightTable;
use wnoc_core::{Coord, Mesh, Result};

/// One row of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightRow {
    /// The paper's label for the (input, output) pair, e.g. `W(X-,PME)`.
    pub pair: String,
    /// Bandwidth share under plain round robin ("Regular Mesh" column).
    pub round_robin: f64,
    /// Bandwidth share under WaW ("Weighted Mesh" column).
    pub waw: f64,
}

/// The complete Table I reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// The router the weights are reported for.
    pub router: Coord,
    /// The rows, sorted by output then input port.
    pub rows: Vec<WeightRow>,
}

impl Table1 {
    /// Computes the table for router `R(1,1)` of a 2×2 mesh under the
    /// all-to-all flow assumption, exactly as in the paper.
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept for API uniformity.
    pub fn run() -> Result<Self> {
        let mesh = Mesh::square(2)?;
        let router = Coord::from_row_col(1, 1);
        let weights = WeightTable::all_to_all(&mesh)?;
        let mut rows = Vec::new();
        for (input, output, _quota) in weights.pairs(router) {
            rows.push(WeightRow {
                pair: format!(
                    "W({},{})",
                    input.paper_input_label(),
                    output.paper_output_label()
                ),
                round_robin: weights.round_robin_share(router, input, output),
                waw: weights.weight(router, input, output),
            });
        }
        Ok(Self { router, rows })
    }

    /// Looks up a row by its pair label.
    pub fn row(&self, pair: &str) -> Option<&WeightRow> {
        self.rows.iter().find(|r| r.pair == pair)
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Table I — arbitration weights for {} in a 2x2 mesh\n",
            self.router
        ));
        out.push_str("pair           | regular mesh | weighted mesh (WaW)\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{:<14} | {:>12.2} | {:>19.2}\n",
                row.pair, row.round_robin, row.waw
            ));
        }
        out
    }
}

/// Sanity helper used by tests and the binary: the WaW weights of every output
/// port of the router sum to one.
pub fn weights_sum_to_one(table: &Table1) -> bool {
    use std::collections::HashMap;
    let mut sums: HashMap<String, f64> = HashMap::new();
    for row in &table.rows {
        let output = row.pair.split(',').nth(1).unwrap_or("").to_string();
        *sums.entry(output).or_insert(0.0) += row.waw;
    }
    sums.values().all(|s| (s - 1.0).abs() < 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_values() {
        let table = Table1::run().unwrap();
        // Table I of the paper.
        let expect = [
            ("W(PME,X-)", 1.0, 1.0),
            ("W(PME,Y-)", 0.5, 0.5),
            ("W(X+,PME)", 0.5, 1.0 / 3.0),
            ("W(X+,Y-)", 0.5, 0.5),
            ("W(Y+,PME)", 0.5, 2.0 / 3.0),
        ];
        for (pair, rr, waw) in expect {
            let row = table.row(pair).unwrap_or_else(|| panic!("missing {pair}"));
            assert!(
                (row.round_robin - rr).abs() < 1e-9,
                "{pair} rr {}",
                row.round_robin
            );
            assert!((row.waw - waw).abs() < 1e-9, "{pair} waw {}", row.waw);
        }
    }

    #[test]
    fn weights_normalise() {
        let table = Table1::run().unwrap();
        assert!(weights_sum_to_one(&table));
    }

    #[test]
    fn render_mentions_all_pairs() {
        let table = Table1::run().unwrap();
        let text = table.render();
        for row in &table.rows {
            assert!(text.contains(&row.pair));
        }
    }
}
