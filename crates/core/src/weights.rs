//! WaW arbitration weights.
//!
//! The WCTT-aware Weighted round-robin (WaW) arbitration of Section III assigns
//! each input/output port pair of every router a weight
//!
//! ```text
//! W(I_diri, O_diro) = I_diri / O_diro
//! ```
//!
//! where `I_diri` is the amount of traffic that can enter the router through
//! input `diri` and `O_diro` the amount that can leave through output `diro`.
//! The weight is the fraction of the output port's bandwidth that is guaranteed
//! to the flows behind the input port, so that every flow ends up with (at
//! least) a `1 / O_diro` share regardless of how far away it was injected —
//! this is what removes the distance unfairness of plain round robin.
//!
//! [`WeightTable`] derives weights from an explicit [`FlowSet`] (counting actual
//! flows per port pair).  For the all-to-all flow set the resulting weight
//! ratios coincide with the paper's closed-form source-count equations
//! ([`paper_input_source_count`]/[`paper_output_source_count`]); this is checked
//! by unit and property tests.
//!
//! The hardware implementation described in the paper represents weights as
//! per-input-port *flit counters*: the quota of an input port toward an output
//! port is the number of flits it may transmit per arbitration round.  The
//! quotas exposed by [`WeightTable::reduced_quotas`] are the per-pair flow
//! counts divided by their greatest common divisor within each output port, so
//! that the arbitration round is as short as possible while preserving the
//! bandwidth ratios.
//!
//! # Layout
//!
//! One table type holds the flow counts every consumer reads, under both
//! arbitrations: the simulator's WaW arbiters, every weighted bound (paper,
//! backpressured, buffer-aware, graph-based bursty), the round-robin
//! chained-blocking recursion (through [`WeightTable::column_support`] and
//! [`WeightTable::contender_count`]), the slot envelope, the incremental
//! analysis engine and the conformance flow-set cache.  Counts are stored
//! densely, one *column* per `(router, output)` port at index
//! `node · 5 + output` ([`Mesh::port_index`], the index every per-port table
//! uses): `outputs[column]` is the output count `O` and
//! `pairs[column · 5 + input]` the pair count.  A bound reads `O` at every
//! hop of every route, so a read is one bounds check and one load rather
//! than a hash; an unused port simply holds 0.

use crate::flow::{paper_input_source_count, paper_output_source_count, FlowSet};
use crate::geometry::Coord;
use crate::port::Port;
use crate::routing::{Hop, Route};
use crate::topology::Mesh;

/// Per-router, per (input, output) pair arbitration weights for a whole mesh.
///
/// # Examples
///
/// Reproducing Table I of the paper (router `R(1,1)` of a 2×2 mesh):
///
/// ```
/// use wnoc_core::{flow::FlowSet, geometry::Coord, port::{Direction, Port},
///                 topology::Mesh, weights::WeightTable};
///
/// let mesh = Mesh::square(2)?;
/// let weights = WeightTable::all_to_all(&mesh)?;
/// let r11 = Coord::from_row_col(1, 1);
/// // W(X-, PME) = 1/3 and W(Y-, PME) = 2/3 in the paper's labelling; the west
/// // input carries one of the three flows that eject at R(1,1), the north
/// // input the other two.
/// let w_west = weights.weight(r11, Port::Mesh(Direction::West), Port::Local);
/// let w_north = weights.weight(r11, Port::Mesh(Direction::North), Port::Local);
/// assert!((w_west - 1.0 / 3.0).abs() < 1e-9);
/// assert!((w_north - 2.0 / 3.0).abs() < 1e-9);
/// # Ok::<(), wnoc_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightTable {
    mesh: Mesh,
    /// Flows leaving through each `(router, output)` port, indexed by column
    /// `node · 5 + output`.
    outputs: Vec<u32>,
    /// Flows through each `(router, input, output)` pair, indexed
    /// `column · 5 + input`: the inputs contending for one output are
    /// adjacent.
    pairs: Vec<u32>,
}

impl WeightTable {
    /// Derives weights from a concrete flow set (each flow routed with XY).
    pub fn from_flow_set(flows: &FlowSet) -> Self {
        let mesh = *flows.mesh();
        let columns = mesh.router_count() * Port::COUNT;
        let mut table = Self {
            mesh,
            outputs: vec![0; columns],
            pairs: vec![0; columns * Port::COUNT],
        };
        // Single pass over every flow's route: each traversed hop contributes
        // one flow to its (router, input, output) pair and to its output port.
        for (id, _flow) in flows.iter() {
            let route = flows.route(id).expect("every flow has a route");
            for hop in route.hops() {
                table.count_hop(hop, true);
            }
        }
        table
    }

    /// Derives the statically precomputable weights for the all-to-all flow set
    /// (assumption (1) of the paper: every node can send to every other node).
    ///
    /// # Errors
    ///
    /// Never fails for a valid mesh; the `Result` mirrors the other constructors.
    pub fn all_to_all(mesh: &Mesh) -> crate::error::Result<Self> {
        let flows = FlowSet::all_to_all(mesh)?;
        Ok(Self::from_flow_set(&flows))
    }

    /// The mesh the weights were derived for.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Dense column index of the `(router, output)` port
    /// ([`Mesh::port_index`]), or `None` if `router` lies outside the mesh.
    #[inline]
    fn column(&self, router: Coord, output: Port) -> Option<usize> {
        self.mesh
            .contains(router)
            .then(|| self.mesh.port_index(router, output))
    }

    /// Pair counts of every input toward the output of `column`, in
    /// input-port index order.
    fn column_pairs(&self, column: usize) -> &[u32] {
        &self.pairs[column * Port::COUNT..(column + 1) * Port::COUNT]
    }

    /// Registers (`add`) or removes one flow's traversal of `hop`, and
    /// returns whether the hop's pair count flipped between zero and
    /// non-zero: that is, whether its input joined or left the column's
    /// [`WeightTable::column_support`].
    ///
    /// # Panics
    ///
    /// Panics if the hop's router lies outside the mesh.
    pub(crate) fn count_hop(&mut self, hop: &Hop, add: bool) -> bool {
        let column = self
            .column(hop.router, hop.output)
            .expect("route hops lie inside the table's mesh");
        let pair = &mut self.pairs[column * Port::COUNT + hop.input.index()];
        let output = &mut self.outputs[column];
        let before = *pair;
        if add {
            *pair += 1;
            *output += 1;
        } else {
            debug_assert!(*pair > 0, "removing a route that was never added");
            *pair = pair.saturating_sub(1);
            *output = output.saturating_sub(1);
        }
        (before == 0) != (*pair == 0)
    }

    /// Raw quota of `(input, output)` at `router`: the number of flows that
    /// traverse the router from `input` to `output`.  Zero if no flow uses the
    /// pair or `router` lies outside the mesh.
    pub fn quota(&self, router: Coord, input: Port, output: Port) -> u32 {
        self.column(router, output)
            .map_or(0, |column| self.column_pairs(column)[input.index()])
    }

    /// Total number of flows using output port `output` at `router` (zero
    /// outside the mesh).
    pub fn output_flows(&self, router: Coord, output: Port) -> u32 {
        self.column(router, output)
            .map_or(0, |column| self.outputs[column])
    }

    /// Normalised weight `W(input, output)` — the fraction of the output port's
    /// bandwidth guaranteed to the input port.  Zero if the pair is unused.
    pub fn weight(&self, router: Coord, input: Port, output: Port) -> f64 {
        let o = self.output_flows(router, output);
        if o == 0 {
            return 0.0;
        }
        f64::from(self.quota(router, input, output)) / f64::from(o)
    }

    /// The input ports carrying at least one flow towards `output` at
    /// `router`, as a mask over [`Port::index`] (zero outside the mesh).
    /// Round-robin arbitration reads the counts only through this mask: it
    /// serves every input with a flow once, whatever the flow count.
    pub fn column_support(&self, router: Coord, output: Port) -> u32 {
        self.column(router, output).map_or(0, |column| {
            self.column_pairs(column)
                .iter()
                .enumerate()
                .filter(|&(_, &count)| count > 0)
                .fold(0, |mask, (input, _)| mask | 1 << input)
        })
    }

    /// Number of input ports other than `input` that carry at least one flow
    /// towards `output` at `router`: the contenders a packet entering
    /// through `input` can find requesting the same output under round
    /// robin.  An input facing `output` itself would be a U-turn, so it is
    /// never counted.
    pub fn contender_count(&self, router: Coord, input: Port, output: Port) -> u32 {
        let others = !(1 << input.index() | 1 << output.index());
        (self.column_support(router, output) & others).count_ones()
    }

    /// The default (unweighted) round-robin share of the same pair: `1 / k`
    /// where `k` is the number of input ports with at least one flow toward
    /// `output`.  Used to reproduce the "Regular Mesh" column of Table I.
    pub fn round_robin_share(&self, router: Coord, input: Port, output: Port) -> f64 {
        let support = self.column_support(router, output);
        if support & 1 << input.index() == 0 {
            return 0.0;
        }
        1.0 / f64::from(support.count_ones())
    }

    /// Integer flit quotas of every input port contending for `output` at
    /// `router`, reduced by their greatest common divisor so the arbitration
    /// round is as short as possible.  Returns `(input, quota)` pairs sorted by
    /// input-port index; inputs without flows toward `output` are omitted.
    pub fn reduced_quotas(&self, router: Coord, output: Port) -> Vec<(Port, u32)> {
        let Some(column) = self.column(router, output) else {
            return Vec::new();
        };
        // `Port::ALL` is in index order, so the list comes out sorted.
        let mut raw: Vec<(Port, u32)> = Port::ALL
            .into_iter()
            .zip(self.column_pairs(column).iter().copied())
            .filter(|&(_, q)| q > 0)
            .collect();
        let divisor = raw.iter().fold(0u32, |acc, (_, q)| gcd(acc, *q));
        if divisor > 1 {
            for (_, q) in &mut raw {
                *q /= divisor;
            }
        }
        raw
    }

    /// All (input, output) pairs with a non-zero quota at `router`, sorted by
    /// `(output, input)` port index for deterministic iteration.
    pub fn pairs(&self, router: Coord) -> Vec<(Port, Port, u32)> {
        let mut pairs = Vec::new();
        for output in Port::ALL {
            let Some(column) = self.column(router, output) else {
                continue;
            };
            for (input, &quota) in Port::ALL.into_iter().zip(self.column_pairs(column)) {
                if quota > 0 {
                    pairs.push((input, output, quota));
                }
            }
        }
        pairs
    }

    /// Applies one route's hops to the table (`add` registers the flow, `!add`
    /// removes a previously-registered one).  The table stays equal to one
    /// rebuilt by [`WeightTable::from_flow_set`] over the mutated flow set.
    ///
    /// The counts that change are those of the route's own hop columns:
    /// each hop's `(router, output)` count and its `(router, input, output)`
    /// pair count move by one.
    ///
    /// # Panics
    ///
    /// Panics if a hop of `route` lies outside the table's mesh.
    pub fn apply_route_delta(&mut self, route: &Route, add: bool) {
        for hop in route.hops() {
            self.count_hop(hop, add);
        }
    }

    /// The paper's closed-form weight `I_diri / O_diro` from the Section III
    /// source-count equations, provided for comparison and for reproducing
    /// Table I directly from the formulas.
    pub fn paper_formula_weight(mesh: &Mesh, router: Coord, input: Port, output: Port) -> f64 {
        let i = paper_input_source_count(mesh, router, input) as f64;
        let o = paper_output_source_count(mesh, router, output) as f64;
        if o == 0.0 {
            0.0
        } else {
            i / o
        }
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::Direction;

    #[test]
    fn table1_weights_2x2_r11() {
        // Table I of the paper, router R(1,1) of a 2x2 mesh.
        let mesh = Mesh::square(2).unwrap();
        let w = WeightTable::all_to_all(&mesh).unwrap();
        let r11 = Coord::from_row_col(1, 1);
        // W(PME, X-) = 1: the local node is the only source of westbound flows.
        assert!((w.weight(r11, Port::Local, Port::Mesh(Direction::West)) - 1.0).abs() < 1e-9);
        // W(PME, Y-) = 0.5.
        assert!((w.weight(r11, Port::Local, Port::Mesh(Direction::North)) - 0.5).abs() < 1e-9);
        // W(X-, PME) = 0.33.
        assert!((w.weight(r11, Port::Mesh(Direction::West), Port::Local) - 1.0 / 3.0).abs() < 1e-9);
        // W(X-, Y-) = 0.5.
        assert!(
            (w.weight(
                r11,
                Port::Mesh(Direction::West),
                Port::Mesh(Direction::North)
            ) - 0.5)
                .abs()
                < 1e-9
        );
        // W(Y-, PME) = 0.66.
        assert!(
            (w.weight(r11, Port::Mesh(Direction::North), Port::Local) - 2.0 / 3.0).abs() < 1e-9
        );
    }

    #[test]
    fn table1_round_robin_column() {
        // The "Regular Mesh" column of Table I: plain round robin gives each
        // contending input port an equal share.
        let mesh = Mesh::square(2).unwrap();
        let w = WeightTable::all_to_all(&mesh).unwrap();
        let r11 = Coord::from_row_col(1, 1);
        assert!(
            (w.round_robin_share(r11, Port::Local, Port::Mesh(Direction::West)) - 1.0).abs() < 1e-9
        );
        assert!(
            (w.round_robin_share(r11, Port::Local, Port::Mesh(Direction::North)) - 0.5).abs()
                < 1e-9
        );
        assert!(
            (w.round_robin_share(r11, Port::Mesh(Direction::West), Port::Local) - 0.5).abs() < 1e-9
        );
        assert!(
            (w.round_robin_share(r11, Port::Mesh(Direction::North), Port::Local) - 0.5).abs()
                < 1e-9
        );
    }

    #[test]
    fn paper_formula_matches_flow_derived_weights() {
        // The closed-form I/O ratios of the paper coincide with the flow-count
        // derived weights for the all-to-all flow set.
        for side in [2u16, 3, 4] {
            let mesh = Mesh::square(side).unwrap();
            let w = WeightTable::all_to_all(&mesh).unwrap();
            for router in mesh.routers() {
                for input in mesh.ports(router) {
                    for output in mesh.ports(router) {
                        if w.quota(router, input, output) == 0 {
                            continue;
                        }
                        let flow_weight = w.weight(router, input, output);
                        let formula =
                            WeightTable::paper_formula_weight(&mesh, router, input, output);
                        assert!(
                            (flow_weight - formula).abs() < 1e-9,
                            "weight mismatch at {router} {input}->{output} ({side}x{side}): \
                             {flow_weight} vs {formula}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weights_of_an_output_port_sum_to_one() {
        let mesh = Mesh::square(4).unwrap();
        let w = WeightTable::all_to_all(&mesh).unwrap();
        for router in mesh.routers() {
            for output in mesh.ports(router) {
                if w.output_flows(router, output) == 0 {
                    continue;
                }
                let sum: f64 = Port::ALL
                    .iter()
                    .map(|input| w.weight(router, *input, output))
                    .sum();
                assert!(
                    (sum - 1.0).abs() < 1e-9,
                    "weights at {router} -> {output} sum to {sum}"
                );
            }
        }
    }

    #[test]
    fn all_to_one_weights_only_cover_used_ports() {
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let w = WeightTable::from_flow_set(&flows);
        // No flow ever travels east or south in this scenario.
        for router in mesh.routers() {
            assert_eq!(w.output_flows(router, Port::Mesh(Direction::East)), 0);
            assert_eq!(w.output_flows(router, Port::Mesh(Direction::South)), 0);
        }
        // The local output of R(0,0) carries all 15 flows.
        assert_eq!(w.output_flows(Coord::from_row_col(0, 0), Port::Local), 15);
    }

    #[test]
    fn quotas_are_zero_for_illegal_turns() {
        let mesh = Mesh::square(4).unwrap();
        let w = WeightTable::all_to_all(&mesh).unwrap();
        for router in mesh.routers() {
            // Y to X turns are forbidden by XY routing.
            for vin in [Direction::North, Direction::South] {
                for hout in [Direction::East, Direction::West] {
                    assert_eq!(w.quota(router, Port::Mesh(vin), Port::Mesh(hout)), 0);
                }
            }
        }
    }

    #[test]
    fn reduced_quotas_preserve_ratios_and_shrink() {
        let mesh = Mesh::square(4).unwrap();
        let w = WeightTable::all_to_all(&mesh).unwrap();
        for router in mesh.routers() {
            for output in mesh.ports(router) {
                let raw: Vec<(Port, u32)> = Port::ALL
                    .iter()
                    .filter_map(|&input| {
                        let q = w.quota(router, input, output);
                        (q > 0).then_some((input, q))
                    })
                    .collect();
                let reduced = w.reduced_quotas(router, output);
                assert_eq!(raw.len(), reduced.len());
                if raw.is_empty() {
                    continue;
                }
                // Ratios preserved.
                for ((p1, q1), (p2, q2)) in raw.iter().zip(reduced.iter()) {
                    assert_eq!(p1, p2);
                    assert_eq!(q1 * reduced[0].1, q2 * raw[0].1, "ratio broken at {router}");
                }
                // gcd of the reduced quotas is 1.
                let g = reduced.iter().fold(0u32, |acc, (_, q)| super::gcd(acc, *q));
                assert_eq!(g, 1);
            }
        }
    }

    #[test]
    fn quotas_sum_to_output_flow_count() {
        let mesh = Mesh::square(3).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::new(0, 0)).unwrap();
        let w = WeightTable::from_flow_set(&flows);
        for router in mesh.routers() {
            for output in mesh.ports(router) {
                let sum: u32 = Port::ALL
                    .iter()
                    .map(|input| w.quota(router, *input, output))
                    .sum();
                assert_eq!(sum, w.output_flows(router, output));
            }
        }
    }

    #[test]
    fn pairs_listing_is_sorted_and_complete() {
        let mesh = Mesh::square(3).unwrap();
        let w = WeightTable::all_to_all(&mesh).unwrap();
        let center = Coord::new(1, 1);
        let pairs = w.pairs(center);
        assert!(!pairs.is_empty());
        for (input, output, quota) in &pairs {
            assert_eq!(w.quota(center, *input, *output), *quota);
            assert!(*quota > 0);
        }
    }

    #[test]
    fn apply_route_delta_matches_rebuild() {
        let mesh = Mesh::square(4).unwrap();
        let full = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let mut reduced = full.clone();
        let (_flow, removed_route) = reduced.pop().unwrap();
        // Removing the last flow's route leaves the table of the reduced set.
        let mut table = WeightTable::from_flow_set(&full);
        table.apply_route_delta(&removed_route, false);
        let rebuilt = WeightTable::from_flow_set(&reduced);
        for router in mesh.routers() {
            for input in Port::ALL {
                for output in Port::ALL {
                    assert_eq!(
                        table.quota(router, input, output),
                        rebuilt.quota(router, input, output)
                    );
                }
                assert_eq!(
                    table.output_flows(router, input),
                    rebuilt.output_flows(router, input)
                );
            }
        }
        // Re-adding restores the full table.
        table.apply_route_delta(&removed_route, true);
        let original = WeightTable::from_flow_set(&full);
        for router in mesh.routers() {
            for input in Port::ALL {
                for output in Port::ALL {
                    assert_eq!(
                        table.quota(router, input, output),
                        original.quota(router, input, output)
                    );
                }
            }
        }
    }

    #[test]
    fn gcd_helper() {
        assert_eq!(super::gcd(0, 5), 5);
        assert_eq!(super::gcd(5, 0), 5);
        assert_eq!(super::gcd(12, 18), 6);
        assert_eq!(super::gcd(7, 13), 1);
    }
}
