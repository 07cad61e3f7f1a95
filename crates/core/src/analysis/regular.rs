//! Time-composable WCTT bound for the baseline (round-robin, regular
//! packetization) wormhole mesh.
//!
//! # Model
//!
//! Time composability forbids any assumption about *how much* traffic the other
//! flows inject (Section II.A of the paper): whenever the packet under analysis
//! needs an output port, every other flow that could use that port is assumed
//! to be requesting it too (assumption (2)), with a maximum-size packet
//! (assumption (4)), in an already congested network (assumption (5)).  What is
//! statically known is the *flow topology* of the platform — which
//! source/destination pairs can communicate at all (assumption (1)); in the
//! paper's evaluation every node communicates with the memory controller at
//! `R(0,0)`.
//!
//! The bound is computed with the recursion
//!
//! ```text
//! drain(r, out)  = worst-case time for one granted L-flit contender packet to
//!                  completely clear output `out` of router r
//!                = eject + L                                        if out = PME
//!                = link + router
//!                  + max over the output ports o' that flows arriving over this
//!                    link actually use at the next router r'
//!                    [ block(r', in', o') + drain(r', o') ]          otherwise
//!
//! block(r, in, out) = (number of *other* input ports carrying at least one flow
//!                      towards `out`) · drain(r, out)
//! ```
//!
//! i.e. round-robin serves one maximum-size packet from every other contending
//! input port before the packet under analysis, and each of those packets can
//! itself be blocked downstream by its own worst-case contention (chained /
//! indirect blocking).  The packet under analysis then pays
//! `router + block(r_k, in_k, out_k)` at every hop plus link, ejection and its
//! own serialisation latency.
//!
//! The chained `drain` terms compound along the path, which is exactly the
//! orders-of-magnitude WCTT blow-up with network size that Table II of the
//! paper reports for the regular mesh.

use crate::config::{EJECTION_CHARGE, LINK_CHARGE, ROUTER_CHARGE};
use crate::flow::FlowSet;
use crate::geometry::Coord;
use crate::packetization::{PacketizationPolicy, Split};
use crate::port::{Direction, Port};
use crate::routing::Route;
use crate::weights::WeightTable;

/// A `(router, output)` pair: simultaneously the key of one memoised drain
/// term and the granularity at which the model's reads of the contention map
/// are tracked (every read — the presence tests of the drain recursion and
/// [`WeightTable::contender_count`] — only inspects triples
/// `(router, *, output)` of a single such column).
pub type DrainKey = (Coord, Port);

/// What incremental contention updates changed, as filled in by
/// [`RegularWcttModel::apply_route_delta`].  The caller owns it: every delta
/// appends, so the deltas of one design change (a flow's old route out, its
/// new route in) accumulate until [`RouteDelta::clear`].
///
/// A cached per-flow bound computed from this model reads, at each hop
/// column `(router, output)` of its route, the column's pair support and the
/// column's drain value.  It stays valid when neither changed value.
#[derive(Debug, Clone, Default)]
pub struct RouteDelta {
    /// `(router, input, output)` triples whose pair-count *support* flipped
    /// between zero and non-zero, once per flip.  The model's arithmetic only
    /// ever reads counts through presence tests, so magnitude-only changes
    /// (2 flows → 3 flows on a triple) leave every term untouched and appear
    /// in neither list.
    pub flipped_pairs: Vec<(Coord, Port, Port)>,
    /// Memoised drain terms dropped by the invalidation closure — the terms
    /// whose recorded reads a flipped pair can affect, plus (transitively)
    /// every term that embedded one of those — each with the value it held
    /// when dropped.  A term is dropped at most once before it is next
    /// recomputed, so across accumulated deltas the value is the one from
    /// before the first of them; recomputing it shows whether it changed.
    pub dropped_drains: Vec<(DrainKey, u64)>,
}

impl RouteDelta {
    /// Empties both lists, keeping their capacity.
    pub fn clear(&mut self) {
        self.flipped_pairs.clear();
        self.dropped_drains.clear();
    }
}

/// Memoised evaluator of the chained-blocking WCTT bound for a regular
/// round-robin wormhole mesh.
///
/// # Examples
///
/// ```
/// use wnoc_core::analysis::RegularWcttModel;
/// use wnoc_core::flow::FlowSet;
/// use wnoc_core::geometry::Coord;
/// use wnoc_core::routing::{RoutingAlgorithm, XyRouting};
/// use wnoc_core::topology::Mesh;
///
/// let mesh = Mesh::square(4)?;
/// let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0))?;
/// let mut model = RegularWcttModel::new(&flows, 1);
/// let near = XyRouting.route(&mesh, Coord::from_row_col(0, 1), Coord::from_row_col(0, 0))?;
/// let far = XyRouting.route(&mesh, Coord::from_row_col(3, 3), Coord::from_row_col(0, 0))?;
/// // The WCTT of the far corner is dramatically larger than the adjacent
/// // node's, even though it is only six hops longer.
/// assert!(model.route_wctt(&far, 1) > 10 * model.route_wctt(&near, 1));
/// # Ok::<(), wnoc_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct RegularWcttModel {
    /// Maximum packet size contenders may use (the paper's `L`), in flits.
    contender_flits: u32,
    /// The platform's flow counts per port pair.  The model reads them only
    /// through presence tests ([`WeightTable::column_support`]).
    weights: WeightTable,
    /// Memoised drain terms, indexed by
    /// [`Mesh::port_index`](crate::topology::Mesh::port_index).  `None`
    /// doubles as the visited marker of the invalidation walk, so dropping a
    /// term and checking whether it was live is one `Option::take`.
    drain_memo: Vec<Option<u64>>,
}

impl RegularWcttModel {
    /// Creates a model for the platform described by `flows`, with the given
    /// maximum allowed packet size (`contender_flits`, the paper's `L`).
    pub fn new(flows: &FlowSet, contender_flits: u32) -> Self {
        Self {
            contender_flits: contender_flits.max(1),
            weights: WeightTable::from_flow_set(flows),
            drain_memo: vec![None; flows.mesh().router_count() * Port::COUNT],
        }
    }

    /// The maximum packet size assumed for contenders.
    pub fn contender_flits(&self) -> u32 {
        self.contender_flits
    }

    /// The flow counts the model reads, kept in step with the flow set by
    /// [`RegularWcttModel::apply_route_delta`].
    pub(crate) fn weights(&self) -> &WeightTable {
        &self.weights
    }

    /// Worst-case time for one granted maximum-size contender packet to
    /// completely clear output `output` of `router`, including any downstream
    /// chained blocking of that packet.
    pub fn drain_time(&mut self, router: Coord, output: Port) -> u64 {
        let mesh = *self.weights.mesh();
        let di = mesh.port_index(router, output);
        if let Some(d) = self.drain_memo[di] {
            return d;
        }
        let l = u64::from(self.contender_flits);
        let ejection = EJECTION_CHARGE.saturating_add(l);
        let value = match output {
            Port::Local => ejection,
            Port::Mesh(dir) => match mesh.neighbor(router, dir) {
                // An output port facing outside the mesh carries no traffic.
                None => ejection,
                Some(next) => {
                    let arrival = Port::Mesh(dir.opposite());
                    let mut worst = ejection;
                    for o_next in Port::ALL {
                        if self.weights.quota(next, arrival, o_next) == 0 {
                            continue;
                        }
                        let block = self.blocking(next, arrival, o_next);
                        let drain = self.drain_time(next, o_next);
                        worst = worst.max(block.saturating_add(drain));
                    }
                    LINK_CHARGE
                        .saturating_add(ROUTER_CHARGE)
                        .saturating_add(worst)
                }
            },
        };
        self.drain_memo[di] = Some(value);
        value
    }

    /// Applies one route's hops to the contention map (`add` inserts the
    /// flow, `!add` removes a previously-added one), drops exactly the
    /// memoised drain terms whose reads the change can affect, and appends
    /// both to `delta`.
    ///
    /// Which terms a contention triple can reach is static: the drain at
    /// `(r, Mesh(dir))` reads only triples of its downstream neighbour
    /// `next = neighbor(r, dir)` — presence tests on the arrival row
    /// `(next, Mesh(dir.opposite()), ·)` unconditionally, contender counts
    /// `(next, p, o)` and child terms `(next, o)` only for outputs `o` the
    /// arrival row supports.  So a support flip of `(router, input, output)`
    /// invalidates the one neighbour drain arriving through `input` plus the
    /// neighbour drains whose arrival row supports `output`, and invalidation
    /// propagates upstream only along rows that carry traffic.  Bounds
    /// queried after the call are bit-identical to a model freshly
    /// constructed over the mutated flow set: a surviving memo entry read
    /// only supports and child terms that provably did not change, and
    /// dropped entries are recomputed from scratch on demand.
    pub fn apply_route_delta(&mut self, route: &Route, add: bool, delta: &mut RouteDelta) {
        let first = delta.flipped_pairs.len();
        for hop in route.hops() {
            if self.weights.count_hop(hop, add) {
                delta
                    .flipped_pairs
                    .push((hop.router, hop.input, hop.output));
            }
        }
        let mesh = *self.weights.mesh();
        for index in first..delta.flipped_pairs.len() {
            let (router, input, output) = delta.flipped_pairs[index];
            // The one drain whose presence tests touch this triple directly:
            // the neighbour drain arriving through `input`.  (A local input
            // is never an arrival port, so it has no direct reader.)
            if let Port::Mesh(d) = input {
                if let Some(upstream) = mesh.neighbor(router, d) {
                    self.invalidate_drain(
                        (upstream, Port::Mesh(d.opposite())),
                        &mut delta.dropped_drains,
                    );
                }
            }
            // Drains that saw the triple only inside a contender count: the
            // other neighbour drains, but only if their own arrival row
            // supports `output` (rows that flipped themselves are already
            // covered by the direct rule above).
            let support = self.weights.column_support(router, output);
            for d in Direction::ALL {
                if Port::Mesh(d) == input || support & 1 << Port::Mesh(d).index() == 0 {
                    continue;
                }
                if let Some(upstream) = mesh.neighbor(router, d) {
                    self.invalidate_drain(
                        (upstream, Port::Mesh(d.opposite())),
                        &mut delta.dropped_drains,
                    );
                }
            }
        }
    }

    /// Drops one memoised drain term, recording its value, and recursively
    /// drops every term that embedded it: the neighbour drains whose arrival
    /// row supports this term's output.  The memo entry doubles as the
    /// visited marker, so the walk touches each live term at most once.
    fn invalidate_drain(&mut self, key: DrainKey, dropped: &mut Vec<(DrainKey, u64)>) {
        let (router, output) = key;
        let mesh = *self.weights.mesh();
        let Some(value) = self.drain_memo[mesh.port_index(router, output)].take() else {
            return;
        };
        dropped.push((key, value));
        let support = self.weights.column_support(router, output);
        for d in Direction::ALL {
            if support & 1 << Port::Mesh(d).index() == 0 {
                continue;
            }
            if let Some(upstream) = mesh.neighbor(router, d) {
                self.invalidate_drain((upstream, Port::Mesh(d.opposite())), dropped);
            }
        }
    }

    /// Worst-case time a packet entering `router` through `input` waits for
    /// output `output` before being granted: every other contending input port
    /// is served once, each taking its full drain time.
    pub fn blocking(&mut self, router: Coord, input: Port, output: Port) -> u64 {
        let contenders = u64::from(self.weights.contender_count(router, input, output));
        contenders.saturating_mul(self.drain_time(router, output))
    }

    /// The bound of [`RegularWcttModel::route_wctt`] for a single-flit
    /// packet: every term but the own packet's serialisation, which
    /// [`RegularWcttModel::packet_from_prefix`] adds for any size.
    pub(crate) fn route_prefix(&mut self, route: &Route) -> u64 {
        let mut total = 0u64;
        for hop in route.hops() {
            total = total
                .saturating_add(ROUTER_CHARGE)
                .saturating_add(self.blocking(hop.router, hop.input, hop.output));
        }
        total
            .saturating_add(LINK_CHARGE * u64::from(route.hop_count()))
            .saturating_add(EJECTION_CHARGE)
    }

    /// The bound of one `own_flits`-flit packet on a route whose
    /// [`RegularWcttModel::route_prefix`] is `prefix`: the own size enters
    /// only as its serialisation tail.
    pub(crate) fn packet_from_prefix(prefix: u64, own_flits: u32) -> u64 {
        prefix.saturating_add(u64::from(own_flits.saturating_sub(1)))
    }

    /// The bound of a message cut into the packets of `split` on a route
    /// whose [`RegularWcttModel::route_prefix`] is `prefix`: each packet is
    /// assumed to suffer the full per-packet bound back to back.
    pub(crate) fn message_from_prefix(prefix: u64, split: Split) -> u64 {
        split.sum(|flits| Self::packet_from_prefix(prefix, flits))
    }

    /// Time-composable WCTT bound for one packet of `own_flits` flits following
    /// `route`.
    pub fn route_wctt(&mut self, route: &Route, own_flits: u32) -> u64 {
        Self::packet_from_prefix(self.route_prefix(route), own_flits)
    }

    /// How a `message_flits`-flit message is cut into packets of at most the
    /// contender size `L`: the split the chained-blocking compositions of
    /// [`crate::analysis::RegularOracle`] and
    /// [`crate::analysis::PreemptiveOracle`] sum over, whatever the
    /// platform's packetization.
    pub(crate) fn split(&self, message_flits: u32) -> Split {
        PacketizationPolicy::Regular {
            max_packet_flits: self.contender_flits,
        }
        .split(message_flits)
    }

    /// Conservative WCTT bound for a message cut into the packets of `split`:
    /// each packet is assumed to suffer the full per-packet bound back to
    /// back.
    pub fn message_wctt(&mut self, route: &Route, split: Split) -> u64 {
        Self::message_from_prefix(self.route_prefix(route), split)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::zero_load_head_latency;
    use crate::port::Direction;
    use crate::routing::{RoutingAlgorithm, XyRouting};
    use crate::topology::Mesh;

    fn route(mesh: &Mesh, src: (u16, u16), dst: (u16, u16)) -> Route {
        XyRouting
            .route(
                mesh,
                Coord::from_row_col(src.0, src.1),
                Coord::from_row_col(dst.0, dst.1),
            )
            .unwrap()
    }

    fn all_to_memory(side: u16) -> (Mesh, FlowSet) {
        let mesh = Mesh::square(side).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        (mesh, flows)
    }

    #[test]
    fn contender_counts_follow_the_flow_set() {
        let (mesh, flows) = all_to_memory(8);
        let model = RegularWcttModel::new(&flows, 1);
        let counts = model.weights();
        // On the column-0 trunk, a packet coming from the south competes with
        // the east input (row traffic merging in) and the local injection.
        let r30 = mesh.check(Coord::from_row_col(3, 0)).unwrap();
        assert_eq!(
            counts.contender_count(
                r30,
                Port::Mesh(Direction::South),
                Port::Mesh(Direction::North)
            ),
            2
        );
        // Along a row, a westbound packet only competes with the local injection.
        let r05 = Coord::from_row_col(0, 5);
        assert_eq!(
            counts.contender_count(
                r05,
                Port::Mesh(Direction::East),
                Port::Mesh(Direction::West)
            ),
            1
        );
        // No flow travels east or south anywhere in this scenario.
        assert_eq!(
            counts.contender_count(r05, Port::Local, Port::Mesh(Direction::East)),
            0
        );
    }

    #[test]
    fn wctt_covers_zero_load_latency() {
        let (mesh, flows) = all_to_memory(4);
        let mut model = RegularWcttModel::new(&flows, 1);
        for src in mesh.routers() {
            if src == Coord::new(0, 0) {
                continue;
            }
            let r = XyRouting.route(&mesh, src, Coord::new(0, 0)).unwrap();
            let w = model.route_wctt(&r, 1);
            assert!(w >= zero_load_head_latency(r.hop_count()));
        }
    }

    #[test]
    fn wctt_grows_with_distance_along_a_row() {
        let (mesh, flows) = all_to_memory(8);
        let mut model = RegularWcttModel::new(&flows, 1);
        let mut last = 0;
        for col in 1..8u16 {
            let r = route(&mesh, (0, col), (0, 0));
            let w = model.route_wctt(&r, 1);
            assert!(w > last, "WCTT must grow with distance (col {col})");
            last = w;
        }
    }

    #[test]
    fn column_trunk_is_far_worse_than_row() {
        // Y-dimension hops aggregate whole rows of traffic, so the chained
        // blocking compounds much faster than along a single row.
        let (mesh, flows) = all_to_memory(8);
        let mut model = RegularWcttModel::new(&flows, 1);
        let x_only = model.route_wctt(&route(&mesh, (0, 7), (0, 0)), 1);
        let y_only = model.route_wctt(&route(&mesh, (7, 0), (0, 0)), 1);
        assert!(y_only > 10 * x_only, "y {y_only} vs x {x_only}");
    }

    #[test]
    fn wctt_grows_with_contender_packet_size() {
        let (mesh, flows) = all_to_memory(4);
        let r = route(&mesh, (3, 3), (0, 0));
        let mut l1 = RegularWcttModel::new(&flows, 1);
        let mut l4 = RegularWcttModel::new(&flows, 4);
        let mut l8 = RegularWcttModel::new(&flows, 8);
        let w1 = l1.route_wctt(&r, 1);
        let w4 = l4.route_wctt(&r, 1);
        let w8 = l8.route_wctt(&r, 1);
        // The bound degrades monotonically (and substantially) as the maximum
        // allowed packet size grows, because every contender slot lengthens.
        assert!(
            w4 > w1 + 100,
            "L=4 ({w4}) should be far worse than L=1 ({w1})"
        );
        assert!(
            w8 > w4 + 100,
            "L=8 ({w8}) should be far worse than L=4 ({w4})"
        );
    }

    #[test]
    fn wctt_scales_poorly_with_mesh_size() {
        // Shape of Table II: the worst-case WCTT grows by a large factor with
        // every mesh size increase (the paper reports roughly 8x per step).
        let mut previous = 0u64;
        for side in [2u16, 3, 4, 5, 6, 7, 8] {
            let (mesh, flows) = all_to_memory(side);
            let mut model = RegularWcttModel::new(&flows, 1);
            let corner = route(&mesh, (side - 1, side - 1), (0, 0));
            let w = model.route_wctt(&corner, 1);
            if side > 2 {
                assert!(
                    w > 3 * previous,
                    "{side}x{side} WCTT {w} does not blow up vs previous {previous}"
                );
            }
            previous = w;
        }
        // The 8x8 corner bound is in the millions of cycles, 4-5 orders of
        // magnitude above the adjacent node, matching the shape of Table II.
        assert!(previous > 100_000, "8x8 corner WCTT {previous} too small");
    }

    #[test]
    fn adjacent_node_keeps_a_small_bound() {
        let (mesh, flows) = all_to_memory(8);
        let mut model = RegularWcttModel::new(&flows, 1);
        let near = model.route_wctt(&route(&mesh, (0, 1), (0, 0)), 1);
        // The best-placed node stays within tens of cycles (paper: 9).
        assert!(near < 50, "adjacent node WCTT {near} unexpectedly large");
    }

    #[test]
    fn memoisation_is_consistent() {
        let (mesh, flows) = all_to_memory(5);
        let r = route(&mesh, (4, 4), (0, 0));
        let mut warm = RegularWcttModel::new(&flows, 4);
        let first = warm.route_wctt(&r, 4);
        let second = warm.route_wctt(&r, 4);
        assert_eq!(first, second);
        let mut cold = RegularWcttModel::new(&flows, 4);
        assert_eq!(cold.route_wctt(&r, 4), first);
    }

    #[test]
    fn message_wctt_sums_packets() {
        let (mesh, flows) = all_to_memory(3);
        let r = route(&mesh, (2, 2), (0, 0));
        let mut model = RegularWcttModel::new(&flows, 4);
        let single = model.route_wctt(&r, 4);
        let eight = PacketizationPolicy::regular_l4().split(8);
        let double = model.message_wctt(&r, eight);
        assert_eq!(double, 2 * single);
    }

    #[test]
    fn own_serialisation_latency_added_once() {
        let (mesh, flows) = all_to_memory(3);
        let r = route(&mesh, (2, 2), (0, 0));
        let mut model = RegularWcttModel::new(&flows, 4);
        let one = model.route_wctt(&r, 1);
        let four = model.route_wctt(&r, 4);
        assert_eq!(four - one, 3);
    }

    #[test]
    fn apply_route_delta_matches_fresh_model() {
        let (_mesh, flows) = all_to_memory(5);
        let mut tracked = RegularWcttModel::new(&flows, 4);
        // Warm every memoised term before mutating.
        for id in (0..flows.len()).map(crate::flow::FlowId) {
            let r = flows.route(id).unwrap().clone();
            tracked.route_wctt(&r, 4);
        }
        let mut reduced = flows.clone();
        let (_flow, removed_route) = reduced.pop().unwrap();
        let mut delta = RouteDelta::default();
        tracked.apply_route_delta(&removed_route, false, &mut delta);
        let mut fresh = RegularWcttModel::new(&reduced, 4);
        for id in (0..reduced.len()).map(crate::flow::FlowId) {
            let r = reduced.route(id).unwrap().clone();
            assert_eq!(tracked.route_wctt(&r, 4), fresh.route_wctt(&r, 4));
        }
        // Re-adding the flow restores the original bounds bit-for-bit.
        tracked.apply_route_delta(&removed_route, true, &mut delta);
        let mut original = RegularWcttModel::new(&flows, 4);
        for id in (0..flows.len()).map(crate::flow::FlowId) {
            let r = flows.route(id).unwrap().clone();
            assert_eq!(tracked.route_wctt(&r, 4), original.route_wctt(&r, 4));
        }
    }

    #[test]
    fn dropped_drains_carry_their_values_from_before_the_delta() {
        let (_mesh, flows) = all_to_memory(5);
        let mut tracked = RegularWcttModel::new(&flows, 4);
        for id in (0..flows.len()).map(crate::flow::FlowId) {
            let r = flows.route(id).unwrap().clone();
            tracked.route_wctt(&r, 4);
        }
        let mut reduced = flows.clone();
        let (_flow, removed_route) = reduced.pop().unwrap();
        let mut delta = RouteDelta::default();
        tracked.apply_route_delta(&removed_route, false, &mut delta);
        assert!(!delta.flipped_pairs.is_empty());
        assert!(!delta.dropped_drains.is_empty());
        let mut original = RegularWcttModel::new(&flows, 4);
        for &((router, output), value) in &delta.dropped_drains {
            assert_eq!(value, original.drain_time(router, output));
        }
        delta.clear();
        assert!(delta.flipped_pairs.is_empty() && delta.dropped_drains.is_empty());
    }

    #[test]
    fn magnitude_only_delta_drops_nothing() {
        let (mesh, flows) = all_to_memory(4);
        let mut tracked = RegularWcttModel::new(&flows, 4);
        tracked.route_wctt(&route(&mesh, (3, 3), (0, 0)), 4);
        // Duplicating an existing flow only raises counts on triples that
        // already have support: nothing flips, so no term is dropped.
        let duplicate = route(&mesh, (3, 1), (0, 0));
        let mut delta = RouteDelta::default();
        tracked.apply_route_delta(&duplicate, true, &mut delta);
        assert!(delta.flipped_pairs.is_empty());
        assert!(delta.dropped_drains.is_empty());
    }

    #[test]
    fn all_to_all_flow_set_gives_larger_bounds() {
        // Assuming any node may talk to any node can only increase contention.
        let mesh = Mesh::square(4).unwrap();
        let one = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let all = FlowSet::all_to_all(&mesh).unwrap();
        let r = route(&mesh, (3, 3), (0, 0));
        let mut m_one = RegularWcttModel::new(&one, 1);
        let mut m_all = RegularWcttModel::new(&all, 1);
        assert!(m_all.route_wctt(&r, 1) >= m_one.route_wctt(&r, 1));
    }
}
