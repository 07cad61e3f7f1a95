//! Graph-based buffer-aware WCTT bound for **bursty** arrival-curve traffic
//! on the WaW + WaP design, in the spirit of Giroudot & Mifdaoui's
//! *Graph-based Approach for Buffer-aware Timing Analysis of Heterogeneous
//! Wormhole NoCs* (arXiv:1911.02430).
//!
//! # Why a sixth analysis
//!
//! Every other bound of this crate covers a message *from the head of its
//! source NIC* with at most one message of its own flow in flight — the
//! closed-loop probing regime.  Under an [`ArrivalCurve`] a flow releases up
//! to `b` messages back to back, so a message can additionally queue behind
//! up to `b − 1` of its **own** predecessors; none of the steady-state bounds
//! account for that backlog.  The tempting repair charges the full
//! steady-state bound `W` ([`BufferAwareWcttModel::message_wctt`]) once per
//! predecessor (`b·W`) — but that is **not sound** on shallow platforms:
//! during a burst window every *contending* flow is bursting too, so a
//! predecessor drains through backpressure inflated beyond what the
//! closed-loop `W` was calibrated against (campaigns observe up to ≈1.2·b·W
//! on depth-1 all-to-one hotspots).  What a predecessor actually costs its
//! successor is the *chained service* of the route's coupled buffer region,
//! priced below — larger than `W` exactly when the route is shallow and
//! contended, and far smaller than `W` on buffered platforms where a
//! predecessor that has already sunk into downstream storage costs only one
//! bottleneck slot.
//!
//! # The buffer-dependency-graph iteration
//!
//! The refinement walks the route's buffer chain *backwards from the
//! destination*, maintaining the cumulative buffer capacity `cap(h)` strictly
//! downstream of each hop `h` ([`BufferConfig::hop_depth`](crate::buffers::BufferConfig::hop_depth) over the
//! heterogeneous configuration — exactly the per-port depths of PR 4).  Each
//! hop's per-message *service* is
//!
//! ```text
//! serve(h) = router + slices · O_h · m + backpressure(d_h)
//! ```
//!
//! (one weighted arbitration round per slice plus the two-regime credit /
//! occupancy stall of the base model).  A hop is **coupled** to its
//! downstream chain when `cap(h) < message_flits`: a predecessor message
//! cannot fully vacate the hop into downstream storage, so its successor
//! re-pays the downstream chain's service through backpressure.  The
//! dependency-graph pass folds this into a chained service
//!
//! ```text
//! chain(h) = serve(h) + chain(downstream)   if cap(h) < message_flits
//!          = serve(h)                       otherwise,
//! ```
//!
//! and the route's **service slot** is `max_h chain(h)` — deliberately *not*
//! capped at the steady-state bound `W`: on a shallow contended route the
//! chain re-pays every coupled hop's full contention round per predecessor,
//! which genuinely exceeds `W` (capping it there is exactly the unsound
//! `b·W` shortcut the campaigns falsified).  The burst bound is then
//!
//! ```text
//! wctt_graph(b) = W + (b − 1) · slot + jitter_allowance
//! ```
//!
//! with [`ArrivalCurve::jitter_allowance`] covering delay-only inter-arrival
//! jitter (a delayed predecessor can hand its successor up to one maximal
//! jitter delay of extra queueing).  Deep buffers decouple the chain and the
//! per-predecessor cost collapses to one bottleneck round; depth-1 platforms
//! keep the whole route coupled and the bound degrades toward the fully
//! chained `W + (b − 1) · Σ_h serve(h)`.
//!
//! # Anchors
//!
//! * `b ≤ 1` — **bit-identical** to the PR 4 buffer-aware bound: with no
//!   self-backlog (and a stable sustained gap, see below) the burst term
//!   vanishes and both `packet_wctt` and `message_wctt` return exactly
//!   [`BufferAwareWcttModel`]'s values;
//! * monotone non-decreasing in `b` (the slot and allowance are constants of
//!   the route);
//! * never below the paper-form bound (it extends `W ≥ wctt_paper`);
//! * exactly linear in the burst: each extra predecessor charges one chained
//!   service slot (`wctt_graph(b + 1) − wctt_graph(b) = slot` for `b ≥ 1`).
//!
//! # Validity domain
//!
//! WaW + WaP, single VC, output-consistent flow sets, **one flow per source
//! NIC** (flows sharing a NIC would queue behind each other's bursts, which
//! no per-flow curve models), and a *stable* sustained rate: the post-burst
//! gap net of jitter must cover the service slot
//! (`gap · (1 − cv/100) ≥ slot`), otherwise backlog grows without bound and
//! no finite per-message bound exists.  The conformance sampler enforces all
//! of this by construction; see `docs/ORACLES.md` for the catalog entry.

use crate::arrival::ArrivalCurve;
use crate::routing::Route;

use super::buffer_aware::BufferAwareWcttModel;

/// Evaluator of the graph-based buffer-aware WCTT bound under an
/// [`ArrivalCurve`].
#[derive(Debug, Clone)]
pub struct GraphBufferAwareWcttModel {
    base: BufferAwareWcttModel,
    curve: ArrivalCurve,
}

impl GraphBufferAwareWcttModel {
    /// Wraps the steady-state buffer-aware model with an arrival contract.
    pub fn new(base: BufferAwareWcttModel, curve: ArrivalCurve) -> Self {
        Self { base, curve }
    }

    /// The steady-state model the burst term extends.
    pub fn base(&self) -> &BufferAwareWcttModel {
        &self.base
    }

    /// Mutable access to the steady-state model (for the incremental engine,
    /// which maintains the weight table in place).
    pub fn base_mut(&mut self) -> &mut BufferAwareWcttModel {
        &mut self.base
    }

    /// The arrival contract the bound covers.
    pub fn curve(&self) -> ArrivalCurve {
        self.curve
    }

    /// Replaces the arrival contract (the incremental engine's
    /// arrival-curve mutation); the model memoises nothing, so subsequent
    /// bounds match a freshly-built model exactly.
    pub fn set_curve(&mut self, curve: ArrivalCurve) {
        self.curve = curve;
    }

    /// The per-predecessor service slot of `route` for a `slices`-slice
    /// message: the dependency-graph chained service described in the module
    /// docs.  May exceed the steady-state bound on shallow contended routes —
    /// that excess is load-bearing, not an artifact (see the module docs).
    pub fn service_slot(&self, route: &Route, slices: u32) -> u64 {
        let timing = self.base.timing();
        let m = u64::from(self.base.slice_flits());
        let slices = u64::from(slices.max(1));
        let message_flits = slices * m;
        let weights = self.base.weights();
        let buffers = self.base.buffers();
        let mesh = self.base.mesh();
        let calibration = u64::from(BufferAwareWcttModel::CALIBRATION_DEPTH);
        let slack = u64::from(BufferAwareWcttModel::OCCUPANCY_SLACK);

        let mut slot = 0u64;
        let mut chain = 0u64;
        // Buffer flits strictly downstream of the hop under consideration.
        let mut downstream_cap = 0u64;
        let mut suffix_max = 1u64;
        for hop in route.hops().iter().rev() {
            let flows = u64::from(weights.output_flows(hop.router, hop.output)).max(1);
            suffix_max = suffix_max.max(flows);
            let excess = (suffix_max - (flows - 1)) * m;
            let depth = u64::from(
                buffers
                    .hop_depth(mesh, hop.router, hop.input, hop.output)
                    .max(1),
            );
            let backpressure = if depth <= calibration {
                calibration * excess / depth
            } else {
                (calibration + slack) * excess / (depth + slack)
            };
            let serve = u64::from(timing.router_cycles) + slices * flows * m + backpressure;
            chain = serve
                + if downstream_cap < message_flits {
                    chain
                } else {
                    0
                };
            slot = slot.max(chain);
            downstream_cap += depth;
        }
        slot
    }

    fn burst_terms(&self, slot: u64) -> u64 {
        let burst = u64::from(self.curve.effective_burst());
        (burst - 1) * slot + self.curve.jitter_allowance()
    }

    /// Bound for a single `m`-flit packet (slice) of the flow under the
    /// arrival contract.  Collapses to [`BufferAwareWcttModel::packet_wctt`]
    /// bit-identically when the curve carries no burst.
    pub fn packet_wctt(&self, route: &Route) -> u64 {
        let base_bound = self.base.packet_wctt(route);
        if self.curve.effective_burst() <= 1 {
            return base_bound;
        }
        base_bound + self.burst_terms(self.service_slot(route, 1))
    }

    /// Bound for a whole `slices`-slice message under the arrival contract.
    /// Collapses to [`BufferAwareWcttModel::message_wctt`] bit-identically
    /// when the curve carries no burst.
    pub fn message_wctt(&self, route: &Route, slices: u32) -> u64 {
        let base_bound = self.base.message_wctt(route, slices);
        if self.curve.effective_burst() <= 1 {
            return base_bound;
        }
        base_bound + self.burst_terms(self.service_slot(route, slices))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::BufferConfig;
    use crate::config::RouterTiming;
    use crate::flow::FlowSet;
    use crate::geometry::Coord;
    use crate::routing::{RoutingAlgorithm, XyRouting};
    use crate::topology::Mesh;
    use crate::weights::WeightTable;

    fn setup(side: u16, buffers: BufferConfig, curve: ArrivalCurve) -> GraphBufferAwareWcttModel {
        let mesh = Mesh::square(side).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let base = BufferAwareWcttModel::new(
            WeightTable::from_flow_set(&flows),
            RouterTiming::CANONICAL,
            1,
            mesh,
            buffers,
        );
        GraphBufferAwareWcttModel::new(base, curve)
    }

    fn far_route(side: u16) -> Route {
        let mesh = Mesh::square(side).unwrap();
        XyRouting
            .route(
                &mesh,
                Coord::from_row_col(side - 1, side - 1),
                Coord::from_row_col(0, 0),
            )
            .unwrap()
    }

    #[test]
    fn zero_burst_collapses_to_the_buffer_aware_bound_bit_identically() {
        for depth in [1u32, 2, 4, 8, 64] {
            for burst in [0u32, 1] {
                let model = setup(
                    6,
                    BufferConfig::uniform(depth),
                    ArrivalCurve::bursty(burst, 500),
                );
                let mesh = Mesh::square(6).unwrap();
                for src in mesh.routers() {
                    if src == Coord::new(0, 0) {
                        continue;
                    }
                    let r = XyRouting.route(&mesh, src, Coord::new(0, 0)).unwrap();
                    assert_eq!(model.packet_wctt(&r), model.base().packet_wctt(&r));
                    for slices in [1u32, 3, 5] {
                        assert_eq!(
                            model.message_wctt(&r, slices),
                            model.base().message_wctt(&r, slices),
                            "depth {depth} burst {burst} slices {slices}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bound_is_monotone_in_the_burst() {
        let route = far_route(6);
        for depth in [1u32, 4, 64] {
            let mut last = 0u64;
            for burst in [0u32, 1, 2, 3, 5, 8, 16] {
                let model = setup(
                    6,
                    BufferConfig::uniform(depth),
                    ArrivalCurve::bursty(burst, 500),
                );
                let bound = model.message_wctt(&route, 3);
                assert!(
                    bound >= last,
                    "depth {depth} burst {burst}: {bound} < {last}"
                );
                last = bound;
            }
        }
    }

    #[test]
    fn burst_term_charges_one_chained_slot_per_predecessor() {
        // The bound is exactly linear in the burst with slope `service_slot`
        // — no hidden cap at the steady-state bound (capping there is the
        // unsound `b·W` shortcut; see the module docs).
        let route = far_route(6);
        for depth in [1u32, 4, 64] {
            for burst in [2u32, 4, 8] {
                let model = setup(
                    6,
                    BufferConfig::uniform(depth),
                    ArrivalCurve::bursty(burst, 500),
                );
                let base = model.base().message_wctt(&route, 3);
                let slot = model.service_slot(&route, 3);
                let bound = model.message_wctt(&route, 3);
                assert_eq!(
                    bound,
                    base + u64::from(burst - 1) * slot,
                    "depth {depth} burst {burst}"
                );
                assert!(bound >= base);
            }
        }
    }

    #[test]
    fn deep_buffers_tighten_the_per_predecessor_cost() {
        // The whole point of the dependency-graph pass: on a deep platform a
        // predecessor costs one bottleneck service, not a full traversal.
        let route = far_route(8);
        let burst = ArrivalCurve::bursty(8, 2_000);
        let shallow = setup(8, BufferConfig::uniform(1), burst);
        let deep = setup(8, BufferConfig::uniform(64), burst);
        let shallow_term = shallow.message_wctt(&route, 1) - shallow.base().message_wctt(&route, 1);
        let deep_term = deep.message_wctt(&route, 1) - deep.base().message_wctt(&route, 1);
        assert!(
            2 * deep_term < shallow_term,
            "deep burst term {deep_term} not well below shallow {shallow_term}"
        );
    }

    #[test]
    fn service_slot_is_monotone_non_increasing_in_depth() {
        let route = far_route(6);
        let mut last = u64::MAX;
        for depth in [1u32, 2, 4, 8, 16, 64] {
            let model = setup(
                6,
                BufferConfig::uniform(depth),
                ArrivalCurve::bursty(4, 500),
            );
            let slot = model.service_slot(&route, 3);
            assert!(slot <= last, "depth {depth}: slot {slot} > {last}");
            last = slot;
        }
    }

    #[test]
    fn jitter_adds_exactly_its_allowance_when_bursty() {
        let route = far_route(5);
        let plain = setup(5, BufferConfig::uniform(4), ArrivalCurve::bursty(3, 400));
        let jittered = setup(
            5,
            BufferConfig::uniform(4),
            ArrivalCurve::bursty(3, 400).with_jitter(25),
        );
        assert_eq!(
            jittered.message_wctt(&route, 2),
            plain.message_wctt(&route, 2) + 100
        );
        // Without a burst the contract admits no self-queueing, so jitter
        // does not perturb the collapsed bound.
        let single = setup(
            5,
            BufferConfig::uniform(4),
            ArrivalCurve::periodic(400).with_jitter(25),
        );
        assert_eq!(
            single.message_wctt(&route, 2),
            single.base().message_wctt(&route, 2)
        );
    }

    #[test]
    fn curve_mutation_matches_a_fresh_model() {
        let route = far_route(5);
        let mut model = setup(5, BufferConfig::uniform(2), ArrivalCurve::bursty(2, 300));
        let target = ArrivalCurve::bursty(6, 900).with_jitter(10);
        model.set_curve(target);
        let fresh = setup(5, BufferConfig::uniform(2), target);
        assert_eq!(model.message_wctt(&route, 4), fresh.message_wctt(&route, 4));
        assert_eq!(model.curve(), target);
    }
}
