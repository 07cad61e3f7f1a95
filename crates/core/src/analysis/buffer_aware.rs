//! Buffer-aware WCTT bound for the WaW + WaP design, in the spirit of
//! Mifdaoui & Ayed's *Buffer-aware Worst Case Timing Analysis of Wormhole
//! NoCs* (arXiv:1602.01732): per-hop backpressure terms that **shrink as
//! credits grow**, collapsing to the paper-form bound at infinite depth and
//! dominating the backpressured bound at depth 1.
//!
//! # Model
//!
//! The paper-form bound ([`WeightedWcttModel::packet_wctt`]) charges each hop
//! `router + (O − 1)·m` — one wait for the packet's own slot in an
//! *undilated* arbitration round.  The backpressured bound
//! ([`WeightedWcttModel::backpressured_packet_wctt`]) charges `router +
//! O*·m`, where `O*` is the suffix maximum of the per-output flow counts:
//! with finite buffers, credit backpressure lets the hottest downstream port
//! set the drain rate of every port upstream of it, so a whole *dilated*
//! round can pass per hop.  The gap between the two per-hop terms,
//!
//! ```text
//! excess_hop = O*_hop·m − (O_hop − 1)·m ≥ m,
//! ```
//!
//! is exactly the cost of backpressure at that hop — and how much of it the
//! packet actually pays depends on how much buffering sits between the hop
//! and the congestion.  Two regimes govern the dependence on the per-hop
//! depth `d_hop` ([`BufferConfig::hop_depth`]: the downstream input buffer
//! the hop's credits count, or the draining input buffer for the terminal
//! ejection hop):
//!
//! * **Credit regime** (`d ≤ D₀`): shallow rings serialise the pipeline —
//!   every forward waits on a credit round-trip — and the stall scales
//!   inversely with depth, `(D₀ · excess) / d` (so depth 1 pays `4·excess`,
//!   comfortably above the backpressured bound).
//! * **Occupancy regime** (`d > D₀`): credit stalls relax, but deeper FIFOs
//!   *admit more cross-traffic ahead of the packet* (bounded by the sibling
//!   flow population, not the depth), so the dilation residue decays only
//!   harmonically: `((D₀ + S) · excess) / (d + S)`.  The slack constant
//!   `S = `[`BufferAwareWcttModel::OCCUPANCY_SLACK`] is calibrated against
//!   campaign measurements of the worst residual ratio
//!   `(observed − paper) / (backpressured − paper)` on 10×10–12×12 hotspot
//!   platforms — 0.86 at depth 8, 0.66 at depth 32, 0.10 at depth 64 — with
//!   ≥ 13% headroom at every measured point.  (An aggressive `D₀/d` tail is
//!   refuted by those measurements: observations keep most of the dilation
//!   well past the calibration depth.)
//!
//! ```text
//! wctt_ba(d) = Σ_hops [ router + (O_hop − 1)·m + residual(d_hop) · excess_hop ]
//!              + hops · link + eject + (m − 1)
//! ```
//!
//! (integer arithmetic, per hop), where `D₀` is
//! [`BufferAwareWcttModel::CALIBRATION_DEPTH`] — the depth the backpressured
//! bound was empirically validated at (the simulator's historical 4-flit
//! buffers).  The shape pins three anchors:
//!
//! * `d = D₀`: both regimes give `excess` exactly, so the model coincides
//!   with the backpressured bound **exactly** (same per-hop terms, same
//!   per-slice rounds) and the conformance verdicts of the two oracles are
//!   identical at the default depth;
//! * `d < D₀`: the bound rises past the backpressured bound (depth-1 credit
//!   round-trips);
//! * `d → ∞`: the residual vanishes and the bound collapses to the paper
//!   form (`((D₀ + S)·excess)/(d + S) = 0` once `d > (D₀ + S)·excess − S`).
//!
//! The bound is monotonically non-increasing in every depth, which the
//! conformance harness checks as an ordering invariant alongside dominance
//! over closed-loop observations at depths {1, 2, 4, 8, ∞-equivalent}.
//!
//! Like the backpressured model, the analysis assumes an *output-consistent*
//! flow set ([`crate::flow::FlowSet::is_output_consistent`]); divergent WaW
//! platforms are outside what any per-route weighted bound models.

use crate::buffers::BufferConfig;
use crate::config::ROUTER_CHARGE;
use crate::error::Result;
use crate::geometry::NodeId;
use crate::port::Port;
use crate::routing::Route;
use crate::topology::Mesh;
use crate::weights::WeightTable;

use super::weighted::WeightedWcttModel;

/// Evaluator of the buffer-aware WaW + WaP WCTT bound.
#[derive(Debug, Clone)]
pub struct BufferAwareWcttModel {
    /// The weighted model over the same weight table and slice size: the
    /// paper and backpressured references, whose hop walk, tail and slice
    /// train this model extends.
    weighted: WeightedWcttModel,
    mesh: Mesh,
    buffers: BufferConfig,
}

impl BufferAwareWcttModel {
    /// The buffer depth at which this model coincides with
    /// [`WeightedWcttModel::backpressured_packet_wctt`]: the historical
    /// uniform 4-flit input buffers the backpressured bound was validated
    /// against (conformance campaigns observe up to 0.97 of it).
    pub const CALIBRATION_DEPTH: u32 = 4;

    /// Harmonic slack of the occupancy-regime tail (see the module docs):
    /// past the calibration depth the dilation residual decays as
    /// `(CALIBRATION_DEPTH + S) / (d + S)`.  Calibrated against the campaign
    /// residual frontier on 10×10–12×12 hotspot platforms with ≥ 13%
    /// headroom at every measured depth.
    pub const OCCUPANCY_SLACK: u32 = 128;

    /// Creates a model over `mesh` with the given buffer configuration.
    pub fn new(weights: WeightTable, slice_flits: u32, mesh: Mesh, buffers: BufferConfig) -> Self {
        Self {
            weighted: WeightedWcttModel::new(weights, slice_flits),
            mesh,
            buffers,
        }
    }

    /// The buffer configuration the model analyses.
    pub fn buffers(&self) -> &BufferConfig {
        &self.buffers
    }

    /// Mutable access to the weight table, for callers (the incremental
    /// analysis engine) that maintain the flow counts in place via
    /// [`WeightTable::apply_route_delta`] instead of rebuilding the model.
    pub fn weights_mut(&mut self) -> &mut WeightTable {
        self.weighted.weights_mut()
    }

    /// Sets one input buffer's depth in place (a single-depth design
    /// mutation, [`BufferConfig::set_buffer_depth`] over the model's mesh)
    /// and returns the depth it replaced.  The model has no memoised state,
    /// so subsequent bounds are identical to a freshly built model over the
    /// edited configuration.
    ///
    /// # Errors
    ///
    /// Returns the edit's error; the configuration is then unchanged.
    pub fn set_buffer_depth(&mut self, node: NodeId, port: Port, depth: u32) -> Result<u32> {
        self.buffers.set_buffer_depth(&self.mesh, node, port, depth)
    }

    /// The paper-form / backpressured reference model over the same weights
    /// and slice size.
    pub fn reference(&self) -> &WeightedWcttModel {
        &self.weighted
    }

    /// The two-regime backpressure stall of a hop whose dilation excess is
    /// `excess` flit cycles and whose credits count `depth` flits (see the
    /// module docs): inverse in the depth up to the calibration depth,
    /// harmonic past it.
    fn backpressure(excess: u64, depth: u64) -> u64 {
        let calibration = u64::from(Self::CALIBRATION_DEPTH);
        let slack = u64::from(Self::OCCUPANCY_SLACK);
        if depth <= calibration {
            // Credit regime: stalls scale inversely with depth.
            calibration * excess / depth
        } else {
            // Occupancy regime: harmonic decay of the dilation residual.
            (calibration + slack) * excess / (depth + slack)
        }
    }

    /// The hops of `route` from the destination back, each with its output's
    /// flow count `O`, the depth `d` its credits count
    /// ([`BufferConfig::hop_depth`]) and its backpressure stall.
    pub(crate) fn hop_stalls<'a>(
        &'a self,
        route: &'a Route,
    ) -> impl Iterator<Item = (u64, u64, u64)> + 'a {
        let m = u64::from(self.weighted.slice_flits());
        self.weighted
            .hops_back(route)
            .map(move |(hop, flows, suffix_max)| {
                // excess = O*·m − (O − 1)·m: the backpressure cost of the hop.
                let excess = (suffix_max - (flows - 1)) * m;
                let depth = u64::from(
                    self.buffers
                        .hop_depth(&self.mesh, hop.router, hop.input, hop.output)
                        .max(1),
                );
                (flows, depth, Self::backpressure(excess, depth))
            })
    }

    /// WCTT bound for a single `m`-flit packet (slice) following `route`
    /// through the configured buffers.
    pub fn packet_wctt(&self, route: &Route) -> u64 {
        let m = u64::from(self.weighted.slice_flits());
        let hops: u64 = self
            .hop_stalls(route)
            .map(|(flows, _, backpressure)| ROUTER_CHARGE + (flows - 1) * m + backpressure)
            .sum();
        hops + self.weighted.route_tail(route)
    }

    /// Message-level bound: the reference models' slice train over this
    /// per-slice bound, so each extra slice adds one dilated round of the
    /// bottleneck port and the message composition preserves the
    /// per-packet anchors.
    pub fn message_wctt(&self, route: &Route, slices: u32) -> u64 {
        self.weighted
            .slice_train(self.packet_wctt(route), slices, || {
                self.weighted.bottleneck_flows(route)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowSet;
    use crate::geometry::{Coord, NodeId};
    use crate::port::Port;
    use crate::routing::{RoutingAlgorithm, XyRouting};

    fn setup(side: u16, buffers: BufferConfig) -> (Mesh, BufferAwareWcttModel) {
        let mesh = Mesh::square(side).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let model = BufferAwareWcttModel::new(WeightTable::from_flow_set(&flows), 1, mesh, buffers);
        (mesh, model)
    }

    fn route(mesh: &Mesh, src: (u16, u16), dst: (u16, u16)) -> Route {
        XyRouting
            .route(
                mesh,
                Coord::from_row_col(src.0, src.1),
                Coord::from_row_col(dst.0, dst.1),
            )
            .unwrap()
    }

    #[test]
    fn calibration_depth_reproduces_the_backpressured_bound() {
        for side in [2u16, 4, 8] {
            let (mesh, model) = setup(
                side,
                BufferConfig::uniform(BufferAwareWcttModel::CALIBRATION_DEPTH),
            );
            let reference = model.reference();
            for src in mesh.routers() {
                if src == Coord::new(0, 0) {
                    continue;
                }
                let r = XyRouting.route(&mesh, src, Coord::new(0, 0)).unwrap();
                assert_eq!(
                    model.packet_wctt(&r),
                    reference.backpressured_packet_wctt(&r),
                    "src {src} side {side}"
                );
                for slices in [1u32, 3, 5] {
                    assert_eq!(
                        model.message_wctt(&r, slices),
                        reference.backpressured_message_wctt(&r, slices)
                    );
                }
            }
        }
    }

    #[test]
    fn infinite_depth_collapses_to_the_paper_bound() {
        let (mesh, model) = setup(8, BufferConfig::uniform(1 << 20));
        let reference = model.reference();
        for src in mesh.routers() {
            if src == Coord::new(0, 0) {
                continue;
            }
            let r = XyRouting.route(&mesh, src, Coord::new(0, 0)).unwrap();
            assert_eq!(model.packet_wctt(&r), reference.packet_wctt(&r));
            assert_eq!(model.message_wctt(&r, 4), reference.message_wctt(&r, 4));
        }
    }

    #[test]
    fn depth_one_dominates_the_backpressured_bound() {
        let (mesh, model) = setup(8, BufferConfig::uniform(1));
        let reference = model.reference();
        let far = route(&mesh, (7, 7), (0, 0));
        assert!(model.packet_wctt(&far) > reference.backpressured_packet_wctt(&far));
        let near = route(&mesh, (0, 1), (0, 0));
        assert!(model.packet_wctt(&near) > reference.backpressured_packet_wctt(&near));
    }

    #[test]
    fn bound_is_monotone_non_increasing_in_depth() {
        let (mesh, _) = setup(6, BufferConfig::uniform(1));
        let far = route(&mesh, (5, 5), (0, 0));
        let mut last = u64::MAX;
        for depth in [1u32, 2, 3, 4, 6, 8, 16, 64, 1 << 16] {
            let (_, model) = setup(6, BufferConfig::uniform(depth));
            let bound = model.packet_wctt(&far);
            assert!(bound <= last, "depth {depth}: {bound} > {last}");
            last = bound;
        }
    }

    #[test]
    fn deepening_a_single_buffer_never_raises_the_bound() {
        let (mesh, base) = setup(4, BufferConfig::uniform(2));
        let far = route(&mesh, (3, 3), (0, 0));
        let before = base.packet_wctt(&far);
        for index in 0..mesh.router_count() {
            for port in Port::ALL {
                let deepened = base
                    .buffers()
                    .with_buffer_depth(&mesh, NodeId(index), port, 8);
                let (_, model) = setup(4, deepened);
                assert!(
                    model.packet_wctt(&far) <= before,
                    "deepening ({index}, {port}) raised the bound"
                );
            }
        }
    }

    #[test]
    fn always_at_least_the_paper_bound() {
        for depth in [1u32, 2, 4, 8, 64] {
            let (mesh, model) = setup(5, BufferConfig::uniform(depth));
            let reference = model.reference();
            for src in mesh.routers() {
                if src == Coord::new(0, 0) {
                    continue;
                }
                let r = XyRouting.route(&mesh, src, Coord::new(0, 0)).unwrap();
                assert!(model.packet_wctt(&r) >= reference.packet_wctt(&r));
            }
        }
    }

    #[test]
    fn heterogeneous_depths_only_relax_their_own_hops() {
        let (mesh, shallow) = setup(4, BufferConfig::uniform(1));
        // Deepen every input buffer of the hotspot router: the final hops
        // relax, so the far corner's bound strictly drops but stays above
        // the uniformly-deep bound.
        let hotspot = mesh.node_id(Coord::new(0, 0)).unwrap();
        let mut hetero = shallow.buffers().clone();
        for port in Port::ALL {
            hetero = hetero.with_buffer_depth(&mesh, hotspot, port, 64);
        }
        let (_, relaxed) = setup(4, hetero);
        let (_, deep) = setup(4, BufferConfig::uniform(64));
        let far = route(&mesh, (3, 3), (0, 0));
        assert!(relaxed.packet_wctt(&far) < shallow.packet_wctt(&far));
        assert!(relaxed.packet_wctt(&far) > deep.packet_wctt(&far));
    }
}
