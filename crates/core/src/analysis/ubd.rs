//! Upper Bound Delays (UBD) for the WCET computation mode.
//!
//! Following the paper's reference \[17\] (Paolieri et al.), WCET estimates are
//! obtained by running the application in a *WCET computation mode* in which
//! every request sent to the NoC is artificially delayed by an upper bound to
//! its traversal time.  The UBD of a core is therefore the analytical WCTT of
//! its request message to the memory controller plus the WCTT of the response
//! message coming back, each computed with the model matching the NoC design
//! (chained blocking for the regular mesh, weighted rounds for WaW + WaP).

use crate::analysis::regular::RegularWcttModel;
use crate::analysis::weighted::WeightedWcttModel;
use crate::arbitration::ArbitrationPolicy;
use crate::config::NocConfig;
use crate::error::{Error, Result};
use crate::flow::FlowSet;
use crate::geometry::Coord;
use crate::packetization::Split;
use crate::routing::{Route, RoutingAlgorithm, XyRouting};
use crate::topology::Mesh;
use crate::weights::WeightTable;

/// Sizes of one memory transaction's messages, in regular-packetization flits.
///
/// The paper's platform uses one-flit load requests with four-flit cache-line
/// responses, and four-flit eviction (write-back) requests with one-flit
/// acknowledgements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransactionSizes {
    /// Request message size (core to memory), in flits.
    pub request_flits: u32,
    /// Response message size (memory to core), in flits.
    pub response_flits: u32,
}

impl TransactionSizes {
    /// A cache-line read: 1-flit request, 4-flit response.
    pub const LOAD: TransactionSizes = TransactionSizes {
        request_flits: 1,
        response_flits: 4,
    };

    /// A cache-line write-back: 4-flit request, 1-flit acknowledgement.
    pub const EVICTION: TransactionSizes = TransactionSizes {
        request_flits: 4,
        response_flits: 1,
    };
}

/// The upper bound delays of one core's memory transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpperBoundDelay {
    /// Bound on the request traversal (core to memory), in cycles.
    pub request: u64,
    /// Bound on the response traversal (memory back to core), in cycles.
    pub response: u64,
}

impl UpperBoundDelay {
    /// Total NoC round-trip bound (request + response).
    pub fn round_trip(&self) -> u64 {
        self.request.saturating_add(self.response)
    }
}

/// Computes upper bound delays for every core of a platform under a given NoC
/// design.
///
/// # Examples
///
/// ```
/// use wnoc_core::analysis::ubd::{TransactionSizes, UbdModel};
/// use wnoc_core::config::NocConfig;
/// use wnoc_core::flow::FlowSet;
/// use wnoc_core::geometry::Coord;
/// use wnoc_core::topology::Mesh;
///
/// let mesh = Mesh::square(8)?;
/// let memory = Coord::from_row_col(0, 0);
/// let flows = FlowSet::to_and_from_endpoints(&mesh, &[memory])?;
/// let mut regular = UbdModel::new(NocConfig::regular(4), &flows)?;
/// let mut proposed = UbdModel::new(NocConfig::waw_wap(), &flows)?;
/// let far = Coord::from_row_col(7, 7);
/// let near = Coord::from_row_col(0, 1);
/// let load = TransactionSizes::LOAD;
/// // For the far corner the proposed design's bound is much tighter.
/// assert!(regular.core_ubd(far, memory, load)?.round_trip()
///         > 10 * proposed.core_ubd(far, memory, load)?.round_trip());
/// // For the node adjacent to the memory the regular design may win slightly.
/// assert!(regular.core_ubd(near, memory, load)?.round_trip()
///         < proposed.core_ubd(near, memory, load)?.round_trip());
/// # Ok::<(), wnoc_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct UbdModel {
    config: NocConfig,
    mesh: Mesh,
    regular: Option<RegularWcttModel>,
    weighted: Option<WeightedWcttModel>,
}

impl UbdModel {
    /// Creates a UBD model for the platform described by `flows` under the NoC
    /// design `config`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: NocConfig, flows: &FlowSet) -> Result<Self> {
        config.validate()?;
        let contender = config.packetization.worst_case_contender_flits();
        let (regular, weighted) = match config.arbitration {
            ArbitrationPolicy::RoundRobin => (Some(RegularWcttModel::new(flows, contender)), None),
            ArbitrationPolicy::Waw => (
                None,
                Some(WeightedWcttModel::new(
                    WeightTable::from_flow_set(flows),
                    contender,
                )),
            ),
        };
        Ok(Self {
            config,
            mesh: *flows.mesh(),
            regular,
            weighted,
        })
    }

    /// The NoC design this model analyses.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The wire packets an `message_flits`-flit message occupies under the
    /// active packetization policy.
    fn split(&self, message_flits: u32) -> Split {
        self.config.packetization.split(message_flits)
    }

    /// WCTT bound for one `message_flits`-flit message following `route`: the
    /// message is split according to the active packetization policy and the
    /// packets are composed through the design's WCTT model.  This is the
    /// one-way building block of [`UbdModel::core_ubd`], exposed so the
    /// conformance oracle ([`crate::analysis::oracle::UbdOracle`]) can query
    /// per-flow bounds directly.
    pub fn route_message_bound(&mut self, route: &Route, message_flits: u32) -> u64 {
        let split = self.split(message_flits);
        match (&mut self.regular, &self.weighted) {
            (Some(model), _) => model.message_wctt(route, split),
            (None, Some(model)) => model.message_wctt(route, split.packets),
            (None, None) => unreachable!("one model is always constructed"),
        }
    }

    /// Upper bound delay of one transaction issued by the core at `core`
    /// towards the memory controller at `memory`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRoute`] if either coordinate lies outside the
    /// mesh.
    pub fn core_ubd(
        &mut self,
        core: Coord,
        memory: Coord,
        sizes: TransactionSizes,
    ) -> Result<UpperBoundDelay> {
        let mesh = self.mesh;
        if !mesh.contains(core) || !mesh.contains(memory) {
            return Err(Error::InvalidRoute {
                src: core,
                dst: memory,
            });
        }
        let request_route = XyRouting.route(&mesh, core, memory)?;
        let response_route = XyRouting.route(&mesh, memory, core)?;
        Ok(UpperBoundDelay {
            request: self.route_message_bound(&request_route, sizes.request_flits),
            response: self.route_message_bound(&response_route, sizes.response_flits),
        })
    }

    /// Upper bound delays for every core of the mesh (excluding the memory node
    /// itself), as `(core, UBD)` pairs in row-major order.
    ///
    /// # Errors
    ///
    /// Returns an error if `memory` lies outside the mesh.
    pub fn all_cores(
        &mut self,
        memory: Coord,
        sizes: TransactionSizes,
    ) -> Result<Vec<(Coord, UpperBoundDelay)>> {
        let coords: Vec<Coord> = self.mesh.routers().collect();
        coords
            .into_iter()
            .filter(|&c| c != memory)
            .map(|core| Ok((core, self.core_ubd(core, memory, sizes)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh;

    fn platform(side: u16) -> (Mesh, FlowSet, Coord) {
        let mesh = Mesh::square(side).unwrap();
        let memory = Coord::from_row_col(0, 0);
        let flows = FlowSet::to_and_from_endpoints(&mesh, &[memory]).unwrap();
        (mesh, flows, memory)
    }

    #[test]
    fn transaction_presets() {
        assert_eq!(TransactionSizes::LOAD.request_flits, 1);
        assert_eq!(TransactionSizes::LOAD.response_flits, 4);
        assert_eq!(TransactionSizes::EVICTION.request_flits, 4);
        assert_eq!(TransactionSizes::EVICTION.response_flits, 1);
    }

    #[test]
    fn wap_packet_splitting_matches_paper_overhead() {
        let (_mesh, flows, _memory) = platform(4);
        let model = UbdModel::new(NocConfig::waw_wap(), &flows).unwrap();
        // A 4-flit cache line becomes 5 single-flit slices under WaP.
        let split = |packets, size, last| Split {
            packets,
            size,
            last,
        };
        assert_eq!(model.split(4), split(5, 1, 1));
        assert_eq!(model.split(1), split(1, 1, 1));
        let regular = UbdModel::new(NocConfig::regular(4), &flows).unwrap();
        assert_eq!(regular.split(4), split(1, 4, 4));
        assert_eq!(regular.split(10), split(3, 4, 2));
    }

    #[test]
    fn far_cores_benefit_enormously_from_waw_wap() {
        let (_mesh, flows, memory) = platform(8);
        let mut regular = UbdModel::new(NocConfig::regular(4), &flows).unwrap();
        let mut proposed = UbdModel::new(NocConfig::waw_wap(), &flows).unwrap();
        let far = Coord::from_row_col(7, 7);
        let r = regular
            .core_ubd(far, memory, TransactionSizes::LOAD)
            .unwrap();
        let p = proposed
            .core_ubd(far, memory, TransactionSizes::LOAD)
            .unwrap();
        assert!(
            r.round_trip() > 100 * p.round_trip(),
            "regular {} vs proposed {}",
            r.round_trip(),
            p.round_trip()
        );
    }

    #[test]
    fn near_cores_slightly_prefer_the_regular_design() {
        // Table III: the handful of nodes adjacent to the memory controller see
        // slightly larger WCETs under WaW+WaP (slowdowns up to ~1.5x).
        let (_mesh, flows, memory) = platform(8);
        let mut regular = UbdModel::new(NocConfig::regular(4), &flows).unwrap();
        let mut proposed = UbdModel::new(NocConfig::waw_wap(), &flows).unwrap();
        let near = Coord::from_row_col(0, 1);
        let r = regular
            .core_ubd(near, memory, TransactionSizes::LOAD)
            .unwrap();
        let p = proposed
            .core_ubd(near, memory, TransactionSizes::LOAD)
            .unwrap();
        assert!(p.round_trip() > r.round_trip());
        assert!(p.round_trip() < 20 * r.round_trip());
    }

    #[test]
    fn ubd_larger_packets_cost_more() {
        let (_mesh, flows, memory) = platform(4);
        let mut model = UbdModel::new(NocConfig::regular(8), &flows).unwrap();
        let core = Coord::from_row_col(3, 3);
        let load = model
            .core_ubd(core, memory, TransactionSizes::LOAD)
            .unwrap();
        let evict = model
            .core_ubd(core, memory, TransactionSizes::EVICTION)
            .unwrap();
        // Same total flit count, so the round trips are of similar magnitude.
        assert!(load.round_trip() > 0);
        assert!(evict.round_trip() > 0);
        // The response of a load (4 flits) costs at least as much as the
        // eviction acknowledgement (1 flit) on the same route.
        assert!(load.response >= evict.response);
    }

    #[test]
    fn all_cores_enumerates_everything_but_the_memory_node() {
        let (_mesh, flows, memory) = platform(4);
        let mut model = UbdModel::new(NocConfig::waw_wap(), &flows).unwrap();
        let all = model.all_cores(memory, TransactionSizes::LOAD).unwrap();
        assert_eq!(all.len(), 15);
        assert!(all.iter().all(|(c, _)| *c != memory));
        assert!(all.iter().all(|(_, u)| u.round_trip() > 0));
    }

    #[test]
    fn out_of_mesh_core_rejected() {
        let (_mesh, flows, memory) = platform(4);
        let mut model = UbdModel::new(NocConfig::regular(4), &flows).unwrap();
        assert!(model
            .core_ubd(Coord::new(9, 9), memory, TransactionSizes::LOAD)
            .is_err());
    }

    #[test]
    fn max_packet_size_sweep_matches_figure2a_trend() {
        // Figure 2(a): the regular design's WCET grows with the maximum packet
        // size L (contenders are assumed to be of maximum size), while WaW+WaP
        // is insensitive to L.
        let (_mesh, flows, memory) = platform(8);
        let core = Coord::from_row_col(4, 4);
        let mut previous = 0u64;
        for l in [1u32, 4, 8] {
            let mut model = UbdModel::new(NocConfig::regular(l), &flows).unwrap();
            let ubd = model
                .core_ubd(core, memory, TransactionSizes::LOAD)
                .unwrap();
            assert!(ubd.round_trip() > previous);
            previous = ubd.round_trip();
        }
    }
}
