//! NoC design configuration: arbitration policy, packetization policy, link
//! geometry, router timing and buffering.
//!
//! Two presets matter for the paper: [`NocConfig::regular`] (the baseline
//! wormhole mesh: round-robin arbitration, regular packetization with a maximum
//! packet size `L`) and [`NocConfig::waw_wap`] (the proposed design: WaW
//! weighted arbitration plus WaP single-flit packetization).

use crate::arbitration::ArbitrationPolicy;
use crate::error::{Error, Result};
use crate::packetization::{PacketizationPolicy, PhitGeometry};

/// Fixed per-hop timing of the router pipeline and links, in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterTiming {
    /// Cycles a flit spends inside a router when it meets no contention
    /// (route computation + switch allocation + switch traversal).
    pub router_cycles: u32,
    /// Cycles to traverse a link between two adjacent routers.
    pub link_cycles: u32,
    /// Cycles to hand a flit from the ejection port to the local node.
    pub ejection_cycles: u32,
}

impl RouterTiming {
    /// A canonical single-cycle router with single-cycle links, the timing used
    /// for all experiments unless stated otherwise.
    pub const CANONICAL: RouterTiming = RouterTiming {
        router_cycles: 1,
        link_cycles: 1,
        ejection_cycles: 1,
    };

    /// Creates a timing description.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any latency is zero.
    pub fn new(router_cycles: u32, link_cycles: u32, ejection_cycles: u32) -> Result<Self> {
        if router_cycles == 0 || link_cycles == 0 || ejection_cycles == 0 {
            return Err(Error::InvalidConfig {
                reason: "router, link and ejection latencies must all be at least one cycle"
                    .to_string(),
            });
        }
        Ok(Self {
            router_cycles,
            link_cycles,
            ejection_cycles,
        })
    }

    /// Zero-load latency of a head flit over `hops` links: it crosses `hops + 1`
    /// routers, `hops` links and is finally ejected.
    pub fn zero_load_head_latency(&self, hops: u32) -> u64 {
        u64::from(self.router_cycles) * (u64::from(hops) + 1)
            + u64::from(self.link_cycles) * u64::from(hops)
            + u64::from(self.ejection_cycles)
    }
}

impl Default for RouterTiming {
    fn default() -> Self {
        Self::CANONICAL
    }
}

/// Complete configuration of a wormhole mesh NoC design.
///
/// # Examples
///
/// ```
/// use wnoc_core::config::NocConfig;
///
/// let baseline = NocConfig::regular(4);
/// let proposed = NocConfig::waw_wap();
/// assert!(!baseline.is_waw_wap());
/// assert!(proposed.is_waw_wap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Output-port arbitration policy.
    pub arbitration: ArbitrationPolicy,
    /// NIC packetization policy.
    pub packetization: PacketizationPolicy,
    /// Link width and per-packet control overhead.
    pub geometry: PhitGeometry,
    /// Router and link timing.
    pub timing: RouterTiming,
    /// Depth of each router input buffer, in flits.
    pub input_buffer_flits: u32,
}

impl NocConfig {
    /// The baseline regular wormhole mesh: round-robin arbitration and regular
    /// packetization with the given maximum packet size `L` (in flits).
    pub fn regular(max_packet_flits: u32) -> Self {
        Self {
            arbitration: ArbitrationPolicy::RoundRobin,
            packetization: PacketizationPolicy::Regular { max_packet_flits },
            geometry: PhitGeometry::PAPER,
            timing: RouterTiming::CANONICAL,
            input_buffer_flits: 4,
        }
    }

    /// The proposed design: WaW weighted arbitration plus WaP single-flit
    /// packetization.
    pub fn waw_wap() -> Self {
        Self {
            arbitration: ArbitrationPolicy::Waw,
            packetization: PacketizationPolicy::wap(),
            geometry: PhitGeometry::PAPER,
            timing: RouterTiming::CANONICAL,
            input_buffer_flits: 4,
        }
    }

    /// Ablation: WaP packetization with plain round-robin arbitration.
    pub fn wap_only() -> Self {
        Self {
            arbitration: ArbitrationPolicy::RoundRobin,
            ..Self::waw_wap()
        }
    }

    /// Ablation: WaW arbitration with regular packetization of size `L`.
    pub fn waw_only(max_packet_flits: u32) -> Self {
        Self {
            arbitration: ArbitrationPolicy::Waw,
            ..Self::regular(max_packet_flits)
        }
    }

    /// Returns `true` if this is the full proposed design (WaW + WaP).
    pub fn is_waw_wap(&self) -> bool {
        self.arbitration == ArbitrationPolicy::Waw && self.packetization.is_wap()
    }

    /// Sets the router/link timing (builder style).
    pub fn with_timing(mut self, timing: RouterTiming) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the input buffer depth in flits (builder style).
    pub fn with_input_buffer(mut self, flits: u32) -> Self {
        self.input_buffer_flits = flits;
        self
    }

    /// Sets the link geometry (builder style).
    pub fn with_geometry(mut self, geometry: PhitGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the packetization policy or buffer
    /// depth is invalid.
    pub fn validate(&self) -> Result<()> {
        self.packetization.validate()?;
        if self.input_buffer_flits == 0 {
            return Err(Error::InvalidConfig {
                reason: "input buffers must hold at least one flit".to_string(),
            });
        }
        Ok(())
    }

    /// Short human-readable label ("regular(L=4)", "WaW+WaP", ...).
    pub fn label(&self) -> String {
        match (self.arbitration, self.packetization) {
            (ArbitrationPolicy::RoundRobin, PacketizationPolicy::Regular { max_packet_flits }) => {
                format!("regular(L={max_packet_flits})")
            }
            (ArbitrationPolicy::Waw, PacketizationPolicy::Wap { .. }) => "WaW+WaP".to_string(),
            (ArbitrationPolicy::RoundRobin, PacketizationPolicy::Wap { .. }) => {
                "WaP-only".to_string()
            }
            (ArbitrationPolicy::Waw, PacketizationPolicy::Regular { max_packet_flits }) => {
                format!("WaW-only(L={max_packet_flits})")
            }
        }
    }
}

impl Default for NocConfig {
    fn default() -> Self {
        Self::regular(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_rejects_zero_latencies() {
        assert!(RouterTiming::new(0, 1, 1).is_err());
        assert!(RouterTiming::new(1, 0, 1).is_err());
        assert!(RouterTiming::new(1, 1, 0).is_err());
        assert!(RouterTiming::new(2, 1, 1).is_ok());
    }

    #[test]
    fn zero_load_latency() {
        let t = RouterTiming::CANONICAL;
        // 0 hops: source router + ejection.
        assert_eq!(t.zero_load_head_latency(0), 2);
        // 3 hops: 4 routers + 3 links + ejection.
        assert_eq!(t.zero_load_head_latency(3), 8);
        let slow = RouterTiming::new(3, 2, 1).unwrap();
        assert_eq!(slow.zero_load_head_latency(2), 3 * 3 + 2 * 2 + 1);
    }

    #[test]
    fn presets() {
        let reg = NocConfig::regular(8);
        assert_eq!(reg.arbitration, ArbitrationPolicy::RoundRobin);
        assert_eq!(reg.packetization.worst_case_contender_flits(), 8);
        assert!(!reg.is_waw_wap());

        let prop = NocConfig::waw_wap();
        assert!(prop.is_waw_wap());
        assert_eq!(prop.packetization.worst_case_contender_flits(), 1);

        assert!(!NocConfig::wap_only().is_waw_wap());
        assert!(!NocConfig::waw_only(4).is_waw_wap());
    }

    #[test]
    fn labels() {
        assert_eq!(NocConfig::regular(4).label(), "regular(L=4)");
        assert_eq!(NocConfig::waw_wap().label(), "WaW+WaP");
        assert_eq!(NocConfig::wap_only().label(), "WaP-only");
        assert_eq!(NocConfig::waw_only(8).label(), "WaW-only(L=8)");
    }

    #[test]
    fn builder_methods() {
        let cfg = NocConfig::regular(4)
            .with_input_buffer(8)
            .with_timing(RouterTiming::new(2, 1, 1).unwrap());
        assert_eq!(cfg.input_buffer_flits, 8);
        assert_eq!(cfg.timing.router_cycles, 2);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_buffer() {
        let cfg = NocConfig::regular(4).with_input_buffer(0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_is_regular_l4() {
        assert_eq!(NocConfig::default(), NocConfig::regular(4));
    }
}
