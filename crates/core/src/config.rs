//! NoC design configuration: arbitration policy, packetization policy and
//! buffering, plus the per-hop cycle charges of the WCTT analyses.
//!
//! Two presets matter for the paper: [`NocConfig::regular`] (the baseline
//! wormhole mesh: round-robin arbitration, regular packetization with a maximum
//! packet size `L`) and [`NocConfig::waw_wap`] (the proposed design: WaW
//! weighted arbitration plus WaP single-flit packetization).

use crate::arbitration::ArbitrationPolicy;
use crate::error::{Error, Result};
use crate::packetization::PacketizationPolicy;

/// Cycles the WCTT analyses charge for every router a packet crosses,
/// source and destination routers included.
///
/// The simulator spends only the link cycle: it charges no router or
/// ejection cycle, so a lone flit crosses `h` hops in `h + 1` cycles from
/// injection to ejection, against the analyses' `2h + 2`
/// ([`zero_load_head_latency`]).  The per-router cycle is load-bearing all
/// the same: without it the seed-7 campaigns fail in every dimension, so it
/// pays for a contention cost no bound term names yet.  Naming that cost is
/// an open item in `ROADMAP.md`.
pub const ROUTER_CHARGE: u64 = 1;

/// Cycles the WCTT analyses charge for every link a packet crosses (see
/// [`ROUTER_CHARGE`] for what the simulator spends).
pub const LINK_CHARGE: u64 = 1;

/// Cycles the WCTT analyses charge to hand a flit from the ejection port to
/// its node (see [`ROUTER_CHARGE`] for what the simulator spends).
pub const EJECTION_CHARGE: u64 = 1;

/// The analyses' zero-load latency of a head flit over `hops` links: it
/// crosses `hops + 1` routers and `hops` links and is then ejected, which is
/// `2·hops + 2` cycles.
pub fn zero_load_head_latency(hops: u32) -> u64 {
    ROUTER_CHARGE * (u64::from(hops) + 1) + LINK_CHARGE * u64::from(hops) + EJECTION_CHARGE
}

/// The simulator's offer-to-delivery latency of a lone message of
/// `wire_flits` wire flits over `hops` links: it is injected the cycle after
/// it is offered, its head crosses one link per cycle and the rest of the
/// message follows one flit per cycle, so `hops + wire_flits + 1` cycles.
///
/// Exact on an idle network whose input buffers hold at least two flits, and
/// a lower bound on every network: a depth-1 buffer can stall the message on
/// its credits, and contention only delays it.  The simulator's
/// `zero_load_latency_matches_hop_count` test pins it.
pub fn lone_message_latency(hops: u32, wire_flits: u32) -> u64 {
    u64::from(hops) + u64::from(wire_flits) + 1
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
            input_buffer_flits: 4,
        }
    }

    /// The proposed design: WaW weighted arbitration plus WaP single-flit
    /// packetization.
    pub fn waw_wap() -> Self {
        Self {
            arbitration: ArbitrationPolicy::Waw,
            packetization: PacketizationPolicy::Wap,
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
            (ArbitrationPolicy::Waw, PacketizationPolicy::Wap) => "WaW+WaP".to_string(),
            (ArbitrationPolicy::RoundRobin, PacketizationPolicy::Wap) => "WaP-only".to_string(),
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
    fn zero_load_latency() {
        // 0 hops: source router + ejection.
        assert_eq!(zero_load_head_latency(0), 2);
        // 3 hops: 4 routers + 3 links + ejection.
        assert_eq!(zero_load_head_latency(3), 8);
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
    fn validation_catches_bad_buffer() {
        let cfg = NocConfig {
            input_buffer_flits: 0,
            ..NocConfig::regular(4)
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_is_regular_l4() {
        assert_eq!(NocConfig::default(), NocConfig::regular(4));
    }
}
