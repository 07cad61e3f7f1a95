//! Packetization policies: regular packetization vs. WCTT-aware Packetization
//! (WaP).
//!
//! With *regular* packetization the NIC turns a message into a single packet of
//! up to `max_packet_flits` flits (larger messages are split into as few packets
//! as possible).  The arbitration slot observed by contenders is therefore as
//! long as the largest allowed packet `L`, which directly inflates every other
//! flow's WCTT (Section II.B of the paper).
//!
//! With *WaP* the message payload is sliced into minimum-size packets (one
//! payload flit each) and the header/control information is replicated in every
//! slice.  The arbitration slot shrinks to the minimum packet size `m` at the
//! cost of a per-flit control overhead: the paper's 64-byte cache line that fits
//! in 4 flits of a 132-bit link (512 payload + 16 control bits) becomes 5
//! single-flit packets (512 + 5·16 bits), a 25% overhead.

use crate::error::{Error, Result};
use crate::flow::FlowId;
use crate::geometry::NodeId;
use crate::packet::{MessageId, Packet, PacketId};

/// Link and header geometry used to convert message payload bits into flits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhitGeometry {
    /// Width of a link / flit in bits (the paper uses 132-bit links).
    pub link_width_bits: u32,
    /// Control/routing information attached to every packet, in bits (the paper
    /// uses 16 bits).
    pub control_bits: u32,
}

impl PhitGeometry {
    /// The geometry used throughout the paper's evaluation: 132-bit links and
    /// 16 bits of control information per packet.
    pub const PAPER: PhitGeometry = PhitGeometry {
        link_width_bits: 132,
        control_bits: 16,
    };

    /// Creates a geometry description.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the link is not wider than the control
    /// information (no payload could ever be carried).
    pub fn new(link_width_bits: u32, control_bits: u32) -> Result<Self> {
        if link_width_bits == 0 || link_width_bits <= control_bits {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "link width ({link_width_bits} bits) must exceed control bits ({control_bits})"
                ),
            });
        }
        Ok(Self {
            link_width_bits,
            control_bits,
        })
    }

    /// Payload bits carried by a single flit when the packet header travels in
    /// its own right (i.e. every flit of a WaP slice).
    pub fn payload_bits_per_wap_flit(&self) -> u32 {
        self.link_width_bits - self.control_bits
    }

    /// Number of flits of a regular (single) packet carrying `payload_bits` of
    /// payload plus one copy of the control information.
    pub fn regular_flits(&self, payload_bits: u32) -> u32 {
        div_ceil(payload_bits + self.control_bits, self.link_width_bits).max(1)
    }

    /// Number of single-flit packets a WaP NIC produces for `payload_bits` of
    /// payload (each flit re-embeds the control information).
    pub fn wap_slices(&self, payload_bits: u32) -> u32 {
        div_ceil(payload_bits, self.payload_bits_per_wap_flit()).max(1)
    }
}

impl Default for PhitGeometry {
    fn default() -> Self {
        Self::PAPER
    }
}

/// The packetization policy applied by the network interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketizationPolicy {
    /// Regular packetization: one packet per message, up to `max_packet_flits`
    /// flits long (longer messages are split into maximum-size packets).
    Regular {
        /// Maximum allowed packet size in flits (the paper's `L`).
        max_packet_flits: u32,
    },
    /// WCTT-aware packetization: the message is sliced into minimum-size
    /// packets of `min_packet_flits` flits each (one flit in the paper), with
    /// header information replicated in every slice.
    Wap {
        /// Minimum packet size in flits (the paper's `m`, normally 1).
        min_packet_flits: u32,
    },
}

impl PacketizationPolicy {
    /// Regular packetization with the paper's default maximum of 4 flits
    /// (a 64-byte cache line on 132-bit links).
    pub fn regular_l4() -> Self {
        PacketizationPolicy::Regular {
            max_packet_flits: 4,
        }
    }

    /// WaP with single-flit slices (the configuration evaluated in the paper).
    pub fn wap() -> Self {
        PacketizationPolicy::Wap {
            min_packet_flits: 1,
        }
    }

    /// The packet length that contenders must assume when deriving WCTT bounds:
    /// the maximum packet size under regular packetization, the minimum slice
    /// size under WaP.  This is the quantity the paper calls `L` vs `m`.
    pub fn worst_case_contender_flits(&self) -> u32 {
        match *self {
            PacketizationPolicy::Regular { max_packet_flits } => max_packet_flits,
            PacketizationPolicy::Wap { min_packet_flits } => min_packet_flits,
        }
    }

    /// Returns `true` for the WaP policy.
    pub fn is_wap(&self) -> bool {
        matches!(self, PacketizationPolicy::Wap { .. })
    }

    /// Sizes of the wire packets a `message_flits`-flit message occupies
    /// under this policy: greedy maximum-size packets under regular
    /// packetization, `geometry.wap_slices` minimum-size slices (payload plus
    /// per-slice control overhead) under WaP.
    ///
    /// This is the single source of truth shared by the UBD composition
    /// ([`crate::analysis::ubd::UbdModel`]) and the conformance oracles
    /// ([`crate::analysis::oracle`]).
    pub fn split_message(&self, message_flits: u32, geometry: PhitGeometry) -> Vec<u32> {
        match *self {
            PacketizationPolicy::Regular { max_packet_flits } => {
                let take_at_most = max_packet_flits.max(1);
                let mut sizes = Vec::new();
                let mut remaining = message_flits;
                while remaining > 0 {
                    let take = remaining.min(take_at_most);
                    sizes.push(take);
                    remaining -= take;
                }
                sizes
            }
            PacketizationPolicy::Wap { min_packet_flits } => {
                let payload_bits = (message_flits * geometry.link_width_bits)
                    .saturating_sub(geometry.control_bits);
                let slices = geometry.wap_slices(payload_bits).max(1);
                vec![min_packet_flits; slices as usize]
            }
        }
    }

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if a size parameter is zero.
    pub fn validate(&self) -> Result<()> {
        let size = match *self {
            PacketizationPolicy::Regular { max_packet_flits } => max_packet_flits,
            PacketizationPolicy::Wap { min_packet_flits } => min_packet_flits,
        };
        if size == 0 {
            return Err(Error::InvalidConfig {
                reason: "packet size must be at least one flit".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for PacketizationPolicy {
    fn default() -> Self {
        Self::regular_l4()
    }
}

/// A message handed to the NIC for transmission: a payload of `payload_flits`
/// "useful" flits travelling from `src` to `dst`.
///
/// The payload is expressed in flits of pure payload (i.e. the size the message
/// occupies under regular packetization, header included) so workloads can be
/// described independently of the packetization policy; see
/// [`Packetizer::packetize`] for how WaP inflates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageDescriptor {
    /// Message id (unique per NIC).
    pub id: MessageId,
    /// Flow this message belongs to.
    pub flow: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Size of the message in flits under regular packetization (header
    /// included), e.g. 1 for a load request, 4 for a cache-line response.
    pub regular_flits: u32,
    /// Cycle at which the message was created by the node.
    pub created: u64,
}

/// Splits messages into packets according to a [`PacketizationPolicy`].
#[derive(Debug, Clone)]
pub struct Packetizer {
    policy: PacketizationPolicy,
    geometry: PhitGeometry,
    next_packet: u64,
}

impl Packetizer {
    /// Creates a packetizer for the given policy and link geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the policy parameters are invalid.
    pub fn new(policy: PacketizationPolicy, geometry: PhitGeometry) -> Result<Self> {
        policy.validate()?;
        Ok(Self {
            policy,
            geometry,
            next_packet: 0,
        })
    }

    /// The active policy.
    pub fn policy(&self) -> PacketizationPolicy {
        self.policy
    }

    /// The link geometry.
    pub fn geometry(&self) -> PhitGeometry {
        self.geometry
    }

    /// Total number of flits the given message occupies on the wire under the
    /// active policy (this is where the WaP control-replication overhead shows
    /// up: a 4-flit message becomes 5 single-flit packets).
    pub fn wire_flits(&self, regular_flits: u32) -> u32 {
        match self.policy {
            PacketizationPolicy::Regular { .. } => regular_flits,
            PacketizationPolicy::Wap { min_packet_flits } => {
                let payload_bits = regular_payload_bits(self.geometry, regular_flits);
                self.geometry.wap_slices(payload_bits) * min_packet_flits
            }
        }
    }

    /// Splits a message into packets.  Packet ids are assigned sequentially from
    /// this packetizer's counter.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyMessage`] if the message has zero length.
    pub fn packetize(&mut self, msg: &MessageDescriptor) -> Result<Vec<Packet>> {
        if msg.regular_flits == 0 {
            return Err(Error::EmptyMessage);
        }
        let packets: Vec<(u32, u32)> = match self.policy {
            PacketizationPolicy::Regular { max_packet_flits } => {
                // As few packets as possible, each at most L flits.
                let count = div_ceil(msg.regular_flits, max_packet_flits);
                (0..count)
                    .map(|i| {
                        let remaining = msg.regular_flits - i * max_packet_flits;
                        (i, remaining.min(max_packet_flits))
                    })
                    .collect()
            }
            PacketizationPolicy::Wap { min_packet_flits } => {
                let payload_bits = regular_payload_bits(self.geometry, msg.regular_flits);
                let count = self.geometry.wap_slices(payload_bits);
                (0..count).map(|i| (i, min_packet_flits)).collect()
            }
        };
        let slice_count = packets.len() as u32;
        packets
            .into_iter()
            .map(|(index, len)| {
                let id = PacketId(self.next_packet);
                self.next_packet += 1;
                Ok(Packet::new(
                    id,
                    msg.id,
                    msg.flow,
                    msg.src,
                    msg.dst,
                    len,
                    index,
                    slice_count,
                )?
                .with_created(msg.created))
            })
            .collect()
    }
}

/// Payload bits carried by a message that occupies `regular_flits` flits under
/// regular packetization (one copy of the control information is subtracted).
fn regular_payload_bits(geometry: PhitGeometry, regular_flits: u32) -> u32 {
    (regular_flits * geometry.link_width_bits).saturating_sub(geometry.control_bits)
}

fn div_ceil(a: u32, b: u32) -> u32 {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_message_covers_both_policies() {
        let geometry = PhitGeometry::PAPER;
        let regular = PacketizationPolicy::Regular {
            max_packet_flits: 4,
        };
        assert_eq!(regular.split_message(4, geometry), vec![4]);
        assert_eq!(regular.split_message(10, geometry), vec![4, 4, 2]);
        assert_eq!(regular.split_message(1, geometry), vec![1]);

        let wap = PacketizationPolicy::wap();
        // A 4-flit cache line becomes 5 single-flit slices (control overhead).
        assert_eq!(wap.split_message(4, geometry), vec![1, 1, 1, 1, 1]);
        assert_eq!(wap.split_message(1, geometry), vec![1]);
    }

    fn msg(flits: u32) -> MessageDescriptor {
        MessageDescriptor {
            id: MessageId(1),
            flow: FlowId(0),
            src: NodeId(1),
            dst: NodeId(0),
            regular_flits: flits,
            created: 10,
        }
    }

    #[test]
    fn paper_geometry_cache_line() {
        // 64-byte cache line = 512 payload bits + 16 control bits on 132-bit
        // links: 4 flits under regular packetization, 5 slices under WaP.
        let g = PhitGeometry::PAPER;
        assert_eq!(g.regular_flits(512), 4);
        assert_eq!(g.wap_slices(512), 5);
        // That is the 25% overhead quoted in Section IV.
        assert_eq!(5 * 100 / 4, 125);
    }

    #[test]
    fn geometry_rejects_degenerate_links() {
        assert!(PhitGeometry::new(16, 16).is_err());
        assert!(PhitGeometry::new(0, 0).is_err());
        assert!(PhitGeometry::new(132, 16).is_ok());
    }

    #[test]
    fn regular_packetization_single_packet() {
        let mut p =
            Packetizer::new(PacketizationPolicy::regular_l4(), PhitGeometry::PAPER).unwrap();
        let packets = p.packetize(&msg(4)).unwrap();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].length_flits, 4);
        assert_eq!(packets[0].slice_count, 1);
        assert_eq!(packets[0].msg_created, 10);
    }

    #[test]
    fn regular_packetization_splits_oversized_messages() {
        let mut p = Packetizer::new(
            PacketizationPolicy::Regular {
                max_packet_flits: 4,
            },
            PhitGeometry::PAPER,
        )
        .unwrap();
        let packets = p.packetize(&msg(10)).unwrap();
        assert_eq!(packets.len(), 3);
        assert_eq!(
            packets.iter().map(|p| p.length_flits).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
        assert!(packets.iter().all(|p| p.slice_count == 3));
    }

    #[test]
    fn wap_slices_cache_line_into_five_single_flit_packets() {
        let mut p = Packetizer::new(PacketizationPolicy::wap(), PhitGeometry::PAPER).unwrap();
        let packets = p.packetize(&msg(4)).unwrap();
        assert_eq!(packets.len(), 5);
        assert!(packets.iter().all(|p| p.length_flits == 1));
        assert_eq!(packets[0].slice_count, 5);
        // Wire occupancy grows from 4 to 5 flits (25% overhead).
        assert_eq!(p.wire_flits(4), 5);
    }

    #[test]
    fn wap_single_flit_message_stays_single_flit() {
        // A one-flit request has no payload beyond its control information, so
        // WaP does not inflate it (the paper's load requests stay one flit).
        let mut p = Packetizer::new(PacketizationPolicy::wap(), PhitGeometry::PAPER).unwrap();
        let packets = p.packetize(&msg(1)).unwrap();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].length_flits, 1);
        assert_eq!(p.wire_flits(1), 1);
    }

    #[test]
    fn packet_ids_are_unique_and_sequential() {
        let mut p = Packetizer::new(PacketizationPolicy::wap(), PhitGeometry::PAPER).unwrap();
        let a = p.packetize(&msg(4)).unwrap();
        let b = p.packetize(&msg(4)).unwrap();
        let mut ids: Vec<u64> = a.iter().chain(b.iter()).map(|p| p.id.0).collect();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn empty_message_rejected() {
        let mut p = Packetizer::new(PacketizationPolicy::wap(), PhitGeometry::PAPER).unwrap();
        assert!(p.packetize(&msg(0)).is_err());
    }

    #[test]
    fn worst_case_contender_flits() {
        assert_eq!(
            PacketizationPolicy::Regular {
                max_packet_flits: 8
            }
            .worst_case_contender_flits(),
            8
        );
        assert_eq!(PacketizationPolicy::wap().worst_case_contender_flits(), 1);
    }

    #[test]
    fn invalid_policies_rejected() {
        assert!(PacketizationPolicy::Regular {
            max_packet_flits: 0
        }
        .validate()
        .is_err());
        assert!(PacketizationPolicy::Wap {
            min_packet_flits: 0
        }
        .validate()
        .is_err());
        assert!(Packetizer::new(
            PacketizationPolicy::Regular {
                max_packet_flits: 0
            },
            PhitGeometry::PAPER
        )
        .is_err());
    }
}
