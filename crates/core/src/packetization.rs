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
//!
//! Both policies are one slicing rule, [`PacketizationPolicy::split`], which
//! returns a [`Split`] in closed form (packet count, common packet size, last
//! packet size) without allocating.  Every WCTT analysis composes its
//! per-packet terms over it, and the NIC's [`Packetizer::flits`] walks it to
//! emit flits, so bounds and simulations slice every message identically.

use crate::error::{Error, Result};
use crate::flow::FlowId;
use crate::geometry::NodeId;
use crate::packet::{Flit, FlitKind, MessageId, PacketId};

/// Width of a link, and so of a flit, in bits: the paper's 132-bit links.
pub const LINK_WIDTH_BITS: u32 = 132;

/// Control/routing information attached to every packet, in bits: the
/// paper's 16 bits.
pub const CONTROL_BITS: u32 = 16;

/// Payload bits a WaP slice flit carries beside its own copy of the control
/// information.
const WAP_PAYLOAD_BITS: u32 = LINK_WIDTH_BITS - CONTROL_BITS;

/// The packetization policy applied by the network interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketizationPolicy {
    /// Regular packetization: one packet per message, up to `max_packet_flits`
    /// flits long (longer messages are split into maximum-size packets).
    Regular {
        /// Maximum allowed packet size in flits (the paper's `L`).
        max_packet_flits: u32,
    },
    /// WCTT-aware packetization: the message is sliced into single-flit
    /// packets (the paper's minimum packet size `m = 1`), with header
    /// information replicated in every slice.
    Wap,
}

impl PacketizationPolicy {
    /// Regular packetization with the paper's default maximum of 4 flits
    /// (a 64-byte cache line on 132-bit links).
    pub fn regular_l4() -> Self {
        PacketizationPolicy::Regular {
            max_packet_flits: 4,
        }
    }

    /// The packet length that contenders must assume when deriving WCTT bounds:
    /// the maximum packet size under regular packetization, the one-flit
    /// slice under WaP.  This is the quantity the paper calls `L` vs `m`.
    pub fn worst_case_contender_flits(&self) -> u32 {
        match *self {
            PacketizationPolicy::Regular { max_packet_flits } => max_packet_flits,
            PacketizationPolicy::Wap => 1,
        }
    }

    /// Returns `true` for the WaP policy.
    pub fn is_wap(&self) -> bool {
        matches!(self, PacketizationPolicy::Wap)
    }

    /// How a `message_flits`-flit message is cut into wire packets under
    /// this policy: greedy maximum-size packets under regular packetization
    /// (none for an empty message), under WaP enough single-flit slices to
    /// carry the message's payload bits when every slice repeats the
    /// [`CONTROL_BITS`] (at least one).
    ///
    /// This is the one slicing rule: every analysis composes its per-packet
    /// terms over it and the NIC emits exactly its packets
    /// ([`Packetizer::flits`]).
    pub fn split(&self, message_flits: u32) -> Split {
        match *self {
            PacketizationPolicy::Regular { max_packet_flits } => {
                let max = max_packet_flits.max(1);
                let packets = message_flits.div_ceil(max);
                let last = message_flits - packets.saturating_sub(1) * max;
                Split {
                    packets,
                    size: if packets > 1 { max } else { last },
                    last,
                }
            }
            PacketizationPolicy::Wap => {
                // One copy of the control information travels with the
                // regular packet; the rest of its flits is payload.
                let payload_bits = (message_flits * LINK_WIDTH_BITS).saturating_sub(CONTROL_BITS);
                Split {
                    packets: payload_bits.div_ceil(WAP_PAYLOAD_BITS).max(1),
                    size: 1,
                    last: 1,
                }
            }
        }
    }

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the regular packet size is zero.
    pub fn validate(&self) -> Result<()> {
        if self.worst_case_contender_flits() == 0 {
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

/// A message cut into wire packets, in closed form: `packets` packets, every
/// one `size` flits long except the last, which is `last` flits long.
///
/// [`PacketizationPolicy::split`] returns it canonical: `size == last`
/// unless the message needs more than one packet, and both are 0 when it
/// needs none.  A WCTT bound that sums a per-packet term over the packets
/// needs just these three numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// Number of wire packets.
    pub packets: u32,
    /// Flits of every packet but the last.
    pub size: u32,
    /// Flits of the last packet.
    pub last: u32,
}

impl Split {
    /// Flits of packet `index` (0-based, `index < packets`).
    pub fn packet_flits(&self, index: u32) -> u32 {
        if index + 1 == self.packets {
            self.last
        } else {
            self.size
        }
    }

    /// Total flits on the wire: where the WaP control-replication overhead
    /// shows (a 4-flit cache line becomes 5 single-flit slices).
    pub fn wire_flits(&self) -> u32 {
        match self.packets {
            0 => 0,
            packets => (packets - 1) * self.size + self.last,
        }
    }

    /// `Σ per_packet(flits)` over the packets, saturating, evaluating
    /// `per_packet` at most twice.
    pub(crate) fn sum(&self, mut per_packet: impl FnMut(u32) -> u64) -> u64 {
        match self.packets {
            0 => 0,
            1 => per_packet(self.last),
            packets => u64::from(packets - 1)
                .saturating_mul(per_packet(self.size))
                .saturating_add(per_packet(self.last)),
        }
    }
}

/// A message handed to the NIC for transmission: a payload of `payload_flits`
/// "useful" flits travelling from `src` to `dst`.
///
/// The payload is expressed in flits of pure payload (i.e. the size the message
/// occupies under regular packetization, header included) so workloads can be
/// described independently of the packetization policy; see
/// [`PacketizationPolicy::split`] for how WaP inflates it.
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

/// Turns messages into flits according to a [`PacketizationPolicy`],
/// numbering their packets.
#[derive(Debug, Clone)]
pub struct Packetizer {
    policy: PacketizationPolicy,
    next_packet: u64,
}

impl Packetizer {
    /// Creates a packetizer for the given policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the policy parameters are invalid.
    pub fn new(policy: PacketizationPolicy) -> Result<Self> {
        policy.validate()?;
        Ok(Self {
            policy,
            next_packet: 0,
        })
    }

    /// The active policy.
    pub fn policy(&self) -> PacketizationPolicy {
        self.policy
    }

    /// Total number of flits the given message occupies on the wire under the
    /// active policy.
    pub fn wire_flits(&self, regular_flits: u32) -> u32 {
        self.policy.split(regular_flits).wire_flits()
    }

    /// The flits of `msg`, in injection order: the packets of its
    /// [`PacketizationPolicy::split`] back to back, each a head, bodies and a tail (or
    /// one head-tail flit).  Packet ids are assigned sequentially from this
    /// packetizer's counter.  Nothing is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyMessage`] if the message has zero length.
    pub fn flits(&mut self, msg: &MessageDescriptor) -> Result<impl Iterator<Item = Flit>> {
        if msg.regular_flits == 0 {
            return Err(Error::EmptyMessage);
        }
        let split = self.policy.split(msg.regular_flits);
        let first_packet = self.next_packet;
        self.next_packet += u64::from(split.packets);
        let msg = *msg;
        Ok((0..split.packets).flat_map(move |index| {
            let length = split.packet_flits(index);
            (0..length).map(move |seq| Flit {
                packet: PacketId(first_packet + u64::from(index)),
                message: msg.id,
                flow: msg.flow,
                src: msg.src,
                dst: msg.dst,
                kind: FlitKind::of(seq, length),
                seq,
                msg_created: msg.created,
                injected: 0,
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_message_covers_both_policies() {
        let regular = PacketizationPolicy::Regular {
            max_packet_flits: 4,
        };
        let sizes = |split: Split| {
            (0..split.packets)
                .map(|index| split.packet_flits(index))
                .collect::<Vec<_>>()
        };
        assert_eq!(sizes(regular.split(4)), vec![4]);
        assert_eq!(sizes(regular.split(10)), vec![4, 4, 2]);
        assert_eq!(sizes(regular.split(1)), vec![1]);
        assert_eq!(
            regular.split(10),
            Split {
                packets: 3,
                size: 4,
                last: 2
            }
        );
        // An empty message needs no regular packet ...
        assert_eq!(
            regular.split(0),
            Split {
                packets: 0,
                size: 0,
                last: 0
            }
        );

        let wap = PacketizationPolicy::Wap;
        // A 4-flit cache line becomes 5 single-flit slices (control overhead).
        assert_eq!(sizes(wap.split(4)), vec![1, 1, 1, 1, 1]);
        assert_eq!(sizes(wap.split(1)), vec![1]);
        // ... but still one WaP slice.
        assert_eq!(sizes(wap.split(0)), vec![1]);

        // The closed-form sum is the per-packet sum, saturating like a fold
        // of saturating adds.
        let split = regular.split(10);
        assert_eq!(split.sum(|flits| u64::from(flits) * 100 + 1), 1003);
        assert_eq!(split.sum(|_| u64::MAX / 2), u64::MAX);
        assert_eq!(regular.split(0).sum(|_| 7), 0);
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

    /// The flits of one message, grouped into `(packet id, flits)` runs.
    fn packets(p: &mut Packetizer, flits: u32) -> Vec<(u64, Vec<Flit>)> {
        let mut packets: Vec<(u64, Vec<Flit>)> = Vec::new();
        for flit in p.flits(&msg(flits)).unwrap() {
            match packets.last_mut() {
                Some((id, run)) if *id == flit.packet.0 => run.push(flit),
                _ => packets.push((flit.packet.0, vec![flit])),
            }
        }
        packets
    }

    #[test]
    fn paper_geometry_cache_line() {
        // 64-byte cache line = 512 payload bits + 16 control bits on 132-bit
        // links: 4 flits under regular packetization, 5 slices under WaP.
        assert_eq!((512 + CONTROL_BITS).div_ceil(LINK_WIDTH_BITS), 4);
        assert_eq!(512u32.div_ceil(WAP_PAYLOAD_BITS), 5);
        // That is the 25% overhead quoted in Section IV.
        assert_eq!(5 * 100 / 4, 125);
    }

    #[test]
    fn regular_packetization_single_packet() {
        let mut p = Packetizer::new(PacketizationPolicy::regular_l4()).unwrap();
        let packets = packets(&mut p, 4);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].1.len(), 4);
        assert!(packets[0].1.iter().all(|f| f.msg_created == 10));
    }

    #[test]
    fn regular_packetization_splits_oversized_messages() {
        let mut p = Packetizer::new(PacketizationPolicy::Regular {
            max_packet_flits: 4,
        })
        .unwrap();
        let packets = packets(&mut p, 10);
        assert_eq!(packets.len(), 3);
        assert_eq!(
            packets.iter().map(|(_, run)| run.len()).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
    }

    #[test]
    fn wap_slices_cache_line_into_five_single_flit_packets() {
        let mut p = Packetizer::new(PacketizationPolicy::Wap).unwrap();
        let packets = packets(&mut p, 4);
        assert_eq!(packets.len(), 5);
        assert!(packets
            .iter()
            .all(|(_, run)| run.len() == 1 && run[0].kind == FlitKind::HeadTail));
        // Wire occupancy grows from 4 to 5 flits (25% overhead).
        assert_eq!(p.wire_flits(4), 5);
    }

    #[test]
    fn wap_single_flit_message_stays_single_flit() {
        // A one-flit request has no payload beyond its control information, so
        // WaP does not inflate it (the paper's load requests stay one flit).
        let mut p = Packetizer::new(PacketizationPolicy::Wap).unwrap();
        let packets = packets(&mut p, 1);
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].1.len(), 1);
        assert_eq!(p.wire_flits(1), 1);
    }

    #[test]
    fn packet_ids_are_unique_and_sequential() {
        let mut p = Packetizer::new(PacketizationPolicy::Wap).unwrap();
        let a = packets(&mut p, 4);
        let b = packets(&mut p, 4);
        let ids: Vec<u64> = a.iter().chain(b.iter()).map(|(id, _)| *id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_message_rejected() {
        let mut p = Packetizer::new(PacketizationPolicy::Wap).unwrap();
        assert!(p.flits(&msg(0)).is_err());
        let mut p = Packetizer::new(PacketizationPolicy::regular_l4()).unwrap();
        assert!(p.flits(&msg(0)).is_err());
        // A rejected message consumes no packet id.
        assert_eq!(
            p.flits(&msg(1)).unwrap().next().unwrap().packet,
            PacketId(0)
        );
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
        assert_eq!(PacketizationPolicy::Wap.worst_case_contender_flits(), 1);
    }

    #[test]
    fn invalid_policies_rejected() {
        assert!(PacketizationPolicy::Regular {
            max_packet_flits: 0
        }
        .validate()
        .is_err());
        assert!(PacketizationPolicy::Wap.validate().is_ok());
        assert!(Packetizer::new(PacketizationPolicy::Regular {
            max_packet_flits: 0
        })
        .is_err());
    }
}
