//! Packets and flits.
//!
//! In a wormhole NoC a *message* (e.g. a cache-line transfer) is packetized at
//! the network interface into one or more *packets*; each packet is serialised
//! into *flits* (flow-control units) that traverse the network in a pipelined
//! fashion, the header flit reserving the path hop by hop and the tail flit
//! releasing it.

use crate::error::{Error, Result};
use crate::flow::FlowId;
use crate::geometry::NodeId;

/// Simulation time expressed in router clock cycles.
pub type Cycle = u64;

/// Globally unique packet identifier (assigned by the injecting NIC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PacketId(pub u64);

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Globally unique message identifier.  A message is the unit of work handed to
/// the NIC (a memory request, a cache-line response, ...); under WaP a single
/// message becomes several single-flit packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MessageId(pub u64);

impl std::fmt::Display for MessageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The kind of flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// Header flit: carries routing information and reserves the path.
    Head,
    /// Payload flit in the middle of a packet.
    Body,
    /// Last flit of a packet: releases the path as it advances.
    Tail,
    /// Single-flit packet: header and tail at once.
    HeadTail,
}

impl FlitKind {
    /// Returns `true` for flits that carry routing information (`Head`,
    /// `HeadTail`).
    pub fn is_head(&self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Returns `true` for flits that release the wormhole path (`Tail`,
    /// `HeadTail`).
    pub fn is_tail(&self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// A flow-control unit travelling through the network.
///
/// Flits are deliberately small and `Copy`: the cycle-accurate simulator moves
/// millions of them around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: PacketId,
    /// The message this flit's packet was sliced from.
    pub message: MessageId,
    /// The flow (source, destination pair) this flit belongs to.
    pub flow: FlowId,
    /// Source node of the packet.
    pub src: NodeId,
    /// Destination node of the packet.
    pub dst: NodeId,
    /// Kind of flit (head, body, tail, single).
    pub kind: FlitKind,
    /// Position of this flit inside its packet (0 = head).
    pub seq: u32,
    /// Cycle at which the parent message was handed to the source NIC.
    pub msg_created: Cycle,
    /// Cycle at which this flit's packet was injected into the router network
    /// (set by the NIC; `0` until injection).
    pub injected: Cycle,
}

/// A packet: a header plus a payload of flits, produced by the packetizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique packet id.
    pub id: PacketId,
    /// The message this packet was sliced from.
    pub message: MessageId,
    /// The flow it belongs to.
    pub flow: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Total length in flits (header included).
    pub length_flits: u32,
    /// Index of this packet within its message (0-based).
    pub slice_index: u32,
    /// Number of packets the message was sliced into.
    pub slice_count: u32,
    /// Cycle at which the parent message was handed to the source NIC.
    pub msg_created: Cycle,
}

impl Packet {
    /// Creates a packet description.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyMessage`] if `length_flits` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: PacketId,
        message: MessageId,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        length_flits: u32,
        slice_index: u32,
        slice_count: u32,
    ) -> Result<Self> {
        if length_flits == 0 {
            return Err(Error::EmptyMessage);
        }
        Ok(Self {
            id,
            message,
            flow,
            src,
            dst,
            length_flits,
            slice_index,
            slice_count,
            msg_created: 0,
        })
    }

    /// Sets the creation cycle of the parent message (builder style).
    pub fn with_created(mut self, cycle: Cycle) -> Self {
        self.msg_created = cycle;
        self
    }

    /// Expands the packet into its sequence of flits.
    pub fn to_flits(&self) -> Vec<Flit> {
        (0..self.length_flits)
            .map(|seq| {
                let kind = if self.length_flits == 1 {
                    FlitKind::HeadTail
                } else if seq == 0 {
                    FlitKind::Head
                } else if seq == self.length_flits - 1 {
                    FlitKind::Tail
                } else {
                    FlitKind::Body
                };
                Flit {
                    packet: self.id,
                    message: self.message,
                    flow: self.flow,
                    src: self.src,
                    dst: self.dst,
                    kind,
                    seq,
                    msg_created: self.msg_created,
                    injected: 0,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(len: u32) -> Packet {
        Packet::new(
            PacketId(1),
            MessageId(1),
            FlowId(0),
            NodeId(0),
            NodeId(5),
            len,
            0,
            1,
        )
        .unwrap()
    }

    #[test]
    fn zero_length_packet_rejected() {
        assert!(Packet::new(
            PacketId(1),
            MessageId(1),
            FlowId(0),
            NodeId(0),
            NodeId(1),
            0,
            0,
            1
        )
        .is_err());
    }

    #[test]
    fn single_flit_packet_is_head_tail() {
        let flits = packet(1).to_flits();
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head());
        assert!(flits[0].kind.is_tail());
    }

    #[test]
    fn multi_flit_packet_structure() {
        let flits = packet(4).to_flits();
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.seq as usize, i);
            assert_eq!(f.dst, NodeId(5));
        }
    }

    #[test]
    fn two_flit_packet_has_head_and_tail() {
        let flits = packet(2).to_flits();
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Tail);
    }

    #[test]
    fn created_cycle_propagates_to_flits() {
        let flits = packet(3).with_created(42).to_flits();
        assert!(flits.iter().all(|f| f.msg_created == 42));
    }

    #[test]
    fn head_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
        assert!(!FlitKind::Body.is_tail());
    }

    #[test]
    fn display_ids() {
        assert_eq!(PacketId(3).to_string(), "p3");
        assert_eq!(MessageId(7).to_string(), "m7");
    }
}
