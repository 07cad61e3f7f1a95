//! Packets and flits.
//!
//! In a wormhole NoC a *message* (e.g. a cache-line transfer) is packetized at
//! the network interface into one or more *packets*; each packet is serialised
//! into *flits* (flow-control units) that traverse the network in a pipelined
//! fashion, the header flit reserving the path hop by hop and the tail flit
//! releasing it.  Packets are never built as values: the packetizer
//! ([`crate::packetization::Packetizer::flits`]) walks a message's
//! [`crate::packetization::Split`] and emits its flits directly.

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
    /// The kind of flit `seq` (0-based) of a `length`-flit packet.
    pub(crate) fn of(seq: u32, length: u32) -> Self {
        match (seq == 0, seq + 1 == length) {
            (true, true) => FlitKind::HeadTail,
            (true, false) => FlitKind::Head,
            (false, true) => FlitKind::Tail,
            (false, false) => FlitKind::Body,
        }
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packetization::{MessageDescriptor, PacketizationPolicy, Packetizer};

    /// The flits of one `len`-flit packet, as the packetizer emits them for a
    /// message created at cycle `created`.
    fn packet(len: u32, created: Cycle) -> Vec<Flit> {
        let policy = PacketizationPolicy::Regular {
            max_packet_flits: len,
        };
        let mut packetizer = Packetizer::new(policy).unwrap();
        let msg = MessageDescriptor {
            id: MessageId(1),
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(5),
            regular_flits: len,
            created,
        };
        packetizer.flits(&msg).unwrap().collect()
    }

    #[test]
    fn single_flit_packet_is_head_tail() {
        let flits = packet(1, 0);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].kind.is_head());
        assert!(flits[0].kind.is_tail());
    }

    #[test]
    fn multi_flit_packet_structure() {
        let flits = packet(4, 0);
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        for (i, f) in flits.iter().enumerate() {
            assert_eq!(f.seq as usize, i);
            assert_eq!(f.dst, NodeId(5));
            assert_eq!(f.packet, flits[0].packet);
            assert_eq!(f.injected, 0);
        }
    }

    #[test]
    fn two_flit_packet_has_head_and_tail() {
        let flits = packet(2, 0);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Tail);
    }

    #[test]
    fn created_cycle_propagates_to_flits() {
        let flits = packet(3, 42);
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
