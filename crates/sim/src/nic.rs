//! Network interface controller (NIC): packetizes node messages and injects
//! their flits into the local port of the attached router.
//!
//! This is where WaP lives in hardware: the same NIC logic produces either one
//! packet per message (regular packetization) or a train of single-flit
//! packets with replicated control information (WaP), depending on the
//! configured [`PacketizationPolicy`](wnoc_core::PacketizationPolicy).
//!
//! An offer walks the message's closed-form
//! [`Split`](wnoc_core::packetization::Split) — the one slicing rule the
//! WCTT analyses compose over — and writes each flit straight into the
//! network's [`FlitArena`]; the injection queue holds [`FlitId`] handles
//! only.  Once the arena and the queues have grown to their peak backlog,
//! an offer allocates nothing.
//!
//! Under the event-horizon scheduler a NIC is *actable* — worth visiting —
//! exactly while it is back-logged and the router's local input buffer has a
//! free slot: its next injection-eligible cycle is either the next cycle
//! (slot available) or the cycle the router next forwards a flit out of the
//! local buffer, which re-lists it with dense-kernel timing.

use std::collections::VecDeque;

use wnoc_core::packetization::MessageDescriptor;
use wnoc_core::{Cycle, FlowId, MessageId, NodeId, Packetizer};

use crate::arena::{FlitArena, FlitId};

/// Metadata the network needs to track a message end to end.
#[derive(Debug, Clone, Copy)]
pub struct OfferedMessage {
    /// The message id assigned by the NIC.
    pub id: MessageId,
    /// Flow this message belongs to.
    pub flow: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Cycle the message was handed to the NIC.
    pub created: Cycle,
    /// Number of packets the message was sliced into.
    pub packets: u32,
    /// Total number of flits on the wire.
    pub wire_flits: u32,
}

/// The per-node network interface.
#[derive(Debug)]
pub struct Nic {
    node: NodeId,
    packetizer: Packetizer,
    next_message: u64,
    /// Flits awaiting injection, in order.
    pending: VecDeque<FlitId>,
    /// Number of messages whose flits have not yet all been injected.
    pending_messages: VecDeque<(MessageId, u32)>,
    flits_injected: u64,
    messages_offered: u64,
}

impl Nic {
    /// Creates the NIC of `node` with the given packetizer.
    pub fn new(node: NodeId, packetizer: Packetizer) -> Self {
        Self {
            node,
            packetizer,
            next_message: 0,
            pending: VecDeque::new(),
            pending_messages: VecDeque::new(),
            flits_injected: 0,
            messages_offered: 0,
        }
    }

    /// The node this NIC belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Number of flits waiting to be injected.
    pub fn pending_flits(&self) -> usize {
        self.pending.len()
    }

    /// Number of messages with at least one flit still waiting for injection.
    pub fn pending_messages(&self) -> usize {
        self.pending_messages.len()
    }

    /// Total messages offered to this NIC so far.
    pub fn messages_offered(&self) -> u64 {
        self.messages_offered
    }

    /// Total flits injected into the router so far.
    pub fn flits_injected(&self) -> u64 {
        self.flits_injected
    }

    /// Returns `true` if the NIC has nothing left to inject.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }

    /// Accepts a message for transmission: walks its split under the
    /// configured policy, writes its flits into `arena` and queues their
    /// handles for injection.
    ///
    /// # Panics
    ///
    /// Panics if `size_flits` is zero (callers validate message sizes).
    pub fn offer(
        &mut self,
        arena: &mut FlitArena,
        dst: NodeId,
        flow: FlowId,
        size_flits: u32,
        now: Cycle,
    ) -> OfferedMessage {
        let id = MessageId(self.next_message);
        self.next_message += 1;
        self.messages_offered += 1;
        self.enqueue(arena, id, dst, flow, size_flits, now)
    }

    /// Re-queues a message purged by a fault epoch flush under its **original
    /// id** — a retransmission is the same message going around again, so the
    /// id counter and the offered-message count stay untouched.  `now` is the
    /// release cycle; the network's tracker keeps the original creation cycle
    /// for end-to-end latency.
    ///
    /// # Panics
    ///
    /// Panics if `size_flits` is zero (callers validate message sizes).
    pub fn reoffer(
        &mut self,
        arena: &mut FlitArena,
        dst: NodeId,
        flow: FlowId,
        size_flits: u32,
        now: Cycle,
        id: MessageId,
    ) -> OfferedMessage {
        self.enqueue(arena, id, dst, flow, size_flits, now)
    }

    /// Fault-epoch flush: hands every queued flit to `purged` and forgets
    /// the queued messages (the network NACKs them from its tracker).
    pub fn purge_into(&mut self, purged: &mut Vec<FlitId>) {
        purged.extend(self.pending.drain(..));
        self.pending_messages.clear();
    }

    /// Every flit awaiting injection (fault diagnostics: classifying a
    /// stalled network as partitioned vs deadlocked).
    pub fn pending_ids(&self) -> impl Iterator<Item = FlitId> + '_ {
        self.pending.iter().copied()
    }

    fn enqueue(
        &mut self,
        arena: &mut FlitArena,
        id: MessageId,
        dst: NodeId,
        flow: FlowId,
        size_flits: u32,
        now: Cycle,
    ) -> OfferedMessage {
        assert!(size_flits > 0, "messages must contain at least one flit");
        let descriptor = MessageDescriptor {
            id,
            flow,
            src: self.node,
            dst,
            regular_flits: size_flits,
            created: now,
        };
        let mut offered = OfferedMessage {
            id,
            flow,
            src: self.node,
            dst,
            created: now,
            packets: 0,
            wire_flits: 0,
        };
        let flits = self
            .packetizer
            .flits(&descriptor)
            .expect("non-empty message");
        for flit in flits {
            offered.packets += u32::from(flit.kind.is_head());
            offered.wire_flits += 1;
            self.pending.push_back(arena.alloc(flit));
        }
        self.pending_messages.push_back((id, offered.wire_flits));
        offered
    }

    /// The next flit awaiting injection, if any.
    pub fn peek(&self) -> Option<FlitId> {
        self.pending.front().copied()
    }

    /// Removes and returns the next flit to inject, stamping it with the
    /// injection cycle.
    pub fn inject(&mut self, arena: &mut FlitArena, now: Cycle) -> Option<FlitId> {
        let id = self.pending.pop_front()?;
        arena.get_mut(id).injected = now;
        self.flits_injected += 1;
        if let Some(front) = self.pending_messages.front_mut() {
            front.1 -= 1;
            if front.1 == 0 {
                self.pending_messages.pop_front();
            }
        }
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnoc_core::packetization::PacketizationPolicy;
    use wnoc_core::FlitKind;

    fn nic(policy: PacketizationPolicy) -> Nic {
        Nic::new(NodeId(3), Packetizer::new(policy).unwrap())
    }

    #[test]
    fn regular_nic_queues_one_packet_per_message() {
        let mut arena = FlitArena::new();
        let mut n = nic(PacketizationPolicy::regular_l4());
        let offered = n.offer(&mut arena, NodeId(0), FlowId(1), 4, 100);
        assert_eq!(offered.packets, 1);
        assert_eq!(offered.wire_flits, 4);
        assert_eq!(n.pending_flits(), 4);
        assert_eq!(n.pending_messages(), 1);
        assert_eq!(arena.live(), 4);
    }

    #[test]
    fn wap_nic_slices_and_replicates_headers() {
        let mut arena = FlitArena::new();
        let mut n = nic(PacketizationPolicy::Wap);
        let offered = n.offer(&mut arena, NodeId(0), FlowId(1), 4, 100);
        assert_eq!(offered.packets, 5);
        assert_eq!(offered.wire_flits, 5);
        assert_eq!(n.pending_flits(), 5);
        // Every queued flit is a complete single-flit packet.
        while let Some(id) = n.inject(&mut arena, 101) {
            let f = arena.get(id);
            assert_eq!(f.kind, FlitKind::HeadTail);
            assert_eq!(f.injected, 101);
            assert_eq!(f.msg_created, 100);
        }
        assert!(n.is_drained());
        assert_eq!(n.flits_injected(), 5);
    }

    #[test]
    fn injection_preserves_message_order() {
        let mut arena = FlitArena::new();
        let mut n = nic(PacketizationPolicy::regular_l4());
        n.offer(&mut arena, NodeId(0), FlowId(0), 2, 0);
        n.offer(&mut arena, NodeId(1), FlowId(1), 2, 0);
        let first: Vec<FlitId> = (0..2).map(|_| n.inject(&mut arena, 1).unwrap()).collect();
        let second: Vec<FlitId> = (0..2).map(|_| n.inject(&mut arena, 2).unwrap()).collect();
        assert!(first.iter().all(|&id| arena.get(id).dst == NodeId(0)));
        assert!(second.iter().all(|&id| arena.get(id).dst == NodeId(1)));
        assert_eq!(n.pending_messages(), 0);
    }

    #[test]
    fn pending_message_count_tracks_partial_injection() {
        let mut arena = FlitArena::new();
        let mut n = nic(PacketizationPolicy::regular_l4());
        n.offer(&mut arena, NodeId(0), FlowId(0), 4, 0);
        assert_eq!(n.pending_messages(), 1);
        n.inject(&mut arena, 1);
        n.inject(&mut arena, 2);
        assert_eq!(n.pending_messages(), 1);
        n.inject(&mut arena, 3);
        n.inject(&mut arena, 4);
        assert_eq!(n.pending_messages(), 0);
        assert_eq!(n.messages_offered(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_size_message_panics() {
        let mut arena = FlitArena::new();
        let mut n = nic(PacketizationPolicy::Wap);
        n.offer(&mut arena, NodeId(0), FlowId(0), 0, 0);
    }
}
