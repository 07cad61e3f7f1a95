//! The flit arena: one contiguous slab owning every in-flight flit.
//!
//! The execution kernel never moves [`Flit`] values around the network.
//! Flits are allocated into the arena when a NIC packetizes a message and
//! freed when they are ejected at their destination; in between, every queue
//! in the system — router input buffers and NIC injection queues — holds
//! 4-byte [`FlitId`] handles instead of 64-byte flit structs.
//!
//! Slots are recycled through an internal free list, so after a warm-up
//! period in which the slab grows to the peak number of concurrently live
//! flits, allocation and release are pointer-bump operations on preallocated
//! memory: the steady-state simulation loop performs **zero heap
//! allocations** (enforced by the `zero_alloc` integration test with a
//! counting global allocator).

use wnoc_core::Flit;

/// Handle to a flit stored in a [`FlitArena`].
///
/// Handles are plain indices: they are `Copy`, 4 bytes, and only meaningful
/// for the arena that issued them.  A slot is reused after its flit is
/// [freed](FlitArena::free), so a stale handle (kept across `free`) may
/// observe an unrelated flit — queues in the simulator hold each handle in
/// exactly one place, which rules this out by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlitId(u32);

impl FlitId {
    /// The arena slot index behind this handle.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A slab allocator for [`Flit`]s with index handles and a free list.
#[derive(Debug, Default)]
pub struct FlitArena {
    slots: Vec<Flit>,
    free: Vec<u32>,
}

impl FlitArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an arena with room for `capacity` flits before it regrows.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
        }
    }

    /// Number of live (allocated and not yet freed) flits.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Returns `true` when no flit is live.
    pub fn is_empty(&self) -> bool {
        self.live() == 0
    }

    /// Total slots owned by the arena (the high-water mark of live flits).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Stores `flit` and returns its handle, reusing a freed slot when one is
    /// available.
    pub fn alloc(&mut self, flit: Flit) -> FlitId {
        if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = flit;
            return FlitId(slot);
        }
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 live flits");
        self.slots.push(flit);
        FlitId(slot)
    }

    /// The flit behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds (a handle from another arena).
    pub fn get(&self, id: FlitId) -> &Flit {
        &self.slots[id.index()]
    }

    /// Mutable access to the flit behind `id` (the NIC stamps injection
    /// cycles in place).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn get_mut(&mut self, id: FlitId) -> &mut Flit {
        &mut self.slots[id.index()]
    }

    /// Releases the slot behind `id` for reuse.
    ///
    /// The caller must hold the only copy of the handle; the slot's contents
    /// stay untouched until the next [`FlitArena::alloc`] reuses it.
    pub fn free(&mut self, id: FlitId) {
        debug_assert!(
            !self.free.contains(&(id.index() as u32)),
            "double free of flit slot {}",
            id.index()
        );
        self.free.push(id.index() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnoc_core::{FlitKind, FlowId, MessageId, NodeId, PacketId};

    fn flit(seq: u32) -> Flit {
        Flit {
            packet: PacketId(1),
            message: MessageId(1),
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            kind: FlitKind::Body,
            seq,
            msg_created: 0,
            injected: 0,
        }
    }

    #[test]
    fn alloc_get_roundtrip() {
        let mut arena = FlitArena::new();
        let a = arena.alloc(flit(7));
        let b = arena.alloc(flit(9));
        assert_eq!(arena.get(a).seq, 7);
        assert_eq!(arena.get(b).seq, 9);
        assert_eq!(arena.live(), 2);
        assert!(!arena.is_empty());
    }

    #[test]
    fn freed_slots_are_reused_before_growing() {
        let mut arena = FlitArena::new();
        let a = arena.alloc(flit(0));
        let _b = arena.alloc(flit(1));
        arena.free(a);
        assert_eq!(arena.live(), 1);
        let c = arena.alloc(flit(2));
        assert_eq!(c.index(), a.index(), "freed slot must be recycled");
        assert_eq!(arena.capacity(), 2, "slab must not grow past the peak");
        assert_eq!(arena.get(c).seq, 2);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut arena = FlitArena::new();
        let id = arena.alloc(flit(0));
        arena.get_mut(id).injected = 42;
        assert_eq!(arena.get(id).injected, 42);
    }

    #[test]
    fn empty_after_all_freed() {
        let mut arena = FlitArena::with_capacity(4);
        let ids: Vec<FlitId> = (0..4).map(|i| arena.alloc(flit(i))).collect();
        for id in ids {
            arena.free(id);
        }
        assert!(arena.is_empty());
        assert_eq!(arena.capacity(), 4);
    }
}
