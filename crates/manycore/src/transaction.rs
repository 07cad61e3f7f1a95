//! Memory transactions exchanged between cores and memory controllers.
//!
//! The paper's 64-core platform issues two kinds of NoC transactions
//! (Section IV):
//!
//! * **loads / write misses**: a one-flit request from the core, answered by a
//!   four-flit cache-line message (512 data bits + 16 control bits over 132-bit
//!   links);
//! * **evictions** (dirty line write-backs): a four-flit request answered by a
//!   one-flit acknowledgement.

use wnoc_core::analysis::ubd::TransactionSizes;
use wnoc_core::{Cycle, NodeId};

/// Identifier of an outstanding transaction, unique per issuing core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TransactionId(pub u64);

impl std::fmt::Display for TransactionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The kind of memory access a core performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Cache-line fill (load miss or write-allocate miss).
    Load,
    /// Dirty cache-line eviction (write-back).
    Eviction,
}

impl AccessKind {
    /// The request/response message sizes of this access kind, in
    /// regular-packetization flits.
    pub fn sizes(&self) -> TransactionSizes {
        match self {
            AccessKind::Load => TransactionSizes::LOAD,
            AccessKind::Eviction => TransactionSizes::EVICTION,
        }
    }

    /// Returns `true` if the core must stall until the response arrives (loads
    /// block the in-order pipeline, evictions are posted but the next miss
    /// waits on them in this model).
    pub fn is_blocking(&self) -> bool {
        true
    }
}

/// A memory transaction in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Unique id (per issuing core).
    pub id: TransactionId,
    /// The core that issued it.
    pub core: NodeId,
    /// The memory controller that serves it.
    pub memory: NodeId,
    /// Access kind (load or eviction).
    pub kind: AccessKind,
    /// Cycle the core issued the request to its NIC.
    pub issued: Cycle,
}

impl Transaction {
    /// The request/response sizes of this transaction.
    pub fn sizes(&self) -> TransactionSizes {
        self.kind.sizes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_sizes_match_paper() {
        assert_eq!(AccessKind::Load.sizes().request_flits, 1);
        assert_eq!(AccessKind::Load.sizes().response_flits, 4);
        assert_eq!(AccessKind::Eviction.sizes().request_flits, 4);
        assert_eq!(AccessKind::Eviction.sizes().response_flits, 1);
    }

    #[test]
    fn transactions_carry_their_sizes() {
        let t = Transaction {
            id: TransactionId(3),
            core: NodeId(5),
            memory: NodeId(0),
            kind: AccessKind::Eviction,
            issued: 100,
        };
        assert_eq!(t.sizes().request_flits, 4);
        assert_eq!(t.id.to_string(), "t3");
    }

    #[test]
    fn accesses_block_the_core() {
        assert!(AccessKind::Load.is_blocking());
        assert!(AccessKind::Eviction.is_blocking());
    }
}
