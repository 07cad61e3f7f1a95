//! Memory controller model: serves requests arriving over the NoC with a fixed
//! DRAM latency and a single service port.

use std::collections::VecDeque;

use wnoc_core::{Cycle, NodeId};

use crate::transaction::{Transaction, TransactionId};

/// A response ready to be sent back over the NoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyResponse {
    /// The transaction being answered.
    pub transaction: TransactionId,
    /// The core that issued the request.
    pub core: NodeId,
    /// Size of the response message in regular-packetization flits.
    pub response_flits: u32,
}

/// A simple memory controller: FIFO request queue, one request in service at a
/// time, fixed service latency.
#[derive(Debug, Clone)]
pub struct MemoryController {
    node: NodeId,
    service_cycles: u64,
    queue: VecDeque<Transaction>,
    in_service: Option<(Transaction, Cycle)>,
    served: u64,
    busy_cycles: u64,
}

impl MemoryController {
    /// Creates a controller attached to `node` with the given per-request
    /// service latency in cycles.
    pub fn new(node: NodeId, service_cycles: u64) -> Self {
        Self {
            node,
            service_cycles: service_cycles.max(1),
            queue: VecDeque::new(),
            in_service: None,
            served: 0,
            busy_cycles: 0,
        }
    }

    /// The node the controller is attached to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The configured service latency.
    pub fn service_cycles(&self) -> u64 {
        self.service_cycles
    }

    /// Requests currently queued (not yet in service).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Total requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Cycles during which the controller was actively serving a request.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Returns `true` when no request is queued or in service.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.in_service.is_none()
    }

    /// Enqueues a request that arrived over the NoC.
    pub fn enqueue(&mut self, transaction: Transaction) {
        self.queue.push_back(transaction);
    }

    /// Advances the controller by one cycle; returns the response that
    /// completed this cycle, if any.
    pub fn tick(&mut self, now: Cycle) -> Option<ReadyResponse> {
        if self.in_service.is_none() {
            if let Some(next) = self.queue.pop_front() {
                self.in_service = Some((next, now + self.service_cycles));
            }
        }
        let (transaction, done_at) = self.in_service?;
        self.busy_cycles += 1;
        if now >= done_at {
            self.in_service = None;
            self.served += 1;
            Some(ReadyResponse {
                transaction: transaction.id,
                core: transaction.core,
                response_flits: transaction.sizes().response_flits,
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::AccessKind;

    fn txn(id: u64, kind: AccessKind) -> Transaction {
        Transaction {
            id: TransactionId(id),
            core: NodeId(9),
            memory: NodeId(0),
            kind,
            issued: 0,
        }
    }

    #[test]
    fn serves_after_fixed_latency() {
        let mut mc = MemoryController::new(NodeId(0), 3);
        mc.enqueue(txn(1, AccessKind::Load));
        // Service starts at cycle 1, completes at cycle 1 + 3.
        assert!(mc.tick(1).is_none());
        assert!(mc.tick(2).is_none());
        assert!(mc.tick(3).is_none());
        let resp = mc.tick(4).unwrap();
        assert_eq!(resp.transaction, TransactionId(1));
        assert_eq!(resp.response_flits, 4);
        assert!(mc.is_idle());
        assert_eq!(mc.served(), 1);
    }

    #[test]
    fn requests_are_served_in_order() {
        let mut mc = MemoryController::new(NodeId(0), 1);
        mc.enqueue(txn(1, AccessKind::Load));
        mc.enqueue(txn(2, AccessKind::Eviction));
        let mut responses = Vec::new();
        for now in 1..10 {
            if let Some(r) = mc.tick(now) {
                responses.push(r);
            }
            if responses.len() == 2 {
                break;
            }
        }
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].transaction, TransactionId(1));
        assert_eq!(responses[1].transaction, TransactionId(2));
        // Eviction acknowledgements are single-flit.
        assert_eq!(responses[1].response_flits, 1);
    }

    #[test]
    fn queue_depth_reported() {
        let mut mc = MemoryController::new(NodeId(0), 10);
        assert!(mc.is_idle());
        for i in 0..5 {
            mc.enqueue(txn(i, AccessKind::Load));
        }
        assert_eq!(mc.queued(), 5);
        mc.tick(1);
        assert_eq!(mc.queued(), 4);
        assert!(!mc.is_idle());
        assert!(mc.busy_cycles() > 0);
    }

    #[test]
    fn zero_service_latency_clamped() {
        let mc = MemoryController::new(NodeId(0), 0);
        assert_eq!(mc.service_cycles(), 1);
    }
}
