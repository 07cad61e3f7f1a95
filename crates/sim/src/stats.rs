//! Simulation statistics: per-flow latency distributions, throughput and link
//! utilisation.

use std::collections::{BTreeMap, HashMap};

use wnoc_core::{Cycle, FlowId};

/// Running summary of a latency distribution (count, sum, min, max).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (for the mean).
    pub sum: u64,
    /// Smallest sample, `u64::MAX` when empty.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl Default for LatencyStats {
    /// Same as [`LatencyStats::new`]: `min` starts at `u64::MAX`, not 0, so
    /// the first recorded sample always wins.
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyStats {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Reconstructs a summary from its four raw fields, validating the merge
    /// algebra's invariants — the safe deserialization entry point for
    /// checkpointed aggregates (the conformance fleet runner's partial
    /// reports round-trip stats through files and must reject hand-edited or
    /// truncated values rather than merge them).
    ///
    /// Returns `None` unless the fields describe a summary that
    /// [`LatencyStats::record`]/[`LatencyStats::merge`] could actually have
    /// produced: an empty summary must equal [`LatencyStats::new`] exactly,
    /// and a non-empty one must satisfy `min <= max <= sum`.
    pub fn from_parts(count: u64, sum: u64, min: u64, max: u64) -> Option<Self> {
        let stats = Self {
            count,
            sum,
            min,
            max,
        };
        let valid = if count == 0 {
            stats == Self::new()
        } else {
            min <= max && max <= sum
        };
        valid.then_some(stats)
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(latency);
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
    }

    /// Mean latency, or 0.0 when no samples were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges another summary into this one.  Counts and sums saturate, so
    /// decoded summaries ([`LatencyStats::from_parts`]) merge without
    /// overflow.
    pub fn merge(&mut self, other: &LatencyStats) {
        if other.count == 0 {
            return;
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Aggregated statistics of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    /// Number of simulated cycles.
    pub cycles: Cycle,
    /// Messages handed to source NICs.
    pub messages_offered: u64,
    /// Messages fully delivered to their destination NIC.
    pub messages_delivered: u64,
    /// Packets injected into the router network.
    pub packets_injected: u64,
    /// Packets fully received at their destination.
    pub packets_delivered: u64,
    /// Flits injected into the router network.
    pub flits_injected: u64,
    /// Flits delivered (ejected) at destinations.
    pub flits_delivered: u64,
    /// End-to-end message latency (creation to last flit delivery) per flow.
    pub message_latency: HashMap<FlowId, LatencyStats>,
    /// Network traversal latency (injection of first flit to delivery of last
    /// flit) per flow.
    pub traversal_latency: HashMap<FlowId, LatencyStats>,
    /// Messages NACKed by a fault epoch flush and re-queued for
    /// retransmission.  This and the other fault counters stay zero (and
    /// the map empty) in a fault-free run.
    pub messages_retransmitted: u64,
    /// Messages dropped as undeliverable: their endpoint pair was severed by
    /// the active fault set, or their retry budget was exhausted.
    pub messages_undeliverable: u64,
    /// Flits purged from router rings, link pipelines and NIC queues by
    /// fault epoch flushes.
    pub flits_purged: u64,
    /// Retransmissions per flow (ordered map: deterministic iteration).
    pub retransmits_by_flow: BTreeMap<FlowId, u64>,
}

impl NetworkStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a delivered message's end-to-end and traversal latencies.
    pub fn record_message(&mut self, flow: FlowId, end_to_end: u64, traversal: u64) {
        self.messages_delivered += 1;
        self.message_latency
            .entry(flow)
            .or_default()
            .record(end_to_end);
        self.traversal_latency
            .entry(flow)
            .or_default()
            .record(traversal);
    }

    /// Aggregate message-latency summary across all flows.
    pub fn overall_message_latency(&self) -> LatencyStats {
        let mut all = LatencyStats::new();
        for stats in self.message_latency.values() {
            all.merge(stats);
        }
        all
    }

    /// Aggregate traversal-latency summary across all flows.
    pub fn overall_traversal_latency(&self) -> LatencyStats {
        let mut all = LatencyStats::new();
        for stats in self.traversal_latency.values() {
            all.merge(stats);
        }
        all
    }

    /// Message latency summary of one flow, if any message of it was delivered.
    pub fn flow_message_latency(&self, flow: FlowId) -> Option<&LatencyStats> {
        self.message_latency.get(&flow)
    }

    /// Traversal latency summary of one flow.
    pub fn flow_traversal_latency(&self, flow: FlowId) -> Option<&LatencyStats> {
        self.traversal_latency.get(&flow)
    }

    /// Accepted throughput in flits per cycle.
    pub fn delivered_throughput(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flits_delivered as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_basic() {
        let mut s = LatencyStats::new();
        assert!(s.is_empty());
        s.record(10);
        s.record(20);
        s.record(5);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 20);
        assert!((s.mean() - 35.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn latency_stats_merge() {
        let mut a = LatencyStats::new();
        a.record(10);
        let mut b = LatencyStats::new();
        b.record(30);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 2);
        assert_eq!(a.max, 30);
        let empty = LatencyStats::new();
        a.merge(&empty);
        assert_eq!(a.count, 3);
    }

    #[test]
    fn merge_saturates_the_count() {
        let huge = LatencyStats::from_parts(u64::MAX, u64::MAX, 1, 9).unwrap();
        let mut total = huge;
        total.merge(&huge);
        assert_eq!(total, huge);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        // The parallel campaign runner folds per-scenario summaries in
        // whatever order workers finish; the fold must not care.
        let samples: [&[u64]; 4] = [&[3, 9], &[], &[100], &[7, 7, 2]];
        let stats: Vec<LatencyStats> = samples
            .iter()
            .map(|s| {
                let mut l = LatencyStats::new();
                for &v in *s {
                    l.record(v);
                }
                l
            })
            .collect();

        // Commutativity: a ⊕ b == b ⊕ a, for every pair.
        for a in &stats {
            for b in &stats {
                let mut ab = *a;
                ab.merge(b);
                let mut ba = *b;
                ba.merge(a);
                assert_eq!(ab, ba);
            }
        }

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), for every triple.
        for a in &stats {
            for b in &stats {
                for c in &stats {
                    let mut left = *a;
                    left.merge(b);
                    left.merge(c);
                    let mut bc = *b;
                    bc.merge(c);
                    let mut right = *a;
                    right.merge(&bc);
                    assert_eq!(left, right);
                }
            }
        }

        // The empty summary is the identity element.
        let empty = LatencyStats::new();
        for a in &stats {
            let mut merged = empty;
            merged.merge(a);
            assert_eq!(&merged, a);
        }
    }

    #[test]
    fn from_parts_accepts_exactly_the_reachable_summaries() {
        // Round trip: anything record/merge built is accepted verbatim.
        let mut recorded = LatencyStats::new();
        recorded.record(5);
        recorded.record(9);
        assert_eq!(
            LatencyStats::from_parts(recorded.count, recorded.sum, recorded.min, recorded.max),
            Some(recorded)
        );
        let empty = LatencyStats::new();
        assert_eq!(
            LatencyStats::from_parts(empty.count, empty.sum, empty.min, empty.max),
            Some(empty)
        );
        // All-zero samples are a legal distribution.
        assert!(LatencyStats::from_parts(3, 0, 0, 0).is_some());

        // Rejected: an "empty" summary whose min/max were tampered with
        // would corrupt every later merge (min 0 would win over any sample).
        assert!(LatencyStats::from_parts(0, 0, 0, 0).is_none());
        assert!(LatencyStats::from_parts(0, 1, u64::MAX, 0).is_none());
        // Rejected: inverted extremes or a sum below the max.
        assert!(LatencyStats::from_parts(2, 14, 9, 5).is_none());
        assert!(LatencyStats::from_parts(2, 3, 1, 9).is_none());
    }

    #[test]
    fn network_stats_records_per_flow() {
        let mut stats = NetworkStats::new();
        stats.record_message(FlowId(0), 100, 80);
        stats.record_message(FlowId(0), 60, 50);
        stats.record_message(FlowId(1), 10, 8);
        assert_eq!(stats.messages_delivered, 3);
        assert_eq!(stats.flow_message_latency(FlowId(0)).unwrap().max, 100);
        assert_eq!(stats.flow_traversal_latency(FlowId(1)).unwrap().max, 8);
        let overall = stats.overall_message_latency();
        assert_eq!(overall.count, 3);
        assert_eq!(overall.min, 10);
    }

    #[test]
    fn throughput_tracks_delivered_flits() {
        let mut stats = NetworkStats::new();
        stats.cycles = 100;
        stats.flits_delivered = 50;
        assert!((stats.delivered_throughput() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let s = LatencyStats::new();
        assert_eq!(s.mean(), 0.0);
        let n = NetworkStats::new();
        assert_eq!(n.delivered_throughput(), 0.0);
    }
}
