//! Memory-access traces: the workload representation executed by the core
//! model.
//!
//! A trace is a sequence of [`TraceEvent`]s; each event models a burst of
//! computation (`compute_cycles` without any NoC traffic) optionally followed
//! by one memory access.  This is the level of detail the WCET experiments of
//! the paper require: what matters is how many NoC transactions a benchmark
//! issues and how much computation separates them.

use crate::transaction::AccessKind;

/// One step of a core's execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycles of pure computation before the access.
    pub compute_cycles: u64,
    /// The memory access performed after the computation, if any.
    pub access: Option<AccessKind>,
}

impl TraceEvent {
    /// A compute-only event.
    pub fn compute(cycles: u64) -> Self {
        Self {
            compute_cycles: cycles,
            access: None,
        }
    }

    /// A computation burst followed by a load.
    pub fn load_after(cycles: u64) -> Self {
        Self {
            compute_cycles: cycles,
            access: Some(AccessKind::Load),
        }
    }

    /// A computation burst followed by an eviction.
    pub fn eviction_after(cycles: u64) -> Self {
        Self {
            compute_cycles: cycles,
            access: Some(AccessKind::Eviction),
        }
    }
}

/// A complete execution trace of one core/thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a trace from a list of events.
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        Self { events }
    }

    /// Appends an event.
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// The events of the trace.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` for an empty trace.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total computation cycles (excluding any memory stall).
    pub fn total_compute_cycles(&self) -> u64 {
        self.events.iter().map(|e| e.compute_cycles).sum()
    }

    /// Number of memory accesses of the given kind.
    pub fn access_count(&self, kind: AccessKind) -> u64 {
        self.events
            .iter()
            .filter(|e| e.access == Some(kind))
            .count() as u64
    }

    /// Total number of memory accesses.
    pub fn total_accesses(&self) -> u64 {
        self.events.iter().filter(|e| e.access.is_some()).count() as u64
    }

    /// Concatenates another trace after this one.
    pub fn extend(&mut self, other: &Trace) {
        self.events.extend_from_slice(&other.events);
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEvent>>(iter: T) -> Self {
        Self {
            events: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_accounting() {
        let trace = Trace::from_events(vec![
            TraceEvent::compute(100),
            TraceEvent::load_after(50),
            TraceEvent::eviction_after(20),
            TraceEvent::load_after(30),
        ]);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace.total_compute_cycles(), 200);
        assert_eq!(trace.access_count(AccessKind::Load), 2);
        assert_eq!(trace.access_count(AccessKind::Eviction), 1);
        assert_eq!(trace.total_accesses(), 3);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Trace::from_events(vec![TraceEvent::load_after(10)]);
        let b = Trace::from_events(vec![TraceEvent::compute(5)]);
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.total_compute_cycles(), 15);
    }

    #[test]
    fn from_iterator_and_push() {
        let mut trace: Trace = (0..3).map(|_| TraceEvent::load_after(1)).collect();
        trace.push(TraceEvent::compute(7));
        assert_eq!(trace.len(), 4);
        assert!(!trace.is_empty());
        assert!(Trace::new().is_empty());
    }
}
