//! The in-order core model: executes a memory-access trace, stalling on every
//! memory transaction until its response returns.

use wnoc_core::{Cycle, NodeId};

use crate::trace::Trace;
use crate::transaction::AccessKind;

/// Execution state of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreState {
    /// Executing instructions locally for the given remaining cycles.
    Computing {
        /// Cycles of computation left in the current trace event.
        remaining: u64,
    },
    /// A memory access is ready to be issued to the NoC.
    ReadyToIssue {
        /// The access to issue.
        access: AccessKind,
    },
    /// Stalled, waiting for an outstanding memory transaction.
    WaitingMemory,
    /// The trace has been fully executed.
    Finished,
}

/// Statistics accumulated by a core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles spent computing.
    pub compute_cycles: u64,
    /// Cycles spent stalled on memory.
    pub stall_cycles: u64,
    /// Loads issued.
    pub loads: u64,
    /// Evictions issued.
    pub evictions: u64,
}

/// An in-order core executing a [`Trace`].
#[derive(Debug, Clone)]
pub struct Core {
    node: NodeId,
    trace: Trace,
    position: usize,
    state: CoreState,
    stats: CoreStats,
    finished_at: Option<Cycle>,
}

impl Core {
    /// Creates a core at `node` that will execute `trace`.
    pub fn new(node: NodeId, trace: Trace) -> Self {
        let state = Self::state_for(&trace, 0);
        Self {
            node,
            trace,
            position: 0,
            state,
            stats: CoreStats::default(),
            finished_at: None,
        }
    }

    fn state_for(trace: &Trace, position: usize) -> CoreState {
        match trace.events().get(position) {
            None => CoreState::Finished,
            Some(event) if event.compute_cycles > 0 => CoreState::Computing {
                remaining: event.compute_cycles,
            },
            Some(event) => match event.access {
                Some(access) => CoreState::ReadyToIssue { access },
                None => CoreState::Finished, // zero-compute, no access: skip handled in tick
            },
        }
    }

    /// The node this core sits on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current execution state.
    pub fn state(&self) -> CoreState {
        self.state
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Returns `true` once the whole trace has been executed.
    pub fn is_finished(&self) -> bool {
        matches!(self.state, CoreState::Finished)
    }

    /// Cycle at which the core finished, if it has.
    pub fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    fn advance_event(&mut self) {
        self.position += 1;
        self.state = Self::state_for(&self.trace, self.position);
        // Skip degenerate zero-compute, no-access events.
        while matches!(self.state, CoreState::Finished) && self.position < self.trace.len() {
            self.position += 1;
            self.state = Self::state_for(&self.trace, self.position);
        }
    }

    /// Advances the core by one cycle.  Returns the memory access the core
    /// wants to issue this cycle, if any; the caller (the system) is then
    /// responsible for issuing the NoC transaction and later calling
    /// [`Core::complete_memory`].
    pub fn tick(&mut self, now: Cycle) -> Option<AccessKind> {
        match self.state {
            CoreState::Finished => None,
            CoreState::WaitingMemory => {
                self.stats.stall_cycles += 1;
                None
            }
            CoreState::Computing { remaining } => {
                self.stats.compute_cycles += 1;
                let remaining = remaining - 1;
                if remaining > 0 {
                    self.state = CoreState::Computing { remaining };
                    return None;
                }
                // Computation finished: issue the access (if any) next state.
                match self.trace.events()[self.position].access {
                    Some(access) => {
                        self.state = CoreState::ReadyToIssue { access };
                        None
                    }
                    None => {
                        self.advance_event();
                        if self.is_finished() && self.finished_at.is_none() {
                            self.finished_at = Some(now);
                        }
                        None
                    }
                }
            }
            CoreState::ReadyToIssue { access } => {
                self.stats.stall_cycles += 1;
                match access {
                    AccessKind::Load => self.stats.loads += 1,
                    AccessKind::Eviction => self.stats.evictions += 1,
                }
                self.state = CoreState::WaitingMemory;
                Some(access)
            }
        }
    }

    /// Signals that the outstanding memory transaction completed; the core
    /// resumes with the next trace event.
    ///
    /// # Panics
    ///
    /// Panics if the core was not waiting for memory (protocol error in the
    /// caller).
    pub fn complete_memory(&mut self, now: Cycle) {
        assert!(
            matches!(self.state, CoreState::WaitingMemory),
            "complete_memory called on a core that was not waiting"
        );
        self.advance_event();
        if self.is_finished() && self.finished_at.is_none() {
            self.finished_at = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    #[test]
    fn compute_only_trace_finishes_without_accesses() {
        let mut core = Core::new(NodeId(1), Trace::from_events(vec![TraceEvent::compute(3)]));
        for now in 1..=3 {
            assert_eq!(core.tick(now), None);
        }
        assert!(core.is_finished());
        assert_eq!(core.finished_at(), Some(3));
        assert_eq!(core.stats().compute_cycles, 3);
        assert_eq!(core.stats().loads, 0);
    }

    #[test]
    fn load_blocks_until_completion() {
        let trace = Trace::from_events(vec![TraceEvent::load_after(2), TraceEvent::compute(1)]);
        let mut core = Core::new(NodeId(0), trace);
        assert_eq!(core.tick(1), None);
        assert_eq!(core.tick(2), None);
        // Computation done: the access is issued on the next tick.
        assert_eq!(core.tick(3), Some(AccessKind::Load));
        // Stalls while waiting.
        assert_eq!(core.tick(4), None);
        assert_eq!(core.tick(5), None);
        assert!(matches!(core.state(), CoreState::WaitingMemory));
        core.complete_memory(6);
        assert_eq!(core.tick(7), None);
        assert!(core.is_finished());
        assert_eq!(core.stats().loads, 1);
        assert!(core.stats().stall_cycles >= 3);
    }

    #[test]
    fn zero_compute_access_issues_immediately() {
        let trace = Trace::from_events(vec![TraceEvent {
            compute_cycles: 0,
            access: Some(AccessKind::Eviction),
        }]);
        let mut core = Core::new(NodeId(0), trace);
        assert_eq!(core.tick(1), Some(AccessKind::Eviction));
        core.complete_memory(5);
        assert!(core.is_finished());
        assert_eq!(core.finished_at(), Some(5));
        assert_eq!(core.stats().evictions, 1);
    }

    #[test]
    fn empty_trace_is_immediately_finished() {
        let core = Core::new(NodeId(0), Trace::new());
        assert!(core.is_finished());
    }

    #[test]
    #[should_panic(expected = "not waiting")]
    fn completing_when_not_waiting_panics() {
        let mut core = Core::new(NodeId(0), Trace::from_events(vec![TraceEvent::compute(5)]));
        core.complete_memory(1);
    }

    #[test]
    fn multiple_accesses_in_order() {
        let trace = Trace::from_events(vec![
            TraceEvent::load_after(1),
            TraceEvent::eviction_after(1),
            TraceEvent::load_after(1),
        ]);
        let mut core = Core::new(NodeId(0), trace);
        let mut issued = Vec::new();
        let mut now = 0;
        while !core.is_finished() && now < 100 {
            now += 1;
            if let Some(access) = core.tick(now) {
                issued.push(access);
                core.complete_memory(now);
            }
        }
        assert_eq!(
            issued,
            vec![AccessKind::Load, AccessKind::Eviction, AccessKind::Load]
        );
        assert!(core.is_finished());
    }
}
