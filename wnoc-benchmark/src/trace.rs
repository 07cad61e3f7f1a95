//! Spans and counters recorded around the calls into each layer.
//!
//! A span is named `<layer>.<phase>`; its self time (its duration minus the
//! durations of the spans it directly contains) is added to that name's
//! total when it closes, so the per-layer split needs no stored spans.  The
//! spans themselves are also kept in memory, up to [`SPAN_LOG_CAP`], for the
//! JSON-lines trace file written when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Unit id of spans that belong to no scenario or candidate.
pub const NO_UNIT: u64 = u64::MAX;

/// Spans kept for the trace file, in the order they close (so every kept
/// span's children are kept too).  A DSE rep closes about half a million;
/// the per-layer totals never need the log.
pub const SPAN_LOG_CAP: usize = 100_000;

/// Where instrumented code reports its spans and counts.  [`Off`] compiles
/// to nothing, so one code path serves the timed and the traced reps.
pub trait Probe {
    /// Opens a span nested in the innermost open one.
    fn enter(&mut self, name: &'static str, unit: u64);
    /// Closes the innermost open span.
    fn exit(&mut self);
    /// Adds `amount` to a counter.
    fn add(&mut self, counter: &'static str, amount: f64);

    /// Runs `f` inside a span.
    fn span<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, unit);
        let result = f();
        self.exit();
        result
    }
}

/// The probe of untraced reps.
#[derive(Debug, Default)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _unit: u64) {}
    #[inline(always)]
    fn exit(&mut self) {}
    #[inline(always)]
    fn add(&mut self, _counter: &'static str, _amount: f64) {}
}

/// One closed span, times in nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Span {
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    unit: u64,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u32,
    name: &'static str,
    unit: u64,
    start_ns: u64,
    child_ns: u64,
}

/// The probe of traced reps.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    open: Vec<Open>,
    next_id: u32,
    self_ns: BTreeMap<&'static str, u64>,
    counters: BTreeMap<&'static str, f64>,
    log: Vec<Span>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            open: Vec::new(),
            next_id: 0,
            self_ns: BTreeMap::new(),
            counters: BTreeMap::new(),
            log: Vec::new(),
            dropped: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter_at(&mut self, name: &'static str, unit: u64, start_ns: u64) {
        // Spans opened without a unit belong to the unit of their parent.
        let unit = match self.open.last() {
            Some(parent) if unit == NO_UNIT => parent.unit,
            _ => unit,
        };
        self.open.push(Open {
            id: self.next_id,
            name,
            unit,
            start_ns,
            child_ns: 0,
        });
        self.next_id += 1;
    }

    fn exit_at(&mut self, end_ns: u64) {
        let span = self.open.pop().expect("exit matches an enter");
        let duration = end_ns.saturating_sub(span.start_ns);
        *self.self_ns.entry(span.name).or_default() += duration.saturating_sub(span.child_ns);
        let parent = self.open.last_mut().map(|parent| {
            parent.child_ns += duration;
            parent.id
        });
        if self.log.len() < SPAN_LOG_CAP {
            self.log.push(Span {
                id: span.id,
                parent,
                name: span.name,
                unit: span.unit,
                start_ns: span.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Total self time of every span named `name`, in seconds.
    pub fn self_seconds(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// A counter's value (0 when never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// The kept spans as JSON lines, plus a closing line that counts the
    /// spans beyond the log cap.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.log {
            let parent = span.parent.map_or("null".to_string(), |id| id.to_string());
            let unit = if span.unit == NO_UNIT {
                "null".to_string()
            } else {
                span.unit.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"unit\":{unit},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                span.id, span.name, span.start_ns, span.end_ns
            );
        }
        let _ = writeln!(out, "{{\"spans_not_logged\":{}}}", self.dropped);
        out
    }
}

impl Probe for Tracer {
    fn enter(&mut self, name: &'static str, unit: u64) {
        let now = self.now_ns();
        self.enter_at(name, unit, now);
    }

    fn exit(&mut self) {
        let now = self.now_ns();
        self.exit_at(now);
    }

    fn add(&mut self, counter: &'static str, amount: f64) {
        *self.counters.entry(counter).or_default() += amount;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tracer = Tracer::default();
        tracer.enter_at("bench.rep", NO_UNIT, 0);
        tracer.enter_at("conformance.scenario", 0, 10);
        tracer.enter_at("sim.run", 0, 20);
        tracer.exit_at(70);
        tracer.enter_at("analysis.query", NO_UNIT, 75);
        tracer.exit_at(95);
        tracer.exit_at(100);
        tracer.exit_at(110);

        assert_eq!(tracer.self_ns["sim.run"], 50);
        assert_eq!(tracer.self_ns["analysis.query"], 20);
        assert_eq!(tracer.self_ns["conformance.scenario"], 90 - 50 - 20);
        assert_eq!(tracer.self_ns["bench.rep"], 110 - 90);
        // Self times partition the root span exactly.
        assert_eq!(tracer.self_ns.values().sum::<u64>(), 110);
        let run = tracer.log.iter().find(|s| s.name == "sim.run").unwrap();
        let scenario = tracer
            .log
            .iter()
            .find(|s| s.name == "conformance.scenario")
            .unwrap();
        assert_eq!(run.parent, Some(scenario.id));
        assert_eq!(run.unit, 0);
        let query = tracer
            .log
            .iter()
            .find(|s| s.name == "analysis.query")
            .unwrap();
        assert_eq!(query.unit, 0, "a unit-less child takes its parent's unit");
    }

    #[test]
    fn repeated_names_accumulate_and_counters_add() {
        let mut tracer = Tracer::default();
        for start in [0, 100] {
            tracer.enter_at("analysis.query", 3, start);
            tracer.exit_at(start + 40);
        }
        tracer.add("analysis.queries", 5.0);
        tracer.add("analysis.queries", 2.0);
        assert_eq!(tracer.self_seconds("analysis.query"), 80e-9);
        assert_eq!(tracer.counter("analysis.queries"), 7.0);
        assert_eq!(tracer.counter("sim.cycles"), 0.0);
        let lines = tracer.render_jsonl();
        assert_eq!(lines.lines().count(), 3);
        assert!(
            lines.starts_with("{\"id\":0,\"parent\":null,\"name\":\"analysis.query\",\"unit\":3,")
        );
    }
}
