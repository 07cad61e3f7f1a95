//! The measurement loop every workload shares, and the metrics it reports.

use std::time::{Duration, Instant};

use crate::stats::{median, percentile};
use crate::trace::{Probe, Tracer, NO_UNIT};

/// Units each workload runs untimed before the first timed rep.
pub const WARM_UP_UNITS: usize = 20;

/// Timed reps an untraced run makes at least, so each unit's fastest time
/// has three chances to fall outside a slow phase of the host.
pub const MIN_REPS: usize = 3;

/// The per-layer metrics, measured on traced reps.  A `<span>_s` metric is
/// the summed self time of the spans named `<span>`; a metric in units of
/// `count`, `cycles`, `B` or `ratio` repeats exactly for a given seed.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("sim.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.cycles", "cycles"),
    ("sim.cycles_per_sec", "1/s"),
    ("sim.ns_per_flit", "ns"),
    ("sim.messages_delivered", "count"),
    ("sim.flits_delivered", "count"),
    ("sim.fast_forwards", "count"),
    ("sim.fast_forward_ratio", "ratio"),
    ("analysis.suite_build_s", "s"),
    ("analysis.query_s", "s"),
    ("analysis.queries", "count"),
    ("analysis.ns_per_query", "ns"),
    ("analysis.engine_build_s", "s"),
    ("analysis.apply_s", "s"),
    ("analysis.mutations", "count"),
    ("analysis.ns_per_mutation", "ns"),
    ("analysis.engine_query_s", "s"),
    ("analysis.engine_queries", "count"),
    ("analysis.ns_per_engine_query", "ns"),
    ("conformance.sample_s", "s"),
    ("conformance.flowset_s", "s"),
    ("conformance.flowset_hit_ratio", "ratio"),
    ("conformance.self_s", "s"),
    ("conformance.codec_encode_s", "s"),
    ("conformance.codec_decode_s", "s"),
    ("conformance.codec_bytes", "B"),
    ("conformance.merge_s", "s"),
    ("conformance.violating_scenarios", "count"),
    ("conformance.tightness_mean", "ratio"),
    ("bench.self_s", "s"),
    ("bench.accept_ratio", "ratio"),
    ("bench.best_wctt_cycles", "cycles"),
    ("trace.overhead", "%"),
];

/// One workload as the measurement loop drives it.  Every rep runs the same
/// units on freshly set-up state.
pub trait Workload {
    /// Units (scenarios or candidates) per rep.
    fn units(&self) -> usize;
    /// Prepares the state one rep consumes; timed as `setup_s`.
    fn setup(&mut self, tracer: Option<&mut Tracer>) -> Result<(), String>;
    /// Runs the first `units` units of the set-up state, untimed.
    fn warm_up(&mut self, units: usize) -> Result<(), String>;
    /// Runs every unit once, pushing each unit's duration in nanoseconds.
    fn rep(&mut self, tracer: Option<&mut Tracer>, unit_ns: &mut Vec<f64>);
    /// Checks the outputs of the rep that just ran.
    fn check(&mut self, tracer: Option<&mut Tracer>) -> Verdict;
}

/// The outcome of one rep's output checks.
#[derive(Debug)]
pub struct Verdict {
    /// Units whose operation returned an error.
    pub failed: u64,
    /// Digest of the rep's deterministic output, when it produces one; it
    /// must be the same in every rep.
    pub digest: Option<u64>,
    /// Output checks that failed, each naming what diverged.
    pub problems: Vec<String>,
}

/// A metric as reported: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one run measured.
#[derive(Debug)]
pub struct Measurement {
    pub units: usize,
    pub reps: usize,
    pub traced_reps: usize,
    pub attempted: u64,
    pub failed: u64,
    pub digest: Option<u64>,
    pub problems: Vec<String>,
    /// p99 of the per-unit latencies.  Reported but not bounded: on the
    /// campaigns it is the cost of a handful of the largest platforms and
    /// moves with the seed by more than any usable bound.
    pub unit_p99_us: f64,
    /// Wall time of the fastest timed rep.
    pub fastest_rep_s: f64,
    /// The end-to-end metrics for an untraced run, [`PER_LAYER`] for a
    /// traced one.
    pub metrics: Vec<Metric>,
    /// The spans of the fastest traced rep, as JSON lines.
    pub trace_jsonl: Option<String>,
}

impl Measurement {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Runs `workload` for about `seconds`: set-up and warm-up, then whole reps
/// until the next would end past the deadline.  An untraced run makes at
/// least [`MIN_REPS`] timed reps; a traced run alternates timed and traced
/// reps, at least one of each, and reports the per-layer split of its
/// fastest traced rep.
///
/// Timings keep each unit's fastest rep.  On a shared host, neighbours slow
/// this process by up to 1.7× in phases of one to twenty seconds, and such
/// noise only ever adds time: the minimum over reps spread across the run
/// is the estimate a slow phase disturbs least.
pub fn measure(
    workload: &mut dyn Workload,
    seconds: f64,
    trace: bool,
) -> Result<Measurement, String> {
    workload.setup(None)?;
    workload.warm_up(WARM_UP_UNITS)?;
    let units = workload.units();
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut fastest = vec![f64::INFINITY; units];
    let mut unit_ns = Vec::with_capacity(units);
    let mut setups = Vec::new();
    let mut reps = 0;
    let mut fastest_rep = f64::INFINITY;
    let mut traced_reps = 0;
    let mut fastest_traced: Option<(f64, Tracer)> = None;
    let mut failed = 0;
    let mut digest = None;
    let mut problems = Vec::new();
    loop {
        let cycle = Instant::now();
        unit_ns.clear();
        let verdict = if trace && reps > traced_reps {
            let mut tracer = Tracer::default();
            tracer.enter("bench.setup", NO_UNIT);
            let setup = workload.setup(Some(&mut tracer));
            tracer.exit();
            setup?;
            let start = Instant::now();
            tracer.enter("bench.rep", NO_UNIT);
            workload.rep(Some(&mut tracer), &mut unit_ns);
            tracer.exit();
            let wall = start.elapsed().as_secs_f64();
            let verdict = workload.check(Some(&mut tracer));
            traced_reps += 1;
            if fastest_traced
                .as_ref()
                .map_or(true, |(best, _)| wall < *best)
            {
                fastest_traced = Some((wall, tracer));
            }
            verdict
        } else {
            let start = Instant::now();
            workload.setup(None)?;
            setups.push(start.elapsed().as_secs_f64());
            let start = Instant::now();
            workload.rep(None, &mut unit_ns);
            fastest_rep = fastest_rep.min(start.elapsed().as_secs_f64());
            reps += 1;
            for (best, &ns) in fastest.iter_mut().zip(&unit_ns) {
                *best = best.min(ns);
            }
            workload.check(None)
        };
        if unit_ns.len() != units {
            return Err(format!("a rep ran {} of its {units} units", unit_ns.len()));
        }
        failed += verdict.failed;
        match (digest, verdict.digest) {
            (None, Some(new)) => digest = Some(new),
            (Some(first), Some(new)) if first != new => problems.push(format!(
                "rep {} output digest {new:016x} differs from the first rep's {first:016x}",
                reps + traced_reps
            )),
            _ => {}
        }
        problems.extend(verdict.problems);

        let enough = reps >= if trace { 1 } else { MIN_REPS } && traced_reps >= usize::from(trace);
        if enough && started.elapsed() + cycle.elapsed() > deadline {
            break;
        }
    }

    fastest.sort_by(f64::total_cmp);
    let unit_p99_us = percentile(&fastest, 99.0) / 1e3;
    let (metrics, trace_jsonl) = match fastest_traced {
        Some((wall, tracer)) => {
            let metrics = PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let value = if name == "trace.overhead" {
                        100.0 * (wall / fastest_rep - 1.0)
                    } else {
                        layer_value(&tracer, name)
                    };
                    (name, value, unit)
                })
                .collect();
            (metrics, Some(tracer.render_jsonl()))
        }
        // The end-to-end metrics.  A unit is a scenario on the campaign
        // workloads and a candidate on `dse-banked`.
        None => {
            let metrics = vec![
                (
                    "units_per_sec",
                    units as f64 / (fastest.iter().sum::<f64>() * 1e-9),
                    "1/s",
                ),
                ("unit_p50_us", percentile(&fastest, 50.0) / 1e3, "us"),
                ("setup_s", median(&setups), "s"),
                ("peak_rss_kb", peak_rss_kb(), "kB"),
            ];
            (metrics, None)
        }
    };
    Ok(Measurement {
        units,
        reps,
        traced_reps,
        attempted: ((reps + traced_reps) * units) as u64,
        failed,
        digest,
        problems,
        unit_p99_us,
        fastest_rep_s: fastest_rep,
        metrics,
        trace_jsonl,
    })
}

/// A per-layer metric's value in one traced rep.
fn layer_value(t: &Tracer, name: &str) -> f64 {
    let ratio = |numerator: f64, denominator: f64| {
        if denominator > 0.0 {
            numerator / denominator
        } else {
            0.0
        }
    };
    match name {
        "sim.cycles_per_sec" => ratio(t.counter("sim.cycles"), t.self_seconds("sim.run")),
        "sim.ns_per_flit" => ratio(
            t.self_seconds("sim.run") * 1e9,
            t.counter("sim.flits_delivered"),
        ),
        "sim.fast_forward_ratio" => ratio(
            t.counter("sim.fast_forwards"),
            t.counter("sim.messages_delivered"),
        ),
        "analysis.ns_per_query" => ratio(
            t.self_seconds("analysis.query") * 1e9,
            t.counter("analysis.queries"),
        ),
        "analysis.ns_per_mutation" => ratio(
            t.self_seconds("analysis.apply") * 1e9,
            t.counter("analysis.mutations"),
        ),
        "analysis.ns_per_engine_query" => ratio(
            t.self_seconds("analysis.engine_query") * 1e9,
            t.counter("analysis.engine_queries"),
        ),
        "conformance.flowset_hit_ratio" => ratio(
            t.counter("conformance.flowset_hits"),
            t.counter("conformance.flowset_lookups"),
        ),
        "conformance.self_s" => t.self_seconds("conformance.scenario"),
        "bench.self_s" => {
            t.self_seconds("bench.setup")
                + t.self_seconds("bench.rep")
                + t.self_seconds("bench.candidate")
        }
        "bench.accept_ratio" => ratio(t.counter("bench.accepted"), t.counter("bench.candidates")),
        _ => match name.strip_suffix("_s") {
            Some(span) => t.self_seconds(span),
            None => t.counter(name),
        },
    }
}

/// Peak resident set size of this process in kB (`VmHWM`), 0 where procfs
/// is unavailable.
fn peak_rss_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}
