//! The campaign workloads.  Timed reps run each scenario through
//! `Scenario::run_with_cache` with one fresh `FlowSetCache` per rep, exactly
//! as `Campaign::run(1)` does.  Traced reps replay `run_with_cache` step by
//! step through the public calls it makes, with a span around each call, and
//! must reproduce every scenario's observations and simulated cycles.

use std::path::Path;
use std::time::Instant;

use wnoc_conformance::fleet::fnv1a;
use wnoc_conformance::{
    partition, Campaign, CampaignDimension, ConformanceReport, DesignChoice, FlowSetCache,
    PartialReport, Scenario, ScenarioOutcome, ShardRange, TrafficChoice,
};
use wnoc_core::analysis::oracle::{
    oracle_suite_with_counts, oracle_suite_with_curve, BufferAwareOracle, GraphBufferAwareOracle,
    WcttBoundModel,
};
use wnoc_core::flow::FlowSet;
use wnoc_core::{ArrivalCurve, Error, FlowId, Mesh};
use wnoc_sim::{LatencyStats, SaturatedReport, Simulation};

use crate::run::{Verdict, Workload};
use crate::trace::{Off, Probe, Tracer, NO_UNIT};

/// One campaign workload: `size` scenarios of `dimension`, drawn from a
/// campaign `pool` times larger.
#[derive(Debug)]
pub struct CampaignBench {
    dimension: CampaignDimension,
    seed: u64,
    size: usize,
    pool: usize,
    scenarios: Vec<Scenario>,
    /// The last timed rep's outcomes (`None` where the scenario errored);
    /// traced reps are checked against them.
    outcomes: Vec<Option<ScenarioOutcome>>,
    /// Output-check failures of the last traced rep.
    mirror_problems: Vec<String>,
    last_traced: bool,
}

impl CampaignBench {
    pub fn new(dimension: CampaignDimension, seed: u64, size: usize, pool: usize) -> Self {
        Self {
            dimension,
            seed,
            size,
            pool,
            scenarios: Vec::new(),
            outcomes: Vec::new(),
            mirror_problems: Vec::new(),
            last_traced: false,
        }
    }

    fn run_plain(&mut self, unit_ns: &mut Vec<f64>) {
        let mut cache = FlowSetCache::new();
        self.outcomes.clear();
        for scenario in &self.scenarios {
            let start = Instant::now();
            let outcome = scenario.run_with_cache(&mut cache);
            unit_ns.push(start.elapsed().as_nanos() as f64);
            self.outcomes.push(match outcome {
                Ok(outcome) => Some(outcome),
                Err(error) => {
                    eprintln!("scenario {} failed: {error}", scenario.label());
                    None
                }
            });
        }
    }

    fn run_traced(&mut self, tracer: &mut Tracer, unit_ns: &mut Vec<f64>) {
        let mut cache = FlowSetCache::new();
        self.mirror_problems.clear();
        for (scenario, reference) in self.scenarios.iter().zip(&self.outcomes) {
            let start = Instant::now();
            tracer.enter("conformance.scenario", scenario.index as u64);
            let replayed = mirror(scenario, &mut cache, tracer);
            tracer.exit();
            unit_ns.push(start.elapsed().as_nanos() as f64);
            let agrees = match (&replayed, reference) {
                (Ok((observed, cycles)), Some(outcome)) => {
                    *observed == outcome.observed && *cycles == outcome.simulated_cycles
                }
                (Err(_), None) => true,
                _ => false,
            };
            if !agrees {
                self.mirror_problems.push(format!(
                    "traced replay of scenario {} diverged from Scenario::run_with_cache",
                    scenario.label()
                ));
            }
        }
    }
}

impl Workload for CampaignBench {
    fn units(&self) -> usize {
        self.size
    }

    fn setup(&mut self, tracer: Option<&mut Tracer>) -> Result<(), String> {
        let scenarios = match tracer {
            Some(tracer) => select(self.dimension, self.seed, self.size, self.pool, tracer),
            None => select(self.dimension, self.seed, self.size, self.pool, &mut Off),
        };
        self.scenarios = scenarios.map_err(|error| format!("campaign set-up failed: {error}"))?;
        Ok(())
    }

    fn warm_up(&mut self, units: usize) -> Result<(), String> {
        let mut cache = FlowSetCache::new();
        for scenario in self.scenarios.iter().take(units) {
            // Errors are counted by the timed reps; warm-up only fills caches.
            let _ = scenario.run_with_cache(&mut cache);
        }
        Ok(())
    }

    fn rep(&mut self, tracer: Option<&mut Tracer>, unit_ns: &mut Vec<f64>) {
        self.last_traced = tracer.is_some();
        match tracer {
            Some(tracer) => self.run_traced(tracer, unit_ns),
            None => self.run_plain(unit_ns),
        }
    }

    fn check(&mut self, tracer: Option<&mut Tracer>) -> Verdict {
        let failed = self.outcomes.iter().filter(|o| o.is_none()).count() as u64;
        let report = ConformanceReport {
            seed: self.seed,
            outcomes: self.outcomes.iter().flatten().cloned().collect(),
        };
        let mut problems = Vec::new();
        if failed == 0 {
            let campaign = Campaign {
                seed: self.seed,
                scenarios: self.size,
                dimension: self.dimension,
            };
            problems = match tracer {
                Some(tracer) => {
                    tracer.add("conformance.tightness_mean", report.tightness().mean);
                    let violating = report.outcomes.iter().filter(|o| !o.passed()).count();
                    tracer.add("conformance.violating_scenarios", violating as f64);
                    fleet_round_trip(&campaign, &report, tracer)
                }
                None => fleet_round_trip(&campaign, &report, &mut Off),
            };
        }
        if self.last_traced {
            // A traced rep produces no outcomes of its own; its check is the
            // replay's agreement with the timed rep.
            problems.append(&mut self.mirror_problems);
            return Verdict {
                failed: 0,
                digest: None,
                problems,
            };
        }
        Verdict {
            failed,
            digest: Some(fnv1a(report.render_json().as_bytes())),
            problems,
        }
    }
}

/// The rep's scenario list.  A campaign's cost is dominated by its few
/// largest platforms, so a plain `size`-scenario campaign's throughput and
/// median latency move with the seed.  Instead `size` scenarios are drawn
/// from a campaign `pool` times larger by systematic sampling over a cost
/// proxy (probing cycles × flows), which keeps the cost mix the same for
/// every seed, and renumbered `0..size` in campaign order so the list is
/// itself a campaign the fleet codec accepts.
fn select(
    dimension: CampaignDimension,
    seed: u64,
    size: usize,
    pool: usize,
    probe: &mut impl Probe,
) -> wnoc_core::Result<Vec<Scenario>> {
    let campaign = Campaign {
        seed,
        scenarios: size * pool,
        dimension,
    };
    let drawn = probe.span("conformance.sample", NO_UNIT, || campaign.generate());
    let mut ranked = Vec::with_capacity(drawn.len());
    for scenario in &drawn {
        let flows = scenario
            .family
            .flow_set(&Mesh::square(scenario.side)?)?
            .len() as u64;
        ranked.push((scenario.cycles * flows, scenario.index));
    }
    ranked.sort_unstable();
    let offset = (seed % pool as u64) as usize;
    let mut picked: Vec<usize> = ranked
        .iter()
        .skip(offset)
        .step_by(pool)
        .map(|&(_, index)| index)
        .collect();
    picked.sort_unstable();
    Ok(picked
        .into_iter()
        .enumerate()
        .map(|(position, index)| Scenario {
            index: position,
            ..drawn[index].clone()
        })
        .collect())
}

/// Round-trips the report through the fleet's checkpoint codec and merges it
/// back from a 2-shard partition; both must reproduce it exactly.
fn fleet_round_trip(
    campaign: &Campaign,
    report: &ConformanceReport,
    probe: &mut impl Probe,
) -> Vec<String> {
    let mut problems = Vec::new();
    let partial = PartialReport {
        campaign: *campaign,
        shard: ShardRange {
            index: 0,
            start: 0,
            end: report.outcomes.len(),
        },
        outcomes: report.outcomes.clone(),
    };
    let text = probe.span("conformance.codec_encode", NO_UNIT, || {
        partial.render_json()
    });
    probe.add("conformance.codec_bytes", text.len() as f64);
    let decoded = probe.span("conformance.codec_decode", NO_UNIT, || {
        PartialReport::parse_json(&text, Path::new("partial.json"))
    });
    match decoded {
        Ok(decoded) if decoded == partial => {}
        Ok(_) => problems.push("the fleet codec round trip changed the report".to_string()),
        Err(error) => problems.push(format!("the fleet codec rejected its own output: {error}")),
    }
    let shards: Vec<ConformanceReport> = partition(report.outcomes.len(), 2)
        .iter()
        .map(|range| ConformanceReport {
            seed: report.seed,
            outcomes: report.outcomes[range.start..range.end].to_vec(),
        })
        .collect();
    let merged = probe.span("conformance.merge", NO_UNIT, || {
        let mut merged = ConformanceReport::empty(report.seed);
        for shard in shards.into_iter().rev() {
            merged.merge(shard);
        }
        merged
    });
    if merged != *report {
        problems.push("the 2-shard merge differs from the single-process report".to_string());
    }
    problems
}

/// `Scenario::run_with_cache` replayed through its public calls, one span
/// per call.  Returns the observations and simulated cycles it must share
/// with the untraced run.
fn mirror(
    scenario: &Scenario,
    cache: &mut FlowSetCache,
    t: &mut Tracer,
) -> wnoc_core::Result<(LatencyStats, u64)> {
    let unit = scenario.index as u64;
    if !scenario.faults.is_none() {
        return Err(Error::InvalidConfig {
            reason: "the traced replay covers healthy scenarios only".to_string(),
        });
    }
    let mesh = Mesh::square(scenario.side)?;
    let cached = cache.len();
    let (flows, counts) = t.span("conformance.flowset", unit, || {
        cache.get_or_build(&mesh, &scenario.family)
    })?;
    t.add("conformance.flowset_lookups", 1.0);
    // A miss inserts an entry (or clears a full memo), so the length moves.
    t.add(
        "conformance.flowset_hits",
        f64::from(u8::from(cache.len() == cached)),
    );
    let config = scenario.design.config();
    let buffers = scenario.buffers.config(&config, &mesh);
    let vcs = scenario.vcs.config();

    let mut sim = t.span("sim.build", unit, || {
        Simulation::with_vcs(mesh, config, &flows, &buffers, vcs)
    })?;
    let curve = scenario.traffic.curve();
    let report = t.span("sim.run", unit, || match curve {
        None => sim.run_closed_loop(&flows, scenario.message_flits, scenario.cycles),
        Some(curve) => {
            let schedule_seed =
                scenario.seed ^ (scenario.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            sim.run_bursty(
                &flows,
                scenario.message_flits,
                &curve,
                scenario.cycles,
                schedule_seed,
            )
        }
    })?;
    let stats = sim.stats();
    let cycles = stats.cycles;
    t.add("sim.cycles", cycles as f64);
    t.add("sim.messages_delivered", stats.messages_delivered as f64);
    t.add("sim.flits_delivered", stats.flits_delivered as f64);
    t.add("sim.fast_forwards", sim.network().fast_forwards() as f64);

    let mut suite = t.span("analysis.suite_build", unit, || match curve {
        None => oracle_suite_with_counts(&flows, &config, mesh, &buffers, vcs, counts),
        Some(curve) => oracle_suite_with_curve(&flows, &config, mesh, &buffers, vcs, counts, curve),
    })?;
    let dominance_checked = suite.iter().any(|oracle| oracle.dominates_observation())
        && match scenario.design {
            DesignChoice::Regular { .. } => true,
            DesignChoice::WawWap => flows.is_output_consistent(),
        };
    let mut queries = 0u64;
    if dominance_checked {
        queries += t.span("analysis.query", unit, || {
            dominance_queries(scenario, &flows, &report, &mut suite)
        });
    }
    queries += t.span("analysis.query", unit, || {
        ordering_queries(scenario, &flows, &mut suite)
    });
    if scenario.design == DesignChoice::WawWap {
        let mut deepened = t.span("analysis.suite_build", unit, || {
            BufferAwareOracle::new(&flows, &config, mesh, buffers.scaled(2))
        });
        queries += t.span("analysis.query", unit, || {
            buffer_aware_queries(scenario, &flows, &mut suite, &mut deepened)
        });
    }
    if let TrafficChoice::Bursty { burst, gap, cv } = scenario.traffic {
        let (mut collapsed, mut raised) = t.span("analysis.suite_build", unit, || {
            (
                GraphBufferAwareOracle::new(
                    &flows,
                    &config,
                    mesh,
                    buffers.clone(),
                    ArrivalCurve::bursty(1, gap),
                ),
                GraphBufferAwareOracle::new(
                    &flows,
                    &config,
                    mesh,
                    buffers.clone(),
                    ArrivalCurve::bursty(burst + 1, gap).with_jitter(cv),
                ),
            )
        });
        queries += t.span("analysis.query", unit, || {
            bursty_queries(scenario, &flows, &mut suite, &mut collapsed, &mut raised)
        });
    }
    t.add("analysis.queries", queries as f64);
    Ok((report.overall(), cycles))
}

type Suite = [Box<dyn WcttBoundModel>];

fn position(suite: &Suite, name: &str) -> Option<usize> {
    suite.iter().position(|oracle| oracle.name() == name)
}

/// The bound queries of the dominance check: every dominating analysis, for
/// every statically analysed flow with an observation.
fn dominance_queries(
    scenario: &Scenario,
    flows: &FlowSet,
    report: &SaturatedReport,
    suite: &mut Suite,
) -> u64 {
    let mut queries = 0;
    for (flow, _observed) in report.per_flow_max() {
        if flows.route(flow).is_none() {
            continue;
        }
        for oracle in suite.iter_mut() {
            if oracle.dominates_observation() {
                oracle.message_bound(flow, scenario.message_flits);
                queries += 1;
            }
        }
    }
    queries
}

/// The bound queries of the cross-analysis ordering check.
fn ordering_queries(scenario: &Scenario, flows: &FlowSet, suite: &mut Suite) -> u64 {
    let (Some(ubd_at), Some(slot_at)) = (position(suite, "ubd"), position(suite, "slot")) else {
        return 0;
    };
    let reference_at = position(suite, "regular")
        .or_else(|| position(suite, "weighted"))
        .unwrap_or(0);
    let preemptive_at = position(suite, "preemptive");
    let max_packet = scenario
        .design
        .config()
        .packetization
        .worst_case_contender_flits();
    let size = scenario.message_flits;
    let mut queries = 0;
    for index in 0..flows.len() {
        let flow = FlowId(index);
        let reference = &mut suite[reference_at];
        let bounds = [
            reference.message_bound(flow, size),
            reference.packet_bound(flow, 1),
            reference.packet_bound(flow, max_packet),
        ];
        queries += 3;
        if bounds.contains(&None) {
            continue;
        }
        suite[slot_at].message_bound(flow, size);
        suite[0].message_bound(flow, size);
        queries += 2;
        if let Some(at) = preemptive_at {
            suite[at].message_bound(flow, size);
            queries += 1;
        }
        suite[ubd_at].message_bound(flow, size);
        queries += 1;
    }
    queries
}

/// The bound queries of the buffer-aware ordering check (WaW scenarios).
fn buffer_aware_queries(
    scenario: &Scenario,
    flows: &FlowSet,
    suite: &mut Suite,
    deepened: &mut BufferAwareOracle,
) -> u64 {
    let (Some(ba_at), Some(paper_at), Some(bp_at)) = (
        position(suite, "buffer-aware"),
        position(suite, "weighted"),
        position(suite, "weighted-bp"),
    ) else {
        return 0;
    };
    let size = scenario.message_flits;
    let mut queries = 0;
    for index in 0..flows.len() {
        let flow = FlowId(index);
        let bounds = [ba_at, paper_at, bp_at].map(|at| suite[at].message_bound(flow, size));
        queries += 3;
        if !bounds.contains(&None) {
            deepened.message_bound(flow, size);
            queries += 1;
        }
    }
    queries
}

/// The bound queries of the bursty ordering check (bursty scenarios).
fn bursty_queries(
    scenario: &Scenario,
    flows: &FlowSet,
    suite: &mut Suite,
    collapsed: &mut GraphBufferAwareOracle,
    raised: &mut GraphBufferAwareOracle,
) -> u64 {
    let (Some(graph_at), Some(ba_at)) =
        (position(suite, "graph-ba"), position(suite, "buffer-aware"))
    else {
        return 0;
    };
    let size = scenario.message_flits;
    let mut queries = 0;
    for index in 0..flows.len() {
        let flow = FlowId(index);
        let graph = suite[graph_at].message_bound(flow, size);
        let ba = suite[ba_at].message_bound(flow, size);
        queries += 2;
        if graph.is_some() && ba.is_some() {
            collapsed.message_bound(flow, size);
            raised.message_bound(flow, size);
            queries += 2;
        }
    }
    queries
}
