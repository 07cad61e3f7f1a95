//! The parallel campaign runner and the aggregated conformance report.
//!
//! A [`Campaign`] is a seeded list of scenarios (see
//! [`Scenario::sample`](crate::Scenario::sample)).  [`Campaign::run`] executes
//! them on a work-stealing-lite pool: `std::thread::scope` workers pull
//! scenario indices from one shared atomic cursor, so a worker that lands on
//! cheap 2×2 scenarios simply pulls more of them while another grinds through
//! a 12×12 platform — no pre-partitioning, no idle tails, no dependencies
//! beyond the standard library.
//!
//! Outcomes are reassembled in scenario order, so the produced
//! [`ConformanceReport`] is byte-identical regardless of the worker count —
//! the report of a 16-thread campaign can be diffed against a single-threaded
//! rerun.

use std::sync::atomic::{AtomicUsize, Ordering};

use wnoc_core::Result;
use wnoc_sim::LatencyStats;

use crate::json;
use crate::scenario::{FlowSetCache, Scenario, ScenarioOutcome, TightnessSummary};

/// The sampling space of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignDimension {
    /// The legacy space: mesh side, flow family, design, message size — all
    /// platforms at the default buffering.
    Core,
    /// The legacy space *times* the buffer-depth dimension: uniform depths
    /// {1, 2, 4, 8, ∞-equivalent} plus seeded heterogeneous per-port
    /// assignments ([`Scenario::sample_buffered`]).
    BufferDepth,
    /// The legacy space *times* the virtual-channel dimension: VC counts
    /// 1–4 crossed with both static flow → VC assignment rules
    /// ([`Scenario::sample_vc`]).
    VcSweep,
    /// The bursty arrival-curve dimension: open-loop WaW + WaP platforms with
    /// per-flow bursts, jittered sustained rates and heterogeneous buffer
    /// depths, checked against the graph-based buffer-aware bound
    /// ([`Scenario::sample_bursty`]).
    BurstySweep,
    /// The fault-injection dimension: the legacy platform space *times*
    /// sampled link/router failures at cycle 0 (degraded-oracle dominance)
    /// or mid-run (epoch-flush drain checks) — see
    /// [`Scenario::sample_fault`].
    FaultSweep,
}

impl CampaignDimension {
    /// Stable one-word tag used by checkpoint files and command-line flags.
    pub fn tag(&self) -> &'static str {
        match self {
            CampaignDimension::Core => "core",
            CampaignDimension::BufferDepth => "buffer-depth",
            CampaignDimension::VcSweep => "vc",
            CampaignDimension::BurstySweep => "bursty",
            CampaignDimension::FaultSweep => "fault",
        }
    }

    /// Inverse of [`CampaignDimension::tag`].
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "core" => Some(CampaignDimension::Core),
            "buffer-depth" => Some(CampaignDimension::BufferDepth),
            "vc" => Some(CampaignDimension::VcSweep),
            "bursty" => Some(CampaignDimension::BurstySweep),
            "fault" => Some(CampaignDimension::FaultSweep),
            _ => None,
        }
    }
}

/// A seeded conformance campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Campaign {
    /// Master seed; scenario `i` is `Scenario::sample(i, seed)` (or
    /// `Scenario::sample_buffered` under [`CampaignDimension::BufferDepth`]).
    pub seed: u64,
    /// Number of scenarios.
    pub scenarios: usize,
    /// The sampled scenario space.
    pub dimension: CampaignDimension,
}

impl Campaign {
    /// Creates a campaign over the legacy scenario space.
    pub fn new(seed: u64, scenarios: usize) -> Self {
        Self {
            seed,
            scenarios,
            dimension: CampaignDimension::Core,
        }
    }

    /// Creates a campaign sweeping the buffer-depth dimension as well.
    pub fn buffer_sweep(seed: u64, scenarios: usize) -> Self {
        Self {
            seed,
            scenarios,
            dimension: CampaignDimension::BufferDepth,
        }
    }

    /// Creates a campaign sweeping the virtual-channel dimension as well.
    pub fn vc_sweep(seed: u64, scenarios: usize) -> Self {
        Self {
            seed,
            scenarios,
            dimension: CampaignDimension::VcSweep,
        }
    }

    /// Creates a campaign over the bursty arrival-curve dimension.
    pub fn bursty_sweep(seed: u64, scenarios: usize) -> Self {
        Self {
            seed,
            scenarios,
            dimension: CampaignDimension::BurstySweep,
        }
    }

    /// Creates a campaign over the fault-injection dimension.
    pub fn fault_sweep(seed: u64, scenarios: usize) -> Self {
        Self {
            seed,
            scenarios,
            dimension: CampaignDimension::FaultSweep,
        }
    }

    /// Materialises scenario `index` of the campaign.  Sampling is a pure
    /// function of `(dimension, seed, index)`, which is what makes the fleet
    /// runner's shards independent: any process can materialise any index
    /// range and produce the same outcomes the single-process run would.
    pub fn scenario(&self, index: usize) -> Scenario {
        match self.dimension {
            CampaignDimension::Core => Scenario::sample(index, self.seed),
            CampaignDimension::BufferDepth => Scenario::sample_buffered(index, self.seed),
            CampaignDimension::VcSweep => Scenario::sample_vc(index, self.seed),
            CampaignDimension::BurstySweep => Scenario::sample_bursty(index, self.seed),
            CampaignDimension::FaultSweep => Scenario::sample_fault(index, self.seed),
        }
    }

    /// Materialises every scenario of the campaign.
    pub fn generate(&self) -> Vec<Scenario> {
        (0..self.scenarios)
            .map(|index| self.scenario(index))
            .collect()
    }

    /// Runs the campaign on `threads` workers (clamped to at least one).
    ///
    /// # Errors
    ///
    /// Returns the first scenario error encountered (sampled scenarios are
    /// valid by construction, so this indicates a generator or platform bug).
    pub fn run(&self, threads: usize) -> Result<ConformanceReport> {
        let scenarios = self.generate();
        let cursor = AtomicUsize::new(0);
        let workers = threads.max(1).min(scenarios.len().max(1));

        let mut slots: Vec<Option<ScenarioOutcome>> = Vec::new();
        slots.resize_with(scenarios.len(), || None);

        std::thread::scope(|scope| -> Result<()> {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| -> Result<Vec<(usize, ScenarioOutcome)>> {
                        let mut completed = Vec::new();
                        // Per-worker flow-set memo: samplers repeat families
                        // (four paper placements, colliding hotspots), and
                        // the memo skips their route and contention-count
                        // rebuilds without any cross-thread sharing.
                        let mut cache = FlowSetCache::new();
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(scenario) = scenarios.get(index) else {
                                return Ok(completed);
                            };
                            // A failing scenario aborts the campaign with the
                            // first error, wrapped with the scenario label so
                            // the full diagnostic (a stalled simulation
                            // reports its stuck cycle and buffered-flit
                            // count) carries *which* platform wedged.
                            let outcome = scenario.run_with_cache(&mut cache).map_err(|error| {
                                error.with_context(format!(
                                    "conformance scenario {}",
                                    scenario.label()
                                ))
                            })?;
                            completed.push((index, outcome));
                        }
                    })
                })
                .collect();
            for handle in handles {
                for (index, outcome) in handle.join().expect("campaign worker panicked")? {
                    slots[index] = Some(outcome);
                }
            }
            Ok(())
        })?;

        Ok(ConformanceReport {
            seed: self.seed,
            outcomes: slots
                .into_iter()
                .map(|slot| slot.expect("every scenario index was claimed"))
                .collect(),
        })
    }
}

/// Aggregated tightness over a group of scenarios.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignSummary {
    /// Scenarios in the group.
    pub scenarios: usize,
    /// Observed flows across the group.
    pub flows: usize,
    /// Flow-weighted mean tightness ratio.
    pub mean_tightness: f64,
    /// Largest per-flow tightness ratio in the group.
    pub max_tightness: f64,
}

/// The machine-checked verdict of a campaign, one outcome per scenario in
/// campaign order (independent of the worker count that produced it).
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// The campaign's master seed.
    pub seed: u64,
    /// Per-scenario outcomes, in scenario order.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl ConformanceReport {
    /// An empty report for `seed` — the identity element of
    /// [`ConformanceReport::merge`].
    pub fn empty(seed: u64) -> Self {
        Self {
            seed,
            outcomes: Vec::new(),
        }
    }

    /// Folds another report into this one, lifting the [`LatencyStats::merge`]
    /// algebra to whole reports: outcomes are concatenated and re-sorted by
    /// scenario index, so partial reports over disjoint index ranges merge
    /// into *exactly* the report a single-process run would have produced —
    /// byte-identical renderings — in any merge order (scenario indices are
    /// unique per campaign, making the sort total) and for any shard
    /// partition.  Every aggregate ([`ConformanceReport::observed`],
    /// tightness, per-design summaries) is derived from the outcome list, so
    /// no other state needs reconciling.
    ///
    /// The merge is total: it never fails.  Merging reports of *different*
    /// campaigns is outside the contract (the result keeps `self.seed` and
    /// whatever outcomes both sides carried) — the fleet runner's manifest
    /// config hashes exist to prevent exactly that, up front.
    pub fn merge(&mut self, other: ConformanceReport) {
        if self.outcomes.is_empty() {
            self.outcomes = other.outcomes;
        } else {
            self.outcomes.extend(other.outcomes);
        }
        self.outcomes.sort_by_key(|outcome| outcome.scenario.index);
    }

    /// Number of scenarios.
    pub fn scenario_count(&self) -> usize {
        self.outcomes.len()
    }

    /// Total dominance violations across the campaign.
    pub fn dominance_violations(&self) -> usize {
        self.outcomes.iter().map(|o| o.violations.len()).sum()
    }

    /// Total cross-analysis ordering violations across the campaign.
    pub fn ordering_violations(&self) -> usize {
        self.outcomes
            .iter()
            .map(|o| o.ordering_violations.len())
            .sum()
    }

    /// `true` when no scenario recorded any violation.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(ScenarioOutcome::passed)
    }

    /// Total cycles the simulator executed across every scenario of the
    /// campaign — the closed-loop kernel-throughput numerator reported by
    /// `expt-perf-smoke` as `cycles_per_sec`.
    pub fn simulated_cycles(&self) -> u64 {
        self.outcomes.iter().map(|o| o.simulated_cycles).sum()
    }

    /// Every observation of the campaign folded into one summary (merged with
    /// [`LatencyStats::merge`] in scenario order).
    pub fn observed(&self) -> LatencyStats {
        let mut all = LatencyStats::new();
        for outcome in &self.outcomes {
            all.merge(&outcome.observed);
        }
        all
    }

    /// Flow-weighted aggregate tightness over all scenarios.
    pub fn tightness(&self) -> TightnessSummary {
        Self::aggregate_tightness(self.outcomes.iter())
    }

    /// The scenario with the largest per-flow tightness ratio, if any flow
    /// was observed.
    pub fn tightest_scenario(&self) -> Option<&ScenarioOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.tightness.flows > 0)
            .max_by(|a, b| {
                a.tightness
                    .max
                    .partial_cmp(&b.tightness.max)
                    .expect("tightness ratios are finite")
            })
    }

    /// Aggregate tightness per design label, in deterministic label order.
    pub fn per_design(&self) -> Vec<(String, DesignSummary)> {
        let mut labels: Vec<String> = self
            .outcomes
            .iter()
            .map(|o| o.scenario.design.label())
            .collect();
        labels.sort();
        labels.dedup();
        labels
            .into_iter()
            .map(|label| {
                let group: Vec<&ScenarioOutcome> = self
                    .outcomes
                    .iter()
                    .filter(|o| o.scenario.design.label() == label)
                    .collect();
                let summary = Self::aggregate_tightness(group.iter().copied());
                (
                    label,
                    DesignSummary {
                        scenarios: group.len(),
                        flows: summary.flows,
                        mean_tightness: summary.mean,
                        max_tightness: summary.max,
                    },
                )
            })
            .collect()
    }

    fn aggregate_tightness<'a>(
        outcomes: impl Iterator<Item = &'a ScenarioOutcome>,
    ) -> TightnessSummary {
        let mut flows = 0usize;
        let mut weighted_sum = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        for outcome in outcomes {
            let t = outcome.tightness;
            if t.flows == 0 {
                continue;
            }
            flows += t.flows;
            weighted_sum += t.mean * t.flows as f64;
            min = min.min(t.min);
            max = max.max(t.max);
        }
        if flows == 0 {
            TightnessSummary {
                flows: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
            }
        } else {
            TightnessSummary {
                flows,
                mean: weighted_sum / flows as f64,
                min,
                max,
            }
        }
    }

    /// Renders the report as deterministic JSON — the machine-readable
    /// artifact the nightly `deep-conformance` CI job uploads.  Its layout
    /// (a space after each colon, `{:.6}` decimals) is fixed by the reports
    /// and digests already published, so it is written here rather than by
    /// the checkpoint codec; its strings go through the codec's one escaper.
    /// Per-scenario entries carry enough to diagnose a regression from the
    /// run page alone.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let observed = self.observed();
        let tightness = self.tightness();
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"scenario_count\": {},\n",
            self.scenario_count()
        ));
        out.push_str(&format!("  \"passed\": {},\n", self.passed()));
        out.push_str(&format!(
            "  \"dominance_violations\": {},\n",
            self.dominance_violations()
        ));
        out.push_str(&format!(
            "  \"ordering_violations\": {},\n",
            self.ordering_violations()
        ));
        out.push_str(&format!(
            "  \"observed\": {{\"count\": {}, \"min\": {}, \"max\": {}}},\n",
            observed.count,
            if observed.is_empty() { 0 } else { observed.min },
            observed.max
        ));
        out.push_str(&format!(
            "  \"tightness\": {{\"flows\": {}, \"mean\": {:.6}, \"max\": {:.6}}},\n",
            tightness.flows, tightness.mean, tightness.max
        ));
        out.push_str("  \"per_design\": [\n");
        let per_design = self.per_design();
        for (position, (label, summary)) in per_design.iter().enumerate() {
            let comma = if position + 1 < per_design.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "    {{\"design\": {}, \"scenarios\": {}, \"flows\": {}, \
                 \"mean_tightness\": {:.6}, \"max_tightness\": {:.6}}}{comma}\n",
                json::quote(label),
                summary.scenarios,
                summary.flows,
                summary.mean_tightness,
                summary.max_tightness
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"scenarios\": [\n");
        for (position, outcome) in self.outcomes.iter().enumerate() {
            let comma = if position + 1 < self.outcomes.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "    {{\"label\": {}, \"flows\": {}, \"dominance_checked\": {}, \
                 \"violations\": {}, \"ordering_violations\": {}, \"observed_max\": {}, \
                 \"tightness_max\": {:.6}}}{comma}\n",
                json::quote(&outcome.scenario.label()),
                outcome.flow_count,
                outcome.dominance_checked,
                outcome.violations.len(),
                outcome.ordering_violations.len(),
                outcome.observed.max,
                outcome.tightness.max
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the deterministic human-readable summary printed by
    /// `expt-conformance`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Conformance campaign — {} scenarios, seed {}\n",
            self.scenario_count(),
            self.seed
        ));
        let observed = self.observed();
        out.push_str(&format!(
            "observations    : {} messages across {} checked flows\n",
            observed.count,
            self.tightness().flows
        ));
        let checked = self.outcomes.iter().filter(|o| o.dominance_checked).count();
        out.push_str(&format!(
            "dominance scope : {checked} scenarios checked, {} ordering-only \
             (WaW on divergent flow sets)\n",
            self.scenario_count() - checked
        ));
        out.push_str(&format!(
            "dominance       : {} violations\n",
            self.dominance_violations()
        ));
        out.push_str(&format!(
            "ordering        : {} violations\n",
            self.ordering_violations()
        ));
        out.push_str("design          | scenarios | flows | mean tightness | max tightness\n");
        for (label, summary) in self.per_design() {
            out.push_str(&format!(
                "{:<15} | {:>9} | {:>5} | {:>14.3} | {:>13.3}\n",
                label,
                summary.scenarios,
                summary.flows,
                summary.mean_tightness,
                summary.max_tightness
            ));
        }
        if let Some(tightest) = self.tightest_scenario() {
            out.push_str(&format!(
                "tightest        : {:.3} at {}\n",
                tightest.tightness.max,
                tightest.scenario.label()
            ));
        }
        if !self.passed() {
            out.push_str(
                "see docs/ORACLES.md for every oracle's assumptions, validity domain and the \
                 dominance/ordering lattice\n",
            );
        }
        for outcome in self.outcomes.iter().filter(|o| !o.passed()) {
            out.push_str(&format!(
                "FAILED {}: {} dominance, {} ordering violations\n",
                outcome.scenario.label(),
                outcome.violations.len(),
                outcome.ordering_violations.len()
            ));
            for violation in &outcome.violations {
                out.push_str(&format!(
                    "  {} observed {} > {} bound {}\n",
                    violation.flow, violation.observed, violation.oracle, violation.bound
                ));
            }
            for failure in &outcome.ordering_violations {
                out.push_str(&format!("  {failure}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic() {
        let campaign = Campaign::new(7, 5);
        assert_eq!(campaign.generate(), campaign.generate());
        assert_eq!(campaign.generate().len(), 5);
    }

    #[test]
    fn small_campaign_passes_and_reports() {
        let report = Campaign::new(11, 6).run(2).unwrap();
        assert_eq!(report.scenario_count(), 6);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.dominance_violations(), 0);
        assert_eq!(report.ordering_violations(), 0);
        let tightness = report.tightness();
        assert!(tightness.flows > 0);
        assert!(tightness.max <= 1.0);
        assert!(report.observed().count > 0);
        let text = report.render();
        assert!(text.contains("6 scenarios"));
        assert!(text.contains("dominance       : 0 violations"));
    }

    #[test]
    fn report_is_identical_for_any_worker_count() {
        let campaign = Campaign::new(3, 5);
        let single = campaign.run(1).unwrap();
        let parallel = campaign.run(4).unwrap();
        let oversubscribed = campaign.run(64).unwrap();
        assert_eq!(single, parallel);
        assert_eq!(single, oversubscribed);
    }

    #[test]
    fn small_vc_campaign_passes() {
        let report = Campaign::vc_sweep(11, 8).run(2).unwrap();
        assert_eq!(report.scenario_count(), 8);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.dominance_violations(), 0);
        assert_eq!(report.ordering_violations(), 0);
    }

    #[test]
    fn small_bursty_campaign_passes() {
        let report = Campaign::bursty_sweep(7, 6).run(2).unwrap();
        assert_eq!(report.scenario_count(), 6);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.dominance_violations(), 0);
        assert_eq!(report.ordering_violations(), 0);
        // The dimension must actually exercise bursty traffic.
        assert!(report
            .outcomes
            .iter()
            .all(|o| !matches!(o.scenario.traffic, crate::TrafficChoice::ClosedLoop)));
        assert!(report.observed().count > 0);
    }

    #[test]
    fn small_fault_campaign_passes() {
        let report = Campaign::fault_sweep(7, 10).run(2).unwrap();
        assert_eq!(report.scenario_count(), 10);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.dominance_violations(), 0);
        assert_eq!(report.ordering_violations(), 0);
        // The dimension must actually exercise fault injection.
        assert!(report.outcomes.iter().any(|o| !o.scenario.faults.is_none()));
    }

    #[test]
    fn per_design_covers_every_outcome() {
        let report = Campaign::new(21, 8).run(4).unwrap();
        let per_design: usize = report.per_design().iter().map(|(_, s)| s.scenarios).sum();
        assert_eq!(per_design, report.scenario_count());
    }
}
