//! Simulation drivers: open-loop random traffic runs and the saturated
//! worst-contention runs used to measure observed traversal times.

use std::collections::HashMap;

use wnoc_core::flow::FlowSet;
use wnoc_core::{
    Coord, Error, FaultPlan, FlowId, Mesh, NocConfig, NodeId, Result, RetransmitPolicy,
};

use wnoc_core::ArrivalCurve;

use crate::arrival::{schedule_for, ScheduledMessage, ScheduledTraffic};
use crate::network::Network;
use crate::stats::{LatencyStats, NetworkStats};
use crate::traffic::RandomTraffic;

/// Per-flow observed traversal latencies of a saturated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SaturatedReport {
    /// Cycles simulated after warm-up.
    pub measured_cycles: u64,
    /// Observed traversal latency summary per flow.
    pub per_flow: HashMap<FlowId, LatencyStats>,
}

impl SaturatedReport {
    /// Flows with at least one recorded observation, in [`FlowId`] order.
    /// Iterating in id order keeps every derived quantity deterministic
    /// regardless of the hash map's internal ordering.
    fn observed_flows(&self) -> impl Iterator<Item = (FlowId, &LatencyStats)> {
        let mut ids: Vec<FlowId> = self
            .per_flow
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|id| (id, &self.per_flow[&id]))
    }

    /// Returns `true` if no flow recorded any observation.
    pub fn is_empty(&self) -> bool {
        self.per_flow.values().all(LatencyStats::is_empty)
    }

    /// Largest observed traversal latency across all flows, or 0 when nothing
    /// was observed.
    pub fn max(&self) -> u64 {
        self.observed_flows().map(|(_, s)| s.max).max().unwrap_or(0)
    }

    /// Smallest per-flow maximum (the best-served flow's worst observation),
    /// or 0 when nothing was observed.  Flows without observations are
    /// skipped, so an empty [`LatencyStats`] entry can no longer drag the
    /// minimum to zero.
    pub fn min_of_max(&self) -> u64 {
        self.observed_flows().map(|(_, s)| s.max).min().unwrap_or(0)
    }

    /// Mean of the per-flow maxima over flows with observations, or 0.0 when
    /// nothing was observed.
    pub fn mean_of_max(&self) -> f64 {
        let (count, total) = self
            .observed_flows()
            .fold((0u64, 0.0f64), |(c, t), (_, s)| (c + 1, t + s.max as f64));
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Worst observed traversal latency of one flow, if it was observed.
    pub fn flow_max(&self, flow: FlowId) -> Option<u64> {
        self.per_flow
            .get(&flow)
            .filter(|s| !s.is_empty())
            .map(|s| s.max)
    }

    /// `(flow, worst observed latency)` pairs in [`FlowId`] order — the
    /// per-flow maxima the conformance harness compares against analytic
    /// bounds.
    pub fn per_flow_max(&self) -> Vec<(FlowId, u64)> {
        self.observed_flows().map(|(id, s)| (id, s.max)).collect()
    }

    /// All observations of the run folded into one summary (uses
    /// [`LatencyStats::merge`] in flow-id order).
    pub fn overall(&self) -> LatencyStats {
        let mut all = LatencyStats::new();
        for (_, stats) in self.observed_flows() {
            all.merge(stats);
        }
        all
    }
}

/// The flows of a per-flow table (indexed by [`FlowId`]) with at least one
/// sample.
fn sampled_flows(per_flow: &[LatencyStats]) -> HashMap<FlowId, LatencyStats> {
    per_flow
        .iter()
        .enumerate()
        .filter(|(_, stats)| !stats.is_empty())
        .map(|(index, stats)| (FlowId(index), *stats))
        .collect()
}

/// High-level simulation driver around [`Network`].
#[derive(Debug)]
pub struct Simulation {
    network: Network,
}

impl Simulation {
    /// Builds a simulation of `config` over `mesh`, with WaW weights (and flow
    /// ids) derived from `flows`.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(mesh: Mesh, config: NocConfig, flows: &FlowSet) -> Result<Self> {
        Ok(Self {
            network: Network::new(mesh, config, flows)?,
        })
    }

    /// Builds a simulation with a buffer plan and a virtual-channel
    /// configuration (see [`Network::with_vcs`]); every driver below works
    /// unchanged on the heterogeneous or multi-VC network.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or `buffers` does not
    /// cover `mesh`.
    pub fn with_vcs(
        mesh: Mesh,
        config: NocConfig,
        flows: &FlowSet,
        buffers: &wnoc_core::BufferConfig,
        vcs: wnoc_core::VcConfig,
    ) -> Result<Self> {
        Ok(Self {
            network: Network::with_vcs(mesh, config, flows, buffers, vcs)?,
        })
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Selects the scheduler of the underlying network (see
    /// [`Network::set_dense_kernel`]): the dense per-cycle reference is the
    /// differential-testing oracle for the event-horizon kernel.
    pub fn set_dense_kernel(&mut self, dense: bool) {
        self.network.set_dense_kernel(dense);
    }

    /// Mutable access to the underlying network (for custom drivers).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Installs a fault plan on the underlying network (see
    /// [`Network::install_fault_plan`]): scheduled link/router failures with
    /// fault-tolerant rerouting and NACK-based retransmission.
    ///
    /// # Errors
    ///
    /// Returns an error if a plan is already installed or the plan does not
    /// fit the mesh.
    pub fn install_fault_plan(&mut self, plan: FaultPlan, policy: RetransmitPolicy) -> Result<()> {
        self.network.install_fault_plan(plan, policy)
    }

    /// Collected statistics.
    pub fn stats(&self) -> &NetworkStats {
        self.network.stats()
    }

    /// The shared open-loop driver: offers the generator's messages and steps
    /// the network for `cycles` cycles (no drain).
    fn drive_traffic(&mut self, traffic: &mut RandomTraffic, cycles: u64) -> Result<()> {
        for cycle in 0..cycles {
            for msg in traffic.messages_for_cycle(cycle) {
                self.network.offer(msg.src, msg.dst, msg.size_flits)?;
            }
            self.network.step();
        }
        Ok(())
    }

    /// Runs open-loop random traffic for `cycles` cycles and then drains the
    /// network (up to `drain_limit` extra cycles).  Returns `true` if the
    /// network drained completely.
    ///
    /// # Errors
    ///
    /// Returns an error if a generated message is invalid (should not happen
    /// for a well-formed generator).
    pub fn run_traffic(
        &mut self,
        traffic: &mut RandomTraffic,
        cycles: u64,
        drain_limit: u64,
    ) -> Result<bool> {
        self.drive_traffic(traffic, cycles)?;
        Ok(self.network.step_until_quiescent(drain_limit).is_ok())
    }

    /// Runs the network under *saturation* for the given flows: every flow's
    /// source NIC is kept back-logged so that, as in the worst-case assumptions
    /// of the paper, every contender is always requesting.  After `warmup`
    /// cycles the per-flow traversal latencies observed during `measure` cycles
    /// are reported.
    ///
    /// # Errors
    ///
    /// Returns an error if a flow is invalid for the mesh.
    pub fn run_saturated(
        &mut self,
        flows: &FlowSet,
        message_flits: u32,
        warmup: u64,
        measure: u64,
    ) -> Result<SaturatedReport> {
        let backlog_flits = 8 * message_flits as usize;
        let pairs: Vec<(NodeId, NodeId)> = flows.flows().iter().map(|f| (f.src, f.dst)).collect();

        let mut baseline: Vec<LatencyStats> = Vec::new();
        for phase in 0..2 {
            let cycles = if phase == 0 { warmup } else { measure };
            for _ in 0..cycles {
                for &(src, dst) in &pairs {
                    if self.network.nic_backlog(src) < backlog_flits {
                        self.network.offer(src, dst, message_flits)?;
                    }
                }
                self.network.step();
            }
            if phase == 0 {
                // Snapshot the stats at the end of warm-up so the report only
                // covers the measurement window.
                baseline = self.network.stats().traversal_latency.clone();
            }
        }

        let mut per_flow = HashMap::new();
        for (index, stats) in self.network.stats().traversal_latency.iter().enumerate() {
            let before = baseline.get(index).map_or(0, |s| s.count);
            if stats.count > before {
                // Report the stats over the whole saturated run for simplicity;
                // the warm-up only serves to fill the network first.
                per_flow.insert(FlowId(index), *stats);
            }
        }
        Ok(SaturatedReport {
            measured_cycles: measure,
            per_flow,
        })
    }

    /// Runs the *closed-loop probing* discipline used by the conformance
    /// harness: every source node keeps exactly one message outstanding at a
    /// time (cycling round-robin over its flows when it has several), offering
    /// the next one only after the previous was fully delivered.
    ///
    /// This matches the semantics of the analytic WCTT bounds, which cover a
    /// packet *from the head of its input buffer* through an adversarially
    /// backlogged network: with one outstanding message per source, a probe
    /// never queues behind earlier traffic of its own source — delay the
    /// bounds deliberately exclude — while all other sources still contend at
    /// every shared port.  (Under [`Simulation::run_saturated`] the traversal
    /// clock of a message starts while flits of its predecessor still occupy
    /// the local input buffer, so observed latencies there can exceed the
    /// per-packet bounds without falsifying them.)
    ///
    /// Runs for `cycles` cycles, then lets the network drain (up to
    /// `4 * cycles + 10_000` extra cycles) so in-flight probes complete.  The
    /// run is fully deterministic: no randomness is involved, so two calls on
    /// identically-built simulations return identical reports.
    ///
    /// # Errors
    ///
    /// Returns an error if a flow is invalid for the mesh, and
    /// [`wnoc_core::Error::SimulationStalled`] if the network fails to drain
    /// within the budget — a deadlocked or livelocked network must fail a
    /// conformance run loudly, never pass it with the stuck probes silently
    /// missing from the report.
    pub fn run_closed_loop(
        &mut self,
        flows: &FlowSet,
        message_flits: u32,
        cycles: u64,
    ) -> Result<SaturatedReport> {
        // Group flows by source, in deterministic (node, flow) order.
        let mut by_src: Vec<(NodeId, Vec<FlowId>)> = Vec::new();
        for (id, flow) in flows.iter() {
            match by_src.iter_mut().find(|(src, _)| *src == flow.src) {
                Some((_, list)) => list.push(id),
                None => by_src.push((flow.src, vec![id])),
            }
        }
        by_src.sort_by_key(|(src, _)| *src);

        let mut next: Vec<usize> = vec![0; by_src.len()];
        // Probing slots with no outstanding message: every slot starts free,
        // and a slot is freed exactly once per delivery, so the list never
        // holds duplicates.  Scanning only freed slots (instead of every
        // source every cycle) keeps the driver O(deliveries).
        let mut free: Vec<u32> = (0..by_src.len() as u32).collect();
        // Source node index -> probing slot, so completing a delivery is an
        // array lookup instead of a hash probe (this loop runs every cycle
        // over every source).
        let mut slot_of_node: Vec<u32> = vec![u32::MAX; self.network.mesh().router_count()];
        for (slot, (src, _)) in by_src.iter().enumerate() {
            slot_of_node[src.index()] = slot as u32;
        }

        // The probing loop advances horizon to horizon instead of cycle to
        // cycle: probes are offered at the same absolute cycles as under
        // per-cycle stepping (a source only becomes free at a delivery, and
        // deliveries only happen at stepped cycles), so the reports are
        // bit-for-bit identical while inert stretches — and whole lone-worm
        // flights — are skipped in closed form.
        let start = self.network.cycle();
        let limit = start + cycles;
        // Reused across iterations so polling deliveries never reallocates.
        let mut arrived = Vec::new();
        while self.network.cycle() < limit {
            if !free.is_empty() {
                // Ascending slot order matches the dense driver's scan.
                if free.len() > 1 {
                    free.sort_unstable();
                }
                for &slot in &free {
                    let slot = slot as usize;
                    let (_, list) = &by_src[slot];
                    // A fault activation may have severed some of this
                    // source's flows: skip round-robin to the next reachable
                    // one.  A slot whose every flow is severed retires — no
                    // offer is outstanding, so no delivery ever re-frees it.
                    for _ in 0..list.len() {
                        let flow = flows
                            .flow(list[next[slot] % list.len()])
                            .expect("flow id from the same set");
                        next[slot] += 1;
                        match self.network.offer(flow.src, flow.dst, message_flits) {
                            Ok(_) => break,
                            Err(Error::Unreachable { .. }) => continue,
                            Err(other) => return Err(other),
                        }
                    }
                }
                free.clear();
            }
            if !self.network.try_worm_fast_forward(limit) {
                let horizon = match self.network.next_horizon() {
                    Some(horizon) => horizon.min(limit),
                    // Nothing will ever happen again (deadlock with every
                    // probe outstanding): the dense kernel would idle to the
                    // window's end and fail in the drain below.
                    None => limit,
                };
                self.network.advance_to(horizon);
            }
            self.network.drain_delivered_into(&mut arrived);
            for delivered in arrived.drain(..) {
                let slot = slot_of_node[delivered.src.index()];
                if slot != u32::MAX {
                    free.push(slot);
                }
            }
        }
        self.network.step_until_quiescent(4 * cycles + 10_000)?;
        Ok(SaturatedReport {
            measured_cycles: cycles,
            per_flow: sampled_flows(&self.network.stats().traversal_latency),
        })
    }

    /// Executes an open-loop [`ScheduledTraffic`]: every message is offered
    /// at exactly its scheduled release cycle, regardless of network state,
    /// and the network then drains completely.
    ///
    /// Unlike every closed-loop driver the reported per-flow statistics are
    /// **end-to-end message latencies** (offer to delivery of the last flit),
    /// not traversal latencies: an open-loop release can queue behind its own
    /// flow's backlog in the source NIC, and that self-queueing is precisely
    /// the delay bursty analysis must cover.  The driver advances horizon to
    /// horizon between releases, so reports are bit-for-bit identical under
    /// the event-horizon and dense kernels.
    ///
    /// # Errors
    ///
    /// Returns an error if a scheduled message is invalid for the mesh, and
    /// [`wnoc_core::Error::SimulationStalled`] if the network fails to drain
    /// within `4 * horizon + 10_000` cycles after the last release.
    pub fn run_schedule(&mut self, schedule: &ScheduledTraffic) -> Result<SaturatedReport> {
        let start = self.network.cycle();
        let mut index = 0;
        let messages = schedule.messages();
        while index < messages.len() {
            let target = start + messages[index].cycle;
            while self.network.cycle() < target {
                if self.network.try_worm_fast_forward(target) {
                    continue;
                }
                let horizon = match self.network.next_horizon() {
                    Some(horizon) => horizon.min(target),
                    // Nothing in flight: jump straight to the release.
                    None => target,
                };
                self.network.advance_to(horizon);
            }
            while index < messages.len() && start + messages[index].cycle == target {
                let msg = &messages[index];
                self.network.offer(msg.src, msg.dst, msg.size_flits)?;
                index += 1;
            }
        }
        self.network
            .step_until_quiescent(4 * schedule.horizon() + 10_000)?;
        Ok(SaturatedReport {
            measured_cycles: schedule.horizon(),
            per_flow: sampled_flows(&self.network.stats().message_latency),
        })
    }

    /// Runs every flow of `flows` as an open-loop [`ArrivalCurve`] source
    /// over a `cycles`-cycle release window: per flow, up to `b` messages
    /// release back to back followed by the sustained gap, with optional
    /// seeded inter-arrival jitter (see [`schedule_for`]; flow index = jitter
    /// lane, so the run is deterministic per `seed`).
    ///
    /// Reported statistics are end-to-end message latencies — see
    /// [`Simulation::run_schedule`] for why bursty runs must charge
    /// self-queueing, which the closed-loop probing discipline excludes by
    /// construction.
    ///
    /// # Errors
    ///
    /// Returns an error if a flow is invalid for the mesh, and
    /// [`wnoc_core::Error::SimulationStalled`] if the network fails to drain
    /// after the release window — an unstable curve (sustained rate above
    /// the service rate) surfaces as this error rather than as a silently
    /// truncated report.
    pub fn run_bursty(
        &mut self,
        flows: &FlowSet,
        message_flits: u32,
        curve: &ArrivalCurve,
        cycles: u64,
        seed: u64,
    ) -> Result<SaturatedReport> {
        let mut messages = Vec::new();
        for (id, flow) in flows.iter() {
            for cycle in schedule_for(curve, cycles, seed, id.0 as u64) {
                messages.push(ScheduledMessage {
                    cycle,
                    src: flow.src,
                    dst: flow.dst,
                    size_flits: message_flits,
                });
            }
        }
        let report = self.run_schedule(&ScheduledTraffic::new(messages))?;
        Ok(SaturatedReport {
            measured_cycles: cycles,
            ..report
        })
    }

    /// Runs open-loop random traffic like [`Simulation::run_traffic`] but
    /// returns the per-flow traversal summary as a [`SaturatedReport`] — the
    /// deterministic re-run hook: rebuilding the simulation and the generator
    /// with the same `rand_chacha` seed reproduces the report exactly.
    ///
    /// # Errors
    ///
    /// Returns an error if a generated message is invalid, and
    /// [`wnoc_core::Error::SimulationStalled`] if the network fails to drain
    /// within `drain_limit` — undelivered messages are invisible to the
    /// per-flow statistics, so a partial drain must not masquerade as a
    /// complete report.
    pub fn run_traffic_report(
        &mut self,
        traffic: &mut RandomTraffic,
        cycles: u64,
        drain_limit: u64,
    ) -> Result<SaturatedReport> {
        self.drive_traffic(traffic, cycles)?;
        self.network.step_until_quiescent(drain_limit)?;
        Ok(SaturatedReport {
            measured_cycles: cycles,
            per_flow: sampled_flows(&self.network.stats().traversal_latency),
        })
    }

    /// Convenience: measures the observed per-flow worst traversal latencies of
    /// the all-to-one hotspot scenario (every node to `hotspot`) under
    /// saturation.
    ///
    /// # Errors
    ///
    /// Returns an error if `hotspot` lies outside the mesh.
    pub fn saturated_hotspot(
        mesh: Mesh,
        config: NocConfig,
        hotspot: Coord,
        message_flits: u32,
        warmup: u64,
        measure: u64,
    ) -> Result<SaturatedReport> {
        let flows = FlowSet::all_to_one(&mesh, hotspot)?;
        let mut sim = Simulation::new(mesh, config, &flows)?;
        sim.run_saturated(&flows, message_flits, warmup, measure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficPattern;

    #[test]
    fn light_random_traffic_drains() {
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_all(&mesh).unwrap();
        let mut sim = Simulation::new(mesh, NocConfig::regular(4), &flows).unwrap();
        let mut traffic =
            RandomTraffic::new(mesh, TrafficPattern::UniformRandom, 0.02, 4, 3).unwrap();
        let drained = sim.run_traffic(&mut traffic, 500, 10_000).unwrap();
        assert!(drained);
        let stats = sim.stats();
        assert_eq!(stats.messages_offered, stats.messages_delivered);
        assert!(stats.messages_delivered > 0);
    }

    #[test]
    fn saturated_hotspot_shows_unfairness_under_round_robin() {
        // Under saturation towards R(0,0), the regular round-robin mesh gives
        // far-away nodes much worse observed worst latencies than near nodes.
        let mesh = Mesh::square(4).unwrap();
        let report = Simulation::saturated_hotspot(
            mesh,
            NocConfig::regular(1),
            Coord::from_row_col(0, 0),
            1,
            2_000,
            4_000,
        )
        .unwrap();
        assert!(!report.per_flow.is_empty());
        assert!(
            report.max() > 4 * report.min_of_max(),
            "max {} vs min-of-max {}",
            report.max(),
            report.min_of_max()
        );
    }

    #[test]
    fn waw_wap_reduces_worst_observed_latency_spread() {
        let mesh = Mesh::square(4).unwrap();
        let hotspot = Coord::from_row_col(0, 0);
        let regular =
            Simulation::saturated_hotspot(mesh, NocConfig::regular(1), hotspot, 1, 2_000, 4_000)
                .unwrap();
        let proposed =
            Simulation::saturated_hotspot(mesh, NocConfig::waw_wap(), hotspot, 1, 2_000, 4_000)
                .unwrap();
        // The spread between the worst- and best-served flows shrinks with
        // WaW+WaP (the core fairness claim of the paper).
        let regular_spread = regular.max() as f64 / regular.min_of_max().max(1) as f64;
        let proposed_spread = proposed.max() as f64 / proposed.min_of_max().max(1) as f64;
        assert!(
            proposed_spread < regular_spread,
            "proposed spread {proposed_spread} vs regular {regular_spread}"
        );
    }

    #[test]
    fn closed_loop_is_deterministic_and_bounded_by_saturated() {
        let mesh = Mesh::square(3).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let run = || {
            let mut sim = Simulation::new(mesh, NocConfig::regular(1), &flows).unwrap();
            sim.run_closed_loop(&flows, 1, 2_000).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "closed-loop runs must be reproducible");
        assert!(!a.is_empty());
        // Every flow keeps probing, so every flow is observed.
        assert_eq!(a.per_flow_max().len(), flows.len());
        // Self-queueing is excluded, so the worst observation sits below the
        // saturated run's (which includes input-buffer queueing delay).
        let mut sat = Simulation::new(mesh, NocConfig::regular(1), &flows).unwrap();
        let saturated = sat.run_saturated(&flows, 1, 1_000, 2_000).unwrap();
        assert!(
            a.max() <= saturated.max(),
            "{} vs {}",
            a.max(),
            saturated.max()
        );
    }

    #[test]
    fn closed_loop_handles_multiple_flows_per_source() {
        let mesh = Mesh::square(3).unwrap();
        // Both directions between every node and R(0,0): each non-memory node
        // sources one flow, the memory node sources eight.
        let flows = FlowSet::to_and_from_endpoints(&mesh, &[Coord::from_row_col(0, 0)]).unwrap();
        let mut sim = Simulation::new(mesh, NocConfig::waw_wap(), &flows).unwrap();
        let report = sim.run_closed_loop(&flows, 1, 4_000).unwrap();
        // The memory node cycles through its flows, so all of them are hit.
        assert_eq!(report.per_flow_max().len(), flows.len());
    }

    #[test]
    fn traffic_report_reproduces_with_the_same_seed() {
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_all(&mesh).unwrap();
        let run = |seed: u64| {
            let mut sim = Simulation::new(mesh, NocConfig::regular(4), &flows).unwrap();
            let mut traffic =
                RandomTraffic::new(mesh, TrafficPattern::UniformRandom, 0.05, 4, seed).unwrap();
            sim.run_traffic_report(&mut traffic, 400, 10_000).unwrap()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn report_edge_cases() {
        // Fully empty report.
        let empty = SaturatedReport {
            measured_cycles: 10,
            per_flow: HashMap::new(),
        };
        assert!(empty.is_empty());
        assert_eq!(empty.max(), 0);
        assert_eq!(empty.min_of_max(), 0);
        assert_eq!(empty.mean_of_max(), 0.0);
        assert!(empty.per_flow_max().is_empty());
        assert_eq!(empty.flow_max(FlowId(0)), None);
        assert!(empty.overall().is_empty());

        // A flow entry without samples must not drag minima or means to zero.
        let mut per_flow = HashMap::new();
        per_flow.insert(FlowId(0), LatencyStats::new());
        let mut seen = LatencyStats::new();
        seen.record(40);
        per_flow.insert(FlowId(1), seen);
        let report = SaturatedReport {
            measured_cycles: 10,
            per_flow,
        };
        assert!(!report.is_empty());
        assert_eq!(report.min_of_max(), 40);
        assert_eq!(report.mean_of_max(), 40.0);
        assert_eq!(report.per_flow_max(), vec![(FlowId(1), 40)]);
        assert_eq!(report.flow_max(FlowId(0)), None);
        assert_eq!(report.flow_max(FlowId(1)), Some(40));
        assert_eq!(report.overall().count, 1);
    }

    #[test]
    fn report_summaries() {
        let mut per_flow = HashMap::new();
        let mut a = LatencyStats::new();
        a.record(10);
        a.record(30);
        let mut b = LatencyStats::new();
        b.record(100);
        per_flow.insert(FlowId(0), a);
        per_flow.insert(FlowId(1), b);
        let report = SaturatedReport {
            measured_cycles: 100,
            per_flow,
        };
        assert_eq!(report.max(), 100);
        assert_eq!(report.min_of_max(), 30);
        assert!((report.mean_of_max() - 65.0).abs() < 1e-9);
    }
}
