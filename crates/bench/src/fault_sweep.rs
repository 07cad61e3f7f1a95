//! Degraded-mode WCTT under link/router faults (experiment `F1`).
//!
//! Injects pinned permanent faults into the all-to-one hotspot platform on
//! the 4×4 and 8×8 meshes and prints, per fault scenario, the observed
//! closed-loop worst message latency next to two analytic bounds:
//!
//! * **healthy bound** — the buffer-aware WCTT of the original XY-routed
//!   flow set, valid only while every link is up;
//! * **degraded bound** — the buffer-aware WCTT of the surviving flows
//!   rerouted over the up*/down* spanning forest of the faulted topology
//!   ([`wnoc_core::fault::reroute_flows`], the same construction the
//!   incremental engine's fault mutations are verified against).
//!
//! All faults in the table activate at cycle 0, so every observation happens
//! on the degraded topology and the degraded bound must dominate — the
//! golden pins zero violations.  The table makes the cost of fault tolerance
//! visible: tree routes are longer and more contended than XY routes, so the
//! degraded bound climbs with every severed link while the healthy bound
//! silently stops being a guarantee at all.
//!
//! A second section activates the same faults **mid-run**: the epoch flush
//! truncates in-flight worms (NACKed messages retransmit from the NIC,
//! severed traffic is dropped as undeliverable), and the pinned invariant is
//! that the network always drains — the retransmission counters, not a
//! latency bound, are the artefact.

use wnoc_core::analysis::oracle::{BufferAwareOracle, WcttBoundModel};
use wnoc_core::fault::reroute_flows;
use wnoc_core::flow::FlowSet;
use wnoc_core::{
    BufferConfig, Coord, Direction, FaultPlan, FlowId, Mesh, NocConfig, Result, RetransmitPolicy,
    TreeRouting,
};
use wnoc_sim::Simulation;

/// Probe message size of the cycle-0 table: one WaP slice, the per-packet
/// quantity the WaW + WaP analyses bound against closed-loop observation.
pub const MESSAGE_FLITS: u32 = 1;

/// Probe message size of the mid-run section: a 4-flit worm under the
/// regular `L = 4` design, so the epoch flush truncates mid-worm (no bound
/// is claimed there — the drain invariant is the artefact).
pub const MIDRUN_MESSAGE_FLITS: u32 = 4;

/// The fault scenarios swept per mesh, in rendering order.  Faults are
/// pinned around the hotspot router `R(0,0)` (row/col coordinates): the
/// severed links are the column-1 West links the XY routes lean on hardest,
/// so the reroute is load-bearing — but row 3 stays intact, so the sink is
/// never isolated and the degraded bound remains a claim about real traffic.
pub fn swept_faults(activation: u64) -> Vec<(String, FaultPlan)> {
    let mut one_link = FaultPlan::new();
    one_link.fail_link(Coord::from_row_col(0, 1), Direction::West, activation);
    let mut two_links = one_link.clone();
    two_links.fail_link(Coord::from_row_col(1, 1), Direction::West, activation);
    let mut three_links = two_links.clone();
    three_links.fail_link(Coord::from_row_col(2, 1), Direction::West, activation);
    let mut router = FaultPlan::new();
    router.fail_router(Coord::from_row_col(1, 1), activation);
    vec![
        ("healthy".to_string(), FaultPlan::new()),
        ("1 link".to_string(), one_link),
        ("2 links".to_string(), two_links),
        ("3 links".to_string(), three_links),
        ("router".to_string(), router),
    ]
}

/// One fault scenario of one mesh, degraded from cycle 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPoint {
    /// Scenario label (`healthy`, `1 link`, ...).
    pub label: String,
    /// Flows with a route on the degraded topology.
    pub survivors: usize,
    /// Flows severed by the faults (source or sink unreachable).
    pub severed: usize,
    /// Worst observed closed-loop end-to-end message latency.
    pub observed_max: u64,
    /// Worst-flow buffer-aware bound of the *original* XY-routed set.
    pub healthy_bound: u64,
    /// Worst-flow buffer-aware bound of the tree-rerouted surviving set.
    pub degraded_bound: u64,
    /// Surviving flows whose observation exceeded their degraded bound —
    /// must be zero (the golden pins it).
    pub dominance_violations: usize,
}

/// The cycle-0 fault sweep of one mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSweepRow {
    /// Mesh side.
    pub side: u16,
    /// Design label.
    pub design: String,
    /// One sample per entry of [`swept_faults`].
    pub points: Vec<FaultPoint>,
}

/// One mid-run activation sample: the fault fires while worms are in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MidrunPoint {
    /// Scenario label.
    pub label: String,
    /// Activation cycle of every fault in the plan.
    pub activation: u64,
    /// Messages delivered end-to-end over the whole run.
    pub messages_delivered: u64,
    /// Messages NACKed by the epoch flush and retransmitted from the NIC.
    pub messages_retransmitted: u64,
    /// Flits truncated out of routers and links by the flush.
    pub flits_purged: u64,
    /// Messages dropped because no degraded route exists.
    pub messages_undeliverable: u64,
    /// `true` when the run drained (no deadlock, no wedged worm) — must be
    /// `true` on every row (the golden pins it).
    pub drained: bool,
}

/// The complete degraded-mode table plus the mid-run activation section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSweepTable {
    /// One cycle-0 fault sweep per mesh.
    pub rows: Vec<FaultSweepRow>,
    /// Mid-run activation samples (4×4 mesh).
    pub midrun: Vec<MidrunPoint>,
}

impl FaultSweepTable {
    /// Runs the sweep: 4×4 and 8×8 all-to-one hotspot platforms under the
    /// WaW + WaP design (the buffer-aware oracle's domain — it does not
    /// claim regular round-robin arbitration), every fault of
    /// [`swept_faults`] at cycle 0,
    /// then the mid-run activation section.  Fully deterministic (pinned
    /// plans, closed-loop traffic, default retransmit policy).
    ///
    /// # Errors
    ///
    /// Returns an error if a platform fails to build or a run fails to
    /// drain — a deadlock under fault injection is a finding, not noise.
    pub fn generate() -> Result<Self> {
        let config = NocConfig::waw_wap();
        let mut rows = Vec::new();
        for side in [4u16, 8] {
            let mesh = Mesh::square(side)?;
            let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0))?;
            let cycles = u64::from(side) * 1_000;
            let mut points = Vec::new();
            for (label, plan) in swept_faults(0) {
                points.push(sample_point(label, &plan, &mesh, &flows, &config, cycles)?);
            }
            rows.push(FaultSweepRow {
                side,
                design: config.label(),
                points,
            });
        }
        // Mid-run section: multi-flit worms under the regular design, so the
        // epoch flush provably truncates in-flight worms (a WaP slice is a
        // single flit and would never be caught mid-route).
        let midrun_config = NocConfig::regular(4);
        let mesh = Mesh::square(4)?;
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0))?;
        let mut midrun = Vec::new();
        for (label, plan) in swept_faults(500) {
            if plan.is_empty() {
                continue;
            }
            midrun.push(sample_midrun(label, &plan, &mesh, &flows, &midrun_config)?);
        }
        Ok(Self { rows, midrun })
    }

    /// Deterministic human-readable rendering (the golden snapshot).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("Degraded-mode WCTT — pinned link/router faults, all-to-one hotspot R(0,0)\n");
        out.push_str(
            "(faults activate at cycle 0; survivors are rerouted over the up*/down* \
             spanning forest\n and held to a freshly built degraded bound — the healthy \
             bound stops applying entirely)\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "\n== {}x{} {} mf={} ==\n",
                row.side, row.side, row.design, MESSAGE_FLITS
            ));
            out.push_str(
                "fault    | survivors | severed | observed max | healthy bound | \
                 degraded bound | violations\n",
            );
            for point in &row.points {
                out.push_str(&format!(
                    "{:<8} | {:>9} | {:>7} | {:>12} | {:>13} | {:>14} | {:>10}\n",
                    point.label,
                    point.survivors,
                    point.severed,
                    point.observed_max,
                    point.healthy_bound,
                    point.degraded_bound,
                    point.dominance_violations
                ));
            }
        }
        out.push_str(&format!(
            "\n== mid-run activation (epoch flush + NIC retransmission, 4x4 regular \
             L=4 mf={MIDRUN_MESSAGE_FLITS}) ==\n"
        ));
        out.push_str(
            "fault    | activation | delivered | retransmitted | purged flits | \
             undeliverable | drained\n",
        );
        for point in &self.midrun {
            out.push_str(&format!(
                "{:<8} | {:>10} | {:>9} | {:>13} | {:>12} | {:>13} | {}\n",
                point.label,
                point.activation,
                point.messages_delivered,
                point.messages_retransmitted,
                point.flits_purged,
                point.messages_undeliverable,
                point.drained
            ));
        }
        out
    }
}

/// Runs one cycle-0 fault scenario and checks degraded dominance.
fn sample_point(
    label: String,
    plan: &FaultPlan,
    mesh: &Mesh,
    flows: &FlowSet,
    config: &NocConfig,
    cycles: u64,
) -> Result<FaultPoint> {
    let buffers = BufferConfig::uniform(config.input_buffer_flits);
    let mut healthy = BufferAwareOracle::new(flows, config, *mesh, buffers.clone());
    let healthy_bound = flows
        .iter()
        .filter_map(|(id, _)| healthy.message_bound(id, MESSAGE_FLITS))
        .max()
        .unwrap_or(0);

    // The healthy baseline keeps its XY routes: rerouting is a response to
    // faults, not a standing tax (tree routes are longer even on a healthy
    // mesh, so an unconditional reroute would inflate the baseline bound).
    let reroute = if plan.is_empty() {
        wnoc_core::fault::Reroute {
            flows: flows.clone(),
            surviving: flows.iter().map(|(id, _)| id).collect(),
            severed: Vec::new(),
        }
    } else {
        let tree = TreeRouting::new(&plan.final_set(mesh));
        reroute_flows(flows, &tree)?
    };
    let mut degraded = BufferAwareOracle::new(&reroute.flows, config, *mesh, buffers);
    let degraded_bound = reroute
        .flows
        .iter()
        .filter_map(|(id, _)| degraded.message_bound(id, MESSAGE_FLITS))
        .max()
        .unwrap_or(0);

    let mut sim = Simulation::new(*mesh, *config, flows)?;
    if !plan.is_empty() {
        sim.install_fault_plan(plan.clone(), RetransmitPolicy::default())?;
    }
    let report = sim.run_closed_loop(flows, MESSAGE_FLITS, cycles)?;

    let mut violations = 0usize;
    for (original, observed) in report.per_flow_max() {
        let Some(position) = reroute.surviving.iter().position(|&id| id == original) else {
            continue;
        };
        if let Some(bound) = degraded.message_bound(FlowId(position), MESSAGE_FLITS) {
            if observed > bound {
                violations += 1;
            }
        }
    }
    Ok(FaultPoint {
        label,
        survivors: reroute.surviving.len(),
        severed: reroute.severed.len(),
        observed_max: report.max(),
        healthy_bound,
        degraded_bound,
        dominance_violations: violations,
    })
}

/// Runs one mid-run activation scenario; the run must drain.
fn sample_midrun(
    label: String,
    plan: &FaultPlan,
    mesh: &Mesh,
    flows: &FlowSet,
    config: &NocConfig,
) -> Result<MidrunPoint> {
    let activation = plan.activations().iter().copied().max().unwrap_or(0);
    let mut sim = Simulation::new(*mesh, *config, flows)?;
    sim.install_fault_plan(plan.clone(), RetransmitPolicy::default())?;
    let report = sim.run_closed_loop(flows, MIDRUN_MESSAGE_FLITS, 4_000);
    let drained = report.is_ok();
    report?;
    let stats = sim.stats();
    Ok(MidrunPoint {
        label,
        activation,
        messages_delivered: stats.messages_delivered,
        messages_retransmitted: stats.messages_retransmitted,
        flits_purged: stats.flits_purged,
        messages_undeliverable: stats.messages_undeliverable,
        drained,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swept_faults_escalate() {
        let faults = swept_faults(0);
        assert_eq!(faults.len(), 5);
        assert!(
            faults[0].1.is_empty(),
            "first point is the healthy baseline"
        );
        // Link counts escalate 0, 1, 2, 3 and the last plan kills a router.
        for (expected, (_, plan)) in faults.iter().take(4).enumerate() {
            assert_eq!(plan.len(), expected);
        }
        assert_eq!(faults[4].0, "router");
    }

    /// The 4×4 cycle-0 sweep end to end: survivors deliver under every fault,
    /// the degraded bound dominates, and severed counts grow with the plan.
    #[test]
    fn small_sweep_invariants() {
        let config = NocConfig::waw_wap();
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let mut last_severed = 0;
        for (label, plan) in swept_faults(0) {
            let point = sample_point(label.clone(), &plan, &mesh, &flows, &config, 4_000).unwrap();
            assert_eq!(point.dominance_violations, 0, "{label}");
            assert!(point.survivors > 0, "{label}");
            assert!(point.severed >= last_severed, "{label}");
            last_severed = point.severed;
            if plan.is_empty() {
                assert_eq!(point.severed, 0, "{label}");
                assert_eq!(
                    point.healthy_bound, point.degraded_bound,
                    "healthy reroute is a bound-preserving identity"
                );
            }
            assert!(point.observed_max > 0, "{label}");
        }
    }

    /// Mid-run activations must drain and actually exercise the epoch flush:
    /// at least one sample retransmits and at least one drops traffic.
    #[test]
    fn midrun_points_drain_and_retransmit() {
        let config = NocConfig::regular(4);
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let mut retransmitted = 0u64;
        let mut undeliverable = 0u64;
        for (label, plan) in swept_faults(500) {
            if plan.is_empty() {
                continue;
            }
            let point = sample_midrun(label.clone(), &plan, &mesh, &flows, &config).unwrap();
            assert!(point.drained, "{label}");
            assert!(point.messages_delivered > 0, "{label}");
            retransmitted += point.messages_retransmitted;
            undeliverable += point.messages_undeliverable;
        }
        assert!(retransmitted > 0, "no sample retransmitted");
        assert!(undeliverable > 0, "no sample severed live traffic");
    }

    #[test]
    fn render_lists_every_point() {
        let table = FaultSweepTable {
            rows: vec![FaultSweepRow {
                side: 4,
                design: "waw+wap".to_string(),
                points: swept_faults(0)
                    .into_iter()
                    .map(|(label, _)| FaultPoint {
                        label,
                        survivors: 15,
                        severed: 0,
                        observed_max: 10,
                        healthy_bound: 20,
                        degraded_bound: 30,
                        dominance_violations: 0,
                    })
                    .collect(),
            }],
            midrun: vec![MidrunPoint {
                label: "router".to_string(),
                activation: 500,
                messages_delivered: 100,
                messages_retransmitted: 3,
                flits_purged: 12,
                messages_undeliverable: 2,
                drained: true,
            }],
        };
        let text = table.render();
        for (label, _) in swept_faults(0) {
            assert!(text.contains(&label), "{text}");
        }
        assert!(text.contains("mid-run activation"), "{text}");
        assert!(text.contains("degraded bound"), "{text}");
    }
}
