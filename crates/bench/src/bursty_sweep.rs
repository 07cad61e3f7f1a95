//! Bound-vs-burst sweep: arrival phasing as a design axis (experiment `Bu1`).
//!
//! Sweeps the arrival-curve burst parameter `b` over the all-to-one hotspot
//! platform on the 4×4 and 8×8 meshes under the WaW + WaP design, printing
//! the observed open-loop worst **end-to-end message latency** (offer to
//! delivery, self-queueing included) next to two analytic bounds:
//!
//! * **buffer-aware** — the Mifdaoui & Ayed backpressure-aware bound
//!   (arXiv:1602.01732), which models one in-flight message per flow and is
//!   therefore only observation-safe at `b ≤ 1`;
//! * **graph-ba** — the graph-based buffer-aware extension (after Giroudot &
//!   Mifdaoui, arXiv:1911.02430), which charges the self-queueing of a
//!   `b`-deep burst and is the dominance oracle of the bursty conformance
//!   dimension.
//!
//! The table makes the division of labour visible: as `b` grows the observed
//! maximum climbs past the buffer-aware base bound while staying below the
//! graph bound, which collapses onto the base bound at `b ≤ 1`.  A second
//! section replays the recorded EEMBC and avionics workload traces through
//! the same open-loop driver ([`wnoc_workloads::replay`]), pinning the
//! trace-replay path end to end.

use wnoc_core::analysis::oracle::{BufferAwareOracle, GraphBufferAwareOracle, WcttBoundModel};
use wnoc_core::flow::FlowSet;
use wnoc_core::{ArrivalCurve, BufferConfig, Coord, Mesh, NocConfig, Result};
use wnoc_sim::Simulation;
use wnoc_workloads::avionics::TrafficModel;
use wnoc_workloads::{default_scenario, eembc_suite_schedule, parallel_phases_schedule, Placement};

/// Fixed seed of the sweep's jittered release schedules (and of the recorded
/// workload traces), pinned so the golden snapshot is reproducible.
pub const SWEEP_SEED: u64 = 7;

/// The `(burst, cv)` points swept per mesh, in rendering order: bursts 0–6 at
/// zero jitter, then the deepest burst again under heavy (cv = 50%) jitter to
/// exercise the graph bound's jitter allowance.
pub fn swept_bursts() -> Vec<(u32, u32)> {
    vec![(0, 0), (1, 0), (2, 0), (4, 0), (6, 0), (6, 50)]
}

/// One burst sample of one platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstPoint {
    /// Arrival-curve burst depth `b`.
    pub burst: u32,
    /// Inter-arrival jitter, percent of the sustained gap.
    pub cv: u32,
    /// Worst observed open-loop end-to-end message latency across all flows.
    pub observed_max: u64,
    /// Worst-flow buffer-aware message bound (burst-blind base analysis).
    pub buffer_aware_bound: u64,
    /// Worst-flow graph-based bound under this point's arrival curve.
    pub graph_bound: u64,
    /// Flows whose observation exceeded their graph bound — must be zero
    /// (the golden pins it).
    pub dominance_violations: usize,
}

/// The burst sweep of one mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstySweepRow {
    /// Mesh side.
    pub side: u16,
    /// Design label.
    pub design: String,
    /// Probe message size in regular-packetization flits.
    pub message_flits: u32,
    /// Sustained inter-arrival gap in cycles (twice the worst buffer-aware
    /// message bound, the stability margin the graph analysis assumes).
    pub gap: u32,
    /// One sample per entry of [`swept_bursts`].
    pub points: Vec<BurstPoint>,
}

/// One trace-replay sample: a recorded workload driven through the open-loop
/// scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayRow {
    /// Workload label (`eembc-suite`, `avionics-phases`).
    pub label: String,
    /// Mesh side.
    pub side: u16,
    /// Messages released by the schedule.
    pub messages: u64,
    /// Release cycle of the last message.
    pub horizon: u64,
    /// Worst observed end-to-end message latency.
    pub observed_max: u64,
}

/// The complete bound-vs-burst table plus the trace-replay section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BurstySweepTable {
    /// One burst-sweep row per mesh.
    pub rows: Vec<BurstySweepRow>,
    /// One row per replayed workload trace.
    pub replays: Vec<ReplayRow>,
}

impl BurstySweepTable {
    /// Runs the sweep: 4×4 and 8×8 all-to-one hotspot platforms under the
    /// WaW + WaP design, every point of [`swept_bursts`], then the EEMBC
    /// suite and avionics parallel-phase replays.  Fully deterministic (the
    /// jittered schedules and recorded traces are seeded by [`SWEEP_SEED`]).
    ///
    /// # Errors
    ///
    /// Returns an error if a platform fails to build or drain.
    pub fn generate() -> Result<Self> {
        let config = NocConfig::waw_wap();
        let message_flits = 2u32;
        let mut rows = Vec::new();
        for side in [4u16, 8] {
            let mesh = Mesh::square(side)?;
            let hotspot = Coord::from_row_col(0, 0);
            let flows = FlowSet::all_to_one(&mesh, hotspot)?;
            let buffers = BufferConfig::uniform(config.input_buffer_flits);
            // The stability margin the graph analysis assumes: the sustained
            // gap clears twice the worst base bound, so the network drains
            // between sustained arrivals even under maximal jitter.
            let mut base = BufferAwareOracle::new(&flows, &config, mesh, buffers.clone());
            let worst = flows
                .iter()
                .filter_map(|(id, _)| base.message_bound(id, message_flits))
                .max()
                .unwrap_or(0);
            let gap = u32::try_from(2 * worst).unwrap_or(u32::MAX);
            let cycles = u64::from(gap) * 5 + 500;
            let mut points = Vec::new();
            for (burst, cv) in swept_bursts() {
                let curve = ArrivalCurve::bursty(burst, gap).with_jitter(cv);
                let mut sim = Simulation::new(mesh, config, &flows)?;
                let report = sim.run_bursty(&flows, message_flits, &curve, cycles, SWEEP_SEED)?;
                points.push(sample_point(
                    &flows,
                    &config,
                    mesh,
                    &buffers,
                    curve,
                    message_flits,
                    &report.per_flow_max(),
                    report.max(),
                ));
            }
            rows.push(BurstySweepRow {
                side,
                design: config.label(),
                message_flits,
                gap,
                points,
            });
        }
        Ok(Self {
            rows,
            replays: vec![eembc_replay(&config)?, avionics_replay(&config)?],
        })
    }

    /// Deterministic human-readable rendering (the golden snapshot).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "Arrival phasing as a design axis — bound vs burst, all-to-one hotspot R(0,0)\n",
        );
        out.push_str(
            "(open-loop arrival-curve injection; observed latencies are end-to-end and \
             include self-queueing,\n so only the graph-based bound claims dominance for \
             b > 1 — see docs/ORACLES.md)\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "\n== {}x{} {} mf={} gap={} ==\n",
                row.side, row.side, row.design, row.message_flits, row.gap
            ));
            out.push_str(
                "burst | cv% | observed max | buffer-aware bound | graph bound | violations\n",
            );
            for point in &row.points {
                out.push_str(&format!(
                    "{:>5} | {:>3} | {:>12} | {:>18} | {:>11} | {:>10}\n",
                    point.burst,
                    point.cv,
                    point.observed_max,
                    point.buffer_aware_bound,
                    point.graph_bound,
                    point.dominance_violations
                ));
            }
        }
        out.push_str("\n== trace replay (open-loop, recorded workloads) ==\n");
        out.push_str("workload        | mesh | messages | horizon | observed max\n");
        for replay in &self.replays {
            out.push_str(&format!(
                "{:<15} | {:>2}x{:<2} | {:>8} | {:>7} | {:>12}\n",
                replay.label,
                replay.side,
                replay.side,
                replay.messages,
                replay.horizon,
                replay.observed_max
            ));
        }
        out
    }
}

/// Computes one table point from a finished bursty run.
#[allow(clippy::too_many_arguments)]
fn sample_point(
    flows: &FlowSet,
    config: &NocConfig,
    mesh: Mesh,
    buffers: &BufferConfig,
    curve: ArrivalCurve,
    message_flits: u32,
    per_flow_max: &[(wnoc_core::FlowId, u64)],
    observed_max: u64,
) -> BurstPoint {
    let mut base = BufferAwareOracle::new(flows, config, mesh, buffers.clone());
    let mut graph = GraphBufferAwareOracle::new(flows, config, mesh, buffers.clone(), curve);
    let buffer_aware_bound = flows
        .iter()
        .filter_map(|(id, _)| base.message_bound(id, message_flits))
        .max()
        .unwrap_or(0);
    let graph_bound = flows
        .iter()
        .filter_map(|(id, _)| graph.message_bound(id, message_flits))
        .max()
        .unwrap_or(0);
    let mut violations = 0usize;
    for &(flow, observed) in per_flow_max {
        if let Some(bound) = graph.message_bound(flow, message_flits) {
            if observed > bound {
                violations += 1;
            }
        }
    }
    BurstPoint {
        burst: curve.burst,
        cv: curve.cv,
        observed_max,
        buffer_aware_bound,
        graph_bound,
        dominance_violations: violations,
    }
}

/// Replays the recorded EEMBC suite (sixteen benchmarks toward one memory
/// controller on the 5×5 mesh) through the open-loop scheduler.
fn eembc_replay(config: &NocConfig) -> Result<ReplayRow> {
    let side = 5u16;
    let mesh = Mesh::square(side)?;
    let memory = Coord::from_row_col(0, 0);
    let schedule = eembc_suite_schedule(&mesh, memory, SWEEP_SEED, 2)?;
    let flows = FlowSet::all_to_one(&mesh, memory)?;
    let mut sim = Simulation::new(mesh, *config, &flows)?;
    let report = sim.run_schedule(&schedule)?;
    Ok(ReplayRow {
        label: "eembc-suite".to_string(),
        side,
        messages: schedule.len() as u64,
        horizon: schedule.horizon(),
        observed_max: report.max(),
    })
}

/// Replays the avionics planner's barrier-synchronised parallel phases
/// (four placed threads on the 4×4 mesh) through the open-loop scheduler.
fn avionics_replay(config: &NocConfig) -> Result<ReplayRow> {
    let side = 4u16;
    let mesh = Mesh::square(side)?;
    let memory = Coord::from_row_col(0, 0);
    let cores: Vec<Coord> = mesh.routers().filter(|&c| c != memory).take(4).collect();
    let placement = Placement::new("bursty-sweep", cores, &mesh, memory)?;
    let planner = default_scenario(SWEEP_SEED)?;
    let phases = planner.parallel_phases(&placement, TrafficModel::default())?;
    let schedule = parallel_phases_schedule(&phases, &mesh, memory, 1)?;
    let flows = FlowSet::all_to_one(&mesh, memory)?;
    let mut sim = Simulation::new(mesh, *config, &flows)?;
    let report = sim.run_schedule(&schedule)?;
    Ok(ReplayRow {
        label: "avionics-phases".to_string(),
        side,
        messages: schedule.len() as u64,
        horizon: schedule.horizon(),
        observed_max: report.max(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_points_cover_zero_burst_and_jitter() {
        let points = swept_bursts();
        assert_eq!(points.len(), 6);
        // The collapse point (b ≤ 1) and a jittered point are both present.
        assert!(points.iter().any(|&(b, _)| b == 0));
        assert!(points.iter().any(|&(_, cv)| cv > 0));
        // Bursts are non-decreasing so the table reads as a sweep.
        let bursts: Vec<u32> = points.iter().map(|&(b, _)| b).collect();
        assert!(bursts.windows(2).all(|w| w[0] <= w[1]));
    }

    /// A reduced sweep (4×4 only, two points) exercising the full pipeline;
    /// the complete table is covered by the golden snapshot in release CI.
    #[test]
    fn small_sweep_invariants() {
        let config = NocConfig::waw_wap();
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut base = BufferAwareOracle::new(&flows, &config, mesh, buffers.clone());
        let worst = flows
            .iter()
            .filter_map(|(id, _)| base.message_bound(id, 2))
            .max()
            .unwrap();
        let gap = u32::try_from(2 * worst).unwrap();
        for burst in [0u32, 4] {
            let curve = ArrivalCurve::bursty(burst, gap);
            let mut sim = Simulation::new(mesh, config, &flows).unwrap();
            let report = sim
                .run_bursty(&flows, 2, &curve, u64::from(gap) * 3 + 500, SWEEP_SEED)
                .unwrap();
            let point = sample_point(
                &flows,
                &config,
                mesh,
                &buffers,
                curve,
                2,
                &report.per_flow_max(),
                report.max(),
            );
            assert_eq!(point.dominance_violations, 0, "b={burst}");
            assert!(point.observed_max > 0, "b={burst}");
            assert!(point.graph_bound >= point.buffer_aware_bound, "b={burst}");
            if burst <= 1 {
                // The graph bound collapses onto its buffer-aware base.
                assert_eq!(point.graph_bound, point.buffer_aware_bound);
            }
        }
    }

    #[test]
    fn replays_run_and_report() {
        let config = NocConfig::waw_wap();
        let eembc = eembc_replay(&config).unwrap();
        assert_eq!(eembc.label, "eembc-suite");
        assert!(eembc.messages > 0);
        assert!(eembc.observed_max > 0);
        let avionics = avionics_replay(&config).unwrap();
        assert_eq!(avionics.label, "avionics-phases");
        assert!(avionics.messages > 0);
        assert!(avionics.horizon > 0);
    }

    #[test]
    fn render_lists_every_point_and_replay() {
        let table = BurstySweepTable {
            rows: vec![BurstySweepRow {
                side: 4,
                design: "waw+wap".to_string(),
                message_flits: 2,
                gap: 100,
                points: swept_bursts()
                    .iter()
                    .map(|&(burst, cv)| BurstPoint {
                        burst,
                        cv,
                        observed_max: 10,
                        buffer_aware_bound: 20,
                        graph_bound: 20 + u64::from(burst) * 5,
                        dominance_violations: 0,
                    })
                    .collect(),
            }],
            replays: vec![ReplayRow {
                label: "eembc-suite".to_string(),
                side: 5,
                messages: 123,
                horizon: 456,
                observed_max: 78,
            }],
        };
        let text = table.render();
        for (burst, _) in swept_bursts() {
            assert!(text.contains(&format!("\n{burst:>5} | ")), "{text}");
        }
        assert!(text.contains("eembc-suite"), "{text}");
        assert!(text.contains("docs/ORACLES.md"), "{text}");
    }
}
