//! Differential oracle for the event-horizon kernel: random scenarios run
//! through **both** schedulers — the horizon kernel and the dense per-cycle
//! reference retained behind [`Network::set_dense_kernel`] — must produce
//! identical [`SaturatedReport`]s, identical aggregate statistics and
//! identical per-port flit counts.
//!
//! This is the safety net for all future kernel work: any scheduling change
//! that drifts from the dense reference (a router woken a cycle late, a WaW
//! counter missing an idle replenishment, a worm fast-forward mis-accounting
//! a credit) shows up here as a report diff with the full sampled scenario
//! attached.  On failure the scenario descriptor is also written to
//! `target/differential-failure.txt` so the nightly `deep-conformance` CI job
//! can upload it as an artifact.
//!
//! The sampling is deterministic (the vendored proptest shim derives its RNG
//! stream from the property name), so a failure reproduces on every run.
//! `DIFFERENTIAL_CASES` overrides the case count (the nightly job runs a
//! deeper sweep than the default tier-1 budget).

use proptest::prelude::*;

use wnoc_core::flow::FlowSet;
use wnoc_core::vc::{VcAssignment, VcConfig};
use wnoc_core::{
    BufferConfig, Coord, Direction, Error, FaultPlan, Mesh, NocConfig, RetransmitPolicy,
};
use wnoc_sim::network::Network;
use wnoc_sim::{RandomTraffic, SaturatedReport, Simulation, TrafficPattern};

/// One sampled differential case, printable for reproduction.
#[derive(Debug, Clone, Copy)]
struct Case {
    side: u16,
    design: u32,
    family: u32,
    message_flits: u32,
    driver: u32,
    vcs: u32,
    /// Fault dimension: 0 none, 1 one mid-run link fault, 2 one cycle-0
    /// link fault, 3 two staggered link faults (two epoch flushes).
    faults: u32,
    salt: u64,
}

impl Case {
    fn config(&self) -> NocConfig {
        match self.design % 6 {
            0 | 1 => NocConfig::waw_wap(),
            2 => NocConfig::regular(1),
            3 => NocConfig::regular(2),
            4 => NocConfig::regular(4),
            _ => NocConfig::regular(8),
        }
    }

    /// The VC configuration: count 1–4, the assignment rule salted.  Multi-VC
    /// networks disable the worm fast-forward and route through the per-VC
    /// priority arbiter, so this dimension exercises scheduling paths the
    /// single-queue sweep never reaches.
    fn vc_config(&self) -> VcConfig {
        if self.vcs <= 1 {
            return VcConfig::single();
        }
        let assignment = if self.salt % 2 == 0 {
            VcAssignment::FlowIndex
        } else {
            VcAssignment::Distance
        };
        VcConfig::new(self.vcs, assignment).expect("vc count in range")
    }

    fn flows(&self, mesh: &Mesh) -> FlowSet {
        let nodes = u64::from(self.side) * u64::from(self.side);
        let pick = self.salt % nodes;
        let coord = Coord::new(
            (pick % u64::from(self.side)) as u16,
            (pick / u64::from(self.side)) as u16,
        );
        match self.family % 3 {
            0 => FlowSet::all_to_one(mesh, coord).expect("coord inside mesh"),
            1 => FlowSet::one_to_all(mesh, coord).expect("coord inside mesh"),
            _ => FlowSet::to_and_from_endpoints(mesh, &[coord]).expect("coord inside mesh"),
        }
    }

    /// The sampled fault plan: directed link faults only, so the mesh can
    /// partition (a severed pair is a legitimate outcome both kernels must
    /// agree on) but drivers that offer unconditionally can still run.
    fn fault_plan(&self, mesh: &Mesh) -> Option<FaultPlan> {
        if self.faults == 0 {
            return None;
        }
        let links = mesh.links();
        let pick = |offset: u64| {
            let index = (self.salt.wrapping_mul(31).wrapping_add(offset)) % links.len() as u64;
            let link = links[index as usize];
            (link.from, link.direction)
        };
        let mut plan = FaultPlan::new();
        match self.faults {
            1 => {
                let (coord, dir) = pick(0);
                plan.fail_link(coord, dir, 37);
            }
            2 => {
                let (coord, dir) = pick(0);
                plan.fail_link(coord, dir, 0);
            }
            _ => {
                let (first, first_dir) = pick(0);
                let (second, second_dir) = pick(7);
                plan.fail_link(first, first_dir, 13);
                plan.fail_link(second, second_dir, 53);
            }
        }
        Some(plan)
    }

    /// Runs the case under one scheduler and returns every observable the
    /// differential compares.  The driver result is compared as a `Result`:
    /// a faulted case may legitimately fail to drain or sever a pair, and
    /// both kernels must agree on the exact error too.
    fn run(&self, dense: bool) -> (Result<SaturatedReport, Error>, Vec<u64>, Vec<u64>) {
        let mesh = Mesh::square(self.side).expect("side in range");
        let config = self.config();
        let flows = self.flows(&mesh);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut sim = Simulation::with_vcs(mesh, config, &flows, &buffers, self.vc_config())
            .expect("valid platform");
        sim.set_dense_kernel(dense);
        if let Some(plan) = self.fault_plan(&mesh) {
            sim.install_fault_plan(plan, RetransmitPolicy::default())
                .expect("sampled plan fits the mesh");
        }
        let report = match self.driver % 3 {
            0 => sim.run_closed_loop(&flows, self.message_flits, 250),
            1 => sim.run_saturated(&flows, self.message_flits, 80, 160),
            _ => {
                let mut traffic = RandomTraffic::new(
                    mesh,
                    TrafficPattern::UniformRandom,
                    0.08,
                    self.message_flits,
                    self.salt,
                )
                .expect("valid generator");
                sim.run_traffic_report(&mut traffic, 200, 50_000)
            }
        };
        let stats = sim.stats();
        let aggregates = vec![
            stats.cycles,
            stats.messages_offered,
            stats.messages_delivered,
            stats.packets_injected,
            stats.packets_delivered,
            stats.flits_injected,
            stats.flits_delivered,
            stats.messages_retransmitted,
            stats.messages_undeliverable,
            stats.flits_purged,
        ];
        let ports = port_counts(sim.network(), &mesh);
        (report, aggregates, ports)
    }
}

/// Every per-(router, output) flit counter, in deterministic order.
fn port_counts(network: &Network, mesh: &Mesh) -> Vec<u64> {
    let mut counts = Vec::new();
    for coord in mesh.routers() {
        for port in wnoc_core::Port::ALL {
            counts.push(network.port_flits(coord, port));
        }
    }
    counts
}

/// Case budget: quick under the tier-1 debug run, deeper in release and
/// deeper still when the nightly job raises `DIFFERENTIAL_CASES`.
fn cases() -> u32 {
    if let Ok(value) = std::env::var("DIFFERENTIAL_CASES") {
        return value.parse().expect("DIFFERENTIAL_CASES is a number");
    }
    if cfg!(debug_assertions) {
        6
    } else {
        32
    }
}

/// Persists the failing case for the CI artifact upload, then panics.
fn fail(case: &Case, what: &str) -> ! {
    let description = format!("differential kernel mismatch: {what}\ncase: {case:?}\n");
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/differential-failure.txt");
    let _ = std::fs::write(&path, &description);
    panic!("{description}(descriptor written to {})", path.display());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Horizon and dense schedulers agree on every observable, for any
    /// platform, design, message size, driver discipline and fault plan.
    #[test]
    fn horizon_and_dense_kernels_are_bit_identical(
        side in 2u16..=8,
        design in 0u32..6,
        family in 0u32..3,
        message_flits in 1u32..=8,
        driver in 0u32..3,
        vcs in 1u32..=4,
        faults in 0u32..4,
        salt in 0u64..1_000,
    ) {
        let case = Case { side, design, family, message_flits, driver, vcs, faults, salt };
        let (horizon_report, horizon_stats, horizon_ports) = case.run(false);
        let (dense_report, dense_stats, dense_ports) = case.run(true);
        if horizon_report != dense_report {
            fail(&case, "SaturatedReport diverged");
        }
        if horizon_stats != dense_stats {
            fail(&case, "aggregate NetworkStats diverged");
        }
        if horizon_ports != dense_ports {
            fail(&case, "per-port flit counters diverged");
        }
        // The equality itself is the property; some short saturated windows
        // legitimately record nothing, so emptiness is not asserted.
        prop_assert_eq!(horizon_stats.len(), 10);
    }
}

/// Pinned regression: the multi-VC hotspot where every ring of the ejection
/// port is contended and the strict-priority VC arbiter interleaves worms
/// every cycle.  Both schedulers must walk the identical per-VC credit and
/// hold state (the horizon kernel may never fast-forward here).
#[test]
fn multi_vc_hotspot_matches_dense() {
    for vcs in 2u32..=4 {
        for salt in [24u64, 25] {
            // salt parity flips the assignment rule (index vs distance).
            let case = Case {
                side: 4,
                design: 4,
                family: 0,
                message_flits: 4,
                driver: 0,
                vcs,
                faults: 0,
                salt,
            };
            let horizon = case.run(false);
            let dense = case.run(true);
            assert_eq!(horizon, dense, "multi-VC divergence for {case:?}");
            assert!(
                !horizon.0.as_ref().expect("hotspot drains").is_empty(),
                "the hotspot must complete probes for {case:?}"
            );
        }
    }
}

/// Pinned regression: a fault epoch flush that truncates a worm mid-flight.
/// A long message is strung across the mesh when the activation fires, so the
/// flush must purge flits from several router rings, NACK the tail, and
/// retransmit the whole message over the up*/down* tree — with the
/// dense and event-horizon kernels agreeing on every observable (the horizon
/// kernel settles its lazy arbiter idle-debt against the frozen pre-purge
/// request fronts before the purge; an off-by-one there shows up here).
#[test]
fn midrun_worm_truncation_matches_dense() {
    for config in [NocConfig::regular(4), NocConfig::waw_wap()] {
        let mesh = Mesh::square(5).unwrap();
        let flows = FlowSet::from_pairs(
            &mesh,
            vec![(
                mesh.node_id(Coord::from_row_col(0, 4)).unwrap(),
                mesh.node_id(Coord::from_row_col(0, 0)).unwrap(),
            )],
        )
        .unwrap();
        // The 8-flit worm injects at cycle 1 and straddles (0, 2) when the
        // link under it dies at cycle 6.
        let plan = {
            let mut plan = FaultPlan::new();
            plan.fail_link(Coord::from_row_col(0, 2), Direction::West, 6);
            plan
        };
        let run = |dense: bool| {
            let mut sim = Simulation::new(mesh, config, &flows).unwrap();
            sim.set_dense_kernel(dense);
            sim.install_fault_plan(plan.clone(), RetransmitPolicy::default())
                .unwrap();
            let report = sim.run_closed_loop(&flows, 8, 2_000);
            let stats = sim.stats().clone();
            let ports = port_counts(sim.network(), &mesh);
            (
                report,
                stats.cycles,
                stats.messages_retransmitted,
                stats.flits_purged,
                ports,
            )
        };
        let horizon = run(false);
        let dense = run(true);
        assert_eq!(
            horizon,
            dense,
            "mid-worm truncation divergence under {}",
            config.label()
        );
        assert!(
            horizon.2 >= 1,
            "the straddling worm must be NACKed and retransmitted under {}",
            config.label()
        );
        assert!(
            horizon.3 >= 1,
            "the flush must purge in-flight flits under {}",
            config.label()
        );
        assert!(
            !horizon
                .0
                .as_ref()
                .expect("rerouted probe drains")
                .is_empty(),
            "the retransmitted probe must still deliver under {}",
            config.label()
        );
    }
}

/// Pinned regression: the destination router itself dies mid-run.  The flow
/// becomes unreachable, the in-flight worm is dropped undeliverable, and the
/// network must still drain identically under both kernels (the closed loop
/// skips the severed flow rather than stalling).
#[test]
fn midrun_router_death_drops_undeliverable_identically() {
    let mesh = Mesh::square(4).unwrap();
    let flows = FlowSet::from_pairs(
        &mesh,
        vec![
            (
                mesh.node_id(Coord::from_row_col(0, 3)).unwrap(),
                mesh.node_id(Coord::from_row_col(0, 0)).unwrap(),
            ),
            (
                mesh.node_id(Coord::from_row_col(3, 3)).unwrap(),
                mesh.node_id(Coord::from_row_col(3, 0)).unwrap(),
            ),
        ],
    )
    .unwrap();
    let plan = {
        let mut plan = FaultPlan::new();
        plan.fail_router(Coord::from_row_col(0, 0), 5);
        plan
    };
    let run = |dense: bool| {
        let mut sim = Simulation::new(mesh, NocConfig::regular(4), &flows).unwrap();
        sim.set_dense_kernel(dense);
        sim.install_fault_plan(plan.clone(), RetransmitPolicy::default())
            .unwrap();
        let report = sim.run_closed_loop(&flows, 6, 2_000);
        let stats = sim.stats().clone();
        let ports = port_counts(sim.network(), &mesh);
        (report, stats.cycles, stats.messages_undeliverable, ports)
    };
    let horizon = run(false);
    let dense = run(true);
    assert_eq!(horizon, dense, "router-death divergence");
    assert!(
        horizon.2 >= 1,
        "the worm bound for the dead router must be dropped undeliverable"
    );
    // The surviving row-3 flow keeps probing: the loop retires only the
    // severed slot.
    assert!(
        !horizon.0.as_ref().expect("survivors drain").is_empty(),
        "the surviving flow must still complete probes"
    );
}

/// The fast-forward-heavy corner the random sweep rarely hits hard: a single
/// probing flow crossing a large, otherwise empty mesh, where nearly every
/// message flight is delivered by the contention-free worm fast-forward.
#[test]
fn lone_worm_fast_forward_matches_dense() {
    for (config, message_flits) in [
        (NocConfig::regular(8), 8u32),
        (NocConfig::regular(4), 2),
        (NocConfig::waw_wap(), 1),
    ] {
        let mesh = Mesh::square(9).unwrap();
        let flows = FlowSet::from_pairs(
            &mesh,
            vec![(
                mesh.node_id(Coord::from_row_col(8, 8)).unwrap(),
                mesh.node_id(Coord::from_row_col(0, 0)).unwrap(),
            )],
        )
        .unwrap();
        let run = |dense: bool| {
            let mut sim = Simulation::new(mesh, config, &flows).unwrap();
            sim.set_dense_kernel(dense);
            let report = sim.run_closed_loop(&flows, message_flits, 2_000).unwrap();
            let cycles = sim.stats().cycles;
            let ports = port_counts(sim.network(), &mesh);
            (report, cycles, ports)
        };
        let horizon = run(false);
        let dense = run(true);
        assert_eq!(
            horizon,
            dense,
            "lone-worm divergence under {}",
            config.label()
        );
        assert!(
            !horizon.0.is_empty(),
            "the lone worm must complete probes under {}",
            config.label()
        );
    }
}
