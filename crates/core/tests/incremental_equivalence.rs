//! Differential equivalence: the incremental analysis engine must stay
//! bit-identical to freshly-constructed oracles across arbitrary mutation
//! sequences — the correctness pin behind the `expt-dse` driver, which trusts
//! the engine for millions of candidates and only spot-verifies a handful in
//! the simulator.  The engine composes every bound with its oracle's own
//! functions, so what this checks is the cached terms and their
//! invalidation.

use proptest::prelude::*;

use wnoc_core::analysis::incremental::{Analysis, IncrementalAnalysis, Mutation};
use wnoc_core::analysis::{oracle_suite_with_vcs, GraphBufferAwareOracle, WcttBoundModel};
use wnoc_core::arbitration::ArbitrationPolicy;
use wnoc_core::arrival::ArrivalCurve;
use wnoc_core::buffers::BufferConfig;
use wnoc_core::config::NocConfig;
use wnoc_core::fault::{FaultKind, FaultSet, TreeRouting};
use wnoc_core::flow::FlowSet;
use wnoc_core::geometry::Coord;
use wnoc_core::port::Port;
use wnoc_core::topology::Mesh;
use wnoc_core::vc::{VcAssignment, VcConfig};
use wnoc_core::{FlowId, NodeId};

mod support;

/// Deterministic splittable generator for mutation sequences (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// The mirror of the engine's design state, rebuilt from scratch for every
/// comparison: flow endpoints, buffer plan and VC plan.
struct Mirror {
    mesh: Mesh,
    pairs: Vec<(NodeId, NodeId)>,
    buffers: BufferConfig,
    vcs: VcConfig,
    curve: ArrivalCurve,
    faults: Vec<FaultKind>,
}

impl Mirror {
    fn apply(&mut self, mutation: &Mutation) {
        match *mutation {
            Mutation::MoveFlow { id, src, dst } => self.pairs[id.0] = (src, dst),
            Mutation::AddFlow { src, dst } => self.pairs.push((src, dst)),
            Mutation::RemoveLastFlow => {
                self.pairs.pop();
            }
            Mutation::SetBufferDepth { node, port, depth } => {
                self.buffers = self
                    .buffers
                    .with_buffer_depth(&self.mesh, node, port, depth);
            }
            Mutation::SetVcs(vcs) => self.vcs = vcs,
            Mutation::SetArrivalCurve(curve) => self.curve = curve,
            Mutation::FailLink { from, direction } => {
                self.faults.push(FaultKind::Link { from, direction });
                self.prune_severed();
            }
            Mutation::FailRouter { at } => {
                self.faults.push(FaultKind::Router { at });
                self.prune_severed();
            }
        }
    }

    fn fault_set(&self) -> FaultSet {
        let mut set = FaultSet::empty(&self.mesh);
        for &kind in &self.faults {
            set.add(kind);
        }
        set
    }

    /// Drops the pairs the cumulative fault set severed, mirroring the
    /// engine's reroute-on-fault semantics.
    fn prune_severed(&mut self) {
        let mesh = self.mesh;
        let tree = TreeRouting::new(&self.fault_set());
        self.pairs.retain(|&(src, dst)| {
            let s = mesh.coord_of(src).unwrap();
            let d = mesh.coord_of(dst).unwrap();
            tree.reachable(s, d)
        });
    }

    /// The from-scratch flow set of the current state: XY-routed while
    /// healthy, tree-rerouted over the surviving topology once any fault is
    /// active.
    fn flow_set(&self) -> FlowSet {
        if self.faults.is_empty() {
            FlowSet::from_pairs(&self.mesh, self.pairs.iter().copied()).unwrap()
        } else {
            let tree = TreeRouting::new(&self.fault_set());
            FlowSet::from_pairs_with(&self.mesh, self.pairs.iter().copied(), &tree).unwrap()
        }
    }
}

/// Draws one applicable mutation for the current design state.  Once a fault
/// is active the engine rejects XY-routed flow-shape mutations, so those
/// leave the pool; at most `3` faults are drawn per sequence.
fn draw_mutation(rng: &mut Rng, mesh: &Mesh, flow_count: usize, fault_count: usize) -> Mutation {
    let nodes = mesh.router_count() as u64;
    let endpoint_pair = |rng: &mut Rng| loop {
        let src = NodeId(rng.below(nodes) as usize);
        let dst = NodeId(rng.below(nodes) as usize);
        if src != dst {
            return (src, dst);
        }
    };
    loop {
        match rng.below(12) {
            // Placement moves dominate the pool, mirroring the DSE driver.
            0..=2 => {
                if flow_count == 0 || fault_count > 0 {
                    continue;
                }
                let id = FlowId(rng.below(flow_count as u64) as usize);
                let (src, dst) = endpoint_pair(rng);
                return Mutation::MoveFlow { id, src, dst };
            }
            3 => {
                if fault_count > 0 {
                    continue;
                }
                let (src, dst) = endpoint_pair(rng);
                return Mutation::AddFlow { src, dst };
            }
            4 => {
                if flow_count <= 1 {
                    continue;
                }
                return Mutation::RemoveLastFlow;
            }
            10 => {
                if fault_count >= 3 {
                    continue;
                }
                let links = mesh.links();
                let link = links[rng.below(links.len() as u64) as usize];
                return Mutation::FailLink {
                    from: link.from,
                    direction: link.direction,
                };
            }
            11 => {
                if fault_count >= 3 {
                    continue;
                }
                let at = mesh.coord_of(NodeId(rng.below(nodes) as usize)).unwrap();
                return Mutation::FailRouter { at };
            }
            5..=6 => {
                let node = NodeId(rng.below(nodes) as usize);
                let port = Port::ALL[rng.below(Port::ALL.len() as u64) as usize];
                let depth = 1 + rng.below(8) as u32;
                return Mutation::SetBufferDepth { node, port, depth };
            }
            7 => {
                let count = 1 + rng.below(4) as u32;
                let assignment = if rng.below(2) == 0 {
                    VcAssignment::FlowIndex
                } else {
                    VcAssignment::Distance
                };
                return Mutation::SetVcs(VcConfig::new(count, assignment).unwrap());
            }
            _ => {
                let burst = rng.below(9) as u32;
                let gap = 100 + rng.below(2_000) as u32;
                let cv = rng.below(60) as u32;
                return Mutation::SetArrivalCurve(ArrivalCurve::bursty(burst, gap).with_jitter(cv));
            }
        }
    }
}

/// Asserts every bound the engine exports for `ids` equals the corresponding
/// freshly-built oracle's, bit for bit.
fn assert_matches_scratch(engine: &mut IncrementalAnalysis, mirror: &Mirror, ids: &[FlowId]) {
    let flows = mirror.flow_set();
    let config = *engine.config();
    let mut suite =
        oracle_suite_with_vcs(&flows, &config, mirror.mesh, &mirror.buffers, mirror.vcs).unwrap();
    for oracle in &mut suite {
        let analysis = Analysis::from_name(oracle.name())
            .unwrap_or_else(|| panic!("unmapped oracle {}", oracle.name()));
        for &id in ids {
            for size in [1u32, 3, 8, 17] {
                assert_eq!(
                    engine.packet_bound(analysis, id, size),
                    oracle.packet_bound(id, size),
                    "packet_bound diverged: {} flow {id} size {size}",
                    oracle.name()
                );
                assert_eq!(
                    engine.message_bound(analysis, id, size),
                    oracle.message_bound(id, size),
                    "message_bound diverged: {} flow {id} size {size}",
                    oracle.name()
                );
            }
        }
    }
    // The graph-based bursty extension joins the suite under WaW only; its
    // bounds are pinned against a freshly-built oracle over the mirror's
    // arrival contract.
    if config.arbitration == ArbitrationPolicy::Waw {
        let engine_curve = engine.arrival_curve().expect("WaW engine keeps a curve");
        assert_eq!(engine_curve, mirror.curve, "arrival contract diverged");
        let mut oracle = GraphBufferAwareOracle::new(
            &flows,
            &config,
            mirror.mesh,
            mirror.buffers.clone(),
            mirror.curve,
        );
        for &id in ids {
            for size in [1u32, 3, 8, 17] {
                assert_eq!(
                    engine.packet_bound(Analysis::GraphBufferAware, id, size),
                    oracle.packet_bound(id, size),
                    "packet_bound diverged: graph-ba flow {id} size {size}"
                );
                assert_eq!(
                    engine.message_bound(Analysis::GraphBufferAware, id, size),
                    oracle.message_bound(id, size),
                    "message_bound diverged: graph-ba flow {id} size {size}"
                );
            }
        }
    }
}

/// The all-to-one design on a `side`×`side` mesh: every flow interferes with
/// every other at the memory.
fn all_to_one(side: u16) -> FlowSet {
    let mesh = Mesh::square(side).unwrap();
    FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap()
}

/// Applies `mutation_count` random mutations to an engine seeded with
/// `flows`, checking it against from-scratch oracles after each one and
/// over every flow at the end.
fn run_sequence(flows: &FlowSet, config: NocConfig, seed: u64, mutation_count: usize) {
    let mesh = *flows.mesh();
    let buffers = BufferConfig::uniform(config.input_buffer_flits);
    let mut engine =
        IncrementalAnalysis::new(flows, &config, &buffers, VcConfig::single()).unwrap();
    let mut mirror = Mirror {
        mesh,
        pairs: flows.pairs(),
        buffers,
        vcs: VcConfig::single(),
        // The engine seeds its graph-based analysis with the burst-free
        // contract.
        curve: ArrivalCurve::periodic(1),
        faults: Vec::new(),
    };
    let mut rng = Rng(seed | 1);
    for step in 0..mutation_count {
        let mutation = draw_mutation(&mut rng, &mesh, mirror.pairs.len(), mirror.faults.len());
        engine.apply(&mutation).unwrap();
        mirror.apply(&mutation);
        assert_eq!(
            engine.flows().pairs(),
            mirror.pairs,
            "state diverged at step {step}"
        );
        // Spot-check one flow after every mutation (catches stale-cache bugs
        // that a later mutation would mask)...
        if !mirror.pairs.is_empty() {
            let probe = FlowId(rng.below(mirror.pairs.len() as u64) as usize);
            assert_matches_scratch(&mut engine, &mirror, &[probe]);
        }
    }
    // ...and sweep every flow after the full sequence.
    let all: Vec<FlowId> = (0..mirror.pairs.len()).map(FlowId).collect();
    assert_matches_scratch(&mut engine, &mirror, &all);
}

// Stale-cache bugs in the engine's invalidation show on few of the sampled
// sequences: a mutant that skips the drain-value check passes both
// properties at 12 cases and fails at 600 (about 5 s in a debug build).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// 1–50 random mutations over a random design, round-robin arbitration:
    /// every suite bound stays bit-identical to from-scratch construction,
    /// including multi-VC states whose preemptive bounds saturate to
    /// `SATURATION_SENTINEL`.
    #[test]
    fn incremental_equivalence_round_robin(
        side in 3u16..6,
        seed in any::<u64>(),
        mutations in 1usize..=50,
    ) {
        run_sequence(&all_to_one(side), NocConfig::regular(4), seed, mutations);
    }

    /// Same pin for the WaW + WaP stack (weighted, backpressured,
    /// buffer-aware, UBD and slot oracles).
    #[test]
    fn incremental_equivalence_waw(
        side in 3u16..6,
        seed in any::<u64>(),
        mutations in 1usize..=50,
    ) {
        run_sequence(&all_to_one(side), NocConfig::waw_wap(), seed, mutations);
    }
}

// The all-to-one seeds interfere densely; the banked DSE platform is sparse,
// so a stale term there is read by few flows and shows only if the
// invalidation itself is right.  The drain-value mutant fails this within 8
// cases, where the round-robin property above needs hundreds.  Release builds
// only: 1000 cases take about 20 s on one core.
const BANKED_CASES: u32 = 1000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(BANKED_CASES))]

    /// 1–50 random mutations over the banked 16×16 platform, under both
    /// arbitrations.
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn incremental_equivalence_banked(seed in any::<u64>(), mutations in 1usize..=50) {
        let (_, _, flows) = support::banked_platform();
        for config in [NocConfig::regular(4), NocConfig::waw_wap()] {
            run_sequence(&flows, config, seed, mutations);
        }
    }
}
