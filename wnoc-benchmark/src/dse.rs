//! The DSE workload: the `expt-dse` hill climb over the banked 16×16
//! platform, evaluated by the incremental analysis engine.  The platform
//! helpers are copies of `expt-dse`'s private ones (kept in step by hand;
//! that binary stays the reference).  Unlike `expt-dse` the walk keeps no
//! Pareto archive: a candidate is one proposal, its mutations, the
//! round-trip query and the accept-or-revert decision.

use std::collections::HashSet;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use wnoc_conformance::fleet::fnv1a;
use wnoc_core::analysis::oracle::oracle_suite_with_vcs;
use wnoc_core::analysis::{Analysis, IncrementalAnalysis, Mutation};
use wnoc_core::flow::FlowSet;
use wnoc_core::port::Port;
use wnoc_core::vc::VcConfig;
use wnoc_core::{BufferConfig, Coord, FlowId, Mesh, NocConfig, NodeId};
use wnoc_workloads::Placement;

use crate::run::{Verdict, Workload};
use crate::trace::{Off, Probe, Tracer, NO_UNIT};

/// Mesh side of the banked manycore platform.
const SIDE: u16 = 16;
/// Threads per candidate: the paper's 16-thread placement tiled into each
/// of the four 8×8 quadrants.
const THREADS: usize = 64;
/// Request message size offered by each thread, in flits.
const REQUEST_FLITS: u32 = 1;
/// Response message size returned by the memory bank, in flits.
const RESPONSE_FLITS: u32 = 4;
/// Buffer depths the explorer may assign per `(router, input port)`.
const DEPTH_CHOICES: [u32; 4] = [1, 2, 4, 8];
/// Scalarization weights `(w_wctt, w_cost)`, cycled per restart.
const WEIGHTS: [(u128, u128); 4] = [(1, 0), (4, 1), (1, 1), (1, 4)];

/// The four memory banks: quadrant centres of the mesh.
fn bank_coords() -> Vec<Coord> {
    let near = SIDE / 4;
    let far = SIDE - 1 - SIDE / 4;
    vec![
        Coord::from_row_col(near, near),
        Coord::from_row_col(near, far),
        Coord::from_row_col(far, near),
        Coord::from_row_col(far, far),
    ]
}

/// The bank a thread at `core` talks to: nearest by Manhattan distance,
/// lowest bank index on ties.
fn nearest_bank(banks: &[Coord], core: Coord) -> Coord {
    *banks
        .iter()
        .min_by_key(|b| u32::from(b.x.abs_diff(core.x)) + u32::from(b.y.abs_diff(core.y)))
        .expect("at least one bank")
}

/// Tiles a paper placement (drawn on the top-left 8×8 block) into all four
/// quadrants of the mesh.
fn tile_quadrants(cores: &[Coord]) -> Vec<Coord> {
    let half = SIDE / 2;
    let mut tiled = Vec::with_capacity(4 * cores.len());
    for &(dx, dy) in &[(0, 0), (half, 0), (0, half), (half, half)] {
        for &core in cores {
            tiled.push(Coord::new(core.x + dx, core.y + dy));
        }
    }
    tiled
}

/// Relocates seed cores that collide with a bank node to the nearest free
/// node (by Manhattan distance, then row-major order).
fn sanitize_placement(banks: &[Coord], cores: &[Coord]) -> Vec<Coord> {
    let bank_set: HashSet<Coord> = banks.iter().copied().collect();
    let mut taken: HashSet<Coord> = cores
        .iter()
        .copied()
        .filter(|c| !bank_set.contains(c))
        .collect();
    let mut fixed = Vec::with_capacity(cores.len());
    for &core in cores {
        if !bank_set.contains(&core) {
            fixed.push(core);
            continue;
        }
        let mut best: Option<(u32, Coord)> = None;
        for row in 0..SIDE {
            for col in 0..SIDE {
                let c = Coord::from_row_col(row, col);
                if bank_set.contains(&c) || taken.contains(&c) {
                    continue;
                }
                let d = u32::from(c.x.abs_diff(core.x)) + u32::from(c.y.abs_diff(core.y));
                if best.map_or(true, |(bd, _)| d < bd) {
                    best = Some((d, c));
                }
            }
        }
        let (_, c) = best.expect("free node exists");
        taken.insert(c);
        fixed.push(c);
    }
    fixed
}

/// Request/response pairs of a placement, each thread against its nearest
/// bank.
fn placement_pairs(mesh: &Mesh, banks: &[Coord], cores: &[Coord]) -> Vec<(NodeId, NodeId)> {
    let mut pairs = Vec::with_capacity(2 * cores.len());
    for &core in cores {
        let bank = nearest_bank(banks, core);
        let core_id = mesh.node_id(core).expect("core on mesh");
        let bank_id = mesh.node_id(bank).expect("bank on mesh");
        pairs.push((core_id, bank_id));
        pairs.push((bank_id, core_id));
    }
    pairs
}

/// The worst per-thread round-trip bound of the engine's current design.
fn round_trip_wctt(engine: &mut IncrementalAnalysis, probe: &mut impl Probe) -> u64 {
    probe.add("analysis.engine_queries", (2 * THREADS) as f64);
    probe.span("analysis.engine_query", NO_UNIT, || {
        let mut worst = 0u64;
        for thread in 0..THREADS {
            let request = engine
                .message_bound(Analysis::Preemptive, FlowId(2 * thread), REQUEST_FLITS)
                .expect("request flow bound");
            let response = engine
                .message_bound(Analysis::Preemptive, FlowId(2 * thread + 1), RESPONSE_FLITS)
                .expect("response flow bound");
            worst = worst.max(request.saturating_add(response));
        }
        worst
    })
}

/// One proposed mutation step, with enough context to revert it.
enum Step {
    Move {
        thread: usize,
        from: Coord,
        to: Coord,
    },
    Depth {
        node: NodeId,
        port: Port,
        from: u32,
        to: u32,
    },
}

/// Proposes one step: 70% placement moves, 30% depth changes.  `None` when
/// 32 draws found no free target node.
fn propose_step(
    mesh: &Mesh,
    placement: &[Coord],
    blocked: &HashSet<Coord>,
    buffers: &BufferConfig,
    rng: &mut ChaCha8Rng,
) -> Option<Step> {
    if rng.gen_range(0u32..10) < 7 {
        let thread = rng.gen_range(0usize..THREADS);
        for _ in 0..32 {
            let to = Coord::new(rng.gen_range(0..SIDE), rng.gen_range(0..SIDE));
            if !blocked.contains(&to) {
                return Some(Step::Move {
                    thread,
                    from: placement[thread],
                    to,
                });
            }
        }
        None
    } else {
        let node = NodeId(rng.gen_range(0usize..mesh.router_count()));
        let port = Port::ALL[rng.gen_range(0usize..Port::ALL.len())];
        let to = DEPTH_CHOICES[rng.gen_range(0usize..DEPTH_CHOICES.len())];
        Some(Step::Depth {
            node,
            port,
            from: buffers.depth(node, port),
            to,
        })
    }
}

/// The hill-climbing state of one restart.
struct Climber {
    engine: IncrementalAnalysis,
    placement: Vec<Coord>,
    /// Nodes a move may not target: occupied cores plus the bank nodes.
    blocked: HashSet<Coord>,
    banks: Vec<Coord>,
    /// Running total buffer cost, kept by delta.
    cost: u64,
    score: u128,
    weights: (u128, u128),
    rng: ChaCha8Rng,
}

impl Climber {
    fn new(
        mesh: &Mesh,
        config: &NocConfig,
        banks: &[Coord],
        cores: &[Coord],
        weights: (u128, u128),
        rng: ChaCha8Rng,
        probe: &mut impl Probe,
    ) -> Self {
        let flows = FlowSet::from_pairs(mesh, placement_pairs(mesh, banks, cores))
            .expect("placement flows");
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine = probe.span("analysis.engine_build", NO_UNIT, || {
            IncrementalAnalysis::new(&flows, config, &buffers, VcConfig::single())
                .expect("valid seed design")
        });
        let cost = u64::from(config.input_buffer_flits)
            * mesh.router_count() as u64
            * Port::ALL.len() as u64;
        let wctt = round_trip_wctt(&mut engine, probe);
        let mut blocked: HashSet<Coord> = cores.iter().copied().collect();
        blocked.extend(banks.iter().copied());
        Self {
            engine,
            placement: cores.to_vec(),
            blocked,
            banks: banks.to_vec(),
            cost,
            score: weights.0 * u128::from(wctt) + weights.1 * u128::from(cost),
            weights,
            rng,
        }
    }

    fn apply(&mut self, mutation: Mutation, probe: &mut impl Probe) -> wnoc_core::Result<()> {
        probe.add("analysis.mutations", 1.0);
        probe.span("analysis.apply", NO_UNIT, || self.engine.apply(&mutation))
    }

    fn apply_move(
        &mut self,
        thread: usize,
        core: Coord,
        probe: &mut impl Probe,
    ) -> wnoc_core::Result<()> {
        let mesh = *self.engine.flows().mesh();
        let bank_id = mesh.node_id(nearest_bank(&self.banks, core))?;
        let core_id = mesh.node_id(core)?;
        let request = Mutation::MoveFlow {
            id: FlowId(2 * thread),
            src: core_id,
            dst: bank_id,
        };
        let response = Mutation::MoveFlow {
            id: FlowId(2 * thread + 1),
            src: bank_id,
            dst: core_id,
        };
        self.apply(request, probe)?;
        self.apply(response, probe)?;
        self.blocked.remove(&self.placement[thread]);
        self.blocked.insert(core);
        self.placement[thread] = core;
        Ok(())
    }

    /// Changes the depth of `(node, port)` from `from` to `to` flits, keeping
    /// the cost total in step.
    fn set_depth(
        &mut self,
        node: NodeId,
        port: Port,
        from: u32,
        to: u32,
        probe: &mut impl Probe,
    ) -> wnoc_core::Result<()> {
        self.apply(
            Mutation::SetBufferDepth {
                node,
                port,
                depth: to,
            },
            probe,
        )?;
        self.cost = self.cost - u64::from(from) + u64::from(to);
        Ok(())
    }

    /// Proposes, applies and evaluates one candidate, then keeps or reverts
    /// it by hill climbing on the scalarized score.  Returns the candidate's
    /// `(wctt, cost, accepted)`.
    fn candidate(&mut self, probe: &mut impl Probe) -> wnoc_core::Result<(u64, u64, bool)> {
        let mesh = *self.engine.flows().mesh();
        let step = loop {
            if let Some(step) = propose_step(
                &mesh,
                &self.placement,
                &self.blocked,
                self.engine.buffers(),
                &mut self.rng,
            ) {
                break step;
            }
        };
        match step {
            Step::Move { thread, to, .. } => self.apply_move(thread, to, probe)?,
            Step::Depth {
                node,
                port,
                from,
                to,
            } => self.set_depth(node, port, from, to, probe)?,
        }
        let wctt = round_trip_wctt(&mut self.engine, probe);
        let cost = self.cost;
        let score = self.weights.0 * u128::from(wctt) + self.weights.1 * u128::from(cost);
        let accept = score <= self.score;
        if accept {
            self.score = score;
        } else {
            match step {
                Step::Move { thread, from, .. } => self.apply_move(thread, from, probe)?,
                Step::Depth {
                    node,
                    port,
                    from,
                    to,
                } => self.set_depth(node, port, to, from, probe)?,
            }
        }
        Ok((wctt, cost, accept))
    }
}

/// Every bound the engine exports against a freshly built oracle suite;
/// returns the mismatches.
fn differential_sweep(engine: &mut IncrementalAnalysis) -> Vec<String> {
    let flows = engine.flows().clone();
    let buffers = engine.buffers().clone();
    let config = *engine.config();
    let mut suite = oracle_suite_with_vcs(&flows, &config, *flows.mesh(), &buffers, engine.vcs())
        .expect("oracle suite of a valid design");
    let mut mismatches = Vec::new();
    for oracle in &mut suite {
        let analysis = Analysis::from_name(oracle.name()).expect("known oracle");
        for index in 0..flows.len() {
            let id = FlowId(index);
            for size in [REQUEST_FLITS, RESPONSE_FLITS] {
                if engine.packet_bound(analysis, id, size) != oracle.packet_bound(id, size)
                    || engine.message_bound(analysis, id, size) != oracle.message_bound(id, size)
                {
                    mismatches.push(format!(
                        "engine bound diverged from a fresh {} oracle: {id} size {size}",
                        oracle.name()
                    ));
                }
            }
        }
    }
    mismatches
}

/// The DSE workload: `restarts` hill climbs of `candidates` each.
pub struct DseBench {
    seed: u64,
    restarts: usize,
    candidates: usize,
    climbers: Vec<Climber>,
    failed: u64,
    digest: u64,
}

impl DseBench {
    pub fn new(seed: u64, restarts: usize, candidates: usize) -> Self {
        Self {
            seed,
            restarts,
            candidates,
            climbers: Vec::new(),
            failed: 0,
            digest: 0,
        }
    }

    fn build(&mut self, probe: &mut impl Probe) {
        let mesh = Mesh::square(SIDE).expect("platform mesh");
        let config = NocConfig::regular(4);
        let banks = bank_coords();
        let placements =
            Placement::paper_set(&mesh, Coord::from_row_col(0, 0)).expect("paper placements");
        self.climbers = (0..self.restarts)
            .map(|restart| {
                let cores = sanitize_placement(
                    &banks,
                    &tile_quadrants(placements[restart % placements.len()].cores()),
                );
                let rng = ChaCha8Rng::seed_from_u64(
                    self.seed ^ (restart as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let weights = WEIGHTS[restart % WEIGHTS.len()];
                Climber::new(&mesh, &config, &banks, &cores, weights, rng, probe)
            })
            .collect();
    }

    fn walk(&mut self, probe: &mut impl Probe, unit_ns: &mut Vec<f64>) {
        let mut digest = Vec::with_capacity(17 * self.candidates * self.restarts);
        let mut best = u64::MAX;
        let mut failed = 0;
        let mut unit = 0u64;
        for climber in &mut self.climbers {
            for _ in 0..self.candidates {
                let start = Instant::now();
                probe.enter("bench.candidate", unit);
                let result = climber.candidate(probe);
                probe.exit();
                unit_ns.push(start.elapsed().as_nanos() as f64);
                unit += 1;
                match result {
                    Ok((wctt, cost, accept)) => {
                        best = best.min(wctt);
                        probe.add("bench.accepted", f64::from(u8::from(accept)));
                        digest.extend_from_slice(&wctt.to_le_bytes());
                        digest.extend_from_slice(&cost.to_le_bytes());
                        digest.push(u8::from(accept));
                    }
                    Err(error) => {
                        eprintln!("candidate {unit} failed: {error}");
                        failed += 1;
                    }
                }
            }
        }
        probe.add("bench.candidates", unit as f64);
        probe.add("bench.best_wctt_cycles", best as f64);
        self.failed = failed;
        self.digest = fnv1a(&digest);
    }
}

impl Workload for DseBench {
    fn units(&self) -> usize {
        self.restarts * self.candidates
    }

    fn setup(&mut self, tracer: Option<&mut Tracer>) -> Result<(), String> {
        match tracer {
            Some(tracer) => self.build(tracer),
            None => self.build(&mut Off),
        }
        Ok(())
    }

    fn warm_up(&mut self, units: usize) -> Result<(), String> {
        for _ in 0..units {
            self.climbers[0]
                .candidate(&mut Off)
                .map_err(|error| format!("warm-up candidate failed: {error}"))?;
        }
        Ok(())
    }

    fn rep(&mut self, tracer: Option<&mut Tracer>, unit_ns: &mut Vec<f64>) {
        match tracer {
            Some(tracer) => self.walk(tracer, unit_ns),
            None => self.walk(&mut Off, unit_ns),
        }
    }

    fn check(&mut self, _tracer: Option<&mut Tracer>) -> Verdict {
        let problems = self
            .climbers
            .iter_mut()
            .flat_map(|climber| differential_sweep(&mut climber.engine))
            .collect();
        Verdict {
            failed: self.failed,
            digest: Some(self.digest),
            problems,
        }
    }
}
