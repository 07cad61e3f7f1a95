//! Criterion bench: the incremental analysis engine against from-scratch
//! oracle construction — per-oracle warm-cache query cost, the DSE
//! mutate-and-evaluate hot path on the paper's 8×8 platform and on the banked
//! 16×16 platform `expt-dse` explores, and the scratch comparator it must
//! beat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use wnoc_core::analysis::oracle::WcttBoundModel;
use wnoc_core::analysis::{Analysis, IncrementalAnalysis, Mutation, PreemptiveOracle};
use wnoc_core::flow::FlowSet;
use wnoc_core::port::{Direction, Port};
use wnoc_core::vc::VcConfig;
use wnoc_core::{BufferConfig, Coord, FlowId, Mesh, NocConfig, NodeId};
use wnoc_workloads::Placement;

const REQUEST_FLITS: u32 = 1;
const RESPONSE_FLITS: u32 = 4;

/// The paper's 16-thread memory-controller platform (P0 on the 8×8 mesh).
fn paper_platform() -> (Mesh, FlowSet, NocConfig, BufferConfig) {
    let mesh = Mesh::square(8).unwrap();
    let memory = Coord::from_row_col(0, 0);
    let placements = Placement::paper_set(&mesh, memory).unwrap();
    let memory_id = mesh.node_id(memory).unwrap();
    let mut pairs = Vec::new();
    for &core in placements[0].cores() {
        let core_id = mesh.node_id(core).unwrap();
        pairs.push((core_id, memory_id));
        pairs.push((memory_id, core_id));
    }
    let flows = FlowSet::from_pairs(&mesh, pairs).unwrap();
    let config = NocConfig::regular(4);
    let buffers = BufferConfig::uniform(config.input_buffer_flits);
    (mesh, flows, config, buffers)
}

/// The banked 16×16 platform of `expt-dse`'s first restart: four memory
/// banks at the quadrant centres and the paper's P0 placement tiled into
/// every quadrant (a core landing on a bank moves to the nearest free node,
/// row-major on ties), 64 threads each paired with its nearest bank (flows
/// `2t` and `2t + 1`).  Its depth table has 1 280 entries.
fn banked_platform() -> (Mesh, Vec<Coord>, FlowSet) {
    let mesh = Mesh::square(16).unwrap();
    let banks: Vec<Coord> = [(4, 4), (4, 11), (11, 4), (11, 11)]
        .iter()
        .map(|&(row, col)| Coord::from_row_col(row, col))
        .collect();
    let placements = Placement::paper_set(&mesh, Coord::from_row_col(0, 0)).unwrap();
    let mut cores: Vec<Coord> = [(0, 0), (8, 0), (0, 8), (8, 8)]
        .iter()
        .flat_map(|&(dx, dy)| {
            placements[0]
                .cores()
                .iter()
                .map(move |core| Coord::new(core.x + dx, core.y + dy))
        })
        .collect();
    for index in 0..cores.len() {
        let at = cores[index];
        if banks.contains(&at) {
            cores[index] = mesh
                .routers()
                .filter(|c| !banks.contains(c) && !cores.contains(c))
                .min_by_key(|c| c.manhattan_distance(at))
                .unwrap();
        }
    }
    let mut pairs = Vec::new();
    for &core in &cores {
        let (core, bank) = thread_endpoints(&mesh, &banks, core);
        pairs.push((core, bank));
        pairs.push((bank, core));
    }
    (mesh, banks, FlowSet::from_pairs(&mesh, pairs).unwrap())
}

/// A thread at `core` and its nearest bank (lowest index on ties).
fn thread_endpoints(mesh: &Mesh, banks: &[Coord], core: Coord) -> (NodeId, NodeId) {
    let bank = *banks
        .iter()
        .min_by_key(|bank| bank.manhattan_distance(core))
        .unwrap();
    (mesh.node_id(core).unwrap(), mesh.node_id(bank).unwrap())
}

fn engine(flows: &FlowSet, config: &NocConfig, buffers: &BufferConfig) -> IncrementalAnalysis {
    IncrementalAnalysis::new(flows, config, buffers, VcConfig::single()).unwrap()
}

/// Worst round-trip bound over the first `threads` threads — the DSE
/// objective.
fn round_trip(engine: &mut IncrementalAnalysis, threads: usize) -> u64 {
    let mut worst = 0u64;
    for thread in 0..threads {
        let request = engine
            .message_bound(Analysis::Preemptive, FlowId(2 * thread), REQUEST_FLITS)
            .unwrap();
        let response = engine
            .message_bound(Analysis::Preemptive, FlowId(2 * thread + 1), RESPONSE_FLITS)
            .unwrap();
        worst = worst.max(request.saturating_add(response));
    }
    worst
}

/// Warm-cache query cost, one bench per oracle the engine serves.
fn bench_per_oracle_query(c: &mut Criterion) {
    let (_mesh, flows, config, buffers) = paper_platform();
    let mut group = c.benchmark_group("incremental/query_warm");
    for analysis in [
        Analysis::Regular,
        Analysis::Ubd,
        Analysis::Preemptive,
        Analysis::Slot,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(analysis.name()),
            &analysis,
            |b, &analysis| {
                let mut eng = engine(&flows, &config, &buffers);
                round_trip(&mut eng, 16);
                b.iter(|| {
                    black_box(
                        eng.message_bound(analysis, black_box(FlowId(5)), RESPONSE_FLITS)
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

/// The DSE hot path: move one thread (two flow moves), re-evaluate the full
/// objective, move it back.
fn bench_move_eval(c: &mut Criterion) {
    let (mesh, flows, config, buffers) = paper_platform();
    let memory_id = mesh.node_id(Coord::from_row_col(0, 0)).unwrap();
    let home = flows.pairs()[0].0;
    let away = mesh.node_id(Coord::new(7, 7)).unwrap();
    c.bench_function("incremental/move_thread_and_evaluate", |b| {
        let mut eng = engine(&flows, &config, &buffers);
        round_trip(&mut eng, 16);
        b.iter(|| {
            for &core in [away, home].iter() {
                eng.apply(&Mutation::MoveFlow {
                    id: FlowId(0),
                    src: core,
                    dst: memory_id,
                })
                .unwrap();
                eng.apply(&Mutation::MoveFlow {
                    id: FlowId(1),
                    src: memory_id,
                    dst: core,
                })
                .unwrap();
                black_box(round_trip(&mut eng, 16));
            }
        })
    });
}

/// Depth mutations under round robin edit one table entry in place and
/// update the depth envelope factor: no per-flow terms are invalidated and
/// re-evaluation stays all-hits.
fn bench_depth_eval(c: &mut Criterion) {
    let (_mesh, flows, config, buffers) = paper_platform();
    c.bench_function("incremental/set_depth_and_evaluate", |b| {
        let mut eng = engine(&flows, &config, &buffers);
        round_trip(&mut eng, 16);
        b.iter(|| {
            for depth in [2u32, 4] {
                eng.apply(&Mutation::SetBufferDepth {
                    node: NodeId(9),
                    port: Port::Local,
                    depth,
                })
                .unwrap();
                black_box(round_trip(&mut eng, 16));
            }
        })
    });
}

/// The DSE hot path on the banked platform: move one thread into another
/// quadrant (two flow moves, re-paired with that quadrant's bank),
/// re-evaluate all 64 round trips, move it back.
fn bench_banked_move_eval(c: &mut Criterion) {
    let (mesh, banks, flows) = banked_platform();
    let config = NocConfig::regular(4);
    let buffers = BufferConfig::uniform(config.input_buffer_flits);
    let home = mesh.coord_of(flows.pairs()[0].0).unwrap();
    c.bench_function("incremental/banked16/move_thread_and_evaluate", |b| {
        let mut eng = engine(&flows, &config, &buffers);
        round_trip(&mut eng, 64);
        b.iter(|| {
            for &core in [Coord::new(14, 13), home].iter() {
                let (core, bank) = thread_endpoints(&mesh, &banks, core);
                eng.apply(&Mutation::MoveFlow {
                    id: FlowId(0),
                    src: core,
                    dst: bank,
                })
                .unwrap();
                eng.apply(&Mutation::MoveFlow {
                    id: FlowId(1),
                    src: bank,
                    dst: core,
                })
                .unwrap();
                black_box(round_trip(&mut eng, 64));
            }
        })
    });
}

/// A depth step and back on the banked platform, re-evaluating all 64 round
/// trips after each: an in-place edit of one of the table's 1 280 entries.
fn bench_banked_depth_eval(c: &mut Criterion) {
    let (mesh, _banks, flows) = banked_platform();
    let config = NocConfig::regular(4);
    let buffers = BufferConfig::uniform(config.input_buffer_flits);
    let node = mesh.node_id(Coord::from_row_col(2, 4)).unwrap();
    c.bench_function("incremental/banked16/set_depth_and_evaluate", |b| {
        let mut eng = engine(&flows, &config, &buffers);
        round_trip(&mut eng, 64);
        b.iter(|| {
            for depth in [2u32, 4] {
                eng.apply(&Mutation::SetBufferDepth {
                    node,
                    port: Port::Mesh(Direction::North),
                    depth,
                })
                .unwrap();
                black_box(round_trip(&mut eng, 64));
            }
        })
    });
}

/// Mutation cost alone: the two flow moves of a thread move, without
/// re-evaluating the objective.
fn bench_move_only(c: &mut Criterion) {
    let (mesh, flows, config, buffers) = paper_platform();
    let memory_id = mesh.node_id(Coord::from_row_col(0, 0)).unwrap();
    let home = flows.pairs()[0].0;
    let away = mesh.node_id(Coord::new(7, 7)).unwrap();
    c.bench_function("incremental/move_thread_only", |b| {
        let mut eng = engine(&flows, &config, &buffers);
        round_trip(&mut eng, 16);
        b.iter(|| {
            for &core in [away, home].iter() {
                eng.apply(&Mutation::MoveFlow {
                    id: FlowId(0),
                    src: core,
                    dst: memory_id,
                })
                .unwrap();
                eng.apply(&Mutation::MoveFlow {
                    id: FlowId(1),
                    src: memory_id,
                    dst: core,
                })
                .unwrap();
            }
        })
    });
}

/// Full recompute as the campaigns define it: rebuild the flow set and the
/// whole oracle suite, evaluate the objective from the rebuilt state.
fn bench_scratch_suite_eval(c: &mut Criterion) {
    let (mesh, flows, config, buffers) = paper_platform();
    let pairs = flows.pairs();
    c.bench_function("incremental/scratch_suite_build_and_evaluate", |b| {
        b.iter(|| {
            let fresh = FlowSet::from_pairs(&mesh, pairs.iter().copied()).unwrap();
            let mut suite = wnoc_core::analysis::oracle_suite_with_vcs(
                &fresh,
                &config,
                mesh,
                &buffers,
                VcConfig::single(),
            )
            .unwrap();
            let oracle = suite.iter_mut().find(|o| o.name() == "preemptive").unwrap();
            let mut worst = 0u64;
            for thread in 0..16 {
                let request = oracle
                    .message_bound(FlowId(2 * thread), REQUEST_FLITS)
                    .unwrap();
                let response = oracle
                    .message_bound(FlowId(2 * thread + 1), RESPONSE_FLITS)
                    .unwrap();
                worst = worst.max(request.saturating_add(response));
            }
            black_box(worst)
        })
    });
}

/// The from-scratch comparator the speedup gate measures against: rebuild
/// the flow set and the preemptive oracle, evaluate the full objective.
fn bench_scratch_eval(c: &mut Criterion) {
    let (mesh, flows, config, buffers) = paper_platform();
    let pairs = flows.pairs();
    c.bench_function("incremental/scratch_build_and_evaluate", |b| {
        b.iter(|| {
            let fresh = FlowSet::from_pairs(&mesh, pairs.iter().copied()).unwrap();
            let mut oracle = PreemptiveOracle::new(&fresh, &config, &buffers, VcConfig::single());
            let mut worst = 0u64;
            for thread in 0..16 {
                let request = oracle
                    .message_bound(FlowId(2 * thread), REQUEST_FLITS)
                    .unwrap();
                let response = oracle
                    .message_bound(FlowId(2 * thread + 1), RESPONSE_FLITS)
                    .unwrap();
                worst = worst.max(request.saturating_add(response));
            }
            black_box(worst)
        })
    });
}

criterion_group!(
    benches,
    bench_per_oracle_query,
    bench_move_eval,
    bench_move_only,
    bench_depth_eval,
    bench_banked_move_eval,
    bench_banked_depth_eval,
    bench_scratch_eval,
    bench_scratch_suite_eval
);
criterion_main!(benches);
