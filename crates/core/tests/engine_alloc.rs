//! Allocation audit of the incremental analysis engine: after a warm-up
//! pass, an identical pass of mutations, queries and reverts must perform
//! **zero heap allocations**.
//!
//! A counting global allocator wraps the system allocator.  Two passes are
//! audited: round robin on the banked 16×16 design-space-exploration
//! platform (a thread move — two `MoveFlow`s —, a `SetBufferDepth`, the 128
//! preemptive round-trip queries, and the reverts), and WaW + WaP on the 8×8
//! hotspot platform (a `MoveFlow`, a `SetBufferDepth` and every weighted,
//! backpressured, buffer-aware and graph-based bound, and the reverts).
//! Routes are re-routed into their existing hop vectors, the buffer tables
//! are edited in place, and the engine's deltas, key sets and reverse indexes
//! are reused vectors that reached their high-water marks in the warm-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wnoc_core::analysis::incremental::{Analysis, IncrementalAnalysis, Mutation};
use wnoc_core::flow::FlowSet;
use wnoc_core::port::{Direction, Port};
use wnoc_core::vc::VcConfig;
use wnoc_core::{BufferConfig, Coord, FlowId, Mesh, NocConfig, NodeId};

mod support;

use support::{banked_platform, move_thread};

/// Counts allocator hits (alloc/realloc) while armed.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to the system allocator; the
// only addition is a relaxed counter bump with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` with the counter armed and returns its result together with
/// the number of allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let result = f();
    ARMED.store(false, Ordering::SeqCst);
    (result, ALLOCATIONS.load(Ordering::SeqCst))
}

/// The 128 preemptive queries of the DSE objective: the worst round trip.
fn round_trip(engine: &mut IncrementalAnalysis) -> u64 {
    let mut worst = 0u64;
    for thread in 0..64 {
        let request = engine
            .message_bound(Analysis::Preemptive, FlowId(2 * thread), 1)
            .unwrap();
        let response = engine
            .message_bound(Analysis::Preemptive, FlowId(2 * thread + 1), 4)
            .unwrap();
        worst = worst.max(request.saturating_add(response));
    }
    worst
}

/// One DSE candidate and its revert on the banked platform.
fn banked_pass(engine: &mut IncrementalAnalysis, mesh: &Mesh, banks: &[Coord]) -> u64 {
    let home = Coord::new(1, 1);
    let depth = Mutation::SetBufferDepth {
        node: NodeId(37),
        port: Port::Mesh(Direction::East),
        depth: 8,
    };
    move_thread(engine, mesh, banks, 0, Coord::new(14, 13));
    engine.apply(&depth).unwrap();
    let candidate = round_trip(engine);
    engine
        .apply(&Mutation::SetBufferDepth {
            node: NodeId(37),
            port: Port::Mesh(Direction::East),
            depth: 4,
        })
        .unwrap();
    move_thread(engine, mesh, banks, 0, home);
    candidate + round_trip(engine)
}

/// A move, a depth edit and every weighted bound, then the reverts, on the
/// 8×8 hotspot platform under WaW + WaP.
fn waw_pass(engine: &mut IncrementalAnalysis, mesh: &Mesh) -> u64 {
    let home = engine.flows().flow(FlowId(5)).unwrap();
    let corner = mesh.node_id(Coord::new(7, 6)).unwrap();
    let memory = mesh.node_id(Coord::new(0, 0)).unwrap();
    engine
        .apply(&Mutation::MoveFlow {
            id: FlowId(5),
            src: corner,
            dst: memory,
        })
        .unwrap();
    engine
        .apply(&Mutation::SetBufferDepth {
            node: memory,
            port: Port::Mesh(Direction::South),
            depth: 1,
        })
        .unwrap();
    let mut total = 0u64;
    for analysis in [
        Analysis::Weighted,
        Analysis::WeightedBp,
        Analysis::BufferAware,
        Analysis::GraphBufferAware,
    ] {
        for index in 0..engine.flows().len() {
            total += engine.message_bound(analysis, FlowId(index), 4).unwrap();
        }
    }
    engine
        .apply(&Mutation::SetBufferDepth {
            node: memory,
            port: Port::Mesh(Direction::South),
            depth: 4,
        })
        .unwrap();
    engine
        .apply(&Mutation::MoveFlow {
            id: FlowId(5),
            src: home.src,
            dst: home.dst,
        })
        .unwrap();
    total
}

#[test]
fn warm_engine_mutations_and_queries_do_not_allocate() {
    // Sanity-check the harness first, inside the same test: the counter and
    // the arm flag are process-global statics, so a second #[test] touching
    // them would race under libtest's parallel execution.
    let (probe, allocations) = counted(|| Vec::<u64>::with_capacity(32));
    drop(probe);
    assert!(
        allocations > 0,
        "counting allocator failed to observe an ordinary allocation"
    );

    let (mesh, banks, flows) = banked_platform();
    let config = NocConfig::regular(4);
    let buffers = BufferConfig::uniform(config.input_buffer_flits);
    let mut engine =
        IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
    round_trip(&mut engine);
    let warm = banked_pass(&mut engine, &mesh, &banks);
    let (armed, allocations) = counted(|| banked_pass(&mut engine, &mesh, &banks));
    assert_eq!(armed, warm, "an identical pass must give identical bounds");
    assert_eq!(
        allocations, 0,
        "a warm round-robin candidate allocated {allocations} times"
    );

    let mesh = Mesh::square(8).unwrap();
    let flows = FlowSet::all_to_one(&mesh, Coord::new(0, 0)).unwrap();
    let config = NocConfig::waw_wap();
    let buffers = BufferConfig::uniform(config.input_buffer_flits);
    let mut engine =
        IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
    let warm = waw_pass(&mut engine, &mesh);
    let (armed, allocations) = counted(|| waw_pass(&mut engine, &mesh));
    assert_eq!(armed, warm, "an identical pass must give identical bounds");
    assert_eq!(
        allocations, 0,
        "a warm WaW candidate allocated {allocations} times"
    );
}
