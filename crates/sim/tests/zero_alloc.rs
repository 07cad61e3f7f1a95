//! Steady-state allocation audit: after construction and one warm-up wave,
//! [`Network::offer`] and [`Network::step`] must perform **zero heap
//! allocations**.
//!
//! A counting global allocator wraps the system allocator; the test drives
//! identical traffic waves through a 6×6 WaW+WaP mesh, and then through a
//! 6×6 round-robin mesh with three virtual channels, and counts allocator
//! hits during each second wave's offers and during its drain loop.  An offer
//! walks the message's closed-form split and writes its flits straight into
//! the arena, whose slab and free list, like the NIC queues and the message
//! tracker, reached their high-water marks during the warm-up; stepping runs
//! on preallocated rings and reusable scratch buffers, and the per-flow
//! statistics are dense tables sized when each flow was registered.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wnoc_core::flow::FlowSet;
use wnoc_core::vc::{VcAssignment, VcConfig};
use wnoc_core::{BufferConfig, Coord, Mesh, NocConfig};
use wnoc_sim::network::Network;

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

/// Offers one identical wave of hotspot traffic: four 4-flit messages per
/// flow, every flow of the all-to-one set.
fn offer_wave(noc: &mut Network, flows: &FlowSet) {
    for flow in flows.flows() {
        for _ in 0..4 {
            noc.offer(flow.src, flow.dst, 4).unwrap();
        }
    }
}

#[test]
fn steady_state_stepping_does_not_allocate() {
    // Sanity-check the harness first, inside the same test: the counter and
    // the arm flag are process-global statics, so a second #[test] touching
    // them would race under libtest's parallel execution.  An intentional
    // allocation while armed must be counted, otherwise a broken counter
    // would vacuously pass the zero-allocation assertion below.
    let (probe, allocations) = counted(|| Vec::<u64>::with_capacity(32));
    drop(probe);
    assert!(
        allocations > 0,
        "counting allocator failed to observe an ordinary allocation"
    );

    let mesh = Mesh::square(6).unwrap();
    let hotspot = Coord::from_row_col(0, 0);
    let flows = FlowSet::all_to_one(&mesh, hotspot).unwrap();
    let mut noc = Network::new(mesh, NocConfig::waw_wap(), &flows).unwrap();
    let mut sink = Vec::new();

    // Warm-up: the arena slab, scratch buffers, delivery buffer, tracker and
    // stats tables all grow to their steady-state footprint here.
    offer_wave(&mut noc, &flows);
    assert!(noc.run_until_drained(1_000_000), "warm-up wave must drain");
    noc.drain_delivered_into(&mut sink);
    let slab_high_water = noc.arena().capacity();

    // Identical second wave: offering it reuses the warm-up's memory, the
    // slab must not regrow, and from here on every `step` runs on recycled
    // memory.
    let ((), allocations) = counted(|| offer_wave(&mut noc, &flows));
    assert_eq!(
        allocations, 0,
        "offering the second wave allocated {allocations} times"
    );
    assert_eq!(
        noc.arena().capacity(),
        slab_high_water,
        "arena slab regrew on an identical wave"
    );

    let (drained, allocations) = counted(|| noc.run_until_drained(1_000_000));
    assert!(drained, "steady-state wave must drain");
    assert_eq!(
        allocations, 0,
        "Network::step allocated {allocations} times after warm-up"
    );

    // The measured window did real work: the second wave was delivered.
    noc.drain_delivered_into(&mut sink);
    assert_eq!(sink.len(), 2 * 4 * flows.len());
    assert!(noc.arena().is_empty());

    // Sparse phase: a lone worm crossing the drained mesh is delivered by
    // the event-horizon machinery — blocked-router skipping, horizon
    // advancement and the contention-free worm fast-forward — and none of it
    // may allocate either (the fast-forward scratch is preallocated at
    // construction), and neither may its offer.
    let fast_forwards_before = noc.fast_forwards();
    let corner = flows
        .flows()
        .iter()
        .map(|f| f.src)
        .max()
        .expect("hotspot set has sources");
    let dst = mesh.node_id(hotspot).unwrap();
    let (offered, allocations) = counted(|| noc.offer(corner, dst, 4));
    offered.unwrap();
    assert_eq!(
        allocations, 0,
        "offering the sparse worm allocated {allocations} times"
    );

    let (drained, allocations) = counted(|| noc.run_until_drained(100_000));
    assert!(drained, "sparse worm must drain");
    assert_eq!(
        allocations, 0,
        "horizon scheduling allocated {allocations} times on the sparse phase"
    );
    assert!(
        noc.fast_forwards() > fast_forwards_before,
        "the lone worm should have been delivered by the fast-forward"
    );
    noc.drain_delivered_into(&mut sink);
    assert_eq!(sink.len(), 2 * 4 * flows.len() + 1);
    assert!(noc.arena().is_empty());

    // Multi-VC round-robin phase: the stepping loop the VC sweep runs —
    // per-`(input, VC)` rings, strict VC priority, no worm fast-forward.
    // A warm-up wave grows this network's footprint; an identical second
    // wave must then step without allocating.
    let config = NocConfig::regular(4);
    let buffers = BufferConfig::uniform(config.input_buffer_flits);
    let vcs = VcConfig::new(3, VcAssignment::Distance).unwrap();
    let mut noc = Network::with_vcs(mesh, config, &flows, &buffers, vcs).unwrap();
    let mut sink = Vec::new();
    offer_wave(&mut noc, &flows);
    assert!(
        noc.run_until_drained(1_000_000),
        "multi-VC warm-up wave must drain"
    );
    noc.drain_delivered_into(&mut sink);
    let ((), allocations) = counted(|| offer_wave(&mut noc, &flows));
    assert_eq!(
        allocations, 0,
        "offering the multi-VC second wave allocated {allocations} times"
    );
    let (drained, allocations) = counted(|| noc.run_until_drained(1_000_000));
    assert!(drained, "multi-VC steady-state wave must drain");
    assert_eq!(
        allocations, 0,
        "multi-VC round-robin stepping allocated {allocations} times after warm-up"
    );
    noc.drain_delivered_into(&mut sink);
    assert_eq!(sink.len(), 2 * 4 * flows.len());
    assert!(noc.arena().is_empty());
}
