//! Test support shared by the engine's integration tests: the banked 16×16
//! design-space-exploration platform and its thread moves.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use wnoc_core::analysis::incremental::{IncrementalAnalysis, Mutation};
use wnoc_core::flow::FlowSet;
use wnoc_core::{Coord, FlowId, Mesh, NodeId};

/// The banked 16×16 platform: four memory banks at the quadrant centres and
/// 64 threads, 16 per quadrant on every other node clear of the bank, each
/// with a request flow to its nearest bank (flow `2t`) and a response flow
/// back (`2t + 1`).
pub fn banked_platform() -> (Mesh, Vec<Coord>, FlowSet) {
    let mesh = Mesh::square(16).unwrap();
    let banks = vec![
        Coord::new(4, 4),
        Coord::new(11, 4),
        Coord::new(4, 11),
        Coord::new(11, 11),
    ];
    let mut pairs = Vec::new();
    // Odd coordinates in the low half, even ones in the high half: never a
    // bank's 4 or 11.
    let lanes = |low: bool| [1u16, 3, 5, 7].map(|v| if low { v } else { v + 7 });
    for (low_x, low_y) in [(true, true), (false, true), (true, false), (false, false)] {
        for y in lanes(low_y) {
            for x in lanes(low_x) {
                let core = Coord::new(x, y);
                let (core, bank) = endpoints(&mesh, &banks, core);
                pairs.push((core, bank));
                pairs.push((bank, core));
            }
        }
    }
    let flows = FlowSet::from_pairs(&mesh, pairs).unwrap();
    (mesh, banks, flows)
}

/// A thread at `core` and its nearest bank (lowest index on ties).
pub fn endpoints(mesh: &Mesh, banks: &[Coord], core: Coord) -> (NodeId, NodeId) {
    let bank = *banks
        .iter()
        .min_by_key(|bank| bank.manhattan_distance(core))
        .unwrap();
    (mesh.node_id(core).unwrap(), mesh.node_id(bank).unwrap())
}

/// Moves thread `thread` to `core`: its request and response flows.
pub fn move_thread(
    engine: &mut IncrementalAnalysis,
    mesh: &Mesh,
    banks: &[Coord],
    thread: usize,
    core: Coord,
) {
    let (core, bank) = endpoints(mesh, banks, core);
    engine
        .apply(&Mutation::MoveFlow {
            id: FlowId(2 * thread),
            src: core,
            dst: bank,
        })
        .unwrap();
    engine
        .apply(&Mutation::MoveFlow {
            id: FlowId(2 * thread + 1),
            src: bank,
            dst: core,
        })
        .unwrap();
}
