//! Quickstart: build the two NoC designs, send one cache-line message through
//! the cycle-accurate simulator, and compare the analytical WCTT bounds of the
//! far-corner flow.
//!
//! Run with `cargo run --example quickstart`.

use wnoc::core::analysis::{RegularWcttModel, WeightedWcttModel};
use wnoc::core::flow::FlowSet;
use wnoc::core::routing::{RoutingAlgorithm, XyRouting};
use wnoc::core::weights::WeightTable;
use wnoc::core::{Coord, Mesh, NocConfig};
use wnoc::sim::network::Network;

fn main() -> Result<(), wnoc::core::Error> {
    // The paper's platform: an 8x8 mesh whose memory controller sits at R(0,0).
    let mesh = Mesh::square(8)?;
    let memory = Coord::from_row_col(0, 0);
    let flows = FlowSet::all_to_one(&mesh, memory)?;

    // --- Cycle-accurate view: send one 4-flit cache line from the far corner.
    for config in [NocConfig::regular(4), NocConfig::waw_wap()] {
        let mut noc = Network::new(mesh, config, &flows)?;
        let src = mesh.node_id(Coord::from_row_col(7, 7))?;
        let dst = mesh.node_id(memory)?;
        noc.offer(src, dst, 4)?;
        noc.run_until_drained(10_000);
        let stats = noc.stats();
        println!(
            "{:<14} delivered {} flits in {} cycles (zero-load path)",
            config.label(),
            stats.flits_delivered,
            stats.overall_traversal_latency().max
        );
    }

    // --- Analytical view: the worst-case traversal bound of the same flow.
    let route = XyRouting.route(&mesh, Coord::from_row_col(7, 7), memory)?;
    let mut regular = RegularWcttModel::new(&flows, 4);
    let weighted = WeightedWcttModel::new(WeightTable::from_flow_set(&flows), 1);
    let regular_bound = regular.route_wctt(&route, 1);
    let weighted_bound = weighted.packet_wctt(&route);
    println!();
    println!("worst-case traversal bound, far corner -> memory:");
    println!("  regular wNoC : {regular_bound:>12} cycles");
    println!("  WaW + WaP    : {weighted_bound:>12} cycles");
    println!(
        "  improvement  : {:>12.0}x",
        regular_bound as f64 / weighted_bound as f64
    );
    Ok(())
}
