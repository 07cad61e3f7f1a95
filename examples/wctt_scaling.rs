//! WCTT scaling study (the spirit of Table II): how the worst-case traversal
//! time bound scales with the mesh size under the regular design and under
//! WaW + WaP.
//!
//! Run with `cargo run --example wctt_scaling`.

use wnoc::core::analysis::{table::FlowScenario, WcttTable};

fn main() -> Result<(), wnoc::core::Error> {
    let sizes = [2u16, 3, 4, 5, 6, 7, 8, 10, 12];
    let table = WcttTable::for_sizes(&sizes, FlowScenario::paper_default(), 1)?;

    println!("WCTT scaling with mesh size (1-flit packets, all nodes -> R(0,0))\n");
    println!("size    | regular max       | waw+wap max | gain");
    for row in table.rows() {
        let gain = row.regular.max as f64 / row.waw_wap.max.max(1) as f64;
        println!(
            "{:<7} | {:>17} | {:>11} | {:>9.1}x",
            row.dims.to_string(),
            row.regular.max,
            row.waw_wap.max,
            gain
        );
    }
    println!();
    println!(
        "The regular design's bound grows by roughly an order of magnitude per size step;\n\
         the WaW+WaP bound grows linearly with the number of contending flows."
    );
    Ok(())
}
