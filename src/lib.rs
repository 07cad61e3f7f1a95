//! # wnoc — time-composable wormhole mesh NoC design (WaW + WaP)
//!
//! Facade crate of the reproduction of *"Improving Performance Guarantees in
//! Wormhole Mesh NoC Designs"* (Panic et al., DATE 2016).  It re-exports the
//! four layers of the stack under one roof so examples, integration tests and
//! downstream users can depend on a single crate:
//!
//! * [`core`] (`wnoc-core`) — mesh topology, XY routing, flows, the WaP
//!   packetization and WaW weighted-arbitration mechanisms, and the analytical
//!   WCTT/UBD models;
//! * [`sim`] (`wnoc-sim`) — the cycle-accurate wormhole mesh simulator;
//! * [`manycore`] (`wnoc-manycore`) — the 64-core platform model (cores,
//!   caches-as-traces, memory controller, WCET computation mode);
//! * [`workloads`] (`wnoc-workloads`) — EEMBC-like traces, the 3DPP parallel
//!   avionics application and the thread placements;
//! * [`conformance`] (`wnoc-conformance`) — the randomized campaign harness
//!   cross-validating the simulator against every analytic WCTT bound.
//!
//! # Quick start
//!
//! ```
//! use wnoc::core::analysis::WcttTable;
//!
//! // Regenerate the analytical Table II of the paper.
//! let table = WcttTable::table2()?;
//! let eight_by_eight = table.rows().last().unwrap();
//! assert!(eight_by_eight.regular.max > 1_000 * eight_by_eight.waw_wap.max);
//! # Ok::<(), wnoc::core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wnoc_conformance as conformance;
pub use wnoc_core as core;
pub use wnoc_manycore as manycore;
pub use wnoc_sim as sim;
pub use wnoc_workloads as workloads;

/// The crate version, for reporting in experiment logs.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
