//! # wnoc-conformance
//!
//! Conformance harness cross-validating the cycle-accurate simulator
//! (`wnoc-sim`) against every analytic WCTT bound (`wnoc-core::analysis`),
//! over randomized campaigns of platforms the paper never tabulated.
//!
//! The paper's central claim is that the WaW + WaP bounds are *safe* (never
//! exceeded by an observation) and *tight* (Table II: 330 observable vs a
//! 653310 regular-mesh bound on the 8×8 mesh).  This crate machine-checks
//! safety — and measures tightness — on thousands of sampled scenarios:
//!
//! * [`Scenario`] — one sampled platform: mesh side 2–12, a flow family
//!   (all-to-one hotspots, broadcasts, endpoint request/response platforms,
//!   random pair sets, the paper's 16-thread placements from
//!   `wnoc-workloads`), a design (regular with `L ∈ {1,2,4,8}` or WaW + WaP)
//!   and a message-size distribution, all derived from `(seed, index)` via
//!   `rand_chacha`;
//! * [`Campaign`] — a seeded scenario list plus a parallel runner
//!   (`std::thread::scope` workers pulling from one shared atomic cursor);
//! * [`ConformanceReport`] — the serializable verdict: per-scenario dominance
//!   and ordering violations plus per-design tightness ratios, byte-identical
//!   regardless of the worker count;
//! * [`Fleet`] — the sharded campaign runner: contiguous scenario ranges run
//!   as independent worker *processes*, each committing a checkpointed
//!   partial report that merges byte-stably (`ConformanceReport::merge`)
//!   into the single-process report, with kill/resume from the last
//!   completed shard (see [`fleet`]).
//!
//! # Example
//!
//! ```
//! use wnoc_conformance::Campaign;
//!
//! let report = Campaign::new(7, 4).run(2)?;
//! assert!(report.passed());
//! assert!(report.tightness().max <= 1.0);
//! # Ok::<(), wnoc_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod fleet;
mod json;
pub mod scenario;

pub use campaign::{Campaign, CampaignDimension, ConformanceReport, DesignSummary};
pub use fleet::{
    partition, Fleet, FleetRunSummary, PartialReport, ShardManifest, ShardRange, ShardState,
    ShardStatus,
};
pub use scenario::{
    BufferChoice, DesignChoice, FaultChoice, FlowSetCache, Scenario, ScenarioFamily,
    ScenarioOutcome, TightnessSummary, TrafficChoice, VcChoice, Violation,
};
