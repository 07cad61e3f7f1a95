//! Analytical worst-case traversal time (WCTT) models.
//!
//! Two models are provided, matching the two designs compared throughout the
//! paper:
//!
//! * [`regular::RegularWcttModel`] — the baseline wormhole mesh with plain
//!   round-robin arbitration.  Because the analysis must be *time composable*
//!   (independent of the co-runners' actual load), every output port on the
//!   path is assumed to be contended by every input port that could legally
//!   request it, each contender carrying a maximum-size packet that can itself
//!   be blocked downstream (chained blocking).  The resulting bound grows
//!   multiplicatively with the path length, which is the poor scalability the
//!   paper demonstrates in Table II.
//! * [`weighted::WeightedWcttModel`] — the proposed WaW + WaP design.  Each
//!   flow is statically guaranteed a share of every output port it uses, so the
//!   per-hop waiting time is bounded by one arbitration round (the number of
//!   flows sharing the port times the minimum slice size) and the end-to-end
//!   bound grows linearly with the number of contending flows.
//!
//! [`slot`] contains the single-port worked example of Section III
//! (`3·L + S` vs `3·m + m`), [`table`] assembles whole-mesh WCTT tables
//! (Table II) and [`ubd`] computes the upper-bound delays used by the WCET
//! computation mode (Tables III and the Figure 2 experiments).
//!
//! [`preemptive`] goes beyond the paper: the priority-preemptive analysis of
//! Nikolić & Indrusiak over virtual channels, which repairs the two regimes
//! conformance campaigns proved the chained-blocking bound unsound in
//! (multi-packet composition and off-calibration buffer depths).
//!
//! [`graph_buffer_aware`] extends the buffer-aware bound to **bursty**
//! arrival-curve traffic (after Giroudot & Mifdaoui, arXiv:1911.02430): a
//! buffer-dependency-graph pass over the heterogeneous per-port depths sizes
//! the cost of queueing behind a flow's own burst backlog — the sixth
//! analysis of the catalog (`docs/ORACLES.md`) and the dominance oracle of
//! bursty conformance sweeps.
//!
//! [`oracle`] exposes all analyses behind one [`oracle::WcttBoundModel`]
//! trait object so the conformance harness (`wnoc-conformance`) can
//! cross-validate the cycle-accurate simulator against every bound uniformly.
//!
//! [`incremental`] layers a mutation-driven term cache over all of the above:
//! design-space exploration applies single-design mutations (move a flow,
//! change a buffer depth, reassign VCs) and re-reads bounds that are
//! bit-identical to freshly-built models, recomputing only the terms whose
//! interference sets actually changed.

pub mod buffer_aware;
pub mod graph_buffer_aware;
pub mod incremental;
pub mod oracle;
pub mod preemptive;
pub mod regular;
pub mod slot;
pub mod table;
pub mod ubd;
pub mod weighted;

pub use buffer_aware::BufferAwareWcttModel;
pub use graph_buffer_aware::GraphBufferAwareWcttModel;
pub use incremental::{Analysis, IncrementalAnalysis, Mutation};
pub use oracle::{
    oracle_suite_with_counts, oracle_suite_with_curve, oracle_suite_with_vcs, AnalyticOnly,
    BufferAwareOracle, GraphBufferAwareOracle, RegularOracle, SlotOracle, UbdOracle,
    WcttBoundModel, WeightedFlavor, WeightedOracle,
};
pub use preemptive::PreemptiveOracle;
pub use regular::{RegularWcttModel, RouteDelta};
pub use table::{WcttSummary, WcttTable, WcttTableRow};
pub use ubd::UpperBoundDelay;
pub use weighted::WeightedWcttModel;
