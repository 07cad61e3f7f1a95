//! # wnoc-core
//!
//! Primitives, mechanisms and analytical models for **time-composable wormhole
//! mesh Networks-on-Chip**, reproducing the design proposed in
//! *"Improving Performance Guarantees in Wormhole Mesh NoC Designs"*
//! (Panic et al., DATE 2016).
//!
//! The paper's contribution is a pair of bandwidth-control mechanisms that make
//! worst-case traversal time (WCTT) bounds of a wormhole mesh both *tight* and
//! *time composable*:
//!
//! * **WaP** — WCTT-aware Packetization: every request is sliced at the network
//!   interface into minimum-size (single-flit) packets so that the arbitration
//!   slot seen by contenders no longer depends on the maximum allowed packet
//!   size ([`packetization`]).
//! * **WaW** — WCTT-aware Weighted round-robin arbitration: per input/output
//!   port weights proportional to the number of flows behind each input port
//!   give every flow a fair, statically guaranteed share of every link it
//!   crosses ([`weights`], [`arbitration`]).
//!
//! This crate provides:
//!
//! * the mesh topology, XY routing and flow model ([`geometry`], [`topology`],
//!   [`routing`], [`flow`]);
//! * the two mechanisms themselves ([`packetization`], [`weights`],
//!   [`arbitration`]) and the design configuration that combines them
//!   ([`config`]);
//! * analytical WCTT models for the regular round-robin mesh and for the
//!   WaW + WaP design, plus the upper-bound delays used by the WCET computation
//!   mode ([`analysis`]).
//!
//! The cycle-accurate simulator, the 64-core manycore model and the workloads
//! used by the paper's evaluation live in the companion crates `wnoc-sim`,
//! `wnoc-manycore` and `wnoc-workloads`.
//!
//! # Quick example
//!
//! Reproducing the spirit of Table II for small meshes:
//!
//! ```
//! use wnoc_core::analysis::{table::FlowScenario, WcttTable};
//!
//! let table = WcttTable::for_sizes(&[2, 3, 4], FlowScenario::paper_default(), 1)?;
//! let last = table.rows().last().unwrap();
//! // The regular design's worst-case blows up; WaW+WaP stays tight.
//! assert!(last.regular.max > 5 * last.waw_wap.max);
//! # Ok::<(), wnoc_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod arbitration;
pub mod arrival;
pub mod buffers;
pub mod config;
pub mod error;
pub mod fault;
pub mod flow;
pub mod geometry;
pub mod overhead;
pub mod packet;
pub mod packetization;
pub mod port;
pub mod routing;
pub mod topology;
pub mod vc;
pub mod weights;

pub use arbitration::ArbitrationPolicy;
pub use arrival::ArrivalCurve;
pub use buffers::BufferConfig;
pub use config::{zero_load_head_latency, NocConfig};
pub use error::{Error, Result, StallCause};
pub use fault::{Fault, FaultKind, FaultPlan, FaultSet, RetransmitPolicy, TreeRouting};
pub use flow::{Flow, FlowId, FlowSet};
pub use geometry::{Coord, MeshDims, NodeId};
pub use overhead::{MeshOverhead, RouterOverhead};
pub use packet::{Cycle, Flit, FlitKind, MessageId, PacketId};
pub use packetization::{MessageDescriptor, PacketizationPolicy, Packetizer, Split};
pub use port::{Direction, Port};
pub use routing::{Hop, Route, RoutingAlgorithm, XyRouting};
pub use topology::{Link, Mesh};
pub use vc::{VcAssignment, VcConfig, MAX_VCS};
pub use weights::WeightTable;
