//! # wnoc-sim
//!
//! Cycle-accurate simulator of wormhole 2D-mesh Networks-on-Chip, the
//! substrate used to evaluate the WaW + WaP design of Panic et al. (DATE 2016).
//! It plays the role the SoCLib + gNoCSim platform plays in the paper.
//!
//! The simulator models:
//!
//! * input-buffered wormhole routers with XY routing, credit-based flow
//!   control and a pluggable output arbitration policy (round robin or the
//!   WaW weighted round robin), joined by one-cycle wires — [`router`],
//!   [`network`];
//! * network interfaces performing regular or WaP packetization — [`nic`];
//! * the complete mesh with end-to-end message tracking and statistics —
//!   [`network`], [`stats`];
//! * synthetic traffic generators and high-level drivers, including the
//!   saturated hotspot runs used to observe worst-case behaviour — [`traffic`],
//!   [`sim`];
//! * open-loop arrival-curve and trace-replay scheduling for bursty traffic —
//!   [`arrival`].
//!
//! Execution uses an allocation-free **event-horizon kernel**: all in-flight
//! flits live in one [`arena`] slab and every queue holds 4-byte handles,
//! worklists restrict each cycle to the routers and NICs that can
//! actually *act* (blocked components are skipped, their arbiter state
//! replayed lazily in closed form), drivers jump the clock straight to the
//! next event horizon, and a lone worm in an otherwise-empty network is
//! delivered by a contention-free closed-form fast-forward.  The dense
//! per-cycle reference scheduler is retained behind
//! [`network::Network::set_dense_kernel`] as a differential-testing oracle —
//! the two schedulers are bit-for-bit equivalent (see [`network`] for the design
//! notes and `docs/ARCHITECTURE.md` for the full discussion).
//!
//! # Example
//!
//! ```
//! use wnoc_core::{Coord, Mesh, NocConfig};
//! use wnoc_core::flow::FlowSet;
//! use wnoc_sim::network::Network;
//!
//! let mesh = Mesh::square(4)?;
//! let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0))?;
//! let mut noc = Network::new(mesh, NocConfig::waw_wap(), &flows)?;
//! let src = mesh.node_id(Coord::from_row_col(3, 3))?;
//! let dst = mesh.node_id(Coord::from_row_col(0, 0))?;
//! noc.offer(src, dst, 4)?;
//! assert!(noc.run_until_drained(1_000));
//! # Ok::<(), wnoc_core::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arena;
pub mod arrival;
pub mod buffer;
pub mod hash;
pub mod network;
pub mod nic;
pub mod router;
pub mod sim;
pub mod stats;
pub mod traffic;

pub use arena::{FlitArena, FlitId};
pub use arrival::{schedule_for, ScheduledMessage, ScheduledTraffic};
pub use network::{Delivered, Network};
pub use sim::{SaturatedReport, Simulation};
pub use stats::{LatencyStats, NetworkStats};
pub use traffic::{RandomTraffic, TrafficPattern};
