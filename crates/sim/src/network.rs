//! The complete NoC: routers, wires, NICs and end-to-end message tracking,
//! executed by an allocation-free **event-horizon kernel**.
//!
//! # Timing
//!
//! Every wire takes one cycle: a flit a router forwards onto a mesh output
//! in cycle `t` enters the neighbour's facing input buffer in the same step,
//! so the neighbour can forward it again in cycle `t + 1`.  Routers and the
//! ejection port add no cycle of their own.  A lone single-flit message
//! therefore crosses `h` hops in `h + 1` cycles from injection to ejection,
//! while the WCTT analyses charge it `2h + 2` (see
//! [`wnoc_core::config::ROUTER_CHARGE`]).
//!
//! # Kernel design
//!
//! Flits live in one contiguous [`FlitArena`]; every queue (router input
//! buffers, NIC injection queues) holds 4-byte [`FlitId`] handles.
//! [`Network::step`] runs the same four phases as the dense reference
//! kernel — router decisions, wire deliveries, NIC injection, ejection
//! bookkeeping — but routers and NICs are only visited while they are on
//! their worklist.  The worklists track *actability*, not mere occupancy:
//! each component stays listed only while its behaviour in the next cycle
//! can differ from the closed-form extrapolation of doing nothing.
//!
//! * a **router** is listed while it may forward a flit.  A decision pass
//!   that forwards nothing proves the router blocked — with frozen inputs it
//!   would forward nothing every following cycle either — so it leaves the
//!   worklist even though it still buffers flits, and the per-cycle arbiter
//!   side effects of the skipped interval are replayed in O(1) on its next
//!   observation ([`Router::replay_idle`]).  Exactly three events can
//!   unblock a router, and each re-lists it with dense-kernel timing: a flit
//!   arrival (visible next cycle), a NIC injection (next cycle), and a
//!   credit return — visible *this* cycle when the returning router has the
//!   smaller index (the sweep runs in ascending index order, so the upstream
//!   router is woken into the in-progress sweep at its sorted position),
//!   next cycle otherwise;
//! * a **NIC** is listed while it can actually inject: a back-logged NIC
//!   whose local input buffer is full leaves the worklist and is re-listed
//!   the moment the router forwards a flit out of that buffer (same cycle —
//!   injection runs after the decision phase, as in the dense kernel).
//!
//! On top of the worklists, [`Network::next_horizon`] reports the earliest
//! future cycle at which *anything* can happen, and
//! [`Network::advance_to`] jumps the global clock straight to it — cycles in
//! between are provably inert, and the lazy arbiter replay keeps WaW
//! counters exact across the jump.  When a single worm is the only traffic
//! in the network, the drivers skip even its per-cycle pipelining through
//! the contention-free fast-forward (see `try_worm_fast_forward`), which
//! delivers the whole worm in O(flits + path) arithmetic.
//!
//! The dense per-cycle reference scheduler is retained behind
//! [`Network::set_dense_kernel`]: it visits every flit-holding router and
//! back-logged NIC every cycle and never jumps the clock.  The two schedulers are **bit-for-bit equivalent** — the
//! differential proptest in `crates/sim/tests/differential.rs` and the
//! `kernel_equivalence` golden suite pin that contract.
//!
//! Idle components cost nothing, so a closed-loop probing campaign on a large
//! mesh scales with live traffic instead of mesh size, and quiescence
//! ([`Network::is_drained`]) is an O(1) check: empty worklists plus an empty
//! message tracker.  After construction and a warm-up in which the arena
//! slab, the NIC queues and the message tracker reach their steady-state
//! footprint, neither [`Network::offer`] nor `step` performs a heap
//! allocation (enforced by the `zero_alloc` integration test with a counting
//! global allocator).  An offer walks the message's closed-form
//! [`Split`](wnoc_core::packetization::Split) — the one slicing rule the
//! WCTT analyses share — straight into the arena; injection touches no
//! per-message state, since a message's first-injection cycle is folded
//! from its flits' `injected` stamps as they are ejected; and delivery
//! records into per-flow [`NetworkStats`] tables indexed by [`FlowId`],
//! sized when each flow is registered.

use std::collections::HashMap;

use wnoc_core::arbitration::ArbitrationPolicy;
use wnoc_core::fault::reroute_flows;
use wnoc_core::flow::FlowSet;
use wnoc_core::packetization::Packetizer;
use wnoc_core::vc::VcConfig;
use wnoc_core::weights::WeightTable;
use wnoc_core::{
    BufferConfig, Coord, Cycle, Direction, Error, FaultPlan, FaultSet, FlowId, Mesh, MessageId,
    NocConfig, NodeId, Port, Result, RetransmitPolicy, StallCause, TreeRouting,
};

use crate::arena::{FlitArena, FlitId};
use crate::hash::FxBuildHasher;
use crate::nic::Nic;
use crate::router::{Forward, Router};
use crate::stats::NetworkStats;

/// Sentinel for "no neighbour" in the per-router lookup table.
const NONE: u32 = u32::MAX;

/// Upper bound on the flits a worm fast-forward can move (preallocates the
/// scratch so the fast path never touches the allocator; a closed-loop probe
/// is at most two maximum packets plus the WaP control slice).
const FF_MAX_FLITS: usize = 64;

/// One verified holder of the single live worm: a router buffering exactly
/// one of its flits, `dist` hops from the destination.
#[derive(Debug, Clone, Copy)]
struct FfHolder {
    dist: u32,
    router: u32,
    input: Port,
    flit: FlitId,
}

/// Progress of one message through the network.
#[derive(Debug, Clone, Copy)]
struct MessageProgress {
    flow: FlowId,
    dst: NodeId,
    created: Cycle,
    /// The smallest `injected` stamp among the flits ejected so far
    /// (`Cycle::MAX` before the first): once the last flit is out, the cycle
    /// the message's first flit entered the network.
    first_injection: Cycle,
    expected_flits: u32,
    received_flits: u32,
    /// The regular-packetization size the message was offered with — what a
    /// retransmission must re-offer (`expected_flits` counts *wire* flits,
    /// including WaP control slices, and is not a valid offer size).
    regular_flits: u32,
    /// Fault-epoch retransmissions this message has already been through.
    retries: u32,
}

/// One NACKed message waiting out its retransmission backoff.
#[derive(Debug, Clone, Copy)]
struct Retransmit {
    /// Cycle at which the source NIC re-offers the message.
    due: Cycle,
    src: NodeId,
    dst: NodeId,
    flow: FlowId,
    /// The original message id — a retransmission is the *same* message
    /// going around again, so delivery records and per-NIC id streams stay
    /// stable across fault epochs.
    message: MessageId,
    regular_flits: u32,
    /// The original offer cycle (end-to-end latency spans the outage).
    created: Cycle,
    /// Retries already consumed *before* this attempt.
    retry: u32,
}

/// A message that has been completely delivered to its destination NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// Message id (unique per source NIC).
    pub message: MessageId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Flow the message belonged to.
    pub flow: FlowId,
    /// Cycle the message was offered to the source NIC.
    pub created: Cycle,
    /// Cycle its last flit was ejected at the destination.
    pub delivered: Cycle,
}

/// A membership-tracked worklist of component indices.
///
/// `take` hands the current membership to the caller's scratch vector (both
/// vectors keep their capacity, so steady-state stepping never allocates);
/// components that remain busy are re-inserted during the sweep.
#[derive(Debug, Default)]
struct ActiveSet {
    list: Vec<u32>,
    member: Vec<bool>,
}

impl ActiveSet {
    fn with_capacity(len: usize) -> Self {
        Self {
            list: Vec::with_capacity(len),
            member: vec![false; len],
        }
    }

    fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    fn len(&self) -> usize {
        self.list.len()
    }

    fn insert(&mut self, index: usize) {
        if !self.member[index] {
            self.member[index] = true;
            self.list.push(index as u32);
        }
    }

    /// Empties the set, clearing the membership bit of every listed entry.
    fn clear(&mut self) {
        for &index in &self.list {
            self.member[index as usize] = false;
        }
        self.list.clear();
    }

    /// Moves the membership list into `scratch` (cleared first); membership
    /// bits stay set and must be maintained by the sweep via
    /// [`ActiveSet::keep`] / [`ActiveSet::remove`].
    fn take(&mut self, scratch: &mut Vec<u32>) {
        scratch.clear();
        std::mem::swap(&mut self.list, scratch);
    }

    /// Re-inserts a still-busy component during a sweep (its bit is set).
    fn keep(&mut self, index: usize) {
        debug_assert!(self.member[index]);
        self.list.push(index as u32);
    }

    /// Drops a drained component during a sweep.
    fn remove(&mut self, index: usize) {
        debug_assert!(self.member[index]);
        self.member[index] = false;
    }
}

/// A cycle-accurate wormhole mesh NoC.
///
/// The network is driven externally: callers offer messages with
/// [`Network::offer`] and advance time with [`Network::step`]; statistics are
/// available at any point through [`Network::stats`].
///
/// # Examples
///
/// ```
/// use wnoc_core::{Coord, NocConfig, Mesh};
/// use wnoc_core::flow::FlowSet;
/// use wnoc_sim::network::Network;
///
/// let mesh = Mesh::square(4)?;
/// let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0))?;
/// let mut noc = Network::new(mesh, NocConfig::waw_wap(), &flows)?;
/// let src = mesh.node_id(Coord::from_row_col(3, 3))?;
/// let dst = mesh.node_id(Coord::from_row_col(0, 0))?;
/// noc.offer(src, dst, 4)?;
/// noc.run_until_drained(10_000);
/// assert_eq!(noc.stats().messages_delivered, 1);
/// # Ok::<(), wnoc_core::Error>(())
/// ```
#[derive(Debug)]
pub struct Network {
    mesh: Mesh,
    config: NocConfig,
    buffers: BufferConfig,
    /// Virtual-channel configuration (count 1 reproduces the single-queue
    /// design bit for bit).
    vcs: VcConfig,
    /// VC carried by each flow, indexed by [`FlowId`]; extended on demand as
    /// flows register.  A flow keeps its VC at every hop.
    vc_of: Vec<u8>,
    routers: Vec<Router>,
    nics: Vec<Nic>,
    /// Neighbour router index per `(router, mesh port)`; [`NONE`] at edges.
    neighbor: Vec<[u32; Port::COUNT]>,
    /// The flit slab shared by every queue in the network.
    arena: FlitArena,
    /// Flits forwarded per `(router, output port)`, stored densely over
    /// [`Mesh::node_port_index`]: bumped once per flit per hop, squarely on
    /// the hot path, so it must not cost a hash probe.
    port_flits: Vec<u64>,
    active_routers: ActiveSet,
    active_nics: ActiveSet,
    /// Reusable sweep scratch (the double buffer of each active set).
    scratch_routers: Vec<u32>,
    scratch_nics: Vec<u32>,
    /// Reusable per-router forwarding scratch.
    scratch_forwards: Vec<Forward>,
    /// Flits ejected this cycle, in router index order.
    scratch_ejected: Vec<FlitId>,
    /// Reusable worm fast-forward scratch: the verified holders of the single
    /// live message, sorted by distance to its destination.
    scratch_ff: Vec<FfHolder>,
    /// Reusable worm fast-forward scratch: per-router header grant inputs.
    scratch_heads: Vec<Port>,
    /// Flits forwarded onto mesh outputs this cycle, in forward order, each
    /// with its downstream router index, that router's input port and the
    /// flit's VC (so delivery needs no arena lookup); phase 2 delivers them.
    scratch_wire: Vec<(u32, Port, u8, FlitId)>,
    /// Dense reference scheduling: visit every flit-holding router and
    /// back-logged NIC every cycle, never jump the clock (the differential
    /// oracle for the event-horizon scheduler).
    dense: bool,
    /// Flow id lookup for (src, dst) pairs, extended on demand.
    flow_ids: HashMap<(NodeId, NodeId), FlowId, FxBuildHasher>,
    next_flow: usize,
    /// In-flight message progress; touched on every offer, injection and
    /// ejection, hence the fast deterministic hasher.
    tracker: HashMap<(NodeId, MessageId), MessageProgress, FxBuildHasher>,
    delivered: Vec<Delivered>,
    stats: NetworkStats,
    cycle: Cycle,
    /// Successful worm fast-forwards (diagnostics: confirms the closed form
    /// actually fires on sparse workloads).
    fast_forwards: u64,
    /// The construction flow set, kept so a fault epoch can rebuild the WaW
    /// arbitration quotas from the survivors' tree routes (quotas are a
    /// static function of the flow-to-route mapping, so rerouting without
    /// reweighting would arbitrate detoured traffic on stale XY quotas).
    construction_flows: FlowSet,
    /// The installed fault plan (empty by default: the zero-fault fast path
    /// costs two branch checks per step and nothing else).
    plan: FaultPlan,
    /// Retransmission policy for messages NACKed by a fault epoch flush.
    policy: RetransmitPolicy,
    /// The faults currently active, and the up*/down* tree routing over the
    /// surviving topology (`None` until the first activation fires).
    faults: Option<FaultSet>,
    tree: Option<TreeRouting>,
    /// The next fault activation cycle not yet applied — the fault wake
    /// event folded into [`Network::next_horizon`].
    pending_activation: Option<Cycle>,
    /// NACKed messages waiting out their retransmission backoff.
    retransmit: Vec<Retransmit>,
}

impl Network {
    /// Builds a network over `mesh` with the given design configuration.
    ///
    /// `flows` describes the platform's communication flows; it is used to
    /// derive the WaW arbitration weights (and pre-registers flow ids for
    /// statistics).  Under round-robin arbitration the weights are ignored but
    /// the flow ids are still registered.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration is invalid.
    pub fn new(mesh: Mesh, config: NocConfig, flows: &FlowSet) -> Result<Self> {
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        Self::with_vcs(mesh, config, flows, &buffers, VcConfig::single())
    }

    /// Builds a network whose router input buffers follow `buffers` instead
    /// of the uniform [`NocConfig::input_buffer_flits`] depth, with
    /// `vcs.count()` virtual channels per input port.
    ///
    /// Buffer depths size the input rings; every credit counter is *derived*
    /// from the downstream neighbour's configured depth through
    /// [`BufferConfig::credits_towards`] — the single source of truth — and
    /// the construction asserts, link by link, that each output's credits
    /// equal the capacity of the input buffer it feeds.  The active-set
    /// kernel's invariants (arena slab, dirty-bit worklists, zero steady-state
    /// allocations) are depth-independent; a uniform config at the default
    /// depth with a single VC is bit-for-bit identical to [`Network::new`].
    ///
    /// Each VC gets its own ring per input port (at the full configured
    /// depth), per-`(output, VC)` credits, and strict-priority VC selection
    /// at every output (see [`Router`]).  Flows are pinned to VCs by `vcs`'s
    /// static assignment; a flow keeps its VC at every hop.  The
    /// contention-free worm fast-forward stays single-VC only (its closed
    /// form assumes one ring per port); multi-VC networks always advance
    /// horizon to horizon.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration is invalid or
    /// `buffers` does not cover `mesh`.
    pub fn with_vcs(
        mesh: Mesh,
        config: NocConfig,
        flows: &FlowSet,
        buffers: &BufferConfig,
        vcs: VcConfig,
    ) -> Result<Self> {
        config.validate()?;
        buffers.validate(&mesh)?;
        let weights = WeightTable::from_flow_set(flows);
        let count = mesh.router_count();
        let mut routers = Vec::with_capacity(count);
        let mut nics = Vec::with_capacity(count);
        let mut neighbor = vec![[NONE; Port::COUNT]; count];
        for (index, coord) in mesh.routers().enumerate() {
            let node = mesh.node_id(coord)?;
            let mut input_depths = [1u32; Port::COUNT];
            let mut output_credits = [0u32; Port::COUNT];
            for port in Port::ALL {
                input_depths[port.index()] = buffers.depth(node, port);
                // Credits are the downstream input buffer's depth: the
                // neighbour's facing port for mesh outputs, this router's own
                // local buffer for the (never credit-limited) ejection port.
                output_credits[port.index()] = match port {
                    Port::Mesh(dir) => match mesh.neighbor(coord, dir) {
                        Some(downstream) => buffers
                            .credits_towards(mesh.node_id(downstream)?, Port::Mesh(dir.opposite())),
                        None => 0,
                    },
                    Port::Local => buffers.depth(node, Port::Local),
                };
            }
            routers.push(Router::new(
                coord,
                &mesh,
                config.arbitration,
                &weights,
                &input_depths,
                &output_credits,
                vcs.count(),
            ));
            nics.push(Nic::new(node, Packetizer::new(config.packetization)?));
            for dir in Direction::ALL {
                if let Some(downstream) = mesh.neighbor(coord, dir) {
                    neighbor[index][Port::Mesh(dir).index()] =
                        mesh.node_id(downstream)?.index() as u32;
                }
            }
        }
        // Constructor invariant: credit counters agree with the rings they
        // guard.  With heterogeneous depths a divergence here would mean
        // silent flow-control corruption (overflowing `Router::accept`), so
        // the check is unconditional, not debug-only.
        for (index, coord) in mesh.routers().enumerate() {
            for dir in Direction::ALL {
                let Some(downstream) = mesh.neighbor(coord, dir) else {
                    continue;
                };
                let downstream_index = mesh.node_id(downstream)?.index();
                for vc in 0..vcs.count() as usize {
                    let credits = routers[index].credits(Port::Mesh(dir), vc);
                    let capacity =
                        routers[downstream_index].input_capacity(Port::Mesh(dir.opposite()), vc);
                    assert_eq!(
                        credits as usize, capacity,
                        "credits of {coord} towards {dir} (VC {vc}) diverge from the \
                         downstream ring"
                    );
                }
            }
        }
        let mut flow_ids: HashMap<_, _, FxBuildHasher> = HashMap::default();
        let mut vc_of = vec![0u8; flows.len()];
        for (id, flow) in flows.iter() {
            flow_ids.insert((flow.src, flow.dst), id);
            let (src, dst) = (mesh.coord_of(flow.src)?, mesh.coord_of(flow.dst)?);
            vc_of[id.0] = vcs.vc_of(id, src, dst) as u8;
        }
        let next_flow = flows.len();
        let mut stats = NetworkStats::new();
        stats.register_flows(next_flow);
        Ok(Self {
            mesh,
            config,
            buffers: buffers.clone(),
            vcs,
            vc_of,
            routers,
            nics,
            neighbor,
            arena: FlitArena::new(),
            port_flits: vec![0; count * Port::COUNT],
            active_routers: ActiveSet::with_capacity(count),
            active_nics: ActiveSet::with_capacity(count),
            scratch_routers: Vec::with_capacity(count),
            scratch_nics: Vec::with_capacity(count),
            scratch_forwards: Vec::with_capacity(Port::COUNT),
            scratch_ejected: Vec::with_capacity(count),
            scratch_ff: Vec::with_capacity(FF_MAX_FLITS),
            scratch_heads: Vec::with_capacity(FF_MAX_FLITS),
            scratch_wire: Vec::with_capacity(mesh.link_count().min(256)),
            dense: false,
            flow_ids,
            next_flow,
            tracker: HashMap::default(),
            delivered: Vec::new(),
            stats,
            cycle: 0,
            fast_forwards: 0,
            construction_flows: flows.clone(),
            plan: FaultPlan::new(),
            policy: RetransmitPolicy::default(),
            faults: None,
            tree: None,
            pending_activation: None,
            retransmit: Vec::new(),
        })
    }

    /// Drains and returns the messages delivered since the last call.
    ///
    /// Prefer [`Network::drain_delivered_into`] in loops: this convenience
    /// hands ownership out, so the internal buffer restarts at zero capacity.
    pub fn take_delivered(&mut self) -> Vec<Delivered> {
        std::mem::take(&mut self.delivered)
    }

    /// Appends the messages delivered since the last drain to `out`, keeping
    /// the internal buffer's capacity (the allocation-free variant for
    /// closed-loop drivers that poll deliveries every cycle).
    pub fn drain_delivered_into(&mut self, out: &mut Vec<Delivered>) {
        out.append(&mut self.delivered);
    }

    /// The mesh topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The design configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The router input-buffer configuration the network was built with.
    pub fn buffers(&self) -> &BufferConfig {
        &self.buffers
    }

    /// The virtual-channel configuration the network was built with.
    pub fn vcs(&self) -> &VcConfig {
        &self.vcs
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Number of whole-worm deliveries the contention-free fast-forward has
    /// performed (0 under the dense reference scheduler).
    pub fn fast_forwards(&self) -> u64 {
        self.fast_forwards
    }

    /// Collected statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Flits forwarded through `(router, output)` so far — the per-port
    /// utilisation counter, kept in a dense per-router table (bumped once
    /// per flit per hop, this is too hot for a hash map).
    pub fn port_flits(&self, router: Coord, output: Port) -> u64 {
        match self.mesh.node_id(router) {
            Ok(node) => self.port_flits[self.mesh.node_port_index(node, output)],
            Err(_) => 0,
        }
    }

    /// Utilisation of `(router, output)` as flits per cycle over the run.
    pub fn port_utilisation(&self, router: Coord, output: Port) -> f64 {
        if self.cycle == 0 {
            return 0.0;
        }
        self.port_flits(router, output) as f64 / self.cycle as f64
    }

    /// The flit arena (diagnostics: live flit count, slab high-water mark).
    pub fn arena(&self) -> &FlitArena {
        &self.arena
    }

    /// The flow id used for messages from `src` to `dst`, registering a new one
    /// if this pair was not part of the construction flow set.
    pub fn flow_id(&mut self, src: NodeId, dst: NodeId) -> FlowId {
        if let Some(&id) = self.flow_ids.get(&(src, dst)) {
            return id;
        }
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        self.flow_ids.insert((src, dst), id);
        // Late registrations extend the flow → VC table with the same static
        // assignment construction used (the endpoints are validated by every
        // caller before the lookup).
        let vc = match (self.mesh.coord_of(src), self.mesh.coord_of(dst)) {
            (Ok(s), Ok(d)) => self.vcs.vc_of(id, s, d) as u8,
            _ => 0,
        };
        debug_assert_eq!(self.vc_of.len(), id.0);
        self.vc_of.push(vc);
        self.stats.register_flows(self.next_flow);
        id
    }

    /// The VC carried by flit `id` — its flow's statically assigned ring
    /// index at every hop (always 0 in the single-VC design).
    #[inline]
    fn flit_vc(&self, id: FlitId) -> usize {
        if self.vcs.is_single() {
            return 0;
        }
        self.vc_of
            .get(self.arena.get(id).flow.0)
            .map_or(0, |&vc| vc as usize)
    }

    /// Number of flits queued at the NIC of `node` and not yet injected.
    pub fn nic_backlog(&self, node: NodeId) -> usize {
        self.nics[node.index()].pending_flits()
    }

    /// Offers a message of `size_flits` flits (regular-packetization size) from
    /// `src` to `dst`.  Returns the message id assigned by the source NIC.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SelfFlow`] if `src == dst`, an out-of-bounds error if
    /// either node does not exist, or [`Error::Unreachable`] if active faults
    /// have partitioned the pair (or killed either endpoint's router).
    pub fn offer(&mut self, src: NodeId, dst: NodeId, size_flits: u32) -> Result<MessageId> {
        if src == dst {
            return Err(Error::SelfFlow { node: src });
        }
        let src_coord = self.mesh.coord_of(src)?;
        let dst_coord = self.mesh.coord_of(dst)?;
        if let Some(tree) = &self.tree {
            if !tree.reachable(src_coord, dst_coord) {
                return Err(Error::Unreachable { src, dst });
            }
        }
        if size_flits == 0 {
            return Err(Error::EmptyMessage);
        }
        let flow = self.flow_id(src, dst);
        let now = self.cycle;
        let offered = self.nics[src.index()].offer(&mut self.arena, dst, flow, size_flits, now);
        self.active_nics.insert(src.index());
        self.stats.messages_offered += 1;
        self.tracker.insert(
            (src, offered.id),
            MessageProgress {
                flow,
                dst,
                created: now,
                first_injection: Cycle::MAX,
                expected_flits: offered.wire_flits,
                received_flits: 0,
                regular_flits: size_flits,
                retries: 0,
            },
        );
        Ok(offered.id)
    }

    /// Advances the network by one cycle.
    pub fn step(&mut self) {
        self.cycle += 1;
        let now = self.cycle;

        // Phase 0 (fault machinery; two branch checks when no plan is
        // installed): a fault activation due this cycle flushes the epoch
        // before any component acts, and NACKed messages whose backoff
        // expired re-enter through their source NICs.
        if self.pending_activation.is_some_and(|due| due <= now) {
            self.apply_fault_state(now, now);
        }
        if !self.retransmit.is_empty() {
            self.release_due_retransmits(now);
        }

        // Phase 1: actable routers take their forwarding decisions and the
        // network applies them (wire pushes, ejections, credit returns).
        // Ascending index order matches the dense reference kernel, so
        // same-cycle credit visibility between routers is preserved exactly;
        // a credit returned *upstream* to a higher-indexed blocked router
        // wakes it into this very sweep (the dense kernel would visit it
        // later this cycle and see the credit), while a credit flowing to a
        // lower-indexed router only becomes visible next cycle.
        self.active_routers.take(&mut self.scratch_routers);
        self.scratch_routers.sort_unstable();
        let mut slot = 0;
        while slot < self.scratch_routers.len() {
            let index = self.scratch_routers[slot] as usize;
            slot += 1;
            self.scratch_forwards.clear();
            self.routers[index].decide(&self.arena, now, &mut self.scratch_forwards);
            let forwarded = !self.scratch_forwards.is_empty();
            for entry in 0..self.scratch_forwards.len() {
                let fwd = self.scratch_forwards[entry];
                self.port_flits[self.mesh.node_port_index(NodeId(index), fwd.output)] += 1;
                match fwd.input {
                    // Return a credit to the upstream router that fed this
                    // input (on the drained flit's VC), and wake it if the
                    // credit may unblock it.
                    Port::Mesh(dir) => {
                        let upstream = self.neighbor[index][fwd.input.index()];
                        debug_assert_ne!(upstream, NONE, "mesh input implies a neighbour");
                        let upstream = upstream as usize;
                        self.routers[upstream].credit_return(Port::Mesh(dir.opposite()), fwd.vc);
                        if self.routers[upstream].buffered_flits() > 0 {
                            if upstream > index {
                                Self::wake_in_sweep(
                                    &mut self.active_routers,
                                    &mut self.scratch_routers,
                                    slot,
                                    upstream,
                                );
                            } else {
                                self.active_routers.insert(upstream);
                            }
                        }
                    }
                    // Draining the local input frees a slot the NIC can fill
                    // this very cycle (injection runs after this phase).
                    Port::Local => {
                        if self.nics[index].pending_flits() > 0 {
                            self.active_nics.insert(index);
                        }
                    }
                }
                match fwd.output {
                    Port::Local => self.scratch_ejected.push(fwd.flit),
                    Port::Mesh(dir) => {
                        let to = self.neighbor[index][fwd.output.index()];
                        debug_assert_ne!(to, NONE, "mesh output implies a neighbour");
                        let input = Port::Mesh(dir.opposite());
                        self.scratch_wire.push((to, input, fwd.vc as u8, fwd.flit));
                    }
                }
            }
            // Event-horizon rule: a pass that forwarded nothing proves the
            // router blocked — with frozen inputs it stays blocked until a
            // wake event — so it leaves the worklist even while buffering
            // flits (the dense reference keeps every flit-holding router).
            let busy = self.routers[index].buffered_flits() > 0;
            if busy && (self.dense || forwarded) {
                self.active_routers.keep(index);
            } else {
                self.active_routers.remove(index);
            }
        }

        // Phase 2: the flits forwarded onto the wires this cycle enter the
        // downstream buffers.  Each wire feeds a distinct (router, input)
        // pair, so the order is immaterial.
        for slot in 0..self.scratch_wire.len() {
            let (to, input, vc, id) = self.scratch_wire[slot];
            self.routers[to as usize]
                .accept(&self.arena, now, input, vc as usize, id)
                .expect("credit flow control guarantees buffer space");
            self.active_routers.insert(to as usize);
        }
        self.scratch_wire.clear();

        // Phase 3: backlogged NICs inject into the local input buffers.
        self.active_nics.take(&mut self.scratch_nics);
        self.scratch_nics.sort_unstable();
        for slot in 0..self.scratch_nics.len() {
            let index = self.scratch_nics[slot] as usize;
            // FIFO injection: the head flit's VC ring must have room; a head
            // blocked on its ring stalls the NIC (head-of-line, exactly one
            // injection queue) until the router drains that ring.
            while let Some(peeked) = self.nics[index].peek() {
                let vc = self.flit_vc(peeked);
                if self.routers[index].free_slots(Port::Local, vc) == 0 {
                    break;
                }
                let id = self.nics[index]
                    .inject(&mut self.arena, now)
                    .expect("peeked flit exists");
                self.stats.flits_injected += 1;
                if self.arena.get(id).kind.is_head() {
                    self.stats.packets_injected += 1;
                }
                self.routers[index]
                    .accept(&self.arena, now, Port::Local, vc, id)
                    .expect("free slot checked above");
                self.active_routers.insert(index);
            }
            // Event-horizon rule: the loop above exits with either an empty
            // backlog or a full local buffer; a back-logged-but-full NIC
            // cannot inject until the router drains the buffer, and that
            // forward re-lists it (same cycle).  The dense reference keeps
            // every back-logged NIC listed.
            if self.dense && self.nics[index].pending_flits() > 0 {
                self.active_nics.keep(index);
            } else {
                self.active_nics.remove(index);
            }
        }

        // Phase 4: ejections complete messages and release arena slots.
        for slot in 0..self.scratch_ejected.len() {
            let id = self.scratch_ejected[slot];
            let flit = *self.arena.get(id);
            self.arena.free(id);
            self.stats.flits_delivered += 1;
            if flit.kind.is_tail() {
                self.stats.packets_delivered += 1;
            }
            let key = (flit.src, flit.message);
            let finished = if let Some(progress) = self.tracker.get_mut(&key) {
                progress.received_flits += 1;
                progress.first_injection = progress.first_injection.min(flit.injected);
                progress.received_flits >= progress.expected_flits
            } else {
                false
            };
            if finished {
                let progress = self.tracker.remove(&key).expect("present above");
                let end_to_end = now.saturating_sub(progress.created);
                let traversal = now.saturating_sub(progress.first_injection);
                self.stats
                    .record_message(progress.flow, end_to_end, traversal);
                self.delivered.push(Delivered {
                    message: flit.message,
                    src: flit.src,
                    dst: progress.dst,
                    flow: progress.flow,
                    created: progress.created,
                    delivered: now,
                });
            }
        }
        self.scratch_ejected.clear();

        self.stats.cycles = self.cycle;
    }

    /// Returns `true` when no flit is buffered or awaiting injection anywhere
    /// in the network.
    ///
    /// With the active-set kernel this is an O(1) check: every component
    /// holding traffic is on a worklist, and every tracked message still has
    /// flits somewhere in the system.
    pub fn is_drained(&self) -> bool {
        let quiescent = self.active_routers.is_empty()
            && self.active_nics.is_empty()
            && self.tracker.is_empty()
            && self.retransmit.is_empty();
        debug_assert_eq!(
            quiescent,
            self.nics.iter().all(Nic::is_drained)
                && self.routers.iter().all(Router::is_idle)
                && self.tracker.is_empty()
                && self.retransmit.is_empty()
                && self.arena.is_empty(),
            "active sets drifted from component state at cycle {}",
            self.cycle
        );
        quiescent
    }

    /// Selects the scheduler: `true` pins the dense per-cycle reference
    /// (every flit-holding router and back-logged NIC visited every cycle, no
    /// clock jumps, no worm fast-forward), `false` the event-horizon kernel.
    /// The two are bit-for-bit equivalent; the dense scheduler exists as the
    /// differential-testing oracle.  Networks start on the event-horizon
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if the network is not drained: the schedulers keep different
    /// worklist invariants mid-flight, so the mode can only change while
    /// every worklist is provably empty.
    pub fn set_dense_kernel(&mut self, dense: bool) {
        assert!(
            self.is_drained(),
            "kernel mode can only change on a drained network"
        );
        self.dense = dense;
    }

    /// `true` while the dense per-cycle reference scheduler is selected.
    pub fn dense_kernel(&self) -> bool {
        self.dense
    }

    /// Wakes blocked router `index` into the in-progress ascending sweep of
    /// the current cycle (a lower-indexed router just returned it a credit,
    /// which the dense kernel would let it observe this very cycle).
    fn wake_in_sweep(active: &mut ActiveSet, sweep: &mut Vec<u32>, from_slot: usize, index: usize) {
        if active.member[index] {
            // Already pending later in this sweep (every listed index above
            // the current position is still unvisited).
            return;
        }
        active.member[index] = true;
        let position =
            from_slot + sweep[from_slot..].partition_point(|&entry| (entry as usize) < index);
        sweep.insert(position, index as u32);
    }

    /// The earliest future cycle at which the network's state can change, or
    /// `None` when nothing will ever happen again without external input
    /// (the network is drained — or deadlocked with every component blocked).
    ///
    /// Routers and NICs on a worklist may act in the very next cycle.  With
    /// both worklists empty, only the fault machinery can wake the network:
    /// the horizon is then the earlier of a pending fault activation and the
    /// next retransmission release, and every cycle before it is provably
    /// inert and can be skipped wholesale via [`Network::advance_to`].
    pub fn next_horizon(&self) -> Option<Cycle> {
        if !self.active_routers.is_empty() || !self.active_nics.is_empty() {
            return Some(self.cycle + 1);
        }
        // The dense kernel never jumps, so any future fault event pins its
        // horizon to the very next cycle.
        let mut horizon: Option<Cycle> = None;
        if let Some(due) = self.pending_activation {
            let due = if self.dense { self.cycle + 1 } else { due };
            horizon = Some(due.max(self.cycle + 1));
        }
        for entry in &self.retransmit {
            let due = if self.dense {
                self.cycle + 1
            } else {
                entry.due
            };
            let due = due.max(self.cycle + 1);
            horizon = Some(horizon.map_or(due, |h: Cycle| h.min(due)));
        }
        horizon
    }

    /// Jumps the clock to `target - 1` and steps once, landing on `target`.
    ///
    /// The caller must have established — via [`Network::next_horizon`] —
    /// that every skipped cycle is inert; the lazily-replayed arbiter state
    /// makes the jump observationally identical to stepping through each
    /// skipped cycle.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `target` is not in the future.
    pub fn advance_to(&mut self, target: Cycle) {
        debug_assert!(target > self.cycle, "advance_to targets a future cycle");
        self.cycle = target - 1;
        self.step();
    }

    /// Advances the clock over a provably event-free interval without
    /// stepping (the no-event tail of a drain budget).
    fn idle_until(&mut self, target: Cycle) {
        if target > self.cycle {
            self.cycle = target;
            self.stats.cycles = target;
        }
    }

    /// Steps until the network is quiescent or `max_cycles` additional cycles
    /// have elapsed.
    ///
    /// This is the single drain driver every simulation loop builds on.
    /// Under the event-horizon kernel it advances horizon to horizon instead
    /// of cycle to cycle — and delivers a lone worm in closed form — with
    /// observable behaviour identical to the dense reference.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SimulationStalled`] — enriched with the stuck cycle,
    /// the number of flits still in the system and the number of routers
    /// holding them — if the network fails to drain within the budget.
    pub fn step_until_quiescent(&mut self, max_cycles: u64) -> Result<()> {
        let deadline = self.cycle + max_cycles;
        while self.cycle < deadline {
            if self.is_drained() {
                return Ok(());
            }
            if self.try_worm_fast_forward(deadline) {
                continue;
            }
            match self.next_horizon() {
                Some(horizon) if horizon <= deadline => self.advance_to(horizon),
                _ => {
                    // No event inside the budget: the remaining cycles are
                    // inert, so the dense outcome — spinning to the deadline
                    // and reporting the stall there — is reproduced by
                    // jumping straight to it.
                    self.idle_until(deadline);
                    break;
                }
            }
        }
        if self.is_drained() {
            return Ok(());
        }
        Err(self.stall_error(max_cycles))
    }

    /// Contention-free worm fast-forward: when a single message's worm is the
    /// only traffic in the network, delivers it whole in closed form —
    /// O(flits + path) arithmetic instead of O(flits × path) cycle stepping —
    /// and jumps the clock to the delivery cycle of its last flit.  Returns
    /// `true` if the fast-forward fired.
    ///
    /// # Preconditions (all verified, with no state touched on a bail-out)
    ///
    /// * exactly one message is live and its source NIC is fully drained;
    /// * every live flit sits at the front of one input buffer, one flit per
    ///   router, at strictly consecutive XY distances from the destination —
    ///   the shape of an unimpeded worm pipelining one hop per cycle — and
    ///   each is forwardable (header with no stale hold, or the continuation
    ///   of the hold on its latched output);
    /// * every router input buffer holds at least 2 flits
    ///   ([`BufferConfig::min_depth`]), so the credit round-trip can never
    ///   hiccup the stream regardless of router index order;
    /// * the final delivery lands inside the caller's `cap` (a driver's
    ///   measurement window or drain budget).
    ///
    /// # Why this is bit-for-bit exact
    ///
    /// With the rest of the network empty, no arbitration is ever contended:
    /// the worm advances one hop per cycle, so flit `j` (at distance `m_j`)
    /// is ejected at exactly `now + 1 + m_j`, each header is granted as a
    /// single requester (which never moves WaW counters), every bypassed
    /// router's other outputs see precisely one idle grant per transit cycle
    /// ([`Router::ff_transit`]), each hop's credit consume/return pair
    /// completes inside the window (net zero), and the one credit still owed
    /// upstream per holder is returned — leaving every counter, hold, and
    /// arbiter exactly where the dense kernel would.  New offers can only
    /// arrive between driver iterations, i.e. after the jump, exactly as
    /// they would after the dense kernel delivered the worm.
    pub(crate) fn try_worm_fast_forward(&mut self, cap: Cycle) -> bool {
        // The closed form models one ring per input port; with several VCs the
        // lone worm could interleave with idle rings it must not touch, so the
        // multi-VC design always takes the exact per-cycle path.
        if self.dense || !self.vcs.is_single() || self.tracker.len() != 1 {
            return false;
        }
        if !self.active_nics.is_empty() {
            return false;
        }
        let holders = self.active_routers.len();
        if holders == 0 || holders > FF_MAX_FLITS || self.arena.live() != holders {
            return false;
        }
        if self.buffers.min_depth() < 2 {
            return false;
        }
        let (&key, progress) = self.tracker.iter().next().expect("tracker has one entry");
        let progress = *progress;
        if progress.received_flits + holders as u32 != progress.expected_flits {
            return false;
        }
        if self.nics[key.0.index()].pending_flits() > 0 {
            return false;
        }
        let dst = progress.dst;
        let Ok(dst_coord) = self.mesh.coord_of(dst) else {
            return false;
        };

        // Verification pass A: each listed router holds exactly one
        // forwardable flit of the message.  (`arena.live() == holders` then
        // proves no *unlisted* component hides a flit.)
        self.scratch_ff.clear();
        for slot in 0..self.active_routers.len() {
            let router = self.active_routers.list[slot];
            let index = router as usize;
            let Some((input, flit_id)) = self.routers[index].only_flit() else {
                return false;
            };
            let flit = self.arena.get(flit_id);
            if flit.dst != dst {
                return false;
            }
            let out = self.routers[index].route_to(dst);
            match self.routers[index].hold_packet(out) {
                Some(held) => {
                    if flit.packet != held || flit.kind.is_head() {
                        return false;
                    }
                }
                None => {
                    if !flit.kind.is_head() {
                        return false;
                    }
                }
            }
            let dist = self.routers[index].coord().manhattan_distance(dst_coord);
            self.scratch_ff.push(FfHolder {
                dist,
                router,
                input,
                flit: flit_id,
            });
        }
        self.scratch_ff.sort_unstable_by_key(|h| h.dist);
        let m_min = self.scratch_ff[0].dist;
        let m_max = self.scratch_ff[holders - 1].dist;
        for (offset, holder) in self.scratch_ff.iter().enumerate() {
            // Strictly consecutive distances: the unimpeded one-hop-per-cycle
            // pipeline shape (gaps would interleave idle grants mid-span).
            if holder.dist != m_min + offset as u32 {
                return false;
            }
        }
        let now = self.cycle;
        let last_delivery = now + 1 + u64::from(m_max);
        if last_delivery > cap {
            return false;
        }
        // A fault activation or retransmission release inside the jump window
        // would interleave with the worm; fall back to per-cycle stepping.
        if self
            .pending_activation
            .is_some_and(|due| due <= last_delivery)
        {
            return false;
        }
        if self.retransmit.iter().any(|r| r.due <= last_delivery) {
            return false;
        }

        // Verification pass B: walk the XY path destination-ward from the
        // tail-most holder; every holder must sit on it at its claimed
        // distance, fed through the path-facing input.
        {
            let mut cur = self.scratch_ff[holders - 1].router as usize;
            for m in (0..=m_max).rev() {
                let out = self.routers[cur].route_to(dst);
                if m == 0 {
                    if out != Port::Local {
                        return false;
                    }
                    break;
                }
                let Port::Mesh(dir) = out else {
                    return false;
                };
                let next = self.neighbor[cur][out.index()];
                if next == NONE {
                    return false;
                }
                if m > m_min {
                    let downstream = &self.scratch_ff[(m - 1 - m_min) as usize];
                    if downstream.router != next || downstream.input != Port::Mesh(dir.opposite()) {
                        return false;
                    }
                }
                cur = next as usize;
            }
        }

        // Apply pass: replay every path router's transit span in closed
        // form, walking destination-ward from the tail-most holder.
        let mut cur = self.scratch_ff[holders - 1].router as usize;
        let mut upstream_in: Option<Port> = None;
        for m in (0..=m_max).rev() {
            let out = self.routers[cur].route_to(dst);
            let effective = m.max(m_min);
            let pass = u64::from(m_max - effective) + 1;
            let first_decide = now + 1 + u64::from(m_min.saturating_sub(m));
            self.scratch_heads.clear();
            for mj in effective..=m_max {
                let holder = self.scratch_ff[(mj - m_min) as usize];
                if self.arena.get(holder.flit).kind.is_head() {
                    let input = if mj == m {
                        holder.input
                    } else {
                        upstream_in.expect("flits above arrive via the walked hop")
                    };
                    self.scratch_heads.push(input);
                }
            }
            self.routers[cur].ff_transit(&self.arena, out, &self.scratch_heads, first_decide, pass);
            self.port_flits[self.mesh.node_port_index(NodeId(cur), out)] += pass;
            if m >= m_min {
                let holder = self.scratch_ff[(m - m_min) as usize];
                if let Port::Mesh(dir) = holder.input {
                    // The credit consumed when this flit was forwarded into
                    // `cur` is finally returned as the worm moves on.
                    let upstream = self.neighbor[cur][holder.input.index()];
                    debug_assert_ne!(upstream, NONE, "mesh input implies a neighbour");
                    self.routers[upstream as usize].credit_return(Port::Mesh(dir.opposite()), 0);
                }
                let popped = self.routers[cur].ff_pop(&self.arena, holder.input);
                debug_assert_eq!(popped, holder.flit, "verified front flit");
            }
            if m == 0 {
                break;
            }
            let Port::Mesh(dir) = out else {
                unreachable!("verified path")
            };
            upstream_in = Some(Port::Mesh(dir.opposite()));
            cur = self.neighbor[cur][out.index()] as usize;
        }

        // Ejection bookkeeping, in delivery order (nearest flit first).
        let mut first_injection = progress.first_injection;
        for slot in 0..holders {
            let holder = self.scratch_ff[slot];
            let flit = *self.arena.get(holder.flit);
            self.arena.free(holder.flit);
            first_injection = first_injection.min(flit.injected);
            self.stats.flits_delivered += 1;
            if flit.kind.is_tail() {
                self.stats.packets_delivered += 1;
            }
        }
        self.tracker.remove(&key).expect("present above");
        let end_to_end = last_delivery.saturating_sub(progress.created);
        let traversal = last_delivery.saturating_sub(first_injection);
        self.stats
            .record_message(progress.flow, end_to_end, traversal);
        self.delivered.push(Delivered {
            message: key.1,
            src: key.0,
            dst,
            flow: progress.flow,
            created: progress.created,
            delivered: last_delivery,
        });
        self.active_routers.clear();
        self.cycle = last_delivery;
        self.stats.cycles = last_delivery;
        self.fast_forwards += 1;
        true
    }

    /// The enriched stall diagnostic for the current network state.
    fn stall_error(&self, drain_limit: u64) -> Error {
        let router_flits: usize = self.routers.iter().map(Router::buffered_flits).sum();
        let nic_flits: usize = self.nics.iter().map(Nic::pending_flits).sum();
        Error::SimulationStalled {
            drain_limit,
            cycle: self.cycle,
            buffered_flits: (router_flits + nic_flits) as u64,
            stalled_routers: self
                .routers
                .iter()
                .filter(|r| r.buffered_flits() > 0)
                .count(),
            cause: self.stall_cause(),
        }
    }

    /// Classifies a failed drain: if any stuck flit's destination is
    /// unreachable from where the flit sits (its remaining route would cross
    /// failed hardware), the stall is a **partition**; otherwise it is a
    /// credit-cycle **deadlock** candidate.  A healthy network (no faults
    /// ever activated) always classifies as a deadlock candidate.
    fn stall_cause(&self) -> StallCause {
        let Some(tree) = &self.tree else {
            return StallCause::Deadlock;
        };
        let severed_at = |index: usize, id: FlitId| -> bool {
            let at = self
                .mesh
                .coord_of(NodeId(index))
                .expect("router index in mesh");
            match self.mesh.coord_of(self.arena.get(id).dst) {
                Ok(dst) => !tree.reachable(at, dst),
                Err(_) => true,
            }
        };
        let mut severed = 0u64;
        for (index, router) in self.routers.iter().enumerate() {
            severed += router
                .buffered_flit_ids()
                .filter(|&id| severed_at(index, id))
                .count() as u64;
        }
        for (index, nic) in self.nics.iter().enumerate() {
            severed += nic
                .pending_ids()
                .filter(|&id| severed_at(index, id))
                .count() as u64;
        }
        if severed > 0 {
            StallCause::Partition {
                severed_flits: severed,
            }
        } else {
            StallCause::Deadlock
        }
    }

    /// Buffered-flit count per router, in router index order, skipping empty
    /// routers — the per-router occupancy snapshot failure logs attach to a
    /// stalled run.
    pub fn per_router_occupancy(&self) -> Vec<(NodeId, usize)> {
        self.routers
            .iter()
            .enumerate()
            .filter(|(_, r)| r.buffered_flits() > 0)
            .map(|(index, r)| (NodeId(index), r.buffered_flits()))
            .collect()
    }

    /// Steps until the network drains or `max_cycles` additional cycles have
    /// elapsed; returns `true` if it drained.
    pub fn run_until_drained(&mut self, max_cycles: u64) -> bool {
        self.step_until_quiescent(max_cycles).is_ok()
    }

    /// Runs for exactly `cycles` cycles.
    pub fn run_for(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Installs a fault plan: permanent link/router failures that activate at
    /// their scheduled cycles, with `policy` governing the retransmission of
    /// messages caught in a fault epoch.
    ///
    /// Faults whose activation is not in the future take effect immediately
    /// (install before offering traffic to start in a degraded topology);
    /// later activations fire at the top of their scheduled cycle, before any
    /// component acts.  Each activation performs a **full epoch flush**: every
    /// in-network flit is purged, every live message is NACKed back to its
    /// source NIC — re-offered after an exponential backoff under the same
    /// message id, or dropped as undeliverable once its endpoints are severed
    /// or its retry budget is exhausted — and all surviving routers switch to
    /// deadlock-free up*/down* tree routing over the surviving topology.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if a non-empty plan is already
    /// installed, or the plan's validation error if it does not fit the mesh.
    pub fn install_fault_plan(&mut self, plan: FaultPlan, policy: RetransmitPolicy) -> Result<()> {
        if !self.plan.is_empty() {
            return Err(Error::InvalidConfig {
                reason: "fault plan already installed".into(),
            });
        }
        plan.validate(&self.mesh)?;
        self.plan = plan;
        self.policy = policy;
        let now = self.cycle;
        if self.plan.faults().iter().any(|f| f.activation <= now) {
            // Between steps the decisions of `now` are already taken, so the
            // pre-fault epoch closes *through* `now` (an in-step activation
            // closes through `now - 1` instead).
            self.apply_fault_state(now, now + 1);
        } else {
            self.pending_activation = self.plan.next_activation_after(now);
        }
        Ok(())
    }

    /// The installed fault plan (empty when none was installed).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The faults active right now, or `None` before the first activation.
    pub fn active_faults(&self) -> Option<&FaultSet> {
        self.faults.as_ref()
    }

    /// The fault-tolerant tree routing in force, or `None` while the network
    /// still routes XY (no activation has fired).
    pub fn tree_routing(&self) -> Option<&TreeRouting> {
        self.tree.as_ref()
    }

    /// Messages currently waiting out a retransmission backoff.
    pub fn retransmit_backlog(&self) -> usize {
        self.retransmit.len()
    }

    /// Applies every fault scheduled at or before `active_cycle` and flushes
    /// the epoch.  `replay_next` is the replay horizon that closes the
    /// pre-fault epoch: every router's lazily-skipped arbiter cycles up to
    /// `replay_next - 1` are settled against the *pre-purge* frozen state, so
    /// the dense and event-horizon kernels — bit-identical before the flush —
    /// remain bit-identical after it.
    fn apply_fault_state(&mut self, active_cycle: Cycle, replay_next: Cycle) {
        debug_assert!(
            self.scratch_wire.is_empty(),
            "activation runs before phase 1"
        );
        let faults = self.plan.active_at(&self.mesh, active_cycle);
        self.pending_activation = self.plan.next_activation_after(active_cycle);
        let tree = TreeRouting::new(&faults);

        // Close the pre-fault epoch: settle every router's skipped arbiter
        // cycles against the frozen pre-purge request state.
        for router in &mut self.routers {
            router.replay_idle(&self.arena, replay_next);
        }

        // Epoch flush: purge every queued and in-flight flit, reset credits
        // to construction values (everything is empty again), clear holds,
        // and swap the surviving routers to tree-routed LUTs.  Dead routers
        // keep their stale state — nothing routes to or through them again.
        let mut purged = Vec::new();
        // Degraded-mode reconfiguration covers arbitration, not just routes:
        // WaW quotas are a static function of the flow-to-route mapping, so
        // the surviving routers' arbiters are rebuilt from the survivors'
        // tree routes (round-robin arbiters carry no route-derived state and
        // keep their construction instances).
        let reweighted = (self.config.arbitration == ArbitrationPolicy::Waw).then(|| {
            let reroute = reroute_flows(&self.construction_flows, &tree)
                .expect("pairs the forest reports reachable always have a tree route");
            WeightTable::from_flow_set(&reroute.flows)
        });
        for (index, coord) in self.mesh.routers().enumerate() {
            let credits = self.construction_credits(coord);
            self.routers[index].purge_for_epoch(&credits, &mut purged);
            if tree.alive(coord) {
                if let Ok(lut) = tree.lut_for(coord) {
                    self.routers[index].set_route_lut(lut);
                }
                if let Some(weights) = &reweighted {
                    self.routers[index].reset_arbiters(self.config.arbitration, weights);
                }
            }
        }
        for nic in &mut self.nics {
            nic.purge_into(&mut purged);
        }
        self.stats.flits_purged += purged.len() as u64;
        for id in purged {
            self.arena.free(id);
        }
        debug_assert!(
            self.arena.is_empty(),
            "epoch flush frees every live flit at cycle {active_cycle}"
        );
        self.active_routers.clear();
        self.active_nics.clear();

        // NACK every live message in deterministic (source, id) order:
        // deliverable pairs re-enter through the retransmission queue after
        // an exponential backoff; severed pairs and exhausted retry budgets
        // drop as undeliverable.
        let mut nacked: Vec<((NodeId, MessageId), MessageProgress)> =
            self.tracker.drain().collect();
        nacked.sort_unstable_by_key(|&(key, _)| key);
        for ((src, message), progress) in nacked {
            let reachable = match (self.mesh.coord_of(src), self.mesh.coord_of(progress.dst)) {
                (Ok(s), Ok(d)) => tree.reachable(s, d),
                _ => false,
            };
            if !reachable || progress.retries >= self.policy.max_retries {
                self.stats.messages_undeliverable += 1;
                continue;
            }
            self.stats.messages_retransmitted += 1;
            *self
                .stats
                .retransmits_by_flow
                .entry(progress.flow)
                .or_insert(0) += 1;
            self.retransmit.push(Retransmit {
                due: active_cycle.saturating_add(self.policy.backoff_delay(progress.retries)),
                src,
                dst: progress.dst,
                flow: progress.flow,
                message,
                regular_flits: progress.regular_flits,
                created: progress.created,
                retry: progress.retries,
            });
        }
        self.faults = Some(faults);
        self.tree = Some(tree);
    }

    /// Re-offers every retransmission whose backoff expired, in deterministic
    /// `(due, src, message)` order.  A later activation may have severed a
    /// pair after its NACK, so reachability is re-checked at release.
    fn release_due_retransmits(&mut self, now: Cycle) {
        if !self.retransmit.iter().any(|r| r.due <= now) {
            return;
        }
        let mut due: Vec<Retransmit> = Vec::new();
        let mut index = 0;
        while index < self.retransmit.len() {
            if self.retransmit[index].due <= now {
                due.push(self.retransmit.swap_remove(index));
            } else {
                index += 1;
            }
        }
        due.sort_unstable_by_key(|r| (r.due, r.src, r.message));
        for entry in due {
            let reachable = match (
                self.tree.as_ref(),
                self.mesh.coord_of(entry.src),
                self.mesh.coord_of(entry.dst),
            ) {
                (Some(tree), Ok(s), Ok(d)) => tree.reachable(s, d),
                (None, ..) => true,
                _ => false,
            };
            if !reachable {
                self.stats.messages_undeliverable += 1;
                continue;
            }
            let offered = self.nics[entry.src.index()].reoffer(
                &mut self.arena,
                entry.dst,
                entry.flow,
                entry.regular_flits,
                now,
                entry.message,
            );
            self.active_nics.insert(entry.src.index());
            self.tracker.insert(
                (entry.src, entry.message),
                MessageProgress {
                    flow: entry.flow,
                    dst: entry.dst,
                    created: entry.created,
                    first_injection: Cycle::MAX,
                    expected_flits: offered.wire_flits,
                    received_flits: 0,
                    regular_flits: entry.regular_flits,
                    retries: entry.retry + 1,
                },
            );
        }
    }

    /// The construction-time output-credit array of `coord` — what the
    /// constructor derived from [`BufferConfig::credits_towards`], recomputed
    /// for the epoch-flush credit reset (with every ring empty, credits
    /// return to their full construction values).
    fn construction_credits(&self, coord: Coord) -> [u32; Port::COUNT] {
        let node = self.mesh.node_id(coord).expect("router coord in mesh");
        let mut output_credits = [0u32; Port::COUNT];
        for port in Port::ALL {
            output_credits[port.index()] = match port {
                Port::Mesh(dir) => match self.mesh.neighbor(coord, dir) {
                    Some(downstream) => self.buffers.credits_towards(
                        self.mesh.node_id(downstream).expect("neighbour in mesh"),
                        Port::Mesh(dir.opposite()),
                    ),
                    None => 0,
                },
                Port::Local => self.buffers.depth(node, Port::Local),
            };
        }
        output_credits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(side: u16, config: NocConfig) -> Network {
        let mesh = Mesh::square(side).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        Network::new(mesh, config, &flows).unwrap()
    }

    fn node(network: &Network, row: u16, col: u16) -> NodeId {
        network
            .mesh()
            .node_id(Coord::from_row_col(row, col))
            .unwrap()
    }

    #[test]
    fn single_message_is_delivered() {
        let mut noc = build(4, NocConfig::regular(4));
        let src = node(&noc, 3, 3);
        let dst = node(&noc, 0, 0);
        noc.offer(src, dst, 4).unwrap();
        assert!(noc.run_until_drained(1_000));
        assert_eq!(noc.stats().messages_delivered, 1);
        assert_eq!(noc.stats().flits_delivered, 4);
        assert_eq!(noc.stats().packets_delivered, 1);
    }

    #[test]
    fn wap_message_is_delivered_with_overhead() {
        let mut noc = build(4, NocConfig::waw_wap());
        let src = node(&noc, 3, 3);
        let dst = node(&noc, 0, 0);
        noc.offer(src, dst, 4).unwrap();
        assert!(noc.run_until_drained(1_000));
        assert_eq!(noc.stats().messages_delivered, 1);
        // The 4-flit message became 5 single-flit packets.
        assert_eq!(noc.stats().flits_delivered, 5);
        assert_eq!(noc.stats().packets_delivered, 5);
    }

    #[test]
    fn zero_load_latency_matches_hop_count() {
        use wnoc_core::config::lone_message_latency;
        // The simulator's elementary costs, exact under both kernels, on an
        // 8×8 mesh built over all-to-one flows to R(0, 0).  Every wire takes
        // one cycle and routers and ejection add none, so a lone message over
        // `h` hops is traversed (first flit injected to last flit ejected) in
        // `h + wire flits` cycles; an offer is injected one cycle later, so
        // its end-to-end latency is one more.
        let regular = NocConfig::regular(4);
        let waw_wap = NocConfig::waw_wap();
        // (design, input buffer depth, offers made in one cycle as (source
        // (row, col), destination (row, col), message flits), and the
        // (traversal, end-to-end) latency of each offer)
        let mut table = Vec::new();
        // A lone message; one that meets no credit stall takes the
        // analyses' `lone_message_latency` end to end.
        let lone = |config: NocConfig,
                    depth,
                    src: (u16, u16),
                    dst: (u16, u16),
                    flits,
                    traversal: u64,
                    stalled: bool| {
            if !stalled {
                let hops = Coord::from_row_col(src.0, src.1)
                    .manhattan_distance(Coord::from_row_col(dst.0, dst.1));
                let wire_flits = config.packetization.split(flits).wire_flits();
                assert_eq!(
                    traversal + 1,
                    lone_message_latency(hops, wire_flits),
                    "{} {src:?} -> {dst:?}, {flits} flits",
                    config.label()
                );
            }
            let offers = vec![(src, dst, flits)];
            (config, depth, offers, vec![(traversal, traversal + 1)])
        };
        // A lone message over h = 1, 3, 5 hops; WaP slices the 4-flit
        // message into 5 single-flit packets.
        for (config, flits, latencies) in [
            (regular, 1, [2, 4, 6]),
            (regular, 4, [5, 7, 9]),
            (waw_wap, 4, [6, 8, 10]),
        ] {
            for (hops, traversal) in [1u16, 3, 5].into_iter().zip(latencies) {
                table.push(lone(config, 4, (0, hops), (0, 0), flits, traversal, false));
            }
        }
        for config in [regular, waw_wap] {
            // Two single-flit contenders reach R(0, 0)'s ejection port in the
            // same cycle, from the east and from the south: the one from the
            // south is granted first.
            let offers = vec![((0, 2), (0, 0), 1), ((1, 1), (0, 0), 1)];
            table.push((config, 4, offers, vec![(4, 5), (3, 4)]));
        }
        // Back to back: two 4-flit messages of one flow, offered together...
        let twice = vec![((0, 3), (0, 0), 4); 2];
        table.push((regular, 4, twice.clone(), vec![(7, 8), (10, 12)]));
        table.push((waw_wap, 4, twice, vec![(8, 9), (11, 14)]));
        // ...and one 8-flit message (two regular packets, nine WaP slices):
        // no bubble between the packets.
        table.push(lone(regular, 4, (0, 3), (0, 0), 8, 11, false));
        table.push(lone(waw_wap, 4, (0, 3), (0, 0), 8, 12, false));
        // A credit stall at depth d: a lone 4-flit message over 3 hops West,
        // North, East and South.  Routers are swept in ascending index order,
        // so a credit returned to a higher-indexed router is seen in the same
        // cycle and one returned to a lower-indexed router the next cycle: at
        // depth 1 that stalls every flit going East or South.
        for depth in 1..=4 {
            for (src, dst, ascending) in [
                ((0, 3), (0, 0), false),
                ((3, 0), (0, 0), false),
                ((0, 0), (0, 3), true),
                ((0, 0), (3, 0), true),
            ] {
                let stalled = depth == 1 && ascending;
                let (traversal, wap_traversal) = if stalled { (10, 12) } else { (7, 8) };
                table.push(lone(regular, depth, src, dst, 4, traversal, stalled));
                table.push(lone(waw_wap, depth, src, dst, 4, wap_traversal, stalled));
            }
        }
        let mesh = Mesh::square(8).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let at = |(row, col)| mesh.node_id(Coord::from_row_col(row, col)).unwrap();
        for (config, depth, offers, latencies) in table {
            for dense in [false, true] {
                let buffers = BufferConfig::uniform(depth);
                let mut noc =
                    Network::with_vcs(mesh, config, &flows, &buffers, VcConfig::single()).unwrap();
                noc.set_dense_kernel(dense);
                for &(src, dst, flits) in &offers {
                    noc.offer(at(src), at(dst), flits).unwrap();
                }
                assert!(noc.run_until_drained(100));
                let case = format!("{} depth {depth} {offers:?} dense {dense}", config.label());
                // The messages of one flow read back as its minimum and
                // maximum latency.
                for (index, &(src, dst, _)) in offers.iter().enumerate() {
                    if offers[..index]
                        .iter()
                        .any(|&(s, d, _)| (s, d) == (src, dst))
                    {
                        continue;
                    }
                    let mine: Vec<(u64, u64)> = offers
                        .iter()
                        .zip(&latencies)
                        .filter(|(&(s, d, _), _)| (s, d) == (src, dst))
                        .map(|(_, &latency)| latency)
                        .collect();
                    let span = |pick: fn(&(u64, u64)) -> u64| {
                        let values = mine.iter().map(pick);
                        (values.clone().min().unwrap(), values.max().unwrap())
                    };
                    let flow = noc.flow_id(at(src), at(dst));
                    let stats = noc.stats();
                    let traversal = stats.flow_traversal_latency(flow).unwrap();
                    let message = stats.flow_message_latency(flow).unwrap();
                    let (t, m) = ((traversal.min, traversal.max), (message.min, message.max));
                    assert_eq!(t, span(|l| l.0), "{case}: traversal");
                    assert_eq!(m, span(|l| l.1), "{case}: end to end");
                }
            }
        }
    }

    #[test]
    fn flit_conservation_under_random_offers() {
        let mut noc = build(4, NocConfig::regular(4));
        let dst = node(&noc, 0, 0);
        let mut offered_flits = 0;
        for row in 0..4u16 {
            for col in 0..4u16 {
                if row == 0 && col == 0 {
                    continue;
                }
                let src = node(&noc, row, col);
                noc.offer(src, dst, 4).unwrap();
                offered_flits += 4;
            }
        }
        assert!(noc.run_until_drained(10_000));
        assert_eq!(noc.stats().flits_delivered, offered_flits);
        assert_eq!(noc.stats().messages_delivered, 15);
        assert_eq!(noc.stats().messages_offered, 15);
        // Every arena slot was recycled back to the free list.
        assert!(noc.arena().is_empty());
    }

    #[test]
    fn self_messages_and_bad_sizes_rejected() {
        let mut noc = build(2, NocConfig::regular(4));
        let a = node(&noc, 0, 0);
        let b = node(&noc, 1, 1);
        assert!(noc.offer(a, a, 1).is_err());
        assert!(noc.offer(a, b, 0).is_err());
        assert!(noc.offer(a, b, 1).is_ok());
    }

    #[test]
    fn contention_increases_latency() {
        // One message alone vs the same message while every node hammers the
        // destination: the contended latency must be strictly larger.
        let solo_latency = {
            let mut noc = build(4, NocConfig::regular(4));
            let src = node(&noc, 3, 3);
            let dst = node(&noc, 0, 0);
            noc.offer(src, dst, 4).unwrap();
            noc.run_until_drained(10_000);
            let flow = noc.flow_id(src, dst);
            noc.stats().flow_traversal_latency(flow).unwrap().max
        };
        let contended_latency = {
            let mut noc = build(4, NocConfig::regular(4));
            let dst = node(&noc, 0, 0);
            for row in 0..4u16 {
                for col in 0..4u16 {
                    if row == 0 && col == 0 {
                        continue;
                    }
                    for _ in 0..4 {
                        noc.offer(node(&noc, row, col), dst, 4).unwrap();
                    }
                }
            }
            noc.run_until_drained(100_000);
            let src = node(&noc, 3, 3);
            let flow = noc.flow_id(src, dst);
            noc.stats().flow_traversal_latency(flow).unwrap().max
        };
        assert!(
            contended_latency > solo_latency,
            "contended {contended_latency} vs solo {solo_latency}"
        );
    }

    #[test]
    fn stats_track_port_utilisation() {
        let mut noc = build(4, NocConfig::regular(4));
        let src = node(&noc, 0, 3);
        let dst = node(&noc, 0, 0);
        noc.offer(src, dst, 4).unwrap();
        noc.run_until_drained(1_000);
        // Every link along the row carried the 4 flits.
        let flits = noc.port_flits(Coord::from_row_col(0, 2), Port::Mesh(Direction::West));
        assert_eq!(flits, 4);
        // The ejection port of the destination also saw them.
        let ejected = noc.port_flits(Coord::from_row_col(0, 0), Port::Local);
        assert_eq!(ejected, 4);
        assert!(noc.port_utilisation(Coord::from_row_col(0, 0), Port::Local) > 0.0);
        // Out-of-mesh coordinates read as zero.
        assert_eq!(noc.port_flits(Coord::new(9, 9), Port::Local), 0);
    }

    #[test]
    fn drained_network_reports_idle() {
        let mut noc = build(3, NocConfig::waw_wap());
        assert!(noc.is_drained());
        let src = node(&noc, 2, 2);
        let dst = node(&noc, 0, 0);
        noc.offer(src, dst, 4).unwrap();
        assert!(!noc.is_drained());
        assert!(noc.run_until_drained(1_000));
        assert!(noc.is_drained());
    }

    #[test]
    fn stall_error_reports_cycle_and_occupancy() {
        // Not a real deadlock (XY routing is deadlock free): an *undersized*
        // drain budget triggers the same diagnostic path.
        let mut noc = build(4, NocConfig::regular(4));
        let src = node(&noc, 3, 3);
        let dst = node(&noc, 0, 0);
        noc.offer(src, dst, 4).unwrap();
        let err = noc.step_until_quiescent(1).unwrap_err();
        match err {
            Error::SimulationStalled {
                drain_limit,
                cycle,
                buffered_flits,
                stalled_routers: _,
                cause,
            } => {
                assert_eq!(drain_limit, 1);
                assert_eq!(cycle, noc.cycle());
                assert!(buffered_flits > 0, "traffic is still in the system");
                // No fault was ever activated: the stall classifies as a
                // deadlock candidate, never a partition.
                assert_eq!(cause, StallCause::Deadlock);
            }
            other => panic!("expected SimulationStalled, got {other:?}"),
        }
        assert!(!noc.per_router_occupancy().is_empty() || noc.nic_backlog(src) > 0);
        // With a real budget the same network drains cleanly.
        assert!(noc.step_until_quiescent(1_000).is_ok());
        assert!(noc.per_router_occupancy().is_empty());
    }

    #[test]
    fn drain_delivered_into_keeps_capacity() {
        let mut noc = build(3, NocConfig::regular(4));
        let src = node(&noc, 2, 2);
        let dst = node(&noc, 0, 0);
        let mut sink = Vec::new();
        for round in 0..3 {
            noc.offer(src, dst, 2).unwrap();
            assert!(noc.run_until_drained(1_000));
            noc.drain_delivered_into(&mut sink);
            assert_eq!(sink.len(), round + 1);
        }
        assert_eq!(noc.take_delivered(), Vec::new());
        assert!(sink.iter().all(|d| d.src == src && d.dst == dst));
    }

    #[test]
    fn default_buffer_config_matches_two_scalar_construction() {
        // `Network::new` and an explicit uniform BufferConfig at the default
        // depth must be indistinguishable, observation for observation.
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let config = NocConfig::waw_wap();
        let run = |mut noc: Network| {
            for row in 0..4u16 {
                for col in 0..4u16 {
                    if row == 0 && col == 0 {
                        continue;
                    }
                    let src = noc.mesh().node_id(Coord::from_row_col(row, col)).unwrap();
                    let dst = noc.mesh().node_id(Coord::from_row_col(0, 0)).unwrap();
                    noc.offer(src, dst, 2).unwrap();
                }
            }
            assert!(noc.run_until_drained(100_000));
            noc.stats().clone()
        };
        let classic = run(Network::new(mesh, config, &flows).unwrap());
        let explicit = run(Network::with_vcs(
            mesh,
            config,
            &flows,
            &BufferConfig::uniform(config.input_buffer_flits),
            VcConfig::single(),
        )
        .unwrap());
        assert_eq!(classic.traversal_latency, explicit.traversal_latency);
        assert_eq!(classic.flits_delivered, explicit.flits_delivered);
        assert_eq!(classic.cycles, explicit.cycles);
    }

    #[test]
    fn heterogeneous_credits_follow_the_downstream_ring() {
        // Deepen a single input buffer: only the one upstream output facing
        // it gains credits (the constructor invariant assertion would abort
        // on any divergence).
        let mesh = Mesh::square(3).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let center = mesh.node_id(Coord::from_row_col(1, 1)).unwrap();
        let buffers = BufferConfig::uniform(2).with_buffer_depth(
            &mesh,
            center,
            Port::Mesh(Direction::East),
            7,
        );
        let noc = Network::with_vcs(
            mesh,
            NocConfig::regular(4),
            &flows,
            &buffers,
            VcConfig::single(),
        )
        .unwrap();
        // R(1,1)'s *east-facing input* receives from its eastern neighbour
        // R(2,1), whose *west output* must now hold 7 credits.
        let east_neighbor = mesh.node_id(Coord::from_row_col(1, 2)).unwrap();
        assert_eq!(
            noc.routers[east_neighbor.index()].credits(Port::Mesh(Direction::West), 0),
            7
        );
        assert_eq!(
            noc.routers[center.index()].input_capacity(Port::Mesh(Direction::East), 0),
            7
        );
        // Every other port keeps the base depth.
        assert_eq!(
            noc.routers[center.index()].input_capacity(Port::Local, 0),
            2
        );
        assert_eq!(noc.buffers().max_depth(), 7);
    }

    #[test]
    fn depth_one_network_still_delivers() {
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        for config in [NocConfig::regular(4), NocConfig::waw_wap()] {
            let mut noc = Network::with_vcs(
                mesh,
                config,
                &flows,
                &BufferConfig::uniform(1),
                VcConfig::single(),
            )
            .unwrap();
            let dst = mesh.node_id(Coord::from_row_col(0, 0)).unwrap();
            for row in 0..4u16 {
                for col in 0..4u16 {
                    if row == 0 && col == 0 {
                        continue;
                    }
                    let src = mesh.node_id(Coord::from_row_col(row, col)).unwrap();
                    noc.offer(src, dst, 4).unwrap();
                }
            }
            assert!(noc.run_until_drained(200_000), "{}", config.label());
            assert_eq!(noc.stats().messages_delivered, 15);
            assert!(noc.arena().is_empty());
        }
    }

    #[test]
    fn cycle_zero_router_fault_reroutes_and_rejects_unreachable() {
        let mut noc = build(4, NocConfig::regular(4));
        let mut plan = FaultPlan::new();
        plan.fail_router(Coord::from_row_col(1, 1), 0);
        noc.install_fault_plan(plan, RetransmitPolicy::default())
            .unwrap();
        assert!(
            noc.tree_routing().is_some(),
            "activation applied at install"
        );
        let dead = node(&noc, 1, 1);
        let src = node(&noc, 3, 3);
        let dst = node(&noc, 0, 0);
        // Endpoints on the dead router are unreachable in either direction.
        assert!(matches!(
            noc.offer(src, dead, 2),
            Err(Error::Unreachable { .. })
        ));
        assert!(matches!(
            noc.offer(dead, dst, 2),
            Err(Error::Unreachable { .. })
        ));
        // Surviving pairs deliver over the tree-routed detour.
        noc.offer(src, dst, 4).unwrap();
        assert!(noc.run_until_drained(10_000));
        assert_eq!(noc.stats().messages_delivered, 1);
        assert_eq!(noc.stats().messages_undeliverable, 0);
        // A second plan cannot be installed over the first.
        assert!(noc
            .install_fault_plan(FaultPlan::new(), RetransmitPolicy::default())
            .is_err());
    }

    #[test]
    fn midrun_link_fault_retransmits_under_original_id() {
        let mut noc = build(4, NocConfig::regular(4));
        let mut plan = FaultPlan::new();
        // The XY route (0,3) -> (0,0) runs west along row 0; cut it mid-worm.
        plan.fail_link(Coord::from_row_col(0, 2), Direction::West, 3);
        noc.install_fault_plan(plan, RetransmitPolicy::default())
            .unwrap();
        let src = node(&noc, 0, 3);
        let dst = node(&noc, 0, 0);
        let id = noc.offer(src, dst, 4).unwrap();
        assert!(noc.run_until_drained(10_000));
        let stats = noc.stats();
        assert_eq!(stats.messages_retransmitted, 1, "worm caught in the flush");
        assert_eq!(stats.messages_delivered, 1);
        assert_eq!(stats.messages_undeliverable, 0);
        assert!(stats.flits_purged > 0, "in-flight flits were purged");
        let flow = noc.flow_id(src, dst);
        assert_eq!(noc.stats().retransmits_by_flow.get(&flow), Some(&1));
        let delivered = noc.take_delivered();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].message, id, "same message id after the NACK");
        assert_eq!(delivered[0].created, 0, "latency spans the outage");
    }

    #[test]
    fn destination_death_drops_undeliverable_and_still_drains() {
        let mut noc = build(4, NocConfig::regular(4));
        let mut plan = FaultPlan::new();
        plan.fail_router(Coord::from_row_col(0, 0), 3);
        noc.install_fault_plan(plan, RetransmitPolicy::default())
            .unwrap();
        let src = node(&noc, 0, 3);
        let dst = node(&noc, 0, 0);
        noc.offer(src, dst, 4).unwrap();
        // The network must drain — dropping the severed message — rather
        // than wedge on traffic that can never arrive.
        assert!(noc.run_until_drained(10_000));
        assert_eq!(noc.stats().messages_delivered, 0);
        assert_eq!(noc.stats().messages_undeliverable, 1);
        assert_eq!(noc.stats().messages_retransmitted, 0);
        assert!(noc.arena().is_empty());
    }

    #[test]
    fn exhausted_retry_budget_drops_the_message() {
        let mut noc = build(4, NocConfig::regular(4));
        let mut plan = FaultPlan::new();
        plan.fail_link(Coord::from_row_col(0, 2), Direction::West, 3);
        let policy = RetransmitPolicy {
            max_retries: 0,
            ..RetransmitPolicy::default()
        };
        noc.install_fault_plan(plan, policy).unwrap();
        let src = node(&noc, 0, 3);
        let dst = node(&noc, 0, 0);
        noc.offer(src, dst, 4).unwrap();
        assert!(noc.run_until_drained(10_000));
        assert_eq!(noc.stats().messages_delivered, 0);
        assert_eq!(noc.stats().messages_undeliverable, 1);
    }

    #[test]
    fn kernels_agree_across_midrun_fault_epoch() {
        // The fault epoch flush must preserve the dense / event-horizon
        // bit-identity contract: same deliveries, same cycles, same latencies
        // through an activation that truncates in-flight worms.
        let run = |dense: bool| {
            let mut noc = build(4, NocConfig::waw_wap());
            if dense {
                noc.set_dense_kernel(true);
            }
            let mut plan = FaultPlan::new();
            plan.fail_link(Coord::from_row_col(1, 1), Direction::East, 5);
            plan.fail_router(Coord::from_row_col(2, 2), 40);
            noc.install_fault_plan(plan, RetransmitPolicy::default())
                .unwrap();
            let dst = node(&noc, 0, 0);
            for row in 0..4u16 {
                for col in 0..4u16 {
                    if row == 0 && col == 0 {
                        continue;
                    }
                    let src = node(&noc, row, col);
                    if noc.offer(src, dst, 3).is_err() {
                        unreachable!("all pairs reachable before activation");
                    }
                }
            }
            noc.step_until_quiescent(50_000).unwrap();
            let delivered = noc.take_delivered();
            (
                noc.cycle(),
                noc.stats().flits_delivered,
                noc.stats().messages_delivered,
                noc.stats().messages_retransmitted,
                noc.stats().messages_undeliverable,
                noc.stats().flits_purged,
                noc.stats().overall_traversal_latency(),
                delivered,
            )
        };
        let horizon = run(false);
        let dense = run(true);
        assert_eq!(horizon, dense);
    }

    #[test]
    fn idle_heavy_run_visits_no_components() {
        // After draining, a million idle steps are pure counter increments:
        // the arena holds no live flits and the worklists stay empty.
        let mut noc = build(8, NocConfig::waw_wap());
        let src = node(&noc, 7, 7);
        let dst = node(&noc, 0, 0);
        noc.offer(src, dst, 4).unwrap();
        assert!(noc.run_until_drained(10_000));
        let delivered = noc.stats().flits_delivered;
        noc.run_for(100_000);
        assert_eq!(noc.stats().flits_delivered, delivered);
        assert!(noc.is_drained());
        assert_eq!(noc.stats().cycles, noc.cycle());
    }
}
