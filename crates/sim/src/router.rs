//! The wormhole router model: input-buffered, XY-routed, credit flow control,
//! with a pluggable output-port arbitration policy (round robin or WaW).
//!
//! The router is built for the allocation-free active-set kernel:
//!
//! * input buffers hold [`FlitId`] handles into the network's
//!   [`FlitArena`], never flit values;
//! * [`Router::decide`] appends into a caller-provided scratch vector instead
//!   of returning a fresh `Vec` every cycle;
//! * routing decisions come from a per-router lookup table precomputed from
//!   XY routing at construction (no mesh clone per router, no arithmetic on
//!   the hot path);
//! * a router that cannot forward anything — empty **or** blocked on credits
//!   or upstream arrivals — can be *skipped* entirely by the event-horizon
//!   scheduler: the router tracks the cycle it last decided and replays the
//!   skipped cycles into its arbiters in O(1)
//!   ([`Arbiter::idle_for`](wnoc_core::arbitration::Arbiter::idle_for))
//!   before the next observation, so skipping is behaviour-identical to
//!   visiting every router every cycle.  The replay is *request-aware*: a
//!   skipped cycle issues an idle grant only on outputs that had neither a
//!   wormhole hold nor a pending head-of-line request, exactly as a dense
//!   per-cycle `decide` would have.  Because a skipped router by definition
//!   forwards nothing, its buffer fronts are frozen for the whole skipped
//!   interval — the replay recomputes the request sets from the current
//!   fronts and is exact.  The interval is closed out *before* any state
//!   mutation that could change a request set ([`Router::accept`] replays up
//!   to and including the arrival cycle before enqueueing the new flit);
//!   credit returns commute with the replay (request sets do not depend on
//!   credits), so they need no replay of their own.

use wnoc_core::arbitration::{Arbiter, ArbitrationPolicy};
use wnoc_core::routing::{RoutingAlgorithm, XyRouting};
use wnoc_core::vc::MAX_VCS;
use wnoc_core::weights::WeightTable;
use wnoc_core::{Coord, Cycle, Mesh, PacketId, Port};

use crate::arena::{FlitArena, FlitId};
use crate::buffer::FlitBuffer;

/// A flit forwarding decision taken by a router in the current cycle.
#[derive(Debug, Clone, Copy)]
pub struct Forward {
    /// Input port the flit was taken from.
    pub input: Port,
    /// Output port the flit leaves through.
    pub output: Port,
    /// Virtual channel the flit travels on (0 for the single-VC design).  A
    /// flow keeps its VC at every hop, so this is both the ring the flit was
    /// popped from here and the ring it lands in downstream.
    pub vc: usize,
    /// Handle of the forwarded flit.
    pub flit: FlitId,
}

/// A wormhole path reservation: `input` holds the owning `(output, vc)` slot
/// until the packet's tail flit has been forwarded.  The VC is implied by the
/// slot the hold is stored in.
#[derive(Debug, Clone, Copy)]
struct Hold {
    input: Port,
    packet: PacketId,
}

/// One mesh router: per-VC input rings on five ports, per-output arbiters,
/// wormhole switching and credit-based flow control towards its downstream
/// neighbours.
///
/// With more than one virtual channel, every input port carries `vc_count`
/// independent flit rings (each at the full configured depth), credits and
/// wormhole holds are tracked per `(output, VC)`, and each output serves its
/// VCs in **strict priority order** (VC 0 highest): the first VC that can
/// make progress — a creditable wormhole continuation or a grantable header —
/// sends the output's one flit of the cycle, and a VC blocked on credits
/// never blocks a lower-priority VC (that is the preemption the
/// priority-preemptive WCTT analysis models).  The classic round-robin/WaW
/// arbiter still breaks ties, among the *input ports* requesting within the
/// selected VC.  With `vc_count == 1` all of this reduces bit-for-bit to the
/// historical single-queue router.
pub struct Router {
    coord: Coord,
    /// Virtual channels per input port (1..=[`MAX_VCS`]).
    vc_count: usize,
    /// Input rings indexed `port.index() * vc_count + vc`; `None` for every
    /// VC of a port that does not exist at this coordinate.
    inputs: Vec<Option<FlitBuffer>>,
    /// Credit counters indexed `output.index() * vc_count + vc`.
    credits: Vec<u32>,
    /// Wormhole holds indexed `output.index() * vc_count + vc`.
    holds: Vec<Option<Hold>>,
    /// Arbiters indexed `output.index() * vc_count + vc`: round-robin/WaW
    /// state is **per `(output, VC)`**, never shared across VCs.  A shared
    /// per-output pointer would let a saturated higher-priority VC steer the
    /// round-robin position every cycle and systematically starve one input
    /// of a lower VC — unbounded same-VC starvation no within-VC round-robin
    /// analysis could cover.
    arbiters: Vec<Arbiter>,
    /// Output port per destination node id, precomputed from XY routing.
    route: Box<[Port]>,
    /// Buffered flits across all inputs, maintained incrementally so the
    /// active-set scheduler's busy check is O(1).
    buffered: usize,
    /// Cycle up to which this router's per-cycle behaviour is accounted for
    /// (0 before the first decision): the event-horizon scheduler skips
    /// cycles in which the router provably forwards nothing, and the skipped
    /// interval is replayed into the arbiters in O(1) on the next
    /// observation ([`Router::replay_idle`]).
    last_decide: Cycle,
    /// Idle grants owed to each `(output, VC)` arbiter and not yet applied
    /// (same slot indexing as `arbiters`).  Idle replenishment is only
    /// *observable* at the next grant on the same slot, so instead of a
    /// virtual `grant(&[])` per idle slot per cycle, the router accrues a
    /// per-slot debt and flushes it — in order, via the O(1) `idle_for`
    /// closed form — immediately before that grant
    /// ([`Router::flush_idle_debt`]).  No reordering ever happens:
    /// consecutive idle cycles are the only thing coalesced.
    idle_debt: [u64; Port::COUNT * MAX_VCS],
}

/// The arbiters of the router at `coord`, indexed `output.index() *
/// vc_count + vc`: one (with the full quota set under WaW) per VC of each
/// output, so round-robin position and quota counters never leak across
/// priority classes.
fn arbiters(
    coord: Coord,
    policy: ArbitrationPolicy,
    weights: &WeightTable,
    vc_count: usize,
) -> Vec<Arbiter> {
    let mut arbiters = Vec::with_capacity(Port::COUNT * vc_count);
    for port in Port::ALL {
        let quotas = weights.reduced_quotas(coord, port);
        for _vc in 0..vc_count {
            arbiters.push(Arbiter::new(policy, &quotas));
        }
    }
    arbiters
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("coord", &self.coord)
            .field("credits", &self.credits)
            .field(
                "buffered",
                &self
                    .inputs
                    .iter()
                    .map(|b| b.as_ref().map_or(0, FlitBuffer::len))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Router {
    /// Builds the router at `coord` of `mesh`.
    ///
    /// `input_depths[port]` is the depth of that input buffer;
    /// `output_credits[port]` the initial credit count of that output port,
    /// which **must** equal the depth of the downstream input buffer it feeds
    /// (the network derives both from one [`wnoc_core::BufferConfig`] and
    /// asserts the invariant at construction).  Entries for ports that do not
    /// exist at `coord` (mesh edges) are ignored.  `weights` supplies the WaW
    /// quotas; it is ignored under round-robin arbitration.  `vcs` is the
    /// number of virtual channels per input port: every VC of a port gets its
    /// own ring at the full configured depth and its own credit counter
    /// (credits are per downstream *ring*, so the invariant holds per VC).
    ///
    /// # Panics
    ///
    /// Panics if an existing port is given a zero buffer depth, or if `vcs`
    /// is zero or exceeds [`MAX_VCS`].
    pub fn new(
        coord: Coord,
        mesh: &Mesh,
        policy: ArbitrationPolicy,
        weights: &WeightTable,
        input_depths: &[u32; Port::COUNT],
        output_credits: &[u32; Port::COUNT],
        vcs: u32,
    ) -> Self {
        assert!(
            (1..=MAX_VCS as u32).contains(&vcs),
            "router {coord} VC count must be 1..={MAX_VCS}, got {vcs}"
        );
        let vc_count = vcs as usize;
        let mut inputs = Vec::with_capacity(Port::COUNT * vc_count);
        let mut credits = Vec::with_capacity(Port::COUNT * vc_count);
        let mut holds = Vec::with_capacity(Port::COUNT * vc_count);
        for port in Port::ALL {
            let exists = match port {
                Port::Local => true,
                Port::Mesh(d) => mesh.has_port(coord, d),
            };
            assert!(
                !exists || input_depths[port.index()] > 0,
                "input buffer {port} of router {coord} must hold at least one flit"
            );
            for _vc in 0..vc_count {
                inputs.push(exists.then(|| FlitBuffer::new(input_depths[port.index()] as usize)));
                credits.push(if exists {
                    output_credits[port.index()]
                } else {
                    0
                });
                holds.push(None);
            }
        }
        let routing = XyRouting::new();
        let route = mesh
            .nodes()
            .map(|node| {
                let dst = mesh.coord_of(node).expect("node inside mesh");
                routing
                    .output_port(mesh, coord, dst)
                    .expect("coordinates validated at construction")
            })
            .collect();
        Self {
            coord,
            vc_count,
            inputs,
            credits,
            holds,
            arbiters: arbiters(coord, policy, weights, vc_count),
            route,
            buffered: 0,
            last_decide: 0,
            idle_debt: [0; Port::COUNT * MAX_VCS],
        }
    }

    /// Convenience constructor with every input buffer `depth` flits deep and
    /// every output assuming an equally deep downstream buffer — the uniform
    /// single-VC design point (and the shape of the historical two-scalar
    /// constructor).
    pub fn with_uniform_buffers(
        coord: Coord,
        mesh: &Mesh,
        policy: ArbitrationPolicy,
        weights: &WeightTable,
        depth: u32,
    ) -> Self {
        Self::new(
            coord,
            mesh,
            policy,
            weights,
            &[depth; Port::COUNT],
            &[depth; Port::COUNT],
            1,
        )
    }

    /// The router's coordinate.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// Virtual channels per input port.
    pub fn vc_count(&self) -> usize {
        self.vc_count
    }

    /// Ring index of `(port, vc)` in the per-VC state vectors.
    #[inline]
    fn slot(&self, port: Port, vc: usize) -> usize {
        port.index() * self.vc_count + vc
    }

    /// Total capacity of the VC `vc` input ring of `port`, in flits (zero if
    /// the port does not exist) — the quantity an upstream credit counter
    /// must match.
    pub fn input_capacity(&self, port: Port, vc: usize) -> usize {
        self.inputs[self.slot(port, vc)]
            .as_ref()
            .map_or(0, FlitBuffer::capacity)
    }

    /// Free slots in the VC `vc` input ring of `port` (zero if the port does
    /// not exist).
    pub fn free_slots(&self, port: Port, vc: usize) -> usize {
        self.inputs[self.slot(port, vc)]
            .as_ref()
            .map_or(0, FlitBuffer::free_slots)
    }

    /// Number of buffered flits across all input ports (O(1)).
    pub fn buffered_flits(&self) -> usize {
        debug_assert_eq!(
            self.buffered,
            self.inputs.iter().flatten().map(FlitBuffer::len).sum(),
            "incremental buffered-flit count drifted"
        );
        self.buffered
    }

    /// Returns `true` if no flits are buffered and no wormhole path is held.
    pub fn is_idle(&self) -> bool {
        self.buffered_flits() == 0 && self.holds.iter().all(Option::is_none)
    }

    /// Current credit count of output `port` towards the downstream VC `vc`
    /// ring.
    pub fn credits(&self, port: Port, vc: usize) -> u32 {
        self.credits[self.slot(port, vc)]
    }

    /// Returns one credit to output `port`'s VC `vc` counter (the downstream
    /// router freed a slot in that ring).
    pub fn credit_return(&mut self, port: Port, vc: usize) {
        let slot = self.slot(port, vc);
        self.credits[slot] += 1;
    }

    /// Every flit buffered in this router's input rings (fault diagnostics:
    /// classifying a stalled network as partitioned vs deadlocked).
    pub(crate) fn buffered_flit_ids(&self) -> impl Iterator<Item = FlitId> + '_ {
        self.inputs
            .iter()
            .flatten()
            .flat_map(|buffer| buffer.iter())
    }

    /// Fault-epoch flush: drains every input ring into `purged`, clears all
    /// wormhole holds, and resets every credit counter to its construction
    /// value (`output_credits[port]` for existing ports — with every
    /// downstream ring empty again, full credit is exact).  Arbiter state and
    /// the lazily-replayed idle accounting are deliberately *not* reset: the
    /// epoch boundary must be bit-identical between the dense and
    /// event-horizon kernels, and both carry their (already reconciled)
    /// arbiter state across it.
    pub(crate) fn purge_for_epoch(
        &mut self,
        output_credits: &[u32; Port::COUNT],
        purged: &mut Vec<FlitId>,
    ) {
        for slot in 0..self.inputs.len() {
            if let Some(buffer) = &mut self.inputs[slot] {
                while let Some(id) = buffer.pop() {
                    self.buffered -= 1;
                    purged.push(id);
                }
            }
        }
        debug_assert_eq!(self.buffered, 0, "purge drained every ring");
        for port in Port::ALL {
            let exists = self.inputs[self.slot(port, 0)].is_some();
            for vc in 0..self.vc_count {
                let slot = self.slot(port, vc);
                self.holds[slot] = None;
                self.credits[slot] = if exists {
                    output_credits[port.index()]
                } else {
                    0
                };
            }
        }
    }

    /// Replaces the per-destination routing LUT (fault-tolerant rerouting:
    /// the surviving routers switch from XY to up*/down* tree routing when a
    /// fault epoch activates).
    ///
    /// # Panics
    ///
    /// Panics if `lut` does not cover every node of the construction mesh.
    pub(crate) fn set_route_lut(&mut self, lut: Vec<Port>) {
        assert_eq!(
            lut.len(),
            self.route.len(),
            "routing LUT of {} must cover every node",
            self.coord
        );
        self.route = lut.into_boxed_slice();
    }

    /// Rebuilds every port arbiter from `weights`, exactly as construction
    /// does (fault-tolerant rerouting: WaW quotas are a static function of
    /// the flow-to-route mapping, so an epoch that reroutes the survivors
    /// must reprogram the arbiters too).  The caller is mid-epoch-flush —
    /// every buffer is already empty — so discarding round/quota state is
    /// the point, not a hazard.
    pub(crate) fn reset_arbiters(&mut self, policy: ArbitrationPolicy, weights: &WeightTable) {
        self.arbiters = arbiters(self.coord, policy, weights, self.vc_count);
    }

    /// Returns `true` if any input ring's head-of-line flit **on VC `vc`** is
    /// a header routed to `output` — the request set a dense per-cycle
    /// `decide` would build for that `(output, VC)` (nothing is consumed on a
    /// no-forward cycle, so this is exact for every skipped cycle).
    fn any_request_for_vc(&self, arena: &FlitArena, output: Port, vc: usize) -> bool {
        for input in Port::ALL {
            let Some(buffer) = &self.inputs[self.slot(input, vc)] else {
                continue;
            };
            let Some(front) = buffer.front() else {
                continue;
            };
            let front = arena.get(front);
            if front.kind.is_head() && self.route[front.dst.index()] == output {
                return true;
            }
        }
        false
    }

    /// Returns `true` if any VC of `output` has a wormhole hold.
    #[inline]
    fn any_hold_on(&self, output: Port) -> bool {
        let base = output.index() * self.vc_count;
        self.holds[base..base + self.vc_count]
            .iter()
            .any(Option::is_some)
    }

    /// Replays the skipped cycles `last_decide + 1 ..= next - 1` into the
    /// arbiters, in O(1) per `(output, VC)` via the
    /// [`idle_for`](wnoc_core::arbitration::Arbiter::idle_for) closed
    /// form.
    ///
    /// The event-horizon scheduler only skips a router while it provably
    /// forwards nothing, so each skipped cycle behaves exactly like a dense
    /// `decide` on the frozen state: slots with a wormhole hold never consult
    /// their arbiter, slots with a pending request but no credit leave it
    /// untouched, and only hold-free request-free slots issue an idle grant.
    /// Buffer fronts are frozen across the interval (no forwards), so
    /// recomputing the request sets from the current fronts reproduces every
    /// skipped cycle bit for bit.
    pub fn replay_idle(&mut self, arena: &FlitArena, next: Cycle) {
        let through = next.saturating_sub(1);
        if through <= self.last_decide {
            return;
        }
        let skipped = through - self.last_decide;
        for output in Port::ALL {
            for vc in 0..self.vc_count {
                let slot = self.slot(output, vc);
                if self.holds[slot].is_none() && !self.any_request_for_vc(arena, output, vc) {
                    self.idle_debt[slot] += skipped;
                }
            }
        }
        self.last_decide = through;
    }

    /// Applies the accrued idle grants of `(output, VC)` slot `slot` — always
    /// called right before a real grant on it, so the arbiter observes the
    /// exact dense sequence of idle and granted cycles.
    #[inline]
    fn flush_idle_debt(&mut self, slot: usize) {
        let debt = std::mem::take(&mut self.idle_debt[slot]);
        if debt > 0 {
            self.arbiters[slot].idle_for(debt);
        }
    }

    /// Accepts a flit into the VC `vc` input ring of `port` in cycle `now`.
    ///
    /// The arrival becomes visible to arbitration in cycle `now + 1` (the
    /// network delivers flits after the decision phase), so any cycles the
    /// scheduler skipped — including `now` itself — are first replayed into
    /// the arbiters against the pre-arrival buffer state.
    ///
    /// # Errors
    ///
    /// Returns `Err(id)` if the ring is full — this indicates a credit
    /// flow-control violation and is treated as a fatal simulation error by the
    /// network.
    pub fn accept(
        &mut self,
        arena: &FlitArena,
        now: Cycle,
        port: Port,
        vc: usize,
        id: FlitId,
    ) -> Result<(), FlitId> {
        let slot = self.slot(port, vc);
        if self.inputs[slot].is_none() {
            return Err(id);
        }
        self.replay_idle(arena, now + 1);
        match &mut self.inputs[slot] {
            Some(buffer) => {
                buffer.push(id)?;
                self.buffered += 1;
                Ok(())
            }
            None => Err(id),
        }
    }

    /// Runs one cycle of switch allocation and traversal for cycle `now`,
    /// removing the forwarded flits from their input buffers and consuming
    /// credits.  Cycles skipped since the previous call (the scheduler only
    /// visits routers that can forward) are first replayed into the arbiters
    /// via [`Router::replay_idle`].
    ///
    /// Appends at most one [`Forward`] per output port to `forwards` (the
    /// caller's reusable scratch buffer, which is *not* cleared here); the
    /// caller (the network) is responsible for pushing each forwarded flit
    /// onto the corresponding link or ejection sink and for returning a
    /// credit to the upstream router of the drained input port.
    pub fn decide(&mut self, arena: &FlitArena, now: Cycle, forwards: &mut Vec<Forward>) {
        self.replay_idle(arena, now);
        self.last_decide = now;

        // Inputs already consumed this cycle (an input port can feed one
        // output, whichever VC the flit came from), as a bitmask over
        // input-port indices.
        let mut consumed_mask = 0u8;

        // One pass over the head-of-line flits of every `(input, VC)` ring:
        // everything the per-output loop needs (tail kind, packet id) is
        // cached here, and the request set of every `(output, VC)` is
        // prebuilt as a bitmask of requesting inputs — turning the repeated
        // output × input × VC scan with its arena dereferences into one
        // pass.  A cache entry goes stale the moment its input is consumed,
        // and `consumed_mask` masks exactly those entries.
        #[derive(Clone, Copy)]
        struct FrontCache {
            id: FlitId,
            tail: bool,
            packet: PacketId,
        }
        let mut fronts: [[Option<FrontCache>; MAX_VCS]; Port::COUNT] =
            [[None; MAX_VCS]; Port::COUNT];
        let mut request_masks = [[0u8; MAX_VCS]; Port::COUNT];
        if self.buffered > 0 {
            for input in Port::ALL {
                for vc in 0..self.vc_count {
                    let Some(buffer) = &self.inputs[self.slot(input, vc)] else {
                        continue;
                    };
                    let Some(id) = buffer.front() else {
                        continue;
                    };
                    let flit = arena.get(id);
                    if flit.kind.is_head() {
                        // A header at the front requests its routed output; a
                        // body flit never does (the wormhole hold guarantees
                        // an orphaned body cannot happen).
                        request_masks[self.route[flit.dst.index()].index()][vc] |=
                            1 << input.index();
                    }
                    fronts[input.index()][vc] = Some(FrontCache {
                        id,
                        tail: flit.kind.is_tail(),
                        packet: flit.packet,
                    });
                }
            }
        }

        for output in Port::ALL {
            let oi = output.index();
            // VCs are served in strict priority order (VC 0 highest): the
            // first VC able to progress sends the output's one flit of this
            // cycle; a higher-priority VC blocked on credits does not block
            // lower ones.  Arbiter state (round-robin position, WaW quotas)
            // and idle debt are per `(output, VC)` slot: a slot with neither
            // a hold nor a live request shows its own arbiter an idle cycle
            // (matching what `replay_idle` reconstructs for skipped cycles),
            // a slot with a request but no grant leaves it untouched.
            let mut forwarded = false;
            for vc in 0..self.vc_count {
                let slot = oi * self.vc_count + vc;
                if let Some(hold) = self.holds[slot] {
                    if forwarded {
                        continue;
                    }
                    // Wormhole continuation: only the holding packet may use
                    // this `(output, VC)`, no arbitration needed.
                    let ii = hold.input.index();
                    if consumed_mask & (1 << ii) != 0 {
                        continue;
                    }
                    let has_credit = output == Port::Local || self.credits[slot] > 0;
                    if !has_credit {
                        continue;
                    }
                    let Some(front) = fronts[ii][vc] else {
                        continue;
                    };
                    if front.packet != hold.packet {
                        continue;
                    }
                    let id = self.inputs[ii * self.vc_count + vc]
                        .as_mut()
                        .and_then(FlitBuffer::pop)
                        .expect("cached front exists");
                    debug_assert_eq!(id, front.id);
                    self.buffered -= 1;
                    consumed_mask |= 1 << ii;
                    if output != Port::Local {
                        self.credits[slot] -= 1;
                    }
                    if front.tail {
                        self.holds[slot] = None;
                    }
                    forwards.push(Forward {
                        input: hold.input,
                        output,
                        vc,
                        flit: id,
                    });
                    forwarded = true;
                    continue;
                }

                // Free `(output, VC)`: arbitrate among input ports whose
                // head-of-line flit on this VC is a header routed to this
                // output.  Fixed-size request set: this loop runs for every
                // busy router every cycle and must not allocate.
                let mask = request_masks[oi][vc] & !consumed_mask;
                if mask == 0 {
                    self.idle_debt[slot] += 1;
                    continue;
                }
                if forwarded {
                    continue;
                }
                let has_credit = output == Port::Local || self.credits[slot] > 0;
                if !has_credit {
                    continue;
                }
                // Expand the mask in ascending input-index order — the order
                // the dense request scan produced.
                let mut requests = [Port::Local; Port::COUNT];
                let mut request_count = 0;
                let mut bits = mask;
                while bits != 0 {
                    requests[request_count] = Port::from_index(bits.trailing_zeros() as usize);
                    request_count += 1;
                    bits &= bits - 1;
                }
                let requests = &requests[..request_count];
                self.flush_idle_debt(slot);
                let Some(winner) = self.arbiters[slot].grant(requests) else {
                    continue;
                };
                let wi = winner.index();
                let front = fronts[wi][vc].expect("winner had a cached front");
                let id = self.inputs[wi * self.vc_count + vc]
                    .as_mut()
                    .and_then(FlitBuffer::pop)
                    .expect("winner had a head flit");
                debug_assert_eq!(id, front.id);
                self.buffered -= 1;
                consumed_mask |= 1 << wi;
                if output != Port::Local {
                    self.credits[slot] -= 1;
                }
                if !front.tail {
                    self.holds[slot] = Some(Hold {
                        input: winner,
                        packet: front.packet,
                    });
                }
                forwards.push(Forward {
                    input: winner,
                    output,
                    vc,
                    flit: id,
                });
                forwarded = true;
            }
        }
    }

    /// The output port XY routing assigns for traffic to `dst` (used by the
    /// contention-free worm fast-forward to walk the latched path).
    pub(crate) fn route_to(&self, dst: wnoc_core::NodeId) -> Port {
        self.route[dst.index()]
    }

    /// If the router buffers exactly one flit across all inputs (any VC),
    /// returns the input port holding it and its handle.
    pub(crate) fn only_flit(&self) -> Option<(Port, FlitId)> {
        if self.buffered != 1 {
            return None;
        }
        for (slot, buffer) in self.inputs.iter().enumerate() {
            if let Some(front) = buffer.as_ref().and_then(FlitBuffer::front) {
                return Some((Port::from_index(slot / self.vc_count), front));
            }
        }
        None
    }

    /// The packet currently holding output `port` (VC 0), if any.  Only
    /// consulted by the single-VC worm fast-forward.
    pub(crate) fn hold_packet(&self, port: Port) -> Option<PacketId> {
        debug_assert_eq!(self.vc_count, 1, "worm fast-forward is single-VC only");
        self.holds[self.slot(port, 0)].map(|h| h.packet)
    }

    /// Fast-forward: removes the single remaining flit from `input`'s VC 0
    /// ring (its transfer has been applied in closed form).
    pub(crate) fn ff_pop(&mut self, input: Port) -> FlitId {
        debug_assert_eq!(self.vc_count, 1, "worm fast-forward is single-VC only");
        let slot = self.slot(input, 0);
        let id = self.inputs[slot]
            .as_mut()
            .and_then(FlitBuffer::pop)
            .expect("fast-forward pops a verified flit");
        self.buffered -= 1;
        id
    }

    /// Fast-forward: applies, in closed form, the arbiter side effects of a
    /// contention-free worm transit through this router.
    ///
    /// The dense kernel would have called `decide` for the `span` consecutive
    /// cycles starting at `first_decide`, each forwarding exactly one worm
    /// flit through `out`: header flits receive a single-requester grant (in
    /// arrival order, from the input listed in `head_inputs`), continuation
    /// flits ride the wormhole hold without consulting the arbiter, and every
    /// other output — request-free for the whole span, since the worm is the
    /// only traffic — issues one idle grant per cycle.  Cycles skipped
    /// *before* the worm reached this router are replayed first, against the
    /// pre-transit state.  The worm's tail passes last, so the hold on `out`
    /// ends cleared.
    pub(crate) fn ff_transit(
        &mut self,
        arena: &FlitArena,
        out: Port,
        head_inputs: &[Port],
        first_decide: Cycle,
        span: u64,
    ) {
        debug_assert_eq!(self.vc_count, 1, "worm fast-forward is single-VC only");
        self.replay_idle(arena, first_decide);
        for output in Port::ALL {
            if output == out {
                continue;
            }
            debug_assert!(
                !self.any_hold_on(output),
                "single-worm fast-forward implies no hold off the worm's path"
            );
            self.idle_debt[self.slot(output, 0)] += span;
        }
        for &input in head_inputs {
            let out_slot = self.slot(out, 0);
            self.flush_idle_debt(out_slot);
            let granted = self.arbiters[out_slot].grant(&[input]);
            debug_assert_eq!(granted, Some(input), "single requester is always granted");
        }
        let slot = self.slot(out, 0);
        self.holds[slot] = None;
        self.last_decide = first_decide + span - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnoc_core::flow::FlowSet;
    use wnoc_core::{Flit, FlitKind, FlowId, MessageId, NodeId};

    fn weights(mesh: &Mesh) -> WeightTable {
        WeightTable::from_flow_set(&FlowSet::all_to_all(mesh).unwrap())
    }

    fn router(mesh: &Mesh, coord: Coord, policy: ArbitrationPolicy) -> Router {
        let w = weights(mesh);
        Router::with_uniform_buffers(coord, mesh, policy, &w, 4)
    }

    fn flit(arena: &mut FlitArena, dst: NodeId, kind: FlitKind, packet: u64, seq: u32) -> FlitId {
        arena.alloc(Flit {
            packet: PacketId(packet),
            message: MessageId(packet),
            flow: FlowId(0),
            src: NodeId(0),
            dst,
            kind,
            seq,
            msg_created: 0,
            injected: 0,
        })
    }

    /// Drives `decide` with consecutive cycles starting at 1.
    struct Clock(Cycle);
    impl Clock {
        fn new() -> Self {
            Self(0)
        }
        /// Cycles completed so far — the `now` an arrival at the end of the
        /// current cycle carries into [`Router::accept`].
        fn now(&self) -> Cycle {
            self.0
        }
        fn decide(&mut self, r: &mut Router, arena: &FlitArena) -> Vec<Forward> {
            self.0 += 1;
            let mut forwards = Vec::new();
            r.decide(arena, self.0, &mut forwards);
            forwards
        }
    }

    #[test]
    fn single_flit_packet_crosses_in_one_decision() {
        let mesh = Mesh::square(4).unwrap();
        let mut arena = FlitArena::new();
        let mut clock = Clock::new();
        let mut r = router(&mesh, Coord::new(1, 1), ArbitrationPolicy::RoundRobin);
        // Destination is the node to the west: (0, 1).
        let dst = mesh.node_id(Coord::new(0, 1)).unwrap();
        let id = flit(&mut arena, dst, FlitKind::HeadTail, 1, 0);
        r.accept(&arena, clock.now(), Port::Local, 0, id).unwrap();
        let forwards = clock.decide(&mut r, &arena);
        assert_eq!(forwards.len(), 1);
        assert_eq!(forwards[0].output, Port::Mesh(wnoc_core::Direction::West));
        assert_eq!(forwards[0].input, Port::Local);
        // Credit consumed on the west output.
        assert_eq!(r.credits(Port::Mesh(wnoc_core::Direction::West), 0), 3);
        assert!(r.is_idle());
    }

    #[test]
    fn ejection_at_destination_consumes_no_credit() {
        let mesh = Mesh::square(4).unwrap();
        let mut arena = FlitArena::new();
        let mut clock = Clock::new();
        let coord = Coord::new(2, 2);
        let mut r = router(&mesh, coord, ArbitrationPolicy::RoundRobin);
        let dst = mesh.node_id(coord).unwrap();
        let id = flit(&mut arena, dst, FlitKind::HeadTail, 9, 0);
        r.accept(
            &arena,
            clock.now(),
            Port::Mesh(wnoc_core::Direction::East),
            0,
            id,
        )
        .unwrap();
        let forwards = clock.decide(&mut r, &arena);
        assert_eq!(forwards.len(), 1);
        assert_eq!(forwards[0].output, Port::Local);
        assert_eq!(r.credits(Port::Local, 0), 4);
    }

    #[test]
    fn wormhole_hold_keeps_output_for_the_whole_packet() {
        let mesh = Mesh::square(4).unwrap();
        let mut arena = FlitArena::new();
        let mut clock = Clock::new();
        let mut r = router(&mesh, Coord::new(1, 1), ArbitrationPolicy::RoundRobin);
        let west_dst = mesh.node_id(Coord::new(0, 1)).unwrap();
        // A three-flit packet from the local port, and a competing single-flit
        // packet from the east input, both heading west.
        for (kind, seq) in [
            (FlitKind::Head, 0),
            (FlitKind::Body, 1),
            (FlitKind::Tail, 2),
        ] {
            let id = flit(&mut arena, west_dst, kind, 1, seq);
            r.accept(&arena, clock.now(), Port::Local, 0, id).unwrap();
        }
        let id = flit(&mut arena, west_dst, FlitKind::HeadTail, 2, 0);
        r.accept(
            &arena,
            clock.now(),
            Port::Mesh(wnoc_core::Direction::East),
            0,
            id,
        )
        .unwrap();

        let mut order = Vec::new();
        for _ in 0..4 {
            for f in clock.decide(&mut r, &arena) {
                if f.output == Port::Mesh(wnoc_core::Direction::West) {
                    order.push(arena.get(f.flit).packet.0);
                }
            }
        }
        // Whichever packet wins arbitration, its flits are never interleaved
        // with the other packet's.
        assert_eq!(order.len(), 4);
        let first = order[0];
        let first_count = if first == 1 { 3 } else { 1 };
        assert!(order[..first_count].iter().all(|&p| p == first));
        assert!(order[first_count..].iter().all(|&p| p != first));
    }

    #[test]
    fn blocked_output_stops_forwarding_when_credits_exhausted() {
        let mesh = Mesh::square(4).unwrap();
        let mut arena = FlitArena::new();
        let mut clock = Clock::new();
        let w = weights(&mesh);
        // Downstream buffers of only 1 credit.
        let mut r = Router::new(
            Coord::new(1, 1),
            &mesh,
            ArbitrationPolicy::RoundRobin,
            &w,
            &[4; Port::COUNT],
            &[1; Port::COUNT],
            1,
        );
        let west_dst = mesh.node_id(Coord::new(0, 1)).unwrap();
        let id = flit(&mut arena, west_dst, FlitKind::Head, 1, 0);
        r.accept(&arena, clock.now(), Port::Local, 0, id).unwrap();
        let id = flit(&mut arena, west_dst, FlitKind::Tail, 1, 1);
        r.accept(&arena, clock.now(), Port::Local, 0, id).unwrap();
        assert_eq!(clock.decide(&mut r, &arena).len(), 1);
        // Credit exhausted: the tail cannot move until a credit returns.
        assert_eq!(clock.decide(&mut r, &arena).len(), 0);
        r.credit_return(Port::Mesh(wnoc_core::Direction::West), 0);
        assert_eq!(clock.decide(&mut r, &arena).len(), 1);
        assert!(r.is_idle());
    }

    #[test]
    fn nonexistent_port_rejects_flits() {
        let mesh = Mesh::square(4).unwrap();
        let mut arena = FlitArena::new();
        let mut r = router(&mesh, Coord::new(0, 0), ArbitrationPolicy::RoundRobin);
        let dst = mesh.node_id(Coord::new(3, 3)).unwrap();
        // The corner router has no west or north port.
        let id = flit(&mut arena, dst, FlitKind::HeadTail, 1, 0);
        assert!(r
            .accept(&arena, 0, Port::Mesh(wnoc_core::Direction::West), 0, id)
            .is_err());
        assert_eq!(r.free_slots(Port::Mesh(wnoc_core::Direction::North), 0), 0);
        assert!(r.free_slots(Port::Local, 0) > 0);
    }

    #[test]
    fn two_inputs_different_outputs_forward_in_the_same_cycle() {
        let mesh = Mesh::square(4).unwrap();
        let mut arena = FlitArena::new();
        let mut clock = Clock::new();
        let mut r = router(&mesh, Coord::new(1, 1), ArbitrationPolicy::RoundRobin);
        let west_dst = mesh.node_id(Coord::new(0, 1)).unwrap();
        let south_dst = mesh.node_id(Coord::new(1, 3)).unwrap();
        let id = flit(&mut arena, west_dst, FlitKind::HeadTail, 1, 0);
        r.accept(&arena, clock.now(), Port::Local, 0, id).unwrap();
        let id = flit(&mut arena, south_dst, FlitKind::HeadTail, 2, 0);
        r.accept(
            &arena,
            clock.now(),
            Port::Mesh(wnoc_core::Direction::North),
            0,
            id,
        )
        .unwrap();
        let forwards = clock.decide(&mut r, &arena);
        assert_eq!(forwards.len(), 2);
    }

    #[test]
    fn skipped_idle_cycles_replenish_waw_credits_exactly() {
        // A WaW router skipped for k cycles must behave as if `decide` had
        // been called k times on an empty router: its arbiter counters creep
        // back to their quotas.
        let mesh = Mesh::square(2).unwrap();
        let coord = Coord::new(0, 0);
        let dst = mesh.node_id(coord).unwrap();
        let east = Port::Mesh(wnoc_core::Direction::East);
        let south = Port::Mesh(wnoc_core::Direction::South);

        let run = |skip: bool| -> Vec<u64> {
            let mut arena = FlitArena::new();
            let mut r = router(&mesh, coord, ArbitrationPolicy::Waw);
            let mut grants = Vec::new();
            let mut packet = 0u64;
            let mut scratch = Vec::new();
            for cycle in 1..=50u64 {
                // Two contention phases (counters drain under competition)
                // separated by an idle window in which the router is empty.
                let inject = cycle <= 6 || (31..=36).contains(&cycle);
                let idle_window = (15..=30).contains(&cycle);
                if inject {
                    if r.free_slots(east, 0) > 0 {
                        packet += 1;
                        let id = flit(&mut arena, dst, FlitKind::HeadTail, packet, 0);
                        r.accept(&arena, cycle - 1, east, 0, id).unwrap();
                    }
                    if r.free_slots(south, 0) > 0 {
                        packet += 1;
                        let id = flit(&mut arena, dst, FlitKind::HeadTail, packet, 0);
                        r.accept(&arena, cycle - 1, south, 0, id).unwrap();
                    }
                }
                if idle_window {
                    // Premise of skipping: the router really is empty here.
                    assert_eq!(r.buffered_flits(), 0, "cycle {cycle}");
                }
                // The dense kernel visits every cycle; the active-set kernel
                // skips the idle window and catches up on re-entry.
                if !skip || !idle_window {
                    scratch.clear();
                    r.decide(&arena, cycle, &mut scratch);
                    for f in &scratch {
                        if f.output == Port::Local {
                            grants.push(arena.get(f.flit).packet.0);
                        }
                    }
                }
            }
            grants
        };
        let dense = run(false);
        assert!(dense.len() >= 18, "both phases produced grants");
        assert_eq!(dense, run(true));
    }

    #[test]
    fn waw_router_grants_by_quota() {
        // At R(0,0) of a 2x2 mesh with all-to-all weights, the ejection port is
        // shared by the east input (1 source behind it) and the south input
        // (2 sources).  Under saturation the south input must receive roughly
        // two thirds of the grants.
        let mesh = Mesh::square(2).unwrap();
        let mut arena = FlitArena::new();
        let mut clock = Clock::new();
        let coord = Coord::new(0, 0);
        let mut r = router(&mesh, coord, ArbitrationPolicy::Waw);
        let dst = mesh.node_id(coord).unwrap();
        let east = Port::Mesh(wnoc_core::Direction::East);
        let south = Port::Mesh(wnoc_core::Direction::South);
        let mut east_grants = 0u32;
        let mut south_grants = 0u32;
        let mut packet = 0u64;
        for _ in 0..300 {
            // Keep both inputs saturated with single-flit packets.
            while r.free_slots(east, 0) > 0 {
                packet += 1;
                let id = flit(&mut arena, dst, FlitKind::HeadTail, packet, 0);
                r.accept(&arena, clock.now(), east, 0, id).unwrap();
            }
            while r.free_slots(south, 0) > 0 {
                packet += 1;
                let id = flit(&mut arena, dst, FlitKind::HeadTail, packet, 0);
                r.accept(&arena, clock.now(), south, 0, id).unwrap();
            }
            for f in clock.decide(&mut r, &arena) {
                if f.output == Port::Local {
                    match f.input {
                        p if p == east => east_grants += 1,
                        p if p == south => south_grants += 1,
                        _ => {}
                    }
                }
            }
        }
        let total = east_grants + south_grants;
        assert_eq!(total, 300);
        let south_share = f64::from(south_grants) / f64::from(total);
        assert!(
            (south_share - 2.0 / 3.0).abs() < 0.05,
            "south share {south_share}"
        );
    }

    /// A two-VC router with the given per-`(output, VC)` credit pool.
    fn vc_router(mesh: &Mesh, coord: Coord, credits: u32) -> Router {
        let w = weights(mesh);
        Router::new(
            coord,
            mesh,
            ArbitrationPolicy::RoundRobin,
            &w,
            &[4; Port::COUNT],
            &[credits; Port::COUNT],
            2,
        )
    }

    #[test]
    fn same_cycle_vc_contention_grants_the_highest_priority_vc_first() {
        // Two heads contend for the west output in the same cycle, one per
        // VC: the VC 0 head must win the cycle regardless of arrival order,
        // and only its VC's credit is consumed.
        let mesh = Mesh::square(4).unwrap();
        let mut arena = FlitArena::new();
        let mut clock = Clock::new();
        let mut r = vc_router(&mesh, Coord::new(1, 1), 4);
        let west = Port::Mesh(wnoc_core::Direction::West);
        let west_dst = mesh.node_id(Coord::new(0, 1)).unwrap();
        // The VC 1 flit arrives first (local input), the VC 0 flit second
        // (east input) — strict priority, not arrival order, decides.
        let id = flit(&mut arena, west_dst, FlitKind::HeadTail, 1, 0);
        r.accept(&arena, clock.now(), Port::Local, 1, id).unwrap();
        let id = flit(&mut arena, west_dst, FlitKind::HeadTail, 2, 0);
        r.accept(
            &arena,
            clock.now(),
            Port::Mesh(wnoc_core::Direction::East),
            0,
            id,
        )
        .unwrap();
        let forwards = clock.decide(&mut r, &arena);
        assert_eq!(forwards.len(), 1);
        assert_eq!(arena.get(forwards[0].flit).packet.0, 2);
        assert_eq!(forwards[0].vc, 0);
        assert_eq!(r.credits(west, 0), 3);
        assert_eq!(r.credits(west, 1), 4);
        // The lower-priority VC drains on the next cycle.
        let forwards = clock.decide(&mut r, &arena);
        assert_eq!(forwards.len(), 1);
        assert_eq!(arena.get(forwards[0].flit).packet.0, 1);
        assert_eq!(forwards[0].vc, 1);
        assert_eq!(r.credits(west, 1), 3);
        assert!(r.is_idle());
    }

    #[test]
    fn credit_starved_vc0_does_not_block_vc1_in_the_same_cycle() {
        // One credit per (output, VC).  A two-flit VC 0 packet forwards its
        // head (consuming the only VC 0 credit) and then stalls mid-worm; a
        // VC 1 single-flit packet to the same output must still forward in
        // the very cycle VC 0 is credit-starved.
        let mesh = Mesh::square(4).unwrap();
        let mut arena = FlitArena::new();
        let mut clock = Clock::new();
        let mut r = vc_router(&mesh, Coord::new(1, 1), 1);
        let west = Port::Mesh(wnoc_core::Direction::West);
        let west_dst = mesh.node_id(Coord::new(0, 1)).unwrap();
        for (kind, seq) in [(FlitKind::Head, 0), (FlitKind::Tail, 1)] {
            let id = flit(&mut arena, west_dst, kind, 1, seq);
            r.accept(&arena, clock.now(), Port::Local, 0, id).unwrap();
        }
        let id = flit(&mut arena, west_dst, FlitKind::HeadTail, 2, 0);
        r.accept(
            &arena,
            clock.now(),
            Port::Mesh(wnoc_core::Direction::East),
            1,
            id,
        )
        .unwrap();
        // Cycle 1: VC 0 head wins and exhausts its credit pool.
        let forwards = clock.decide(&mut r, &arena);
        assert_eq!(forwards.len(), 1);
        assert_eq!(
            (arena.get(forwards[0].flit).packet.0, forwards[0].vc),
            (1, 0)
        );
        assert_eq!(r.credits(west, 0), 0);
        // Cycle 2: the held VC 0 worm cannot move, VC 1 forwards instead.
        let forwards = clock.decide(&mut r, &arena);
        assert_eq!(forwards.len(), 1);
        assert_eq!(
            (arena.get(forwards[0].flit).packet.0, forwards[0].vc),
            (2, 1)
        );
        // The VC 0 tail resumes only once a VC 0 credit returns.
        assert_eq!(clock.decide(&mut r, &arena).len(), 0);
        r.credit_return(west, 0);
        let forwards = clock.decide(&mut r, &arena);
        assert_eq!(forwards.len(), 1);
        assert_eq!(
            (arena.get(forwards[0].flit).packet.0, forwards[0].vc),
            (1, 0)
        );
        assert!(r.is_idle());
    }

    #[test]
    fn vc0_grants_do_not_steer_the_vc1_round_robin() {
        // Regression: with a single arbiter shared across VCs, every VC 0
        // grant from one input re-parks the round-robin pointer just past
        // that input, so whenever VC 1 gets a free cycle the pointer always
        // selects the same VC 1 input — the other one starves for as long as
        // the VC 0 stream lasts (campaigns observed flows starved for entire
        // runs behind a saturated higher-priority VC).  Per-(output, VC)
        // arbiters must keep the VC 1 round robin fair.
        let mesh = Mesh::square(4).unwrap();
        let mut arena = FlitArena::new();
        let mut clock = Clock::new();
        let mut r = vc_router(&mesh, Coord::new(1, 1), 16);
        let east = Port::Mesh(wnoc_core::Direction::East);
        let south = Port::Mesh(wnoc_core::Direction::South);
        let west_dst = mesh.node_id(Coord::new(0, 1)).unwrap();
        // Two VC 1 packets queued per input; topped back up after each grant.
        for (input, packet) in [(east, 200), (east, 201), (south, 300), (south, 301)] {
            let id = flit(&mut arena, west_dst, FlitKind::HeadTail, packet, 0);
            r.accept(&arena, clock.now(), input, 1, id).unwrap();
        }
        let mut vc1_grants = (0u32, 0u32);
        let mut next_packet = (202u64, 302u64);
        for round in 0..20u64 {
            if round % 2 == 0 {
                // VC 0 streams from the east input on even cycles and must
                // win each of them.
                let id = flit(&mut arena, west_dst, FlitKind::HeadTail, 100 + round, 0);
                r.accept(&arena, clock.now(), east, 0, id).unwrap();
            }
            let forwards = clock.decide(&mut r, &arena);
            assert_eq!(forwards.len(), 1);
            let forward = forwards[0];
            if round % 2 == 0 {
                assert_eq!(forward.vc, 0, "VC 0 wins every cycle it has a flit");
                continue;
            }
            assert_eq!(forward.vc, 1);
            if forward.input == east {
                vc1_grants.0 += 1;
                let id = flit(&mut arena, west_dst, FlitKind::HeadTail, next_packet.0, 0);
                next_packet.0 += 1;
                r.accept(&arena, clock.now(), east, 1, id).unwrap();
            } else {
                assert_eq!(forward.input, south);
                vc1_grants.1 += 1;
                let id = flit(&mut arena, west_dst, FlitKind::HeadTail, next_packet.1, 0);
                next_packet.1 += 1;
                r.accept(&arena, clock.now(), south, 1, id).unwrap();
            }
        }
        // 10 VC 1 cycles: a fair per-VC round robin alternates 5/5; the
        // shared-pointer bug gave 10/0.
        assert_eq!(vc1_grants, (5, 5));
    }

    #[test]
    fn credit_return_unblocks_only_its_own_vc() {
        // Credits are per-(output, VC) pools: returning a VC 1 credit must
        // not release a packet waiting on VC 0 credits.
        let mesh = Mesh::square(4).unwrap();
        let mut arena = FlitArena::new();
        let mut clock = Clock::new();
        let mut r = vc_router(&mesh, Coord::new(1, 1), 1);
        let west = Port::Mesh(wnoc_core::Direction::West);
        let west_dst = mesh.node_id(Coord::new(0, 1)).unwrap();
        let id = flit(&mut arena, west_dst, FlitKind::HeadTail, 1, 0);
        r.accept(&arena, clock.now(), Port::Local, 0, id).unwrap();
        assert_eq!(clock.decide(&mut r, &arena).len(), 1);
        let id = flit(&mut arena, west_dst, FlitKind::HeadTail, 2, 0);
        r.accept(&arena, clock.now(), Port::Local, 0, id).unwrap();
        // VC 0 is out of credits; a VC 1 credit return changes nothing.
        assert_eq!(clock.decide(&mut r, &arena).len(), 0);
        r.credit_return(west, 1);
        assert_eq!(clock.decide(&mut r, &arena).len(), 0);
        assert_eq!(r.credits(west, 1), 2);
        // The matching VC 0 return releases the waiting packet.
        r.credit_return(west, 0);
        let forwards = clock.decide(&mut r, &arena);
        assert_eq!(forwards.len(), 1);
        assert_eq!(
            (arena.get(forwards[0].flit).packet.0, forwards[0].vc),
            (2, 0)
        );
        assert!(r.is_idle());
    }
}
