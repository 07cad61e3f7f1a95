//! A uniform trait-object interface over every WCTT analysis, used by the
//! conformance harness (`wnoc-conformance`) to cross-validate the
//! cycle-accurate simulator against every analytic bound.
//!
//! The analyses answer the same question — *how long can a packet (or
//! message) of a given flow take to traverse the mesh?* — with very different
//! machinery:
//!
//! * [`RegularOracle`] wraps [`RegularWcttModel`]: the chained-blocking bound
//!   for the round-robin mesh;
//! * [`PreemptiveOracle`] (in [`crate::analysis::preemptive`]): the
//!   priority-preemptive repair of chained blocking over virtual channels;
//! * [`WeightedOracle`] wraps [`WeightedWcttModel`]: the weighted-rounds bound
//!   for the WaW + WaP design, in its paper and backpressured flavours;
//! * [`BufferAwareOracle`] and [`GraphBufferAwareOracle`]: the depth-aware
//!   weighted bound and its bursty arrival-curve extension;
//! * [`UbdOracle`] wraps [`UbdModel`]: the same underlying models but composed
//!   through the active packetization policy, as the WCET computation mode
//!   consumes them;
//! * [`SlotOracle`] applies the Section III single-port slot model
//!   ([`slot::contended_port_latency`]) to the most contended port of the
//!   route.  It is **not** an upper bound on observations
//!   ([`WcttBoundModel::dominates_observation`] is `false`); it is the
//!   analytic *envelope* of the bottleneck port that every full-route bound
//!   must dominate, which gives the conformance harness a cross-analysis
//!   ordering check (`slot ≤ primary ≤ naive per-packet sum`).
//!
//! One builder assembles them into a suite, primary first, with the validity
//! gating of each design regime; [`oracle_suite_with_vcs`],
//! [`oracle_suite_with_counts`] and [`oracle_suite_with_curve`] are its entry
//! points.
//!
//! # Bound semantics
//!
//! All bounds assume the packet under analysis starts *at the head of its
//! input buffer* with every contender adversarially backlogged (Section II.A
//! of the paper).  Time spent queued behind earlier messages of the same
//! source is deliberately outside the model — observations must therefore be
//! taken with at most one outstanding message per source (see
//! `Simulation::run_closed_loop` in `wnoc-sim`), which is how the paper's
//! WCTT tables are defined.  [`WeightedOracle::message_bound`] additionally
//! assumes ideal slice pipelining (one bottleneck round per extra slice); it
//! is an analytic quantity, compared against other analyses rather than
//! against simulator observations (single-slice messages, where
//! `message_bound == packet_bound`, remain observable).

use crate::analysis::buffer_aware::BufferAwareWcttModel;
use crate::analysis::graph_buffer_aware::GraphBufferAwareWcttModel;
use crate::analysis::preemptive::PreemptiveOracle;
use crate::analysis::regular::RegularWcttModel;
use crate::analysis::slot;
use crate::analysis::ubd::UbdModel;
use crate::analysis::weighted::WeightedWcttModel;
use crate::arbitration::ArbitrationPolicy;
use crate::arrival::ArrivalCurve;
use crate::buffers::BufferConfig;
use crate::config::NocConfig;
use crate::error::{Error, Result};
use crate::flow::{FlowId, FlowSet};
use crate::packetization::PacketizationPolicy;
use crate::routing::Route;
use crate::topology::Mesh;
use crate::vc::VcConfig;
use crate::weights::WeightTable;

/// A WCTT analysis viewed as a per-flow bound oracle.
///
/// Implementations take `&mut self` because some models ([`RegularWcttModel`])
/// memoise sub-results across queries.
pub trait WcttBoundModel: std::fmt::Debug + Send {
    /// Short stable name of the analysis (used in conformance reports).
    fn name(&self) -> &'static str;

    /// `true` if the bound is safe against observed traversal latencies of the
    /// conformance probing discipline (one outstanding message per source);
    /// `false` for analytic envelopes like [`SlotOracle`] that only
    /// participate in cross-analysis ordering checks.
    fn dominates_observation(&self) -> bool {
        true
    }

    /// `true` if [`WcttBoundModel::message_bound`] is safe for a whole
    /// `message_flits`-flit message, not just per wire packet.  The
    /// chained-blocking analyses ([`RegularOracle`], [`UbdOracle`] under
    /// round robin) compose multi-packet messages as a plain `Σ` per-packet
    /// sum, which buffer-depth campaigns proved unsound (cross-traffic
    /// trains queued between the packets push observations up to 15% above
    /// it on ≥ 9×9 meshes at `L = 8`): they claim only single-packet
    /// messages, and the priority-preemptive composition carries the
    /// multi-packet dominance instead.
    fn dominates_message(&self, _message_flits: u32) -> bool {
        true
    }

    /// Bound for a single wire packet of `own_flits` flits on flow `id`, or
    /// `None` if the flow is not part of the set.
    fn packet_bound(&mut self, id: FlowId, own_flits: u32) -> Option<u64>;

    /// Bound for one whole message of `message_flits` regular-packetization
    /// flits on flow `id` (the message is split into wire packets according to
    /// the oracle's packetization policy), or `None` if the flow is unknown.
    fn message_bound(&mut self, id: FlowId, message_flits: u32) -> Option<u64>;
}

/// Number of wire packets (WaP slices) a `message_flits`-flit message
/// occupies under `config`'s packetization: the slice count the weighted
/// analyses compose over.
pub(crate) fn slices(config: &NocConfig, message_flits: u32) -> u32 {
    config.packetization.split(message_flits).packets
}

/// [`WcttBoundModel`] over the chained-blocking analysis of the regular
/// round-robin mesh.
#[derive(Debug, Clone)]
pub struct RegularOracle {
    model: RegularWcttModel,
    flows: FlowSet,
}

impl RegularOracle {
    /// Builds the oracle for `flows` with maximum packet size
    /// `max_packet_flits` (the paper's `L`, also the assumed contender size).
    pub fn new(flows: &FlowSet, max_packet_flits: u32) -> Self {
        Self {
            model: RegularWcttModel::new(flows, max_packet_flits),
            flows: flows.clone(),
        }
    }
}

impl WcttBoundModel for RegularOracle {
    fn name(&self) -> &'static str {
        "regular"
    }

    fn dominates_message(&self, message_flits: u32) -> bool {
        // The Σ per-packet composition is unsound for multi-packet messages
        // (see the trait method docs); single wire packets only.
        message_flits <= self.model.contender_flits()
    }

    fn packet_bound(&mut self, id: FlowId, own_flits: u32) -> Option<u64> {
        // Destructure to borrow the route and the mutable model at once
        // (cloning the route here used to allocate on every single query).
        let Self { model, flows } = self;
        let route = flows.route(id)?;
        Some(model.route_wctt(route, own_flits))
    }

    fn message_bound(&mut self, id: FlowId, message_flits: u32) -> Option<u64> {
        let Self { model, flows } = self;
        let route = flows.route(id)?;
        let split = model.split(message_flits);
        Some(model.message_wctt(route, split))
    }
}

/// The two flavours of the weighted (WaW + WaP) bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightedFlavor {
    /// The paper's per-hop bound (`Σ router + (O − 1)·m`), as tabulated in
    /// Table II.  Analytic reference only: credit backpressure with shallow
    /// input buffers dilates arbitration rounds beyond what it models, so it
    /// does not dominate `wnoc-sim` observations on larger meshes.
    Paper,
    /// The backpressure-aware bound
    /// ([`WeightedWcttModel::backpressured_packet_wctt`]): one full dilated
    /// round per hop.  Safe against observations on output-consistent flow
    /// sets; this is the dominance oracle of the conformance harness.
    Backpressured,
}

/// [`WcttBoundModel`] over the weighted-rounds analysis of the WaW + WaP
/// design, in either [`WeightedFlavor`].
#[derive(Debug, Clone)]
pub struct WeightedOracle {
    model: WeightedWcttModel,
    flows: FlowSet,
    config: NocConfig,
    flavor: WeightedFlavor,
}

impl WeightedOracle {
    /// Builds the paper-flavour oracle for `flows` under the WaW + WaP
    /// configuration `config` (used for the slice size and slicing).
    pub fn new(flows: &FlowSet, config: &NocConfig) -> Self {
        Self::with_flavor(flows, config, WeightedFlavor::Paper)
    }

    /// Builds the oracle in the given flavour.
    pub fn with_flavor(flows: &FlowSet, config: &NocConfig, flavor: WeightedFlavor) -> Self {
        let slice = config.packetization.worst_case_contender_flits();
        Self {
            model: WeightedWcttModel::new(WeightTable::from_flow_set(flows), slice),
            flows: flows.clone(),
            config: *config,
            flavor,
        }
    }
}

impl WcttBoundModel for WeightedOracle {
    fn name(&self) -> &'static str {
        match self.flavor {
            WeightedFlavor::Paper => "weighted",
            WeightedFlavor::Backpressured => "weighted-bp",
        }
    }

    fn dominates_observation(&self) -> bool {
        self.flavor == WeightedFlavor::Backpressured
    }

    fn packet_bound(&mut self, id: FlowId, _own_flits: u32) -> Option<u64> {
        // Every WaP wire packet is a minimum-size slice, so the per-packet
        // bound does not depend on the message size.
        let route = self.flows.route(id)?;
        Some(match self.flavor {
            WeightedFlavor::Paper => self.model.packet_wctt(route),
            WeightedFlavor::Backpressured => self.model.backpressured_packet_wctt(route),
        })
    }

    fn message_bound(&mut self, id: FlowId, message_flits: u32) -> Option<u64> {
        let slices = slices(&self.config, message_flits);
        let route = self.flows.route(id)?;
        Some(match self.flavor {
            WeightedFlavor::Paper => self.model.message_wctt(route, slices),
            WeightedFlavor::Backpressured => self.model.backpressured_message_wctt(route, slices),
        })
    }
}

/// Delegating wrapper that demotes any oracle to an analytic reference:
/// bounds are unchanged but [`WcttBoundModel::dominates_observation`] is
/// forced to `false`.
///
/// Used by the suite builder ([`oracle_suite_with_vcs`]): analyses that do
/// not model buffer depth (`regular`, `ubd`, `weighted-bp`) were validated
/// against the simulator's default buffering, so on platforms with
/// *shallower* buffers they participate in cross-analysis ordering checks
/// only — credit round-trip serialisation at depth 1 can push observations
/// past bounds that are perfectly safe at the calibration depth.
#[derive(Debug)]
pub struct AnalyticOnly<T: WcttBoundModel>(pub T);

impl<T: WcttBoundModel> WcttBoundModel for AnalyticOnly<T> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn dominates_observation(&self) -> bool {
        false
    }

    fn dominates_message(&self, message_flits: u32) -> bool {
        self.0.dominates_message(message_flits)
    }

    fn packet_bound(&mut self, id: FlowId, own_flits: u32) -> Option<u64> {
        self.0.packet_bound(id, own_flits)
    }

    fn message_bound(&mut self, id: FlowId, message_flits: u32) -> Option<u64> {
        self.0.message_bound(id, message_flits)
    }
}

/// [`WcttBoundModel`] over the buffer-aware weighted analysis
/// ([`BufferAwareWcttModel`]): per-hop backpressure terms sized by the
/// configured [`BufferConfig`].  The only oracle whose dominance claim is
/// depth-aware, and the dominance oracle of buffer-depth conformance sweeps.
#[derive(Debug, Clone)]
pub struct BufferAwareOracle {
    model: BufferAwareWcttModel,
    flows: FlowSet,
    config: NocConfig,
}

impl BufferAwareOracle {
    /// Builds the oracle for `flows` under the WaW + WaP configuration
    /// `config` with the given buffer configuration over `mesh`.
    pub fn new(flows: &FlowSet, config: &NocConfig, mesh: Mesh, buffers: BufferConfig) -> Self {
        let slice = config.packetization.worst_case_contender_flits();
        Self {
            model: BufferAwareWcttModel::new(
                WeightTable::from_flow_set(flows),
                slice,
                mesh,
                buffers,
            ),
            flows: flows.clone(),
            config: *config,
        }
    }
}

impl WcttBoundModel for BufferAwareOracle {
    fn name(&self) -> &'static str {
        "buffer-aware"
    }

    fn packet_bound(&mut self, id: FlowId, _own_flits: u32) -> Option<u64> {
        // As for the weighted oracles: every WaP wire packet is a
        // minimum-size slice, so the per-packet bound is size-independent.
        let route = self.flows.route(id)?;
        Some(self.model.packet_wctt(route))
    }

    fn message_bound(&mut self, id: FlowId, message_flits: u32) -> Option<u64> {
        let slices = slices(&self.config, message_flits);
        let route = self.flows.route(id)?;
        Some(self.model.message_wctt(route, slices))
    }
}

/// [`WcttBoundModel`] over the graph-based buffer-aware analysis
/// ([`GraphBufferAwareWcttModel`]): the steady-state buffer-aware bound plus
/// a dependency-graph burst term sized by an [`ArrivalCurve`].  The sixth
/// analysis of the catalog (`docs/ORACLES.md`) and the dominance oracle of
/// bursty conformance sweeps.
///
/// Unlike every other oracle, its dominance claim is against the
/// **end-to-end message latencies** of the bursty driver
/// (`Simulation::run_bursty` in `wnoc-sim`), which include queueing behind
/// the flow's own admitted backlog — exactly the delay the burst term
/// covers.  It requires one flow per source NIC and a stable sustained gap
/// (see the [`crate::analysis::graph_buffer_aware`] module docs); the
/// conformance sampler enforces both.
#[derive(Debug, Clone)]
pub struct GraphBufferAwareOracle {
    model: GraphBufferAwareWcttModel,
    flows: FlowSet,
    config: NocConfig,
}

impl GraphBufferAwareOracle {
    /// Builds the oracle for `flows` under the WaW + WaP configuration
    /// `config`, the given buffer configuration over `mesh` and the arrival
    /// contract `curve`.
    pub fn new(
        flows: &FlowSet,
        config: &NocConfig,
        mesh: Mesh,
        buffers: BufferConfig,
        curve: ArrivalCurve,
    ) -> Self {
        let slice = config.packetization.worst_case_contender_flits();
        Self {
            model: GraphBufferAwareWcttModel::new(
                BufferAwareWcttModel::new(WeightTable::from_flow_set(flows), slice, mesh, buffers),
                curve,
            ),
            flows: flows.clone(),
            config: *config,
        }
    }
}

impl WcttBoundModel for GraphBufferAwareOracle {
    fn name(&self) -> &'static str {
        "graph-ba"
    }

    fn packet_bound(&mut self, id: FlowId, _own_flits: u32) -> Option<u64> {
        // As for the other weighted analyses: every WaP wire packet is a
        // minimum-size slice, so the per-packet bound is size-independent.
        let route = self.flows.route(id)?;
        Some(self.model.packet_wctt(route))
    }

    fn message_bound(&mut self, id: FlowId, message_flits: u32) -> Option<u64> {
        let slices = slices(&self.config, message_flits);
        let route = self.flows.route(id)?;
        Some(self.model.message_wctt(route, slices))
    }
}

/// [`WcttBoundModel`] over the Upper Bound Delay composition used by the WCET
/// computation mode (request/response messages through the active
/// packetization policy).
#[derive(Debug, Clone)]
pub struct UbdOracle {
    model: UbdModel,
    flows: FlowSet,
    arbitration: ArbitrationPolicy,
    max_packet_flits: u32,
}

impl UbdOracle {
    /// Builds the oracle for `flows` under `config`.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(flows: &FlowSet, config: &NocConfig) -> Result<Self> {
        Ok(Self {
            model: UbdModel::new(*config, flows)?,
            flows: flows.clone(),
            arbitration: config.arbitration,
            max_packet_flits: config.packetization.worst_case_contender_flits().max(1),
        })
    }
}

impl WcttBoundModel for UbdOracle {
    fn name(&self) -> &'static str {
        "ubd"
    }

    fn dominates_observation(&self) -> bool {
        // Under WaW the UBD composition inherits the paper-flavour weighted
        // bound (ideal rounds, ideal slice pipelining): analytic only.
        self.arbitration == ArbitrationPolicy::RoundRobin
    }

    fn dominates_message(&self, message_flits: u32) -> bool {
        // Under round robin the UBD composition inherits the regular Σ
        // per-packet sum, unsound for multi-packet messages (see
        // [`RegularOracle::dominates_message`]).
        match self.arbitration {
            ArbitrationPolicy::RoundRobin => message_flits <= self.max_packet_flits,
            ArbitrationPolicy::Waw => true,
        }
    }

    fn packet_bound(&mut self, id: FlowId, own_flits: u32) -> Option<u64> {
        // A single wire packet is a message that packetizes to one packet;
        // the UBD composition of such a message is exactly its packet bound.
        self.message_bound(id, own_flits)
    }

    fn message_bound(&mut self, id: FlowId, message_flits: u32) -> Option<u64> {
        let Self { model, flows, .. } = self;
        let route = flows.route(id)?;
        Some(model.route_message_bound(route, message_flits))
    }
}

/// [`WcttBoundModel`] applying the Section III single-port slot model to the
/// most contended port of the route: the *bottleneck envelope*.
///
/// Not a safe upper bound on observations (a route has more than one port);
/// instead, every full-route analysis must dominate it, which the conformance
/// harness asserts as a cross-analysis ordering invariant.
#[derive(Debug, Clone)]
pub struct SlotOracle {
    flows: FlowSet,
    arbitration: ArbitrationPolicy,
    packetization: PacketizationPolicy,
    /// Flows per `(router, input, output)` pair and per `(router, output)`
    /// port: the envelope queries contention for every hop of every route,
    /// and rescanning the flow set per query made this oracle dominate whole
    /// conformance campaigns.  Callers that already hold the set's table (the
    /// conformance campaign's flow-set cache) hand it over through
    /// [`SlotOracle::with_counts`].
    counts: WeightTable,
}

impl SlotOracle {
    /// Builds the envelope oracle for `flows` under `config`, counting the
    /// flow set's port contention in one pass.
    pub fn new(flows: &FlowSet, config: &NocConfig) -> Self {
        Self::with_counts(flows, config, WeightTable::from_flow_set(flows))
    }

    /// Like [`SlotOracle::new`], but reusing an already-built contention
    /// table (`counts` must equal `WeightTable::from_flow_set(flows)`).
    pub fn with_counts(flows: &FlowSet, config: &NocConfig, counts: WeightTable) -> Self {
        debug_assert_eq!(counts, WeightTable::from_flow_set(flows));
        Self {
            flows: flows.clone(),
            arbitration: config.arbitration,
            packetization: config.packetization,
            counts,
        }
    }

    /// The contenders of the most contended port of `route` (at least 1)
    /// under `arbitration`, as `counts` holds them: the slot latency is
    /// monotone in the contender count, so that port decides the envelope.
    #[inline]
    pub(crate) fn contenders(
        arbitration: ArbitrationPolicy,
        counts: &WeightTable,
        route: &Route,
    ) -> u32 {
        route
            .hops()
            .iter()
            .map(|hop| match arbitration {
                // Round robin arbitrates between input ports.
                ArbitrationPolicy::RoundRobin => {
                    counts.contender_count(hop.router, hop.input, hop.output) + 1
                }
                // WaW shares the port between the flows using it.
                ArbitrationPolicy::Waw => counts.output_flows(hop.router, hop.output).max(1),
            })
            .fold(1, u32::max)
    }

    /// The envelope of one wire packet of `own_flits` flits under
    /// `packetization` on a route whose most contended port has
    /// `contenders` contenders: under WaP every wire packet is one slice,
    /// whatever size is asked for.
    pub(crate) fn packet_envelope(
        packetization: PacketizationPolicy,
        contenders: u32,
        own_flits: u32,
    ) -> u64 {
        let own = match packetization {
            PacketizationPolicy::Regular { .. } => own_flits,
            PacketizationPolicy::Wap => 1,
        };
        Self::envelope(packetization, contenders, own)
    }

    /// The envelope of a whole `message_flits`-flit message: its wire flits
    /// under the same split the UBD composition and the other oracles use.
    pub(crate) fn message_envelope(
        packetization: PacketizationPolicy,
        contenders: u32,
        message_flits: u32,
    ) -> u64 {
        let wire = packetization.split(message_flits).wire_flits();
        Self::envelope(packetization, contenders, wire)
    }

    /// The single-port slot latency of a train of `own_wire_flits` wire
    /// flits behind `contenders − 1` contender packets.
    fn envelope(packetization: PacketizationPolicy, contenders: u32, own_wire_flits: u32) -> u64 {
        slot::contended_port_latency(
            contenders,
            packetization.worst_case_contender_flits(),
            own_wire_flits,
        )
    }
}

impl WcttBoundModel for SlotOracle {
    fn name(&self) -> &'static str {
        "slot"
    }

    fn dominates_observation(&self) -> bool {
        false
    }

    fn packet_bound(&mut self, id: FlowId, own_flits: u32) -> Option<u64> {
        let route = self.flows.route(id)?;
        let contenders = Self::contenders(self.arbitration, &self.counts, route);
        Some(Self::packet_envelope(
            self.packetization,
            contenders,
            own_flits,
        ))
    }

    fn message_bound(&mut self, id: FlowId, message_flits: u32) -> Option<u64> {
        let route = self.flows.route(id)?;
        let contenders = Self::contenders(self.arbitration, &self.counts, route);
        Some(Self::message_envelope(
            self.packetization,
            contenders,
            message_flits,
        ))
    }
}

/// Every analysis applicable to `config` on a platform whose router buffers
/// follow `buffers` and whose input ports carry `vcs` virtual channels,
/// primary (dominance/tightness reference) first.
///
/// Buffer depth and VC count change which analyses may claim observation
/// safety:
///
/// * with the **default** buffers (uniform at
///   [`NocConfig::input_buffer_flits`]) and a **single VC** the suite is the
///   paper's: `regular` under round robin, `weighted-bp` under WaW — plus,
///   under WaW, the buffer-aware oracle as an extra dominating member (its
///   bounds coincide with `weighted-bp` at the calibration depth, so verdicts
///   are unchanged);
/// * with **non-default** buffers under WaW the buffer-aware oracle becomes
///   the primary, since it is the only depth-aware weighted analysis;
/// * the classic round-robin analyses (`regular`, `ubd`) keep their
///   dominance claims only at the exact validation point (default buffers,
///   single VC): their safety is tied to the 4-flit depth in *both*
///   directions — shallower rings add credit round-trip stalls, and deeper
///   rings let input FIFOs accumulate multi-packet cross-traffic trains the
///   chained-blocking recursion does not count (buffer-depth campaigns
///   observed up to 3.2× the bound at depth 64) — and strict VC priority
///   breaks the round-robin fairness they assume;
/// * the **preemptive** oracle ([`PreemptiveOracle`]) dominates round-robin
///   scenarios at *every* depth and VC count: it envelopes off-calibration
///   depths explicitly and models cross-VC preemption, which is exactly the
///   repair of the two regimes the demotions used to paper over;
/// * `weighted-bp` keeps its dominance claim for calibration-or-deeper
///   buffers (under WaP every wire packet is a single slice and the weighted
///   round argument counts every flow sharing a port, so FIFO depth adds no
///   unmodelled contention; deeper buffers only reduce the dilation it
///   models) and is demoted below the calibration depth.  The weighted
///   analyses model the single-VC WaW router only, so a multi-VC platform
///   demotes them all (the conformance sampler never pairs WaW with VCs).
///
/// # Errors
///
/// Returns an error if the configuration is invalid or `buffers` does not
/// cover `mesh`.
pub fn oracle_suite_with_vcs(
    flows: &FlowSet,
    config: &NocConfig,
    mesh: Mesh,
    buffers: &BufferConfig,
    vcs: VcConfig,
) -> Result<Vec<Box<dyn WcttBoundModel>>> {
    let counts = WeightTable::from_flow_set(flows);
    suite(flows, config, mesh, buffers, vcs, counts, None)
}

/// [`oracle_suite_with_vcs`] reusing an already-built contention table
/// (`counts` must equal `WeightTable::from_flow_set(flows)`), so callers that
/// keep the table — the conformance campaign's flow-set cache — hand it to
/// the slot envelope instead of recounting the routes.
///
/// # Errors
///
/// Returns an error if the configuration is invalid or `buffers` does not
/// cover `mesh`.
pub fn oracle_suite_with_counts(
    flows: &FlowSet,
    config: &NocConfig,
    mesh: Mesh,
    buffers: &BufferConfig,
    vcs: VcConfig,
    counts: WeightTable,
) -> Result<Vec<Box<dyn WcttBoundModel>>> {
    suite(flows, config, mesh, buffers, vcs, counts, None)
}

/// The **bursty-regime** suite: every analysis of the catalog over a
/// platform whose flows follow the arrival contract `curve`, with the
/// graph-based buffer-aware analysis as the sole dominance oracle.
///
/// Bursty observations are *end-to-end message latencies* (they include
/// queueing behind the flow's own admitted backlog), which the steady-state
/// bounds deliberately exclude — so `buffer-aware` and `weighted-bp` are
/// demoted to analytic ordering references here, `weighted`, `ubd` and
/// `slot` already are analytic under WaW, and only `graph-ba` (whose burst
/// term covers the backlog) claims observation safety.  A multi-VC platform
/// demotes `graph-ba` too, like every other weighted analysis.
///
/// `counts` must equal `WeightTable::from_flow_set(flows)`, as in
/// [`oracle_suite_with_counts`].
///
/// # Errors
///
/// Returns an error if the configuration is invalid, `buffers` does not
/// cover `mesh`, or the design is not WaW + WaP (the graph-based analysis
/// models the weighted router only; round-robin platforms have no bursty
/// dominance oracle yet).
pub fn oracle_suite_with_curve(
    flows: &FlowSet,
    config: &NocConfig,
    mesh: Mesh,
    buffers: &BufferConfig,
    vcs: VcConfig,
    counts: WeightTable,
    curve: ArrivalCurve,
) -> Result<Vec<Box<dyn WcttBoundModel>>> {
    suite(flows, config, mesh, buffers, vcs, counts, Some(curve))
}

/// The one suite builder behind the public entry points: steady-state
/// traffic when `curve` is `None`, the bursty regime otherwise.  A new
/// analysis joins every suite here, with its place in each regime's member
/// order and its gating.
fn suite(
    flows: &FlowSet,
    config: &NocConfig,
    mesh: Mesh,
    buffers: &BufferConfig,
    vcs: VcConfig,
    counts: WeightTable,
    curve: Option<ArrivalCurve>,
) -> Result<Vec<Box<dyn WcttBoundModel>>> {
    config.validate()?;
    buffers.validate(&mesh)?;
    let default_buffers = buffers.is_uniform_depth(config.input_buffer_flits);
    let depth_validated = buffers.min_depth() >= config.input_buffer_flits;
    let single_vc = vcs.is_single();
    /// Keeps `oracle`'s dominance claim when `keep`, demotes it otherwise.
    fn gate<T: WcttBoundModel + 'static>(oracle: T, keep: bool) -> Box<dyn WcttBoundModel> {
        if keep {
            Box::new(oracle)
        } else {
            Box::new(AnalyticOnly(oracle))
        }
    }
    let mut suite: Vec<Box<dyn WcttBoundModel>> = match config.arbitration {
        ArbitrationPolicy::RoundRobin => {
            if curve.is_some() {
                return Err(Error::InvalidConfig {
                    reason: "the graph-based bursty analysis models the WaW + WaP design only"
                        .to_string(),
                });
            }
            let classic = default_buffers && single_vc;
            let regular =
                RegularOracle::new(flows, config.packetization.worst_case_contender_flits());
            vec![
                gate(regular, classic),
                gate(UbdOracle::new(flows, config)?, classic),
                Box::new(PreemptiveOracle::new(flows, config, buffers, vcs)),
            ]
        }
        ArbitrationPolicy::Waw => {
            let buffer_aware = BufferAwareOracle::new(flows, config, mesh, buffers.clone());
            let backpressured =
                WeightedOracle::with_flavor(flows, config, WeightedFlavor::Backpressured);
            let paper: Box<dyn WcttBoundModel> = Box::new(WeightedOracle::with_flavor(
                flows,
                config,
                WeightedFlavor::Paper,
            ));
            let mut suite: Vec<Box<dyn WcttBoundModel>> = match curve {
                Some(curve) => vec![
                    gate(
                        GraphBufferAwareOracle::new(flows, config, mesh, buffers.clone(), curve),
                        single_vc,
                    ),
                    gate(buffer_aware, false),
                    gate(backpressured, false),
                    paper,
                ],
                None if default_buffers => vec![
                    gate(backpressured, single_vc),
                    paper,
                    gate(buffer_aware, single_vc),
                ],
                None => vec![
                    gate(buffer_aware, single_vc),
                    gate(backpressured, depth_validated && single_vc),
                    paper,
                ],
            };
            suite.push(Box::new(UbdOracle::new(flows, config)?));
            suite
        }
    };
    suite.push(Box::new(SlotOracle::with_counts(flows, config, counts)));
    Ok(suite)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Coord;
    use crate::topology::Mesh;

    fn setup(side: u16, config: NocConfig) -> (FlowSet, NocConfig) {
        let mesh = Mesh::square(side).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        (flows, config)
    }

    /// The suite at the paper's design point: default buffers, one VC.
    fn default_suite(flows: &FlowSet, config: &NocConfig) -> Vec<Box<dyn WcttBoundModel>> {
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        oracle_suite_with_vcs(flows, config, *flows.mesh(), &buffers, VcConfig::single()).unwrap()
    }

    /// The suite's first member: the dominance and tightness reference.
    fn primary(flows: &FlowSet, config: &NocConfig) -> Box<dyn WcttBoundModel> {
        default_suite(flows, config).swap_remove(0)
    }

    #[test]
    fn backpressured_flavor_dominates_paper_flavor() {
        let (flows, config) = setup(6, NocConfig::waw_wap());
        let mut paper = WeightedOracle::with_flavor(&flows, &config, WeightedFlavor::Paper);
        let mut bp = WeightedOracle::with_flavor(&flows, &config, WeightedFlavor::Backpressured);
        for (id, _) in flows.iter() {
            for mf in [1u32, 4] {
                assert!(bp.message_bound(id, mf).unwrap() >= paper.message_bound(id, mf).unwrap());
            }
        }
    }

    #[test]
    fn primary_matches_arbitration_policy() {
        let (flows, config) = setup(3, NocConfig::regular(2));
        assert_eq!(primary(&flows, &config).name(), "regular");
        let (flows, config) = setup(3, NocConfig::waw_wap());
        assert_eq!(primary(&flows, &config).name(), "weighted-bp");
    }

    #[test]
    fn unknown_flow_yields_none() {
        let (flows, config) = setup(3, NocConfig::regular(2));
        let mut oracle = primary(&flows, &config);
        assert!(oracle.packet_bound(FlowId(flows.len()), 1).is_none());
        assert!(oracle.message_bound(FlowId(flows.len()), 1).is_none());
    }

    #[test]
    fn slot_envelope_below_primary_for_every_flow() {
        for (config, mf) in [
            (NocConfig::regular(1), 1),
            (NocConfig::regular(4), 4),
            (NocConfig::regular(4), 10),
            (NocConfig::waw_wap(), 1),
            (NocConfig::waw_wap(), 4),
        ] {
            let (flows, config) = setup(5, config);
            let mut primary = primary(&flows, &config);
            let mut slot = SlotOracle::new(&flows, &config);
            for (id, _) in flows.iter() {
                let p = primary.message_bound(id, mf).unwrap();
                let s = slot.message_bound(id, mf).unwrap();
                assert!(
                    s <= p,
                    "slot {s} above {} {p} for {id} under {} (mf={mf})",
                    primary.name(),
                    config.label()
                );
            }
        }
    }

    #[test]
    fn ubd_between_packet_bound_and_naive_sum() {
        for (config, mf) in [
            (NocConfig::regular(4), 10),
            (NocConfig::regular(2), 7),
            (NocConfig::waw_wap(), 4),
        ] {
            let (flows, config) = setup(4, config);
            // The UBD composition inherits the *paper* flavour under WaW, so
            // compare it against the matching reference model.
            let mut reference: Box<dyn WcttBoundModel> = match config.arbitration {
                ArbitrationPolicy::RoundRobin => primary(&flows, &config),
                ArbitrationPolicy::Waw => Box::new(WeightedOracle::new(&flows, &config)),
            };
            let mut ubd = UbdOracle::new(&flows, &config).unwrap();
            let l = config.packetization.worst_case_contender_flits();
            for (id, _) in flows.iter() {
                let u = ubd.message_bound(id, mf).unwrap();
                let per_packet = reference.packet_bound(id, l).unwrap();
                let packets = u64::from(mf.div_ceil(l).max(1)) + 1; // +1 covers WaP control slice
                assert!(u >= reference.packet_bound(id, 1).unwrap());
                assert!(
                    u <= packets * per_packet,
                    "ubd {u} above naive {packets}x{per_packet} for {id}"
                );
            }
        }
    }

    #[test]
    fn regular_oracle_splits_messages_like_the_ubd_model() {
        let (flows, config) = setup(3, NocConfig::regular(4));
        let mut regular = RegularOracle::new(&flows, 4);
        let mut ubd = UbdOracle::new(&flows, &config).unwrap();
        for (id, _) in flows.iter() {
            for mf in [1u32, 4, 9] {
                assert_eq!(
                    regular.message_bound(id, mf),
                    ubd.message_bound(id, mf),
                    "regular and UBD disagree for {id} mf={mf}"
                );
            }
        }
    }

    #[test]
    fn weighted_slices_match_packetizer() {
        let (flows, config) = setup(3, NocConfig::waw_wap());
        // A 4-flit cache line becomes 5 single-flit slices (Section III).
        assert_eq!(slices(&config, 4), 5);
        assert_eq!(slices(&config, 1), 1);
        let mut paper = WeightedOracle::new(&flows, &config);
        let weighted = WeightedWcttModel::new(
            WeightTable::from_flow_set(&flows),
            config.packetization.worst_case_contender_flits(),
        );
        let route = flows.route(FlowId(0)).unwrap();
        assert_eq!(
            paper.message_bound(FlowId(0), 4),
            Some(weighted.message_wctt(route, 5))
        );
    }

    #[test]
    fn buffered_suite_with_default_buffers_keeps_the_classic_shape() {
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();

        let config = NocConfig::regular(4);
        let suite = oracle_suite_with_vcs(
            &flows,
            &config,
            mesh,
            &BufferConfig::uniform(4),
            VcConfig::single(),
        )
        .unwrap();
        let names: Vec<&str> = suite.iter().map(|o| o.name()).collect();
        assert_eq!(names, ["regular", "ubd", "preemptive", "slot"]);
        let flags: Vec<bool> = suite.iter().map(|o| o.dominates_observation()).collect();
        assert_eq!(flags, [true, true, true, false]);

        let config = NocConfig::waw_wap();
        let suite = oracle_suite_with_vcs(
            &flows,
            &config,
            mesh,
            &BufferConfig::uniform(4),
            VcConfig::single(),
        )
        .unwrap();
        let names: Vec<&str> = suite.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            ["weighted-bp", "weighted", "buffer-aware", "ubd", "slot"]
        );
        let flags: Vec<bool> = suite.iter().map(|o| o.dominates_observation()).collect();
        assert_eq!(flags, [true, false, true, false, false]);
    }

    #[test]
    fn shallow_buffers_demote_depth_unaware_oracles() {
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();

        let config = NocConfig::waw_wap();
        let suite = oracle_suite_with_vcs(
            &flows,
            &config,
            mesh,
            &BufferConfig::uniform(1),
            VcConfig::single(),
        )
        .unwrap();
        let names: Vec<&str> = suite.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            ["buffer-aware", "weighted-bp", "weighted", "ubd", "slot"]
        );
        let flags: Vec<bool> = suite.iter().map(|o| o.dominates_observation()).collect();
        assert_eq!(flags, [true, false, false, false, false]);

        let config = NocConfig::regular(4);
        let suite = oracle_suite_with_vcs(
            &flows,
            &config,
            mesh,
            &BufferConfig::uniform(1),
            VcConfig::single(),
        )
        .unwrap();
        let flags: Vec<bool> = suite.iter().map(|o| o.dominates_observation()).collect();
        assert_eq!(flags, [false, false, true, false]);

        // Round-robin chained blocking is tied to its validation depth in
        // *both* directions: deep FIFOs accumulate cross-traffic trains the
        // recursion does not count, so deeper-than-default also demotes the
        // classic analyses — the depth-enveloped preemptive repair carries
        // dominance instead.
        let suite = oracle_suite_with_vcs(
            &flows,
            &config,
            mesh,
            &BufferConfig::uniform(64),
            VcConfig::single(),
        )
        .unwrap();
        let names: Vec<&str> = suite.iter().map(|o| o.name()).collect();
        assert_eq!(names, ["regular", "ubd", "preemptive", "slot"]);
        let flags: Vec<bool> = suite.iter().map(|o| o.dominates_observation()).collect();
        assert_eq!(flags, [false, false, true, false]);
    }

    #[test]
    fn multi_vc_platforms_demote_every_single_vc_analysis() {
        use crate::vc::VcAssignment;
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let vcs = VcConfig::new(2, VcAssignment::FlowIndex).unwrap();

        // Round robin: only the preemptive oracle models cross-VC priority.
        let config = NocConfig::regular(4);
        let suite =
            oracle_suite_with_vcs(&flows, &config, mesh, &BufferConfig::uniform(4), vcs).unwrap();
        let names: Vec<&str> = suite.iter().map(|o| o.name()).collect();
        assert_eq!(names, ["regular", "ubd", "preemptive", "slot"]);
        let flags: Vec<bool> = suite.iter().map(|o| o.dominates_observation()).collect();
        assert_eq!(flags, [false, false, true, false]);

        // WaW: the weighted analyses model the single-VC router only, so no
        // analysis claims observation safety on a multi-VC WaW platform.
        let config = NocConfig::waw_wap();
        let suite =
            oracle_suite_with_vcs(&flows, &config, mesh, &BufferConfig::uniform(4), vcs).unwrap();
        assert!(suite.iter().all(|o| !o.dominates_observation()));
    }

    #[test]
    fn message_dominance_is_per_packet_only_for_the_classic_rr_analyses() {
        let (flows, config) = setup(4, NocConfig::regular(4));
        for oracle in &default_suite(&flows, &config) {
            let multi_packet = oracle.dominates_message(5);
            match oracle.name() {
                // The Σ per-packet composition is campaign-proven unsound
                // for multi-packet messages.
                "regular" | "ubd" => {
                    assert!(oracle.dominates_message(4));
                    assert!(!multi_packet);
                }
                _ => assert!(multi_packet),
            }
        }
        // WaW keeps the historical claims (single-slice probes only).
        let (flows, config) = setup(4, NocConfig::waw_wap());
        for oracle in default_suite(&flows, &config) {
            assert!(oracle.dominates_message(5), "{}", oracle.name());
        }
    }

    #[test]
    fn preemptive_dominates_the_regular_composition() {
        let (flows, config) = setup(5, NocConfig::regular(8));
        let mut regular = RegularOracle::new(&flows, 8);
        let mut preemptive = PreemptiveOracle::new(
            &flows,
            &config,
            &BufferConfig::uniform(config.input_buffer_flits),
            VcConfig::single(),
        );
        for (id, _) in flows.iter() {
            for mf in [1u32, 8, 9, 16] {
                let r = regular.message_bound(id, mf).unwrap();
                let p = preemptive.message_bound(id, mf).unwrap();
                assert!(p >= r, "{id} mf={mf}: preemptive {p} below regular {r}");
            }
        }
    }

    #[test]
    fn deep_buffers_keep_depth_unaware_dominance_and_promote_buffer_aware() {
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let config = NocConfig::waw_wap();
        let deep = BufferConfig::uniform(BufferConfig::INFINITE_EQUIVALENT);
        let mut suite =
            oracle_suite_with_vcs(&flows, &config, mesh, &deep, VcConfig::single()).unwrap();
        assert_eq!(suite[0].name(), "buffer-aware");
        assert!(suite[0].dominates_observation());
        assert_eq!(suite[1].name(), "weighted-bp");
        assert!(suite[1].dominates_observation());
        // At depth 64 the buffer-aware bound sits at or below weighted-bp.
        for (id, _) in flows.iter() {
            let ba = suite[0].message_bound(id, 1).unwrap();
            let bp = suite[1].message_bound(id, 1).unwrap();
            assert!(ba <= bp, "{id}: buffer-aware {ba} above weighted-bp {bp}");
        }
    }

    #[test]
    fn analytic_only_wrapper_preserves_bounds_and_name() {
        let mesh = Mesh::square(3).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let mut plain = RegularOracle::new(&flows, 4);
        let mut wrapped = AnalyticOnly(RegularOracle::new(&flows, 4));
        assert_eq!(wrapped.name(), "regular");
        assert!(!wrapped.dominates_observation());
        for (id, _) in flows.iter() {
            assert_eq!(wrapped.packet_bound(id, 4), plain.packet_bound(id, 4));
            assert_eq!(wrapped.message_bound(id, 9), plain.message_bound(id, 9));
        }
    }

    #[test]
    fn buffer_aware_oracle_coincides_with_backpressured_at_calibration_depth() {
        let mesh = Mesh::square(5).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let config = NocConfig::waw_wap();
        let mut ba = BufferAwareOracle::new(
            &flows,
            &config,
            mesh,
            BufferConfig::uniform(crate::analysis::BufferAwareWcttModel::CALIBRATION_DEPTH),
        );
        let mut bp = WeightedOracle::with_flavor(&flows, &config, WeightedFlavor::Backpressured);
        for (id, _) in flows.iter() {
            for mf in [1u32, 4] {
                assert_eq!(ba.message_bound(id, mf), bp.message_bound(id, mf));
                assert_eq!(ba.packet_bound(id, 1), bp.packet_bound(id, 1));
            }
        }
    }

    #[test]
    fn bursty_suite_covers_all_six_analyses_with_graph_ba_dominating() {
        let mesh = Mesh::square(4).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let config = NocConfig::waw_wap();
        let curve = ArrivalCurve::bursty(4, 2_000);
        let suite = oracle_suite_with_curve(
            &flows,
            &config,
            mesh,
            &BufferConfig::uniform(4),
            VcConfig::single(),
            WeightTable::from_flow_set(&flows),
            curve,
        )
        .unwrap();
        let names: Vec<&str> = suite.iter().map(|o| o.name()).collect();
        assert_eq!(
            names,
            [
                "graph-ba",
                "buffer-aware",
                "weighted-bp",
                "weighted",
                "ubd",
                "slot"
            ]
        );
        let flags: Vec<bool> = suite.iter().map(|o| o.dominates_observation()).collect();
        assert_eq!(flags, [true, false, false, false, false, false]);

        // Round robin has no bursty dominance oracle.
        assert!(oracle_suite_with_curve(
            &flows,
            &NocConfig::regular(4),
            mesh,
            &BufferConfig::uniform(4),
            VcConfig::single(),
            WeightTable::from_flow_set(&flows),
            curve,
        )
        .is_err());
    }

    #[test]
    fn graph_ba_oracle_collapses_to_buffer_aware_without_a_burst() {
        let mesh = Mesh::square(5).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        let config = NocConfig::waw_wap();
        for depth in [1u32, 4, 16] {
            let buffers = BufferConfig::uniform(depth);
            let mut graph = GraphBufferAwareOracle::new(
                &flows,
                &config,
                mesh,
                buffers.clone(),
                ArrivalCurve::periodic(1_000),
            );
            let mut bursty = GraphBufferAwareOracle::new(
                &flows,
                &config,
                mesh,
                buffers.clone(),
                ArrivalCurve::bursty(6, 1_000),
            );
            let mut ba = BufferAwareOracle::new(&flows, &config, mesh, buffers);
            for (id, _) in flows.iter() {
                for mf in [1u32, 4, 9] {
                    assert_eq!(graph.message_bound(id, mf), ba.message_bound(id, mf));
                    assert!(bursty.message_bound(id, mf) >= ba.message_bound(id, mf));
                }
                assert_eq!(graph.packet_bound(id, 1), ba.packet_bound(id, 1));
            }
        }
    }

    #[test]
    fn message_bounds_are_monotone_in_message_size() {
        for config in [NocConfig::regular(4), NocConfig::waw_wap()] {
            let (flows, config) = setup(4, config);
            for oracle in default_suite(&flows, &config).iter_mut() {
                let id = FlowId(0);
                let mut last = 0;
                for mf in [1u32, 2, 4, 8, 16] {
                    let b = oracle.message_bound(id, mf).unwrap();
                    assert!(
                        b >= last,
                        "{} bound not monotone at mf={mf}: {b} < {last}",
                        oracle.name()
                    );
                    last = b;
                }
            }
        }
    }
}
