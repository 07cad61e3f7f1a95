//! Mutation-driven incremental WCTT analysis: the term cache behind the
//! design-space-exploration driver (`expt-dse`).
//!
//! The analytic stack recomputes every bound from scratch per scenario, but a
//! DSE loop mutates one design knob at a time — move one flow's endpoints,
//! change one buffer depth, reassign VCs — and re-reads the bounds of every
//! flow.  [`IncrementalAnalysis`] keeps one model instance per analysis alive
//! across mutations and caches, per flow, the expensive route-dependent terms
//! each analysis needs (`FlowTerms`); every exported bound is then composed
//! from the cached terms with the *same arithmetic* (same operations, same
//! order, same saturation) the from-scratch oracles use, which is what makes
//! the bounds bit-identical — the differential proptest
//! (`incremental_equivalence`) pins this for arbitrary mutation sequences.
//!
//! # Invalidation
//!
//! Terms are keyed by flow and carry two read sets, maintained as reverse
//! indexes:
//!
//! * **contention keys** — the `(router, output)` column of every hop of the
//!   flow's route.  Every read any analysis performs against the flow counts
//!   happens inside these columns, so a flow's terms survive a mutation whose
//!   change events miss its key set;
//! * **depth keys** — the `(node, input port)` buffer each hop drains into
//!   (buffer-aware analysis only), so a single-depth mutation invalidates
//!   only the flows whose routes actually cross that buffer.
//!
//! Change events come from the models themselves: under round robin,
//! [`RegularWcttModel::apply_route_delta`] reports the columns whose pair
//! *support* flipped plus the memoised drain terms it dropped (the regular
//! recursion reads counts only through presence tests, so magnitude-only
//! changes invalidate nothing); under WaW,
//! [`crate::weights::WeightTable::apply_route_delta`] reports every output
//! port whose flow count changed (the weighted bounds read magnitudes).
//! Global knobs stay out of the per-flow cache entirely: the preemptive depth
//! envelope factor is recomputed per depth mutation and applied at query
//! time, and a VC reassignment under multiple VCs rebuilds the preemptive
//! interference state wholesale (its interference sets can all change).

use std::collections::{HashMap, HashSet};

use crate::analysis::oracle::{slices, WcttBoundModel};
use crate::analysis::preemptive::{PreemptiveOracle, SATURATION_SENTINEL};
use crate::analysis::regular::RegularWcttModel;
use crate::analysis::slot;
use crate::analysis::weighted::WeightedWcttModel;
use crate::analysis::{BufferAwareWcttModel, GraphBufferAwareWcttModel};
use crate::arbitration::ArbitrationPolicy;
use crate::arrival::ArrivalCurve;
use crate::buffers::BufferConfig;
use crate::config::NocConfig;
use crate::error::{Error, Result};
use crate::fault::{reroute_flows, FaultKind, FaultSet, TreeRouting};
use crate::flow::{FlowId, FlowSet};
use crate::geometry::{Coord, NodeId};
use crate::packetization::PacketizationPolicy;
use crate::port::Port;
use crate::routing::Hop;
use crate::topology::Mesh;
use crate::vc::VcConfig;
use crate::weights::WeightTable;

/// One of the analyses the engine serves, named after the corresponding
/// conformance oracle ([`WcttBoundModel::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Analysis {
    /// Chained-blocking bound of the regular round-robin mesh (`"regular"`).
    Regular,
    /// Upper-bound-delay composition through the active packetization
    /// (`"ubd"`).
    Ubd,
    /// Priority-preemptive repair with the depth envelope (`"preemptive"`).
    Preemptive,
    /// Single-port bottleneck envelope (`"slot"`).
    Slot,
    /// Paper-flavour weighted bound (`"weighted"`).
    Weighted,
    /// Backpressure-aware weighted bound (`"weighted-bp"`).
    WeightedBp,
    /// Buffer-aware weighted bound (`"buffer-aware"`).
    BufferAware,
    /// Graph-based buffer-aware bound under the engine's arrival curve
    /// (`"graph-ba"`).
    GraphBufferAware,
}

impl Analysis {
    /// The conformance-oracle name of the analysis.
    pub fn name(&self) -> &'static str {
        match self {
            Analysis::Regular => "regular",
            Analysis::Ubd => "ubd",
            Analysis::Preemptive => "preemptive",
            Analysis::Slot => "slot",
            Analysis::Weighted => "weighted",
            Analysis::WeightedBp => "weighted-bp",
            Analysis::BufferAware => "buffer-aware",
            Analysis::GraphBufferAware => "graph-ba",
        }
    }

    /// The analysis matching a conformance-oracle name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "regular" => Analysis::Regular,
            "ubd" => Analysis::Ubd,
            "preemptive" => Analysis::Preemptive,
            "slot" => Analysis::Slot,
            "weighted" => Analysis::Weighted,
            "weighted-bp" => Analysis::WeightedBp,
            "buffer-aware" => Analysis::BufferAware,
            "graph-ba" => Analysis::GraphBufferAware,
            _ => return None,
        })
    }
}

/// A single design mutation the engine applies incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Re-targets flow `id` to the `(src, dst)` endpoints (a placement swap
    /// is two of these).
    MoveFlow {
        /// The flow to re-target.
        id: FlowId,
        /// New source node.
        src: NodeId,
        /// New destination node.
        dst: NodeId,
    },
    /// Appends a new flow (takes the next dense [`FlowId`]).
    AddFlow {
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
    },
    /// Removes the most recently added flow.
    RemoveLastFlow,
    /// Sets the input-buffer depth of one `(node, port)` to `depth` flits.
    SetBufferDepth {
        /// The router whose input buffer changes.
        node: NodeId,
        /// The input port whose buffer changes.
        port: Port,
        /// New depth in flits (≥ 1).
        depth: u32,
    },
    /// Replaces the platform's VC configuration.
    SetVcs(VcConfig),
    /// Replaces the arrival contract the graph-based bursty analysis covers
    /// (a global knob, like the preemptive depth envelope: no per-flow terms
    /// are invalidated because the burst term composes at query time).
    SetArrivalCurve(ArrivalCurve),
    /// Permanently fails the directed link leaving `from` towards
    /// `direction`.  The engine reroutes every surviving flow over the
    /// degraded spanning forest ([`crate::fault::TreeRouting`]), drops
    /// severed pairs, and rebuilds every model from scratch on the rerouted
    /// flow set: a fault changes *every* route, so there are no unchanged
    /// terms to salvage, and a full rebuild is what makes the degraded
    /// bounds trivially bit-identical to freshly built degraded oracles.
    FailLink {
        /// Upstream router of the failed directed link.
        from: Coord,
        /// Direction the failed link points in.
        direction: crate::port::Direction,
    },
    /// Permanently fails the whole router at `at`; rerouting semantics as
    /// for [`Mutation::FailLink`].
    FailRouter {
        /// Coordinate of the failed router.
        at: Coord,
    },
}

/// The cached route-dependent terms of one flow.  Composing bounds from
/// these reproduces every oracle's arithmetic exactly; see the queries in
/// [`IncrementalAnalysis`] for the per-analysis composition.
#[derive(Debug, Clone, Copy, Default)]
struct FlowTerms {
    /// `RegularWcttModel::route_wctt(route, 1)` — the own-size-independent
    /// prefix of the chained-blocking bound (round robin only).
    regular_base: u64,
    /// `WeightedWcttModel::packet_wctt(route)` (WaW only).
    paper_packet: u64,
    /// `WeightedWcttModel::backpressured_packet_wctt(route)` (WaW only).
    bp_packet: u64,
    /// `BufferAwareWcttModel::packet_wctt(route)` (WaW only).
    ba_packet: u64,
    /// `WeightedWcttModel::bottleneck_flows(route)` (WaW only).
    bottleneck: u32,
    /// Maximum per-hop contender count of the slot envelope (the envelope is
    /// monotone in the contender count at fixed sizes, so the per-route
    /// maximum is the only hop that matters).
    slot_contenders: u32,
}

/// The `(node, input port)` buffer a hop's output drains into — the exact
/// depth [`BufferConfig::hop_depth`] reads for that hop.
fn hop_depth_key(mesh: &Mesh, hop: &Hop) -> Option<(NodeId, Port)> {
    match hop.output {
        Port::Mesh(dir) => {
            let downstream = mesh.neighbor(hop.router, dir)?;
            let node = mesh.node_id(downstream).ok()?;
            Some((node, Port::Mesh(dir.opposite())))
        }
        Port::Local => {
            let node = mesh.node_id(hop.router).ok()?;
            Some((node, hop.input))
        }
    }
}

/// Incremental engine over every analysis applicable to one arbitration
/// policy.  Build it once for a seed design, [`IncrementalAnalysis::apply`]
/// mutations, and query bounds that are bit-identical to freshly-constructed
/// oracles over the mutated design.
///
/// # Examples
///
/// ```
/// use wnoc_core::analysis::incremental::{Analysis, IncrementalAnalysis, Mutation};
/// use wnoc_core::flow::FlowSet;
/// use wnoc_core::geometry::{Coord, NodeId};
/// use wnoc_core::{BufferConfig, FlowId, Mesh, NocConfig, VcConfig};
///
/// let mesh = Mesh::square(4)?;
/// let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0))?;
/// let config = NocConfig::regular(4);
/// let buffers = BufferConfig::uniform(config.input_buffer_flits);
/// let mut engine =
///     IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single())?;
/// let before = engine.message_bound(Analysis::Preemptive, FlowId(0), 4).unwrap();
/// // Move flow 0 to new endpoints: only terms sharing ports with its old or
/// // new route are recomputed.
/// engine.apply(&Mutation::MoveFlow { id: FlowId(0), src: NodeId(5), dst: NodeId(0) })?;
/// let after = engine.message_bound(Analysis::Preemptive, FlowId(0), 4).unwrap();
/// assert_ne!(before, after);
/// # Ok::<(), wnoc_core::Error>(())
/// ```
#[derive(Debug)]
pub struct IncrementalAnalysis {
    mesh: Mesh,
    config: NocConfig,
    flows: FlowSet,
    buffers: BufferConfig,
    vcs: VcConfig,
    /// Round robin: the dependency-tracked chained-blocking model, shared by
    /// the regular, UBD and preemptive compositions (their from-scratch
    /// counterparts all build this exact model).
    regular: Option<RegularWcttModel>,
    /// WaW: the weighted model over the delta-maintained weight table.
    weighted: Option<WeightedWcttModel>,
    /// WaW: the buffer-aware model over its own delta-maintained table.
    buffer_aware: Option<BufferAwareWcttModel>,
    /// WaW: the graph-based bursty extension over its own delta-maintained
    /// base model.  Its bounds are composed at query time (the burst term
    /// depends on the queried message size), so the arrival-curve knob never
    /// touches the per-flow term cache.
    graph: Option<GraphBufferAwareWcttModel>,
    /// The preemptive depth envelope factor of the current buffer plan,
    /// recomputed per depth mutation and applied at query time.
    depth_factor: u64,
    /// Multi-VC preemptive state (priorities, interference sets, response
    /// iterations), rebuilt wholesale when flows or VCs change: a VC
    /// reassignment can change every interference set.  `None`/unused while
    /// the platform runs a single VC, where preemption delay is zero by
    /// construction and the preemptive bound composes from `regular`.
    preemptive: Option<PreemptiveOracle>,
    preemptive_dirty: bool,
    /// Accumulated permanent failures.  While non-empty, the engine's flow
    /// set is the tree-rerouted degraded set and flow-shape mutations (which
    /// route with XY) are rejected.
    faults: FaultSet,
    cache: Vec<Option<FlowTerms>>,
    /// Per-flow contention read set: the dense column index (`node · 5 +
    /// output`) of every hop of the flow's route.
    flow_keys: Vec<Vec<u32>>,
    /// Reverse index of `flow_keys`: column index → flows whose terms read
    /// that column.  Dense by column so mutation-time invalidation never
    /// hashes.
    port_readers: Vec<Vec<u32>>,
    /// Per-flow buffer read set (WaW / buffer-aware only).
    depth_keys: Vec<Vec<(NodeId, Port)>>,
    /// Reverse index of `depth_keys`.
    depth_readers: HashMap<(NodeId, Port), HashSet<usize>>,
}

impl IncrementalAnalysis {
    /// Builds the engine for a seed design.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or `buffers` does
    /// not cover the mesh.
    pub fn new(
        flows: &FlowSet,
        config: &NocConfig,
        buffers: &BufferConfig,
        vcs: VcConfig,
    ) -> Result<Self> {
        config.validate()?;
        let mesh = *flows.mesh();
        buffers.validate(&mesh)?;
        let (regular, weighted, buffer_aware, graph) = match config.arbitration {
            ArbitrationPolicy::RoundRobin => (
                Some(RegularWcttModel::new(
                    flows,
                    config.timing,
                    config.packetization.worst_case_contender_flits(),
                )),
                None,
                None,
                None,
            ),
            ArbitrationPolicy::Waw => {
                let slice = config.packetization.worst_case_contender_flits();
                let table = WeightTable::from_flow_set(flows);
                let base = BufferAwareWcttModel::new(
                    table.clone(),
                    config.timing,
                    slice,
                    mesh,
                    buffers.clone(),
                );
                (
                    None,
                    Some(WeightedWcttModel::new(table, config.timing, slice)),
                    Some(base.clone()),
                    // Seeded with the burst-free contract, under which the
                    // graph-based bound collapses to the buffer-aware one;
                    // `Mutation::SetArrivalCurve` swaps the contract in place.
                    Some(GraphBufferAwareWcttModel::new(
                        base,
                        ArrivalCurve::periodic(1),
                    )),
                )
            }
        };
        let n = flows.len();
        let columns = mesh.router_count() * Port::COUNT;
        let mut engine = Self {
            mesh,
            config: *config,
            flows: flows.clone(),
            buffers: buffers.clone(),
            vcs,
            regular,
            weighted,
            buffer_aware,
            graph,
            depth_factor: PreemptiveOracle::depth_envelope_factor(config, buffers),
            preemptive: None,
            preemptive_dirty: true,
            faults: FaultSet::empty(&mesh),
            cache: vec![None; n],
            flow_keys: vec![Vec::new(); n],
            port_readers: vec![Vec::new(); columns],
            depth_keys: vec![Vec::new(); n],
            depth_readers: HashMap::new(),
        };
        for index in 0..n {
            engine.index_flow(index);
        }
        Ok(engine)
    }

    /// The engine's current (incrementally-maintained) flow set.
    pub fn flows(&self) -> &FlowSet {
        &self.flows
    }

    /// The engine's current buffer configuration.
    pub fn buffers(&self) -> &BufferConfig {
        &self.buffers
    }

    /// The engine's current VC configuration.
    pub fn vcs(&self) -> VcConfig {
        self.vcs
    }

    /// The platform configuration the engine was built for.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The arrival contract the graph-based bursty analysis currently covers
    /// (`None` under round robin, where the analysis is inapplicable).
    pub fn arrival_curve(&self) -> Option<ArrivalCurve> {
        self.graph.as_ref().map(GraphBufferAwareWcttModel::curve)
    }

    /// Applies one design mutation, updating the contention structures by
    /// delta and invalidating exactly the cached terms whose read sets the
    /// change events touch.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid endpoints, an out-of-range flow, an empty
    /// flow set (`RemoveLastFlow`), or an invalid depth.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<()> {
        if !self.faults.is_empty() {
            if let Mutation::MoveFlow { .. } | Mutation::AddFlow { .. } = mutation {
                return Err(Error::InvalidConfig {
                    reason: "flow-shape mutations route with XY and cannot follow a fault \
                             mutation; apply faults last or rebuild the engine"
                        .to_string(),
                });
            }
        }
        match *mutation {
            Mutation::MoveFlow { id, src, dst } => {
                let old_route = self.flows.replace_pair(id, src, dst)?;
                self.unindex_flow(id.0);
                self.apply_route_events(&old_route, false);
                let new_route = self.flows.route(id).expect("just replaced").clone();
                self.apply_route_events(&new_route, true);
                self.index_flow(id.0);
                self.cache[id.0] = None;
                self.preemptive_dirty = true;
            }
            Mutation::AddFlow { src, dst } => {
                let id = self.flows.push_pair(src, dst)?;
                self.cache.push(None);
                self.flow_keys.push(Vec::new());
                self.depth_keys.push(Vec::new());
                let route = self.flows.route(id).expect("just pushed").clone();
                self.apply_route_events(&route, true);
                self.index_flow(id.0);
                self.preemptive_dirty = true;
            }
            Mutation::RemoveLastFlow => {
                let index = self
                    .flows
                    .len()
                    .checked_sub(1)
                    .ok_or(Error::InvalidConfig {
                        reason: "cannot remove a flow from an empty set".to_string(),
                    })?;
                self.unindex_flow(index);
                let (_flow, route) = self.flows.pop().expect("checked non-empty");
                self.cache.pop();
                self.flow_keys.pop();
                self.depth_keys.pop();
                self.apply_route_events(&route, false);
                self.preemptive_dirty = true;
            }
            Mutation::SetBufferDepth { node, port, depth } => {
                let buffers = self
                    .buffers
                    .with_buffer_depth(&self.mesh, node, port, depth);
                buffers.validate(&self.mesh)?;
                self.buffers = buffers;
                if let Some(model) = &mut self.buffer_aware {
                    model.set_buffers(self.buffers.clone());
                }
                if let Some(model) = &mut self.graph {
                    model.base_mut().set_buffers(self.buffers.clone());
                }
                self.depth_factor =
                    PreemptiveOracle::depth_envelope_factor(&self.config, &self.buffers);
                if let Some(readers) = self.depth_readers.get(&(node, port)) {
                    for &index in readers {
                        self.cache[index] = None;
                    }
                }
                self.preemptive_dirty = true;
            }
            Mutation::SetVcs(vcs) => {
                self.vcs = vcs;
                self.preemptive_dirty = true;
            }
            Mutation::SetArrivalCurve(curve) => {
                // Applied at query time like the depth envelope factor: the
                // graph-based bounds never enter the per-flow term cache, so
                // nothing is invalidated.
                if let Some(model) = &mut self.graph {
                    model.set_curve(curve);
                }
            }
            Mutation::FailLink { from, direction } => {
                self.mesh.check(from)?;
                if self.mesh.neighbor(from, direction).is_none() {
                    return Err(Error::InvalidConfig {
                        reason: format!("no link {from}->{direction} in {} mesh", self.mesh.dims()),
                    });
                }
                self.faults.add(FaultKind::Link { from, direction });
                self.rebuild_degraded()?;
            }
            Mutation::FailRouter { at } => {
                self.mesh.check(at)?;
                self.faults.add(FaultKind::Router { at });
                self.rebuild_degraded()?;
            }
        }
        Ok(())
    }

    /// The accumulated permanent-failure state.
    pub fn fault_set(&self) -> &FaultSet {
        &self.faults
    }

    /// Reroutes the current pairs over the degraded spanning forest, drops
    /// severed pairs, and rebuilds every model from scratch on the rerouted
    /// flow set.  Deliberately non-incremental: rerouting changes every
    /// route, so a rebuild invalidates nothing that could have survived and
    /// is bit-identical to fresh degraded oracles by construction.
    fn rebuild_degraded(&mut self) -> Result<()> {
        let tree = TreeRouting::new(&self.faults);
        let reroute = reroute_flows(&self.flows, &tree)?;
        let curve = self.arrival_curve();
        let mut rebuilt =
            IncrementalAnalysis::new(&reroute.flows, &self.config, &self.buffers, self.vcs)?;
        if let Some(curve) = curve {
            rebuilt.apply(&Mutation::SetArrivalCurve(curve))?;
        }
        std::mem::swap(&mut rebuilt.faults, &mut self.faults);
        *self = rebuilt;
        Ok(())
    }

    /// Bound for a single wire packet of `own_flits` flits on flow `id` under
    /// `analysis` — bit-identical to the corresponding oracle's
    /// [`WcttBoundModel::packet_bound`] over the current design.  `None` for
    /// unknown flows or analyses inapplicable to the arbitration policy.
    pub fn packet_bound(&mut self, analysis: Analysis, id: FlowId, own_flits: u32) -> Option<u64> {
        if id.0 >= self.flows.len() {
            return None;
        }
        match analysis {
            Analysis::Regular => {
                self.regular.as_ref()?;
                let terms = self.ensure_terms(id.0)?;
                Some(regular_packet(terms.regular_base, own_flits))
            }
            Analysis::Ubd => {
                // The UBD oracle answers packet queries through its message
                // composition (a single wire packet is a one-packet message).
                self.message_bound(Analysis::Ubd, id, own_flits)
            }
            Analysis::Preemptive => {
                self.regular.as_ref()?;
                if self.vcs.is_single() {
                    let factor = self.depth_factor;
                    let terms = self.ensure_terms(id.0)?;
                    Some(preemptive_packet(terms.regular_base, factor, own_flits))
                } else {
                    self.ensure_preemptive().packet_bound(id, own_flits)
                }
            }
            Analysis::Slot => {
                let own = match self.config.packetization {
                    PacketizationPolicy::Regular { .. } => own_flits,
                    PacketizationPolicy::Wap { min_packet_flits } => min_packet_flits,
                };
                let contender_flits = self.config.packetization.worst_case_contender_flits();
                let terms = self.ensure_terms(id.0)?;
                Some(slot_envelope(terms.slot_contenders, contender_flits, own))
            }
            Analysis::Weighted => {
                self.weighted.as_ref()?;
                let terms = self.ensure_terms(id.0)?;
                Some(terms.paper_packet)
            }
            Analysis::WeightedBp => {
                self.weighted.as_ref()?;
                let terms = self.ensure_terms(id.0)?;
                Some(terms.bp_packet)
            }
            Analysis::BufferAware => {
                self.buffer_aware.as_ref()?;
                let terms = self.ensure_terms(id.0)?;
                Some(terms.ba_packet)
            }
            Analysis::GraphBufferAware => {
                let model = self.graph.as_ref()?;
                let route = self.flows.route(id)?;
                Some(model.packet_wctt(route))
            }
        }
    }

    /// Bound for one whole `message_flits`-flit message on flow `id` under
    /// `analysis` — bit-identical to the corresponding oracle's
    /// [`WcttBoundModel::message_bound`] over the current design.
    pub fn message_bound(
        &mut self,
        analysis: Analysis,
        id: FlowId,
        message_flits: u32,
    ) -> Option<u64> {
        if id.0 >= self.flows.len() {
            return None;
        }
        let geometry = self.config.geometry;
        match analysis {
            Analysis::Regular => {
                self.regular.as_ref()?;
                // RegularOracle splits through a Regular policy at its own
                // (≥ 1) maximum packet size regardless of the platform's
                // packetization.
                let max_packet_flits = self
                    .config
                    .packetization
                    .worst_case_contender_flits()
                    .max(1);
                let packets = PacketizationPolicy::Regular { max_packet_flits }
                    .split_message(message_flits, geometry);
                let terms = self.ensure_terms(id.0)?;
                Some(
                    packets
                        .iter()
                        .map(|&s| regular_packet(terms.regular_base, s))
                        .fold(0u64, u64::saturating_add),
                )
            }
            Analysis::Ubd => {
                let packets = self
                    .config
                    .packetization
                    .split_message(message_flits, geometry);
                match self.config.arbitration {
                    ArbitrationPolicy::RoundRobin => {
                        self.regular.as_ref()?;
                        let terms = self.ensure_terms(id.0)?;
                        Some(
                            packets
                                .iter()
                                .map(|&s| regular_packet(terms.regular_base, s))
                                .fold(0u64, u64::saturating_add),
                        )
                    }
                    ArbitrationPolicy::Waw => {
                        let slice = self.slice_flits();
                        let terms = self.ensure_terms(id.0)?;
                        Some(weighted_message(
                            terms.paper_packet,
                            terms.bottleneck,
                            slice,
                            packets.len() as u32,
                        ))
                    }
                }
            }
            Analysis::Preemptive => {
                self.regular.as_ref()?;
                if self.vcs.is_single() {
                    let max_packet_flits = self
                        .config
                        .packetization
                        .worst_case_contender_flits()
                        .max(1);
                    let packets = PacketizationPolicy::Regular { max_packet_flits }
                        .split_message(message_flits, geometry);
                    let factor = self.depth_factor;
                    let terms = self.ensure_terms(id.0)?;
                    let mut total = 0u64;
                    for &size in &packets {
                        total = total.saturating_add(preemptive_packet(
                            terms.regular_base,
                            factor,
                            size,
                        ));
                    }
                    if packets.len() > 1 {
                        let round = preemptive_packet(terms.regular_base, factor, max_packet_flits);
                        total =
                            total.saturating_add((packets.len() as u64 - 1).saturating_mul(round));
                    }
                    Some(total.min(SATURATION_SENTINEL))
                } else {
                    self.ensure_preemptive().message_bound(id, message_flits)
                }
            }
            Analysis::Slot => {
                let wire: u32 = self
                    .config
                    .packetization
                    .split_message(message_flits, geometry)
                    .iter()
                    .sum();
                let contender_flits = self.config.packetization.worst_case_contender_flits();
                let terms = self.ensure_terms(id.0)?;
                Some(slot_envelope(terms.slot_contenders, contender_flits, wire))
            }
            Analysis::Weighted => {
                self.weighted.as_ref()?;
                let slices = slices(&self.config, message_flits);
                let slice = self.slice_flits();
                let terms = self.ensure_terms(id.0)?;
                Some(weighted_message(
                    terms.paper_packet,
                    terms.bottleneck,
                    slice,
                    slices,
                ))
            }
            Analysis::WeightedBp => {
                self.weighted.as_ref()?;
                let slices = slices(&self.config, message_flits);
                let slice = self.slice_flits();
                let terms = self.ensure_terms(id.0)?;
                Some(weighted_message(
                    terms.bp_packet,
                    terms.bottleneck,
                    slice,
                    slices,
                ))
            }
            Analysis::BufferAware => {
                self.buffer_aware.as_ref()?;
                let slices = slices(&self.config, message_flits);
                let slice = self.slice_flits();
                let terms = self.ensure_terms(id.0)?;
                Some(weighted_message(
                    terms.ba_packet,
                    terms.bottleneck,
                    slice,
                    slices,
                ))
            }
            Analysis::GraphBufferAware => {
                let slices = slices(&self.config, message_flits);
                let model = self.graph.as_ref()?;
                let route = self.flows.route(id)?;
                Some(model.message_wctt(route, slices))
            }
        }
    }

    /// The weighted models' slice size `m` (clamped ≥ 1 exactly as their
    /// constructor clamps it).
    fn slice_flits(&self) -> u32 {
        self.config
            .packetization
            .worst_case_contender_flits()
            .max(1)
    }

    /// Dense index of a `(router, output)` contention column.
    #[inline]
    fn column_index(&self, router: Coord, output: Port) -> u32 {
        let node = usize::from(router.y) * usize::from(self.mesh.width()) + usize::from(router.x);
        (node * Port::COUNT + output.index()) as u32
    }

    /// Registers a flow's read sets in the reverse indexes.
    fn index_flow(&mut self, index: usize) {
        let mut keys: Vec<u32> = Vec::new();
        let mut dkeys: Vec<(NodeId, Port)> = Vec::new();
        {
            let route = self.flows.route(FlowId(index)).expect("indexed flow");
            for hop in route.hops() {
                let column = self.column_index(hop.router, hop.output);
                if !keys.contains(&column) {
                    keys.push(column);
                }
            }
            if self.buffer_aware.is_some() {
                for hop in route.hops() {
                    if let Some(key) = hop_depth_key(&self.mesh, hop) {
                        if !dkeys.contains(&key) {
                            dkeys.push(key);
                        }
                    }
                }
            }
        }
        for &column in &keys {
            self.port_readers[column as usize].push(index as u32);
        }
        self.flow_keys[index] = keys;
        for &key in &dkeys {
            self.depth_readers.entry(key).or_default().insert(index);
        }
        self.depth_keys[index] = dkeys;
    }

    /// Removes a flow's read sets from the reverse indexes.
    fn unindex_flow(&mut self, index: usize) {
        let keys = std::mem::take(&mut self.flow_keys[index]);
        for &column in &keys {
            let readers = &mut self.port_readers[column as usize];
            if let Some(position) = readers.iter().position(|&f| f == index as u32) {
                readers.swap_remove(position);
            }
        }
        for key in &self.depth_keys[index] {
            if let Some(readers) = self.depth_readers.get_mut(key) {
                readers.remove(&index);
            }
        }
        self.depth_keys[index].clear();
    }

    /// Feeds one route add/remove through every delta-maintained structure
    /// and invalidates the cached terms of the flows whose read sets the
    /// resulting change events touch.
    fn apply_route_events(&mut self, route: &crate::routing::Route, add: bool) {
        let delta = self
            .regular
            .as_mut()
            .map(|model| model.apply_route_delta(route, add));
        let changed = self
            .weighted
            .as_mut()
            .map(|model| model.weights_mut().apply_route_delta(route, add));
        if let Some(model) = &mut self.buffer_aware {
            model.weights_mut().apply_route_delta(route, add);
        }
        if let Some(model) = &mut self.graph {
            model.base_mut().weights_mut().apply_route_delta(route, add);
        }
        let mut events: Vec<u32> = Vec::new();
        let push_event = |events: &mut Vec<u32>, column: u32| {
            if !events.contains(&column) {
                events.push(column);
            }
        };
        if let Some(delta) = &delta {
            for &(router, output) in delta
                .flipped_columns
                .iter()
                .chain(delta.dropped_drains.iter())
            {
                push_event(&mut events, self.column_index(router, output));
            }
        }
        if let Some(changed) = &changed {
            for &(router, output) in changed {
                push_event(&mut events, self.column_index(router, output));
            }
        }
        for &column in &events {
            for &index in &self.port_readers[column as usize] {
                self.cache[index as usize] = None;
            }
        }
    }

    /// The cached terms of flow `index`, recomputing them from the live
    /// models if a mutation invalidated them.
    fn ensure_terms(&mut self, index: usize) -> Option<FlowTerms> {
        if let Some(terms) = self.cache.get(index).copied().flatten() {
            return Some(terms);
        }
        let terms = {
            let Self {
                flows,
                regular,
                weighted,
                buffer_aware,
                config,
                ..
            } = self;
            let route = flows.route(FlowId(index))?;
            let mut terms = FlowTerms::default();
            if let Some(model) = regular {
                terms.regular_base = model.route_wctt(route, 1);
            }
            if let Some(model) = weighted {
                terms.paper_packet = model.packet_wctt(route);
                terms.bp_packet = model.backpressured_packet_wctt(route);
                terms.bottleneck = model.bottleneck_flows(route);
            }
            if let Some(model) = buffer_aware {
                terms.ba_packet = model.packet_wctt(route);
            }
            let mut worst = 1u32;
            for hop in route.hops() {
                let contenders = match config.arbitration {
                    // The slot oracle's "others with support" filter is
                    // exactly the regular model's contender count, already
                    // held in dense form — no second count structure read.
                    ArbitrationPolicy::RoundRobin => {
                        let model = regular.as_ref().expect("round robin keeps regular");
                        model.contender_count(hop.router, hop.input, hop.output) + 1
                    }
                    // The weighted model's delta-maintained table holds
                    // the output counts, so the engine keeps no copy.
                    ArbitrationPolicy::Waw => {
                        let model = weighted.as_ref().expect("WaW keeps weighted");
                        model.weights().output_flows(hop.router, hop.output).max(1)
                    }
                };
                worst = worst.max(contenders);
            }
            terms.slot_contenders = worst;
            terms
        };
        self.cache[index] = Some(terms);
        Some(terms)
    }

    /// The multi-VC preemptive oracle, rebuilt if any mutation since the last
    /// query could have changed its interference state.
    fn ensure_preemptive(&mut self) -> &mut PreemptiveOracle {
        if self.preemptive_dirty || self.preemptive.is_none() {
            self.preemptive = Some(PreemptiveOracle::new(
                &self.flows,
                &self.config,
                &self.buffers,
                self.vcs,
            ));
            self.preemptive_dirty = false;
        }
        self.preemptive.as_mut().expect("just ensured")
    }
}

/// `RegularWcttModel::route_wctt(route, own)` recomposed from the cached
/// own-size-independent prefix: the own size enters the bound only as the
/// final `saturating_add(own − 1)`.
fn regular_packet(base: u64, own_flits: u32) -> u64 {
    base.saturating_add(u64::from(own_flits.saturating_sub(1)))
}

/// `PreemptiveOracle::packet_wctt` at zero preemption delay (single VC).
fn preemptive_packet(base: u64, factor: u64, own_flits: u32) -> u64 {
    factor
        .saturating_mul(regular_packet(base, own_flits))
        .saturating_add(0)
        .min(SATURATION_SENTINEL)
}

/// `SlotOracle::envelope` recomposed from the cached per-route maximum
/// contender count (the per-hop latency is monotone in the contender count,
/// so the maximum hop decides the envelope).
fn slot_envelope(contenders: u32, contender_flits: u32, own_flits: u32) -> u64 {
    u64::from(own_flits).max(slot::contended_port_latency(
        contenders,
        contender_flits,
        own_flits,
    ))
}

/// `WeightedWcttModel::message_wctt` (and its backpressured / buffer-aware
/// siblings, which share the composition) from a cached per-packet bound and
/// bottleneck.
fn weighted_message(per_packet: u64, bottleneck: u32, slice_flits: u32, slices: u32) -> u64 {
    if slices <= 1 {
        return per_packet;
    }
    let round = u64::from(bottleneck) * u64::from(slice_flits);
    per_packet + u64::from(slices - 1) * round
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::oracle::oracle_suite_with_vcs;
    use crate::geometry::Coord;
    use crate::vc::VcAssignment;

    fn check_against_suite(engine: &mut IncrementalAnalysis) {
        let flows = engine.flows().clone();
        let config = *engine.config();
        let mesh = *flows.mesh();
        let buffers = engine.buffers().clone();
        let vcs = engine.vcs();
        let mut suite = oracle_suite_with_vcs(&flows, &config, mesh, &buffers, vcs).unwrap();
        for oracle in &mut suite {
            let analysis = Analysis::from_name(oracle.name()).unwrap();
            for index in 0..flows.len() {
                let id = FlowId(index);
                for size in [1u32, 4, 9] {
                    assert_eq!(
                        engine.packet_bound(analysis, id, size),
                        oracle.packet_bound(id, size),
                        "packet {} {id} size {size}",
                        oracle.name()
                    );
                    assert_eq!(
                        engine.message_bound(analysis, id, size),
                        oracle.message_bound(id, size),
                        "message {} {id} size {size}",
                        oracle.name()
                    );
                }
            }
        }
    }

    fn setup(side: u16) -> (Mesh, FlowSet) {
        let mesh = Mesh::square(side).unwrap();
        let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        (mesh, flows)
    }

    #[test]
    fn seed_design_matches_suite_round_robin() {
        let config = NocConfig::regular(4);
        let (_mesh, flows) = setup(4);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        check_against_suite(&mut engine);
    }

    #[test]
    fn seed_design_matches_suite_waw() {
        let config = NocConfig::waw_wap();
        let (_mesh, flows) = setup(4);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        check_against_suite(&mut engine);
    }

    #[test]
    fn mutation_sequence_matches_suite() {
        for config in [NocConfig::regular(4), NocConfig::waw_wap()] {
            let (mesh, flows) = setup(4);
            let buffers = BufferConfig::uniform(config.input_buffer_flits);
            let mut engine =
                IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
            let corner = mesh.node_id(Coord::from_row_col(3, 3)).unwrap();
            let memory = mesh.node_id(Coord::from_row_col(0, 0)).unwrap();
            let center = mesh.node_id(Coord::from_row_col(1, 2)).unwrap();
            let mutations = [
                Mutation::MoveFlow {
                    id: FlowId(0),
                    src: corner,
                    dst: center,
                },
                Mutation::SetBufferDepth {
                    node: memory,
                    port: Port::Local,
                    depth: 8,
                },
                Mutation::AddFlow {
                    src: center,
                    dst: memory,
                },
                Mutation::SetBufferDepth {
                    node: center,
                    port: Port::Mesh(crate::port::Direction::West),
                    depth: 1,
                },
                Mutation::RemoveLastFlow,
                Mutation::MoveFlow {
                    id: FlowId(0),
                    src: memory,
                    dst: corner,
                },
            ];
            for mutation in &mutations {
                engine.apply(mutation).unwrap();
                check_against_suite(&mut engine);
            }
        }
    }

    #[test]
    fn vc_mutations_match_suite_including_saturation() {
        let config = NocConfig::regular(4);
        let (_mesh, flows) = setup(4);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        // Two VCs over the all-to-one funnel: lower-priority flows share
        // links with saturated higher-priority ones, so preemptive bounds
        // saturate to the sentinel — the engine must reproduce that exactly.
        let vcs = VcConfig::new(2, VcAssignment::FlowIndex).unwrap();
        engine.apply(&Mutation::SetVcs(vcs)).unwrap();
        check_against_suite(&mut engine);
        let mut saturated = 0;
        for index in 0..engine.flows().len() {
            if engine.packet_bound(Analysis::Preemptive, FlowId(index), 4)
                == Some(SATURATION_SENTINEL)
            {
                saturated += 1;
            }
        }
        assert!(saturated > 0, "expected saturated preemptive bounds");
        // Back to a single VC: bounds return to the finite composition.
        engine.apply(&Mutation::SetVcs(VcConfig::single())).unwrap();
        check_against_suite(&mut engine);
    }

    #[test]
    fn arrival_curve_mutations_match_a_fresh_graph_oracle() {
        use crate::analysis::oracle::GraphBufferAwareOracle;
        let config = NocConfig::waw_wap();
        let (mesh, flows) = setup(4);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        // The seed contract carries no burst: graph-ba collapses onto the
        // buffer-aware bound before any arrival-curve mutation lands.
        for index in 0..engine.flows().len() {
            let id = FlowId(index);
            assert_eq!(
                engine.message_bound(Analysis::GraphBufferAware, id, 9),
                engine.message_bound(Analysis::BufferAware, id, 9),
            );
        }
        let memory = mesh.node_id(Coord::from_row_col(0, 0)).unwrap();
        let corner = mesh.node_id(Coord::from_row_col(3, 3)).unwrap();
        let mutations = [
            Mutation::SetArrivalCurve(ArrivalCurve::bursty(4, 2_000)),
            Mutation::MoveFlow {
                id: FlowId(0),
                src: corner,
                dst: memory,
            },
            Mutation::SetBufferDepth {
                node: memory,
                port: Port::Local,
                depth: 8,
            },
            Mutation::SetArrivalCurve(ArrivalCurve::bursty(7, 3_000).with_jitter(20)),
            Mutation::SetArrivalCurve(ArrivalCurve::periodic(500)),
        ];
        for mutation in &mutations {
            engine.apply(mutation).unwrap();
            let curve = engine.arrival_curve().unwrap();
            let mut oracle = GraphBufferAwareOracle::new(
                engine.flows(),
                &config,
                *engine.flows().mesh(),
                engine.buffers().clone(),
                curve,
            );
            for index in 0..engine.flows().len() {
                let id = FlowId(index);
                for size in [1u32, 4, 9] {
                    assert_eq!(
                        engine.packet_bound(Analysis::GraphBufferAware, id, size),
                        oracle.packet_bound(id, size),
                        "packet graph-ba {id} size {size} after {mutation:?}"
                    );
                    assert_eq!(
                        engine.message_bound(Analysis::GraphBufferAware, id, size),
                        oracle.message_bound(id, size),
                        "message graph-ba {id} size {size} after {mutation:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_mutations_match_fresh_degraded_suite() {
        use crate::port::Direction;
        for config in [NocConfig::regular(4), NocConfig::waw_wap()] {
            let (mesh, flows) = setup(4);
            let buffers = BufferConfig::uniform(config.input_buffer_flits);
            let mut engine =
                IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
            let before = engine.flows().len();
            // Fail one directed link: every flow reroutes over the spanning
            // forest, nothing is severed (the mesh stays connected).
            engine
                .apply(&Mutation::FailLink {
                    from: Coord::from_row_col(0, 1),
                    direction: Direction::West,
                })
                .unwrap();
            assert_eq!(engine.flows().len(), before);
            check_against_suite(&mut engine);
            // Fail a router: the flow sourced there is severed and dropped.
            engine
                .apply(&Mutation::FailRouter {
                    at: Coord::from_row_col(3, 3),
                })
                .unwrap();
            assert_eq!(engine.flows().len(), before - 1);
            assert!(engine.fault_set().router_failed(Coord::from_row_col(3, 3)));
            check_against_suite(&mut engine);
            // Knob mutations still compose after faults...
            let memory = mesh.node_id(Coord::from_row_col(0, 0)).unwrap();
            engine
                .apply(&Mutation::SetBufferDepth {
                    node: memory,
                    port: Port::Local,
                    depth: 8,
                })
                .unwrap();
            check_against_suite(&mut engine);
            // ...but XY-routed flow-shape mutations are rejected.
            assert!(engine
                .apply(&Mutation::AddFlow {
                    src: memory,
                    dst: mesh.node_id(Coord::from_row_col(1, 1)).unwrap(),
                })
                .is_err());
            assert!(engine
                .apply(&Mutation::MoveFlow {
                    id: FlowId(0),
                    src: memory,
                    dst: mesh.node_id(Coord::from_row_col(1, 1)).unwrap(),
                })
                .is_err());
        }
    }

    #[test]
    fn fault_mutations_validate_hardware() {
        let config = NocConfig::regular(3);
        let (_mesh, flows) = setup(3);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        assert!(engine
            .apply(&Mutation::FailLink {
                from: Coord::new(2, 0),
                direction: crate::port::Direction::East,
            })
            .is_err());
        assert!(engine
            .apply(&Mutation::FailRouter {
                at: Coord::new(9, 9),
            })
            .is_err());
        // A failed validation leaves the engine untouched.
        check_against_suite(&mut engine);
    }

    #[test]
    fn unknown_flows_and_inapplicable_analyses_answer_none() {
        let config = NocConfig::regular(4);
        let (_mesh, flows) = setup(3);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        let out_of_range = FlowId(flows.len());
        assert_eq!(
            engine.packet_bound(Analysis::Regular, out_of_range, 4),
            None
        );
        assert_eq!(engine.message_bound(Analysis::Weighted, FlowId(0), 4), None);
        // The graph-based bursty analysis models the WaW design only.
        assert_eq!(
            engine.packet_bound(Analysis::GraphBufferAware, FlowId(0), 4),
            None
        );
        assert_eq!(engine.arrival_curve(), None);
    }
}
