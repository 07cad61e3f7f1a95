//! Mutation-driven incremental WCTT analysis: the term cache behind the
//! design-space-exploration driver (`expt-dse`).
//!
//! The analytic stack recomputes every bound from scratch per scenario, but a
//! DSE loop mutates one design knob at a time — move one flow's endpoints,
//! change one buffer depth, reassign VCs — and re-reads the bounds of every
//! flow.  [`IncrementalAnalysis`] keeps the models alive across mutations —
//! one [`RegularWcttModel`] under round robin, one
//! [`GraphBufferAwareWcttModel`] (holding the buffer-aware and the weighted
//! model over one weight table and one buffer table) under WaW — and caches,
//! per flow, the expensive route-dependent terms each analysis reads
//! (`FlowTerms`).  Every exported bound is composed from the cached terms by
//! the *same function* its from-scratch oracle composes its own terms with
//! (the regular and preemptive `packet_from_prefix` and
//! `message_from_prefix`, the slot oracle's `packet_envelope` and
//! `message_envelope`, the weighted model's `slice_train`), so a bound can
//! differ from the oracle's only if a cached term is stale — which is what
//! the differential proptest (`incremental_equivalence`) checks for
//! arbitrary mutation sequences.
//!
//! # Invalidation
//!
//! Terms are keyed by flow and carry two read sets, maintained as dense
//! reverse indexes:
//!
//! * **contention keys** — the `(router, output)` column of every hop of the
//!   flow's route.  Every read any analysis performs against the flow counts
//!   happens inside these columns: under round robin the column's pair
//!   *support* (the regular recursion and the slot contender count read
//!   counts only through presence tests) and the column's memoised drain
//!   value; under WaW the column's output flow count (the weighted bounds
//!   read magnitudes);
//! * **depth keys** — the `(node, input port)` buffer each hop drains into
//!   (buffer-aware analysis only), so a single-depth mutation invalidates
//!   only the flows whose routes actually cross that buffer.
//!
//! A flow-shape mutation (`MoveFlow`, `AddFlow`, `RemoveLastFlow`) takes one
//! path: it removes and/or adds routes through the delta-maintained model,
//! remembering what the readers of each column it touches read before the
//! first delta, and the value of every drain
//! [`RegularWcttModel::apply_route_delta`] drops.  Once every delta of the
//! mutation is applied, the dropped drains that have readers are recomputed,
//! and a column's readers are invalidated only if its support flipped, its
//! WaW count changed, or its drain value changed — invalidation by value, so
//! a term is recomputed only if it reads an input whose value changed.  A
//! depth mutation edits the buffer tables in place and invalidates the depth
//! readers of that one buffer, only if its depth changed.  Global knobs stay
//! out of the per-flow cache entirely: the preemptive depth envelope factor
//! is recomputed per depth mutation from a per-depth count of the buffer
//! table and applied at query time, and a VC reassignment under multiple VCs
//! rebuilds the preemptive interference state wholesale (its interference
//! sets can all change).
//!
//! After warm-up, mutations and queries allocate nothing: routes are
//! re-routed into their existing hop vectors, and the delta, the key sets and
//! the reverse indexes are reused vectors.

use crate::analysis::oracle::{slices, SlotOracle, WcttBoundModel};
use crate::analysis::preemptive::PreemptiveOracle;
use crate::analysis::regular::{DrainKey, RegularWcttModel, RouteDelta};
use crate::analysis::{BufferAwareWcttModel, GraphBufferAwareWcttModel};
use crate::arbitration::ArbitrationPolicy;
use crate::arrival::ArrivalCurve;
use crate::buffers::BufferConfig;
use crate::config::NocConfig;
use crate::error::{Error, Result};
use crate::fault::{reroute_flows, FaultKind, FaultSet, TreeRouting};
use crate::flow::{FlowId, FlowSet};
use crate::geometry::{Coord, NodeId};
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

/// The cached route-dependent terms of one flow: the arguments the oracles'
/// compositions take (see the queries in [`IncrementalAnalysis`]).
#[derive(Debug, Clone, Copy, Default)]
struct FlowTerms {
    /// [`RegularWcttModel::route_prefix`] (round robin only).
    regular_prefix: u64,
    /// [`crate::analysis::WeightedWcttModel::packet_wctt`] (WaW only).
    paper_packet: u64,
    /// [`crate::analysis::WeightedWcttModel::backpressured_packet_wctt`] (WaW only).
    bp_packet: u64,
    /// [`BufferAwareWcttModel::packet_wctt`] (WaW only).
    ba_packet: u64,
    /// [`crate::analysis::WeightedWcttModel::bottleneck_flows`] (WaW only).
    bottleneck: u32,
    /// The contenders of the route's most contended port, what the slot
    /// envelope reads (under WaW, the bottleneck flow count).
    slot_contenders: u32,
}

impl FlowTerms {
    /// The cached per-slice bound of a weighted analysis (the per-packet
    /// argument of its slice train), `None` for the other analyses.
    fn slice_bound(&self, analysis: Analysis) -> Option<u64> {
        match analysis {
            Analysis::Weighted => Some(self.paper_packet),
            Analysis::WeightedBp => Some(self.bp_packet),
            Analysis::BufferAware => Some(self.ba_packet),
            _ => None,
        }
    }
}

/// Dense index ([`Mesh::port_index`]) of the `(node, input port)` buffer a
/// hop's output drains into — the exact depth [`BufferConfig::hop_depth`]
/// reads for that hop.
fn hop_depth_key(mesh: &Mesh, hop: &Hop) -> Option<u32> {
    let (router, port) = match hop.output {
        Port::Mesh(dir) => (mesh.neighbor(hop.router, dir)?, Port::Mesh(dir.opposite())),
        Port::Local => (hop.router, hop.input),
    };
    Some(mesh.port_index(router, port) as u32)
}

/// Removes flow `index` from one reverse-index entry.
fn remove_reader(readers: &mut Vec<u32>, index: usize) {
    if let Some(position) = readers.iter().position(|&f| f == index as u32) {
        readers.swap_remove(position);
    }
}

/// How many `(node, port)` entries of a buffer table hold each depth,
/// ascending by depth: the smallest and largest depth, all the preemptive
/// envelope factor reads of the table, without a scan.
#[derive(Debug, Clone)]
struct DepthCounts(Vec<(u32, usize)>);

impl DepthCounts {
    fn new(mesh: &Mesh, buffers: &BufferConfig) -> Self {
        if let BufferConfig::Uniform { depth } = *buffers {
            return Self(vec![(depth, mesh.router_count() * Port::COUNT)]);
        }
        let mut counts = Self(Vec::new());
        for node in mesh.nodes() {
            for port in Port::ALL {
                counts.add(buffers.depth(node, port));
            }
        }
        counts
    }

    fn add(&mut self, depth: u32) {
        match self.0.binary_search_by_key(&depth, |&(d, _)| d) {
            Ok(at) => self.0[at].1 += 1,
            Err(at) => self.0.insert(at, (depth, 1)),
        }
    }

    /// Moves one buffer from depth `from` to depth `to`.
    fn shift(&mut self, from: u32, to: u32) {
        if let Ok(at) = self.0.binary_search_by_key(&from, |&(d, _)| d) {
            self.0[at].1 -= 1;
            if self.0[at].1 == 0 {
                self.0.remove(at);
            }
        }
        self.add(to);
    }

    fn min(&self) -> u32 {
        self.0.first().map_or(1, |&(depth, _)| depth)
    }

    fn max(&self) -> u32 {
        self.0.last().map_or(1, |&(depth, _)| depth)
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
    /// WaW: the graph-based bursty model, which holds the buffer-aware model,
    /// which holds the weighted model: one delta-maintained weight table and
    /// one buffer table serve every weighted analysis.  The graph-based
    /// bounds are composed at query time (the burst term depends on the
    /// queried message size), so the arrival-curve knob never touches the
    /// per-flow term cache.
    graph: Option<GraphBufferAwareWcttModel>,
    /// Per-depth count of `buffers`, kept in step by every depth mutation.
    depth_counts: DepthCounts,
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
    /// Per-flow buffer read set (WaW / buffer-aware only): the dense buffer
    /// index (`node · 5 + input port`) of every hop of the flow's route.
    depth_keys: Vec<Vec<u32>>,
    /// Reverse index of `depth_keys`, dense by buffer (empty under round
    /// robin, whose terms read no depth).
    depth_readers: Vec<Vec<u32>>,
    /// The regular model's delta of the current flow-shape mutation (empty
    /// between mutations, kept for its capacity).
    delta: RouteDelta,
    /// Every column the current flow-shape mutation's deltas touch, with
    /// what its readers read of it before the first delta
    /// ([`IncrementalAnalysis::column_state`]); empty between mutations.
    touched: Vec<(DrainKey, u32)>,
    /// Membership of `touched`, dense by column: set exactly for the
    /// columns `touched` lists, so all clear between mutations.
    touched_marks: Vec<bool>,
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
        let contender_flits = config.packetization.worst_case_contender_flits();
        let (regular, graph) = match config.arbitration {
            ArbitrationPolicy::RoundRobin => {
                (Some(RegularWcttModel::new(flows, contender_flits)), None)
            }
            ArbitrationPolicy::Waw => {
                let base = BufferAwareWcttModel::new(
                    WeightTable::from_flow_set(flows),
                    contender_flits,
                    mesh,
                    buffers.clone(),
                );
                // Seeded with the burst-free contract, under which the
                // graph-based bound collapses to the buffer-aware one;
                // `Mutation::SetArrivalCurve` swaps the contract in place.
                let curve = ArrivalCurve::periodic(1);
                (None, Some(GraphBufferAwareWcttModel::new(base, curve)))
            }
        };
        let n = flows.len();
        // Router ports: the `(router, output)` columns and the `(node, input)`
        // buffers share the dense `node · 5 + port` index space.
        let ports = mesh.router_count() * Port::COUNT;
        // Only the buffer-aware terms read depths.
        let depth_readers = vec![Vec::new(); if graph.is_some() { ports } else { 0 }];
        let depth_counts = DepthCounts::new(&mesh, buffers);
        let depth_factor = PreemptiveOracle::depth_envelope_factor_between(
            config,
            depth_counts.min(),
            depth_counts.max(),
        );
        let mut engine = Self {
            mesh,
            config: *config,
            flows: flows.clone(),
            buffers: buffers.clone(),
            vcs,
            regular,
            graph,
            depth_counts,
            depth_factor,
            preemptive: None,
            preemptive_dirty: true,
            faults: FaultSet::empty(&mesh),
            cache: vec![None; n],
            flow_keys: vec![Vec::new(); n],
            port_readers: vec![Vec::new(); ports],
            depth_keys: vec![Vec::new(); n],
            depth_readers,
            delta: RouteDelta::default(),
            touched: Vec::new(),
            touched_marks: vec![false; ports],
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

    /// Applies one design mutation, updating the contention structures and
    /// buffer tables in place and invalidating exactly the cached terms that
    /// read an input whose value changed.  A rejected mutation leaves the
    /// engine unchanged.
    ///
    /// # Errors
    ///
    /// Returns an error on invalid endpoints, an out-of-range flow, an empty
    /// flow set (`RemoveLastFlow`), a node outside the mesh or a zero depth
    /// (`SetBufferDepth`).
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
                self.flows.check_replacement(id, src, dst)?;
                self.unindex_flow(id.0);
                self.apply_route(id.0, false);
                self.flows
                    .replace_pair(id, src, dst)
                    .expect("replacement checked above");
                self.apply_route(id.0, true);
                self.index_flow(id.0);
                self.cache[id.0] = None;
                self.invalidate_changed_columns();
            }
            Mutation::AddFlow { src, dst } => {
                let id = self.flows.push_pair(src, dst)?;
                self.cache.push(None);
                self.flow_keys.push(Vec::new());
                self.depth_keys.push(Vec::new());
                self.apply_route(id.0, true);
                self.index_flow(id.0);
                self.invalidate_changed_columns();
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
                self.apply_route(index, false);
                self.flows.pop();
                self.cache.pop();
                self.flow_keys.pop();
                self.depth_keys.pop();
                self.invalidate_changed_columns();
            }
            Mutation::SetBufferDepth { node, port, depth } => {
                let old = self
                    .buffers
                    .set_buffer_depth(&self.mesh, node, port, depth)?;
                if let Some(model) = &mut self.graph {
                    model
                        .base_mut()
                        .set_buffer_depth(node, port, depth)
                        .expect("edit checked on the engine's own table");
                }
                if old != depth {
                    self.depth_counts.shift(old, depth);
                    let factor = PreemptiveOracle::depth_envelope_factor_between(
                        &self.config,
                        self.depth_counts.min(),
                        self.depth_counts.max(),
                    );
                    // The multi-VC oracle reads the buffer plan only through
                    // this factor.
                    if factor != self.depth_factor {
                        self.depth_factor = factor;
                        self.preemptive_dirty = true;
                    }
                    let router = self.mesh.coord_of(node).expect("node checked by the edit");
                    let buffer = self.mesh.port_index(router, port);
                    for &index in self.depth_readers.get(buffer).into_iter().flatten() {
                        self.cache[index as usize] = None;
                    }
                }
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
                Some(RegularWcttModel::packet_from_prefix(
                    terms.regular_prefix,
                    own_flits,
                ))
            }
            Analysis::Ubd => {
                // The UBD oracle answers packet queries through its message
                // composition (a single wire packet is a one-packet message).
                self.message_bound(Analysis::Ubd, id, own_flits)
            }
            Analysis::Preemptive => {
                self.regular.as_ref()?;
                if self.vcs.is_single() {
                    // One VC: no flow preempts another.
                    let factor = self.depth_factor;
                    let terms = self.ensure_terms(id.0)?;
                    Some(PreemptiveOracle::packet_from_prefix(
                        factor,
                        terms.regular_prefix,
                        own_flits,
                        0,
                    ))
                } else {
                    self.ensure_preemptive().packet_bound(id, own_flits)
                }
            }
            Analysis::Slot => {
                let terms = self.ensure_terms(id.0)?;
                Some(SlotOracle::packet_envelope(
                    self.config.packetization,
                    terms.slot_contenders,
                    own_flits,
                ))
            }
            Analysis::Weighted | Analysis::WeightedBp | Analysis::BufferAware => {
                self.graph.as_ref()?;
                self.ensure_terms(id.0)?.slice_bound(analysis)
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
        match analysis {
            Analysis::Regular => {
                let split = self.regular.as_ref()?.split(message_flits);
                let terms = self.ensure_terms(id.0)?;
                Some(RegularWcttModel::message_from_prefix(
                    terms.regular_prefix,
                    split,
                ))
            }
            Analysis::Ubd => {
                // `UbdModel::route_message_bound`: the platform's own split,
                // composed by the design's paper model.
                let split = self.config.packetization.split(message_flits);
                let terms = self.ensure_terms(id.0)?;
                Some(match &self.graph {
                    None => RegularWcttModel::message_from_prefix(terms.regular_prefix, split),
                    Some(model) => model.base().reference().slice_train(
                        terms.paper_packet,
                        split.packets,
                        || terms.bottleneck,
                    ),
                })
            }
            Analysis::Preemptive => {
                let model = self.regular.as_ref()?;
                if self.vcs.is_single() {
                    let split = model.split(message_flits);
                    let max_packet_flits = model.contender_flits();
                    let factor = self.depth_factor;
                    let terms = self.ensure_terms(id.0)?;
                    Some(PreemptiveOracle::message_from_prefix(
                        factor,
                        terms.regular_prefix,
                        split,
                        max_packet_flits,
                        0,
                    ))
                } else {
                    self.ensure_preemptive().message_bound(id, message_flits)
                }
            }
            Analysis::Slot => {
                let terms = self.ensure_terms(id.0)?;
                Some(SlotOracle::message_envelope(
                    self.config.packetization,
                    terms.slot_contenders,
                    message_flits,
                ))
            }
            Analysis::Weighted | Analysis::WeightedBp | Analysis::BufferAware => {
                let slices = slices(&self.config, message_flits);
                let terms = self.ensure_terms(id.0)?;
                let model = self.graph.as_ref()?.base().reference();
                let per_packet = terms.slice_bound(analysis)?;
                Some(model.slice_train(per_packet, slices, || terms.bottleneck))
            }
            Analysis::GraphBufferAware => {
                let slices = slices(&self.config, message_flits);
                let model = self.graph.as_ref()?;
                let route = self.flows.route(id)?;
                Some(model.message_wctt(route, slices))
            }
        }
    }

    /// Registers a flow's read sets in the reverse indexes, refilling its
    /// key vectors in place.
    fn index_flow(&mut self, index: usize) {
        let route = self.flows.route(FlowId(index)).expect("indexed flow");
        let keys = &mut self.flow_keys[index];
        keys.clear();
        for hop in route.hops() {
            let column = self.mesh.port_index(hop.router, hop.output) as u32;
            if !keys.contains(&column) {
                keys.push(column);
            }
        }
        for &column in keys.iter() {
            self.port_readers[column as usize].push(index as u32);
        }
        if self.graph.is_some() {
            let keys = &mut self.depth_keys[index];
            keys.clear();
            for key in route
                .hops()
                .iter()
                .filter_map(|hop| hop_depth_key(&self.mesh, hop))
            {
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
            for &key in keys.iter() {
                self.depth_readers[key as usize].push(index as u32);
            }
        }
    }

    /// Removes a flow's read sets from the reverse indexes.
    fn unindex_flow(&mut self, index: usize) {
        for &column in &self.flow_keys[index] {
            remove_reader(&mut self.port_readers[column as usize], index);
        }
        for &key in &self.depth_keys[index] {
            remove_reader(&mut self.depth_readers[key as usize], index);
        }
    }

    /// What the cached terms read of the `(router, output)` column: its
    /// pair support under round robin, its output flow count under WaW.
    fn column_state(&self, router: Coord, output: Port) -> u32 {
        match (&self.regular, &self.graph) {
            (Some(model), _) => model.weights().column_support(router, output),
            (None, Some(model)) => model
                .base()
                .reference()
                .weights()
                .output_flows(router, output),
            (None, None) => 0,
        }
    }

    /// Adds (`add`) or removes the route of flow `index` through the
    /// delta-maintained model, first remembering the state of each column it
    /// touches that no earlier delta of this mutation touched.
    fn apply_route(&mut self, index: usize, add: bool) {
        let route = self.flows.route(FlowId(index)).expect("indexed flow");
        for hop in route.hops() {
            let mark = &mut self.touched_marks[self.mesh.port_index(hop.router, hop.output)];
            if !*mark {
                *mark = true;
                let state = self.column_state(hop.router, hop.output);
                self.touched.push(((hop.router, hop.output), state));
            }
        }
        if let Some(model) = &mut self.regular {
            model.apply_route_delta(route, add, &mut self.delta);
        }
        if let Some(model) = &mut self.graph {
            model.base_mut().weights_mut().apply_route_delta(route, add);
        }
    }

    /// Ends a flow-shape mutation once all its deltas are applied: recomputes
    /// the dropped drains that have readers, invalidates the readers of every
    /// column whose drain value or state changed, and empties the scratch.
    /// Also marks the multi-VC preemptive state for rebuild.
    fn invalidate_changed_columns(&mut self) {
        if let Some(model) = &mut self.regular {
            for &((router, output), before) in &self.delta.dropped_drains {
                let readers = &self.port_readers[self.mesh.port_index(router, output)];
                if !readers.is_empty() && model.drain_time(router, output) != before {
                    for &index in readers {
                        self.cache[index as usize] = None;
                    }
                }
            }
        }
        for &((router, output), before) in &self.touched {
            let column = self.mesh.port_index(router, output);
            self.touched_marks[column] = false;
            if self.column_state(router, output) != before {
                for &index in &self.port_readers[column] {
                    self.cache[index as usize] = None;
                }
            }
        }
        debug_assert!(
            !self.touched_marks.contains(&true),
            "a touched mark outlived its mutation"
        );
        self.delta.clear();
        self.touched.clear();
        self.preemptive_dirty = true;
    }

    /// The cached terms of flow `index`, recomputing them from the live
    /// models if a mutation invalidated them.
    fn ensure_terms(&mut self, index: usize) -> Option<FlowTerms> {
        if let Some(terms) = self.cache.get(index).copied().flatten() {
            return Some(terms);
        }
        let Self {
            flows,
            regular,
            graph,
            ..
        } = self;
        let route = flows.route(FlowId(index))?;
        let mut terms = FlowTerms::default();
        if let Some(model) = regular {
            terms.regular_prefix = model.route_prefix(route);
            terms.slot_contenders =
                SlotOracle::contenders(ArbitrationPolicy::RoundRobin, model.weights(), route);
        }
        if let Some(model) = graph {
            let buffer_aware = model.base();
            let weighted = buffer_aware.reference();
            terms.paper_packet = weighted.packet_wctt(route);
            terms.bp_packet = weighted.backpressured_packet_wctt(route);
            terms.ba_packet = buffer_aware.packet_wctt(route);
            terms.bottleneck = weighted.bottleneck_flows(route);
            // WaW shares a port between the flows using it, so the most
            // contended port is the bottleneck.
            terms.slot_contenders = terms.bottleneck;
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::oracle::oracle_suite_with_vcs;
    use crate::analysis::preemptive::SATURATION_SENTINEL;
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

    /// Four flows on a 4×4 mesh: F runs east along row 0 behind contender
    /// K, so its bound reads the drain at (1,0) East, whose maximum also
    /// covers H's southbound branch at (2,0); G is the flow the tests move.
    fn branch_platform(mesh: &Mesh, g: (NodeId, NodeId)) -> FlowSet {
        let node = |x, y| mesh.node_id(Coord::new(x, y)).unwrap();
        let pairs = [
            (node(1, 0), node(3, 0)),
            (node(0, 0), node(3, 0)),
            (node(0, 0), node(2, 3)),
            g,
        ];
        FlowSet::from_pairs(mesh, pairs).unwrap()
    }

    #[test]
    fn a_changed_drain_value_invalidates_readers_off_the_changed_route() {
        // Moving G onto column 2 adds a contender to H's branch only: no
        // column of F's route changes support, yet F's drain value — and so
        // its bound — changes, and only the drain's value says so.
        let config = NocConfig::regular(4);
        let mesh = Mesh::square(4).unwrap();
        let node = |x, y| mesh.node_id(Coord::new(x, y)).unwrap();
        let flows = branch_platform(&mesh, (node(0, 3), node(0, 2)));
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        check_against_suite(&mut engine);
        let before = engine.packet_bound(Analysis::Regular, FlowId(0), 4);
        engine
            .apply(&Mutation::MoveFlow {
                id: FlowId(3),
                src: node(1, 1),
                dst: node(2, 3),
            })
            .unwrap();
        check_against_suite(&mut engine);
        assert_ne!(engine.packet_bound(Analysis::Regular, FlowId(0), 4), before);
    }

    #[test]
    fn a_move_onto_the_same_route_keeps_every_other_term() {
        let mesh = Mesh::square(4).unwrap();
        let g = (
            mesh.node_id(Coord::new(1, 1)).unwrap(),
            mesh.node_id(Coord::new(2, 3)).unwrap(),
        );
        let flows = branch_platform(&mesh, g);
        for config in [NocConfig::regular(4), NocConfig::waw_wap()] {
            let buffers = BufferConfig::uniform(config.input_buffer_flits);
            let mut engine =
                IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
            check_against_suite(&mut engine);
            // G alone supports its first two hops: taking its route out flips
            // them and, under round robin, drops the drains F and K read;
            // putting it back restores every value, so nothing else is
            // recomputed.
            engine
                .apply(&Mutation::MoveFlow {
                    id: FlowId(3),
                    src: g.0,
                    dst: g.1,
                })
                .unwrap();
            for index in 0..3 {
                assert!(engine.cache[index].is_some(), "{config:?}: flow {index}");
            }
            check_against_suite(&mut engine);
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
            let memory = mesh.node_id(Coord::from_row_col(0, 0)).unwrap();
            let center = mesh.node_id(Coord::from_row_col(1, 1)).unwrap();
            // XY-routed flow-shape mutations cannot follow a fault.
            let assert_flow_shape_rejected = |engine: &mut IncrementalAnalysis| {
                assert!(engine
                    .apply(&Mutation::AddFlow {
                        src: memory,
                        dst: center,
                    })
                    .is_err());
                assert!(engine
                    .apply(&Mutation::MoveFlow {
                        id: FlowId(0),
                        src: memory,
                        dst: center,
                    })
                    .is_err());
            };
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
            assert_flow_shape_rejected(&mut engine);
            // Fail a router: the flow sourced there is severed and dropped.
            engine
                .apply(&Mutation::FailRouter {
                    at: Coord::from_row_col(3, 3),
                })
                .unwrap();
            assert_eq!(engine.flows().len(), before - 1);
            assert!(engine.fault_set().router_failed(Coord::from_row_col(3, 3)));
            check_against_suite(&mut engine);
            // Knob mutations still compose after faults, but flow-shape
            // mutations stay rejected.
            engine
                .apply(&Mutation::SetBufferDepth {
                    node: memory,
                    port: Port::Local,
                    depth: 8,
                })
                .unwrap();
            check_against_suite(&mut engine);
            assert_flow_shape_rejected(&mut engine);
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
    fn depth_mutations_validate_the_node_and_the_depth() {
        let config = NocConfig::regular(4);
        let (_mesh, flows) = setup(4);
        let buffers = BufferConfig::uniform(config.input_buffer_flits);
        let mut engine =
            IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
        let outside = NodeId(99);
        let error = engine
            .apply(&Mutation::SetBufferDepth {
                node: outside,
                port: Port::Local,
                depth: 8,
            })
            .unwrap_err();
        // The same error a move to that node reports.
        let move_error = engine
            .apply(&Mutation::MoveFlow {
                id: FlowId(0),
                src: outside,
                dst: NodeId(0),
            })
            .unwrap_err();
        assert_eq!(error, move_error);
        assert_eq!(
            error,
            Error::NodeOutOfBounds {
                node: outside,
                count: 16
            }
        );
        assert!(engine
            .apply(&Mutation::SetBufferDepth {
                node: NodeId(3),
                port: Port::Local,
                depth: 0,
            })
            .is_err());
        // Neither rejected edit touched the table.
        assert_eq!(engine.buffers(), &buffers);
        check_against_suite(&mut engine);
    }

    #[test]
    fn rejected_moves_leave_every_bound_unchanged() {
        for config in [NocConfig::regular(4), NocConfig::waw_wap()] {
            let (mesh, flows) = setup(4);
            let buffers = BufferConfig::uniform(config.input_buffer_flits);
            let mut engine =
                IncrementalAnalysis::new(&flows, &config, &buffers, VcConfig::single()).unwrap();
            let analyses = [
                Analysis::Regular,
                Analysis::Ubd,
                Analysis::Preemptive,
                Analysis::Slot,
                Analysis::Weighted,
                Analysis::WeightedBp,
                Analysis::BufferAware,
                Analysis::GraphBufferAware,
            ];
            let bounds = |engine: &mut IncrementalAnalysis| {
                let mut all = Vec::new();
                for analysis in analyses {
                    for index in 0..engine.flows().len() {
                        for size in [1u32, 4, 9] {
                            all.push(engine.packet_bound(analysis, FlowId(index), size));
                            all.push(engine.message_bound(analysis, FlowId(index), size));
                        }
                    }
                }
                all
            };
            let before = bounds(&mut engine);
            let corner = mesh.node_id(Coord::from_row_col(3, 3)).unwrap();
            for (id, src, dst) in [
                (FlowId(2), corner, corner),
                (FlowId(2), corner, NodeId(16)),
                (FlowId(2), NodeId(16), corner),
                (FlowId(flows.len()), corner, NodeId(0)),
            ] {
                assert!(engine.apply(&Mutation::MoveFlow { id, src, dst }).is_err());
                assert_eq!(engine.flows().pairs(), flows.pairs());
                assert_eq!(bounds(&mut engine), before);
            }
            check_against_suite(&mut engine);
        }
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
