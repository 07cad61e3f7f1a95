//! Communication flows and per-port flow counting.
//!
//! A *flow* is an ordered (source, destination) node pair.  The WaW arbitration
//! weights of Section III are derived from the number of flows that can traverse
//! each input and output port of every router, which is statically known thanks
//! to XY routing.  [`FlowSet`] enumerates a concrete set of flows and answers
//! per-port queries by scanning its routes; the analyses and the simulator read
//! the counts from the dense [`crate::weights::WeightTable`] built from a flow
//! set instead.  [`paper_input_source_count`]/[`paper_output_source_count`] give
//! the closed-form counts from the paper for the all-to-all flow set
//! (assumption (1) in Section II.A: *every node is able to send and receive
//! packets to/from any other node*).

use crate::error::{Error, Result};
use crate::geometry::{Coord, NodeId};
use crate::port::{Direction, Port};
use crate::routing::{Route, RoutingAlgorithm, XyRouting};
use crate::topology::Mesh;

/// Identifier of a flow within a [`FlowSet`] (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FlowId(pub usize);

impl FlowId {
    /// The raw index of this flow inside its [`FlowSet`].
    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A communication flow: all packets sent from `src` to `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flow {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

impl Flow {
    /// Creates a flow between two distinct nodes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SelfFlow`] if `src == dst`.
    pub fn new(src: NodeId, dst: NodeId) -> Result<Self> {
        if src == dst {
            return Err(Error::SelfFlow { node: src });
        }
        Ok(Self { src, dst })
    }
}

/// A set of flows over a mesh, together with the XY route of every flow.
///
/// # Examples
///
/// ```
/// use wnoc_core::{flow::FlowSet, geometry::Coord, topology::Mesh};
///
/// let mesh = Mesh::square(8)?;
/// // The evaluation scenario of the paper: every node sends to the memory
/// // controller attached to R(0,0).
/// let flows = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0))?;
/// assert_eq!(flows.len(), 63);
/// # Ok::<(), wnoc_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct FlowSet {
    mesh: Mesh,
    flows: Vec<Flow>,
    routes: Vec<Route>,
}

impl FlowSet {
    /// Builds a flow set from explicit (source, destination) pairs, routing each
    /// flow with XY routing.
    ///
    /// # Errors
    ///
    /// Returns an error if any pair has `src == dst` or refers to a node outside
    /// the mesh.
    pub fn from_pairs<I>(mesh: &Mesh, pairs: I) -> Result<Self>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        Self::from_pairs_with(mesh, pairs, &XyRouting::new())
    }

    /// Builds a flow set from explicit (source, destination) pairs, routing
    /// each flow with the given routing algorithm — the degraded-mode entry
    /// point used by [`crate::fault`] to build tree-rerouted flow sets.
    ///
    /// # Errors
    ///
    /// Returns an error if any pair has `src == dst`, refers to a node outside
    /// the mesh, or the algorithm reports no route for a pair.
    pub fn from_pairs_with<I>(mesh: &Mesh, pairs: I, routing: &dyn RoutingAlgorithm) -> Result<Self>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut flows = Vec::new();
        let mut routes = Vec::new();
        for (src, dst) in pairs {
            let flow = Flow::new(src, dst)?;
            let src_c = mesh.coord_of(src)?;
            let dst_c = mesh.coord_of(dst)?;
            routes.push(routing.route(mesh, src_c, dst_c)?);
            flows.push(flow);
        }
        Ok(Self {
            mesh: *mesh,
            flows,
            routes,
        })
    }

    /// Every node sends to every other node (the paper's worst-case assumption
    /// used to derive the statically computed WaW weights).
    ///
    /// # Errors
    ///
    /// Never fails for a valid mesh; the `Result` is kept for API uniformity.
    pub fn all_to_all(mesh: &Mesh) -> Result<Self> {
        let nodes: Vec<NodeId> = mesh.nodes().collect();
        let pairs = nodes.iter().flat_map(|&src| {
            nodes
                .iter()
                .filter(move |&&dst| dst != src)
                .map(move |&dst| (src, dst))
        });
        Self::from_pairs(mesh, pairs.collect::<Vec<_>>())
    }

    /// Every node except `dst` sends to `dst` (the memory-controller scenario of
    /// the paper's evaluation, Section IV).
    ///
    /// # Errors
    ///
    /// Returns [`Error::CoordOutOfBounds`] if `dst` lies outside the mesh.
    pub fn all_to_one(mesh: &Mesh, dst: Coord) -> Result<Self> {
        let dst_id = mesh.node_id(dst)?;
        let pairs: Vec<(NodeId, NodeId)> = mesh
            .nodes()
            .filter(|&n| n != dst_id)
            .map(|n| (n, dst_id))
            .collect();
        Self::from_pairs(mesh, pairs)
    }

    /// `src` sends to every other node.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CoordOutOfBounds`] if `src` lies outside the mesh.
    pub fn one_to_all(mesh: &Mesh, src: Coord) -> Result<Self> {
        let src_id = mesh.node_id(src)?;
        let pairs: Vec<(NodeId, NodeId)> = mesh
            .nodes()
            .filter(|&n| n != src_id)
            .map(|n| (src_id, n))
            .collect();
        Self::from_pairs(mesh, pairs)
    }

    /// Request/response flows between every node and a set of endpoint nodes
    /// (e.g. memory controllers): one flow from each node to each endpoint and
    /// one back.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint lies outside the mesh.
    pub fn to_and_from_endpoints(mesh: &Mesh, endpoints: &[Coord]) -> Result<Self> {
        let mut pairs = Vec::new();
        for &ep in endpoints {
            let ep_id = mesh.node_id(ep)?;
            for n in mesh.nodes() {
                if n != ep_id {
                    pairs.push((n, ep_id));
                    pairs.push((ep_id, n));
                }
            }
        }
        Self::from_pairs(mesh, pairs)
    }

    /// The mesh this flow set is defined over.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Returns `true` if the set contains no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The flows in the set.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Iterates over `(FlowId, Flow)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, Flow)> + '_ {
        self.flows.iter().enumerate().map(|(i, f)| (FlowId(i), *f))
    }

    /// The flow with the given id.
    pub fn flow(&self, id: FlowId) -> Option<Flow> {
        self.flows.get(id.0).copied()
    }

    /// The XY route of the flow with the given id.
    pub fn route(&self, id: FlowId) -> Option<&Route> {
        self.routes.get(id.0)
    }

    /// Looks up the id of the flow from `src` to `dst`, if present.
    pub fn find(&self, src: NodeId, dst: NodeId) -> Option<FlowId> {
        self.flows
            .iter()
            .position(|f| f.src == src && f.dst == dst)
            .map(FlowId)
    }

    /// Flows whose route enters router `router` through input port `input`.
    pub fn flows_through_input(&self, router: Coord, input: Port) -> Vec<FlowId> {
        self.routes
            .iter()
            .enumerate()
            .filter(|(_, r)| r.uses_input(router, input))
            .map(|(i, _)| FlowId(i))
            .collect()
    }

    /// Flows whose route leaves router `router` through output port `output`.
    pub fn flows_through_output(&self, router: Coord, output: Port) -> Vec<FlowId> {
        self.routes
            .iter()
            .enumerate()
            .filter(|(_, r)| r.uses_output(router, output))
            .map(|(i, _)| FlowId(i))
            .collect()
    }

    /// Number of flows entering `router` through `input` (the paper's `I_dir`).
    pub fn input_count(&self, router: Coord, input: Port) -> usize {
        self.flows_through_input(router, input).len()
    }

    /// Number of flows leaving `router` through `output` (the paper's `O_dir`).
    pub fn output_count(&self, router: Coord, output: Port) -> usize {
        self.flows_through_output(router, output).len()
    }

    /// Number of flows that enter `router` through `input` **and** leave through
    /// `output`.
    pub fn port_pair_count(&self, router: Coord, input: Port, output: Port) -> usize {
        self.routes
            .iter()
            .filter(|r| {
                r.hop_at(router)
                    .is_some_and(|h| h.input == input && h.output == output)
            })
            .count()
    }

    /// Flows that traverse the unidirectional link leaving `router` in direction
    /// `dir`.
    pub fn flows_on_link(&self, router: Coord, dir: Direction) -> Vec<FlowId> {
        self.flows_through_output(router, Port::Mesh(dir))
    }

    /// Returns `true` if every `(router, input)` port used by the set is used
    /// towards a **single** output port — i.e. flows sharing an input buffer
    /// never diverge.
    ///
    /// This is the platform class the WaW per-flow analysis is justified for
    /// (the paper's evaluation platform — every node to one memory controller
    /// — satisfies it by construction of XY routing): with FIFO input
    /// buffers, divergent flows inherit head-of-line blocking from output
    /// ports that are not on their own route, which no per-route bound can
    /// cover.  The conformance harness checks WaW + WaP dominance only on
    /// output-consistent flow sets and downgrades the analysis to
    /// ordering-only elsewhere.
    pub fn is_output_consistent(&self) -> bool {
        // The output each `(router, input)` buffer feeds so far, densely
        // indexed `node · 5 + input`; `None` until a flow uses the buffer.
        let width = usize::from(self.mesh.width());
        let mut feeds: Vec<Option<Port>> = vec![None; self.mesh.router_count() * Port::COUNT];
        for route in &self.routes {
            for hop in route.hops() {
                let node = usize::from(hop.router.y) * width + usize::from(hop.router.x);
                match &mut feeds[node * Port::COUNT + hop.input.index()] {
                    slot @ None => *slot = Some(hop.output),
                    Some(output) if *output != hop.output => return false,
                    Some(_) => {}
                }
            }
        }
        true
    }

    /// The (source, destination) pairs of the set, in flow-id order — the
    /// exact argument that rebuilds this set through [`FlowSet::from_pairs`].
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.flows.iter().map(|f| (f.src, f.dst)).collect()
    }

    /// Appends one flow to the set, routing it with XY routing.  The new flow
    /// takes the next dense [`FlowId`]; the resulting set is identical to
    /// rebuilding via [`FlowSet::from_pairs`] with the pair appended.
    ///
    /// # Errors
    ///
    /// Returns an error if `src == dst` or either node lies outside the mesh.
    pub fn push_pair(&mut self, src: NodeId, dst: NodeId) -> Result<FlowId> {
        let flow = Flow::new(src, dst)?;
        let src_c = self.mesh.coord_of(src)?;
        let dst_c = self.mesh.coord_of(dst)?;
        let route = XyRouting.route(&self.mesh, src_c, dst_c)?;
        self.flows.push(flow);
        self.routes.push(route);
        Ok(FlowId(self.flows.len() - 1))
    }

    /// Removes and returns the last flow of the set together with its route
    /// (the inverse of [`FlowSet::push_pair`]), or `None` if the set is empty.
    pub fn pop(&mut self) -> Option<(Flow, Route)> {
        let flow = self.flows.pop()?;
        let route = self.routes.pop().expect("flows and routes stay in step");
        Some((flow, route))
    }

    /// Replaces the flow at `id` with `(src, dst)`, re-routing it with XY
    /// routing, and returns the route the flow previously followed.  Every
    /// other flow keeps its id: the resulting set is identical to rebuilding
    /// via [`FlowSet::from_pairs`] with the pair swapped in place.
    ///
    /// # Errors
    ///
    /// Returns an error if `id` is out of range, `src == dst`, or either node
    /// lies outside the mesh.
    pub fn replace_pair(&mut self, id: FlowId, src: NodeId, dst: NodeId) -> Result<Route> {
        if id.0 >= self.flows.len() {
            return Err(Error::InvalidConfig {
                reason: format!("flow {id} out of range (set holds {})", self.flows.len()),
            });
        }
        let flow = Flow::new(src, dst)?;
        let src_c = self.mesh.coord_of(src)?;
        let dst_c = self.mesh.coord_of(dst)?;
        let route = XyRouting.route(&self.mesh, src_c, dst_c)?;
        self.flows[id.0] = flow;
        Ok(std::mem::replace(&mut self.routes[id.0], route))
    }
}

/// The paper's `I_dir` equations (Section III): number of **source nodes** whose
/// traffic can enter the router at `coord` through `input` under XY routing,
/// assuming every node may send to every other node.
///
/// These are `I_X+ = x`, `I_X- = N-1-x`, `I_Y+ = N·y`, `I_Y- = N·(M-1-y)`,
/// `I_PME = 1` (written in the symmetric form that matches the worked example
/// and Table I of the paper).  Note that these count *sources behind the port*,
/// not individual (source, destination) flows; the resulting `I/O` weight ratios
/// are identical to the flow-count ratios computed by [`FlowSet`] for the
/// all-to-all flow set, because the destination factor cancels out.
///
/// # Examples
///
/// ```
/// use wnoc_core::flow::paper_input_source_count;
/// use wnoc_core::geometry::Coord;
/// use wnoc_core::port::{Direction, Port};
/// use wnoc_core::topology::Mesh;
///
/// let mesh = Mesh::square(2)?;
/// // Paper worked example: at R(1,1), one source lies to the west (node 3)
/// // and two upstream of the north input (nodes 1 and 2).
/// let r11 = Coord::from_row_col(1, 1);
/// assert_eq!(paper_input_source_count(&mesh, r11, Port::Mesh(Direction::West)), 1);
/// assert_eq!(paper_input_source_count(&mesh, r11, Port::Mesh(Direction::North)), 2);
/// # Ok::<(), wnoc_core::Error>(())
/// ```
pub fn paper_input_source_count(mesh: &Mesh, coord: Coord, input: Port) -> usize {
    let n = usize::from(mesh.width());
    let m = usize::from(mesh.height());
    let x = usize::from(coord.x);
    let y = usize::from(coord.y);
    match input {
        Port::Local => 1,
        // Input facing west receives eastbound (X+) traffic from the x nodes that
        // precede this router in its row.
        Port::Mesh(Direction::West) => x,
        // Input facing east receives westbound (X-) traffic from the nodes that
        // follow this router in its row.
        Port::Mesh(Direction::East) => n - 1 - x,
        // Input facing north receives southbound (Y+) traffic; those flows have
        // already completed their X phase, so they may originate at any of the
        // N*y nodes in the rows above.
        Port::Mesh(Direction::North) => n * y,
        // Input facing south receives northbound (Y-) traffic from the rows below.
        Port::Mesh(Direction::South) => n * (m - 1 - y),
    }
}

/// The paper's `O_dir` equations (Section III): number of **source nodes** whose
/// traffic can leave the router at `coord` through `output` under XY routing,
/// assuming every node may send to every other node.
///
/// These are `O_X+ = x+1`, `O_X- = N-x`, `O_Y+ = N·(y+1)`, `O_Y- = N·(M-y)`,
/// `O_PME = N·M-1`.  See [`paper_input_source_count`] for the relationship with
/// the flow counts of [`FlowSet`].
pub fn paper_output_source_count(mesh: &Mesh, coord: Coord, output: Port) -> usize {
    let n = usize::from(mesh.width());
    let m = usize::from(mesh.height());
    let x = usize::from(coord.x);
    let y = usize::from(coord.y);
    match output {
        Port::Local => n * m - 1,
        // Output facing east carries eastbound traffic originating at this node
        // or any node west of it in the same row.
        Port::Mesh(Direction::East) => x + 1,
        Port::Mesh(Direction::West) => n - x,
        // Output facing south carries southbound traffic originating anywhere in
        // this row or the rows above.
        Port::Mesh(Direction::South) => n * (y + 1),
        Port::Mesh(Direction::North) => n * (m - y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_rejects_self_loop() {
        assert!(Flow::new(NodeId(3), NodeId(3)).is_err());
        assert!(Flow::new(NodeId(3), NodeId(4)).is_ok());
    }

    #[test]
    fn all_to_all_count() {
        let mesh = Mesh::square(3).unwrap();
        let fs = FlowSet::all_to_all(&mesh).unwrap();
        assert_eq!(fs.len(), 9 * 8);
        assert!(!fs.is_empty());
    }

    #[test]
    fn all_to_one_count() {
        let mesh = Mesh::square(8).unwrap();
        let fs = FlowSet::all_to_one(&mesh, Coord::from_row_col(0, 0)).unwrap();
        assert_eq!(fs.len(), 63);
        // Every flow targets node 0.
        assert!(fs.flows().iter().all(|f| f.dst == NodeId(0)));
    }

    #[test]
    fn one_to_all_count() {
        let mesh = Mesh::square(4).unwrap();
        let fs = FlowSet::one_to_all(&mesh, Coord::new(1, 1)).unwrap();
        assert_eq!(fs.len(), 15);
        assert!(fs
            .flows()
            .iter()
            .all(|f| f.src == mesh.node_id(Coord::new(1, 1)).unwrap()));
    }

    #[test]
    fn to_and_from_endpoints_counts_both_directions() {
        let mesh = Mesh::square(4).unwrap();
        let fs = FlowSet::to_and_from_endpoints(&mesh, &[Coord::new(0, 0)]).unwrap();
        assert_eq!(fs.len(), 2 * 15);
    }

    #[test]
    fn find_and_lookup() {
        let mesh = Mesh::square(2).unwrap();
        let fs = FlowSet::all_to_one(&mesh, Coord::new(0, 0)).unwrap();
        let id = fs.find(NodeId(3), NodeId(0)).unwrap();
        assert_eq!(fs.flow(id).unwrap().src, NodeId(3));
        assert!(fs.route(id).is_some());
        assert!(fs.find(NodeId(0), NodeId(3)).is_none());
    }

    #[test]
    fn paper_worked_example_2x2_router_r11() {
        // Section III: all flows with destination node 4 (= R(1,1)).  At R(1,1)
        // the west input carries 1 flow (from node 3) and the north input 2
        // flows (nodes 1 and 2); the local output carries all 3.
        let mesh = Mesh::square(2).unwrap();
        let fs = FlowSet::all_to_all(&mesh).unwrap();
        let r11 = Coord::from_row_col(1, 1);
        // Restricting to flows destined to R(1,1):
        let dst = mesh.node_id(r11).unwrap();
        let to_r11: Vec<FlowId> = fs
            .iter()
            .filter(|(_, f)| f.dst == dst)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(to_r11.len(), 3);
        let west_in = fs.flows_through_input(r11, Port::Mesh(Direction::West));
        let north_in = fs.flows_through_input(r11, Port::Mesh(Direction::North));
        let west_to_local: Vec<_> = west_in.iter().filter(|id| to_r11.contains(id)).collect();
        let north_to_local: Vec<_> = north_in.iter().filter(|id| to_r11.contains(id)).collect();
        assert_eq!(west_to_local.len(), 1);
        assert_eq!(north_to_local.len(), 2);
        assert_eq!(fs.output_count(r11, Port::Local), 3);
    }

    #[test]
    fn paper_source_counts_spot_values() {
        // 8x8 mesh, interior router R(3,2) => x = 2, y = 3, N = M = 8.
        let mesh = Mesh::square(8).unwrap();
        let r = Coord::from_row_col(3, 2);
        assert_eq!(
            paper_input_source_count(&mesh, r, Port::Mesh(Direction::West)),
            2
        );
        assert_eq!(
            paper_input_source_count(&mesh, r, Port::Mesh(Direction::East)),
            5
        );
        assert_eq!(
            paper_input_source_count(&mesh, r, Port::Mesh(Direction::North)),
            24
        );
        assert_eq!(
            paper_input_source_count(&mesh, r, Port::Mesh(Direction::South)),
            32
        );
        assert_eq!(paper_input_source_count(&mesh, r, Port::Local), 1);
        assert_eq!(
            paper_output_source_count(&mesh, r, Port::Mesh(Direction::East)),
            3
        );
        assert_eq!(
            paper_output_source_count(&mesh, r, Port::Mesh(Direction::West)),
            6
        );
        assert_eq!(
            paper_output_source_count(&mesh, r, Port::Mesh(Direction::South)),
            32
        );
        assert_eq!(
            paper_output_source_count(&mesh, r, Port::Mesh(Direction::North)),
            40
        );
        assert_eq!(paper_output_source_count(&mesh, r, Port::Local), 63);
    }

    #[test]
    fn paper_weight_ratio_matches_flow_count_ratio() {
        // For every legal (input, output) pair, I_dir/O_dir equals the ratio of
        // actual all-to-all flow counts: the destination multiplicity cancels.
        use crate::routing::xy_turn_allowed;
        for (w, h) in [(2u16, 2u16), (3, 3), (4, 3)] {
            let mesh = Mesh::new(w, h).unwrap();
            let fs = FlowSet::all_to_all(&mesh).unwrap();
            for router in mesh.routers() {
                for input in mesh.ports(router) {
                    for output in mesh.ports(router) {
                        if input == output || !xy_turn_allowed(input, output) {
                            continue;
                        }
                        let pair_flows = fs.port_pair_count(router, input, output);
                        let out_flows = fs.output_count(router, output);
                        if pair_flows == 0 || out_flows == 0 {
                            continue;
                        }
                        let flow_ratio = pair_flows as f64 / out_flows as f64;
                        let paper_ratio = paper_input_source_count(&mesh, router, input) as f64
                            / paper_output_source_count(&mesh, router, output) as f64;
                        assert!(
                            (flow_ratio - paper_ratio).abs() < 1e-9,
                            "ratio mismatch at {router} {input}->{output} in {w}x{h}: \
                             flows {flow_ratio} vs paper {paper_ratio}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn flow_conservation_at_every_router() {
        // Flows entering a router (that do not terminate there) equal flows
        // leaving it (that do not originate there).
        let mesh = Mesh::square(4).unwrap();
        let fs = FlowSet::all_to_all(&mesh).unwrap();
        for router in mesh.routers() {
            let inputs: usize = mesh
                .ports(router)
                .iter()
                .map(|p| fs.input_count(router, *p))
                .sum();
            let outputs: usize = mesh
                .ports(router)
                .iter()
                .map(|p| fs.output_count(router, *p))
                .sum();
            assert_eq!(inputs, outputs, "conservation violated at {router}");
        }
    }

    #[test]
    fn port_pair_counts_sum_to_output_count() {
        let mesh = Mesh::square(3).unwrap();
        let fs = FlowSet::all_to_one(&mesh, Coord::new(0, 0)).unwrap();
        for router in mesh.routers() {
            for output in mesh.ports(router) {
                let total: usize = mesh
                    .ports(router)
                    .iter()
                    .map(|input| fs.port_pair_count(router, *input, output))
                    .sum();
                assert_eq!(total, fs.output_count(router, output));
            }
        }
    }

    #[test]
    fn output_consistency_of_the_standard_families() {
        let mesh = Mesh::square(5).unwrap();
        // Single-destination funnels never diverge.
        for dst in [Coord::new(0, 0), Coord::new(2, 3), Coord::new(4, 4)] {
            assert!(FlowSet::all_to_one(&mesh, dst)
                .unwrap()
                .is_output_consistent());
        }
        // A broadcast source diverges immediately at its local input port.
        assert!(!FlowSet::one_to_all(&mesh, Coord::new(0, 0))
            .unwrap()
            .is_output_consistent());
        // Request/response endpoint platforms diverge along the response
        // distribution tree.
        assert!(!FlowSet::to_and_from_endpoints(&mesh, &[Coord::new(0, 0)])
            .unwrap()
            .is_output_consistent());
        // The empty set is trivially consistent.
        assert!(FlowSet::from_pairs(&mesh, Vec::new())
            .unwrap()
            .is_output_consistent());
    }

    #[test]
    fn output_count_map_consistent() {
        // The dense weight table is the output-count map of the set.
        let mesh = Mesh::square(3).unwrap();
        let fs = FlowSet::all_to_one(&mesh, Coord::new(2, 2)).unwrap();
        let table = crate::weights::WeightTable::from_flow_set(&fs);
        for router in mesh.routers() {
            for port in mesh.ports(router) {
                let expected = fs.output_count(router, port);
                assert_eq!(expected, table.output_flows(router, port) as usize);
            }
        }
    }

    #[test]
    fn link_flows_match_output_port_flows() {
        let mesh = Mesh::square(4).unwrap();
        let fs = FlowSet::all_to_one(&mesh, Coord::new(0, 0)).unwrap();
        for router in mesh.routers() {
            for dir in Direction::ALL {
                if mesh.has_port(router, dir) {
                    assert_eq!(
                        fs.flows_on_link(router, dir),
                        fs.flows_through_output(router, Port::Mesh(dir))
                    );
                }
            }
        }
    }
}
