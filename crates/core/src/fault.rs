//! Link/router fault injection and fault-tolerant deterministic rerouting.
//!
//! The paper's guarantees assume a fully healthy mesh.  This module models
//! *permanent* hardware failures — a directed link or a whole router dying at
//! a known activation cycle — and rebuilds deterministic, deadlock-free
//! routes around the surviving topology so the analyses can re-answer on the
//! degraded platform:
//!
//! * [`FaultPlan`] is a declarative schedule of failures (what dies, when),
//!   with seeded sampling helpers for campaign use.
//! * [`FaultSet`] is the instantaneous failure state at a given cycle:
//!   which routers are dead and which directed links are unusable.
//! * [`TreeRouting`] is the detour algorithm: a BFS spanning forest over the
//!   surviving routers routed up*/down* — every route climbs towards its
//!   tree's root and then descends, so the channel-dependency graph is
//!   acyclic and the routing is deadlock free *at any VC count*.  With
//!   `vcs == 1` that acyclicity is the entire argument; with `vcs ≥ 2` the
//!   highest-priority VC 0 doubles as the escape channel (it is always
//!   populated and drains independently of the lower-priority classes).
//!   Severed (source, destination) pairs report [`Error::Unreachable`]
//!   instead of fabricating a route through dead hardware.
//! * [`reroute_flows`] rebuilds a [`FlowSet`] on the degraded topology:
//!   **all** surviving flows are tree-routed (mixing XY-routed and
//!   tree-routed traffic could close a dependency cycle the turn model can
//!   no longer rule out), and severed pairs are reported alongside.
//! * [`RetransmitPolicy`] parameterises the NIC-side recovery loop: a purged
//!   (NACKed) message is reinjected after an exponentially growing backoff,
//!   up to a retry cap.
//!
//! Everything here is deterministic: same plan, same mesh, same seeds — same
//! routes, bit for bit.  That is what lets the conformance harness assert
//! that incrementally degraded oracles match freshly built ones exactly.

use std::fmt;

use crate::error::{Error, Result};
use crate::flow::{Flow, FlowId, FlowSet};
use crate::geometry::Coord;
use crate::port::{Direction, Port};
use crate::routing::RoutingAlgorithm;
use crate::topology::Mesh;

/// Index of a direction inside per-node `[T; 4]` tables ([`Direction::ALL`]
/// order).
fn dir_index(dir: Direction) -> usize {
    match dir {
        Direction::North => 0,
        Direction::South => 1,
        Direction::East => 2,
        Direction::West => 3,
    }
}

/// What fails: one directed link or one whole router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// The unidirectional link leaving `from` in direction `direction` stops
    /// transporting flits.  The opposite direction of the same physical
    /// channel is unaffected unless failed separately.
    Link {
        /// Upstream router of the failed directed link.
        from: Coord,
        /// Direction the failed link points in.
        direction: Direction,
    },
    /// The router at `at` dies entirely: every link touching it (both
    /// directions) and its local NIC become unusable.
    Router {
        /// Coordinate of the failed router.
        at: Coord,
    },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Link { from, direction } => write!(f, "link {from}->{direction}"),
            FaultKind::Router { at } => write!(f, "router {at}"),
        }
    }
}

/// One scheduled permanent failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// What fails.
    pub kind: FaultKind,
    /// Simulation cycle at which the failure takes effect.  Faults with
    /// `activation == 0` are active from the very first cycle (the
    /// "degraded from boot" case the analytical oracles can bound).
    pub activation: u64,
}

/// A deterministic schedule of permanent failures.
///
/// The plan is declarative — it does not care whether it is consumed by the
/// cycle-accurate simulator (which applies each fault at its activation
/// cycle) or by the analytical side (which typically asks for the
/// [`FaultPlan::final_set`] to bound the fully degraded steady state).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Creates an empty plan (the healthy-mesh identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if the plan schedules no failures.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled failures.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The scheduled failures, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Schedules the directed link leaving `from` towards `direction` to fail
    /// at `activation`.
    pub fn fail_link(&mut self, from: Coord, direction: Direction, activation: u64) -> &mut Self {
        self.faults.push(Fault {
            kind: FaultKind::Link { from, direction },
            activation,
        });
        self
    }

    /// Schedules the whole router at `at` to fail at `activation`.
    pub fn fail_router(&mut self, at: Coord, activation: u64) -> &mut Self {
        self.faults.push(Fault {
            kind: FaultKind::Router { at },
            activation,
        });
        self
    }

    /// Validates that every scheduled fault names hardware that exists in
    /// `mesh`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CoordOutOfBounds`] for a router outside the mesh and
    /// [`Error::InvalidConfig`] for a link that does not exist (e.g. an
    /// eastbound link on the eastern edge).
    pub fn validate(&self, mesh: &Mesh) -> Result<()> {
        for fault in &self.faults {
            match fault.kind {
                FaultKind::Router { at } => {
                    mesh.check(at)?;
                }
                FaultKind::Link { from, direction } => {
                    mesh.check(from)?;
                    if mesh.neighbor(from, direction).is_none() {
                        return Err(Error::InvalidConfig {
                            reason: format!("no link {from}->{direction} in {} mesh", mesh.dims()),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The distinct activation cycles of the plan, sorted ascending.
    pub fn activations(&self) -> Vec<u64> {
        let mut cycles: Vec<u64> = self.faults.iter().map(|f| f.activation).collect();
        cycles.sort_unstable();
        cycles.dedup();
        cycles
    }

    /// The earliest activation strictly after `cycle`, if any — the wake
    /// event the event-horizon scheduler must never skip over.
    pub fn next_activation_after(&self, cycle: u64) -> Option<u64> {
        self.faults
            .iter()
            .map(|f| f.activation)
            .filter(|&a| a > cycle)
            .min()
    }

    /// The failure state once every fault with `activation <= cycle` has
    /// taken effect.
    pub fn active_at(&self, mesh: &Mesh, cycle: u64) -> FaultSet {
        let mut set = FaultSet::empty(mesh);
        for fault in &self.faults {
            if fault.activation <= cycle {
                set.add(fault.kind);
            }
        }
        set
    }

    /// The fully degraded failure state (every scheduled fault active) — what
    /// the analytical oracles bound.
    pub fn final_set(&self, mesh: &Mesh) -> FaultSet {
        self.active_at(mesh, u64::MAX)
    }

    /// Samples `count` distinct directed-link failures, all activating at
    /// `activation`, deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the mesh has fewer than `count`
    /// directed links.
    pub fn sample_links(mesh: &Mesh, seed: u64, count: usize, activation: u64) -> Result<Self> {
        let links = mesh.links();
        if count > links.len() {
            return Err(Error::InvalidConfig {
                reason: format!(
                    "cannot sample {count} distinct link faults from {} links",
                    links.len()
                ),
            });
        }
        let mut rng = SplitMix64::new(seed);
        let mut picked: Vec<usize> = Vec::with_capacity(count);
        while picked.len() < count {
            let index = (rng.next() % links.len() as u64) as usize;
            if !picked.contains(&index) {
                picked.push(index);
            }
        }
        let mut plan = FaultPlan::new();
        for index in picked {
            let link = links[index];
            plan.fail_link(link.from, link.direction, activation);
        }
        Ok(plan)
    }

    /// Samples one whole-router failure activating at `activation`,
    /// deterministically from `seed`.
    pub fn sample_router(mesh: &Mesh, seed: u64, activation: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let index = (rng.next() % mesh.router_count() as u64) as usize;
        let coord = mesh
            .dims()
            .coord_of(crate::geometry::NodeId(index))
            .expect("sampled index is in range");
        let mut plan = FaultPlan::new();
        plan.fail_router(coord, activation);
        plan
    }
}

/// The canonical splitmix64 generator — dependency-free determinism for the
/// sampling helpers.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The instantaneous failure state of a mesh: which routers are dead and
/// which directed links are unusable.
///
/// A link is *unusable* if it was failed explicitly **or** either of its
/// endpoint routers is dead; [`FaultSet::link_usable`] folds both causes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSet {
    mesh: Mesh,
    router_dead: Vec<bool>,
    link_dead: Vec<[bool; 4]>,
}

impl FaultSet {
    /// The healthy state: nothing failed.
    pub fn empty(mesh: &Mesh) -> Self {
        Self {
            mesh: *mesh,
            router_dead: vec![false; mesh.router_count()],
            link_dead: vec![[false; 4]; mesh.router_count()],
        }
    }

    /// Marks one failure as active.  Coordinates outside the mesh are
    /// ignored (a plan is validated separately by [`FaultPlan::validate`]).
    pub fn add(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Router { at } => {
                if let Ok(id) = self.mesh.node_id(at) {
                    self.router_dead[id.index()] = true;
                }
            }
            FaultKind::Link { from, direction } => {
                if let Ok(id) = self.mesh.node_id(from) {
                    self.link_dead[id.index()][dir_index(direction)] = true;
                }
            }
        }
    }

    /// The mesh this failure state is defined over.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Returns `true` if nothing has failed.
    pub fn is_empty(&self) -> bool {
        !self.router_dead.iter().any(|&d| d) && !self.link_dead.iter().flatten().any(|&d| d)
    }

    /// Returns `true` if the router at `coord` is dead.
    pub fn router_failed(&self, coord: Coord) -> bool {
        self.mesh
            .node_id(coord)
            .map(|id| self.router_dead[id.index()])
            .unwrap_or(false)
    }

    /// Returns `true` if the directed link leaving `coord` towards `dir` was
    /// failed *explicitly* (router death is not folded in; see
    /// [`FaultSet::link_usable`]).
    pub fn link_failed(&self, coord: Coord, dir: Direction) -> bool {
        self.mesh
            .node_id(coord)
            .map(|id| self.link_dead[id.index()][dir_index(dir)])
            .unwrap_or(false)
    }

    /// Returns `true` if the directed link leaving `coord` towards `dir`
    /// exists and can transport flits: not explicitly failed and neither
    /// endpoint router dead.
    pub fn link_usable(&self, coord: Coord, dir: Direction) -> bool {
        let Some(to) = self.mesh.neighbor(coord, dir) else {
            return false;
        };
        !self.link_failed(coord, dir) && !self.router_failed(coord) && !self.router_failed(to)
    }

    /// Returns `true` if the *bidirectional* edge between `coord` and its
    /// `dir` neighbour is usable in both directions — the condition for the
    /// edge to join the routing tree (tree routes traverse edges both up and
    /// down, so a single failed direction removes the whole edge).
    pub fn edge_usable(&self, coord: Coord, dir: Direction) -> bool {
        match self.mesh.neighbor(coord, dir) {
            Some(to) => self.link_usable(coord, dir) && self.link_usable(to, dir.opposite()),
            None => false,
        }
    }

    /// Every explicitly failed directed link, in row-major/[`Direction::ALL`]
    /// order.
    pub fn failed_links(&self) -> Vec<(Coord, Direction)> {
        let mut out = Vec::new();
        for coord in self.mesh.routers() {
            let id = self.mesh.node_id(coord).expect("router is in mesh");
            for dir in Direction::ALL {
                if self.link_dead[id.index()][dir_index(dir)] {
                    out.push((coord, dir));
                }
            }
        }
        out
    }

    /// Every dead router, in row-major order.
    pub fn failed_routers(&self) -> Vec<Coord> {
        self.mesh
            .routers()
            .filter(|&c| self.router_failed(c))
            .collect()
    }
}

/// Deterministic fault-tolerant detour routing: a BFS spanning forest over
/// the surviving routers, routed up*/down*.
///
/// Construction is canonical — trees are rooted at the lowest surviving node
/// id of each connected component, and BFS explores neighbours in
/// [`Direction::ALL`] order — so the same fault set always yields the same
/// forest and therefore the same routes.
///
/// Every route climbs from the source towards the root until it reaches the
/// lowest common ancestor of source and destination, then descends.  Order
/// links by `(tree edge, up-before-down)`: an "up" traversal only ever waits
/// on links strictly closer to the root and "down" traversals only on links
/// strictly further from it, so the channel-dependency graph is acyclic and
/// wormhole routing over the forest cannot deadlock — with a single VC, and
/// a fortiori with several.
///
/// The algorithm is *destination-consistent*: the output port depends only
/// on the current router and the destination, so it is expressible as the
/// same per-destination LUT the simulator's routers already use
/// ([`TreeRouting::lut_for`]).
#[derive(Debug, Clone)]
pub struct TreeRouting {
    mesh: Mesh,
    /// Component id per node, `None` for dead routers.
    component: Vec<Option<u32>>,
    /// Parent node index, `None` for roots and dead routers.
    parent: Vec<Option<usize>>,
    /// Hops to the component root (0 at the root).
    depth: Vec<u32>,
}

impl TreeRouting {
    /// Builds the spanning forest of the surviving topology.
    pub fn new(faults: &FaultSet) -> Self {
        let mesh = *faults.mesh();
        let count = mesh.router_count();
        let mut component: Vec<Option<u32>> = vec![None; count];
        let mut parent: Vec<Option<usize>> = vec![None; count];
        let mut depth: Vec<u32> = vec![0; count];
        let mut components = 0u32;
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        for root in 0..count {
            let root_coord = mesh
                .dims()
                .coord_of(crate::geometry::NodeId(root))
                .expect("index in range");
            if component[root].is_some() || faults.router_failed(root_coord) {
                continue;
            }
            component[root] = Some(components);
            queue.push_back(root);
            while let Some(at) = queue.pop_front() {
                let at_coord = mesh
                    .dims()
                    .coord_of(crate::geometry::NodeId(at))
                    .expect("index in range");
                for dir in Direction::ALL {
                    if !faults.edge_usable(at_coord, dir) {
                        continue;
                    }
                    let next_coord = mesh.neighbor(at_coord, dir).expect("edge exists");
                    let next = mesh
                        .node_id(next_coord)
                        .expect("neighbour is in mesh")
                        .index();
                    if component[next].is_some() {
                        continue;
                    }
                    component[next] = Some(components);
                    parent[next] = Some(at);
                    depth[next] = depth[at] + 1;
                    queue.push_back(next);
                }
            }
            components += 1;
        }
        Self {
            mesh,
            component,
            parent,
            depth,
        }
    }

    fn index_of(&self, coord: Coord) -> Result<usize> {
        Ok(self.mesh.node_id(coord)?.index())
    }

    /// Returns `true` if the router at `coord` survived and joined the
    /// forest.
    pub fn alive(&self, coord: Coord) -> bool {
        self.index_of(coord)
            .map(|i| self.component[i].is_some())
            .unwrap_or(false)
    }

    /// Returns `true` if traffic can get from `src` to `dst` on the
    /// surviving topology: both routers alive and in the same connected
    /// component.
    pub fn reachable(&self, src: Coord, dst: Coord) -> bool {
        match (self.index_of(src), self.index_of(dst)) {
            (Ok(s), Ok(d)) => self.component[s].is_some() && self.component[s] == self.component[d],
            _ => false,
        }
    }

    /// Walks `node` up the tree until it sits at `target_depth`.
    fn lift(&self, mut node: usize, target_depth: u32) -> usize {
        while self.depth[node] > target_depth {
            node = self.parent[node].expect("depth > 0 implies a parent");
        }
        node
    }

    /// The mesh direction from `from` to its adjacent tree neighbour `to`.
    fn direction_towards(&self, from: usize, to: usize) -> Direction {
        let from_c = self
            .mesh
            .dims()
            .coord_of(crate::geometry::NodeId(from))
            .expect("index in range");
        let to_c = self
            .mesh
            .dims()
            .coord_of(crate::geometry::NodeId(to))
            .expect("index in range");
        for dir in Direction::ALL {
            if dir.step(from_c) == Some(to_c) {
                return dir;
            }
        }
        unreachable!("tree edges connect mesh neighbours")
    }

    /// The per-destination output-port LUT of the router at `at` — the table
    /// the simulator swaps in at fault activation.  Destinations that are
    /// unreachable from `at` (dead or in another component) get a
    /// [`Port::Local`] placeholder; the simulator never consults those
    /// entries because severed traffic is purged at activation and NICs
    /// refuse to inject towards unreachable destinations.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unreachable`] if `at` itself is dead (a dead
    /// router's LUT is never swapped — it stops routing entirely) and
    /// [`Error::CoordOutOfBounds`] if `at` lies outside the mesh.
    pub fn lut_for(&self, at: Coord) -> Result<Vec<Port>> {
        let at_index = self.index_of(at)?;
        if self.component[at_index].is_none() {
            let node = crate::geometry::NodeId(at_index);
            return Err(Error::Unreachable {
                src: node,
                dst: node,
            });
        }
        let mut lut = Vec::with_capacity(self.mesh.router_count());
        for dst in self.mesh.routers() {
            if self.reachable(at, dst) {
                lut.push(self.output_port(&self.mesh, at, dst)?);
            } else {
                lut.push(Port::Local);
            }
        }
        Ok(lut)
    }
}

impl RoutingAlgorithm for TreeRouting {
    fn output_port(&self, mesh: &Mesh, at: Coord, dst: Coord) -> Result<Port> {
        if !mesh.contains(at) || !mesh.contains(dst) {
            return Err(Error::InvalidRoute { src: at, dst });
        }
        let at_index = self.index_of(at)?;
        let dst_index = self.index_of(dst)?;
        if self.component[at_index].is_none()
            || self.component[at_index] != self.component[dst_index]
        {
            return Err(Error::Unreachable {
                src: mesh.node_id(at)?,
                dst: mesh.node_id(dst)?,
            });
        }
        if at_index == dst_index {
            return Ok(Port::Local);
        }
        // Up*/down*: climb while `at` is not an ancestor of `dst`, then
        // descend along `dst`'s ancestor chain.
        let lifted = self.lift(dst_index, self.depth[at_index].min(self.depth[dst_index]));
        let at_is_ancestor = self.depth[at_index] <= self.depth[dst_index] && lifted == at_index;
        if !at_is_ancestor {
            let up = self.parent[at_index].expect("non-ancestor non-root has a parent");
            return Ok(Port::Mesh(self.direction_towards(at_index, up)));
        }
        // Find the child of `at` on the path down to `dst`.
        let child = self.lift(dst_index, self.depth[at_index] + 1);
        Ok(Port::Mesh(self.direction_towards(at_index, child)))
    }
}

/// The result of rerouting a flow set around a failure state: the surviving
/// flows (tree-routed, re-indexed densely) plus the severed pairs.
#[derive(Debug, Clone)]
pub struct Reroute {
    /// The surviving flows on the degraded topology, **all** routed with the
    /// spanning forest (mixing XY-routed and tree-routed traffic could close
    /// a channel-dependency cycle), re-indexed with dense [`FlowId`]s.
    pub flows: FlowSet,
    /// For each flow of `flows`, in order: the [`FlowId`] it had in the
    /// original set.
    pub surviving: Vec<FlowId>,
    /// The flows whose (source, destination) pair the fault set severed,
    /// with their original ids.
    pub severed: Vec<(FlowId, Flow)>,
}

/// Reroutes `flows` over the spanning forest `tree`, separating surviving
/// from severed pairs.
///
/// # Errors
///
/// Propagates route-construction failures (which indicate a bug: pairs the
/// forest reports reachable always have a tree route).
pub fn reroute_flows(flows: &FlowSet, tree: &TreeRouting) -> Result<Reroute> {
    let mesh = flows.mesh();
    let mut surviving = Vec::new();
    let mut severed = Vec::new();
    let mut pairs = Vec::new();
    for (id, flow) in flows.iter() {
        let src = mesh.coord_of(flow.src)?;
        let dst = mesh.coord_of(flow.dst)?;
        if tree.reachable(src, dst) {
            surviving.push(id);
            pairs.push((flow.src, flow.dst));
        } else {
            severed.push((id, flow));
        }
    }
    let flows = FlowSet::from_pairs_with(mesh, pairs, tree)?;
    Ok(Reroute {
        flows,
        surviving,
        severed,
    })
}

/// NIC-side recovery parameters for traffic purged by a fault activation.
///
/// A purged (NACKed) message is reinjected `timeout << retry` cycles after
/// the NACK — exponential backoff keeps a retransmission storm from
/// re-wedging a freshly degraded network.  A message NACKed more than
/// `max_retries` times is dropped and counted as undeliverable (with
/// permanent faults this only happens to pairs the fault set severed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitPolicy {
    /// Base reinjection delay in cycles (first retry).
    pub timeout: u64,
    /// Maximum number of reinjection attempts per message.
    pub max_retries: u32,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        Self {
            timeout: 64,
            max_retries: 8,
        }
    }
}

impl RetransmitPolicy {
    /// The reinjection delay for the `retry`-th attempt (0-based):
    /// `timeout << retry`, saturating.
    pub fn backoff_delay(&self, retry: u32) -> u64 {
        match 1u64.checked_shl(retry) {
            Some(factor) => self.timeout.saturating_mul(factor),
            None => u64::MAX,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::NodeId;
    use crate::routing::XyRouting;

    fn mesh(side: u16) -> Mesh {
        Mesh::square(side).unwrap()
    }

    fn healthy_tree(m: &Mesh) -> TreeRouting {
        TreeRouting::new(&FaultSet::empty(m))
    }

    #[test]
    fn plan_activations_sorted_and_deduped() {
        let mut plan = FaultPlan::new();
        plan.fail_link(Coord::new(0, 0), Direction::East, 500)
            .fail_router(Coord::new(1, 1), 100)
            .fail_link(Coord::new(1, 0), Direction::South, 500);
        assert_eq!(plan.activations(), vec![100, 500]);
        assert_eq!(plan.next_activation_after(0), Some(100));
        assert_eq!(plan.next_activation_after(100), Some(500));
        assert_eq!(plan.next_activation_after(500), None);
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().next_activation_after(0).is_none());
    }

    #[test]
    fn plan_validate_rejects_missing_hardware() {
        let m = mesh(3);
        let mut plan = FaultPlan::new();
        plan.fail_link(Coord::new(2, 0), Direction::East, 0);
        assert!(plan.validate(&m).is_err());
        let mut plan = FaultPlan::new();
        plan.fail_router(Coord::new(5, 5), 0);
        assert!(plan.validate(&m).is_err());
        let mut plan = FaultPlan::new();
        plan.fail_link(Coord::new(1, 1), Direction::East, 0)
            .fail_router(Coord::new(0, 2), 7);
        assert!(plan.validate(&m).is_ok());
    }

    #[test]
    fn active_at_respects_activation_cycles() {
        let m = mesh(3);
        let mut plan = FaultPlan::new();
        plan.fail_link(Coord::new(0, 0), Direction::East, 100)
            .fail_router(Coord::new(2, 2), 200);
        let at_0 = plan.active_at(&m, 0);
        assert!(at_0.is_empty());
        let at_100 = plan.active_at(&m, 100);
        assert!(at_100.link_failed(Coord::new(0, 0), Direction::East));
        assert!(!at_100.router_failed(Coord::new(2, 2)));
        let final_set = plan.final_set(&m);
        assert!(final_set.router_failed(Coord::new(2, 2)));
        assert_eq!(
            final_set.failed_links(),
            vec![(Coord::new(0, 0), Direction::East)]
        );
        assert_eq!(final_set.failed_routers(), vec![Coord::new(2, 2)]);
    }

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let m = mesh(4);
        let a = FaultPlan::sample_links(&m, 42, 3, 0).unwrap();
        let b = FaultPlan::sample_links(&m, 42, 3, 0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut kinds: Vec<FaultKind> = a.faults().iter().map(|f| f.kind).collect();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), 3);
        assert!(a.validate(&m).is_ok());
        let c = FaultPlan::sample_links(&m, 43, 3, 0).unwrap();
        assert_ne!(a, c);
        let r = FaultPlan::sample_router(&m, 7, 100);
        assert_eq!(r, FaultPlan::sample_router(&m, 7, 100));
        assert!(r.validate(&m).is_ok());
        assert!(FaultPlan::sample_links(&m, 1, 10_000, 0).is_err());
    }

    #[test]
    fn link_usability_folds_router_death() {
        let m = mesh(3);
        let mut set = FaultSet::empty(&m);
        set.add(FaultKind::Router {
            at: Coord::new(1, 1),
        });
        // Every link touching the dead router is unusable in both directions.
        assert!(!set.link_usable(Coord::new(1, 1), Direction::East));
        assert!(!set.link_usable(Coord::new(0, 1), Direction::East));
        assert!(!set.edge_usable(Coord::new(0, 1), Direction::East));
        // But the explicit-failure query stays false: only the router died.
        assert!(!set.link_failed(Coord::new(0, 1), Direction::East));
        // Links elsewhere are unaffected.
        assert!(set.link_usable(Coord::new(0, 0), Direction::East));
        // A single failed direction removes the whole tree edge.
        let mut set = FaultSet::empty(&m);
        set.add(FaultKind::Link {
            from: Coord::new(0, 0),
            direction: Direction::East,
        });
        assert!(!set.link_usable(Coord::new(0, 0), Direction::East));
        assert!(set.link_usable(Coord::new(1, 0), Direction::West));
        assert!(!set.edge_usable(Coord::new(0, 0), Direction::East));
        assert!(!set.edge_usable(Coord::new(1, 0), Direction::West));
    }

    #[test]
    fn healthy_tree_connects_every_pair() {
        let m = mesh(4);
        let tree = healthy_tree(&m);
        for src in m.routers() {
            for dst in m.routers() {
                assert!(tree.reachable(src, dst));
                let route = tree.route(&m, src, dst).unwrap();
                assert_eq!(route.hops().first().unwrap().router, src);
                assert_eq!(route.hops().last().unwrap().router, dst);
                assert_eq!(route.hops().last().unwrap().output, Port::Local);
            }
        }
    }

    #[test]
    fn tree_routes_are_up_then_down() {
        // The deadlock-freedom certificate: every route's depth profile
        // strictly descends towards the root and then strictly ascends —
        // no route ever goes down the tree and back up.
        let m = mesh(5);
        let faults = FaultPlan::sample_links(&m, 99, 3, 0).unwrap().final_set(&m);
        let tree = TreeRouting::new(&faults);
        for src in m.routers() {
            for dst in m.routers() {
                if !tree.reachable(src, dst) {
                    continue;
                }
                let route = tree.route(&m, src, dst).unwrap();
                let depths: Vec<u32> = route
                    .hops()
                    .iter()
                    .map(|h| {
                        let i = m.node_id(h.router).unwrap().index();
                        tree.depth[i]
                    })
                    .collect();
                let mut descending = true;
                for pair in depths.windows(2) {
                    if descending && pair[1] > pair[0] {
                        descending = false;
                    }
                    if descending {
                        assert_eq!(pair[1], pair[0] - 1, "route must climb one hop at a time");
                    } else {
                        assert_eq!(pair[1], pair[0] + 1, "route must descend after the LCA");
                    }
                }
            }
        }
    }

    #[test]
    fn tree_routes_avoid_failed_hardware() {
        let m = mesh(5);
        for seed in 0..20u64 {
            let mut plan = FaultPlan::sample_links(&m, seed, 2, 0).unwrap();
            let router_plan = FaultPlan::sample_router(&m, seed, 0);
            for f in router_plan.faults() {
                plan.faults.push(*f);
            }
            let faults = plan.final_set(&m);
            let tree = TreeRouting::new(&faults);
            for src in m.routers() {
                for dst in m.routers() {
                    if !tree.reachable(src, dst) {
                        continue;
                    }
                    let route = tree.route(&m, src, dst).unwrap();
                    for hop in route.hops() {
                        assert!(
                            !faults.router_failed(hop.router),
                            "route visits dead router"
                        );
                        if let Port::Mesh(dir) = hop.output {
                            assert!(
                                faults.link_usable(hop.router, dir),
                                "route {src}->{dst} uses dead link {}->{dir} (seed {seed})",
                                hop.router,
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dead_router_pairs_are_unreachable() {
        let m = mesh(3);
        let mut set = FaultSet::empty(&m);
        set.add(FaultKind::Router {
            at: Coord::new(1, 1),
        });
        let tree = TreeRouting::new(&set);
        let dead = Coord::new(1, 1);
        assert!(!tree.alive(dead));
        for other in m.routers() {
            if other == dead {
                continue;
            }
            assert!(tree.alive(other));
            assert!(!tree.reachable(other, dead));
            assert!(!tree.reachable(dead, other));
            // The 3x3 mesh minus its centre stays connected around the rim.
            assert!(tree.reachable(other, Coord::new(0, 0)));
            match tree.route(&m, other, dead) {
                Err(Error::Unreachable { .. }) => {}
                other => panic!("expected Unreachable, got {other:?}"),
            }
        }
        assert!(tree.lut_for(dead).is_err());
    }

    #[test]
    fn partition_splits_components() {
        // Cut both columns of a 2x2 mesh horizontally (both directions of
        // both vertical edges): rows become separate components.
        let m = mesh(2);
        let mut set = FaultSet::empty(&m);
        for x in 0..2 {
            set.add(FaultKind::Link {
                from: Coord::new(x, 0),
                direction: Direction::South,
            });
        }
        // Failing one direction is enough to drop the tree edge.
        let tree = TreeRouting::new(&set);
        let top = [Coord::new(0, 0), Coord::new(1, 0)];
        let bottom = [Coord::new(0, 1), Coord::new(1, 1)];
        for &a in &top {
            for &b in &bottom {
                assert!(!tree.reachable(a, b));
                assert!(!tree.reachable(b, a));
            }
        }
        assert!(tree.reachable(top[0], top[1]));
        assert!(tree.reachable(bottom[0], bottom[1]));
        // Intra-component routes still exist.
        assert!(tree.route(&m, bottom[0], bottom[1]).is_ok());
    }

    #[test]
    fn output_port_matches_full_route_everywhere() {
        // Destination consistency: the LUT answer at every intermediate
        // router agrees with the route walked from the source.
        let m = mesh(4);
        let faults = FaultPlan::sample_links(&m, 5, 3, 0).unwrap().final_set(&m);
        let tree = TreeRouting::new(&faults);
        for src in m.routers() {
            for dst in m.routers() {
                if !tree.reachable(src, dst) {
                    continue;
                }
                let route = tree.route(&m, src, dst).unwrap();
                for hop in route.hops() {
                    assert_eq!(tree.output_port(&m, hop.router, dst).unwrap(), hop.output);
                }
            }
        }
    }

    #[test]
    fn lut_matches_output_port() {
        let m = mesh(3);
        let faults = FaultPlan::sample_router(&m, 3, 0).final_set(&m);
        let tree = TreeRouting::new(&faults);
        for at in m.routers() {
            if !tree.alive(at) {
                continue;
            }
            let lut = tree.lut_for(at).unwrap();
            assert_eq!(lut.len(), m.router_count());
            for dst in m.routers() {
                let entry = lut[m.node_id(dst).unwrap().index()];
                if tree.reachable(at, dst) {
                    assert_eq!(entry, tree.output_port(&m, at, dst).unwrap());
                } else {
                    assert_eq!(entry, Port::Local);
                }
            }
        }
    }

    #[test]
    fn reroute_partitions_surviving_from_severed() {
        let m = mesh(3);
        let flows = FlowSet::all_to_one(&m, Coord::new(0, 0)).unwrap();
        let mut set = FaultSet::empty(&m);
        set.add(FaultKind::Router {
            at: Coord::new(2, 2),
        });
        let tree = TreeRouting::new(&set);
        let reroute = reroute_flows(&flows, &tree).unwrap();
        // Exactly the flow sourced at the dead router is severed.
        assert_eq!(reroute.severed.len(), 1);
        assert_eq!(
            reroute.severed[0].1.src,
            m.node_id(Coord::new(2, 2)).unwrap()
        );
        assert_eq!(reroute.flows.len(), flows.len() - 1);
        assert_eq!(reroute.surviving.len(), reroute.flows.len());
        // Original ids are preserved in order and skip the severed one.
        let severed_id = reroute.severed[0].0;
        let mut expected: Vec<FlowId> = flows.iter().map(|(id, _)| id).collect();
        expected.retain(|id| *id != severed_id);
        assert_eq!(reroute.surviving, expected);
        // Every surviving route avoids the dead router.
        for (i, _) in reroute.flows.iter() {
            let route = reroute.flows.route(i).unwrap();
            assert!(!route.visits(Coord::new(2, 2)));
        }
    }

    #[test]
    fn empty_fault_set_reroutes_everything_tree_style() {
        // With no faults every pair survives, but routes are tree routes,
        // not XY routes — callers only switch to the tree when a fault is
        // actually active.
        let m = mesh(3);
        let flows = FlowSet::all_to_all(&m).unwrap();
        let tree = healthy_tree(&m);
        let reroute = reroute_flows(&flows, &tree).unwrap();
        assert!(reroute.severed.is_empty());
        assert_eq!(reroute.flows.len(), flows.len());
        // Spot check: the tree is rooted at node 0, so a flow between two
        // leaves of different subtrees does not follow the XY route.
        let src = Coord::new(2, 2);
        let dst = Coord::new(0, 2);
        let xy = XyRouting.route(&m, src, dst).unwrap();
        let id = reroute
            .flows
            .find(m.node_id(src).unwrap(), m.node_id(dst).unwrap());
        let tree_route = reroute.flows.route(id.unwrap()).unwrap();
        assert!(tree_route.hops().len() >= xy.hops().len());
    }

    #[test]
    fn retransmit_backoff_doubles_and_saturates() {
        let policy = RetransmitPolicy {
            timeout: 64,
            max_retries: 8,
        };
        assert_eq!(policy.backoff_delay(0), 64);
        assert_eq!(policy.backoff_delay(1), 128);
        assert_eq!(policy.backoff_delay(4), 1024);
        assert_eq!(policy.backoff_delay(63), u64::MAX);
        assert_eq!(policy.backoff_delay(64), u64::MAX);
        assert_eq!(RetransmitPolicy::default().timeout, 64);
    }

    #[test]
    fn fault_kind_display() {
        let link = FaultKind::Link {
            from: Coord::new(1, 2),
            direction: Direction::East,
        };
        assert_eq!(link.to_string(), "link R(2,1)->E");
        let router = FaultKind::Router {
            at: Coord::new(0, 0),
        };
        assert_eq!(router.to_string(), "router R(0,0)");
    }

    #[test]
    fn tree_is_deterministic() {
        let m = mesh(6);
        let faults = FaultPlan::sample_links(&m, 11, 3, 0).unwrap().final_set(&m);
        let a = TreeRouting::new(&faults);
        let b = TreeRouting::new(&faults);
        for src in m.routers() {
            let (Ok(la), Ok(lb)) = (a.lut_for(src), b.lut_for(src)) else {
                assert_eq!(a.alive(src), b.alive(src));
                continue;
            };
            assert_eq!(la, lb);
        }
        assert_eq!(a.component, b.component);
        assert_eq!(a.parent, b.parent);
    }

    #[test]
    fn node_failure_matches_nodeid_index() {
        // NodeId round-trip sanity for the index-based internals.
        let m = mesh(3);
        for node in m.nodes() {
            let coord = m.coord_of(node).unwrap();
            assert_eq!(m.node_id(coord).unwrap(), node);
            assert_eq!(node, NodeId(node.index()));
        }
    }
}
