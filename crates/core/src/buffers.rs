//! Router input-buffer sizing as a first-class design parameter.
//!
//! The paper's analyses treat router buffering as fixed (the simulator's
//! historical 4-flit input buffers), but the related buffer-aware analyses
//! (Mifdaoui & Ayed, arXiv:1602.01732; Giroudot & Mifdaoui, arXiv:1911.02430)
//! show buffer capacity is the dominant lever on wormhole WCTT tightness:
//! bounds improve as buffers deepen and degrade towards the backpressured
//! regime as they shrink.  [`BufferConfig`] makes that axis explicit:
//!
//! * [`BufferConfig::Uniform`] — every input buffer of every router has the
//!   same depth (today's behaviour; the default derives the depth from
//!   [`NocConfig::input_buffer_flits`](crate::config::NocConfig));
//! * [`BufferConfig::PerRouter`] — one depth per router, shared by its ports;
//! * [`BufferConfig::PerPort`] — a depth per `(router, input port)`, the
//!   fully heterogeneous design point.
//!
//! The configuration describes **input buffers**.  Credit counters are always
//! *derived*: the credits an upstream router holds towards a neighbour equal
//! the depth of that neighbour's input buffer on the connecting port, and
//! [`BufferConfig::credits_towards`] is the single place that mapping lives
//! (`wnoc-sim` sizes every ring and counter through it, and asserts the
//! invariant at construction).

use crate::error::{Error, Result};
use crate::geometry::NodeId;
use crate::port::Port;
use crate::topology::Mesh;

/// Input-buffer depths for every router of a mesh, in flits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BufferConfig {
    /// Every input buffer of every router holds `depth` flits.
    Uniform {
        /// Buffer depth in flits (≥ 1).
        depth: u32,
    },
    /// One depth per router (indexed by [`NodeId`]), shared by all of the
    /// router's input ports.
    PerRouter {
        /// `depths[node]` is the depth of every input buffer of that router.
        depths: Vec<u32>,
    },
    /// A depth per `(router, input port)`, indexed by [`NodeId`] and
    /// [`Port::index`].
    PerPort {
        /// `depths[node][port]` is the depth of that input buffer.
        depths: Vec<[u32; Port::COUNT]>,
    },
}

impl BufferConfig {
    /// A depth deep enough that credit backpressure effectively never engages
    /// on campaign-scale platforms (mesh sides ≤ 12, closed-loop probing):
    /// the conformance harness' "∞-equivalent" sweep point.  The analytic
    /// models accept arbitrarily larger depths (their backpressure terms
    /// vanish in the limit); the simulator needs a finite ring to allocate.
    pub const INFINITE_EQUIVALENT: u32 = 64;

    /// Uniform buffers of `depth` flits.
    pub fn uniform(depth: u32) -> Self {
        BufferConfig::Uniform { depth }
    }

    /// The depth of the input buffer of `port` at router `node`.
    ///
    /// Out-of-range nodes fall back to the last configured entry (callers
    /// validate against the mesh first; the fallback keeps the lookup total).
    pub fn depth(&self, node: NodeId, port: Port) -> u32 {
        match self {
            BufferConfig::Uniform { depth } => *depth,
            BufferConfig::PerRouter { depths } => depths
                .get(node.index())
                .or_else(|| depths.last())
                .copied()
                .unwrap_or(1),
            BufferConfig::PerPort { depths } => depths
                .get(node.index())
                .or_else(|| depths.last())
                .map_or(1, |row| row[port.index()]),
        }
    }

    /// Credits an upstream router holds for its output towards `downstream`'s
    /// input `port` — by definition the depth of that input buffer.  This is
    /// the **only** place credits are derived from buffer depths; every credit
    /// counter in `wnoc-sim` is sized through it.
    pub fn credits_towards(&self, downstream: NodeId, input: Port) -> u32 {
        self.depth(downstream, input)
    }

    /// Smallest configured depth (over every router and port).
    pub fn min_depth(&self) -> u32 {
        match self {
            BufferConfig::Uniform { depth } => *depth,
            BufferConfig::PerRouter { depths } => depths.iter().copied().min().unwrap_or(1),
            BufferConfig::PerPort { depths } => depths
                .iter()
                .flat_map(|row| row.iter().copied())
                .min()
                .unwrap_or(1),
        }
    }

    /// Largest configured depth (over every router and port).
    pub fn max_depth(&self) -> u32 {
        match self {
            BufferConfig::Uniform { depth } => *depth,
            BufferConfig::PerRouter { depths } => depths.iter().copied().max().unwrap_or(1),
            BufferConfig::PerPort { depths } => depths
                .iter()
                .flat_map(|row| row.iter().copied())
                .max()
                .unwrap_or(1),
        }
    }

    /// Returns `true` if every buffer has exactly `depth` flits — used to
    /// recognise the "today's design" default regardless of representation.
    pub fn is_uniform_depth(&self, depth: u32) -> bool {
        self.min_depth() == depth && self.max_depth() == depth
    }

    /// A copy with every depth multiplied by `factor` (saturating) — the
    /// uniformly-deepened design the monotonicity checks compare against.
    pub fn scaled(&self, factor: u32) -> Self {
        let scale = |d: u32| d.saturating_mul(factor).max(1);
        match self {
            BufferConfig::Uniform { depth } => BufferConfig::Uniform {
                depth: scale(*depth),
            },
            BufferConfig::PerRouter { depths } => BufferConfig::PerRouter {
                depths: depths.iter().copied().map(scale).collect(),
            },
            BufferConfig::PerPort { depths } => BufferConfig::PerPort {
                depths: depths.iter().map(|row| row.map(scale)).collect(),
            },
        }
    }

    /// A copy (in [`BufferConfig::PerPort`] form) with the single buffer at
    /// `(node, port)` set to `depth`, every other buffer unchanged.  `mesh`
    /// supplies the router count for the expansion.
    pub fn with_buffer_depth(&self, mesh: &Mesh, node: NodeId, port: Port, depth: u32) -> Self {
        let mut depths: Vec<[u32; Port::COUNT]> = (0..mesh.router_count())
            .map(|index| {
                let mut row = [1; Port::COUNT];
                for p in Port::ALL {
                    row[p.index()] = self.depth(NodeId(index), p);
                }
                row
            })
            .collect();
        if let Some(row) = depths.get_mut(node.index()) {
            row[port.index()] = depth;
        }
        BufferConfig::PerPort { depths }
    }

    /// Validates the configuration against `mesh`: every depth at least one
    /// flit, per-router/per-port tables covering every router.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on a zero depth or a table whose
    /// length does not match the mesh's router count.
    pub fn validate(&self, mesh: &Mesh) -> Result<()> {
        let routers = mesh.router_count();
        let table_len = match self {
            BufferConfig::Uniform { .. } => None,
            BufferConfig::PerRouter { depths } => Some(depths.len()),
            BufferConfig::PerPort { depths } => Some(depths.len()),
        };
        if let Some(len) = table_len {
            if len != routers {
                return Err(Error::InvalidConfig {
                    reason: format!(
                        "buffer config covers {len} routers but the mesh has {routers}"
                    ),
                });
            }
        }
        if self.min_depth() == 0 {
            return Err(Error::InvalidConfig {
                reason: "input buffers must hold at least one flit".to_string(),
            });
        }
        Ok(())
    }

    /// Short label for reports: `d=4` for uniform configs, `d=1..8` for
    /// heterogeneous ones.
    pub fn label(&self) -> String {
        let (min, max) = (self.min_depth(), self.max_depth());
        if min == max {
            format!("d={min}")
        } else {
            format!("d={min}..{max}")
        }
    }

    /// The depth governing backpressure at a hop leaving `router` through
    /// `output`: the credits towards the downstream input buffer for mesh
    /// outputs, or (for the terminal ejection output, which is never
    /// credit-limited) the depth of the input buffer the packet drains from.
    ///
    /// This is the per-hop depth the buffer-aware WCTT analysis
    /// ([`crate::analysis::buffer_aware`]) consumes.
    pub fn hop_depth(
        &self,
        mesh: &Mesh,
        router: crate::geometry::Coord,
        input: Port,
        output: Port,
    ) -> u32 {
        match output {
            Port::Mesh(dir) => {
                let Some(downstream) = mesh.neighbor(router, dir) else {
                    return self.min_depth();
                };
                let Ok(node) = mesh.node_id(downstream) else {
                    return self.min_depth();
                };
                self.credits_towards(node, Port::Mesh(dir.opposite()))
            }
            Port::Local => match mesh.node_id(router) {
                Ok(node) => self.depth(node, input),
                Err(_) => self.min_depth(),
            },
        }
    }
}

impl Default for BufferConfig {
    /// The historical design point: uniform 4-flit input buffers
    /// (matching [`NocConfig::default`](crate::config::NocConfig)).
    fn default() -> Self {
        BufferConfig::uniform(4)
    }
}

/// Builds a per-port table where existing ports take their depth from `f`.
/// Nonexistent ports (mesh edges) are never instantiated; their table entries
/// mirror the router's local-port depth so aggregate queries
/// ([`BufferConfig::min_depth`] / [`BufferConfig::max_depth`], and the
/// depth-classification rules built on them) reflect the buffers that
/// actually exist instead of a placeholder.
pub fn per_port_table(mesh: &Mesh, mut f: impl FnMut(NodeId, Port) -> u32) -> BufferConfig {
    let depths = mesh
        .routers()
        .enumerate()
        .map(|(index, coord)| {
            let node = NodeId(index);
            let mut row = [0u32; Port::COUNT];
            for port in Port::ALL {
                let exists = match port {
                    Port::Local => true,
                    Port::Mesh(dir) => mesh.has_port(coord, dir),
                };
                if exists {
                    row[port.index()] = f(node, port).max(1);
                }
            }
            let local = row[Port::Local.index()];
            for slot in row.iter_mut() {
                if *slot == 0 {
                    *slot = local;
                }
            }
            row
        })
        .collect();
    BufferConfig::PerPort { depths }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Coord;
    use crate::port::Direction;

    #[test]
    fn uniform_depth_everywhere() {
        let cfg = BufferConfig::uniform(4);
        assert_eq!(cfg.depth(NodeId(0), Port::Local), 4);
        assert_eq!(cfg.depth(NodeId(99), Port::Mesh(Direction::East)), 4);
        assert_eq!(cfg.min_depth(), 4);
        assert_eq!(cfg.max_depth(), 4);
        assert!(cfg.is_uniform_depth(4));
        assert!(!cfg.is_uniform_depth(2));
        assert_eq!(cfg.label(), "d=4");
    }

    #[test]
    fn per_router_and_per_port_lookup() {
        let per_router = BufferConfig::PerRouter {
            depths: vec![1, 2, 3, 4],
        };
        assert_eq!(per_router.depth(NodeId(2), Port::Local), 3);
        assert_eq!(per_router.min_depth(), 1);
        assert_eq!(per_router.max_depth(), 4);
        assert_eq!(per_router.label(), "d=1..4");

        let mut row = [2u32; Port::COUNT];
        row[Port::Local.index()] = 8;
        let per_port = BufferConfig::PerPort {
            depths: vec![row; 4],
        };
        assert_eq!(per_port.depth(NodeId(1), Port::Local), 8);
        assert_eq!(per_port.depth(NodeId(1), Port::Mesh(Direction::West)), 2);
        assert_eq!(
            per_port.credits_towards(NodeId(3), Port::Mesh(Direction::North)),
            2
        );
    }

    #[test]
    fn validation() {
        let mesh = Mesh::square(3).unwrap();
        assert!(BufferConfig::uniform(1).validate(&mesh).is_ok());
        assert!(BufferConfig::uniform(0).validate(&mesh).is_err());
        assert!(BufferConfig::PerRouter { depths: vec![1; 9] }
            .validate(&mesh)
            .is_ok());
        assert!(BufferConfig::PerRouter { depths: vec![1; 8] }
            .validate(&mesh)
            .is_err());
        assert!(BufferConfig::PerRouter { depths: vec![0; 9] }
            .validate(&mesh)
            .is_err());
    }

    #[test]
    fn scaling_and_single_buffer_override() {
        let mesh = Mesh::square(2).unwrap();
        let base = BufferConfig::uniform(2);
        assert_eq!(base.scaled(3), BufferConfig::uniform(6));
        let deepened = base.with_buffer_depth(&mesh, NodeId(1), Port::Local, 16);
        assert_eq!(deepened.depth(NodeId(1), Port::Local), 16);
        assert_eq!(deepened.depth(NodeId(1), Port::Mesh(Direction::West)), 2);
        assert_eq!(deepened.depth(NodeId(0), Port::Local), 2);
        assert!(deepened.validate(&mesh).is_ok());
    }

    #[test]
    fn hop_depth_uses_downstream_credits_for_mesh_hops() {
        let mesh = Mesh::square(2).unwrap();
        // Deepen only R(1,0)'s west-facing input buffer: the hop leaving
        // R(0,0) eastwards is governed by it.
        let east_of_origin = mesh.node_id(Coord::new(1, 0)).unwrap();
        let cfg = BufferConfig::uniform(2).with_buffer_depth(
            &mesh,
            east_of_origin,
            Port::Mesh(Direction::West),
            8,
        );
        let origin = Coord::new(0, 0);
        assert_eq!(
            cfg.hop_depth(&mesh, origin, Port::Local, Port::Mesh(Direction::East)),
            8
        );
        // The ejection hop at R(1,0) arriving from the west is governed by
        // that same (deepened) input buffer.
        assert_eq!(
            cfg.hop_depth(
                &mesh,
                Coord::new(1, 0),
                Port::Mesh(Direction::West),
                Port::Local
            ),
            8
        );
    }

    #[test]
    fn per_port_table_builder_respects_edges() {
        let mesh = Mesh::square(2).unwrap();
        let cfg = per_port_table(&mesh, |node, port| {
            u32::try_from(node.index()).unwrap() + if port.is_local() { 10 } else { 2 }
        });
        assert_eq!(cfg.depth(NodeId(0), Port::Local), 10);
        assert_eq!(cfg.depth(NodeId(3), Port::Local), 13);
        // R(0,0) has no west port: the entry mirrors the local depth so it
        // cannot bias min/max classification.
        assert_eq!(cfg.depth(NodeId(0), Port::Mesh(Direction::West)), 10);
        assert!(cfg.validate(&mesh).is_ok());
    }

    #[test]
    fn per_port_table_edge_entries_do_not_bias_min_and_max() {
        // Every existing port is depth 8: the table must classify as
        // uniformly deep even though mesh-edge ports are never drawn.
        let mesh = Mesh::square(3).unwrap();
        let cfg = per_port_table(&mesh, |_, _| 8);
        assert_eq!(cfg.min_depth(), 8);
        assert_eq!(cfg.max_depth(), 8);
        assert!(cfg.is_uniform_depth(8));
    }

    #[test]
    fn default_matches_historical_design() {
        assert_eq!(BufferConfig::default(), BufferConfig::uniform(4));
        assert_eq!(
            BufferConfig::default().min_depth(),
            crate::config::NocConfig::default().input_buffer_flits
        );
    }
}
