//! The 2D-mesh topology: routers, links and neighbourhood queries.

use crate::error::{Error, Result};
use crate::geometry::{Coord, MeshDims, NodeId};
use crate::port::{Direction, Port};

/// A canonical 2D mesh of routers, one router (plus node/NIC) per coordinate.
///
/// The mesh is the only topology considered by the paper; routers at the edges
/// simply lack the ports that would face outside the mesh.
///
/// A mesh is just its dimensions, so it is `Copy`: simulator components keep
/// their own mesh by value instead of cloning behind a reference.
///
/// # Examples
///
/// ```
/// use wnoc_core::topology::Mesh;
///
/// let mesh = Mesh::new(4, 4)?;
/// assert_eq!(mesh.router_count(), 16);
/// assert_eq!(mesh.link_count(), 2 * 2 * 4 * 3); // bidirectional links
/// # Ok::<(), wnoc_core::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    dims: MeshDims,
}

/// A unidirectional link between two adjacent routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Coordinate of the upstream (sending) router.
    pub from: Coord,
    /// Coordinate of the downstream (receiving) router.
    pub to: Coord,
    /// Direction of travel (output-port direction at `from`).
    pub direction: Direction,
}

impl Mesh {
    /// Creates a `width × height` mesh.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDims`] if either dimension is zero.
    pub fn new(width: u16, height: u16) -> Result<Self> {
        Ok(Self {
            dims: MeshDims::new(width, height)?,
        })
    }

    /// Creates a square `side × side` mesh.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDims`] if `side` is zero.
    pub fn square(side: u16) -> Result<Self> {
        Ok(Self {
            dims: MeshDims::square(side)?,
        })
    }

    /// The mesh dimensions.
    pub fn dims(&self) -> MeshDims {
        self.dims
    }

    /// The horizontal dimension (`N`).
    pub fn width(&self) -> u16 {
        self.dims.width()
    }

    /// The vertical dimension (`M`).
    pub fn height(&self) -> u16 {
        self.dims.height()
    }

    /// Number of routers (= nodes).
    pub fn router_count(&self) -> usize {
        self.dims.node_count()
    }

    /// Number of unidirectional router-to-router links.
    pub fn link_count(&self) -> usize {
        let w = usize::from(self.width());
        let h = usize::from(self.height());
        // Horizontal links: (w-1) per row, vertical: (h-1) per column, times two
        // for the two directions.
        2 * ((w - 1) * h + (h - 1) * w)
    }

    /// Converts a coordinate to a node id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CoordOutOfBounds`] for coordinates outside the mesh.
    pub fn node_id(&self, coord: Coord) -> Result<NodeId> {
        self.dims.node_id(coord)
    }

    /// Converts a node id to a coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeOutOfBounds`] for ids outside the mesh.
    pub fn coord_of(&self, node: NodeId) -> Result<Coord> {
        self.dims.coord_of(node)
    }

    /// Returns `true` if `coord` lies inside the mesh.
    pub fn contains(&self, coord: Coord) -> bool {
        self.dims.contains(coord)
    }

    /// The neighbour of `coord` in direction `dir`, or `None` at a mesh edge.
    pub fn neighbor(&self, coord: Coord, dir: Direction) -> Option<Coord> {
        dir.step(coord).filter(|c| self.contains(*c))
    }

    /// Returns `true` if the router at `coord` has a mesh port in direction `dir`.
    pub fn has_port(&self, coord: Coord, dir: Direction) -> bool {
        self.neighbor(coord, dir).is_some()
    }

    /// The mesh ports (directions) that exist on the router at `coord`.
    pub fn mesh_ports(&self, coord: Coord) -> Vec<Direction> {
        Direction::ALL
            .into_iter()
            .filter(|d| self.has_port(coord, *d))
            .collect()
    }

    /// All ports of the router at `coord`, including the local port.
    pub fn ports(&self, coord: Coord) -> Vec<Port> {
        let mut ports: Vec<Port> = self.mesh_ports(coord).into_iter().map(Port::Mesh).collect();
        ports.push(Port::Local);
        ports
    }

    /// Iterates over every router coordinate (row-major).
    pub fn routers(&self) -> impl Iterator<Item = Coord> + '_ {
        self.dims.coords()
    }

    /// Iterates over every node id (row-major).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        self.dims.nodes()
    }

    /// Enumerates every unidirectional link in the mesh.
    pub fn links(&self) -> Vec<Link> {
        let mut links = Vec::with_capacity(self.link_count());
        for from in self.routers() {
            for dir in Direction::ALL {
                if let Some(to) = self.neighbor(from, dir) {
                    links.push(Link {
                        from,
                        to,
                        direction: dir,
                    });
                }
            }
        }
        links
    }

    /// The downstream router reached when leaving `coord` through `port`, or
    /// `None` for the local port / a port that faces outside the mesh.
    pub fn downstream(&self, coord: Coord, port: Port) -> Option<Coord> {
        match port {
            Port::Local => None,
            Port::Mesh(d) => self.neighbor(coord, d),
        }
    }

    /// Validates that `coord` is inside the mesh, returning it unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CoordOutOfBounds`] otherwise.
    pub fn check(&self, coord: Coord) -> Result<Coord> {
        if self.contains(coord) {
            Ok(coord)
        } else {
            Err(Error::CoordOutOfBounds {
                coord,
                width: self.width(),
                height: self.height(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_construction() {
        let m = Mesh::new(4, 4).unwrap();
        assert_eq!(m.router_count(), 16);
        assert!(Mesh::new(0, 1).is_err());
    }

    #[test]
    fn link_count_matches_enumeration() {
        for (w, h) in [(2u16, 2u16), (3, 3), (4, 2), (8, 8), (1, 5)] {
            let m = Mesh::new(w, h).unwrap();
            assert_eq!(m.links().len(), m.link_count(), "mesh {w}x{h}");
        }
    }

    #[test]
    fn corner_router_has_two_mesh_ports() {
        let m = Mesh::square(4).unwrap();
        let corner = Coord::new(0, 0);
        let ports = m.mesh_ports(corner);
        assert_eq!(ports.len(), 2);
        assert!(ports.contains(&Direction::East));
        assert!(ports.contains(&Direction::South));
    }

    #[test]
    fn edge_router_has_three_mesh_ports() {
        let m = Mesh::square(4).unwrap();
        let edge = Coord::new(1, 0);
        assert_eq!(m.mesh_ports(edge).len(), 3);
    }

    #[test]
    fn interior_router_has_four_mesh_ports() {
        let m = Mesh::square(4).unwrap();
        let inner = Coord::new(1, 1);
        assert_eq!(m.mesh_ports(inner).len(), 4);
        assert_eq!(m.ports(inner).len(), 5);
    }

    #[test]
    fn neighbor_respects_bounds() {
        let m = Mesh::new(3, 3).unwrap();
        assert_eq!(m.neighbor(Coord::new(2, 2), Direction::East), None);
        assert_eq!(m.neighbor(Coord::new(2, 2), Direction::South), None);
        assert_eq!(
            m.neighbor(Coord::new(2, 2), Direction::West),
            Some(Coord::new(1, 2))
        );
        assert_eq!(
            m.neighbor(Coord::new(2, 2), Direction::North),
            Some(Coord::new(2, 1))
        );
    }

    #[test]
    fn downstream_of_local_port_is_none() {
        let m = Mesh::new(3, 3).unwrap();
        assert_eq!(m.downstream(Coord::new(1, 1), Port::Local), None);
        assert_eq!(
            m.downstream(Coord::new(1, 1), Port::Mesh(Direction::East)),
            Some(Coord::new(2, 1))
        );
    }

    #[test]
    fn links_are_between_adjacent_routers() {
        let m = Mesh::new(4, 3).unwrap();
        for link in m.links() {
            assert_eq!(link.from.manhattan_distance(link.to), 1);
            assert_eq!(m.neighbor(link.from, link.direction), Some(link.to));
        }
    }

    #[test]
    fn check_accepts_inside_rejects_outside() {
        let m = Mesh::new(2, 2).unwrap();
        assert!(m.check(Coord::new(1, 1)).is_ok());
        assert!(m.check(Coord::new(2, 1)).is_err());
    }
}
