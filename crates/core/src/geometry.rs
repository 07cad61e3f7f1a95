//! Mesh geometry: node coordinates, node identifiers and mesh dimensions.
//!
//! The paper uses `R(i, j)` to denote the router in row `i` and column `j` of an
//! `N × M` mesh, where `N` is the horizontal dimension (number of columns) and `M`
//! the vertical dimension (number of rows).  Internally we use [`Coord`] with an
//! `x` (column, grows eastwards) and `y` (row, grows southwards) component, which
//! matches the `x`/`y` coordinates used by the paper's weight equations.

use std::fmt;

use crate::error::{Error, Result};

/// Dimensions of a 2D mesh: `width` columns (the paper's `N`) by `height` rows
/// (the paper's `M`).
///
/// # Examples
///
/// ```
/// use wnoc_core::geometry::MeshDims;
///
/// let dims = MeshDims::new(8, 8).unwrap();
/// assert_eq!(dims.node_count(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshDims {
    width: u16,
    height: u16,
}

impl MeshDims {
    /// Creates mesh dimensions of `width` columns by `height` rows.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDims`] if either dimension is zero or the mesh
    /// would hold more than `u32::MAX` nodes.
    pub fn new(width: u16, height: u16) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(Error::InvalidDims { width, height });
        }
        Ok(Self { width, height })
    }

    /// Creates square `side × side` dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDims`] if `side` is zero.
    pub fn square(side: u16) -> Result<Self> {
        Self::new(side, side)
    }

    /// The horizontal dimension (`N` in the paper): number of columns.
    pub fn width(&self) -> u16 {
        self.width
    }

    /// The vertical dimension (`M` in the paper): number of rows.
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Total number of nodes (`N * M`).
    pub fn node_count(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// Returns `true` if `coord` lies inside the mesh.
    pub fn contains(&self, coord: Coord) -> bool {
        coord.x < self.width && coord.y < self.height
    }

    /// Converts a coordinate to its linear [`NodeId`] (row-major order).
    ///
    /// # Errors
    ///
    /// Returns [`Error::CoordOutOfBounds`] if the coordinate is outside the mesh.
    pub fn node_id(&self, coord: Coord) -> Result<NodeId> {
        if !self.contains(coord) {
            return Err(Error::CoordOutOfBounds {
                coord,
                width: self.width,
                height: self.height,
            });
        }
        Ok(NodeId(
            usize::from(coord.y) * usize::from(self.width) + usize::from(coord.x),
        ))
    }

    /// Converts a linear [`NodeId`] back to its coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeOutOfBounds`] if the id does not belong to this mesh.
    pub fn coord_of(&self, node: NodeId) -> Result<Coord> {
        if node.0 >= self.node_count() {
            return Err(Error::NodeOutOfBounds {
                node,
                count: self.node_count(),
            });
        }
        let x = (node.0 % usize::from(self.width)) as u16;
        let y = (node.0 / usize::from(self.width)) as u16;
        Ok(Coord { x, y })
    }

    /// Iterates over every coordinate of the mesh in row-major order.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        let width = self.width;
        let height = self.height;
        (0..height).flat_map(move |y| (0..width).map(move |x| Coord { x, y }))
    }

    /// Iterates over every node id of the mesh in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count()).map(NodeId)
    }
}

impl fmt::Display for MeshDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// Coordinate of a node/router in the mesh: `x` is the column (grows eastwards),
/// `y` is the row (grows southwards), so the paper's `R(i, j)` is
/// `Coord { x: j, y: i }`.
///
/// # Examples
///
/// ```
/// use wnoc_core::geometry::Coord;
///
/// let c = Coord::from_row_col(1, 2);
/// assert_eq!((c.x, c.y), (2, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Column index (horizontal position, the paper's `x`).
    pub x: u16,
    /// Row index (vertical position, the paper's `y`).
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate from `(x, y)` = (column, row).
    pub fn new(x: u16, y: u16) -> Self {
        Self { x, y }
    }

    /// Creates a coordinate from the paper's `R(row, col)` notation.
    pub fn from_row_col(row: u16, col: u16) -> Self {
        Self { x: col, y: row }
    }

    /// The row index (the paper's first index in `R(i, j)`).
    pub fn row(&self) -> u16 {
        self.y
    }

    /// The column index (the paper's second index in `R(i, j)`).
    pub fn col(&self) -> u16 {
        self.x
    }

    /// Manhattan distance (minimal hop count between the attached routers).
    pub fn manhattan_distance(&self, other: Coord) -> u32 {
        let dx = i32::from(self.x) - i32::from(other.x);
        let dy = i32::from(self.y) - i32::from(other.y);
        dx.unsigned_abs() + dy.unsigned_abs()
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R({},{})", self.y, self.x)
    }
}

impl From<(u16, u16)> for Coord {
    /// Converts an `(x, y)` pair into a coordinate.
    fn from((x, y): (u16, u16)) -> Self {
        Coord { x, y }
    }
}

/// Dense, zero-based identifier of a node (core + router + NIC) in the mesh.
///
/// Node ids are assigned in row-major order: `id = row * width + col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_reject_zero() {
        assert!(MeshDims::new(0, 4).is_err());
        assert!(MeshDims::new(4, 0).is_err());
        assert!(MeshDims::new(0, 0).is_err());
    }

    #[test]
    fn dims_node_count() {
        let d = MeshDims::new(4, 3).unwrap();
        assert_eq!(d.node_count(), 12);
        assert_eq!(d.width(), 4);
        assert_eq!(d.height(), 3);
    }

    #[test]
    fn square_dims() {
        let d = MeshDims::square(8).unwrap();
        assert_eq!(d.node_count(), 64);
        assert_eq!(d.to_string(), "8x8");
    }

    #[test]
    fn node_id_round_trip() {
        let d = MeshDims::new(5, 7).unwrap();
        for coord in d.coords() {
            let id = d.node_id(coord).unwrap();
            assert_eq!(d.coord_of(id).unwrap(), coord);
        }
    }

    #[test]
    fn node_id_row_major() {
        let d = MeshDims::new(4, 4).unwrap();
        assert_eq!(d.node_id(Coord::new(0, 0)).unwrap(), NodeId(0));
        assert_eq!(d.node_id(Coord::new(3, 0)).unwrap(), NodeId(3));
        assert_eq!(d.node_id(Coord::new(0, 1)).unwrap(), NodeId(4));
        assert_eq!(d.node_id(Coord::new(3, 3)).unwrap(), NodeId(15));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let d = MeshDims::new(2, 2).unwrap();
        assert!(d.node_id(Coord::new(2, 0)).is_err());
        assert!(d.node_id(Coord::new(0, 2)).is_err());
        assert!(d.coord_of(NodeId(4)).is_err());
    }

    #[test]
    fn coords_iteration_covers_all_nodes_once() {
        let d = MeshDims::new(3, 5).unwrap();
        let coords: Vec<_> = d.coords().collect();
        assert_eq!(coords.len(), 15);
        let mut sorted = coords.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 15);
    }

    #[test]
    fn row_col_convention_matches_paper() {
        // The paper's R(1, 1) in a 2x2 mesh is the bottom-right node.
        let c = Coord::from_row_col(1, 1);
        assert_eq!(c.x, 1);
        assert_eq!(c.y, 1);
        assert_eq!(c.to_string(), "R(1,1)");
    }

    #[test]
    fn manhattan_distance() {
        let a = Coord::new(0, 0);
        let b = Coord::new(7, 7);
        assert_eq!(a.manhattan_distance(b), 14);
        assert_eq!(b.manhattan_distance(a), 14);
        assert_eq!(a.manhattan_distance(a), 0);
    }

    #[test]
    fn display_impls() {
        assert_eq!(NodeId(5).to_string(), "n5");
        assert_eq!(Coord::new(2, 1).to_string(), "R(1,2)");
    }
}
