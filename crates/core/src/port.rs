//! Router port and direction model.
//!
//! A mesh router has up to five ports: four mesh ports facing its neighbours
//! ([`Direction::North`], [`Direction::South`], [`Direction::East`],
//! [`Direction::West`]) plus the local port ([`Port::Local`]) that connects the
//! router to its node's network interface (the paper calls this port `PME`).
//!
//! The paper names mesh ports `X+`, `X-`, `Y+`, `Y-`.  We map those labels onto
//! compass directions as follows (rows grow southwards, columns grow eastwards,
//! matching Figure 1(a) of the paper where `R(0,0)` is the top-left node):
//!
//! | Paper | Meaning                                   | Here    |
//! |-------|-------------------------------------------|---------|
//! | `X+`  | towards larger `x` (column) coordinates   | `East`  |
//! | `X-`  | towards smaller `x` coordinates           | `West`  |
//! | `Y+`  | towards larger `y` (row) coordinates      | `South` |
//! | `Y-`  | towards smaller `y` coordinates           | `North` |
//! | `PME` | the local node                            | `Local` |
//!
//! An *input port* named `West` receives flits from the western neighbour (so it
//! carries traffic travelling eastwards); an *output port* named `West` sends
//! flits to the western neighbour (traffic travelling westwards).

use std::fmt;

use crate::geometry::Coord;

/// One of the four mesh directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Towards smaller row indices (the paper's `Y-`).
    North,
    /// Towards larger row indices (the paper's `Y+`).
    South,
    /// Towards larger column indices (the paper's `X+`).
    East,
    /// Towards smaller column indices (the paper's `X-`).
    West,
}

impl Direction {
    /// All four directions, in a fixed order.
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// The opposite direction.
    ///
    /// # Examples
    ///
    /// ```
    /// use wnoc_core::port::Direction;
    /// assert_eq!(Direction::East.opposite(), Direction::West);
    /// ```
    pub fn opposite(&self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }

    /// Returns `true` for East/West (the X dimension travelled first by XY routing).
    pub fn is_horizontal(&self) -> bool {
        matches!(self, Direction::East | Direction::West)
    }

    /// Returns `true` for North/South (the Y dimension).
    pub fn is_vertical(&self) -> bool {
        !self.is_horizontal()
    }

    /// Coordinate of the neighbour reached by moving one hop in this direction,
    /// or `None` if that would leave the non-negative coordinate space.
    ///
    /// Bounds against the mesh dimensions are checked by
    /// [`Mesh::neighbor`](crate::topology::Mesh::neighbor).
    pub fn step(&self, from: Coord) -> Option<Coord> {
        match self {
            Direction::North => from.y.checked_sub(1).map(|y| Coord::new(from.x, y)),
            Direction::South => from.y.checked_add(1).map(|y| Coord::new(from.x, y)),
            Direction::East => from.x.checked_add(1).map(|x| Coord::new(x, from.y)),
            Direction::West => from.x.checked_sub(1).map(|x| Coord::new(x, from.y)),
        }
    }

    /// The paper's label for traffic *travelling* in this direction
    /// (`X+`, `X-`, `Y+`, `Y-`).
    pub fn paper_label(&self) -> &'static str {
        match self {
            Direction::North => "Y-",
            Direction::South => "Y+",
            Direction::East => "X+",
            Direction::West => "X-",
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::South => "S",
            Direction::East => "E",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

/// A router port: one of the four mesh ports or the local (`PME`) port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Port {
    /// The port facing the given neighbour.
    Mesh(Direction),
    /// The local port connecting the router to its node (the paper's `PME`).
    Local,
}

impl Port {
    /// All five ports in a fixed order (mesh ports first, local last).
    pub const ALL: [Port; 5] = [
        Port::Mesh(Direction::North),
        Port::Mesh(Direction::South),
        Port::Mesh(Direction::East),
        Port::Mesh(Direction::West),
        Port::Local,
    ];

    /// Number of distinct ports on a (fully connected) mesh router.
    pub const COUNT: usize = 5;

    /// A dense index in `0..Port::COUNT`, stable across runs, usable for array
    /// indexed per-port state.
    pub fn index(&self) -> usize {
        match self {
            Port::Mesh(Direction::North) => 0,
            Port::Mesh(Direction::South) => 1,
            Port::Mesh(Direction::East) => 2,
            Port::Mesh(Direction::West) => 3,
            Port::Local => 4,
        }
    }

    /// Reconstructs a port from its dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= Port::COUNT`.
    pub fn from_index(index: usize) -> Port {
        Port::ALL[index]
    }

    /// The direction of a mesh port, `None` for the local port.
    pub fn direction(&self) -> Option<Direction> {
        match self {
            Port::Mesh(d) => Some(*d),
            Port::Local => None,
        }
    }

    /// Returns `true` for the local (`PME`) port.
    pub fn is_local(&self) -> bool {
        matches!(self, Port::Local)
    }

    /// The paper's label for this port *as an input port* of a router: an input
    /// mesh port facing west carries traffic that travels eastwards, i.e. the
    /// paper's `X+` input direction.
    pub fn paper_input_label(&self) -> &'static str {
        match self {
            Port::Mesh(d) => d.opposite().paper_label(),
            Port::Local => "PME",
        }
    }

    /// The paper's label for this port *as an output port* of a router: an output
    /// mesh port facing west emits traffic travelling westwards, i.e. `X-`.
    pub fn paper_output_label(&self) -> &'static str {
        match self {
            Port::Mesh(d) => d.paper_label(),
            Port::Local => "PME",
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Port::Mesh(d) => write!(f, "{d}"),
            Port::Local => f.write_str("L"),
        }
    }
}

impl From<Direction> for Port {
    fn from(d: Direction) -> Self {
        Port::Mesh(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opposites() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
    }

    #[test]
    fn horizontal_vertical_partition() {
        assert!(Direction::East.is_horizontal());
        assert!(Direction::West.is_horizontal());
        assert!(Direction::North.is_vertical());
        assert!(Direction::South.is_vertical());
    }

    #[test]
    fn step_moves_one_hop() {
        let c = Coord::new(2, 2);
        assert_eq!(Direction::North.step(c), Some(Coord::new(2, 1)));
        assert_eq!(Direction::South.step(c), Some(Coord::new(2, 3)));
        assert_eq!(Direction::East.step(c), Some(Coord::new(3, 2)));
        assert_eq!(Direction::West.step(c), Some(Coord::new(1, 2)));
    }

    #[test]
    fn step_does_not_underflow() {
        let origin = Coord::new(0, 0);
        assert_eq!(Direction::North.step(origin), None);
        assert_eq!(Direction::West.step(origin), None);
        assert!(Direction::South.step(origin).is_some());
        assert!(Direction::East.step(origin).is_some());
    }

    #[test]
    fn port_index_round_trip() {
        for (i, port) in Port::ALL.iter().enumerate() {
            assert_eq!(port.index(), i);
            assert_eq!(Port::from_index(i), *port);
        }
    }

    #[test]
    fn paper_labels() {
        assert_eq!(Direction::East.paper_label(), "X+");
        assert_eq!(Direction::North.paper_label(), "Y-");
        // A router's west-facing port, used as input, carries eastbound (X+) traffic.
        assert_eq!(Port::Mesh(Direction::West).paper_input_label(), "X+");
        // Used as output it emits westbound (X-) traffic.
        assert_eq!(Port::Mesh(Direction::West).paper_output_label(), "X-");
        assert_eq!(Port::Local.paper_input_label(), "PME");
        assert_eq!(Port::Local.paper_output_label(), "PME");
    }

    #[test]
    fn local_port_identification() {
        assert!(Port::Local.is_local());
        assert!(!Port::Mesh(Direction::East).is_local());
        assert_eq!(Port::Local.direction(), None);
        assert_eq!(
            Port::Mesh(Direction::South).direction(),
            Some(Direction::South)
        );
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Port::Local.to_string(), "L");
        assert_eq!(Port::Mesh(Direction::North).to_string(), "N");
    }
}
