//! Dimension-ordered XY routing.
//!
//! Packets first travel along the X dimension (east/west) until they reach the
//! destination column, then along the Y dimension (north/south) until they reach
//! the destination row, where they are ejected through the local port.  XY
//! routing is deterministic, minimal and deadlock free, and it is what allows
//! the WaW arbitration weights to be computed statically (Section III of the
//! paper).

use crate::error::{Error, Result};
use crate::geometry::Coord;
use crate::port::{Direction, Port};
use crate::topology::Mesh;

/// One hop of a route: the router being traversed, the input port through which
/// the packet's header enters it, and the output port through which it leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hop {
    /// Router being traversed.
    pub router: Coord,
    /// Input port at this router (the local port at the source router).
    pub input: Port,
    /// Output port at this router (the local port at the destination router).
    pub output: Port,
}

/// The complete XY route of a flow from its source node to its destination node.
///
/// The first hop's input port and the last hop's output port are the local
/// (`PME`) ports of the source and destination routers respectively.
///
/// # Examples
///
/// ```
/// use wnoc_core::{geometry::Coord, routing::{RoutingAlgorithm, XyRouting}, topology::Mesh};
///
/// let mesh = Mesh::square(4)?;
/// let route = XyRouting.route(&mesh, Coord::from_row_col(3, 3), Coord::from_row_col(0, 0))?;
/// assert_eq!(route.hop_count(), 6);        // 3 hops west + 3 hops north
/// assert_eq!(route.hops().len(), 7);       // traverses 7 routers
/// # Ok::<(), wnoc_core::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    src: Coord,
    dst: Coord,
    hops: Vec<Hop>,
}

impl Route {
    /// Source node coordinate.
    pub fn src(&self) -> Coord {
        self.src
    }

    /// Destination node coordinate.
    pub fn dst(&self) -> Coord {
        self.dst
    }

    /// The sequence of traversed routers with their input/output ports.
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }

    /// Number of router-to-router links the route crosses: one fewer than
    /// the routers it traverses.  That is the Manhattan distance for XY
    /// routes, and more for a detour around failed hardware.
    pub fn hop_count(&self) -> u32 {
        self.hops.len().saturating_sub(1) as u32
    }

    /// Number of routers traversed (including source and destination routers).
    pub fn router_count(&self) -> usize {
        self.hops.len()
    }

    /// Returns `true` if the route passes through `router` (including endpoints).
    pub fn visits(&self, router: Coord) -> bool {
        self.hops.iter().any(|h| h.router == router)
    }
}

/// A routing algorithm: decides, at each router, which output port a packet
/// heading for `dst` must take.
///
/// The trait is object safe so routers can hold a `Box<dyn RoutingAlgorithm>`.
pub trait RoutingAlgorithm: Send + Sync {
    /// The output port a packet destined to `dst` must take at router `at`.
    ///
    /// Returns [`Port::Local`] when `at == dst`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRoute`] if either coordinate is outside the mesh.
    fn output_port(&self, mesh: &Mesh, at: Coord, dst: Coord) -> Result<Port>;

    /// The full route from `src` to `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRoute`] if either coordinate is outside the mesh.
    fn route(&self, mesh: &Mesh, src: Coord, dst: Coord) -> Result<Route> {
        let mut route = Route {
            src,
            dst,
            hops: Vec::new(),
        };
        self.route_into(mesh, src, dst, &mut route)?;
        Ok(route)
    }

    /// Overwrites `route` with the route from `src` to `dst`, reusing its
    /// hop vector: re-routing a flow allocates only when the new route is
    /// longer than any the vector held before.  The vector is sized from the
    /// Manhattan distance up front, which is exact for a minimal algorithm
    /// such as XY.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRoute`] if either coordinate is outside the
    /// mesh; `route` is then left unchanged.  An algorithm that fails part
    /// way leaves `route` unspecified.
    fn route_into(&self, mesh: &Mesh, src: Coord, dst: Coord, route: &mut Route) -> Result<()> {
        if !mesh.contains(src) || !mesh.contains(dst) {
            return Err(Error::InvalidRoute { src, dst });
        }
        route.src = src;
        route.dst = dst;
        let hops = &mut route.hops;
        hops.clear();
        hops.reserve(src.manhattan_distance(dst) as usize + 1);
        let mut at = src;
        let mut input = Port::Local;
        // A minimal route can visit at most width + height routers; guard against
        // a misbehaving `output_port` implementation looping forever.
        let max_routers = mesh.router_count() + 1;
        for _ in 0..max_routers {
            let output = self.output_port(mesh, at, dst)?;
            hops.push(Hop {
                router: at,
                input,
                output,
            });
            match output {
                Port::Local => return Ok(()),
                Port::Mesh(dir) => {
                    let next = mesh
                        .neighbor(at, dir)
                        .ok_or(Error::InvalidRoute { src, dst })?;
                    input = Port::Mesh(dir.opposite());
                    at = next;
                }
            }
        }
        Err(Error::InvalidRoute { src, dst })
    }
}

/// Dimension-ordered XY routing: X (east/west) first, then Y (north/south).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XyRouting;

impl XyRouting {
    /// Creates the XY routing algorithm.
    pub fn new() -> Self {
        XyRouting
    }
}

impl RoutingAlgorithm for XyRouting {
    fn output_port(&self, mesh: &Mesh, at: Coord, dst: Coord) -> Result<Port> {
        if !mesh.contains(at) || !mesh.contains(dst) {
            return Err(Error::InvalidRoute { src: at, dst });
        }
        let port = if at.x < dst.x {
            Port::Mesh(Direction::East)
        } else if at.x > dst.x {
            Port::Mesh(Direction::West)
        } else if at.y < dst.y {
            Port::Mesh(Direction::South)
        } else if at.y > dst.y {
            Port::Mesh(Direction::North)
        } else {
            Port::Local
        };
        Ok(port)
    }
}

/// Returns `true` if XY routing permits a packet to move from input port `input`
/// to output port `output` at some router: turns from the Y dimension back into
/// the X dimension are forbidden, as is a U-turn back out of the input port.
///
/// This legality predicate determines which input ports can ever contend for a
/// given output port, which the worst-case analysis relies on.
///
/// # Examples
///
/// ```
/// use wnoc_core::port::{Direction, Port};
/// use wnoc_core::routing::xy_turn_allowed;
///
/// // Traffic arriving from the north (travelling south, Y dimension) must not
/// // turn into the X dimension under XY routing.
/// assert!(!xy_turn_allowed(Port::Mesh(Direction::North), Port::Mesh(Direction::East)));
/// // It may continue south or eject locally.
/// assert!(xy_turn_allowed(Port::Mesh(Direction::North), Port::Mesh(Direction::South)));
/// assert!(xy_turn_allowed(Port::Mesh(Direction::North), Port::Local));
/// ```
pub fn xy_turn_allowed(input: Port, output: Port) -> bool {
    match (input, output) {
        // Ejection is always allowed.
        (_, Port::Local) => true,
        // Injection from the local port can go anywhere.
        (Port::Local, _) => true,
        (Port::Mesh(din), Port::Mesh(dout)) => {
            // No U-turns: a packet never leaves through the port it came from.
            if din == dout {
                return false;
            }
            // Once in the Y dimension, a packet can never return to X.
            if din.is_vertical() && dout.is_horizontal() {
                return false;
            }
            // A packet travelling in X continues in X or turns into Y; a packet
            // travelling in Y continues in Y.  Note `din` is the port it entered
            // through, so it was travelling in direction `din.opposite()`.
            // Reversing direction within a dimension is also a U-turn in terms of
            // minimal routing and never happens under XY.
            if din.is_horizontal() && dout.is_horizontal() && din.opposite() != dout {
                return false;
            }
            if din.is_vertical() && dout.is_vertical() && din.opposite() != dout {
                return false;
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh4() -> Mesh {
        Mesh::square(4).unwrap()
    }

    #[test]
    fn route_to_self_is_single_local_hop() {
        let m = mesh4();
        let r = XyRouting
            .route(&m, Coord::new(2, 2), Coord::new(2, 2))
            .unwrap();
        assert_eq!(r.hop_count(), 0);
        assert_eq!(r.router_count(), 1);
        assert_eq!(r.hops()[0].input, Port::Local);
        assert_eq!(r.hops()[0].output, Port::Local);
    }

    #[test]
    fn xy_route_goes_x_first() {
        let m = mesh4();
        // From R(3,3) (bottom-right) to R(0,0) (top-left): west 3 hops then north 3.
        let r = XyRouting
            .route(&m, Coord::from_row_col(3, 3), Coord::from_row_col(0, 0))
            .unwrap();
        let outputs: Vec<Port> = r.hops().iter().map(|h| h.output).collect();
        assert_eq!(
            outputs,
            vec![
                Port::Mesh(Direction::West),
                Port::Mesh(Direction::West),
                Port::Mesh(Direction::West),
                Port::Mesh(Direction::North),
                Port::Mesh(Direction::North),
                Port::Mesh(Direction::North),
                Port::Local,
            ]
        );
    }

    #[test]
    fn route_endpoints_use_local_ports() {
        let m = mesh4();
        let r = XyRouting
            .route(&m, Coord::new(0, 3), Coord::new(3, 0))
            .unwrap();
        assert_eq!(r.hops().first().unwrap().input, Port::Local);
        assert_eq!(r.hops().last().unwrap().output, Port::Local);
        assert_eq!(r.hops().first().unwrap().router, Coord::new(0, 3));
        assert_eq!(r.hops().last().unwrap().router, Coord::new(3, 0));
    }

    #[test]
    fn route_length_is_manhattan_distance() {
        let m = mesh4();
        for src in m.routers() {
            for dst in m.routers() {
                let r = XyRouting.route(&m, src, dst).unwrap();
                assert_eq!(r.hop_count(), src.manhattan_distance(dst));
                assert_eq!(r.router_count() as u32, r.hop_count() + 1);
            }
        }
    }

    #[test]
    fn route_hops_are_contiguous() {
        let m = mesh4();
        let r = XyRouting
            .route(&m, Coord::new(3, 3), Coord::new(0, 1))
            .unwrap();
        for pair in r.hops().windows(2) {
            let out_dir = pair[0].output.direction().unwrap();
            assert_eq!(m.neighbor(pair[0].router, out_dir), Some(pair[1].router));
            assert_eq!(pair[1].input, Port::Mesh(out_dir.opposite()));
        }
    }

    #[test]
    fn route_into_reuses_the_hop_vector() {
        let m = mesh4();
        let mut route = XyRouting
            .route(&m, Coord::new(3, 3), Coord::new(0, 0))
            .unwrap();
        // XY routes are sized exactly from the Manhattan distance.
        assert_eq!(route.hops.capacity(), route.hops.len());
        let capacity = route.hops.capacity();
        XyRouting
            .route_into(&m, Coord::new(1, 0), Coord::new(0, 2), &mut route)
            .unwrap();
        assert_eq!(
            route,
            XyRouting
                .route(&m, Coord::new(1, 0), Coord::new(0, 2))
                .unwrap()
        );
        assert_eq!(route.hops.capacity(), capacity);
        // A rejected re-route leaves the route as it was.
        let before = route.clone();
        assert!(XyRouting
            .route_into(&m, Coord::new(0, 0), Coord::new(7, 7), &mut route)
            .is_err());
        assert_eq!(route, before);
    }

    #[test]
    fn route_rejects_out_of_mesh_coords() {
        let m = mesh4();
        assert!(XyRouting
            .route(&m, Coord::new(0, 0), Coord::new(7, 7))
            .is_err());
        assert!(XyRouting
            .output_port(&m, Coord::new(9, 0), Coord::new(0, 0))
            .is_err());
    }

    #[test]
    fn turn_model_forbids_y_to_x() {
        for din in [Direction::North, Direction::South] {
            for dout in [Direction::East, Direction::West] {
                assert!(!xy_turn_allowed(Port::Mesh(din), Port::Mesh(dout)));
            }
        }
    }

    #[test]
    fn turn_model_allows_x_to_y_and_straight() {
        assert!(xy_turn_allowed(
            Port::Mesh(Direction::West),
            Port::Mesh(Direction::East)
        ));
        assert!(xy_turn_allowed(
            Port::Mesh(Direction::West),
            Port::Mesh(Direction::South)
        ));
        assert!(xy_turn_allowed(
            Port::Mesh(Direction::North),
            Port::Mesh(Direction::South)
        ));
        assert!(!xy_turn_allowed(
            Port::Mesh(Direction::North),
            Port::Mesh(Direction::North)
        ));
    }

    #[test]
    fn turn_model_allows_injection_and_ejection() {
        for p in Port::ALL {
            assert!(xy_turn_allowed(Port::Local, p));
            assert!(xy_turn_allowed(p, Port::Local));
        }
        assert!(xy_turn_allowed(Port::Local, Port::Mesh(Direction::North)));
    }

    #[test]
    fn every_route_respects_turn_model() {
        let m = mesh4();
        for src in m.routers() {
            for dst in m.routers() {
                let r = XyRouting.route(&m, src, dst).unwrap();
                for hop in r.hops() {
                    assert!(
                        xy_turn_allowed(hop.input, hop.output),
                        "illegal turn {:?} -> {:?} at {}",
                        hop.input,
                        hop.output,
                        hop.router
                    );
                }
            }
        }
    }

    #[test]
    fn uses_output_and_input_queries() {
        let m = mesh4();
        let r = XyRouting
            .route(&m, Coord::from_row_col(0, 3), Coord::from_row_col(0, 0))
            .unwrap();
        // The westbound route crosses R(0,2) from its east input to its west
        // output.
        let r02 = Coord::from_row_col(0, 2);
        assert!(r.visits(r02));
        assert!(r.hops().contains(&Hop {
            router: r02,
            input: Port::Mesh(Direction::East),
            output: Port::Mesh(Direction::West),
        }));
        assert!(!r.visits(Coord::from_row_col(3, 3)));
    }
}
