//! Synthetic traffic generators used by the evaluation and the benchmarks.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wnoc_core::{Coord, Cycle, Error, Mesh, NodeId, Result};

/// A message to be offered to the network at a given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfferedTraffic {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message size in regular-packetization flits.
    pub size_flits: u32,
}

/// Spatial traffic patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Every node sends to a single hotspot (the paper's memory controller at
    /// `R(0,0)`).
    AllToOne {
        /// The hotspot destination.
        dst: Coord,
    },
    /// Uniformly random destinations.
    UniformRandom,
    /// Matrix-transpose permutation: node `(x, y)` sends to `(y, x)`.
    Transpose,
    /// Bit-complement-like permutation: node `(x, y)` sends to the node at the
    /// opposite corner position `(W-1-x, H-1-y)`.
    Complement,
}

/// A Bernoulli-injection synthetic traffic generator: every cycle each node
/// independently generates a message with probability `injection_rate`.
///
/// The per-cycle draw *is* the injection semantics (one RNG stream advance
/// per node per cycle), so the open-loop driver ticks the network cycle by
/// cycle while a generator is attached; only the closed-loop and drain
/// drivers advance horizon to horizon.  Offered messages carry absolute
/// creation cycles either way.
///
/// # Examples
///
/// ```
/// use wnoc_core::{Coord, Mesh};
/// use wnoc_sim::traffic::{RandomTraffic, TrafficPattern};
///
/// let mesh = Mesh::square(4)?;
/// let mut gen = RandomTraffic::new(mesh, TrafficPattern::UniformRandom, 0.1, 4, 42)?;
/// let offered = gen.messages_for_cycle(0);
/// assert!(offered.iter().all(|m| m.src != m.dst));
/// # Ok::<(), wnoc_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct RandomTraffic {
    mesh: Mesh,
    pattern: TrafficPattern,
    injection_rate: f64,
    message_flits: u32,
    rng: ChaCha8Rng,
}

impl RandomTraffic {
    /// Creates a generator.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the injection rate is not in
    /// `(0.0, 1.0]` or the message size is zero, and a bounds error if an
    /// `AllToOne` destination lies outside the mesh.
    pub fn new(
        mesh: Mesh,
        pattern: TrafficPattern,
        injection_rate: f64,
        message_flits: u32,
        seed: u64,
    ) -> Result<Self> {
        if !(injection_rate > 0.0 && injection_rate <= 1.0) {
            return Err(Error::InvalidConfig {
                reason: format!("injection rate {injection_rate} must be in (0, 1]"),
            });
        }
        if message_flits == 0 {
            return Err(Error::EmptyMessage);
        }
        if let TrafficPattern::AllToOne { dst } = pattern {
            mesh.check(dst)?;
        }
        Ok(Self {
            mesh,
            pattern,
            injection_rate,
            message_flits,
            rng: ChaCha8Rng::seed_from_u64(seed),
        })
    }

    /// The spatial pattern.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    /// The per-node, per-cycle injection probability.
    pub fn injection_rate(&self) -> f64 {
        self.injection_rate
    }

    /// Destination of a message generated at `src` under the configured
    /// pattern, or `None` when the pattern maps the node onto itself.
    fn destination(&mut self, src: Coord) -> Option<NodeId> {
        let dst_coord = match self.pattern {
            TrafficPattern::AllToOne { dst } => dst,
            TrafficPattern::Transpose => Coord::new(src.y, src.x),
            TrafficPattern::Complement => Coord::new(
                self.mesh.width() - 1 - src.x,
                self.mesh.height() - 1 - src.y,
            ),
            TrafficPattern::UniformRandom => {
                let count = self.mesh.router_count();
                let idx = self.rng.gen_range(0..count);
                self.mesh.coord_of(NodeId(idx)).expect("index in range")
            }
        };
        if dst_coord == src {
            return None;
        }
        Some(self.mesh.node_id(dst_coord).expect("pattern stays in mesh"))
    }

    /// The messages every node decides to generate in this cycle.
    pub fn messages_for_cycle(&mut self, _cycle: Cycle) -> Vec<OfferedTraffic> {
        // The mesh is `Copy`, so iterating a local copy frees `self` for the
        // RNG calls below without collecting the coordinates first.
        let mesh = self.mesh;
        let mut offered = Vec::new();
        for src in mesh.routers() {
            if self.rng.gen_bool(self.injection_rate) {
                if let Some(dst) = self.destination(src) {
                    offered.push(OfferedTraffic {
                        src: self.mesh.node_id(src).expect("router coord"),
                        dst,
                        size_flits: self.message_flits,
                    });
                }
            }
        }
        offered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::square(4).unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        let m = mesh();
        assert!(RandomTraffic::new(m, TrafficPattern::UniformRandom, 0.0, 4, 1).is_err());
        assert!(RandomTraffic::new(m, TrafficPattern::UniformRandom, 1.5, 4, 1).is_err());
        assert!(RandomTraffic::new(m, TrafficPattern::UniformRandom, 0.5, 0, 1).is_err());
        assert!(RandomTraffic::new(
            m,
            TrafficPattern::AllToOne {
                dst: Coord::new(9, 9)
            },
            0.5,
            4,
            1
        )
        .is_err());
    }

    #[test]
    fn all_to_one_targets_the_hotspot() {
        let m = mesh();
        let dst = Coord::from_row_col(0, 0);
        let mut gen = RandomTraffic::new(m, TrafficPattern::AllToOne { dst }, 1.0, 4, 7).unwrap();
        let offered = gen.messages_for_cycle(0);
        // Every node except the hotspot generates a message to the hotspot.
        assert_eq!(offered.len(), 15);
        let hotspot = m.node_id(dst).unwrap();
        assert!(offered.iter().all(|o| o.dst == hotspot));
    }

    #[test]
    fn transpose_is_a_permutation() {
        let m = mesh();
        let mut gen = RandomTraffic::new(m, TrafficPattern::Transpose, 1.0, 2, 7).unwrap();
        let offered = gen.messages_for_cycle(0);
        // Diagonal nodes map to themselves and generate nothing.
        assert_eq!(offered.len(), 12);
        let mut dsts: Vec<NodeId> = offered.iter().map(|o| o.dst).collect();
        dsts.sort();
        dsts.dedup();
        assert_eq!(dsts.len(), 12);
    }

    #[test]
    fn complement_maps_corners_to_corners() {
        let m = mesh();
        let mut gen = RandomTraffic::new(m, TrafficPattern::Complement, 1.0, 2, 7).unwrap();
        let offered = gen.messages_for_cycle(0);
        let corner = m.node_id(Coord::new(0, 0)).unwrap();
        let opposite = m.node_id(Coord::new(3, 3)).unwrap();
        assert!(offered.iter().any(|o| o.src == corner && o.dst == opposite));
    }

    #[test]
    fn injection_rate_controls_volume() {
        let m = mesh();
        let mut low = RandomTraffic::new(m, TrafficPattern::UniformRandom, 0.05, 4, 11).unwrap();
        let mut high = RandomTraffic::new(m, TrafficPattern::UniformRandom, 0.8, 4, 11).unwrap();
        let count = |gen: &mut RandomTraffic| -> usize {
            (0..200).map(|c| gen.messages_for_cycle(c).len()).sum()
        };
        let low_total = count(&mut low);
        let high_total = count(&mut high);
        assert!(
            high_total > 5 * low_total,
            "high {high_total} low {low_total}"
        );
    }

    #[test]
    fn seeded_generators_are_deterministic() {
        let m = mesh();
        let mut a = RandomTraffic::new(m, TrafficPattern::UniformRandom, 0.3, 4, 99).unwrap();
        let mut b = RandomTraffic::new(m, TrafficPattern::UniformRandom, 0.3, 4, 99).unwrap();
        for cycle in 0..50 {
            assert_eq!(a.messages_for_cycle(cycle), b.messages_for_cycle(cycle));
        }
    }
}
