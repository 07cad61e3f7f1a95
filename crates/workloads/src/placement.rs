//! Thread-to-core placements for the parallel avionics application.
//!
//! Figure 2(b) of the paper runs the 16-thread 3D path planning application
//! under four different placements (P0–P3) on the 8×8 mesh and shows that the
//! regular wNoC is highly sensitive to placement (over 6× spread) while
//! WaW + WaP keeps the spread around 20%.

use wnoc_core::{Coord, Error, Mesh, Result};

/// A named assignment of application threads to mesh cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    name: String,
    cores: Vec<Coord>,
}

impl Placement {
    /// Creates a placement, checking that all cores are distinct, inside the
    /// mesh and distinct from the memory controller node.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on duplicates or collisions with the
    /// memory node, and a bounds error for cores outside the mesh.
    pub fn new(
        name: impl Into<String>,
        cores: Vec<Coord>,
        mesh: &Mesh,
        memory: Coord,
    ) -> Result<Self> {
        let name = name.into();
        let mut seen = std::collections::HashSet::new();
        for &core in &cores {
            mesh.check(core)?;
            if core == memory {
                return Err(Error::InvalidConfig {
                    reason: format!("placement {name} uses the memory node {core}"),
                });
            }
            if !seen.insert(core) {
                return Err(Error::InvalidConfig {
                    reason: format!("placement {name} assigns two threads to {core}"),
                });
            }
        }
        Ok(Self { name, cores })
    }

    /// The placement's name (`"P0"`, `"P1"`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cores, indexed by thread id.
    pub fn cores(&self) -> &[Coord] {
        &self.cores
    }

    /// Number of threads placed.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Returns `true` if no thread is placed.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Mean Manhattan distance from the placed cores to `memory` — a simple
    /// indicator of how "far" the placement sits from the memory controller.
    pub fn mean_distance_to(&self, memory: Coord) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores
            .iter()
            .map(|c| c.manhattan_distance(memory) as f64)
            .sum::<f64>()
            / self.cores.len() as f64
    }

    /// The four 16-thread placements used for the Figure 2(b) experiment on the
    /// 8×8 mesh with the memory controller at `R(0,0)`:
    ///
    /// * **P0** — compact 4×4 block adjacent to the memory controller;
    /// * **P1** — compact 4×4 block in the centre of the mesh;
    /// * **P2** — compact 4×4 block in the far corner;
    /// * **P3** — a 2×8 strip along the eastern edge, farthest columns from
    ///   the memory controller.
    ///
    /// # Errors
    ///
    /// Never fails for the standard 8×8 mesh; kept for API uniformity.
    pub fn paper_set(mesh: &Mesh, memory: Coord) -> Result<Vec<Placement>> {
        let mut p0 = Vec::new();
        for row in 0..4u16 {
            for col in 0..4u16 {
                let c = Coord::from_row_col(row, col);
                if c != memory {
                    p0.push(c);
                }
            }
        }
        p0.truncate(16);
        // P0 has only 15 usable nodes inside the 4x4 block (the memory corner is
        // excluded); complete it with the nearest node outside the block.
        if p0.len() < 16 {
            p0.push(Coord::from_row_col(0, 4));
        }

        let mut p1 = Vec::new();
        for row in 2..6u16 {
            for col in 2..6u16 {
                p1.push(Coord::from_row_col(row, col));
            }
        }

        let mut p2 = Vec::new();
        for row in 4..8u16 {
            for col in 4..8u16 {
                p2.push(Coord::from_row_col(row, col));
            }
        }

        // P3: a vertical strip along the far (eastern) edge of the mesh, i.e.
        // the threads are spread over the two columns farthest from the memory
        // controller.
        let mut p3 = Vec::new();
        for row in 0..8u16 {
            p3.push(Coord::from_row_col(row, 6));
            p3.push(Coord::from_row_col(row, 7));
        }

        Ok(vec![
            Placement::new("P0", p0, mesh, memory)?,
            Placement::new("P1", p1, mesh, memory)?,
            Placement::new("P2", p2, mesh, memory)?,
            Placement::new("P3", p3, mesh, memory)?,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::square(8).unwrap()
    }

    #[test]
    fn paper_set_has_four_16_thread_placements() {
        let memory = Coord::from_row_col(0, 0);
        let set = Placement::paper_set(&mesh(), memory).unwrap();
        assert_eq!(set.len(), 4);
        for p in &set {
            assert_eq!(p.len(), 16, "{} has {} threads", p.name(), p.len());
            assert!(!p.is_empty());
            // No duplicates, no memory node.
            let mut cores = p.cores().to_vec();
            cores.sort();
            cores.dedup();
            assert_eq!(cores.len(), 16);
            assert!(!cores.contains(&memory));
        }
        assert_eq!(set[0].name(), "P0");
        assert_eq!(set[3].name(), "P3");
    }

    #[test]
    fn placements_get_progressively_farther_from_memory() {
        let memory = Coord::from_row_col(0, 0);
        let set = Placement::paper_set(&mesh(), memory).unwrap();
        let d0 = set[0].mean_distance_to(memory);
        let d2 = set[2].mean_distance_to(memory);
        assert!(
            d2 > d0 + 4.0,
            "P2 ({d2}) should be much farther than P0 ({d0})"
        );
    }

    #[test]
    fn new_rejects_invalid_placements() {
        let m = mesh();
        let memory = Coord::from_row_col(0, 0);
        // Memory node used.
        assert!(Placement::new("bad", vec![memory], &m, memory).is_err());
        // Duplicate core.
        assert!(Placement::new(
            "bad",
            vec![Coord::from_row_col(1, 1), Coord::from_row_col(1, 1)],
            &m,
            memory
        )
        .is_err());
        // Outside the mesh.
        assert!(Placement::new("bad", vec![Coord::from_row_col(9, 9)], &m, memory).is_err());
    }

    #[test]
    fn mean_distance_of_empty_placement_is_zero() {
        let m = mesh();
        let memory = Coord::from_row_col(0, 0);
        let p = Placement::new("empty", vec![], &m, memory).unwrap();
        assert_eq!(p.mean_distance_to(memory), 0.0);
    }
}
