//! 3D path planning (3DPP) — the parallel avionics application.
//!
//! The paper evaluates WaW + WaP with an industrial avionics application
//! provided by Honeywell: a 16-core 3D path planner that guides an aircraft
//! through an obstacle map represented as a 3D matrix.  The application itself
//! is not public, so this module implements a functionally equivalent parallel
//! planner:
//!
//! * the obstacle map is a 3D occupancy grid ([`ObstacleGrid`]);
//! * planning is a breadth-first wavefront expansion from the start cell to the
//!   goal cell (shortest path in the 6-connected grid), parallelised across 16
//!   workers by statically partitioning each wavefront among them;
//! * every wavefront expansion is one barrier-synchronised phase; the memory
//!   trace of a worker in a phase is derived from the number of grid cells it
//!   touches (cells are fetched from shared memory one cache line at a time,
//!   and updated distance values are written back).
//!
//! The derived per-phase traces feed the WCET estimator
//! ([`wnoc_manycore::wcet::parallel_wcet`]) for the Figure 2 experiments and
//! the [`wnoc_manycore::system::ManycoreSystem`] for average-performance runs.

use std::collections::VecDeque;

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use wnoc_core::{Error, Result};
use wnoc_manycore::trace::{Trace, TraceEvent};
use wnoc_manycore::wcet::ParallelPhase;

use crate::placement::Placement;

/// A cell of the 3D obstacle grid.
pub type Cell = (usize, usize, usize);

/// A 3D occupancy grid: `true` cells are obstacles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObstacleGrid {
    dims: (usize, usize, usize),
    obstacles: Vec<bool>,
}

impl ObstacleGrid {
    /// Creates an empty (obstacle-free) grid.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any dimension is zero.
    pub fn empty(dims: (usize, usize, usize)) -> Result<Self> {
        if dims.0 == 0 || dims.1 == 0 || dims.2 == 0 {
            return Err(Error::InvalidConfig {
                reason: format!("grid dimensions {dims:?} must be non-zero"),
            });
        }
        Ok(Self {
            dims,
            obstacles: vec![false; dims.0 * dims.1 * dims.2],
        })
    }

    /// Generates a random obstacle field with the given density, keeping
    /// `start` and `goal` free.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero dimensions, an out-of-grid
    /// start/goal, or a density outside `[0, 1)`.
    pub fn generate(
        dims: (usize, usize, usize),
        density: f64,
        start: Cell,
        goal: Cell,
        seed: u64,
    ) -> Result<Self> {
        if !(0.0..1.0).contains(&density) {
            return Err(Error::InvalidConfig {
                reason: format!("obstacle density {density} must be in [0, 1)"),
            });
        }
        let mut grid = Self::empty(dims)?;
        if !grid.contains(start) || !grid.contains(goal) {
            return Err(Error::InvalidConfig {
                reason: "start or goal outside the grid".to_string(),
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for index in 0..grid.obstacles.len() {
            grid.obstacles[index] = rng.gen_bool(density);
        }
        grid.set_obstacle(start, false);
        grid.set_obstacle(goal, false);
        Ok(grid)
    }

    /// Grid dimensions.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.obstacles.len()
    }

    /// Returns `true` if `cell` lies inside the grid.
    pub fn contains(&self, cell: Cell) -> bool {
        cell.0 < self.dims.0 && cell.1 < self.dims.1 && cell.2 < self.dims.2
    }

    fn index(&self, cell: Cell) -> usize {
        (cell.2 * self.dims.1 + cell.1) * self.dims.0 + cell.0
    }

    /// Returns `true` if `cell` is free (inside the grid and not an obstacle).
    pub fn is_free(&self, cell: Cell) -> bool {
        self.contains(cell) && !self.obstacles[self.index(cell)]
    }

    /// Marks or clears an obstacle.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the grid.
    pub fn set_obstacle(&mut self, cell: Cell, obstacle: bool) {
        assert!(self.contains(cell), "cell {cell:?} outside grid");
        let index = self.index(cell);
        self.obstacles[index] = obstacle;
    }

    /// Number of obstacle cells.
    pub fn obstacle_count(&self) -> usize {
        self.obstacles.iter().filter(|&&o| o).count()
    }

    /// The 6-connected free neighbours of `cell`.
    pub fn free_neighbors(&self, cell: Cell) -> Vec<Cell> {
        let mut out = Vec::with_capacity(6);
        let (x, y, z) = cell;
        let candidates = [
            (x.wrapping_sub(1), y, z),
            (x + 1, y, z),
            (x, y.wrapping_sub(1), z),
            (x, y + 1, z),
            (x, y, z.wrapping_sub(1)),
            (x, y, z + 1),
        ];
        for candidate in candidates {
            if self.is_free(candidate) {
                out.push(candidate);
            }
        }
        out
    }
}

/// The result of a planning run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanOutcome {
    /// The shortest path from start to goal (inclusive), if one exists.
    pub path: Option<Vec<Cell>>,
    /// The wavefronts explored, one per BFS level (level 0 is the start cell).
    pub wavefronts: Vec<Vec<Cell>>,
    /// Total cells expanded.
    pub expanded_cells: usize,
}

/// Parameters converting planner work into memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficModel {
    /// Grid cells that fit in one cache line (determines how many cell visits
    /// trigger one cache-line load).
    pub cells_per_line: u32,
    /// Computation cycles spent per expanded cell.
    pub compute_per_cell: u64,
    /// One eviction (distance-value write-back) is issued every this many
    /// cache-line loads.
    pub loads_per_eviction: u32,
}

impl Default for TrafficModel {
    fn default() -> Self {
        Self {
            cells_per_line: 8,
            compute_per_cell: 12,
            loads_per_eviction: 4,
        }
    }
}

/// The 16-thread parallel 3D path planner.
#[derive(Debug, Clone)]
pub struct PathPlanner {
    grid: ObstacleGrid,
    start: Cell,
    goal: Cell,
}

impl PathPlanner {
    /// Creates a planner.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if start or goal is not a free cell.
    pub fn new(grid: ObstacleGrid, start: Cell, goal: Cell) -> Result<Self> {
        if !grid.is_free(start) || !grid.is_free(goal) {
            return Err(Error::InvalidConfig {
                reason: "start and goal must be free cells inside the grid".to_string(),
            });
        }
        Ok(Self { grid, start, goal })
    }

    /// The obstacle grid.
    pub fn grid(&self) -> &ObstacleGrid {
        &self.grid
    }

    /// Runs the breadth-first wavefront expansion and reconstructs the shortest
    /// path.
    pub fn plan(&self) -> PlanOutcome {
        let mut parent: Vec<Option<Cell>> = vec![None; self.grid.cell_count()];
        let mut visited = vec![false; self.grid.cell_count()];
        let mut wavefronts = Vec::new();
        let mut frontier = VecDeque::new();
        frontier.push_back(self.start);
        visited[self.grid.index(self.start)] = true;
        let mut expanded = 0usize;
        let mut found = self.start == self.goal;

        while !frontier.is_empty() && !found {
            let level: Vec<Cell> = frontier.drain(..).collect();
            wavefronts.push(level.clone());
            let mut next = VecDeque::new();
            for cell in level {
                expanded += 1;
                for neighbor in self.grid.free_neighbors(cell) {
                    let index = self.grid.index(neighbor);
                    if visited[index] {
                        continue;
                    }
                    visited[index] = true;
                    parent[index] = Some(cell);
                    if neighbor == self.goal {
                        found = true;
                    }
                    next.push_back(neighbor);
                }
            }
            frontier = next;
        }
        if !frontier.is_empty() {
            wavefronts.push(frontier.iter().copied().collect());
        }

        let path = if found {
            let mut path = vec![self.goal];
            let mut current = self.goal;
            while current != self.start {
                let Some(prev) = parent[self.grid.index(current)] else {
                    break;
                };
                path.push(prev);
                current = prev;
            }
            path.reverse();
            (path.first() == Some(&self.start)).then_some(path)
        } else {
            None
        };

        PlanOutcome {
            path,
            wavefronts,
            expanded_cells: expanded,
        }
    }

    /// Derives the barrier-synchronised per-phase memory traces of the parallel
    /// planner: every wavefront is one phase, its cells are dealt round-robin
    /// to the placed worker threads, and each worker's share is converted into
    /// loads/evictions/computation according to `traffic`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the placement is empty.
    pub fn parallel_phases(
        &self,
        placement: &Placement,
        traffic: TrafficModel,
    ) -> Result<Vec<ParallelPhase>> {
        if placement.is_empty() {
            return Err(Error::InvalidConfig {
                reason: "placement must contain at least one thread".to_string(),
            });
        }
        let outcome = self.plan();
        let workers = placement.len();
        let mut phases = Vec::with_capacity(outcome.wavefronts.len());
        for wavefront in &outcome.wavefronts {
            let mut per_worker_cells = vec![0usize; workers];
            for (index, _cell) in wavefront.iter().enumerate() {
                per_worker_cells[index % workers] += 1;
            }
            let mut threads = Vec::with_capacity(workers);
            for (worker, &cells) in per_worker_cells.iter().enumerate() {
                let trace = worker_trace(cells, traffic);
                threads.push((placement.cores()[worker], trace));
            }
            phases.push(ParallelPhase::new(threads));
        }
        Ok(phases)
    }
}

/// Converts a worker's share of a wavefront (`cells` expanded cells) into a
/// memory-access trace.
fn worker_trace(cells: usize, traffic: TrafficModel) -> Trace {
    if cells == 0 {
        // Idle worker: it still spins at the barrier for a few cycles.
        return Trace::from_events(vec![TraceEvent::compute(traffic.compute_per_cell)]);
    }
    let loads = (cells as u32).div_ceil(traffic.cells_per_line).max(1);
    let compute_per_load = (cells as u64 * traffic.compute_per_cell) / u64::from(loads).max(1);
    let mut events = Vec::new();
    for load_index in 0..loads {
        events.push(TraceEvent::load_after(compute_per_load.max(1)));
        if traffic.loads_per_eviction > 0 && (load_index + 1) % traffic.loads_per_eviction == 0 {
            events.push(TraceEvent::eviction_after(1));
        }
    }
    Trace::from_events(events)
}

/// Convenience: the obstacle map used by the repository's experiments — a
/// 32×32×16 grid with 20% obstacle density, start near one corner and goal
/// near the opposite corner.
///
/// # Errors
///
/// Never fails for the fixed parameters; kept for API uniformity.
pub fn default_scenario(seed: u64) -> Result<PathPlanner> {
    let dims = (32, 32, 16);
    let start = (1, 1, 1);
    let goal = (30, 30, 14);
    let grid = ObstacleGrid::generate(dims, 0.2, start, goal, seed)?;
    PathPlanner::new(grid, start, goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnoc_core::{Coord, Mesh};

    fn small_planner() -> PathPlanner {
        let grid = ObstacleGrid::empty((8, 8, 4)).unwrap();
        PathPlanner::new(grid, (0, 0, 0), (7, 7, 3)).unwrap()
    }

    #[test]
    fn grid_construction_and_bounds() {
        let grid = ObstacleGrid::empty((4, 3, 2)).unwrap();
        assert_eq!(grid.cell_count(), 24);
        assert!(grid.contains((3, 2, 1)));
        assert!(!grid.contains((4, 0, 0)));
        assert!(grid.is_free((0, 0, 0)));
        assert!(ObstacleGrid::empty((0, 3, 2)).is_err());
    }

    #[test]
    fn obstacles_block_cells() {
        let mut grid = ObstacleGrid::empty((3, 3, 1)).unwrap();
        grid.set_obstacle((1, 1, 0), true);
        assert!(!grid.is_free((1, 1, 0)));
        assert_eq!(grid.obstacle_count(), 1);
        let neighbors = grid.free_neighbors((0, 1, 0));
        assert!(!neighbors.contains(&(1, 1, 0)));
    }

    #[test]
    fn generated_grid_keeps_start_and_goal_free() {
        let grid = ObstacleGrid::generate((10, 10, 5), 0.5, (0, 0, 0), (9, 9, 4), 123).unwrap();
        assert!(grid.is_free((0, 0, 0)));
        assert!(grid.is_free((9, 9, 4)));
        // With 50% density a decent number of obstacles must exist.
        assert!(grid.obstacle_count() > 100);
        // Determinism.
        let again = ObstacleGrid::generate((10, 10, 5), 0.5, (0, 0, 0), (9, 9, 4), 123).unwrap();
        assert_eq!(grid, again);
    }

    #[test]
    fn shortest_path_in_empty_grid_has_manhattan_length() {
        let planner = small_planner();
        let outcome = planner.plan();
        let path = outcome.path.expect("path exists in an empty grid");
        assert_eq!(path.first(), Some(&(0, 0, 0)));
        assert_eq!(path.last(), Some(&(7, 7, 3)));
        // Manhattan distance 7 + 7 + 3 = 17 steps => 18 cells.
        assert_eq!(path.len(), 18);
        // Consecutive cells are 6-connected neighbours.
        for pair in path.windows(2) {
            let d = pair[0].0.abs_diff(pair[1].0)
                + pair[0].1.abs_diff(pair[1].1)
                + pair[0].2.abs_diff(pair[1].2);
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn blocked_goal_yields_no_path() {
        let mut grid = ObstacleGrid::empty((5, 5, 1)).unwrap();
        // Wall the goal off completely.
        grid.set_obstacle((3, 4, 0), true);
        grid.set_obstacle((4, 3, 0), true);
        let planner = PathPlanner::new(grid, (0, 0, 0), (4, 4, 0)).unwrap();
        let outcome = planner.plan();
        assert!(outcome.path.is_none());
        assert!(outcome.expanded_cells > 0);
    }

    #[test]
    fn planner_rejects_blocked_endpoints() {
        let mut grid = ObstacleGrid::empty((3, 3, 1)).unwrap();
        grid.set_obstacle((0, 0, 0), true);
        assert!(PathPlanner::new(grid, (0, 0, 0), (2, 2, 0)).is_err());
    }

    #[test]
    fn default_scenario_finds_a_path() {
        let planner = default_scenario(7).unwrap();
        let outcome = planner.plan();
        let path = outcome.path.expect("the default scenario must be solvable");
        assert!(path.len() >= 1 + (30 - 1) + (30 - 1) + (14 - 1));
        assert!(outcome.expanded_cells > path.len());
    }

    #[test]
    fn parallel_phases_cover_all_wavefronts() {
        let planner = small_planner();
        let mesh = Mesh::square(8).unwrap();
        let memory = Coord::from_row_col(0, 0);
        let placement = &Placement::paper_set(&mesh, memory).unwrap()[0];
        let phases = planner
            .parallel_phases(placement, TrafficModel::default())
            .unwrap();
        let outcome = planner.plan();
        assert_eq!(phases.len(), outcome.wavefronts.len());
        // Every phase has one trace per placed thread.
        assert!(phases.iter().all(|p| p.threads.len() == 16));
        // The busiest phases issue real memory traffic.
        let total_accesses: u64 = phases
            .iter()
            .flat_map(|p| p.threads.iter())
            .map(|(_, t)| t.total_accesses())
            .sum();
        assert!(total_accesses > 50, "total accesses {total_accesses}");
    }

    #[test]
    fn worker_trace_scales_with_cells() {
        let traffic = TrafficModel::default();
        let small = worker_trace(8, traffic);
        let large = worker_trace(64, traffic);
        assert!(large.total_accesses() > small.total_accesses());
        assert!(large.total_compute_cycles() > small.total_compute_cycles());
        let idle = worker_trace(0, traffic);
        assert_eq!(idle.total_accesses(), 0);
    }
}
