//! The manycore platform in *operation mode*: cores execute their traces with
//! every memory transaction travelling through the cycle-accurate NoC to the
//! memory controller and back.
//!
//! This is the mode used to measure **average performance** (Section IV of the
//! paper: WaW + WaP degrades average performance by less than 1%).  Worst-case
//! (WCET) estimates are produced analytically by [`crate::wcet`] instead, which
//! corresponds to the paper's *WCET computation mode* where each request is
//! charged its upper bound delay.

use std::collections::HashMap;

use wnoc_core::flow::FlowSet;
use wnoc_core::{Coord, Cycle, Error, Mesh, MessageId, NocConfig, NodeId, Result};
use wnoc_sim::network::{Delivered, Network};

use crate::cpu::{Core, CoreStats};
use crate::memory::MemoryController;
use crate::trace::Trace;
use crate::transaction::{Transaction, TransactionId};
use crate::wcet::WcetEstimator;

/// How the platform charges memory transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// Operation mode: every transaction traverses the cycle-accurate NoC and
    /// the memory controller; used for average-performance measurements.
    #[default]
    Operation,
    /// WCET computation mode (the paper's reference \[17\]): every transaction is
    /// charged its analytical upper bound delay plus the memory service bound,
    /// regardless of the actual NoC state.  Execution time in this mode is the
    /// WCET estimate.
    WcetComputation,
}

/// Static description of the manycore platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformConfig {
    /// Side of the square mesh (the paper uses 8, i.e. 64 nodes).
    pub mesh_side: u16,
    /// Location of the memory controller (the paper uses `R(0,0)`).
    pub memory: Coord,
    /// Memory service latency per request, in cycles.
    pub memory_service_cycles: u64,
    /// NoC design (regular or WaW + WaP, packet sizes, timing).
    pub noc: NocConfig,
}

impl PlatformConfig {
    /// The paper's 64-core platform with the given NoC design.
    pub fn paper_8x8(noc: NocConfig) -> Self {
        Self {
            mesh_side: 8,
            memory: Coord::from_row_col(0, 0),
            memory_service_cycles: 30,
            noc,
        }
    }

    /// A smaller 4×4 platform, convenient for tests.
    pub fn small_4x4(noc: NocConfig) -> Self {
        Self {
            mesh_side: 4,
            memory: Coord::from_row_col(0, 0),
            memory_service_cycles: 10,
            noc,
        }
    }
}

/// The full platform: cores + NoC + memory controller, simulated cycle by
/// cycle.
///
/// # Examples
///
/// ```
/// use wnoc_core::{Coord, NocConfig};
/// use wnoc_manycore::system::{ManycoreSystem, PlatformConfig};
/// use wnoc_manycore::trace::{Trace, TraceEvent};
///
/// let platform = PlatformConfig::small_4x4(NocConfig::waw_wap());
/// let trace = Trace::from_events(vec![TraceEvent::load_after(10); 4]);
/// let workloads = vec![(Coord::from_row_col(3, 3), trace)];
/// let mut system = ManycoreSystem::new(platform, workloads)?;
/// assert!(system.run_until_finished(100_000));
/// assert!(system.execution_time() > 40);
/// # Ok::<(), wnoc_core::Error>(())
/// ```
#[derive(Debug)]
pub struct ManycoreSystem {
    mesh: Mesh,
    config: PlatformConfig,
    mode: ExecutionMode,
    network: Network,
    cores: Vec<(NodeId, Core)>,
    memory: MemoryController,
    memory_node: NodeId,
    /// Request messages in flight: (core node, message id) -> transaction.
    pending_requests: HashMap<(NodeId, MessageId), Transaction>,
    /// Response messages in flight: message id (from the memory NIC) -> core.
    pending_responses: HashMap<MessageId, (NodeId, TransactionId)>,
    /// WCET computation mode only: per-core completion cycle of the
    /// outstanding (artificially delayed) transaction.
    ubd_completions: HashMap<NodeId, Cycle>,
    /// WCET computation mode only: the analytical bound provider.
    estimator: Option<WcetEstimator>,
    /// Reusable delivery drain buffer (the NoC is polled every cycle).
    arrived: Vec<Delivered>,
    next_transaction: u64,
    cycle: Cycle,
}

impl ManycoreSystem {
    /// Builds the platform and places one workload trace per `(coordinate,
    /// trace)` pair; nodes without a trace stay silent.
    ///
    /// # Errors
    ///
    /// Returns an error if a workload is placed outside the mesh, on the memory
    /// controller node, or twice on the same node.
    pub fn new(config: PlatformConfig, workloads: Vec<(Coord, Trace)>) -> Result<Self> {
        Self::with_mode(config, workloads, ExecutionMode::Operation)
    }

    /// Builds the platform in the given execution mode (see [`ExecutionMode`]).
    ///
    /// # Errors
    ///
    /// Same as [`ManycoreSystem::new`].
    pub fn with_mode(
        config: PlatformConfig,
        workloads: Vec<(Coord, Trace)>,
        mode: ExecutionMode,
    ) -> Result<Self> {
        let mesh = Mesh::square(config.mesh_side)?;
        let memory_node = mesh.node_id(config.memory)?;
        let flows = FlowSet::to_and_from_endpoints(&mesh, &[config.memory])?;
        let network = Network::new(mesh, config.noc, &flows)?;
        let mut cores = Vec::new();
        let mut used = std::collections::HashSet::new();
        for (coord, trace) in workloads {
            let node = mesh.node_id(coord)?;
            if node == memory_node {
                return Err(Error::InvalidConfig {
                    reason: format!("cannot place a workload on the memory node {coord}"),
                });
            }
            if !used.insert(node) {
                return Err(Error::InvalidConfig {
                    reason: format!("two workloads placed on node {coord}"),
                });
            }
            cores.push((node, Core::new(node, trace)));
        }
        let memory = MemoryController::new(memory_node, config.memory_service_cycles);
        let estimator = match mode {
            ExecutionMode::Operation => None,
            ExecutionMode::WcetComputation => Some(WcetEstimator::new(
                config.mesh_side,
                config.memory,
                config.memory_service_cycles,
                config.noc,
            )?),
        };
        Ok(Self {
            mesh,
            config,
            mode,
            network,
            cores,
            memory,
            memory_node,
            pending_requests: HashMap::new(),
            pending_responses: HashMap::new(),
            ubd_completions: HashMap::new(),
            estimator,
            arrived: Vec::new(),
            next_transaction: 0,
            cycle: 0,
        })
    }

    /// The execution mode this platform instance runs in.
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// The mesh topology.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Access to the underlying NoC (statistics, utilisation).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Per-core statistics, keyed by node.
    pub fn core_stats(&self) -> Vec<(NodeId, CoreStats)> {
        self.cores
            .iter()
            .map(|(node, core)| (*node, core.stats()))
            .collect()
    }

    /// Returns `true` once every core has finished its trace and all
    /// transactions have drained.
    pub fn is_finished(&self) -> bool {
        self.cores.iter().all(|(_, c)| c.is_finished())
            && self.pending_requests.is_empty()
            && self.pending_responses.is_empty()
            && self.ubd_completions.is_empty()
            && self.memory.is_idle()
    }

    /// Completion cycle of the core at `coord`, if it has finished.
    pub fn core_finish_time(&self, coord: Coord) -> Option<Cycle> {
        let node = self.mesh.node_id(coord).ok()?;
        self.cores
            .iter()
            .find(|(n, _)| *n == node)
            .and_then(|(_, c)| c.finished_at())
    }

    /// Execution time of the whole workload: the cycle at which the last core
    /// finished (or the current cycle if some core is still running).
    pub fn execution_time(&self) -> Cycle {
        self.cores
            .iter()
            .map(|(_, c)| c.finished_at().unwrap_or(self.cycle))
            .max()
            .unwrap_or(self.cycle)
    }

    /// Advances the platform by one cycle.
    pub fn step(&mut self) {
        self.cycle += 1;
        let now = self.cycle;

        // 0. WCET computation mode: artificially delayed transactions whose
        //    upper bound has elapsed complete before the cores tick.
        if self.mode == ExecutionMode::WcetComputation {
            let done: Vec<NodeId> = self
                .ubd_completions
                .iter()
                .filter(|(_, &completion)| now >= completion)
                .map(|(&node, _)| node)
                .collect();
            for node in done {
                self.ubd_completions.remove(&node);
                if let Some((_, core)) = self.cores.iter_mut().find(|(n, _)| *n == node) {
                    core.complete_memory(now);
                }
            }
        }

        // 1. Cores execute; issued accesses become NoC request messages
        //    (operation mode) or artificially delayed transactions (WCET mode).
        for index in 0..self.cores.len() {
            let node = self.cores[index].0;
            let Some(access) = self.cores[index].1.tick(now) else {
                continue;
            };
            if self.mode == ExecutionMode::WcetComputation {
                let coord = self
                    .mesh
                    .coord_of(node)
                    .expect("core nodes are inside the mesh");
                let bound = self
                    .estimator
                    .as_ref()
                    .expect("estimator exists in WCET mode")
                    .transaction_bound(coord, access)
                    .expect("core is not the memory node");
                self.ubd_completions.insert(node, now + bound);
                continue;
            }
            let transaction = Transaction {
                id: TransactionId(self.next_transaction),
                core: node,
                memory: self.memory_node,
                kind: access,
                issued: now,
            };
            self.next_transaction += 1;
            let message = self
                .network
                .offer(node, self.memory_node, access.sizes().request_flits)
                .expect("core and memory are valid distinct nodes");
            self.pending_requests.insert((node, message), transaction);
        }

        if self.mode == ExecutionMode::WcetComputation {
            // The NoC and the memory controller are not exercised in this mode;
            // their worst-case contribution is already part of the bound.
            return;
        }

        // 2. The NoC moves flits.
        self.network.step();

        // 3. Delivered messages either reach the memory controller (requests)
        //    or wake up a waiting core (responses).
        // `self.arrived` cannot be borrowed while `self.memory`/`self.cores`
        // are mutated, so move the drained batch out through a scratch swap
        // (both vectors keep their capacity) and restore it afterwards.
        let mut arrived = std::mem::take(&mut self.arrived);
        self.network.drain_delivered_into(&mut arrived);
        for delivered in arrived.drain(..) {
            if delivered.dst == self.memory_node {
                if let Some(txn) = self
                    .pending_requests
                    .remove(&(delivered.src, delivered.message))
                {
                    self.memory.enqueue(txn);
                }
            } else if let Some((core_node, _txn)) =
                self.pending_responses.remove(&delivered.message)
            {
                debug_assert_eq!(core_node, delivered.dst);
                if let Some((_, core)) = self.cores.iter_mut().find(|(n, _)| *n == core_node) {
                    core.complete_memory(now);
                }
            }
        }
        self.arrived = arrived;

        // 4. The memory controller serves requests and sends responses back.
        if let Some(response) = self.memory.tick(now) {
            let message = self
                .network
                .offer(self.memory_node, response.core, response.response_flits)
                .expect("memory and core are valid distinct nodes");
            self.pending_responses
                .insert(message, (response.core, response.transaction));
        }
    }

    /// Runs until every core finished or `max_cycles` elapsed; returns `true`
    /// if the workload completed.
    pub fn run_until_finished(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.is_finished() {
                return true;
            }
            self.step();
        }
        self.is_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn trace(loads: usize, gap: u64) -> Trace {
        Trace::from_events(vec![TraceEvent::load_after(gap); loads])
    }

    #[test]
    fn single_core_completes_all_transactions() {
        let platform = PlatformConfig::small_4x4(NocConfig::regular(4));
        let workloads = vec![(Coord::from_row_col(3, 3), trace(5, 10))];
        let mut system = ManycoreSystem::new(platform, workloads).unwrap();
        assert!(system.run_until_finished(100_000));
        let stats = system.core_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.loads, 5);
        // Execution takes compute + 5 round trips through NoC and memory.
        let time = system.execution_time();
        assert!(time > 5 * (10 + 10), "execution time {time}");
        assert_eq!(system.network().stats().messages_delivered, 10);
    }

    #[test]
    fn waw_wap_platform_also_completes() {
        let platform = PlatformConfig::small_4x4(NocConfig::waw_wap());
        let workloads = vec![
            (Coord::from_row_col(3, 3), trace(3, 5)),
            (Coord::from_row_col(1, 2), trace(3, 5)),
        ];
        let mut system = ManycoreSystem::new(platform, workloads).unwrap();
        assert!(system.run_until_finished(100_000));
        for (_, stats) in system.core_stats() {
            assert_eq!(stats.loads, 3);
        }
    }

    #[test]
    fn eviction_traffic_is_supported() {
        let platform = PlatformConfig::small_4x4(NocConfig::regular(4));
        let t = Trace::from_events(vec![
            TraceEvent::load_after(5),
            TraceEvent::eviction_after(5),
        ]);
        let workloads = vec![(Coord::from_row_col(2, 2), t)];
        let mut system = ManycoreSystem::new(platform, workloads).unwrap();
        assert!(system.run_until_finished(100_000));
        let (_, stats) = system.core_stats()[0];
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn invalid_placements_rejected() {
        let platform = PlatformConfig::small_4x4(NocConfig::regular(4));
        // On the memory node.
        assert!(
            ManycoreSystem::new(platform, vec![(Coord::from_row_col(0, 0), trace(1, 1))]).is_err()
        );
        // Outside the mesh.
        assert!(
            ManycoreSystem::new(platform, vec![(Coord::from_row_col(9, 9), trace(1, 1))]).is_err()
        );
        // Duplicate placement.
        assert!(ManycoreSystem::new(
            platform,
            vec![
                (Coord::from_row_col(1, 1), trace(1, 1)),
                (Coord::from_row_col(1, 1), trace(1, 1))
            ]
        )
        .is_err());
    }

    #[test]
    fn distant_cores_take_longer_under_contention() {
        // With every core hammering the single memory controller, a far corner
        // core finishes no earlier than an adjacent one (same workload).
        let platform = PlatformConfig::small_4x4(NocConfig::regular(4));
        let mut workloads = Vec::new();
        for row in 0..4u16 {
            for col in 0..4u16 {
                if row == 0 && col == 0 {
                    continue;
                }
                workloads.push((Coord::from_row_col(row, col), trace(10, 5)));
            }
        }
        let mut system = ManycoreSystem::new(platform, workloads).unwrap();
        assert!(system.run_until_finished(1_000_000));
        let near = system.core_finish_time(Coord::from_row_col(0, 1)).unwrap();
        let far = system.core_finish_time(Coord::from_row_col(3, 3)).unwrap();
        assert!(
            far + 4 >= near,
            "far {far} should not finish much before near {near}"
        );
    }

    #[test]
    fn wcet_mode_matches_the_closed_form_estimator() {
        // Running the platform in WCET computation mode must reproduce the
        // closed-form estimate (up to one cycle of bookkeeping per access).
        let platform = PlatformConfig::small_4x4(NocConfig::waw_wap());
        let workload = Trace::from_events(vec![
            TraceEvent::load_after(25),
            TraceEvent::eviction_after(10),
            TraceEvent::load_after(40),
        ]);
        let core = Coord::from_row_col(3, 2);
        let mut system = ManycoreSystem::with_mode(
            platform,
            vec![(core, workload.clone())],
            ExecutionMode::WcetComputation,
        )
        .unwrap();
        assert_eq!(system.mode(), ExecutionMode::WcetComputation);
        assert!(system.run_until_finished(1_000_000));
        let stepped = system.execution_time();
        let estimator = WcetEstimator::new(
            platform.mesh_side,
            platform.memory,
            platform.memory_service_cycles,
            platform.noc,
        )
        .unwrap();
        let closed_form = estimator.core_wcet(core, &workload).unwrap();
        let tolerance = workload.total_accesses() + 1;
        assert!(
            stepped.abs_diff(closed_form) <= tolerance,
            "stepped {stepped} vs closed form {closed_form}"
        );
    }

    #[test]
    fn wcet_mode_dominates_operation_mode() {
        // The artificially delayed (worst-case) run can never be faster than
        // the actual run of the same workload in isolation.
        let platform = PlatformConfig::small_4x4(NocConfig::waw_wap());
        let workload = vec![(Coord::from_row_col(2, 3), trace(6, 20))];
        let mut operation = ManycoreSystem::new(platform, workload.clone()).unwrap();
        assert!(operation.run_until_finished(1_000_000));
        let mut wcet =
            ManycoreSystem::with_mode(platform, workload, ExecutionMode::WcetComputation).unwrap();
        assert!(wcet.run_until_finished(1_000_000));
        assert!(
            wcet.execution_time() >= operation.execution_time(),
            "WCET mode {} below operation mode {}",
            wcet.execution_time(),
            operation.execution_time()
        );
    }

    #[test]
    fn average_performance_of_waw_wap_is_close_to_regular() {
        // The headline average-performance claim: for realistic (non-saturated)
        // workloads, WaW+WaP costs almost nothing in average execution time.
        let mut workloads = Vec::new();
        for row in 0..4u16 {
            for col in 0..4u16 {
                if row == 0 && col == 0 {
                    continue;
                }
                workloads.push((Coord::from_row_col(row, col), trace(20, 50)));
            }
        }
        let run = |noc: NocConfig| -> u64 {
            let platform = PlatformConfig::small_4x4(noc);
            let mut system = ManycoreSystem::new(platform, workloads.clone()).unwrap();
            assert!(system.run_until_finished(10_000_000));
            system.execution_time()
        };
        let regular = run(NocConfig::regular(4));
        let proposed = run(NocConfig::waw_wap());
        let degradation = proposed as f64 / regular as f64;
        assert!(
            degradation < 1.25,
            "WaW+WaP degradation {degradation} vs regular ({proposed} vs {regular})"
        );
    }
}
