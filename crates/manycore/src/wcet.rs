//! WCET estimation — the *WCET computation mode* of the paper.
//!
//! Following the paper's reference \[17\], WCET estimates are obtained by
//! charging every NoC request an artificial **upper bound delay** (UBD) derived
//! from the analytical WCTT model of the NoC design in use, plus a bound on the
//! memory service time.  For an in-order core that stalls on every memory
//! transaction this makes the WCET a simple closed form over its trace:
//!
//! ```text
//! WCET = total_compute
//!      + Σ over accesses ( issue + UBD_request + memory + UBD_response )
//! ```
//!
//! For a parallel application structured in barrier-synchronised phases, the
//! WCET of each phase is the maximum WCET across the threads participating in
//! it, and the application WCET is the sum over phases (see
//! [`parallel_wcet`]).

use std::collections::HashMap;

use wnoc_core::analysis::ubd::UbdModel;
use wnoc_core::flow::FlowSet;
use wnoc_core::{Coord, Error, Mesh, NocConfig, Result};

use crate::trace::Trace;
use crate::transaction::AccessKind;

/// WCET estimator for one platform (mesh + memory location + NoC design).
///
/// # Examples
///
/// ```
/// use wnoc_core::{Coord, NocConfig};
/// use wnoc_manycore::trace::{Trace, TraceEvent};
/// use wnoc_manycore::wcet::WcetEstimator;
///
/// let trace = Trace::from_events(vec![TraceEvent::load_after(100); 10]);
/// let memory = Coord::from_row_col(0, 0);
/// let regular = WcetEstimator::new(8, memory, 30, NocConfig::regular(4))?;
/// let proposed = WcetEstimator::new(8, memory, 30, NocConfig::waw_wap())?;
/// let far = Coord::from_row_col(7, 7);
/// // The far corner's WCET shrinks by orders of magnitude with WaW+WaP.
/// assert!(regular.core_wcet(far, &trace)? > 10 * proposed.core_wcet(far, &trace)?);
/// # Ok::<(), wnoc_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct WcetEstimator {
    mesh: Mesh,
    memory: Coord,
    memory_service_cycles: u64,
    config: NocConfig,
    ubd: UbdModel,
    /// Cached per-(core, access-kind) round-trip bounds.
    cache: HashMap<(Coord, AccessKind), u64>,
}

impl WcetEstimator {
    /// Creates an estimator for a `mesh_side × mesh_side` platform whose memory
    /// controller sits at `memory`.
    ///
    /// # Errors
    ///
    /// Returns an error if the memory coordinate is outside the mesh or the NoC
    /// configuration is invalid.
    pub fn new(
        mesh_side: u16,
        memory: Coord,
        memory_service_cycles: u64,
        config: NocConfig,
    ) -> Result<Self> {
        let mesh = Mesh::square(mesh_side)?;
        mesh.check(memory)?;
        let flows = FlowSet::to_and_from_endpoints(&mesh, &[memory])?;
        let mut ubd = UbdModel::new(config, &flows)?;
        // Precompute the per-core transaction bounds once; afterwards WCET
        // estimation is a pure lookup and stays cheap even when called for
        // thousands of (core, trace) combinations.
        let mut cache = HashMap::new();
        for core in mesh.routers() {
            if core == memory {
                continue;
            }
            for kind in [AccessKind::Load, AccessKind::Eviction] {
                let bound =
                    ubd.core_ubd(core, memory, kind.sizes())?.round_trip() + memory_service_cycles;
                cache.insert((core, kind), bound);
            }
        }
        Ok(Self {
            mesh,
            memory,
            memory_service_cycles,
            config,
            ubd,
            cache,
        })
    }

    /// The NoC design this estimator assumes.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The mesh of the platform.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The memory controller location.
    pub fn memory(&self) -> Coord {
        self.memory
    }

    /// The assumed bound on the memory service time per request, in cycles.
    pub fn memory_service_cycles(&self) -> u64 {
        self.memory_service_cycles
    }

    /// The underlying UBD model (per-message NoC traversal bounds).
    pub fn ubd_model(&self) -> &UbdModel {
        &self.ubd
    }

    /// Worst-case round-trip time of one memory transaction of `kind` issued by
    /// the core at `core`: request UBD + memory service bound + response UBD.
    ///
    /// # Errors
    ///
    /// Returns an error if `core` lies outside the mesh or is the memory node.
    pub fn transaction_bound(&self, core: Coord, kind: AccessKind) -> Result<u64> {
        self.cache
            .get(&(core, kind))
            .copied()
            .ok_or_else(|| Error::InvalidConfig {
                reason: format!("no transaction bound for core {core} (outside the mesh?)"),
            })
    }

    /// WCET estimate of `trace` executed on the core at `core`.
    ///
    /// # Errors
    ///
    /// Returns an error if `core` lies outside the mesh or coincides with the
    /// memory controller.
    pub fn core_wcet(&self, core: Coord, trace: &Trace) -> Result<u64> {
        if core == self.memory {
            return Err(Error::InvalidConfig {
                reason: "cannot estimate a workload placed on the memory node".to_string(),
            });
        }
        let mut total = trace.total_compute_cycles();
        for kind in [AccessKind::Load, AccessKind::Eviction] {
            let count = trace.access_count(kind);
            if count == 0 {
                continue;
            }
            let per_access = 1 + self.transaction_bound(core, kind)?;
            total += count * per_access;
        }
        Ok(total)
    }

    /// WCET estimates for the same trace on every core of the mesh (except the
    /// memory node), as `(coordinate, WCET)` pairs in row-major order.
    ///
    /// # Errors
    ///
    /// Propagates any per-core estimation error.
    pub fn all_cores_wcet(&self, trace: &Trace) -> Result<Vec<(Coord, u64)>> {
        self.mesh
            .routers()
            .filter(|&c| c != self.memory)
            .map(|core| Ok((core, self.core_wcet(core, trace)?)))
            .collect()
    }
}

/// One barrier-synchronised phase of a parallel application: each participating
/// thread contributes its own trace, placed on a specific core.
#[derive(Debug, Clone, Default)]
pub struct ParallelPhase {
    /// The traces of the threads active in this phase, with their placement.
    pub threads: Vec<(Coord, Trace)>,
}

impl ParallelPhase {
    /// Creates a phase from placed thread traces.
    pub fn new(threads: Vec<(Coord, Trace)>) -> Self {
        Self { threads }
    }
}

/// WCET estimate of a barrier-synchronised parallel application: the sum over
/// phases of the worst per-thread WCET within each phase.
///
/// # Errors
///
/// Propagates per-thread estimation errors (e.g. a thread placed outside the
/// mesh).
pub fn parallel_wcet(estimator: &WcetEstimator, phases: &[ParallelPhase]) -> Result<u64> {
    let mut total = 0u64;
    for phase in phases {
        let mut worst = 0u64;
        for (core, trace) in &phase.threads {
            worst = worst.max(estimator.core_wcet(*core, trace)?);
        }
        total += worst;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn load_trace(accesses: usize, gap: u64) -> Trace {
        Trace::from_events(vec![TraceEvent::load_after(gap); accesses])
    }

    fn estimator(config: NocConfig) -> WcetEstimator {
        WcetEstimator::new(8, Coord::from_row_col(0, 0), 30, config).unwrap()
    }

    #[test]
    fn wcet_includes_compute_and_transactions() {
        let est = estimator(NocConfig::waw_wap());
        let trace = load_trace(10, 100);
        let wcet = est.core_wcet(Coord::from_row_col(4, 4), &trace).unwrap();
        // At least the compute time plus ten memory service latencies.
        assert!(wcet > 1000 + 10 * 30);
        // And strictly more than a trace without any access.
        let compute_only = Trace::from_events(vec![TraceEvent::compute(1000)]);
        let base = est
            .core_wcet(Coord::from_row_col(4, 4), &compute_only)
            .unwrap();
        assert_eq!(base, 1000);
        assert!(wcet > base);
    }

    #[test]
    fn far_cores_gain_most_from_waw_wap() {
        // Shape of Table III: normalised WCET (WaW+WaP / regular) is slightly
        // above 1 near the memory controller and orders of magnitude below 1
        // in the far corner.
        let regular = estimator(NocConfig::regular(4));
        let proposed = estimator(NocConfig::waw_wap());
        let trace = load_trace(50, 200);

        let near = Coord::from_row_col(0, 1);
        let far = Coord::from_row_col(7, 7);

        let near_ratio = proposed.core_wcet(near, &trace).unwrap() as f64
            / regular.core_wcet(near, &trace).unwrap() as f64;
        let far_ratio = proposed.core_wcet(far, &trace).unwrap() as f64
            / regular.core_wcet(far, &trace).unwrap() as f64;

        assert!(near_ratio >= 1.0, "near ratio {near_ratio}");
        assert!(near_ratio < 5.0, "near ratio {near_ratio}");
        assert!(far_ratio < 0.05, "far ratio {far_ratio}");
    }

    #[test]
    fn wcet_grows_with_distance_under_both_designs() {
        for config in [NocConfig::regular(4), NocConfig::waw_wap()] {
            let est = estimator(config);
            let trace = load_trace(10, 50);
            let near = est.core_wcet(Coord::from_row_col(0, 1), &trace).unwrap();
            let far = est.core_wcet(Coord::from_row_col(7, 7), &trace).unwrap();
            assert!(far > near, "{}: far {far} vs near {near}", config.label());
        }
    }

    #[test]
    fn all_cores_covers_the_mesh() {
        let est = estimator(NocConfig::waw_wap());
        let trace = load_trace(5, 10);
        let all = est.all_cores_wcet(&trace).unwrap();
        assert_eq!(all.len(), 63);
        assert!(all.iter().all(|(_, wcet)| *wcet > 0));
    }

    #[test]
    fn memory_node_placement_rejected() {
        let est = estimator(NocConfig::regular(4));
        assert!(est
            .core_wcet(Coord::from_row_col(0, 0), &load_trace(1, 1))
            .is_err());
        assert!(est
            .core_wcet(Coord::from_row_col(9, 9), &load_trace(1, 1))
            .is_err());
    }

    #[test]
    fn parallel_wcet_sums_phase_maxima() {
        let est = estimator(NocConfig::waw_wap());
        let light = load_trace(1, 10);
        let heavy = load_trace(5, 10);
        let phase1 = ParallelPhase::new(vec![
            (Coord::from_row_col(1, 1), light.clone()),
            (Coord::from_row_col(7, 7), heavy.clone()),
        ]);
        let phase2 = ParallelPhase::new(vec![(Coord::from_row_col(1, 1), light.clone())]);
        let total = parallel_wcet(&est, &[phase1.clone(), phase2]).unwrap();
        let phase1_only = parallel_wcet(&est, &[phase1]).unwrap();
        assert!(total > phase1_only);
        // Phase 1 is dominated by the heavy thread on the far corner.
        let heavy_far = est.core_wcet(Coord::from_row_col(7, 7), &heavy).unwrap();
        assert_eq!(phase1_only, heavy_far);
    }

    #[test]
    fn transaction_bound_is_cached_and_consistent() {
        let est = estimator(NocConfig::regular(4));
        let a = est
            .transaction_bound(Coord::from_row_col(3, 3), AccessKind::Load)
            .unwrap();
        let b = est
            .transaction_bound(Coord::from_row_col(3, 3), AccessKind::Load)
            .unwrap();
        assert_eq!(a, b);
        let evict = est
            .transaction_bound(Coord::from_row_col(3, 3), AccessKind::Eviction)
            .unwrap();
        assert!(evict > 0);
    }

    #[test]
    fn wcet_sensitive_to_max_packet_size_only_for_regular() {
        // Figure 2(a) trend: the regular design's WCET grows with L, the
        // proposed design is insensitive to it.
        let trace = load_trace(20, 100);
        let core = Coord::from_row_col(4, 4);
        let reg_l1 = estimator(NocConfig::regular(1))
            .core_wcet(core, &trace)
            .unwrap();
        let reg_l8 = estimator(NocConfig::regular(8))
            .core_wcet(core, &trace)
            .unwrap();
        assert!(reg_l8 > reg_l1);
        let wap_small = estimator(NocConfig::waw_wap())
            .core_wcet(core, &trace)
            .unwrap();
        // WaW+WaP does not define a maximum packet size at all; its WCET sits
        // far below the regular design's for this mid-mesh core.
        assert!(wap_small < reg_l1);
    }
}
