//! Experiment E6 — average performance: WaW + WaP must cost almost nothing in
//! average execution time (the paper reports < 1% degradation).
//!
//! The experiment runs the same multi-programmed EEMBC-like workload on the
//! cycle-accurate platform (operation mode, real NoC contention) under the
//! regular design and under WaW + WaP, and compares total execution times.

use wnoc_core::{Coord, NocConfig, Result};
use wnoc_manycore::system::{ManycoreSystem, PlatformConfig};
use wnoc_manycore::trace::Trace;
use wnoc_workloads::eembc::EembcBenchmark;

/// Result of one average-performance comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AveragePerformance {
    /// Execution time (cycles) under the regular design.
    pub regular_cycles: u64,
    /// Execution time (cycles) under WaW + WaP.
    pub waw_wap_cycles: u64,
    /// Messages delivered in the regular run (sanity check: both runs must
    /// deliver the same traffic).
    pub messages: u64,
}

impl AveragePerformance {
    /// Relative degradation of WaW + WaP vs the regular design
    /// (`0.01` = 1% slower; negative values mean WaW + WaP was faster).
    pub fn degradation(&self) -> f64 {
        self.waw_wap_cycles as f64 / self.regular_cycles.max(1) as f64 - 1.0
    }
}

/// Parameters of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvgPerfParams {
    /// Mesh side; the full 8×8 platform is used by the binary, tests use 4.
    pub mesh_side: u16,
    /// Number of cores loaded with a workload (placed row-major after the
    /// memory node); capped at `mesh_side² − 1`.
    pub loaded_cores: usize,
    /// Number of trace events kept per benchmark (truncation keeps run times
    /// reasonable).
    pub events_per_core: usize,
    /// Trace generation seed.
    pub seed: u64,
    /// Simulation cycle budget per run.
    pub max_cycles: u64,
}

impl Default for AvgPerfParams {
    fn default() -> Self {
        Self {
            mesh_side: 8,
            loaded_cores: 63,
            events_per_core: 120,
            seed: 7,
            max_cycles: 20_000_000,
        }
    }
}

/// Builds the multi-programmed workload: EEMBC benchmarks assigned round-robin
/// to the first `loaded_cores` non-memory nodes.
fn workloads(params: AvgPerfParams) -> Vec<(Coord, Trace)> {
    let mut placed = Vec::new();
    let benchmarks = EembcBenchmark::ALL;
    let mut index = 0usize;
    'outer: for row in 0..params.mesh_side {
        for col in 0..params.mesh_side {
            if row == 0 && col == 0 {
                continue;
            }
            if placed.len() >= params.loaded_cores {
                break 'outer;
            }
            let benchmark = benchmarks[index % benchmarks.len()];
            index += 1;
            let full = benchmark.trace(params.seed);
            let truncated: Trace = full
                .events()
                .iter()
                .copied()
                .take(params.events_per_core)
                .collect();
            placed.push((Coord::from_row_col(row, col), truncated));
        }
    }
    placed
}

/// Runs the comparison.
///
/// # Errors
///
/// Returns an error if the platform cannot be built or a run does not finish
/// within the cycle budget.
pub fn run(params: AvgPerfParams) -> Result<AveragePerformance> {
    let work = workloads(params);
    let execute = |noc: NocConfig| -> Result<(u64, u64)> {
        let platform = PlatformConfig {
            mesh_side: params.mesh_side,
            memory: Coord::from_row_col(0, 0),
            memory_service_cycles: 30,
            noc,
        };
        let mut system = ManycoreSystem::new(platform, work.clone())?;
        if !system.run_until_finished(params.max_cycles) {
            return Err(wnoc_core::Error::InvalidConfig {
                reason: format!(
                    "workload did not finish within {} cycles under {}",
                    params.max_cycles,
                    system.config().noc.label()
                ),
            });
        }
        Ok((
            system.execution_time(),
            system.network().stats().messages_delivered,
        ))
    };
    let (regular_cycles, messages) = execute(NocConfig::regular(4))?;
    let (waw_wap_cycles, _) = execute(NocConfig::waw_wap())?;
    Ok(AveragePerformance {
        regular_cycles,
        waw_wap_cycles,
        messages,
    })
}

/// Renders the result as text.
pub fn render(result: &AveragePerformance) -> String {
    format!(
        "Average performance (operation mode, EEMBC-like multiprogrammed workload)\n\
         regular wNoC : {} cycles\n\
         WaW+WaP      : {} cycles\n\
         degradation  : {:+.2}%\n\
         messages     : {}\n",
        result.regular_cycles,
        result.waw_wap_cycles,
        result.degradation() * 100.0,
        result.messages
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> AvgPerfParams {
        AvgPerfParams {
            mesh_side: 4,
            loaded_cores: 15,
            events_per_core: 40,
            seed: 7,
            max_cycles: 5_000_000,
        }
    }

    #[test]
    fn degradation_is_small() {
        let result = run(small_params()).unwrap();
        assert!(result.regular_cycles > 0);
        assert!(result.messages > 0);
        // The paper reports < 1%; with our smaller platform and shorter traces
        // we allow a slightly wider margin but the degradation must stay small.
        let degradation = result.degradation();
        assert!(
            degradation < 0.10,
            "WaW+WaP degrades average performance by {:.1}%",
            degradation * 100.0
        );
    }

    #[test]
    fn workload_placement_skips_the_memory_node() {
        let placed = workloads(small_params());
        assert_eq!(placed.len(), 15);
        assert!(placed.iter().all(|(c, _)| *c != Coord::from_row_col(0, 0)));
        assert!(placed.iter().all(|(_, t)| t.len() <= 40));
    }

    #[test]
    fn degradation_helper() {
        let r = AveragePerformance {
            regular_cycles: 1000,
            waw_wap_cycles: 1010,
            messages: 5,
        };
        assert!((r.degradation() - 0.01).abs() < 1e-9);
    }
}
