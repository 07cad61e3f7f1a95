//! Cross-crate integration tests: the qualitative shapes of the paper's
//! headline results must hold end to end (analysis + workloads + WCET
//! pipeline), independently of the per-crate unit tests.

use wnoc::core::analysis::WcttTable;
use wnoc::core::{Coord, NocConfig};
use wnoc::manycore::wcet::{parallel_wcet, WcetEstimator};
use wnoc::workloads::avionics::{default_scenario, TrafficModel};
use wnoc::workloads::eembc::EembcBenchmark;
use wnoc::workloads::placement::Placement;

/// Table II shape: the regular design's worst-case bound explodes with the
/// mesh size while WaW+WaP grows linearly in the flow count.
#[test]
fn table2_shape_holds_end_to_end() {
    let table = WcttTable::table2().unwrap();
    let rows = table.rows();
    assert_eq!(rows.len(), 7);
    // Monotone growth for both designs.
    for pair in rows.windows(2) {
        assert!(pair[1].regular.max > pair[0].regular.max);
        assert!(pair[1].waw_wap.max > pair[0].waw_wap.max);
    }
    // The gap widens dramatically: at 2x2 the designs are comparable, at 8x8
    // they differ by more than three orders of magnitude.
    let first_gap = rows[0].regular.max as f64 / rows[0].waw_wap.max as f64;
    let last_gap = rows[6].regular.max as f64 / rows[6].waw_wap.max as f64;
    assert!(first_gap < 10.0);
    assert!(last_gap > 1_000.0);
}

/// Table III shape on a reduced 4x4 platform: only nodes adjacent to the memory
/// controller can be (mildly) penalised by WaW+WaP; distant nodes improve by
/// orders of magnitude.
#[test]
fn eembc_wcet_ratios_favour_waw_wap_far_from_memory() {
    let memory = Coord::from_row_col(0, 0);
    let regular = WcetEstimator::new(8, memory, 30, NocConfig::regular(4)).unwrap();
    let proposed = WcetEstimator::new(8, memory, 30, NocConfig::waw_wap()).unwrap();
    let mut worse = 0;
    let mut better = 0;
    let trace = EembcBenchmark::Aifftr.trace(3);
    for core in regular.mesh().routers() {
        if core == memory {
            continue;
        }
        let ratio = proposed.core_wcet(core, &trace).unwrap() as f64
            / regular.core_wcet(core, &trace).unwrap() as f64;
        if ratio > 1.0 {
            worse += 1;
        } else {
            better += 1;
        }
        // No core is penalised by more than a small factor.
        assert!(ratio < 5.0, "core {core} ratio {ratio}");
    }
    assert!(better > 3 * worse, "better {better} vs worse {worse}");
}

/// Figure 2 shape: the 16-core avionics application always benefits from
/// WaW+WaP and its WCET becomes almost insensitive to placement.
#[test]
fn avionics_wcet_improves_and_stabilises() {
    let planner = default_scenario(99).unwrap();
    let mesh = wnoc::core::Mesh::square(8).unwrap();
    let memory = Coord::from_row_col(0, 0);
    let placements = Placement::paper_set(&mesh, memory).unwrap();
    let regular = WcetEstimator::new(8, memory, 30, NocConfig::regular(1)).unwrap();
    let proposed = WcetEstimator::new(8, memory, 30, NocConfig::waw_wap()).unwrap();

    let mut regular_wcets = Vec::new();
    let mut proposed_wcets = Vec::new();
    for placement in &placements {
        let phases = planner
            .parallel_phases(placement, TrafficModel::default())
            .unwrap();
        regular_wcets.push(parallel_wcet(&regular, &phases).unwrap());
        proposed_wcets.push(parallel_wcet(&proposed, &phases).unwrap());
    }
    for (reg, prop) in regular_wcets.iter().zip(&proposed_wcets) {
        assert!(prop < reg, "WaW+WaP must win for every placement");
    }
    let spread = |values: &[u64]| {
        *values.iter().max().unwrap() as f64 / *values.iter().min().unwrap() as f64
    };
    assert!(
        spread(&regular_wcets) > 1.5 * spread(&proposed_wcets),
        "placement sensitivity must shrink: regular {} vs proposed {}",
        spread(&regular_wcets),
        spread(&proposed_wcets)
    );
}

/// The EEMBC suite average (the figure quoted in the paper's introduction):
/// averaged over all benchmarks and all cores, the WCET reduction of WaW+WaP
/// is enormous.
#[test]
fn suite_wide_average_wcet_reduction_is_large() {
    let memory = Coord::from_row_col(0, 0);
    let regular = WcetEstimator::new(8, memory, 30, NocConfig::regular(4)).unwrap();
    let proposed = WcetEstimator::new(8, memory, 30, NocConfig::waw_wap()).unwrap();
    let trace = EembcBenchmark::Cacheb.trace(5);
    let mut reduction_sum = 0.0;
    let mut count = 0usize;
    for core in regular.mesh().routers() {
        if core == memory {
            continue;
        }
        let reg = regular.core_wcet(core, &trace).unwrap() as f64;
        let prop = proposed.core_wcet(core, &trace).unwrap() as f64;
        reduction_sum += reg / prop;
        count += 1;
    }
    let mean_reduction = reduction_sum / count as f64;
    // The paper reports an average reduction of about 230x across all cores for
    // the baseline NoC; our substrate differs, but the mean reduction must be
    // at least an order of magnitude.
    assert!(mean_reduction > 10.0, "mean reduction {mean_reduction}");
}
