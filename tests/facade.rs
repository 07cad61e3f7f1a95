//! Facade-level integration tests: the `wnoc` crate must re-export all five
//! layers under stable paths, and the Table II quick-start from its crate docs
//! must run end to end.

use wnoc::core::analysis::WcttTable;

/// Every layer is reachable through the facade under its documented name, and
/// the re-exported items are the same types as in the underlying crates.
#[test]
fn reexports_resolve_and_are_the_underlying_types() {
    // `wnoc::core` is `wnoc_core`.
    let mesh: wnoc::core::Mesh = wnoc_core::Mesh::square(4).unwrap();
    let dims: wnoc::core::MeshDims = mesh.dims();
    assert_eq!(dims.node_count(), 16);
    let config: wnoc::core::NocConfig = wnoc_core::NocConfig::waw_wap();

    // `wnoc::sim` is `wnoc_sim`.
    let hotspot = wnoc::core::Coord::from_row_col(0, 0);
    let flows = wnoc::core::FlowSet::all_to_one(&mesh, hotspot).unwrap();
    let network: wnoc::sim::network::Network =
        wnoc_sim::network::Network::new(mesh, config, &flows).unwrap();
    assert_eq!(network.stats().messages_delivered, 0);

    // `wnoc::manycore` is `wnoc_manycore`.
    let estimator: wnoc::manycore::wcet::WcetEstimator =
        wnoc_manycore::wcet::WcetEstimator::new(4, hotspot, 30, config).unwrap();
    let trace = wnoc_manycore::trace::Trace::from_events(vec![
        wnoc_manycore::trace::TraceEvent::load_after(10),
    ]);
    assert!(
        estimator
            .core_wcet(wnoc::core::Coord::from_row_col(3, 3), &trace)
            .unwrap()
            > 0
    );

    // `wnoc::workloads` is `wnoc_workloads` (placements target the paper's
    // 8×8 platform).
    let mesh8 = wnoc::core::Mesh::square(8).unwrap();
    let placements: Vec<wnoc::workloads::placement::Placement> =
        wnoc_workloads::placement::Placement::paper_set(&mesh8, hotspot).unwrap();
    assert!(!placements.is_empty());

    // `wnoc::conformance` is `wnoc_conformance`: a one-scenario campaign
    // runs through the facade and passes.
    let campaign: wnoc::conformance::Campaign = wnoc_conformance::Campaign::new(7, 1);
    let report: wnoc::conformance::ConformanceReport = campaign.run(1).unwrap();
    assert!(report.passed());
    assert_eq!(report.scenario_count(), 1);

    // The facade reports its version for experiment logs.
    assert!(!wnoc::VERSION.is_empty());
}

/// The quick-start from `wnoc`'s crate docs, run as a plain test: regenerate
/// the analytical Table II and check the paper's headline 8×8 claim.
#[test]
fn quick_start_table2_runs_end_to_end() {
    let table = WcttTable::table2().unwrap();
    let rows = table.rows();
    // Table II covers square meshes from 2×2 to 8×8.
    assert_eq!(rows.len(), 7);
    let eight_by_eight = rows.last().unwrap();
    assert_eq!(eight_by_eight.dims.node_count(), 64);
    // The regular design's worst case is more than three orders of magnitude
    // above WaW+WaP on the 8×8 mesh (653310 vs 330 canonical cycles).
    assert!(eight_by_eight.regular.max > 1_000 * eight_by_eight.waw_wap.max);
    // And the rendered table is the artifact expt-table2 prints.
    let rendered = table.render();
    assert!(rendered.contains("8x8"));
}
