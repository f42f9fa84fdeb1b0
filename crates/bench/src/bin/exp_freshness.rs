//! Experiment X1 (§7 planned study 1) — the effect of merging on view
//! freshness.
//!
//! "We plan to investigate the effect of the merging process on view
//! freshness (recall that the merging delays the application of some ALs
//! to the warehouse views)."
//!
//! Sweeps (a) offered update load (scheduler inject weight), (b) view
//! overlap (disjoint copies vs overlapping chain), and (c) merge
//! algorithm, measuring staleness at commit (in source updates) and
//! per-update end-to-end latency (in simulator steps). The uncoordinated
//! pass-through pipeline is the freshness baseline: coordination can only
//! add delay — the experiment quantifies how much.
//!
//! Run with: `cargo run --release -p mvc-bench --bin exp_freshness`

use mvc_bench::{print_table, Row};
use mvc_core::MergeAlgorithm;
use mvc_whips::workload::{generate, install_relations, install_views};
use mvc_whips::{ManagerKind, SimBuilder, SimConfig, ViewSuite, WorkloadSpec};

fn run(
    suite: ViewSuite,
    relations: usize,
    kind: ManagerKind,
    algorithm: Option<MergeAlgorithm>,
    inject_weight: u32,
    seed: u64,
) -> (f64, f64, f64) {
    let spec = WorkloadSpec {
        seed,
        relations,
        updates: 300,
        key_domain: 8,
        delete_percent: 25,
        multi_percent: 0,
    };
    let w = generate(&spec);
    let config = SimConfig {
        seed: seed ^ 0x5eed,
        inject_weight: 4,
        max_open_updates: Some(inject_weight as usize),
        algorithm,
        record_snapshots: false,
        ..SimConfig::default()
    };
    let b = SimBuilder::new(config);
    let b = install_relations(b, relations);
    let (b, _) = install_views(b, suite, kind);
    let report = b.workload(w.txns).run().expect("run");
    (
        report.metrics.mean_staleness(),
        report.metrics.staleness_updates.max() as f64,
        report.metrics.mean_update_latency(),
    )
}

fn main() {
    println!("Experiment X1 — view freshness under merge coordination");

    // (a) staleness vs offered load, overlapping views, SPA vs pass-through
    let mut rows = Vec::new();
    for weight in [1u32, 2, 4, 8, 16, 32, 64] {
        let (s_spa, m_spa, l_spa) = run(
            ViewSuite::OverlappingChain { count: 2 },
            3,
            ManagerKind::Complete,
            None,
            weight,
            1,
        );
        let (s_pt, _m_pt, l_pt) = run(
            ViewSuite::OverlappingChain { count: 2 },
            3,
            ManagerKind::Complete,
            Some(MergeAlgorithm::PassThrough),
            weight,
            1,
        );
        rows.push(
            Row::new()
                .cell("open-update window", weight)
                .cell_f("SPA mean staleness (updates)", s_spa)
                .cell_f("SPA max staleness", m_spa)
                .cell_f("SPA mean latency (steps)", l_spa)
                .cell_f("pass-through staleness", s_pt)
                .cell_f("pass-through latency", l_pt),
        );
    }
    print_table(
        "staleness vs update load (overlapping chain, 2 views)",
        &rows,
    );

    // (b) staleness vs view overlap at fixed load
    let mut rows = Vec::new();
    for (label, suite, relations) in [
        (
            "disjoint copies x2",
            ViewSuite::DisjointCopies { count: 2 },
            2,
        ),
        (
            "disjoint copies x4",
            ViewSuite::DisjointCopies { count: 4 },
            4,
        ),
        (
            "overlapping chain x2",
            ViewSuite::OverlappingChain { count: 2 },
            3,
        ),
        (
            "overlapping chain x4",
            ViewSuite::OverlappingChain { count: 4 },
            5,
        ),
        (
            "star + 3 copies",
            ViewSuite::StarPlusCopies { copies: 3 },
            4,
        ),
    ] {
        let (s, m, l) = run(suite, relations, ManagerKind::Complete, None, 6, 2);
        rows.push(
            Row::new()
                .cell("view suite", label)
                .cell_f("mean staleness (updates)", s)
                .cell_f("max staleness", m)
                .cell_f("mean latency (steps)", l),
        );
    }
    print_table("staleness vs view overlap (SPA, load 6)", &rows);

    // (c) algorithm comparison at high load
    let mut rows = Vec::new();
    for (label, kind) in [
        ("complete (MVCC) + SPA", ManagerKind::Complete),
        ("ECA (compensating) + SPA", ManagerKind::Eca),
        ("self-maintaining + SPA", ManagerKind::SelfMaintaining),
        ("Strobe managers + PA", ManagerKind::Strobe),
        (
            "periodic(4) managers + PA",
            ManagerKind::Periodic { period: 4 },
        ),
    ] {
        let (s, m, l) = run(
            ViewSuite::OverlappingChain { count: 2 },
            3,
            kind,
            None,
            8,
            3,
        );
        rows.push(
            Row::new()
                .cell("configuration", label)
                .cell_f("mean staleness (updates)", s)
                .cell_f("max staleness", m)
                .cell_f("mean latency (steps)", l),
        );
    }
    print_table("staleness vs manager/algorithm (load 8)", &rows);

    println!(
        "\nPaper-expected shape: merging delays ALs, so staleness grows\n\
         with offered load and with view overlap (more held rows); the\n\
         uncoordinated pipeline is fresher but inconsistent; batching\n\
         managers trade latency spikes for fewer, larger transactions."
    );
}
