//! Experiment X2/X5 (§7 planned study 2 + §1.1 strawman) — under which
//! update load does the merge process become a bottleneck, and how much
//! does the concurrent architecture win over the sequential integrator?
//!
//! Two measurements:
//!  * simulator: end-to-end cost in scheduler steps (≈ total messages) and
//!    peak VUT occupancy as view count and load grow — the MP's queueing
//!    pressure is directly visible in held rows;
//!  * threaded runtime: wall-clock updates/sec for the concurrent
//!    pipeline vs the §1.1 sequential strawman, at increasing view counts
//!    and query costs.
//!
//! Run with: `cargo run --release -p mvc-bench --bin exp_bottleneck`

use mvc_bench::{print_table, Row};
use mvc_whips::workload::{generate, install_relations, install_views};
use mvc_whips::{
    ManagerKind, SimBuilder, SimConfig, ThreadedBuilder, ThreadedConfig, ViewSuite, WorkloadSpec,
};
use std::time::Duration;

fn sim_run(views: usize, window: usize, sequential: bool, seed: u64) -> (u64, u64, f64, f64) {
    let relations = views + 1;
    let spec = WorkloadSpec {
        seed,
        relations,
        updates: 200,
        key_domain: 8,
        delete_percent: 25,
        multi_percent: 0,
    };
    let w = generate(&spec);
    let config = SimConfig {
        seed: seed ^ 0xbeef,
        inject_weight: 4,
        max_open_updates: Some(window),
        sequential,
        record_snapshots: false,
        ..SimConfig::default()
    };
    let b = SimBuilder::new(config);
    let b = install_relations(b, relations);
    let (b, _) = install_views(
        b,
        ViewSuite::OverlappingChain { count: views },
        ManagerKind::Complete,
    );
    let report = b.workload(w.txns).run().expect("run");
    (
        report.metrics.steps,
        report.merge_stats[0].max_live_rows as u64,
        report.pipeline.vut_occupancy.mean(),
        report.metrics.mean_update_latency(),
    )
}

fn threaded_run(views: usize, sequential: bool, query_delay_us: u64, seed: u64) -> f64 {
    let relations = views + 1;
    let spec = WorkloadSpec {
        seed,
        relations,
        updates: 150,
        key_domain: 8,
        delete_percent: 25,
        multi_percent: 0,
    };
    let w = generate(&spec);
    let config = ThreadedConfig {
        sequential,
        query_delay: Duration::from_micros(query_delay_us),
        ..ThreadedConfig::default()
    };
    let b = ThreadedBuilder::new(config);
    let b = install_relations(b, relations);
    let (b, _) = install_views(
        b,
        ViewSuite::OverlappingChain { count: views },
        ManagerKind::Complete,
    );
    let (_report, wall) = b.workload(w.txns).run().expect("threaded run");
    wall.updates_per_sec
}

fn main() {
    println!("Experiment X2 — merge-process bottleneck & X5 — sequential strawman");

    // (a) VUT pressure and latency vs offered load (open-update window)
    let mut rows = Vec::new();
    for window in [1usize, 2, 4, 8, 16, 32, 64] {
        let (_steps, peak, mean, lat) = sim_run(2, window, false, 1);
        rows.push(
            Row::new()
                .cell("open-update window", window)
                .cell("peak VUT rows", peak)
                .cell_f("mean VUT rows", mean)
                .cell_f("mean latency (steps)", lat),
        );
    }
    print_table("merge-process pressure vs update load (2 views)", &rows);

    // (b) VUT pressure vs view count at fixed window
    let mut rows = Vec::new();
    for views in [1usize, 2, 4, 6, 8] {
        let (steps, peak, mean, lat) = sim_run(views, 16, false, 2);
        rows.push(
            Row::new()
                .cell("views", views)
                .cell("total steps", steps)
                .cell("peak VUT rows", peak)
                .cell_f("mean VUT rows", mean)
                .cell_f("mean latency (steps)", lat),
        );
    }
    print_table("merge-process pressure vs view count (window 16)", &rows);

    // (c) threaded wall clock: the concurrency win grows with per-update
    // processing cost (query delay models source round trips).
    let mut rows = Vec::new();
    for (views, delay) in [(2usize, 0u64), (2, 200), (2, 500), (4, 200), (4, 500)] {
        let conc = threaded_run(views, false, delay, 4);
        let seq = threaded_run(views, true, delay, 4);
        rows.push(
            Row::new()
                .cell("views", views)
                .cell("query delay (µs)", delay)
                .cell_f("concurrent upd/s", conc)
                .cell_f("sequential upd/s", seq)
                .cell_f("speedup", conc / seq),
        );
    }
    print_table(
        "threaded throughput: concurrent vs sequential integrator",
        &rows,
    );

    println!(
        "\nPaper-expected shape: the sequential integrator pays one full\n\
         round trip per update, so the concurrent architecture wins by a\n\
         factor that grows with delta-computation latency; VUT occupancy\n\
         (held rows) grows with offered load and view count — the merge\n\
         process is the shared structure that saturates first."
    );
}
