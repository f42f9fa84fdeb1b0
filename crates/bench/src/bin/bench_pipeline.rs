//! Pipeline observability report — regenerates `BENCH_pipeline.json`.
//!
//! Runs one SPA scenario (Complete managers, Theorem 4.1), one PA
//! scenario (Strobe managers, Theorem 5.1), one mixed-manager scenario
//! and one mixed-manager + concurrent-reader scenario (MVCC snapshot
//! reads, every observed cut certified against the commit history)
//! through the deterministic simulator and dumps every stage's latency
//! distribution (p50/p99), throughput, commit rate and peak VUT
//! occupancy, in virtual scheduler steps (every run is tagged with its
//! `runtime` and `unit`). Wall-clock measurement of the threaded runtime
//! is the `benchmark/` package's job.
//!
//! Run with: `cargo run --release -p mvc-bench --bin bench_pipeline`
//! (writes `BENCH_pipeline.json` into the current directory).
//!
//! Flags:
//!
//! ```text
//!   --only <scenario>      run just one scenario (e.g. `mixed`), or
//!                          `durability` for just the durability sweep
//!   --out <path>           output path (default BENCH_pipeline.json)
//!   --check <baseline>     after running, compare commit rates against a
//!                          committed baseline JSON; exits nonzero if any
//!                          matching scenario regressed by more than 20%.
//! ```

use mvc_durability::DurabilityConfig;
use mvc_whips::workload::{generate, install_relations, install_views, install_views_mixed};
use mvc_whips::{
    DurableOutcome, ManagerKind, SimBuilder, SimConfig, SimReport, ViewSuite, WorkloadSpec,
};

/// Commit-rate regression tolerance for `--check` (fraction of baseline).
const REGRESSION_TOLERANCE: f64 = 0.20;

/// Virtual cost of one fsync batch, in scheduler steps, for the
/// durability sweep's effective-throughput model. The sim executes an
/// fsync in zero virtual time, so the cost of durability has to be
/// modeled to be measured: one synchronous flush is worth tens of
/// in-memory scheduler events on any real device. The *relative* shape
/// of the sweep (group commit amortizes fsyncs) is insensitive to the
/// exact constant.
const FSYNC_COST_STEPS: u64 = 25;

struct Scenario {
    name: &'static str,
    /// Manager kinds assigned round-robin across the suite's views.
    kinds: Vec<ManagerKind>,
    suite: ViewSuite,
    spec: WorkloadSpec,
    /// Concurrent MVCC reader sessions (lottery participants in the
    /// sim). 0 = writer-only scenario.
    readers: usize,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        // SPA: MVC-complete managers over an overlapping chain — the
        // merge process batches and the VUT holds rows across views.
        Scenario {
            name: "spa_complete_chain",
            kinds: vec![ManagerKind::Complete],
            suite: ViewSuite::OverlappingChain { count: 3 },
            spec: WorkloadSpec {
                seed: 21,
                relations: 4,
                updates: 200,
                key_domain: 12,
                delete_percent: 25,
                multi_percent: 0,
            },
            readers: 0,
        },
        // PA: MVC-strong Strobe managers — query round trips through the
        // integrator widen the vm_compute stage.
        Scenario {
            name: "pa_strobe_chain",
            kinds: vec![ManagerKind::Strobe],
            suite: ViewSuite::OverlappingChain { count: 2 },
            spec: WorkloadSpec {
                seed: 22,
                relations: 3,
                updates: 120,
                key_domain: 12,
                delete_percent: 25,
                multi_percent: 0,
            },
            readers: 0,
        },
        // Mixed: Complete and Strobe managers side by side over a longer
        // workload — the hot-path (zero-copy routing, batched channels,
        // group commit) gate scenario.
        Scenario {
            name: "mixed",
            kinds: vec![ManagerKind::Complete, ManagerKind::Strobe],
            suite: ViewSuite::OverlappingChain { count: 3 },
            spec: WorkloadSpec {
                seed: 23,
                relations: 4,
                updates: 600,
                key_domain: 16,
                delete_percent: 25,
                multi_percent: 10,
            },
            readers: 0,
        },
        // Mixed + readers: the same mixed-manager workload with a fleet
        // of concurrent MVCC reader sessions querying versioned cuts
        // while the writers commit. Gates the snapshot-read path: every
        // observed cut is certified against the commit history.
        Scenario {
            name: "mixed_readers",
            kinds: vec![ManagerKind::Complete, ManagerKind::Strobe],
            suite: ViewSuite::OverlappingChain { count: 3 },
            spec: WorkloadSpec {
                seed: 23,
                relations: 4,
                updates: 600,
                key_domain: 16,
                delete_percent: 25,
                multi_percent: 10,
            },
            readers: 4,
        },
    ]
}

/// One `runs` row: virtual-time rates are events per thousand scheduler
/// steps.
fn entry(
    s: &Scenario,
    report: &SimReport,
    throughput: f64,
    commit_rate: f64,
    read_rate: Option<f64>,
) -> serde_json::Value {
    let mut fields = vec![
        ("scenario".to_owned(), s.name.into()),
        ("runtime".to_owned(), "sim".into()),
        ("unit".to_owned(), "virtual_steps".into()),
        ("injected".to_owned(), report.metrics.injected.into()),
        ("commits".to_owned(), report.metrics.commits.into()),
        ("throughput".to_owned(), throughput.into()),
        ("throughput_unit".to_owned(), "updates_per_kstep".into()),
        ("commit_rate".to_owned(), commit_rate.into()),
        ("commit_rate_unit".to_owned(), "commits_per_kstep".into()),
        ("pipeline".to_owned(), report.pipeline.to_json()),
    ];
    if let Some(rr) = read_rate {
        fields.push((
            "reads".to_owned(),
            report.pipeline.read_staleness.count().into(),
        ));
        fields.push(("read_rate".to_owned(), rr.into()));
        fields.push(("read_rate_unit".to_owned(), "reads_per_kstep".into()));
    }
    fields.into_iter().collect()
}

/// Certify every cut the readers observed against the commit history;
/// a reader scenario whose observations are not mutually consistent is
/// a bug, not a slow run, so this panics rather than reporting.
fn certify_reads(s: &Scenario, report: &SimReport) {
    if s.readers == 0 {
        return;
    }
    let oracle = mvc_whips::Oracle::new(report).expect("oracle over reader run");
    let cert = oracle
        .check_reads()
        .unwrap_or_else(|v| panic!("{}: uncertified reader cut: {v}", s.name));
    println!(
        "  {} readers: {} observations over {} sessions certified",
        s.readers, cert.observations, cert.sessions
    );
}

fn install<D: mvc_whips::workload::Deployment>(b: D, s: &Scenario) -> D {
    let b = install_relations(b, s.spec.relations);
    let (b, _) = if s.kinds.len() == 1 {
        install_views(b, s.suite, s.kinds[0])
    } else {
        install_views_mixed(b, s.suite, &s.kinds)
    };
    b
}

fn run_sim(s: &Scenario) -> serde_json::Value {
    let w = generate(&s.spec);
    let config = SimConfig {
        seed: s.spec.seed ^ 0xabcd,
        readers: s.readers,
        ..SimConfig::default()
    };
    let b = install(SimBuilder::new(config), s);
    let report = b.workload(w.txns).run().expect("sim run");
    let per_kstep = |n: u64| {
        if report.metrics.steps > 0 {
            n as f64 * 1000.0 / report.metrics.steps as f64
        } else {
            0.0
        }
    };
    let tp = per_kstep(report.metrics.injected);
    let cr = per_kstep(report.metrics.commits);
    certify_reads(s, &report);
    let rr = (s.readers > 0).then(|| per_kstep(report.pipeline.read_staleness.count()));
    entry(s, &report, tp, cr, rr)
}

/// Shard-scaling sweep: the same fixed workload over 4 disjoint views,
/// run in the deterministic sim at group caps 1/2/4 × shard counts 1/2.
/// The sim is a serial scheduler, so raw steps cannot shrink with more
/// groups; what scales is the *emulated-parallel makespan* — steps spent
/// outside the merge plane plus the busiest single group's plane steps
/// (groups are independent per §6.1, so their plane work overlaps on a
/// real multi-core deployment). Per-shard commit counts/rates come from
/// the certified shard plane. HONEST CAVEAT: this container is 1-CPU, so
/// the threaded runtime cannot demonstrate wall-clock speedup here; the
/// sweep therefore gates on the deterministic sim leg only (the
/// `shard_smoke` CI stage re-runs it and asserts the scaling holds).
fn shard_scaling() -> serde_json::Value {
    let spec = WorkloadSpec {
        seed: 29,
        relations: 4,
        updates: 400,
        key_domain: 12,
        delete_percent: 25,
        multi_percent: 0,
    };
    let mut rows = Vec::new();
    for (groups, shards) in [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2)] {
        let w = generate(&spec);
        let config = SimConfig {
            seed: 0x5aad,
            partition: true,
            groups: Some(groups),
            shards,
            ..SimConfig::default()
        };
        let b = install_relations(SimBuilder::new(config), spec.relations);
        let (b, _) = install_views(
            b,
            ViewSuite::DisjointCopies { count: 4 },
            ManagerKind::Complete,
        );
        let report = b.workload(w.txns).run().expect("shard sweep run");
        let oracle = mvc_whips::Oracle::new(&report).expect("oracle over sweep run");
        oracle
            .check_sharded()
            .unwrap_or_else(|v| panic!("g{groups}/s{shards}: uncertified shard plane: {v}"));
        let busy = &report.metrics.group_busy_steps;
        let plane_total: u64 = busy.iter().sum();
        let plane_max = busy.iter().copied().max().unwrap_or(0);
        let makespan = report.metrics.steps - plane_total + plane_max;
        let rate = |n: u64, over: u64| {
            if over > 0 {
                n as f64 * 1000.0 / over as f64
            } else {
                0.0
            }
        };
        let per_shard: Vec<serde_json::Value> = report
            .shard_plane
            .as_ref()
            .map(|plane| {
                plane
                    .shards
                    .iter()
                    .enumerate()
                    .map(|(s, sh)| {
                        [
                            ("shard".to_owned(), serde_json::Value::from(s as u64)),
                            ("commits".to_owned(), sh.commits.into()),
                            (
                                "commit_rate_per_kstep".to_owned(),
                                rate(sh.commits, report.metrics.steps).into(),
                            ),
                        ]
                        .into_iter()
                        .collect()
                    })
                    .collect()
            })
            .unwrap_or_default();
        println!(
            "  shard sweep g{groups}/s{shards}: {} commits, {} steps serial, \
             {makespan} emulated-parallel makespan ({:.1} commits/kstep)",
            report.metrics.commits,
            report.metrics.steps,
            rate(report.metrics.commits, makespan),
        );
        rows.push(
            [
                ("groups".to_owned(), serde_json::Value::from(groups as u64)),
                ("shards".to_owned(), (shards as u64).into()),
                (
                    "groups_effective".to_owned(),
                    (report.partitioning.group_count() as u64).into(),
                ),
                ("commits".to_owned(), report.metrics.commits.into()),
                ("steps_serial".to_owned(), report.metrics.steps.into()),
                (
                    "group_busy_steps".to_owned(),
                    serde_json::Value::Array(
                        busy.iter().map(|&b| serde_json::Value::from(b)).collect(),
                    ),
                ),
                ("emulated_parallel_makespan".to_owned(), makespan.into()),
                (
                    "commit_rate_per_kstep_serial".to_owned(),
                    rate(report.metrics.commits, report.metrics.steps).into(),
                ),
                (
                    "commit_rate_per_kstep_parallel".to_owned(),
                    rate(report.metrics.commits, makespan).into(),
                ),
                ("per_shard".to_owned(), serde_json::Value::Array(per_shard)),
            ]
            .into_iter()
            .collect(),
        );
    }
    [
        (
            "note".to_owned(),
            "deterministic sim sweep, fixed workload; commit throughput over the \
             emulated-parallel makespan (serial steps minus merge-plane steps plus \
             the busiest group's plane steps). 1-CPU container: the threaded \
             runtime is certified for correctness under sharding but cannot show \
             wall-clock scaling here, so only the sim leg is gated."
                .into(),
        ),
        ("unit".to_owned(), "virtual_steps".into()),
        ("runtime".to_owned(), "sim".into()),
        ("sweep".to_owned(), serde_json::Value::Array(rows)),
    ]
    .into_iter()
    .collect()
}

/// Durability sweep: the SPA Complete-chain workload run durably in the
/// deterministic sim at `fsync_every` 1 / 8 / 32. The scheduler trace is
/// identical across the sweep (fsyncs take zero virtual time and never
/// change a scheduling decision), so the only thing that moves is the
/// fsync count — charged at [`FSYNC_COST_STEPS`] each, which makes the
/// effective commit rate rise monotonically as group commit amortizes
/// flushes.
fn durability() -> serde_json::Value {
    let spec = WorkloadSpec {
        seed: 31,
        relations: 4,
        updates: 300,
        key_domain: 12,
        delete_percent: 25,
        multi_percent: 0,
    };
    let mut rows: Vec<serde_json::Value> = Vec::new();
    let mut rates = Vec::new();
    for fsync_every in [1u64, 8, 32] {
        let w = generate(&spec);
        let path = std::env::temp_dir().join(format!(
            "mvc-bench-durability-{}-{fsync_every}.wal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let config = SimConfig {
            seed: 0xd0d0,
            durability: Some(DurabilityConfig::new(&path).with_fsync_every(fsync_every)),
            ..SimConfig::default()
        };
        let b = install_relations(SimBuilder::new(config), spec.relations);
        let (b, _) = install_views(
            b,
            ViewSuite::OverlappingChain { count: 3 },
            ManagerKind::Complete,
        );
        let report = match b
            .workload(w.txns)
            .run_durable()
            .expect("durability sweep run")
        {
            DurableOutcome::Completed(r) => r,
            DurableOutcome::Crashed { .. } => unreachable!("no fault configured"),
        };
        let _ = std::fs::remove_file(&path);
        mvc_whips::Oracle::new(&report)
            .expect("oracle over durable run")
            .assert_ok();
        let m = &report.metrics;
        let effective_steps = m.steps + m.wal_fsyncs * FSYNC_COST_STEPS;
        let rate = if effective_steps > 0 {
            m.commits as f64 * 1000.0 / effective_steps as f64
        } else {
            0.0
        };
        println!(
            "  durability sweep fsync_every={fsync_every}: {} commits, {} fsyncs, \
             {} steps (+{} virtual fsync cost) -> {rate:.2} commits/kstep",
            m.commits,
            m.wal_fsyncs,
            m.steps,
            effective_steps - m.steps,
        );
        rates.push(rate);
        rows.push(
            [
                (
                    "fsync_every".to_owned(),
                    serde_json::Value::from(fsync_every),
                ),
                ("commits".to_owned(), m.commits.into()),
                ("steps".to_owned(), m.steps.into()),
                ("wal_fsyncs".to_owned(), m.wal_fsyncs.into()),
                ("effective_steps".to_owned(), effective_steps.into()),
                ("effective_commit_rate_per_kstep".to_owned(), rate.into()),
            ]
            .into_iter()
            .collect(),
        );
    }
    // The sweep is deterministic, so this is an exact invariant, not a
    // statistical one: batching fsyncs must never cost throughput.
    for pair in rates.windows(2) {
        assert!(
            pair[1] >= pair[0],
            "group commit reduced effective commit throughput: {rates:?}"
        );
    }

    [
        (
            "note".to_owned(),
            "deterministic sim sweep, fixed workload; fsyncs execute in zero \
             virtual time so durability cost is modeled: each fsync batch is \
             charged fsync_cost_steps scheduler steps and the effective commit \
             rate is commits per thousand (steps + charged) steps. The sweep \
             must be monotonically non-decreasing in fsync_every (group commit \
             amortizes flushes)."
                .into(),
        ),
        ("unit".to_owned(), "virtual_steps".into()),
        ("runtime".to_owned(), "sim".into()),
        ("fsync_cost_steps".to_owned(), FSYNC_COST_STEPS.into()),
        ("sweep".to_owned(), serde_json::Value::Array(rows)),
    ]
    .into_iter()
    .collect()
}

/// Compare the fresh durability sweep against the committed baseline's,
/// row by `fsync_every` row, at the usual tolerance.
fn check_durability(baseline: &serde_json::Value, fresh: &serde_json::Value) -> Vec<String> {
    let mut errors = Vec::new();
    let empty = Vec::new();
    let base_rows = baseline
        .get("durability")
        .and_then(|d| d.get("sweep"))
        .and_then(|s| s.as_array())
        .unwrap_or(&empty);
    let fresh_rows = fresh
        .get("sweep")
        .and_then(|s| s.as_array())
        .unwrap_or(&empty);
    for new in fresh_rows {
        let Some(fe) = new.get("fsync_every").and_then(|v| v.as_u64()) else {
            continue;
        };
        let Some(old) = base_rows
            .iter()
            .find(|r| r.get("fsync_every").and_then(|v| v.as_u64()) == Some(fe))
        else {
            continue;
        };
        let rate = |row: &serde_json::Value| {
            row.get("effective_commit_rate_per_kstep")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        let (old_r, new_r) = (rate(old), rate(new));
        if old_r > 0.0 && new_r < old_r * (1.0 - REGRESSION_TOLERANCE) {
            errors.push(format!(
                "durability/fsync_every={fe}: effective commit rate regressed \
                 {old_r:.2} -> {new_r:.2} (> {:.0}% drop)",
                REGRESSION_TOLERANCE * 100.0
            ));
        }
    }
    errors
}

/// Compare fresh runs against a committed baseline, scenario by
/// scenario. Returns errors; an empty vec means everything passed. Runs
/// present on only one side are skipped (scenario sets may evolve).
fn check_against(baseline: &serde_json::Value, fresh: &[serde_json::Value]) -> Vec<String> {
    let mut errors = Vec::new();
    let empty = Vec::new();
    let base_runs = baseline
        .get("runs")
        .and_then(|r| r.as_array())
        .unwrap_or(&empty);
    let scenario = |run: &serde_json::Value| Some(run.get("scenario")?.as_str()?.to_owned());
    let commit_rate = |run: &serde_json::Value| {
        run.get("commit_rate")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    for new in fresh {
        let Some(name) = scenario(new) else { continue };
        let Some(old) = base_runs
            .iter()
            .find(|r| scenario(r).as_ref() == Some(&name))
        else {
            continue;
        };
        let (old_cr, new_cr) = (commit_rate(old), commit_rate(new));
        if old_cr > 0.0 && new_cr < old_cr * (1.0 - REGRESSION_TOLERANCE) {
            errors.push(format!(
                "{name}: commit rate regressed {old_cr:.1} -> {new_cr:.1} (> {:.0}% drop)",
                REGRESSION_TOLERANCE * 100.0
            ));
        }
    }
    errors
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let only = flag("--only");
    let out = flag("--out").unwrap_or_else(|| "BENCH_pipeline.json".to_owned());
    let check = flag("--check");

    let mut runs = Vec::new();
    for s in scenarios() {
        if only.as_deref().is_some_and(|o| o != s.name) {
            continue;
        }
        println!("running {} (sim)...", s.name);
        runs.push(run_sim(&s));
    }
    let sharding = if only.is_none() {
        println!("running shard_scaling sweep (sim)...");
        Some(shard_scaling())
    } else {
        None
    };
    // `--only durability` runs just the durability sweep (the CI gate
    // uses it: the sweep is deterministic, so it needs no warm-up runs).
    let durable = if only.as_deref().is_none_or(|o| o == "durability") {
        println!("running durability sweep (sim)...");
        Some(durability())
    } else {
        None
    };
    let doc: serde_json::Value = [
        (
            "note".to_owned(),
            "per-stage pipeline latencies of the deterministic sim; every run tagged \
             with runtime and unit (sim: virtual_steps)"
                .into(),
        ),
        ("runs".to_owned(), serde_json::Value::Array(runs.clone())),
    ]
    .into_iter()
    .chain(sharding.map(|v| ("shard_scaling".to_owned(), v)))
    .chain(durable.clone().map(|v| ("durability".to_owned(), v)))
    .collect();
    let rendered = serde_json::to_string_pretty(&doc);
    std::fs::write(&out, &rendered).expect("write benchmark JSON");
    println!("wrote {out} ({} bytes)", rendered.len());

    if let Some(path) = check {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let baseline =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse baseline {path}: {e:?}"));
        let mut errors = check_against(&baseline, &runs);
        if let Some(d) = &durable {
            errors.extend(check_durability(&baseline, d));
        }
        if errors.is_empty() {
            println!("check vs {path}: OK");
        } else {
            for e in &errors {
                eprintln!("bench check FAILED: {e}");
            }
            std::process::exit(1);
        }
    }
}
