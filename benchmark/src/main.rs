//! The WHIPS pipeline benchmark. One invocation runs one workload:
//!
//! ```text
//! mvc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! mvc-benchmark --check [--workload NAME] [--seed N] [--out DIR]
//! mvc-benchmark --compare DIR_A DIR_B
//! ```
//!
//! `--trace 0` measures the end-to-end metrics (set-up, flood leg, paced
//! leg) with tracing off; `--trace 1` measures the per-layer metrics
//! (traced leg, single-thread baseline, direct layer loops, recovery).
//! The last stdout line is the result object the driver reads. See
//! `README.md` for the metric glossary and the scheduler policy.

mod check;
mod gen;
mod layers;
mod legs;
mod metrics;
mod paced;
mod stats;
mod workloads;

use metrics::Metrics;
use mvc_core::ViewId;
use mvc_whips::{ManagerKind, ThreadedBuilder};
use paced::Arrivals;
use serde_json::Value;
use stats::{mean, median, percentile_sorted};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Workload, WORKLOADS};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Share of `--seconds` the flood leg may use (the paced leg offers
/// arrivals for half of it; the rest is set-up and checking).
const FLOOD_SHARE: f64 = 0.4;
const FLOOD_MIN_REPS: usize = 3;
const FLOOD_MAX_REPS: usize = 60;
/// Flood and recovery repetitions of the traced run.
const TRACED_REPS: u64 = 3;
/// `--check` instance size.
const CHECK_UPDATES: usize = 1500;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    check: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        check: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(2..=60).contains(&a.seconds) {
                    return Err("--seconds must be within 2..=60".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--check" => a.check = true,
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let code = match parse_args().and_then(|a| dispatch(&a)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(why) => {
            eprintln!("mvc-benchmark: {why}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(a: &Args) -> Result<bool, String> {
    if let Some((first, second)) = &a.compare {
        return compare(first, second);
    }
    let selected: Vec<&Workload> = match a.workload.as_deref() {
        None | Some("all") if a.check => WORKLOADS.iter().collect(),
        Some(name) => vec![workloads::by_name(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name}; one of {names:?}")
        })?],
        None => return Err("--workload NAME is required".to_string()),
    };
    std::fs::create_dir_all(&a.out).map_err(|e| format!("creating {:?}: {e}", a.out))?;
    if a.check {
        for w in selected {
            let wal_dir = fresh_wal_dir(&a.out, w)?;
            check_pass(w, a.seed, &wal_dir)?;
            let _ = std::fs::remove_dir_all(&wal_dir);
        }
        println!("check: PASS");
        return Ok(true);
    }
    let w = selected[0];
    let wal_dir = fresh_wal_dir(&a.out, w)?;
    let result = if a.trace {
        run_traced(w, a, &wal_dir)?
    } else {
        run_end_to_end(w, a, &wal_dir)?
    };
    // WAL files are inputs to nothing after the run; keep out/ small.
    let _ = std::fs::remove_dir_all(&wal_dir);
    result.emit(w, a)
}

/// `out/wal-<workload>`, wiped: no leg ever sees another run's log.
fn fresh_wal_dir(out: &Path, w: &Workload) -> Result<PathBuf, String> {
    let dir = out.join(format!("wal-{}", w.name));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("wiping {dir:?}: {e}"))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {dir:?}: {e}"))?;
    Ok(dir)
}

/// Operations attempted and failed over the legs of a run: updates
/// offered (plus certified reader reads) and updates whose effect is
/// missing from the final warehouse state.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }
}

struct RunResult {
    metrics: Metrics,
    table: Vec<(String, &'static str)>,
    tally: Tally,
    /// Sample counts and other context printed beside the metrics.
    notes: Vec<(String, Value)>,
}

impl RunResult {
    /// Print every metric as `name value unit`, write the output file,
    /// and end stdout with the driver's result object.
    fn emit(self, w: &Workload, a: &Args) -> Result<bool, String> {
        let rows = self.metrics.in_order(&self.table)?;
        let correct = self.tally.failed == 0;
        for (name, value, unit) in &rows {
            println!("{name} {value} {unit}");
        }
        for (name, value) in &self.notes {
            println!("# {name} {value}");
        }
        let metrics: Value = rows
            .iter()
            .map(|(name, value, unit)| {
                let m: Value = [
                    ("value".to_string(), Value::from(*value)),
                    ("unit".to_string(), Value::from(*unit)),
                ]
                .into_iter()
                .collect();
                (name.clone(), m)
            })
            .collect();
        let result: Value = [
            ("correct".to_string(), Value::from(correct)),
            ("attempted".to_string(), Value::from(self.tally.attempted)),
            ("failed".to_string(), Value::from(self.tally.failed)),
            ("metrics".to_string(), metrics),
        ]
        .into_iter()
        .collect();

        let doc: Value = [
            ("workload".to_string(), Value::from(w.name)),
            ("why".to_string(), Value::from(w.why)),
            ("environment".to_string(), environment(a)),
            ("result".to_string(), result.clone()),
            ("notes".to_string(), self.notes.into_iter().collect()),
        ]
        .into_iter()
        .collect();
        let suffix = if a.trace { "layers.json" } else { "json" };
        let path = a.out.join(format!("{}.{suffix}", w.name));
        std::fs::write(&path, serde_json::to_string_pretty(&doc) + "\n")
            .map_err(|e| format!("writing {path:?}: {e}"))?;

        println!("{result}");
        Ok(correct)
    }
}

/// What the numbers were measured on. The toolchain and commit are
/// passed in by `run.sh`: the benchmark itself starts no process.
fn environment(a: &Args) -> Value {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    [
        ("nproc".to_string(), Value::from(nproc)),
        ("rustc".to_string(), Value::from(var("BENCH_RUSTC"))),
        (
            "git_commit".to_string(),
            Value::from(var("BENCH_GIT_COMMIT")),
        ),
        ("seed".to_string(), Value::from(a.seed)),
        ("seconds".to_string(), Value::from(a.seconds)),
        (
            "scale".to_string(),
            Value::from(format!("{}/{}", workloads::SCALE.0, workloads::SCALE.1)),
        ),
        (
            "flush_policy".to_string(),
            Value::from(format!(
                "fsync_every={} checkpoint_every={} single-file WAL",
                workloads::FSYNC_EVERY,
                workloads::CHECKPOINT_EVERY
            )),
        ),
    ]
    .into_iter()
    .collect()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// `--trace 0`: set-up ×7, flood leg for its share of the run, paced leg.
fn run_end_to_end(w: &Workload, a: &Args, wal_dir: &Path) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut deployed = None;
    for _ in 0..SETUPS {
        drop(deployed.take());
        let t0 = Instant::now();
        deployed = Some(legs::set_up(w, a.seed, a.seconds, wal_dir)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let d = deployed.expect("SETUPS > 0");
    let n = w.flood_updates();
    let mut t = Tally::default();

    // Paced: open loop at the workload's rate, tracing off. It runs
    // before the flood leg so that `peak_rss_mb` is the footprint of
    // set-up plus this single-threaded leg, which repeats; the flood
    // leg's high-water mark moves with thread timing (queue depths,
    // retained reads) and is a per-layer metric of the traced run.
    let arrivals = Arrivals {
        rate: Some(w.paced_rate),
        warmup: w.warmup_updates(),
    };
    let paced = legs::paced(d.paced, d.paced_n, arrivals, false)?;
    t.add(d.paced_n, paced.missing);
    let peak_rss = peak_rss_mb()?;

    // Flood: closed burst, repeated (a fresh stream each time) while
    // the leg's share of the run lasts, median reported.
    let budget = a.seconds as f64 * FLOOD_SHARE;
    let leg = Instant::now();
    let mut walls = Vec::new();
    let mut builder = Some(d.flood);
    while walls.len() < FLOOD_MAX_REPS {
        let b = builder
            .take()
            .unwrap_or_else(|| legs::flood_rep(w, a.seed, walls.len() as u64, wal_dir));
        let run = legs::flood(b, n)?;
        t.add(n + run.report.read_observations.len(), run.missing);
        walls.push(run.wall.as_secs_f64());
        let spent = leg.elapsed().as_secs_f64();
        if walls.len() >= FLOOD_MIN_REPS && spent + median(&walls) > budget {
            break;
        }
    }

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("updates_per_s", n as f64 / median(&walls));
    m.set("visible_mean_ms", mean(&paced.latencies_ns) / 1e6);
    m.set(
        "visible_p95_ms",
        ms(percentile_sorted(&paced.latencies_ns, 95.0)),
    );
    m.set("peak_rss_mb", peak_rss);
    Ok(RunResult {
        metrics: m,
        table: metrics::end_to_end(),
        tally: t,
        notes: vec![
            ("flood_updates".to_string(), Value::from(n)),
            ("flood_reps".to_string(), Value::from(walls.len())),
            (
                "flood_walls_s".to_string(),
                Value::from(walls.iter().map(|w| Value::from(*w)).collect::<Vec<_>>()),
            ),
            (
                "visible_samples".to_string(),
                Value::from(paced.latencies_ns.len()),
            ),
            ("warmup_updates".to_string(), Value::from(arrivals.warmup)),
            ("paced_rate_per_s".to_string(), Value::from(w.paced_rate)),
            (
                "gen_late_max_ms".to_string(),
                Value::from(ms(paced.run.gen_late_max_ns)),
            ),
            ("backlog_end".to_string(), Value::from(paced.backlog_end)),
        ],
    })
}

/// `--trace 1`: the per-layer metrics.
fn run_traced(w: &Workload, a: &Args, wal_dir: &Path) -> Result<RunResult, String> {
    let d = legs::set_up(w, a.seed, a.seconds, wal_dir)?;
    let mut t = Tally::default();
    let mut m = Metrics::default();

    let last_flood_wall = flood_layers(w, a, wal_dir, d.flood, &mut m, &mut t)?;
    baseline_and_durability(w, a, wal_dir, last_flood_wall, &mut m, &mut t)?;

    // Paced then traced: same arrivals, same inputs; the difference is
    // what tracing costs. Compared on the mean of the fastest 95 % of
    // latencies: the median sits on a cliff under Strobe (bimodal
    // insert/delete latency) and the plain mean carries fsync stalls.
    let arrivals = Arrivals {
        rate: Some(w.paced_rate),
        warmup: w.warmup_updates(),
    };
    let np = d.paced_n;
    let paced = legs::paced(d.paced, np, arrivals, false)?;
    t.add(np, paced.missing);
    let body = |lat: &[u64]| mean(&lat[..lat.len() * 95 / 100]);
    let paced_body = body(&paced.latencies_ns);
    // Free the first pipeline before the second runs: a larger live
    // heap alone slows the allocation-heavy steps by several percent.
    drop(paced);
    let pipe = legs::build_pipeline(w, &d.paced_builder, wal_dir, "traced")?;
    let traced = legs::paced(pipe, np, arrivals, true)?;
    t.add(np, traced.missing);
    let traced_body = body(&traced.latencies_ns);
    m.set(
        "pipeline.trace_overhead_pct",
        (traced_body - paced_body) / paced_body * 100.0,
    );

    let spans = &traced.run.spans;
    layers::step_metrics(spans, &mut m);
    let kinds: Vec<(ViewId, ManagerKind)> = (0..gen::VIEWS)
        .map(|i| (gen::view_id(i), w.kinds[i]))
        .collect();
    layers::viewmgr_metrics(spans, &kinds, &mut m);
    let busy = layers::busy_ns(spans) as f64;
    let timed = np - arrivals.warmup;
    m.set("pipeline.utilisation", busy / traced.run.wall_ns as f64);
    m.set(
        "pipeline.capacity_updates_per_s",
        timed as f64 / (busy / 1e9),
    );
    m.set(
        "pipeline.visible_p50_ms",
        ms(percentile_sorted(&traced.latencies_ns, 50.0)),
    );
    m.set(
        "pipeline.visible_p99_ms",
        ms(percentile_sorted(&traced.latencies_ns, 99.0)),
    );
    m.set("pipeline.gen_late_max_ms", ms(traced.run.gen_late_max_ns));
    m.set("pipeline.backlog_end", traced.backlog_end as f64);

    let warehouse = &traced.run.report.warehouse;
    let ids: Vec<ViewId> = warehouse.view_ids().collect();
    let views = warehouse.read(&ids);
    let rows: u64 = views.values().map(|r| r.len()).sum();
    m.set("warehouse.view_rows_end", rows as f64);
    let (publish_ns, read_ns) = layers::readpath_loop(&views);
    m.set("readpath.publish_mean_us", publish_ns / 1e3);
    m.set("readpath.read_at_mean_us", read_ns / 1e3);

    let trace_path = a.out.join(format!("trace-{}.json", w.name));
    layers::write_trace(&trace_path, w.name, spans)
        .map_err(|e| format!("writing {trace_path:?}: {e}"))?;

    Ok(RunResult {
        metrics: m,
        table: metrics::per_layer(),
        tally: t,
        notes: vec![
            ("flood_updates".to_string(), Value::from(w.flood_updates())),
            ("warmup_updates".to_string(), Value::from(arrivals.warmup)),
            ("traced_updates".to_string(), Value::from(timed)),
            ("spans".to_string(), Value::from(spans.len())),
            (
                "paced_body_mean_ms".to_string(),
                Value::from(paced_body / 1e6),
            ),
            (
                "traced_body_mean_ms".to_string(),
                Value::from(traced_body / 1e6),
            ),
        ],
    })
}

/// Flood repetitions of the traced run: what the runtime reports about
/// itself (wait and service mixed — never a basis for a claim), reader
/// throughput, the flood high-water mark. Returns the last repetition's
/// wall time, seconds; its WAL stays on disk for the durability loops.
fn flood_layers(
    w: &Workload,
    a: &Args,
    wal_dir: &Path,
    first: ThreadedBuilder,
    m: &mut Metrics,
    t: &mut Tally,
) -> Result<f64, String> {
    let n = w.flood_updates();
    let mut reads_per_s = Vec::new();
    let mut last = None;
    let mut builder = Some(first);
    for rep in 0..TRACED_REPS {
        let b = builder
            .take()
            .unwrap_or_else(|| legs::flood_rep(w, a.seed, rep, wal_dir));
        let run = legs::flood(b, n)?;
        t.add(n + run.report.read_observations.len(), run.missing);
        let wall = run.wall.as_secs_f64();
        reads_per_s.push(run.report.read_observations.len() as f64 / wall);
        last = Some((run.report, wall));
    }
    let (report, wall) = last.expect("TRACED_REPS > 0");
    m.set("whips.flood_peak_rss_mb", peak_rss_mb()?);
    let obs = &report.pipeline;
    for (stage, h) in obs.stages() {
        m.set(format!("whips.stage.{stage}_p50_ns"), h.p50() as f64);
    }
    m.set("core.vut_peak_rows", obs.vut_peak() as f64);
    m.set(
        "core.commits_per_update",
        report.commit_log.len() as f64 / n as f64,
    );
    let batched: u64 = report.merge_stats.iter().map(|s| s.batched_actions).sum();
    m.set("core.batched_actions", batched as f64);
    m.set("readpath.read_p50_ns", obs.read_latency.p50() as f64);
    m.set("readpath.read_p99_ns", obs.read_latency.p99() as f64);
    m.set("readpath.staleness_mean", obs.read_staleness.mean());
    m.set("readpath.reads_per_s", median(&reads_per_s));
    m.set("durability.fsyncs", report.metrics.wal_fsyncs as f64);
    Ok(wall)
}

/// The single-thread baseline — the last flood stream through the
/// explicit pipeline at λ = ∞, journaled like the flood leg was — and
/// the durability layer in isolation (0 on the WAL-off workloads).
fn baseline_and_durability(
    w: &Workload,
    a: &Args,
    wal_dir: &Path,
    last_flood_wall: f64,
    m: &mut Metrics,
    t: &mut Tally,
) -> Result<(), String> {
    let at_once = Arrivals {
        rate: None,
        warmup: 0,
    };
    let stream = legs::flood_txns(w, a.seed, TRACED_REPS - 1);
    let n = stream.len();
    let builder = legs::pipeline_builder(w, stream.clone(), false);
    let pipe = legs::build_pipeline(w, &builder, wal_dir, "inline")?;
    let inline = legs::paced(pipe, n, at_once, true)?;
    t.add(n, inline.missing);
    let inline_busy = layers::busy_ns(&inline.run.spans) as f64;
    m.set(
        "whips.threaded_vs_inline_ratio",
        last_flood_wall * 1e9 / inline_busy,
    );

    for name in [
        "append_mean_us",
        "flush_mean_us",
        "records_per_update",
        "step_overhead_us",
        "checkpoint_bytes",
        "wal_bytes_per_update",
        "recovery_s",
    ] {
        m.set(format!("durability.{name}"), 0.0);
    }
    let Some(flood_wal) = w.durability(wal_dir, "flood") else {
        return Ok(());
    };
    let pipe = builder.build().map_err(|e| e.to_string())?;
    let plain = legs::paced(pipe, n, at_once, true)?;
    t.add(n, plain.missing);
    let plain_busy = layers::busy_ns(&plain.run.spans) as f64;
    m.set(
        "durability.step_overhead_us",
        (inline_busy - plain_busy) / 1e3 / n as f64,
    );
    let wal_bytes = std::fs::metadata(&flood_wal.wal_path)
        .map_err(|e| format!("sizing {:?}: {e}", flood_wal.wal_path))?
        .len();
    m.set(
        "durability.wal_bytes_per_update",
        wal_bytes as f64 / n as f64,
    );
    let replay = layers::wal_replay(
        &flood_wal.wal_path,
        &wal_dir.join("replay.wal"),
        workloads::FSYNC_EVERY,
    )?;
    m.set("durability.append_mean_us", replay.append_mean_ns / 1e3);
    m.set("durability.flush_mean_us", replay.flush_mean_ns / 1e3);
    m.set(
        "durability.records_per_update",
        replay.records as f64 / n as f64,
    );
    m.set(
        "durability.checkpoint_bytes",
        replay.checkpoint_bytes as f64,
    );

    let recover_wal = w.durability(wal_dir, "recover").expect("durable workload");
    let mut recoveries = Vec::new();
    for _ in 0..TRACED_REPS {
        let r = legs::crash_and_recover(w, a.seed, &stream, &recover_wal, false, false)?;
        t.add(r.injected, check::cheap_invariants(&r.report, r.injected)?);
        recoveries.push(r.wall.as_secs_f64());
    }
    m.set("durability.recovery_s", median(&recoveries));
    Ok(())
}

/// The untimed `--check` pass: a small instance of the workload through
/// both drivers under the full oracle, readers certified, and (durable
/// workload) the crash-recovered stitched history certified.
fn check_pass(w: &Workload, seed: u64, wal_dir: &Path) -> Result<(), String> {
    let txns = gen::generate(seed, CHECK_UPDATES, w.key_domain);
    let n = txns.len();
    let fail = |leg: &str, why: String| format!("check {} {leg}: {why}", w.name);

    let run = legs::flood(legs::flood_builder(w, txns.clone(), wal_dir, true), n)
        .map_err(|e| fail("threaded", e))?;
    check::full_oracle(&run.report).map_err(|e| fail("threaded", e))?;
    if run.missing != 0 {
        return Err(fail("threaded", format!("{} updates missing", run.missing)));
    }
    println!(
        "check {}: threaded ok ({} commits, {} certified reads)",
        w.name,
        run.report.commit_log.len(),
        run.report.read_observations.len()
    );

    let builder = legs::pipeline_builder(w, txns.clone(), true);
    let pipe =
        legs::build_pipeline(w, &builder, wal_dir, "check").map_err(|e| fail("pipeline", e))?;
    let arrivals = Arrivals {
        rate: Some(10 * w.paced_rate),
        warmup: n / 3,
    };
    let leg = legs::paced(pipe, n, arrivals, true).map_err(|e| fail("pipeline", e))?;
    check::full_oracle(&leg.run.report).map_err(|e| fail("pipeline", e))?;
    if leg.missing != 0 {
        return Err(fail("pipeline", format!("{} updates missing", leg.missing)));
    }
    println!(
        "check {}: pipeline ok ({} commits, {} steps)",
        w.name,
        leg.run.report.commit_log.len(),
        leg.run.spans.len()
    );

    if let Some(d) = w.durability(wal_dir, "recover") {
        let r = legs::crash_and_recover(w, seed, &txns, &d, true, true)
            .map_err(|e| fail("recovery", e))?;
        check::stitched_history(&r.report, n).map_err(|e| fail("recovery", e))?;
        println!(
            "check {}: recovery ok (crashed after {} of {n} updates, {} commits stitched)",
            w.name,
            r.injected,
            r.report.commit_log.len()
        );
    }
    Ok(())
}

/// `--compare A B`: per workload and end-to-end metric, both values,
/// how much worse the second is, and the bound; false if any exceeds it.
fn compare(first: &Path, second: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p:?}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("parsing {p:?}: {e}"))
    };
    let spec = load(Path::new("BENCHMARK.json"))?;
    let declared = spec["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end")?;
    let mut within = true;
    println!("workload metric first second worse_by bound");
    for w in &WORKLOADS {
        let file = format!("{}.json", w.name);
        let (a, b) = (load(&first.join(&file))?, load(&second.join(&file))?);
        for metric in declared {
            let name = metric["name"].as_str().ok_or("metric without a name")?;
            let bound = metric["bound"].as_f64().ok_or("metric without a bound")?;
            let value = |doc: &Value| {
                doc["result"]["metrics"][name]["value"]
                    .as_f64()
                    .ok_or_else(|| format!("{file} has no {name}"))
            };
            let (x, y) = (value(&a)?, value(&b)?);
            let worse_by = match metric["better"].as_str() {
                Some("higher") => (x - y) / x,
                _ => (y - x) / x,
            };
            let verdict = if worse_by > bound { "EXCEEDS" } else { "ok" };
            within &= worse_by <= bound;
            println!("{} {name} {x} {y} {worse_by:+.4} {bound} {verdict}", w.name);
        }
    }
    Ok(within)
}
