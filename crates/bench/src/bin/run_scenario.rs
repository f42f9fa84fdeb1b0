//! Scenario runner: describe a warehouse deployment in JSON — relations,
//! SQL view definitions, manager kinds, workload, runtime knobs — run it
//! end to end, and get the report plus oracle verdicts.
//!
//! ```bash
//! cargo run --release -p mvc-bench --bin run_scenario -- scenarios/bank.json
//! cargo run --release -p mvc-bench --bin run_scenario -- --print-sample
//! ```

use mvc_core::{CommitPolicy, MergeAlgorithm, ViewId};
use mvc_durability::DurabilityConfig;
use mvc_relational::{parse_view, Schema, Value};
use mvc_source::{SourceId, WriteOp};
use mvc_whips::{
    ManagerKind, Oracle, SimBuilder, SimConfig, ThreadedBuilder, ThreadedConfig, WorkloadTxn,
};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Top-level scenario file.
#[derive(Debug, Serialize, Deserialize)]
struct Scenario {
    /// Base relations: name → (source id, attribute names, all-int).
    relations: Vec<RelationSpec>,
    /// Views: id, SQL definition, manager kind.
    views: Vec<ViewSpec>,
    /// Explicit transactions (optional) …
    #[serde(default)]
    transactions: Vec<TxnSpec>,
    /// … and/or a generated workload.
    #[serde(default)]
    generated: Option<GeneratedSpec>,
    #[serde(default)]
    runtime: RuntimeSpec,
}

#[derive(Debug, Serialize, Deserialize)]
struct RelationSpec {
    name: String,
    source: u32,
    attributes: Vec<String>,
}

#[derive(Debug, Serialize, Deserialize)]
struct ViewSpec {
    id: u32,
    sql: String,
    /// `complete | eca | self-maintaining | strobe | periodic:N |
    /// convergent:N | complete-n:N`
    manager: String,
}

#[derive(Debug, Serialize, Deserialize)]
struct TxnSpec {
    source: u32,
    #[serde(default)]
    global: bool,
    /// ("insert"|"delete", relation, int values…)
    writes: Vec<(String, String, Vec<i64>)>,
}

#[derive(Debug, Serialize, Deserialize)]
struct GeneratedSpec {
    seed: u64,
    updates: usize,
    /// Relations (by name) the generator targets; tuples are unique pairs
    /// drawn from `key_domain`.
    #[serde(default)]
    key_domain: Option<i64>,
    #[serde(default)]
    delete_percent: Option<u8>,
}

#[derive(Debug, Default, Serialize, Deserialize)]
struct RuntimeSpec {
    /// "sim" (default) or "threaded".
    #[serde(default)]
    mode: Option<String>,
    #[serde(default)]
    seed: Option<u64>,
    /// `sequential | dependency-aware | immediate | batched:N`
    #[serde(default)]
    commit_policy: Option<String>,
    /// `spa | pa | pass-through` (default: auto from managers)
    #[serde(default)]
    algorithm: Option<String>,
    #[serde(default)]
    partition: Option<bool>,
    #[serde(default)]
    max_open_updates: Option<usize>,
    #[serde(default)]
    query_delay_us: Option<u64>,
    #[serde(default)]
    sequential: Option<bool>,
    /// Threaded mode only: updates per channel message (1 = per-update
    /// sends, the pre-batching behaviour).
    #[serde(default)]
    batch_max: Option<usize>,
    /// Threaded mode only: flush a partial batch once its oldest update
    /// has waited this long.
    #[serde(default)]
    batch_deadline_us: Option<u64>,
    /// Concurrent MVCC reader sessions (both modes): reader threads in
    /// threaded mode, scheduler-lottery reader sessions in sim mode.
    /// Every observed cut is certified after the run.
    #[serde(default)]
    readers: Option<usize>,
    /// Threaded mode only: think time between a reader's queries.
    #[serde(default)]
    reader_think_time_us: Option<u64>,
    /// Cap on the §6.1 merge-group count (both modes): the relevance
    /// partitioning is coarsened down to at most this many groups.
    #[serde(default)]
    groups: Option<usize>,
    /// Warehouse shards (both modes): groups are assigned round-robin,
    /// each shard commits independently, and the run is certified by
    /// `Oracle::check_sharded` (ticket linearization + cross-shard read
    /// watermarks).
    #[serde(default)]
    shards: Option<usize>,
    /// Durable mode (both modes): write-ahead log at this path. Every
    /// routing/commit event is journaled; the remaining `wal_*` knobs
    /// shape batching, rotation and checkpointing.
    #[serde(default)]
    wal: Option<String>,
    /// Write **and fsync** after every N appended records (default 1 =
    /// durable per record; larger values model delayed group fsync).
    #[serde(default)]
    wal_fsync_every: Option<u64>,
    /// Threaded mode only: group-commit window in microseconds —
    /// committers park on the shared flush ticket and one leader fsyncs
    /// for everyone who arrived within the window.
    #[serde(default)]
    wal_fsync_deadline_us: Option<u64>,
    /// Rotate to a fresh `<wal>.seg{k}` segment every N records
    /// (0 = never rotate). With checkpoints enabled, segments
    /// wholly behind the newest checkpoint anchor are compacted away.
    #[serde(default)]
    wal_rotate_every: Option<u64>,
    /// Append a checkpoint record every N warehouse commits (0 = never);
    /// recovery then restores the checkpoint and replays only the tail.
    #[serde(default)]
    wal_checkpoint_every: Option<u64>,
}

/// Hand-rolled JSON → `Scenario` extraction. The vendored `serde_json`
/// stand-in parses to a `Value` tree only (no generic deserialization, see
/// `vendor/README.md`), so the field mapping the serde derives used to
/// provide lives here, including the `#[serde(default)]` semantics.
mod from_json {
    use super::{GeneratedSpec, RelationSpec, RuntimeSpec, Scenario, TxnSpec, ViewSpec};
    use serde_json::Value as Json;

    /// Present and non-null.
    fn field<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
        v.get(key).filter(|f| !f.is_null())
    }

    fn str_field(v: &Json, key: &str) -> Result<String, String> {
        field(v, key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("missing or non-string `{key}`"))
    }

    fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
        field(v, key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing or non-integer `{key}`"))
    }

    fn array_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
        field(v, key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("missing or non-array `{key}`"))
    }

    pub fn scenario(v: &Json) -> Result<Scenario, String> {
        if v.as_object().is_none() {
            return Err("scenario must be a JSON object".into());
        }
        Ok(Scenario {
            relations: array_field(v, "relations")?
                .iter()
                .map(relation)
                .collect::<Result<_, _>>()?,
            views: array_field(v, "views")?
                .iter()
                .map(view)
                .collect::<Result<_, _>>()?,
            transactions: match field(v, "transactions") {
                Some(t) => t
                    .as_array()
                    .ok_or("`transactions` must be an array")?
                    .iter()
                    .map(txn)
                    .collect::<Result<_, _>>()?,
                None => Vec::new(),
            },
            generated: field(v, "generated").map(generated).transpose()?,
            runtime: field(v, "runtime")
                .map(runtime)
                .transpose()?
                .unwrap_or_default(),
        })
    }

    fn relation(v: &Json) -> Result<RelationSpec, String> {
        Ok(RelationSpec {
            name: str_field(v, "name")?,
            source: u64_field(v, "source")? as u32,
            attributes: array_field(v, "attributes")?
                .iter()
                .map(|a| {
                    a.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| "attribute names must be strings".to_string())
                })
                .collect::<Result<_, _>>()?,
        })
    }

    fn view(v: &Json) -> Result<ViewSpec, String> {
        Ok(ViewSpec {
            id: u64_field(v, "id")? as u32,
            sql: str_field(v, "sql")?,
            manager: str_field(v, "manager")?,
        })
    }

    fn txn(v: &Json) -> Result<TxnSpec, String> {
        let writes = array_field(v, "writes")?
            .iter()
            .map(|w| {
                let parts = w.as_array().ok_or("each write must be an array")?;
                match parts {
                    [op, rel, vals] => Ok((
                        op.as_str().ok_or("write op must be a string")?.to_owned(),
                        rel.as_str()
                            .ok_or("write relation must be a string")?
                            .to_owned(),
                        vals.as_array()
                            .ok_or("write values must be an array")?
                            .iter()
                            .map(|n| {
                                n.as_i64()
                                    .ok_or_else(|| "write values must be integers".to_string())
                            })
                            .collect::<Result<Vec<i64>, _>>()?,
                    )),
                    _ => Err("each write is [op, relation, [values…]]".to_string()),
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(TxnSpec {
            source: u64_field(v, "source")? as u32,
            global: field(v, "global").and_then(Json::as_bool).unwrap_or(false),
            writes,
        })
    }

    fn generated(v: &Json) -> Result<GeneratedSpec, String> {
        Ok(GeneratedSpec {
            seed: u64_field(v, "seed")?,
            updates: u64_field(v, "updates")? as usize,
            key_domain: field(v, "key_domain").and_then(Json::as_i64),
            delete_percent: field(v, "delete_percent")
                .and_then(Json::as_u64)
                .map(|n| n as u8),
        })
    }

    fn runtime(v: &Json) -> Result<RuntimeSpec, String> {
        Ok(RuntimeSpec {
            mode: field(v, "mode").and_then(Json::as_str).map(str::to_owned),
            seed: field(v, "seed").and_then(Json::as_u64),
            commit_policy: field(v, "commit_policy")
                .and_then(Json::as_str)
                .map(str::to_owned),
            algorithm: field(v, "algorithm")
                .and_then(Json::as_str)
                .map(str::to_owned),
            partition: field(v, "partition").and_then(Json::as_bool),
            max_open_updates: field(v, "max_open_updates")
                .and_then(Json::as_u64)
                .map(|n| n as usize),
            query_delay_us: field(v, "query_delay_us").and_then(Json::as_u64),
            sequential: field(v, "sequential").and_then(Json::as_bool),
            batch_max: field(v, "batch_max")
                .and_then(Json::as_u64)
                .map(|n| n as usize),
            batch_deadline_us: field(v, "batch_deadline_us").and_then(Json::as_u64),
            readers: field(v, "readers")
                .and_then(Json::as_u64)
                .map(|n| n as usize),
            reader_think_time_us: field(v, "reader_think_time_us").and_then(Json::as_u64),
            groups: field(v, "groups")
                .and_then(Json::as_u64)
                .map(|n| n as usize),
            shards: field(v, "shards")
                .and_then(Json::as_u64)
                .map(|n| n as usize),
            wal: field(v, "wal").and_then(Json::as_str).map(str::to_owned),
            wal_fsync_every: field(v, "wal_fsync_every").and_then(Json::as_u64),
            wal_fsync_deadline_us: field(v, "wal_fsync_deadline_us").and_then(Json::as_u64),
            wal_rotate_every: field(v, "wal_rotate_every").and_then(Json::as_u64),
            wal_checkpoint_every: field(v, "wal_checkpoint_every").and_then(Json::as_u64),
        })
    }
}

/// WAL settings from the `wal*` runtime knobs (`None` = in-memory run).
fn durability(rt: &RuntimeSpec) -> Option<DurabilityConfig> {
    let path = rt.wal.as_ref()?;
    let mut d = DurabilityConfig::new(path)
        .with_fsync_every(rt.wal_fsync_every.unwrap_or(1))
        .with_rotate_every(rt.wal_rotate_every.unwrap_or(0))
        .with_checkpoint_every(rt.wal_checkpoint_every.unwrap_or(0));
    if let Some(us) = rt.wal_fsync_deadline_us {
        d = d.with_fsync_deadline(Duration::from_micros(us));
    }
    Some(d)
}

fn parse_manager(s: &str) -> Result<ManagerKind, String> {
    let (kind, arg) = match s.split_once(':') {
        Some((k, a)) => (k, Some(a)),
        None => (s, None),
    };
    let num = |a: Option<&str>| -> Result<u32, String> {
        a.ok_or_else(|| format!("manager `{s}` needs :N"))?
            .parse()
            .map_err(|_| format!("bad N in `{s}`"))
    };
    Ok(match kind {
        "complete" => ManagerKind::Complete,
        "eca" => ManagerKind::Eca,
        "self-maintaining" | "selfmaint" => ManagerKind::SelfMaintaining,
        "strobe" => ManagerKind::Strobe,
        "periodic" => ManagerKind::Periodic {
            period: num(arg)? as usize,
        },
        "convergent" => ManagerKind::Convergent {
            correction_every: num(arg)? as usize,
        },
        "complete-n" => ManagerKind::CompleteN { n: num(arg)? },
        other => return Err(format!("unknown manager kind `{other}`")),
    })
}

fn parse_policy(s: &str) -> Result<CommitPolicy, String> {
    Ok(match s.split_once(':') {
        Some(("batched", n)) => CommitPolicy::Batched {
            max_batch: n.parse().map_err(|_| "bad batch size".to_string())?,
        },
        None | Some(_) => match s {
            "sequential" => CommitPolicy::Sequential,
            "dependency-aware" => CommitPolicy::DependencyAware,
            "immediate" => CommitPolicy::Immediate,
            other => return Err(format!("unknown commit policy `{other}`")),
        },
    })
}

fn parse_algorithm(s: &str) -> Result<MergeAlgorithm, String> {
    Ok(match s {
        "spa" => MergeAlgorithm::Spa,
        "pa" => MergeAlgorithm::Pa,
        "pass-through" => MergeAlgorithm::PassThrough,
        other => return Err(format!("unknown algorithm `{other}`")),
    })
}

fn build_txns(sc: &Scenario) -> Result<Vec<WorkloadTxn>, String> {
    let mut txns = Vec::new();
    for t in &sc.transactions {
        let writes = t
            .writes
            .iter()
            .map(|(op, rel, vals)| {
                let tuple =
                    mvc_relational::Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect());
                match op.as_str() {
                    "insert" => Ok(WriteOp::insert(rel.as_str(), tuple)),
                    "delete" => Ok(WriteOp::delete(rel.as_str(), tuple)),
                    other => Err(format!("unknown write op `{other}`")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        txns.push(WorkloadTxn {
            source: SourceId(t.source),
            writes,
            global: t.global,
        });
    }
    if let Some(g) = &sc.generated {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(g.seed);
        let domain = g.key_domain.unwrap_or(8);
        let del = g.delete_percent.unwrap_or(25) as u32;
        let mut live: Vec<Vec<mvc_relational::Tuple>> = vec![Vec::new(); sc.relations.len()];
        for _ in 0..g.updates {
            let r = rng.gen_range(0..sc.relations.len());
            let spec = &sc.relations[r];
            let deleting = !live[r].is_empty() && rng.gen_range(0..100) < del;
            let write = if deleting {
                let idx = rng.gen_range(0..live[r].len());
                WriteOp::delete(spec.name.as_str(), live[r].swap_remove(idx))
            } else {
                let vals: Vec<Value> = (0..spec.attributes.len())
                    .map(|_| Value::Int(rng.gen_range(0..domain)))
                    .collect();
                let t = mvc_relational::Tuple::new(vals);
                if live[r].contains(&t) {
                    continue;
                }
                live[r].push(t.clone());
                WriteOp::insert(spec.name.as_str(), t)
            };
            txns.push(WorkloadTxn {
                source: SourceId(spec.source),
                writes: vec![write],
                global: false,
            });
        }
    }
    Ok(txns)
}

fn run(sc: &Scenario) -> Result<(), String> {
    let mode = sc.runtime.mode.as_deref().unwrap_or("sim");
    let policy = sc
        .runtime
        .commit_policy
        .as_deref()
        .map(parse_policy)
        .transpose()?
        .unwrap_or(CommitPolicy::DependencyAware);
    let algorithm = sc
        .runtime
        .algorithm
        .as_deref()
        .map(parse_algorithm)
        .transpose()?;
    let txns = build_txns(sc)?;

    let report = if mode == "threaded" {
        let defaults = ThreadedConfig::default();
        let config = ThreadedConfig {
            commit_policy: policy,
            algorithm,
            partition: sc.runtime.partition.unwrap_or(false),
            query_delay: Duration::from_micros(sc.runtime.query_delay_us.unwrap_or(0)),
            sequential: sc.runtime.sequential.unwrap_or(false),
            record_snapshots: true,
            batch_max: sc.runtime.batch_max.unwrap_or(defaults.batch_max),
            batch_deadline: sc
                .runtime
                .batch_deadline_us
                .map(Duration::from_micros)
                .unwrap_or(defaults.batch_deadline),
            readers: sc.runtime.readers.unwrap_or(0),
            reader_think_time: sc
                .runtime
                .reader_think_time_us
                .map(Duration::from_micros)
                .unwrap_or(defaults.reader_think_time),
            groups: sc.runtime.groups,
            shards: sc.runtime.shards.unwrap_or(defaults.shards),
            durability: durability(&sc.runtime),
            ..defaults
        };
        let mut b = ThreadedBuilder::new(config);
        for r in &sc.relations {
            let names: Vec<&str> = r.attributes.iter().map(String::as_str).collect();
            b = b.relation(SourceId(r.source), r.name.as_str(), Schema::ints(&names));
        }
        for v in &sc.views {
            let def = parse_view(format!("V{}", v.id).as_str(), &v.sql, b.catalog())
                .map_err(|e| format!("view {}: {e}", v.id))?;
            b = b.view(ViewId(v.id), def, parse_manager(&v.manager)?);
        }
        let (report, wall) = b.workload(txns).run().map_err(|e| e.to_string())?;
        println!(
            "threaded run: {:.1} updates/sec over {:.1} ms",
            wall.updates_per_sec,
            wall.elapsed.as_secs_f64() * 1e3
        );
        report
    } else {
        let config = SimConfig {
            seed: sc.runtime.seed.unwrap_or(0),
            commit_policy: policy,
            algorithm,
            partition: sc.runtime.partition.unwrap_or(false),
            max_open_updates: sc.runtime.max_open_updates,
            sequential: sc.runtime.sequential.unwrap_or(false),
            readers: sc.runtime.readers.unwrap_or(0),
            groups: sc.runtime.groups,
            shards: sc.runtime.shards.unwrap_or(1),
            durability: durability(&sc.runtime),
            ..SimConfig::default()
        };
        let mut b = SimBuilder::new(config);
        for r in &sc.relations {
            let names: Vec<&str> = r.attributes.iter().map(String::as_str).collect();
            b = b.relation(SourceId(r.source), r.name.as_str(), Schema::ints(&names));
        }
        for v in &sc.views {
            let def = parse_view(format!("V{}", v.id).as_str(), &v.sql, b.catalog())
                .map_err(|e| format!("view {}: {e}", v.id))?;
            b = b.view(ViewId(v.id), def, parse_manager(&v.manager)?);
        }
        let report = b.workload(txns).run().map_err(|e| e.to_string())?;
        println!(
            "sim run: {} transactions, {} commits, {} steps, mean staleness {:.2}",
            report.metrics.injected,
            report.metrics.commits,
            report.metrics.steps,
            report.metrics.mean_staleness()
        );
        report
    };

    if let Some(wal) = &sc.runtime.wal {
        println!("wal: {} ({} fsyncs)", wal, report.metrics.wal_fsyncs);
    }
    println!();
    for entry in report.registry.iter() {
        println!(
            "{} {:<14} = {}",
            entry.id,
            entry.def.name.to_string(),
            report.warehouse.view(entry.id).expect("registered")
        );
    }
    println!();
    let oracle = Oracle::new(&report).map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for (g, level, verdict) in oracle.check_report() {
        println!("merge group {g} guarantees {level}: {verdict}");
        all_ok &= verdict.is_satisfied();
    }
    if !report.read_observations.is_empty() {
        match oracle.check_reads() {
            Ok(cert) => println!(
                "reader certification: {} observations over {} sessions all \
                 mutually consistent (max watermark {})",
                cert.observations, cert.sessions, cert.max_watermark
            ),
            Err(v) => {
                println!("reader certification FAILED: {v}");
                all_ok = false;
            }
        }
    }
    if let Some(plane) = &report.shard_plane {
        match oracle.check_sharded() {
            Ok(()) => println!(
                "shard certification: {} shards over {} groups — ticket \
                 linearization, per-shard reads, and frontier monotonicity ok",
                plane.shards.len(),
                plane.assignment.len()
            ),
            Err(v) => {
                println!("shard certification FAILED: {v}");
                all_ok = false;
            }
        }
    }
    if !all_ok {
        return Err("consistency violated".into());
    }
    Ok(())
}

const SAMPLE: &str = r#"{
  "relations": [
    { "name": "orders", "source": 0, "attributes": ["oid", "cust", "total"] },
    { "name": "items",  "source": 1, "attributes": ["oid", "sku", "qty"] }
  ],
  "views": [
    { "id": 1, "sql": "SELECT oid, cust, total FROM orders WHERE total >= 500", "manager": "complete" },
    { "id": 2, "sql": "SELECT orders.cust, items.sku, items.qty FROM orders, items WHERE orders.oid = items.oid", "manager": "strobe" },
    { "id": 3, "sql": "SELECT sku, COUNT(*) AS lines, SUM(qty) AS units FROM items GROUP BY sku", "manager": "complete" }
  ],
  "transactions": [
    { "source": 0, "writes": [["insert", "orders", [1, 10, 700]]] },
    { "source": 1, "writes": [["insert", "items", [1, 501, 2]]] },
    { "source": 0, "writes": [["insert", "orders", [2, 11, 90]]] },
    { "source": 1, "writes": [["insert", "items", [2, 502, 5]]] },
    { "source": 0, "global": true, "writes": [["delete", "orders", [2, 11, 90]], ["delete", "items", [2, 502, 5]]] }
  ],
  "generated": { "seed": 7, "updates": 40 },
  "runtime": { "mode": "sim", "seed": 3, "commit_policy": "dependency-aware", "max_open_updates": 8 }
}"#;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--print-sample") {
        println!("{SAMPLE}");
        return;
    }
    let path = match args.get(1) {
        Some(p) => p.clone(),
        None => {
            eprintln!(
                "usage: run_scenario <scenario.json> | --print-sample\n\
                 (writes a sample with --print-sample > my_scenario.json)"
            );
            std::process::exit(2);
        }
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let parsed = serde_json::from_str(&text)
        .map_err(|e| e.to_string())
        .and_then(|v| from_json::scenario(&v));
    let scenario: Scenario = match parsed {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad scenario file: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&scenario) {
        eprintln!("scenario failed: {e}");
        std::process::exit(1);
    }
}
