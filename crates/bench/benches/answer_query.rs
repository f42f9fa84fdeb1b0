//! `answer_query` — the sources' side of a view manager's query back
//! (§1, problem 2) — against base relations of growing size at a fixed
//! join fan-out. A query costs what its delta joins with; a slope in the
//! relation size means a step hashes or copies a base relation again.
//!
//! `V = R(a, b) ⋈_{R.b = S.b} S(b, c)`, `N` tuples per relation, every
//! join value carried by [`FANOUT`] tuples on each side:
//!
//! * `DeltaAsOf_insert/N`, `DeltaAsOf_delete/N` — a complete manager's
//!   exact delta for a one-tuple insert / delete into `R`, between the
//!   two source states around it (`S` probed at a state no later commit
//!   touched, so through the sources' join index);
//! * `JoinCurrentWith/N` — Strobe's insert query: one new `S` tuple
//!   joined with `R` at the current state.
//!
//! The `reference/…` rows answer the same requests with the left-deep
//! join the evaluator replaced (shared with the relational crate's
//! equivalence tests), the way the sources answered them before: the
//! changed relation fetched at the old state for its schema, every other
//! occurrence hashed in full. Every answer is checked equal to the
//! reference's before it is timed.
//!
//! Run: `cargo bench -p mvc-bench --bench answer_query`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvc_relational::{
    tuple, Delta, Relation, RelationName, Schema, SpjCore, StateProvider, Tuple, ViewDef,
};
use mvc_source::{GlobalSeq, SourceCluster, SourceId, WriteOp};
use mvc_viewmgr::{answer_query, QueryAnswer, QueryRequest};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

const SIZES: [i64; 3] = [256, 4_096, 65_536];
/// Join partners of every tuple on the other side.
const FANOUT: i64 = 16;

mod reference {
    use mvc_relational::viewdef::conjuncts;
    use mvc_relational::{CmpOp, EvalError, Expr, Relation, SpjCore, Tuple, Value};
    use std::collections::HashMap;
    include!("../../relational/src/eval/reference.rs");
}

/// Sources holding `n` tuples per relation, indexed for `core`, after two
/// more commits: `R += [n, 0]` at `inserted`, then `R −= [0, 0]`.
struct Fixture {
    cluster: SourceCluster,
    core: Arc<SpjCore>,
    inserted: GlobalSeq,
}

fn fixture(n: i64) -> Fixture {
    let mut cluster = SourceCluster::new(64);
    cluster
        .create_relation(SourceId(0), "R", Schema::ints(&["a", "b"]))
        .expect("fresh relation");
    cluster
        .create_relation(SourceId(1), "S", Schema::ints(&["b", "c"]))
        .expect("fresh relation");
    let core = ViewDef::builder("V")
        .from("R")
        .from("S")
        .join_on("R.b", "S.b")
        .project(["R.a", "S.c"])
        .build(cluster.catalog())
        .expect("two-way join")
        .core;
    cluster.index_join_columns(&core);
    let load =
        |rel: &str, t: fn(i64) -> Tuple| (0..n).map(|i| WriteOp::insert(rel, t(i))).collect();
    cluster
        .execute(SourceId(0), load("R", |a| tuple![a, a / FANOUT]))
        .expect("load R");
    cluster
        .execute(SourceId(1), load("S", |c| tuple![c / FANOUT, c]))
        .expect("load S");
    let inserted = cluster
        .execute(SourceId(0), vec![WriteOp::insert("R", tuple![n, 0])])
        .expect("insert")
        .seq;
    cluster
        .execute(SourceId(0), vec![WriteOp::delete("R", tuple![0, 0])])
        .expect("delete");
    Fixture {
        cluster,
        core,
        inserted,
    }
}

impl Fixture {
    fn requests(&self, n: i64) -> [(&'static str, QueryRequest); 3] {
        let on_r = |t: Tuple, net: i64| {
            let mut d = Delta::new();
            d.add(t, net);
            BTreeMap::from([("R".into(), d)])
        };
        let before = |seq: GlobalSeq| GlobalSeq(seq.0 - 1);
        let deleted = GlobalSeq(self.inserted.0 + 1);
        let mut rows = Relation::shared(self.core.occurrence_schema(1).clone());
        rows.insert(tuple![0, n]).expect("fits S");
        [
            (
                "DeltaAsOf_insert",
                QueryRequest::DeltaAsOf {
                    core: self.core.clone(),
                    old: before(self.inserted),
                    new: self.inserted,
                    changes: on_r(tuple![n, 0], 1),
                },
            ),
            (
                "DeltaAsOf_delete",
                QueryRequest::DeltaAsOf {
                    core: self.core.clone(),
                    old: before(deleted),
                    new: deleted,
                    changes: on_r(tuple![0, 0], -1),
                },
            ),
            (
                "JoinCurrentWith",
                QueryRequest::JoinCurrentWith {
                    core: self.core.clone(),
                    occurrence: 1,
                    rows,
                },
            ),
        ]
    }

    /// The request answered as before the join indexes.
    fn reference_answer(&self, req: &QueryRequest) -> QueryAnswer {
        let c = &self.cluster;
        match req {
            QueryRequest::DeltaAsOf {
                core,
                old,
                new,
                changes,
            } => {
                let (old, new) = (c.as_of(*old), c.as_of(*new));
                let mut out = Delta::new();
                for (k, name) in core.sources.iter().enumerate() {
                    let Some(change) = changes.get(name) else {
                        continue;
                    };
                    let schema = fetch(&old, name).schema().clone();
                    for (sign, part) in [
                        (1, change.inserts_relation(&schema).expect("fits")),
                        (-1, change.deletes_relation(&schema).expect("fits")),
                    ] {
                        let rels: Vec<Cow<'_, Relation>> = (0..core.sources.len())
                            .map(|m| match m.cmp(&k) {
                                std::cmp::Ordering::Less => fetch(&new, &core.sources[m]),
                                std::cmp::Ordering::Equal => Cow::Borrowed(&part),
                                std::cmp::Ordering::Greater => fetch(&old, &core.sources[m]),
                            })
                            .collect();
                        let joined = reference::reference_join(core, &rels).expect("join");
                        let mut projected = Relation::shared(core.output_schema.clone());
                        for (t, m) in joined.iter_counted() {
                            let t =
                                mvc_relational::project_tuple(core, t.clone()).expect("projects");
                            projected.insert_n(t, m).expect("fits");
                        }
                        for (t, m) in projected.iter_counted() {
                            out.add(t.clone(), sign * m as i64);
                        }
                    }
                }
                QueryAnswer::Delta(out)
            }
            QueryRequest::JoinCurrentWith {
                core,
                occurrence,
                rows,
            } => {
                let now = c.as_of(c.latest_seq());
                let rels: Vec<Cow<'_, Relation>> = (0..core.sources.len())
                    .map(|m| match m == *occurrence {
                        true => Cow::Borrowed(rows),
                        false => fetch(&now, &core.sources[m]),
                    })
                    .collect();
                let joined = reference::reference_join(core, &rels).expect("join");
                QueryAnswer::Rows(joined, c.latest_seq())
            }
            _ => unreachable!("only delta and substituted-row queries are benched"),
        }
    }
}

fn fetch<'p>(p: &'p dyn StateProvider, name: &RelationName) -> Cow<'p, Relation> {
    p.fetch(name).expect("known relation")
}

fn bench_answer_query(c: &mut Criterion) {
    let mut g = c.benchmark_group("answer_query");
    for n in SIZES {
        let f = fixture(n);
        for (name, req) in f.requests(n) {
            let answer = answer_query(&f.cluster, &req).expect("valid query");
            assert_eq!(answer, f.reference_answer(&req), "{name}/{n}");
            g.bench_with_input(BenchmarkId::new(name, n), &req, |b, req| {
                b.iter(|| black_box(answer_query(&f.cluster, req)))
            });
            g.bench_with_input(
                BenchmarkId::new(format!("reference/{name}"), n),
                &req,
                |b, req| b.iter(|| black_box(f.reference_answer(req))),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_answer_query);
criterion_main!(benches);
