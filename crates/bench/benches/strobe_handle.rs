//! Strobe `handle` (the view-manager box of Figure 1 on `pa_queryback`)
//! against join-level mirrors and unanswered query sets of growing size.
//! Every event should cost what its batch costs — a slope in either size
//! means something on the path scans the mirror or the UQS again.
//!
//! * `delete_emit/N` — a delete-only update on a mirror of `N` join
//!   tuples: segment lookup, one-tuple emit;
//! * `insert_answer_emit/N` — an insert update and its answer (two
//!   events; the second emits one new join tuple);
//! * `update_with_uqs/Q` — a delete arriving while `Q` queries are
//!   outstanding: one compensation to register, nothing to emit.
//!
//! The `parent/…` rows run the previous algorithm's share of the same
//! events on the same data (clone-and-scan delete, rebuild-and-diff emit,
//! one compensation copy per outstanding query), so one run shows both
//! slopes. `Bencher::iter` has no untimed set-up, so every iteration
//! consumes a fresh tuple and a mirror drifts by at most 201 tuples while
//! it is measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvc_core::{UpdateId, ViewId};
use mvc_relational::{tuple, Catalog, Database, Delta, Relation, Schema, Tuple, ViewDef};
use mvc_source::{GlobalSeq, RelationChange, SourceId, SourceUpdate};
use mvc_viewmgr::{NumberedUpdate, QueryAnswer, StrobeVm, ViewManager, VmEvent, VmOutput};
use std::hint::black_box;

const MIRROR_SIZES: [i64; 3] = [256, 4_096, 65_536];
const UQS_SIZES: [i64; 3] = [16, 256, 4_096];
/// Join partners per `R` tuple: `R(a, a) ⋈ S(a, c)`, `c < FANOUT`.
const FANOUT: i64 = 16;

fn view() -> ViewDef {
    let cat = Catalog::new()
        .with("R", Schema::ints(&["a", "b"]))
        .with("S", Schema::ints(&["b", "c"]));
    ViewDef::builder("V")
        .from("R")
        .from("S")
        .join_on("R.b", "S.b")
        .build(&cat)
        .expect("two-way join over the catalog")
}

/// `R` and `S` whose join holds `join_tuples` tuples.
fn sources(join_tuples: i64) -> Database {
    let mut r = Relation::new(Schema::ints(&["a", "b"]));
    let mut s = Relation::new(Schema::ints(&["b", "c"]));
    for a in 0..join_tuples / FANOUT {
        r.insert(tuple![a, a]).expect("fits schema");
        for c in 0..FANOUT {
            s.insert(tuple![a, c]).expect("fits schema");
        }
    }
    let mut db = Database::new();
    db.insert_relation("R", r);
    db.insert_relation("S", s);
    db
}

fn manager(join_tuples: i64) -> StrobeVm {
    let mut vm = StrobeVm::new(ViewId(1), view()).expect("SPJ view, no self-join");
    vm.initialize(&sources(join_tuples)).expect("set sources");
    vm
}

/// Update number `seq`: one tuple inserted into (`net` = 1) or deleted
/// from (`net` = −1) `relation`.
fn update(seq: u64, relation: &str, t: Tuple, net: i64) -> VmEvent {
    let mut delta = Delta::new();
    delta.add(t, net);
    VmEvent::Update(NumberedUpdate::from_owned(
        UpdateId(seq),
        SourceUpdate {
            seq: GlobalSeq(seq),
            source: SourceId(0),
            changes: vec![RelationChange {
                relation: relation.into(),
                delta,
            }],
        },
    ))
}

/// The `i`-th `S` tuple of the load state.
fn loaded_s(i: u64) -> Tuple {
    let i = i as i64;
    tuple![i / FANOUT, i % FANOUT]
}

/// The parent commit's share of each event, on plain relations.
mod parent {
    use super::*;

    pub fn mirror(join_tuples: i64) -> Relation {
        let db = sources(join_tuples);
        let r = db.relation(&"R".into()).expect("loaded");
        let join = mvc_relational::eval_join(&view().core, 0, r.iter_counted(), |_| {
            mvc_relational::JoinInput::State(&db)
        });
        join.expect("join")
    }

    /// Cancel every join tuple of mirror ⊕ pending whose segment at `lo`
    /// is `t`: clone, apply, scan.
    pub fn delete_segment(mirror: &Relation, pending: &mut Delta, lo: usize, t: &Tuple) {
        let mut effective = mirror.clone();
        pending.apply_to(&mut effective).expect("pending applies");
        for (jt, n) in effective.iter_counted() {
            if jt.values()[lo..lo + t.arity()] == *t.values() {
                pending.add(jt.clone(), -(n as i64));
            }
        }
    }

    /// Rebuild the clamped mirror tuple by tuple and diff it against the
    /// old one.
    pub fn emit(mirror: &mut Relation, pending: &mut Delta) -> Delta {
        let mut target = mirror.clone();
        pending.apply_to(&mut target).expect("pending applies");
        let mut clamped = Relation::new(target.schema().clone());
        for (t, _) in target.iter_counted() {
            clamped.insert(t.clone()).expect("fits schema");
        }
        let join_delta = mvc_relational::diff(mirror, &clamped);
        *mirror = clamped;
        *pending = Delta::new();
        join_delta
    }
}

fn bench_mirror_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("strobe_handle");
    for n in MIRROR_SIZES {
        g.bench_with_input(BenchmarkId::new("delete_emit", n), &n, |b, &n| {
            let mut vm = manager(n);
            let mut seq = 0;
            b.iter(|| {
                seq += 1;
                let outs = vm.handle(update(seq, "S", loaded_s(seq), -1));
                black_box(outs.expect("valid event"))
            });
        });
        g.bench_with_input(BenchmarkId::new("insert_answer_emit", n), &n, |b, &n| {
            let mut vm = manager(n);
            let join_schema = view().core.join_schema.clone();
            let mut seq = 0;
            b.iter(|| {
                seq += 1;
                let c = FANOUT + seq as i64;
                let outs = vm.handle(update(seq, "S", tuple![0, c], 1));
                let Some(VmOutput::Query { token, .. }) = outs.expect("valid event").pop() else {
                    panic!("an insert queries the sources");
                };
                let mut rows = Relation::shared(join_schema.clone());
                rows.insert(tuple![0, 0, 0, c]).expect("fits schema");
                let answer = QueryAnswer::Rows(rows, GlobalSeq(seq));
                black_box(vm.handle(VmEvent::Answer { token, answer }))
            });
        });
        g.bench_with_input(BenchmarkId::new("parent/delete_emit", n), &n, |b, &n| {
            let (mut mirror, mut pending) = (parent::mirror(n), Delta::new());
            let mut seq = 0;
            b.iter(|| {
                seq += 1;
                parent::delete_segment(&mirror, &mut pending, 2, &loaded_s(seq));
                black_box(parent::emit(&mut mirror, &mut pending))
            });
        });
        g.bench_with_input(BenchmarkId::new("parent/answer_emit", n), &n, |b, &n| {
            let (mut mirror, mut pending) = (parent::mirror(n), Delta::new());
            let mut seq = 0;
            b.iter(|| {
                seq += 1;
                pending.add(tuple![0, 0, 0, FANOUT + seq], 1);
                black_box(parent::emit(&mut mirror, &mut pending))
            });
        });
    }
    g.finish();
}

fn bench_uqs_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("strobe_handle");
    for q in UQS_SIZES {
        g.bench_with_input(BenchmarkId::new("update_with_uqs", q), &q, |b, &q| {
            let mut vm = manager(0);
            for i in 0..q {
                vm.handle(update(i as u64 + 1, "R", tuple![i, i], 1))
                    .expect("valid event");
            }
            let mut seq = q as u64;
            b.iter(|| {
                seq += 1;
                let gone = tuple![-(seq as i64), 0];
                black_box(vm.handle(update(seq, "S", gone, -1)))
            });
        });
        g.bench_with_input(
            BenchmarkId::new("parent/update_with_uqs", q),
            &q,
            |b, &q| {
                // (occurrence, tuple, seq, is_delete), one list per query
                let mut uqs: Vec<Vec<(usize, Tuple, u64, bool)>> = vec![Vec::new(); q as usize];
                let mut seq = q as u64;
                b.iter(|| {
                    seq += 1;
                    let gone = tuple![-(seq as i64), 0];
                    for compensations in &mut uqs {
                        compensations.push((1, gone.clone(), seq, true));
                    }
                    black_box(uqs.len())
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_mirror_size, bench_uqs_size);
criterion_main!(benches);
