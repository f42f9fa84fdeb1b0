//! Commit apply (the `MpToWh` box of Figure 1): one single-tuple
//! warehouse transaction against views of growing size, alone and in a
//! group commit of 32. The per-commit state vector is read off the
//! relations' maintained fingerprints, so cost should be flat in view
//! size — a slope here means something on the commit path scans a view.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mvc_core::{ActionList, TxnSeq, UpdateId, ViewId};
use mvc_relational::{tuple, Delta, Relation, Schema};
use mvc_warehouse::{StoreTxn, Warehouse};
use std::hint::black_box;

const VIEWS: u32 = 3;
const SIZES: [i64; 3] = [64, 1_024, 16_384];

/// Three views of `rows` distinct tuples each; snapshots off, as in every
/// timed run.
fn warehouse(rows: i64) -> Warehouse {
    let mut w = Warehouse::new(false);
    for v in 1..=VIEWS {
        let mut rel = Relation::new(Schema::ints(&["a", "b"]));
        for i in 0..rows {
            rel.insert(tuple![i, i64::from(v)]).expect("fits schema");
        }
        w.register_view(ViewId(v), format!("V{v}").as_str(), rel)
            .expect("fresh id");
    }
    w
}

/// A transaction changing one tuple (`net` = +1 insert / -1 delete) of
/// view 1; the other two views are only fingerprinted.
fn single(seq: u64, key: i64, net: i64) -> StoreTxn {
    let mut d = Delta::new();
    d.add(tuple![-1 - key, 0], net);
    StoreTxn {
        seq: TxnSeq(seq),
        rows: vec![UpdateId(seq)],
        views: [ViewId(1)].into(),
        frontier: UpdateId(seq),
        actions: vec![ActionList::single(ViewId(1), UpdateId(seq), d)],
    }
}

fn bench_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("warehouse_apply");
    for rows in SIZES {
        // Insert and delete alternate, so the view stays at `rows`.
        let pair = [single(1, 0, 1), single(2, 0, -1)];
        g.bench_with_input(BenchmarkId::new("single", rows), &rows, |b, &rows| {
            let mut w = warehouse(rows);
            let mut turn = 0;
            b.iter(|| {
                let rec = w.apply(&pair[turn]).expect("valid txn");
                turn ^= 1;
                black_box(rec.commit_index)
            });
        });
        // 16 inserts then their 16 deletes: one group commit, net zero.
        let batch: Vec<StoreTxn> = (0..32u64)
            .map(|i| single(i + 1, (i % 16) as i64, if i < 16 { 1 } else { -1 }))
            .collect();
        g.bench_with_input(BenchmarkId::new("batch_32", rows), &rows, |b, &rows| {
            let mut w = warehouse(rows);
            b.iter(|| black_box(w.apply_batch(batch.iter()).expect("valid batch")));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_apply);
criterion_main!(benches);
