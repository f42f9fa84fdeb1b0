//! Oracle sensitivity tests: plant specific violations in otherwise
//! healthy runs and confirm the consistency oracle flags each one. A
//! verification harness is only as good as its ability to fail.

use mvc_repro::prelude::*;
use mvc_repro::whips::workload::{generate, install_relations, install_views};
use mvc_repro::whips::{SimBuilder, ViewSuite, WorkloadSpec};

fn healthy_report(seed: u64) -> mvc_repro::whips::SimReport {
    let spec = WorkloadSpec {
        seed,
        relations: 3,
        updates: 24,
        key_domain: 5,
        delete_percent: 25,
        multi_percent: 0,
    };
    let w = generate(&spec);
    let config = SimConfig {
        seed: seed ^ 99,
        ..SimConfig::default()
    };
    let b = SimBuilder::new(config);
    let b = install_relations(b, 3);
    let (b, _) = install_views(
        b,
        ViewSuite::OverlappingChain { count: 2 },
        ManagerKind::Complete,
    );
    b.workload(w.txns).run().expect("runs")
}

/// Baseline: untouched runs are green (sanity for the mutations below).
#[test]
fn healthy_runs_pass() {
    for seed in 0..4 {
        let report = healthy_report(seed);
        Oracle::new(&report).unwrap().assert_ok();
    }
}

/// Drop a commit from the history: the final state no longer matches and
/// some update is never reflected → violation.
#[test]
fn detects_lost_commit() {
    let mut report = healthy_report(1);
    // Remove the last commit record + its warehouse history entry.
    // (SimReport fields are public precisely to allow adversarial tests.)
    let dropped = report.commit_log.pop().expect("at least one commit");
    let hist_len = report.warehouse.history().len();
    // Rebuild the warehouse without the final transaction by truncating
    // both parallel logs. Warehouse history is private, so emulate the
    // loss by dropping the commit-log entry only and checking that the
    // oracle notices the mismatch between logs.
    let oracle = Oracle::new(&report).unwrap();
    let results = oracle.check_report();
    let _ = (dropped, hist_len);
    assert!(
        results.iter().any(|(_, _, v)| !v.is_satisfied()),
        "oracle missed a lost commit: {results:?}"
    );
}

/// Corrupt one committed fingerprint (simulates a torn/wrong view write):
/// the state-vector match must fail at that commit.
#[test]
fn detects_corrupted_view_content() {
    let mut report = healthy_report(2);
    // Flip a fingerprint in the middle of the history.
    let mid = report.warehouse.history().len() / 2;
    let rec = report.warehouse.history_mut().get_mut(mid).expect("mid");
    let v = *rec.fingerprints.keys().next().expect("some view");
    *rec.fingerprints.get_mut(&v).unwrap() ^= 0xdead_beef;
    let oracle = Oracle::new(&report).unwrap();
    let results = oracle.check_report();
    assert!(
        results.iter().any(|(_, _, v)| !v.is_satisfied()),
        "oracle missed corrupted content"
    );
}

/// Swap two commit-log entries covering conflicting updates: order
/// preservation must fail.
#[test]
fn detects_reordered_conflicting_commits() {
    // insert/delete of the same tuple are conflicting; a run over such a
    // workload produces per-update commits whose reversal is detectable.
    let config = SimConfig {
        seed: 5,
        ..SimConfig::default()
    };
    let mut b = SimBuilder::new(config).relation(SourceId(0), "Q", Schema::ints(&["q", "r"]));
    let def = ViewDef::builder("VQ").from("Q").build(b.catalog()).unwrap();
    b = b.view(ViewId(1), def, ManagerKind::Complete);
    for i in 0..3i64 {
        b = b
            .txn(SourceId(0), vec![WriteOp::insert("Q", tuple![i, i])])
            .txn(SourceId(0), vec![WriteOp::delete("Q", tuple![i, i])]);
    }
    let mut report = b.run().expect("runs");
    Oracle::new(&report).unwrap().assert_ok();

    // Swap two adjacent commit records AND their warehouse history rows —
    // an insert/delete pair applied in the wrong order.
    let i = 0;
    report.commit_log.swap(i, i + 1);
    report.warehouse.history_mut().swap(i, i + 1);
    let oracle = Oracle::new(&report).unwrap();
    let results = oracle.check_report();
    assert!(
        results.iter().any(|(_, _, v)| !v.is_satisfied()),
        "oracle missed reordered conflicting commits"
    );
}

/// A commit that *claims* to cover an update whose actions it never
/// applied: the witness cut advances but the stored view contents do
/// not, so state matching must fail. Checked at the *strong* level so
/// the violation cannot hide behind the completeness one-state-per-WT
/// counter.
#[test]
fn detects_phantom_coverage() {
    let mut report = healthy_report(3);
    // Move a later commit's coverage claim onto the first commit of the
    // same group (its actions stay where they were). The stolen commit
    // must have visibly changed some view, otherwise the early coverage
    // is an unobservable (and legal) commutation.
    let group = report.commit_log[0].group;
    let changed_at = (1..report.commit_log.len())
        .rev()
        .find(|&k| {
            let h = report.warehouse.history();
            report.commit_log[k].group == group && h[k].fingerprints != h[k - 1].fingerprints
        })
        .expect("a later commit that changed view content");
    let stolen = report.commit_log[changed_at].rows.clone();
    report.commit_log[0].rows.extend(stolen);
    let oracle = Oracle::new(&report).unwrap();
    let verdict = oracle.check_group(group, ConsistencyLevel::Strong);
    assert!(
        !verdict.is_satisfied(),
        "oracle missed phantom coverage (cut advanced, content did not)"
    );
}

/// Partitioned deployment: a commit by one group that changes another
/// group's view must be flagged (groups own disjoint view sets).
#[test]
fn detects_cross_group_interference() {
    let spec = WorkloadSpec {
        seed: 9,
        relations: 2,
        updates: 20,
        key_domain: 5,
        delete_percent: 25,
        multi_percent: 0,
    };
    let w = generate(&spec);
    let config = SimConfig {
        seed: 4,
        partition: true,
        ..SimConfig::default()
    };
    let b = SimBuilder::new(config);
    let b = install_relations(b, 2);
    let (b, _) = install_views(
        b,
        ViewSuite::DisjointCopies { count: 2 },
        ManagerKind::Complete,
    );
    let mut report = b.workload(w.txns).run().expect("runs");
    Oracle::new(&report).unwrap().assert_ok();

    // Find a commit by group A and flip the stored fingerprint of a view
    // owned by group B at that commit.
    let (k, other_view) = {
        let e = report
            .commit_log
            .iter()
            .enumerate()
            .find(|(_, e)| !report.group_views[e.group].is_empty())
            .map(|(k, e)| (k, e.group))
            .expect("a commit");
        let other_group = (e.1 + 1) % report.group_views.len();
        let v = *report.group_views[other_group]
            .iter()
            .next()
            .expect("other group has a view");
        (e.0, v)
    };
    let rec = report.warehouse.history_mut().get_mut(k).expect("rec");
    *rec.fingerprints.get_mut(&other_view).unwrap() ^= 0xfeed_f00d;
    let oracle = Oracle::new(&report).unwrap();
    let results = oracle.check_report();
    assert!(
        results.iter().any(|(_, _, v)| !v.is_satisfied()),
        "oracle missed cross-group interference"
    );
}

/// Claiming a stronger level than delivered: a batched run must fail the
/// *complete* check while passing *strong*.
#[test]
fn distinguishes_strong_from_complete() {
    let spec = WorkloadSpec {
        seed: 7,
        relations: 3,
        updates: 30,
        key_domain: 5,
        delete_percent: 25,
        multi_percent: 0,
    };
    let w = generate(&spec);
    let config = SimConfig {
        seed: 3,
        commit_policy: CommitPolicy::Batched { max_batch: 4 },
        inject_weight: 6,
        max_open_updates: Some(16),
        ..SimConfig::default()
    };
    let b = SimBuilder::new(config);
    let b = install_relations(b, 3);
    let (b, _) = install_views(
        b,
        ViewSuite::OverlappingChain { count: 2 },
        ManagerKind::Complete,
    );
    let report = b.workload(w.txns).run().expect("runs");
    let oracle = Oracle::new(&report).unwrap();
    let strong = oracle.check_group(0, ConsistencyLevel::Strong);
    assert!(
        strong.is_satisfied(),
        "batched run should be strong: {strong}"
    );
    let complete = oracle.check_group(0, ConsistencyLevel::Complete);
    assert!(
        !complete.is_satisfied(),
        "batched run must NOT be complete (BWTs skip states)"
    );
}

/// The state vector is a 64-bit multiset hash the relations maintain
/// incrementally, which must not have blunted the arbiter: the smallest
/// possible divergence — one copy of one tuple, in one view, at one
/// commit — is flagged on the write side and on the read side, whether
/// it sits in the committed record or in what a reader was handed.
#[test]
fn detects_single_multiplicity_divergence() {
    let spec = WorkloadSpec {
        seed: 6,
        relations: 3,
        updates: 24,
        key_domain: 5,
        delete_percent: 25,
        multi_percent: 0,
    };
    let config = SimConfig {
        seed: 6 ^ 99,
        readers: 2,
        ..SimConfig::default()
    };
    let b = install_relations(SimBuilder::new(config), 3);
    let (b, _) = install_views(
        b,
        ViewSuite::OverlappingChain { count: 2 },
        ManagerKind::Complete,
    );
    let mut report = b.workload(generate(&spec).txns).run().expect("runs");
    Oracle::new(&report).unwrap().assert_ok();

    // A read that saw a non-empty view: the record it certifies against,
    // and a copy of the view with one tuple's multiplicity one too high.
    let (at, view, off_by_one) = report
        .read_observations
        .iter()
        .enumerate()
        .find_map(|(i, obs)| {
            let (&v, rel) = obs.cut.views.iter().find(|(_, r)| !r.is_empty())?;
            let mut bumped = rel.as_ref().clone();
            let t = bumped.distinct().next().expect("non-empty").clone();
            bumped.insert(t).unwrap();
            (obs.cut.watermark > 0).then_some((i, v, bumped))
        })
        .expect("some read observed a non-empty committed view");
    let watermark = report.read_observations[at].cut.watermark;
    let committed = report.read_observations[at].cut.views[&view].fingerprint();
    assert_ne!(off_by_one.fingerprint(), committed);

    // (i) The committed record claims the neighbouring state.
    let k = report
        .warehouse
        .history()
        .iter()
        .position(|r| r.commit_index == watermark)
        .expect("record at the read's watermark");
    let was = report.warehouse.history_mut()[k]
        .fingerprints
        .insert(view, off_by_one.fingerprint());
    assert_eq!(was, Some(committed));
    let oracle = Oracle::new(&report).unwrap();
    assert!(
        oracle
            .check_report()
            .iter()
            .any(|(_, _, v)| !v.is_satisfied()),
        "write side missed a one-copy divergence in the state vector"
    );
    assert!(
        oracle.check_reads().is_err(),
        "read side missed a record that no longer matches what was read"
    );

    // (ii) The record is right again; the reader's snapshot is one copy off.
    report.warehouse.history_mut()[k]
        .fingerprints
        .insert(view, committed);
    report.read_observations[at]
        .cut
        .views
        .insert(view, std::sync::Arc::new(off_by_one));
    let oracle = Oracle::new(&report).unwrap();
    assert!(oracle
        .check_report()
        .iter()
        .all(|(_, _, v)| v.is_satisfied()));
    let violation = oracle.check_reads().expect_err("torn snapshot certified");
    assert_eq!(violation.watermark, watermark);
}
