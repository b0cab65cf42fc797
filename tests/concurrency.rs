//! Concurrency suite: the MVCC snapshot-publication contract under real
//! reader/writer churn.
//!
//! The headline invariant (`docs/concurrency.md`): while a writer thread
//! commits `apply` transactions, every batch a concurrent
//! [`EngineReader`] serves is byte-identical to serving the same batch on
//! a *quiesced* engine at the snapshot epoch the batch reports — readers
//! never observe a half-applied update, torn routing state, or a
//! half-moved re-cluster.

use pivot_metric_repro as pmr;
use pmr::builder::{BuildOptions, IndexKind};
use pmr::engine::{EngineConfig, Query, QueryResult, ShardedEngine};
use pmr::{
    build_sharded_vector_engine, AdmissionPolicy, PartitionPolicy, PumpOutcome, RefreshPolicy,
    SubmitOutcome, SubmitQueue, UpdateBatch, L2,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

fn opts() -> BuildOptions {
    BuildOptions {
        d_plus: 14143.0,
        maxnum: 64,
        ..BuildOptions::default()
    }
}

fn build(
    kind: IndexKind,
    shards: usize,
    threads: usize,
    pts: &[Vec<f32>],
) -> ShardedEngine<Vec<f32>> {
    build_sharded_vector_engine(
        kind,
        pts.to_vec(),
        L2,
        &opts(),
        &EngineConfig {
            shards,
            threads,
            refresh: RefreshPolicy::disabled(),
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .unwrap()
}

/// A deterministic 2-d point (the LA dataset's dimensionality), keyed by
/// step so every insert is distinct.
fn fresh_point(step: usize) -> Vec<f32> {
    (0..2)
        .map(|d| ((step * 31 + d * 7) % 9733) as f32)
        .collect()
}

/// Sets the shared stop flag when dropped, so reader/pumper threads
/// spinning on it terminate even when the writer loop panics mid-test —
/// without this, a writer assertion failure would hang the enclosing
/// `thread::scope` join forever instead of failing the test.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A fixed mixed query batch over the dataset.
fn query_batch(pts: &[Vec<f32>]) -> Vec<Query<Vec<f32>>> {
    (0..24)
        .map(|i| {
            let q = pts[(i * 13) % pts.len()].clone();
            if i % 2 == 0 {
                Query::range(q, 25.0)
            } else {
                Query::knn(q, 5)
            }
        })
        .collect()
}

/// The acceptance-criteria test: two reader threads hammer a fixed query
/// batch while the writer commits 40 apply transactions (remove + insert
/// each). Every reader observation must be byte-identical to the writer's
/// own quiesced serve at the same snapshot epoch — for a table kind, a
/// disk-backed table, a tree and a disk index alike.
#[test]
fn concurrent_reads_match_quiesced_prefix() {
    for kind in [
        IndexKind::Laesa,
        IndexKind::Cpt,
        IndexKind::Mvpt,
        IndexKind::OmniR,
    ] {
        concurrent_reads_match_quiesced_prefix_on(kind);
    }
}

fn concurrent_reads_match_quiesced_prefix_on(kind: IndexKind) {
    let pts: Vec<Vec<f32>> = pmr::datasets::la(600, 21);
    let mut engine = build(kind, 8, 2, &pts);
    let reader = engine.reader().expect("every kind hands out readers");
    let queries = query_batch(&pts);

    // Quiesced baseline per epoch, recorded by the writer immediately
    // after each publish (serving is read-only, so this races nothing).
    let expected: Mutex<HashMap<u64, Vec<QueryResult>>> = Mutex::new(HashMap::new());
    expected
        .lock()
        .unwrap()
        .insert(engine.epoch(), engine.serve(&queries).results);

    let stop = AtomicBool::new(false);
    const STEPS: usize = 40;
    let observations: Vec<(u64, Vec<QueryResult>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let r = reader.clone();
                let stop = &stop;
                let queries = &queries;
                s.spawn(move || {
                    let mut seen = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let out = r.serve(queries);
                        seen.push((out.report.epoch, out.results));
                    }
                    seen
                })
            })
            .collect();

        let _stop_guard = StopOnDrop(&stop);
        for step in 0..STEPS {
            let mut batch = UpdateBatch::new();
            batch.remove(step as u32).insert(fresh_point(step));
            let report = engine.apply(&batch);
            assert!(!report.aborted);
            assert_eq!(report.removes, 1);
            let out = engine.serve(&queries);
            assert_eq!(out.report.epoch, engine.epoch());
            expected
                .lock()
                .unwrap()
                .insert(out.report.epoch, out.results);
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });

    let label = kind.label();
    assert_eq!(engine.epoch(), STEPS as u64);
    let expected = expected.into_inner().unwrap();
    assert!(
        !observations.is_empty(),
        "{label}: readers served at least one batch"
    );
    for (epoch, results) in &observations {
        let want = expected
            .get(epoch)
            .unwrap_or_else(|| panic!("{label}: reader saw unpublished epoch {epoch}"));
        assert_eq!(
            results, want,
            "{label} epoch {epoch}: concurrent batch differs from the quiesced serve"
        );
    }
    // Readers moved forward with the writer: the final epoch was observed
    // by nobody mid-churn necessarily, but the *first* observation of each
    // reader is at or after the baseline epoch and they are monotone
    // per-thread by construction of the snapshot slot.
    let max_seen = observations.iter().map(|(e, _)| *e).max().unwrap();
    assert!(max_seen <= STEPS as u64);
}

/// Retired snapshots are reclaimed by the epoch sweep at each publish:
/// with no reader batches in flight, nothing pins old snapshots and the
/// retired list drains to zero.
#[test]
fn quiesced_applies_reclaim_every_snapshot() {
    let pts: Vec<Vec<f32>> = pmr::datasets::la(300, 21);
    let mut engine = build(IndexKind::Laesa, 4, 1, &pts);
    let _reader = engine.reader().unwrap(); // idle handle pins nothing
    for step in 0..10 {
        let mut batch = UpdateBatch::new();
        batch.remove(step as u32).insert(fresh_point(step));
        engine.apply(&batch);
        assert!(
            engine.retired_snapshots() <= 1,
            "epoch sweep keeps the retired list bounded with idle readers"
        );
    }
    // One more publish sweeps the last retiree.
    engine.apply(&UpdateBatch::new());
    assert_eq!(engine.retired_snapshots(), 0);
    assert_eq!(engine.epoch(), 11);
}

/// The standing submit queue: bounded depth rejects at admission
/// (backpressure), FIFO pumps serve against the current snapshot, and a
/// batch that overstays its queue-wall deadline is shed whole with its
/// queries returned.
#[test]
fn submit_queue_admission_control() {
    let pts: Vec<Vec<f32>> = pmr::datasets::la(300, 21);
    let mut engine = build(IndexKind::Laesa, 4, 1, &pts);
    let queries = query_batch(&pts);

    let queue: SubmitQueue<Vec<f32>> = SubmitQueue::new(AdmissionPolicy {
        max_depth: 2,
        queue_wall_nanos: 0,
    });
    let t0 = match queue.submit(queries.clone()) {
        SubmitOutcome::Enqueued { ticket, depth } => {
            assert_eq!(depth, 1);
            ticket
        }
        SubmitOutcome::Rejected { .. } => panic!("empty queue rejected"),
    };
    assert!(matches!(
        queue.submit(queries.clone()),
        SubmitOutcome::Enqueued { .. }
    ));
    assert!(matches!(
        queue.submit(queries.clone()),
        SubmitOutcome::Rejected { depth: 2 }
    ));

    // Mutations between submission and pump are fine: the queue holds no
    // snapshot, each pump serves whatever is current.
    let mut batch = UpdateBatch::new();
    batch.remove(0).insert(fresh_point(0));
    engine.apply(&batch);

    match engine.pump(&queue) {
        PumpOutcome::Served { ticket, outcome } => {
            assert_eq!(ticket, t0);
            assert_eq!(outcome.results.len(), queries.len());
            assert_eq!(outcome.report.epoch, engine.epoch());
            // The pumped batch matches a direct serve (same snapshot).
            assert_eq!(outcome.results, engine.serve(&queries).results);
        }
        _ => panic!("expected the first submission served"),
    }
    // Freed slot admits again; readers can pump too.
    assert!(matches!(
        queue.submit(queries.clone()),
        SubmitOutcome::Enqueued { .. }
    ));
    let reader = engine.reader().unwrap();
    assert!(matches!(reader.pump(&queue), PumpOutcome::Served { .. }));
    assert!(matches!(reader.pump(&queue), PumpOutcome::Served { .. }));
    assert!(matches!(reader.pump(&queue), PumpOutcome::Idle));
    let stats = queue.stats();
    assert_eq!((stats.submitted, stats.served, stats.rejected), (3, 3, 1));

    // Deadline shedding: a 1ns queue wall sheds everything ever queued.
    let stale: SubmitQueue<Vec<f32>> = SubmitQueue::new(AdmissionPolicy {
        max_depth: 0,
        queue_wall_nanos: 1,
    });
    stale.submit(queries.clone());
    std::thread::sleep(std::time::Duration::from_millis(2));
    match engine.pump(&stale) {
        PumpOutcome::Shed { queries: back, .. } => assert_eq!(back.len(), queries.len()),
        _ => panic!("expected the stale batch shed unserved"),
    }
    assert_eq!(stale.stats().shed, 1);
}

/// Submitters and pumpers racing a writer: every pumped batch still
/// matches the quiesced serve at its reported epoch, and accounting
/// (submitted = served + shed + still-queued) stays exact.
#[test]
fn queue_pumps_stay_consistent_under_churn() {
    let pts: Vec<Vec<f32>> = pmr::datasets::la(400, 21);
    let mut engine = build(IndexKind::Laesa, 4, 2, &pts);
    let reader = engine.reader().unwrap();
    let queries = query_batch(&pts);
    let queue: SubmitQueue<Vec<f32>> = SubmitQueue::new(AdmissionPolicy {
        max_depth: 8,
        queue_wall_nanos: 0,
    });

    let expected: Mutex<HashMap<u64, Vec<QueryResult>>> = Mutex::new(HashMap::new());
    expected
        .lock()
        .unwrap()
        .insert(engine.epoch(), engine.serve(&queries).results);
    let stop = AtomicBool::new(false);

    let pumped: Vec<(u64, Vec<QueryResult>)> = std::thread::scope(|s| {
        let pumper = {
            let r = reader.clone();
            let stop = &stop;
            let queue = &queue;
            s.spawn(move || {
                let mut seen = Vec::new();
                loop {
                    match r.pump(queue) {
                        PumpOutcome::Served { outcome, .. } => {
                            seen.push((outcome.report.epoch, outcome.results));
                        }
                        PumpOutcome::Shed { .. } => {}
                        PumpOutcome::Idle => {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                seen
            })
        };
        let submitter = {
            let stop = &stop;
            let queue = &queue;
            let queries = &queries;
            s.spawn(move || {
                let mut submitted = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    if matches!(
                        queue.submit(queries.clone()),
                        SubmitOutcome::Enqueued { .. }
                    ) {
                        submitted += 1;
                    }
                    std::thread::yield_now();
                }
                submitted
            })
        };

        let _stop_guard = StopOnDrop(&stop);
        for step in 0..25 {
            let mut batch = UpdateBatch::new();
            batch.remove(step as u32).insert(fresh_point(step));
            engine.apply(&batch);
            let out = engine.serve(&queries);
            expected
                .lock()
                .unwrap()
                .insert(out.report.epoch, out.results);
        }
        stop.store(true, Ordering::Relaxed);
        submitter.join().expect("submitter panicked");
        pumper.join().expect("pumper panicked")
    });

    let expected = expected.into_inner().unwrap();
    for (epoch, results) in &pumped {
        assert_eq!(
            results,
            expected
                .get(epoch)
                .unwrap_or_else(|| panic!("pumped batch saw unpublished epoch {epoch}")),
            "pumped batch at epoch {epoch} matches the quiesced serve"
        );
    }
    let stats = queue.stats();
    assert_eq!(
        stats.submitted,
        stats.served + stats.shed + stats.depth as u64,
        "queue accounting is exact"
    );
}
