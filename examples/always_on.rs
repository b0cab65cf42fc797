//! Always-on serving: readers answer queries *while* a writer commits
//! update transactions, with no locks on the serve path and no torn
//! batches.
//!
//! The demo builds a pivot-space engine over the LA dataset, hands
//! cloneable `EngineReader`s to two serving threads, and lets the main
//! thread churn through `apply` batches. Every served batch reports the
//! snapshot `epoch` it ran against — the whole batch sees exactly one
//! published version, so results are byte-identical to serving against a
//! quiesced engine at that epoch. A `SubmitQueue` with an
//! `AdmissionPolicy` then puts admission control in front of serving:
//! producers get backpressure (`Rejected`) when the queue is full, and
//! batches that sat past the queue deadline are shed whole instead of
//! serving stale.
//!
//! See `docs/concurrency.md` for the model (snapshot lifecycle,
//! epoch-based reclamation, the writer-crash contract).
//!
//! Run with: `cargo run --release --example always_on`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pivot_metric_repro as pmr;
use pmr::builder::{BuildOptions, IndexKind};
use pmr::engine::{EngineConfig, Query};
use pmr::{
    build_sharded_vector_engine, datasets, AdmissionPolicy, PartitionPolicy, PumpOutcome,
    SubmitOutcome, SubmitQueue, UpdateBatch, L2,
};

fn main() {
    let n = 20_000;
    let pts = datasets::la(n, 42);
    let radius = datasets::calibrate_radius(&pts, &L2, 0.04, 42);
    let opts = BuildOptions {
        d_plus: 14143.0,
        maxnum: 256,
        ..BuildOptions::default()
    };
    let mut engine = build_sharded_vector_engine(
        IndexKind::Laesa,
        pts.clone(),
        L2,
        &opts,
        &EngineConfig {
            shards: 8,
            threads: 4,
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .expect("build");

    let batch: Vec<Query<Vec<f32>>> = (0..64)
        .map(|i| {
            if i % 2 == 0 {
                Query::range(pts[i * 7].clone(), radius)
            } else {
                Query::knn(pts[i * 11].clone(), 10)
            }
        })
        .collect();

    // ── Readers serve through churn ─────────────────────────────────────
    // `reader()` is Some for every kind: every index forks.
    let reader = engine.reader().expect("always Some");
    println!(
        "engine built: n={n}, epoch {} — spawning 2 readers",
        engine.epoch()
    );

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let reader = reader.clone();
                let batch = &batch;
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut batches = 0u64;
                    let mut last_epoch = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let out = reader.serve(batch);
                        last_epoch = out.report.epoch;
                        batches += 1;
                    }
                    (r, batches, last_epoch)
                })
            })
            .collect();

        // The writer: 40 commits of 50 removes + 50 re-inserts each.
        // Readers never block — each batch serves the snapshot current at
        // its start, and the next batch picks up the new epoch.
        for step in 0..40u64 {
            let mut churn = UpdateBatch::new();
            for i in 0..50u64 {
                churn.remove((step * 50 + i) as u32);
                churn.insert(pts[((step * 50 + i) as usize) % n].clone());
            }
            let report = engine.apply(&churn);
            assert!(!report.aborted);
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let (r, batches, epoch) = h.join().expect("reader");
            println!("  reader {r}: served {batches} batches, last saw epoch {epoch}");
        }
    });
    println!(
        "writer committed 40 transactions: epoch {}, retired snapshots pending reclaim: {}",
        engine.epoch(),
        engine.retired_snapshots()
    );

    // ── Admission control: the standing queue ───────────────────────────
    let queue = SubmitQueue::new(AdmissionPolicy {
        max_depth: 2,
        queue_wall_nanos: 0,
    });
    for attempt in 0..3 {
        match queue.submit(batch.clone()) {
            SubmitOutcome::Enqueued { ticket, depth } => {
                println!("  submit #{attempt}: enqueued as ticket {ticket} (depth {depth})");
            }
            SubmitOutcome::Rejected { depth } => {
                println!("  submit #{attempt}: REJECTED — backpressure at depth {depth}");
            }
        }
    }
    while let PumpOutcome::Served { ticket, outcome } = engine.pump(&queue) {
        println!(
            "  pumped ticket {ticket}: {} queries at epoch {}",
            outcome.results.len(),
            outcome.report.epoch
        );
    }
    let stats = queue.stats();
    println!(
        "queue stats: submitted {}, rejected {}, served {}, shed {}",
        stats.submitted, stats.rejected, stats.served, stats.shed
    );
}
