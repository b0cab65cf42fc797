//! A commit costs what it changes, not what exists: `apply` forks shards by
//! sharing their chunks, so the bytes one commit allocates must not grow
//! with the dataset, and the snapshot it replaces must go on answering
//! exactly as before.

use pivot_metric_repro as pmr;
use pmr::engine::TopK;
use pmr::{
    build_sharded_engine, datasets, BuildOptions, EngineConfig, IndexKind, Neighbor, ObjId,
    PartitionPolicy, QueryScratch, ShardedEngine, UpdateBatch, L2,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts every byte requested from and returned to the system allocator,
/// and the most ever live at once.
struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Heap bytes allocated and not yet freed.
fn live_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed) - FREED.load(Ordering::Relaxed)
}

/// Counts `grown` more bytes allocated and raises the peak to what is live.
fn grow(grown: u64) {
    let allocated = ALLOCATED.fetch_add(grown, Ordering::Relaxed) + grown;
    PEAK.fetch_max(allocated - FREED.load(Ordering::Relaxed), Ordering::Relaxed);
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as u64);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        let shrunk = layout.size().saturating_sub(new_size);
        grow(grown as u64);
        FREED.fetch_add(shrunk as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The tests of this file share one allocation counter.
static SERIAL: Mutex<()> = Mutex::new(());

/// One benchmark-shaped commit: this many inserts and as many FIFO removes.
const OPS: usize = 128;

fn engine(kind: IndexKind, pts: &[Vec<f32>]) -> ShardedEngine<Vec<f32>> {
    let opts = BuildOptions {
        d_plus: 14143.0,
        ..BuildOptions::default()
    };
    // Any five objects make valid pivots; selection quality is not at stake.
    let pivots = (0..5).map(|i| pts[i * pts.len() / 5].clone()).collect();
    let cfg = EngineConfig {
        shards: 8,
        threads: 1,
        ..EngineConfig::default()
    };
    build_sharded_engine(
        kind,
        pts.to_vec(),
        L2,
        pivots,
        &opts,
        &cfg,
        PartitionPolicy::PivotSpace,
    )
    .expect("builds over L2")
}

fn commit(fresh: &[Vec<f32>], first_remove: ObjId) -> UpdateBatch<Vec<f32>> {
    let mut batch = UpdateBatch::new();
    for (i, o) in fresh.iter().enumerate() {
        batch.insert(o.clone());
        batch.remove(first_remove + i as ObjId);
    }
    batch
}

/// Bytes one commit allocates on an engine over `n` objects, first with no
/// reader handle and then with one holding on to the engine. Two commits
/// warm the write path before either is measured.
fn commit_bytes(kind: IndexKind, n: usize) -> [u64; 2] {
    let pts = datasets::la(n + 4 * OPS, 42);
    let (indexed, fresh) = pts.split_at(n);
    let mut engine = engine(kind, indexed);
    let mut reader = None;
    let mut bytes = [0; 4];
    for (c, fresh) in fresh.chunks(OPS).enumerate() {
        if c == 3 {
            reader = Some(engine.reader().expect("every kind hands out readers"));
        }
        let batch = commit(fresh, (c * OPS) as ObjId);
        let before = ALLOCATED.load(Ordering::Relaxed);
        let report = engine.apply(&batch);
        bytes[c] = ALLOCATED.load(Ordering::Relaxed) - before;
        assert_eq!((report.inserts, report.removes), (OPS, OPS));
    }
    assert_eq!(engine.len(), n);
    drop(reader);
    [bytes[2], bytes[3]]
}

#[test]
fn commit_allocation_does_not_grow_with_the_dataset() {
    let _serial = SERIAL.lock().unwrap();
    // A table (chunk-shared columns: a commit un-shares at most one 8 KiB
    // chunk per pivot column per touched shard) and a tree (path-copied
    // nodes, the same columns beside them).
    for kind in [IndexKind::Laesa, IndexKind::Mvpt] {
        let label = kind.label();
        let small = commit_bytes(kind, 20_000);
        let large = commit_bytes(kind, 200_000);
        for (pinned, (small, large)) in small.into_iter().zip(large).enumerate() {
            assert!(
                large <= 2 * small,
                "{label} reader={pinned}: a commit at n=200k allocates {large} B, at n=20k {small} B"
            );
            // Ten times the dataset may add spine entries and a tree level,
            // never copies: the per-object state alone is > 14 MB at n = 200k.
            assert!(
                large <= 1 << 20,
                "{label} reader={pinned}: a commit allocates {large} B"
            );
        }
    }
}

/// An engine holds its objects in flat arenas: building an LA engine over a
/// moved corpus of 10⁵ 2-d objects (LAESA, P = 8) leaves < 40 B an object
/// live on the heap — 8 B of coordinates, 10 B of pivot codes, 4 B of
/// global id, 8 B of locator, and ≈ 2 B of the last chunks of the shards'
/// 64 chunked vectors (32.3 B in all). Kept as one `Vec<f32>`
/// each, as they were before the arena, the objects take 56 B (a 24 B
/// header and a 32 B heap block), 59.0 B an object in all.
#[test]
fn an_engine_holds_its_objects_flat() {
    let _serial = SERIAL.lock().unwrap();
    let n = 100_000;
    let pts = datasets::la(n, 42);
    let before = live_bytes();
    let engine = engine(IndexKind::Laesa, &pts);
    let per_object = (live_bytes() - before) as f64 / n as f64;
    assert_eq!(engine.len(), n);
    assert!(
        per_object < 40.0,
        "the engine keeps {per_object:.1} B live an object"
    );
}

/// A build never holds the f64 pivot matrix (8 B a distance): it codes
/// the rows a block at a time, so an LA 10⁵ build over 16 pivots (LAESA,
/// P = 8, two workers) peaks below `8 · l` B an object of live heap above
/// its input (≈ 57 B: the codes, 2 B a distance, beside their copy in the
/// shards' columns, the objects and the ids). A build that holds the
/// matrix while it codes it peaks at ≈ 136 B: the matrix and its codes
/// (160 B) and the packed objects (8 B), less the 32 B an object of input
/// the pack has freed by then.
#[test]
fn a_build_holds_no_f64_matrix() {
    let _serial = SERIAL.lock().unwrap();
    let (n, l) = (100_000, 16);
    let pts = datasets::la(n, 42);
    let pivots = (0..l).map(|i| pts[i * n / l].clone()).collect();
    let cfg = EngineConfig {
        shards: 8,
        threads: 2,
        ..EngineConfig::default()
    };
    let opts = BuildOptions {
        d_plus: 14143.0,
        ..BuildOptions::default()
    };
    let before = live_bytes();
    PEAK.store(before, Ordering::Relaxed);
    let engine = build_sharded_engine(
        IndexKind::Laesa,
        pts,
        L2,
        pivots,
        &opts,
        &cfg,
        PartitionPolicy::PivotSpace,
    )
    .expect("builds over L2");
    let peak = (PEAK.load(Ordering::Relaxed) - before) as f64 / n as f64;
    assert_eq!(engine.len(), n);
    assert!(
        peak < (8 * l) as f64,
        "the build peaks at {peak:.1} B live an object above its input"
    );
}

/// What a shard set answers for a fixed handful of queries.
fn answers(
    shards: &[std::sync::Arc<pmr::engine::Shard<Vec<f32>>>],
    queries: &[Vec<f32>],
) -> Vec<(Vec<ObjId>, Vec<Neighbor>)> {
    queries
        .iter()
        .map(|q| {
            let (mut qs, mut ids, mut tmp) = (QueryScratch::new(), Vec::new(), Vec::new());
            let mut topk = TopK::new(10);
            for s in shards {
                s.range_global_into(q, 900.0, &mut qs, &mut ids);
                s.knn_into_with(q, 10, topk.threshold(), &mut qs, &mut tmp, &mut topk);
            }
            ids.sort_unstable();
            (ids, topk.drain_sorted())
        })
        .collect()
}

#[test]
fn a_forked_commit_leaves_the_parent_snapshot_byte_identical() {
    let _serial = SERIAL.lock().unwrap();
    let n = 4_000;
    let pts = datasets::la(n + 4 * OPS, 7);
    let (indexed, fresh) = pts.split_at(n);
    let queries: Vec<Vec<f32>> = indexed.iter().step_by(397).cloned().collect();
    let mut engine = engine(IndexKind::Laesa, indexed);
    // The parent generation: the very shards the next commits fork.
    let parent = engine.shards().to_vec();
    let before = answers(&parent, &queries);
    for (c, fresh) in fresh.chunks(OPS).enumerate() {
        engine.apply(&commit(fresh, (c * OPS) as ObjId));
    }
    assert_eq!(
        answers(&parent, &queries),
        before,
        "the forks' writes reached the parent"
    );
    assert_ne!(
        answers(engine.shards(), &queries),
        before,
        "the commits changed what the engine answers"
    );
}
