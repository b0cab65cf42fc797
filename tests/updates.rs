//! Update consistency across all indexes and through the sharded engine's
//! unified mutation path: delete + reinsert batches must leave query
//! answers identical to a rebuilt brute-force oracle, the paper's Table 6
//! cost relations must hold, and — the engine-level contract — after any
//! sequence of `apply` batches, routed serving must return byte-identical
//! results (and exact compdist/probe parity) to an engine rebuilt from
//! scratch over the surviving objects.

use pivot_metric_repro as pmr;
use pmr::builder::{build_index, build_index_with_matrix, BuildOptions, IndexKind};
use pmr::engine::{EngineConfig, Layout, Query, QueryResult, ShardedEngine};
use pmr::{
    build_sharded_engine, datasets, BruteForce, Metric, MetricIndex, Neighbor, ObjId,
    PartitionPolicy, RefreshPolicy, UpdateBatch, L2,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn build(kind: IndexKind, pts: &[Vec<f32>]) -> Box<dyn MetricIndex<Vec<f32>>> {
    let opts = BuildOptions {
        d_plus: 14143.0,
        maxnum: 48,
        ..BuildOptions::default()
    };
    let pivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(pts, &L2, 5, 21)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect();
    build_index(kind, pts.to_vec(), L2, pivots, &opts).unwrap()
}

#[test]
fn delete_reinsert_preserves_answers() {
    let pts = datasets::la(400, 21);
    for kind in [
        IndexKind::Laesa,
        IndexKind::Ept,
        IndexKind::EptStar,
        IndexKind::Cpt,
        IndexKind::Mvpt,
        IndexKind::PmTree,
        IndexKind::OmniSeq,
        IndexKind::OmniBPlus,
        IndexKind::OmniR,
        IndexKind::MIndex,
        IndexKind::MIndexStar,
        IndexKind::Spb,
    ] {
        let mut idx = build(kind, &pts);
        // Table 6's update operation, 25 times.
        for step in 0..25u32 {
            let id = (step * 13) % 400;
            let Some(o) = idx.get(id) else { continue };
            assert!(idx.remove(id), "{} remove {id}", kind.label());
            idx.insert(o);
        }
        assert_eq!(idx.len(), 400, "{}", kind.label());
        // Answers unchanged versus the oracle.
        let oracle = BruteForce::new(pts.clone(), L2);
        let q = &pts[123];
        let want_ids = oracle.range_query(q, 800.0).len();
        let got_ids = idx.range_query(q, 800.0).len();
        assert_eq!(got_ids, want_ids, "{} post-update MRQ", kind.label());
        let got = idx.knn_query(q, 15);
        let want = oracle.knn_query(q, 15);
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g.dist - w.dist).abs() < 1e-9,
                "{} post-update kNN",
                kind.label()
            );
        }
    }
}

#[test]
fn removing_everything_then_refilling_works() {
    let pts = datasets::la(150, 23);
    for kind in [
        IndexKind::Laesa,
        IndexKind::OmniR,
        IndexKind::Spb,
        IndexKind::MIndexStar,
    ] {
        let mut idx = build(kind, &pts);
        let objs: Vec<Vec<f32>> = (0..150u32).map(|i| idx.get(i).unwrap()).collect();
        for i in 0..150u32 {
            assert!(idx.remove(i), "{} remove {i}", kind.label());
        }
        assert_eq!(idx.len(), 0, "{}", kind.label());
        assert!(idx.is_empty());
        assert!(idx.range_query(&pts[0], 1e9).is_empty());
        for o in objs {
            idx.insert(o);
        }
        assert_eq!(idx.len(), 150);
        assert_eq!(idx.range_query(&pts[0], 1e9).len(), 150);
    }
}

// ---------------------------------------------------------------------------
// Engine-level: the unified mutation path (ISSUE 4).
// ---------------------------------------------------------------------------

/// The four shardable kinds the engine-level update tests sweep: the two
/// matrix-adopting tables plus two tree/disk kinds on the fallback path.
const ENGINE_KINDS: [IndexKind; 4] = [
    IndexKind::Laesa,
    IndexKind::Cpt,
    IndexKind::Mvpt,
    IndexKind::OmniR,
];

fn engine_opts(num_pivots: usize) -> BuildOptions {
    BuildOptions {
        num_pivots,
        d_plus: 14143.0,
        maxnum: 48,
        ..BuildOptions::default()
    }
}

fn hfi_pivots(pts: &[Vec<f32>], l: usize) -> Vec<Vec<f32>> {
    pmr::pivots::select_hfi(pts, &L2, l, 21)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect()
}

fn build_engine(
    kind: IndexKind,
    pts: &[Vec<f32>],
    pivots: &[Vec<f32>],
    opts: &BuildOptions,
    shards: usize,
) -> ShardedEngine<Vec<f32>> {
    build_sharded_engine(
        kind,
        pts.to_vec(),
        L2,
        pivots.to_vec(),
        opts,
        &EngineConfig {
            shards,
            threads: 1,
            refresh: RefreshPolicy::disabled(),
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .unwrap()
}

/// The live objects of an engine in ascending global-id order, given an
/// upper bound on assigned ids.
fn live_objects(e: &ShardedEngine<Vec<f32>>, id_bound: u32) -> Vec<(ObjId, Vec<f32>)> {
    (0..id_bound)
        .filter_map(|g| e.get(g).map(|o| (g, o)))
        .collect()
}

/// The parity reference: an engine built from scratch over the live
/// objects of `e` (ids below `id_bound`, ascending) that reproduces `e`'s
/// final shard membership — answers never depend on membership; compdists
/// and probe counts do. Both engines route and their shards adopt their
/// rows, so the serve paths are structurally identical.
fn rebuild_like<M>(
    e: &ShardedEngine<Vec<f32>>,
    id_bound: u32,
    kind: IndexKind,
    metric: M,
    pivots: &[Vec<f32>],
    opts: &BuildOptions,
) -> ShardedEngine<Vec<f32>>
where
    M: Metric<Vec<f32>> + Clone + 'static,
{
    let (objs, membership): (Vec<Vec<f32>>, Vec<usize>) = live_objects(e, id_bound)
        .into_iter()
        .map(|(g, o)| (o, e.locate(g).expect("live object located").0))
        .unzip();
    let (m, p) = (metric.clone(), pivots.to_vec());
    let layout = Layout::mapped(pivots.len(), move |o: &[f32], out: &mut Vec<f64>| {
        out.extend(p.iter().map(|p| m.dist(o, p)))
    })
    .with_membership(&membership);
    let cfg = EngineConfig {
        shards: e.num_shards(),
        threads: 1,
        ..EngineConfig::default()
    };
    ShardedEngine::build(objs, layout, &cfg, |_, part, rows| {
        build_index_with_matrix(kind, part, metric.clone(), pivots.to_vec(), opts, rows)
    })
    .unwrap()
}

/// Maps an updated engine's global ids onto the compact 0..m ids of an
/// engine rebuilt over the survivors in ascending-gid order. The bijection
/// is monotone, so it preserves `(distance, id)` orderings — byte-identical
/// answers stay byte-identical after mapping.
fn gid_map(live: &[(ObjId, Vec<f32>)]) -> BTreeMap<ObjId, ObjId> {
    live.iter()
        .enumerate()
        .map(|(rank, &(gid, _))| (gid, rank as ObjId))
        .collect()
}

fn map_result(r: &QueryResult, map: &BTreeMap<ObjId, ObjId>) -> QueryResult {
    match r {
        QueryResult::Range(ids) => QueryResult::Range(ids.iter().map(|i| map[i]).collect()),
        QueryResult::Knn(ns) => QueryResult::Knn(
            ns.iter()
                .map(|n| Neighbor::new(map[&n.id], n.dist))
                .collect(),
        ),
        // No budgets/faults in these tests: degraded variants are a bug.
        other => panic!("unbudgeted serve must stay exact, got {other:?}"),
    }
}

fn mixed_batch(pts: &[Vec<f32>], n: usize, r: f64, k: usize) -> Vec<Query<Vec<f32>>> {
    (0..n)
        .map(|i| {
            let q = pts[(i * 131) % pts.len()].clone();
            if i % 2 == 0 {
                Query::range(q, r)
            } else {
                Query::knn(q, k)
            }
        })
        .collect()
}

/// The acceptance criterion of ISSUE 4, strict form: after a sequence of
/// `apply` batches (interleaved inserts and removes), serving through the
/// updated engine is **byte-identical** — results, compdists, probe/prune
/// counts — to an engine rebuilt from scratch over the surviving objects
/// with the same shard membership and pivots. Boxes shrunk by the apply
/// path must equal the tight boxes a fresh build computes.
#[test]
fn apply_batches_equal_rebuild_exactly() {
    let pts = datasets::la(400, 21);
    let extra = datasets::la(80, 77);
    let opts = engine_opts(5);
    let pivots = hfi_pivots(&pts, 5);
    let shards = 4usize;

    for kind in [IndexKind::Laesa, IndexKind::Cpt] {
        let mut e = build_engine(kind, &pts, &pivots, &opts, shards);

        // Two apply batches: removes across the id range interleaved
        // with inserts, then removes that also hit batch-1 inserts.
        let mut b1 = UpdateBatch::new();
        for step in 0..60u32 {
            b1.remove((step * 13) % 400);
        }
        for o in &extra[..40] {
            b1.insert(o.clone());
        }
        let r1 = e.apply(&b1);
        assert_eq!(r1.inserts, 40);
        assert!(r1.removes > 0);
        let mut b2 = UpdateBatch::new();
        for o in &extra[40..] {
            b2.insert(o.clone());
        }
        b2.remove(r1.inserted_ids[3]).remove(5).remove(5);
        let r2 = e.apply(&b2);
        assert_eq!(r2.inserts, 40);
        let id_bound = 400 + 80;

        // Rebuild from scratch over the survivors, reproducing the
        // updated engine's final shard membership.
        let live = live_objects(&e, id_bound);
        assert_eq!(live.len(), e.len());
        let map = gid_map(&live);
        let rebuilt = rebuild_like(&e, id_bound, kind, L2, &pivots, &opts);

        // Boxes shrunk/extended by apply equal the fresh tight boxes.
        assert_eq!(
            e.routing().unwrap().boxes(),
            rebuilt.routing().unwrap().boxes(),
            "{kind:?}: maintained boxes are the tight boxes"
        );

        let radius = datasets::calibrate_radius(&pts, &L2, 0.02, 21);
        let batch = mixed_batch(&pts, 80, radius, 9);
        e.reset_counters();
        rebuilt.reset_counters();
        let out_updated = e.serve(&batch);
        let out_rebuilt = rebuilt.serve(&batch);
        for (i, (a, b)) in out_updated
            .results
            .iter()
            .zip(&out_rebuilt.results)
            .enumerate()
        {
            assert_eq!(
                map_result(a, &map),
                *b,
                "{kind:?} query {i}: updated vs rebuilt"
            );
        }
        assert_eq!(
            out_updated.report.cost.compdists, out_rebuilt.report.cost.compdists,
            "{kind:?}: exact serve compdist parity"
        );
        assert_eq!(
            (
                out_updated.report.shards_probed,
                out_updated.report.shards_pruned
            ),
            (
                out_rebuilt.report.shards_probed,
                out_rebuilt.report.shards_pruned
            ),
            "{kind:?}: exact probe/prune parity"
        );
        if kind == IndexKind::Laesa {
            assert_eq!(
                e.shard_counters(),
                rebuilt.shard_counters(),
                "{kind:?}: per-shard counter parity"
            );
        }
    }
}

/// Table 6 through the engine: a routed insert into a matrix-adopting kind
/// costs exactly `l` distance computations — one shared matrix row, pushed
/// once, adopted by id; the shard performs **zero** remap work.
#[test]
fn routed_insert_costs_exactly_l() {
    let pts = datasets::la(500, 21);
    let extra = datasets::la(25, 99);
    let l = 5usize;
    let opts = engine_opts(l);
    let pivots = hfi_pivots(&pts, l);
    let mut e = build_engine(IndexKind::Laesa, &pts, &pivots, &opts, 4);
    e.reset_counters();
    let mut batch = UpdateBatch::new();
    for o in &extra {
        batch.insert(o.clone());
    }
    let report = e.apply(&batch);
    assert_eq!(
        report.map_compdists,
        (extra.len() * l) as u64,
        "exactly one l-wide row per insert"
    );
    assert_eq!(
        report.shard_compdists, 0,
        "LAESA shards adopt the row — no remap"
    );
    assert_eq!(e.counters().compdists, 0, "shard counters agree");
    // The inserted objects are served exactly.
    for (i, o) in extra.iter().enumerate() {
        let hits = e.range_query(o, 0.0);
        assert!(
            hits.contains(&report.inserted_ids[i]),
            "insert {i} is queryable"
        );
    }
}

/// FQA rides the same adopted path (an engine's FQA shard is the pivot table
/// under FQA's name): engine inserts bring one row and the shard appends
/// it, with zero shard-side distance computations.
#[test]
fn fqa_adopts_engine_inserts() {
    let pts = datasets::synthetic(300, 17);
    let extra = datasets::synthetic(20, 18);
    let metric = pmr::LInf::discrete();
    let opts = BuildOptions {
        d_plus: 10000.0,
        ..BuildOptions::default()
    };
    let pivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(&pts, &metric, 5, 17)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect();
    let mut e = build_sharded_engine(
        IndexKind::Fqa,
        pts.clone(),
        metric,
        pivots.clone(),
        &opts,
        &EngineConfig {
            shards: 3,
            threads: 1,
            refresh: RefreshPolicy::disabled(),
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .unwrap();
    // Build-side: every shard took its rows, no recomputation.
    assert!(e.shards().iter().all(|s| s.index().pivot_rows().is_some()));
    assert_eq!(e.counters().compdists, 0, "adopted build");
    let mut batch = UpdateBatch::new();
    for o in &extra {
        batch.insert(o.clone());
    }
    for id in [3u32, 33, 111] {
        batch.remove(id);
    }
    let report = e.apply(&batch);
    assert_eq!(report.shard_compdists, 0, "adopted inserts");
    assert_eq!(report.map_compdists, (extra.len() * 5) as u64);
    assert_eq!(report.removes, 3);
    // Exactness against a brute-force oracle over the survivors.
    let live = live_objects(&e, 320);
    let oracle = BruteForce::new(
        live.iter().map(|(_, o)| o.clone()).collect::<Vec<_>>(),
        metric,
    );
    let map = gid_map(&live);
    for q in extra.iter().take(4).chain(pts.iter().take(4)) {
        let got: Vec<ObjId> = e.range_query(q, 1500.0).iter().map(|i| map[i]).collect();
        let mut want = oracle.range_query(q, 1500.0);
        want.sort_unstable();
        assert_eq!(got, want, "FQA post-apply MRQ");
    }
}

/// The compaction-equivalence satellite: after churn plus `compact()`,
/// routed serving is **byte-identical** — results, compdists, probe/prune
/// counts — to a from-scratch rebuild over the survivors, with no id
/// mapping at all: compaction renumbers survivors to exactly the dense ids
/// the rebuild assigns. Swept across the adopting kinds × both policies
/// (FQA, which needs a discrete metric, has its own case below).
#[test]
fn compaction_equals_rebuild_exactly() {
    let pts = datasets::la(400, 21);
    let extra = datasets::la(60, 77);
    let opts = engine_opts(5);
    let pivots = hfi_pivots(&pts, 5);
    let shards = 4usize;

    for kind in [IndexKind::Laesa, IndexKind::Cpt] {
        let mut e = build_engine(kind, &pts, &pivots, &opts, shards);
        // Churn: two apply batches of interleaved removes + inserts.
        let mut b1 = UpdateBatch::new();
        for step in 0..80u32 {
            b1.remove((step * 7) % 400);
        }
        for o in &extra[..30] {
            b1.insert(o.clone());
        }
        let r1 = e.apply(&b1);
        let mut b2 = UpdateBatch::new();
        for o in &extra[30..] {
            b2.insert(o.clone());
        }
        b2.remove(r1.inserted_ids[5]).remove(399);
        e.apply(&b2);

        // Explicit compaction: every dead row drops, ids densify.
        // Total matrix rows = 400 seed + 60 inserted.
        let live_before = live_objects(&e, 460);
        let dead = 460 - live_before.len();
        let dropped = e.compact();
        assert_eq!(dropped, dead, "{kind:?}: all dead rows dropped");
        assert_eq!(e.len(), live_before.len());

        // Survivor rank == new gid: objects are served under 0..m.
        let objs: Vec<Vec<f32>> = live_before.iter().map(|(_, o)| o.clone()).collect();
        for (gid, o) in objs.iter().enumerate() {
            assert_eq!(e.get(gid as u32).as_ref(), Some(o), "{kind:?}");
        }

        let rebuilt = rebuild_like(&e, objs.len() as u32, kind, L2, &pivots, &opts);

        assert_eq!(
            e.routing().unwrap().boxes(),
            rebuilt.routing().unwrap().boxes(),
            "{kind:?}: compaction preserves the tight boxes"
        );

        let radius = datasets::calibrate_radius(&pts, &L2, 0.02, 21);
        let batch = mixed_batch(&pts, 80, radius, 9);
        e.reset_counters();
        rebuilt.reset_counters();
        let out_compacted = e.serve(&batch);
        let out_rebuilt = rebuilt.serve(&batch);
        assert_eq!(
            out_compacted.results, out_rebuilt.results,
            "{kind:?}: byte-identical results, no id mapping"
        );
        assert_eq!(
            out_compacted.report.cost.compdists, out_rebuilt.report.cost.compdists,
            "{kind:?}: exact serve compdist parity"
        );
        assert_eq!(
            (
                out_compacted.report.shards_probed,
                out_compacted.report.shards_pruned
            ),
            (
                out_rebuilt.report.shards_probed,
                out_rebuilt.report.shards_pruned
            ),
            "{kind:?}: exact probe/prune parity"
        );
        if kind == IndexKind::Laesa {
            assert_eq!(
                e.shard_counters(),
                rebuilt.shard_counters(),
                "{kind:?}: per-shard counter parity"
            );
        }
    }
}

/// Compaction equivalence for the discrete adopting kind: FQA under both
/// policies, against a rebuild whose shards adopt matrices the same way.
#[test]
fn fqa_compaction_equals_rebuild() {
    let metric = pmr::LInf::discrete();
    let pts = datasets::synthetic(300, 17);
    let extra = datasets::synthetic(40, 18);
    let opts = BuildOptions {
        d_plus: 10000.0,
        ..BuildOptions::default()
    };
    let pivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(&pts, &metric, 5, 17)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect();
    let shards = 3usize;
    let cfg = EngineConfig {
        shards,
        threads: 1,
        refresh: RefreshPolicy::disabled(),
        ..EngineConfig::default()
    };
    let mut e = build_sharded_engine(
        IndexKind::Fqa,
        pts.clone(),
        metric,
        pivots.clone(),
        &opts,
        &cfg,
        PartitionPolicy::PivotSpace,
    )
    .unwrap();
    let mut batch = UpdateBatch::new();
    for step in 0..70u32 {
        batch.remove((step * 11) % 300);
    }
    for o in &extra {
        batch.insert(o.clone());
    }
    e.apply(&batch);
    let live = live_objects(&e, 340);
    let dropped = e.compact();
    assert!(dropped > 0);
    assert_eq!(e.len(), live.len());
    let rebuilt = rebuild_like(
        &e,
        live.len() as u32,
        IndexKind::Fqa,
        metric,
        &pivots,
        &opts,
    );
    let batch = mixed_batch(&pts, 60, 1500.0, 7);
    e.reset_counters();
    rebuilt.reset_counters();
    let a = e.serve(&batch);
    let b = rebuilt.serve(&batch);
    assert_eq!(a.results, b.results, "FQA: byte-identical");
    assert_eq!(
        a.report.cost.compdists, b.report.cost.compdists,
        "FQA: compdist parity"
    );
    assert_eq!(
        (a.report.shards_probed, a.report.shards_pruned),
        (b.report.shards_probed, b.report.shards_pruned),
        "FQA: probe/prune parity"
    );
    assert_eq!(
        e.shard_counters(),
        rebuilt.shard_counters(),
        "FQA: per-shard counter parity"
    );
}

/// Single-op unification regression: `remove()` is sugar for a 1-op
/// transactional `apply`, so looping single removes shrinks routing boxes
/// exactly like one batched apply — the old stale-box fast path (which
/// left emptied shards probed forever) is gone. Answers byte-identical,
/// pruning identical, and emptied shards are pruned on both routes.
#[test]
fn single_op_removes_shrink_boxes_like_batched_apply() {
    let pts = datasets::la(600, 21);
    let opts = engine_opts(5);
    let pivots = hfi_pivots(&pts, 5);
    let mut batched = build_engine(IndexKind::Laesa, &pts, &pivots, &opts, 8);
    let mut singles = build_engine(IndexKind::Laesa, &pts, &pivots, &opts, 8);

    // Empty out two whole shards (a hot region being migrated away).
    let victims: Vec<usize> = vec![0, 5];
    let doomed: Vec<ObjId> = (0..600u32)
        .filter(|&g| victims.contains(&batched.locate(g).unwrap().0))
        .collect();
    assert!(!doomed.is_empty());
    let mut batch = UpdateBatch::new();
    for &g in &doomed {
        batch.remove(g);
    }
    let report = batched.apply(&batch); // one transaction
    assert_eq!(report.removes, doomed.len());
    assert_eq!(report.reboxed_shards, victims.len());
    for &g in &doomed {
        assert!(singles.remove(g)); // N 1-op transactions — same path
    }
    assert_eq!(batched.len(), singles.len());
    // Every 1-op transaction published its own snapshot; the batch
    // published one.
    assert_eq!(singles.epoch(), doomed.len() as u64);
    assert_eq!(batched.epoch(), 1);

    // Serve the same batch, query points drawn from the removed region
    // (small radii — the case stale boxes used to hurt most).
    let batch: Vec<Query<Vec<f32>>> = doomed
        .iter()
        .take(60)
        .enumerate()
        .map(|(i, &g)| {
            let q = pts[g as usize].clone();
            if i % 2 == 0 {
                Query::range(q, 30.0)
            } else {
                Query::knn(q, 3)
            }
        })
        .collect();
    batched.reset_counters();
    singles.reset_counters();
    let out_batched = batched.serve(&batch);
    let out_singles = singles.serve(&batch);
    assert_eq!(
        out_batched.results, out_singles.results,
        "both mutation routes give byte-identical answers"
    );
    assert_eq!(
        out_batched.report.shards_pruned, out_singles.report.shards_pruned,
        "single-op removes shrink boxes exactly like the batched apply"
    );
    assert!(
        out_batched.report.shards_pruned > 0,
        "emptied shards must be pruned (no stale boxes on either route)"
    );
}

/// Skewed growth trips the `RefreshPolicy`: every shard is re-cut
/// (locator + adopted-row fixup, no distance recomputation for LAESA),
/// live counts rebalance, and answers stay exact.
#[test]
fn recluster_trigger_rebalances_under_skewed_growth() {
    let pts = datasets::la(400, 21);
    let opts = engine_opts(5);
    let pivots = hfi_pivots(&pts, 5);
    let mut e = build_sharded_engine(
        IndexKind::Laesa,
        pts.clone(),
        L2,
        pivots.clone(),
        &opts,
        &EngineConfig {
            shards: 4,
            threads: 1,
            refresh: RefreshPolicy {
                max_imbalance: 2.0,
                min_objects: 50,
            },
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .unwrap();

    // Feed 300 near-duplicates of one region: they all route to one shard.
    let hot = pts[7].clone();
    let mut batch = UpdateBatch::new();
    for i in 0..300 {
        let mut o = hot.clone();
        o[0] += (i % 17) as f32;
        o[1] += (i % 13) as f32;
        batch.insert(o);
    }
    let report = e.apply(&batch);
    assert_eq!(report.inserts, 300);
    assert_eq!(report.reclusters, 1, "skew trips the refresh policy");
    assert!(report.moved_objects > 0);
    assert_eq!(
        report.shard_compdists, 0,
        "LAESA moves adopt existing rows — no recomputation"
    );
    let stats = e.update_stats();
    assert_eq!(stats.reclusters, 1);
    assert_eq!(stats.inserts, 300);

    // Still exactly correct against the oracle over the union.
    let live = live_objects(&e, 700);
    assert_eq!(live.len(), 700);
    let oracle = BruteForce::new(live.iter().map(|(_, o)| o.clone()).collect::<Vec<_>>(), L2);
    let map = gid_map(&live);
    for q in [&pts[7], &pts[100], &hot] {
        let got: Vec<ObjId> = e.range_query(q, 300.0).iter().map(|i| map[i]).collect();
        let mut want = oracle.range_query(q, 300.0);
        want.sort_unstable();
        assert_eq!(got, want, "post-recluster MRQ");
        let got_k = e.knn_query(q, 10);
        let want_k = oracle.knn_query(q, 10);
        for (g, w) in got_k.iter().zip(&want_k) {
            assert!((g.dist - w.dist).abs() < 1e-9, "post-recluster kNN");
        }
    }
}

/// A plain engine is the zero-width pivot space, and its LAESA shards scan
/// rows over pivots of their own: each shard keeps the engine's zero-width
/// rows beside its index. A batch that empties most of one shard trips the
/// `RefreshPolicy`, re-clusters over those rows and commits; `compact()`
/// then drops every dead row, the shard's rows with its index's. A shard
/// that read its index's private rows here would abort the batch.
#[test]
fn a_plain_engine_with_private_pivot_rows_reclusters_and_compacts() {
    let pts = datasets::la(600, 21);
    let opts = engine_opts(5);
    let cfg = EngineConfig {
        shards: 3,
        threads: 1,
        ..EngineConfig::default()
    };
    let mut e = ShardedEngine::build(pts.clone(), Layout::plain(), &cfg, |_, part, _| {
        let pivots = hfi_pivots(&part.to_vec(), opts.num_pivots);
        build_index(IndexKind::Laesa, part, L2, pivots, &opts)
    })
    .unwrap();
    let mut oracle = BruteForce::new(pts.clone(), L2);
    // The survivors are ids 180.., and a compaction renumbers them from 0.
    let matches_oracle = |e: &ShardedEngine<Vec<f32>>, oracle: &BruteForce<_, _>, shift| {
        for q in pts.iter().step_by(37) {
            let got: Vec<ObjId> = e.range_query(q, 700.0).iter().map(|g| g + shift).collect();
            let mut want = oracle.range_query(q, 700.0);
            want.sort_unstable();
            assert_eq!(got, want, "MRQ");
            let got: Vec<(ObjId, u64)> = e
                .knn_query(q, 10)
                .iter()
                .map(|n| (n.id + shift, n.dist.to_bits()))
                .collect();
            let want: Vec<(ObjId, u64)> = oracle
                .knn_query(q, 10)
                .iter()
                .map(|n| (n.id, n.dist.to_bits()))
                .collect();
            assert_eq!(got, want, "kNN");
        }
    };

    let mut batch = UpdateBatch::new();
    for gid in 0..180 {
        batch.remove(gid);
        assert!(oracle.remove(gid));
    }
    let report = e.apply(&batch);
    assert!(!report.aborted, "the batch commits");
    assert_eq!((report.removes, report.reclusters), (180, 1));
    assert_eq!(e.len(), 420);
    matches_oracle(&e, &oracle, 0);

    assert_eq!(e.compact(), 180);
    assert_eq!(e.len(), 420);
    matches_oracle(&e, &oracle, 180);

    // The rows a shard keeps were compacted with its index, so the next
    // insert lands in step.
    let mut batch = UpdateBatch::new();
    batch.insert(pts[0].clone());
    assert_eq!(e.apply(&batch).inserted_ids, [420]);
    assert_eq!(oracle.insert(pts[0].clone()), 600);
    matches_oracle(&e, &oracle, 180);
}

fn vecs(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-1000.0f32..1000.0, dim..=dim), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Interleaves `apply` batches (inserts + removes) with mixed
    /// range/kNN serving across kinds × shard counts: after every batch,
    /// answers must equal both a brute-force oracle over the survivors and
    /// a freshly rebuilt engine of the same kind (identical pivots), under
    /// the monotone gid bijection.
    #[test]
    fn apply_interleaved_with_serving_matches_rebuild(
        v in vecs(3, 70..120),
        extra in vecs(3, 24..40),
        k in 1usize..8,
        r in 100.0f64..2500.0,
        shards_pick in 0usize..3,
        kind_pick in 0usize..4,
        churn_seed in 0u32..1000,
    ) {
        let shards = [1usize, 2, 5][shards_pick];
        let kind = ENGINE_KINDS[kind_pick];
        let opts = BuildOptions {
            num_pivots: 3,
            d_plus: 8000.0,
            maxnum: 48,
            ..BuildOptions::default()
        };
        let pivots = hfi_pivots(&v, 3);
        let mut e = build_engine(kind, &v, &pivots, &opts, shards);
        let id_bound = (v.len() + extra.len()) as u32;

        let half = extra.len() / 2;
        for (round, chunk) in [&extra[..half], &extra[half..]].iter().enumerate() {
            // One apply batch: a few removes spread over live ids, then
            // this round's inserts.
            let live_before = live_objects(&e, id_bound);
            let picks: std::collections::BTreeSet<usize> = (0..(live_before.len() / 6).max(1))
                .map(|j| (churn_seed as usize + round * 31 + j * 13) % live_before.len())
                .collect();
            let mut batch = UpdateBatch::new();
            for &pick in &picks {
                batch.remove(live_before[pick].0);
            }
            for o in chunk.iter() {
                batch.insert(o.clone());
            }
            let report = e.apply(&batch);
            prop_assert_eq!(report.inserts, chunk.len());
            prop_assert!(report.removes >= 1);
            prop_assert_eq!(report.missing_removes, 0);
            prop_assert_eq!(report.map_compdists, (chunk.len() * 3) as u64);

            // Serve a mixed batch and check against oracle + fresh rebuild.
            let live = live_objects(&e, id_bound);
            prop_assert_eq!(live.len(), e.len());
            let map = gid_map(&live);
            let objs: Vec<Vec<f32>> = live.iter().map(|(_, o)| o.clone()).collect();
            let oracle = BruteForce::new(objs.clone(), L2);
            let rebuilt = build_engine(kind, &objs, &pivots, &opts, shards);
            let queries = mixed_batch(&v, 10, r, k);
            let out = e.serve(&queries);
            let out_rebuilt = rebuilt.serve(&queries);
            // Probe accounting stays exact under churn.
            prop_assert_eq!(
                out.report.shards_probed + out.report.shards_pruned,
                (queries.len() * e.num_shards()) as u64
            );
            for (i, q) in queries.iter().enumerate() {
                let mapped = map_result(&out.results[i], &map);
                prop_assert_eq!(
                    &mapped, &out_rebuilt.results[i],
                    "{} P={} round {} query {}: updated vs rebuilt",
                    kind.label(), shards, round, i
                );
                match (q, &mapped) {
                    (Query::Range { q, radius }, QueryResult::Range(ids)) => {
                        let mut want = oracle.range_query(q, *radius);
                        want.sort_unstable();
                        prop_assert_eq!(ids, &want, "round {} query {} vs oracle", round, i);
                    }
                    (Query::Knn { q, k }, QueryResult::Knn(ns)) => {
                        let want = oracle.knn_query(q, *k);
                        prop_assert_eq!(ns.len(), want.len());
                        for (g, w) in ns.iter().zip(&want) {
                            prop_assert!((g.dist - w.dist).abs() < 1e-9);
                        }
                    }
                    _ => prop_assert!(false, "result variant mismatch"),
                }
            }
        }
    }
}

#[test]
fn ept_updates_cost_more_than_laesa() {
    // Table 6: LAESA's insert computes only |P| distances; EPT re-selects
    // pivots (and re-estimates μ), EPT* runs PSA.
    let pts = datasets::la(500, 25);
    let mut laesa = build(IndexKind::Laesa, &pts);
    let mut ept = build(IndexKind::Ept, &pts);
    let cost = |idx: &mut Box<dyn MetricIndex<Vec<f32>>>| {
        let o = idx.get(7).unwrap();
        idx.remove(7);
        idx.reset_counters();
        idx.insert(o);
        idx.counters().compdists
    };
    let cl = cost(&mut laesa);
    let ce = cost(&mut ept);
    assert!(cl < ce, "LAESA insert {cl} vs EPT insert {ce}");
    assert_eq!(cl, 5, "LAESA insert = |P| distances");
}
