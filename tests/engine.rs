//! Engine consistency: a sharded engine must answer exactly like a single
//! unsharded index of the same kind over the same data — range queries as
//! id sets, kNN queries as multisets of `(id, distance)` — for every shard
//! count, and its aggregate cost counters must equal the sum of the
//! per-shard counters exactly.

use pivot_metric_repro as pmr;
use pmr::builder::{build_vector_index, BuildOptions, IndexKind};
use pmr::engine::{EngineConfig, Query, QueryResult};
use pmr::{
    build_sharded_vector_engine, datasets, Counters, MetricIndex, Neighbor, PartitionPolicy, L2,
};
use proptest::prelude::*;

fn opts(maxnum: usize) -> BuildOptions {
    BuildOptions {
        d_plus: 14143.0,
        maxnum,
        ..BuildOptions::default()
    }
}

/// kNN answers compared as multisets of `(id, exact distance bits)` — order
/// within equal distances is irrelevant, everything else must be identical.
fn knn_multiset(ns: &[Neighbor]) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = ns.iter().map(|n| (n.id, n.dist.to_bits())).collect();
    v.sort_unstable();
    v
}

fn sorted_range(index: &dyn MetricIndex<Vec<f32>>, q: &Vec<f32>, r: f64) -> Vec<u32> {
    let mut ids = index.range_query(q, r);
    ids.sort_unstable();
    ids
}

#[test]
fn sharded_equals_unsharded_across_kinds_and_shard_counts() {
    let pts = datasets::la(600, 9);
    let radius = datasets::calibrate_radius(&pts, &L2, 0.16, 9);
    for kind in [
        IndexKind::Laesa,
        IndexKind::Mvpt,
        IndexKind::MIndexStar,
        IndexKind::OmniR,
    ] {
        let single = build_vector_index(kind, pts.clone(), L2, &opts(64)).unwrap();
        for shards in [1usize, 2, 4, 7] {
            let engine = build_sharded_vector_engine(
                kind,
                pts.clone(),
                L2,
                &opts(64),
                &EngineConfig {
                    shards,
                    threads: 2,
                    ..EngineConfig::default()
                },
                PartitionPolicy::PivotSpace,
            )
            .unwrap();
            assert_eq!(engine.num_shards(), shards);
            assert_eq!(engine.len(), pts.len());
            for qi in [0usize, 13, 299, 599] {
                let q = &pts[qi];
                assert_eq!(
                    engine.range_query(q, radius),
                    sorted_range(single.as_ref(), q, radius),
                    "{} P={shards} qi={qi} MRQ",
                    kind.label()
                );
                assert_eq!(
                    knn_multiset(&engine.knn_query(q, 10)),
                    knn_multiset(&single.knn_query(q, 10)),
                    "{} P={shards} qi={qi} MkNNQ",
                    kind.label()
                );
            }
        }
        // Ties: every object twice (ids `i` and `300 + i`), so every
        // distance is tied and an odd `k` cuts between twins. Shards and the
        // merge order by `(distance, id)` and a shard's local ids ascend
        // with its global ids, so the answer is the unsharded index's, in
        // order, ties included.
        let twins = [&pts[..300], &pts[..300]].concat();
        let single = build_vector_index(kind, twins.clone(), L2, &opts(64)).unwrap();
        for shards in [2usize, 7] {
            let engine = build_sharded_vector_engine(
                kind,
                twins.clone(),
                L2,
                &opts(64),
                &EngineConfig {
                    shards,
                    threads: 2,
                    ..EngineConfig::default()
                },
                PartitionPolicy::PivotSpace,
            )
            .unwrap();
            for qi in [0usize, 13, 299, 451] {
                for k in [1usize, 3, 11] {
                    assert_eq!(
                        engine.knn_query(&twins[qi], k),
                        single.knn_query(&twins[qi], k),
                        "{} P={shards} qi={qi} k={k} tied MkNNQ",
                        kind.label()
                    );
                }
            }
        }
    }
}

#[test]
fn aggregate_counters_equal_shard_sum_exactly() {
    let pts = datasets::la(500, 3);
    let radius = datasets::calibrate_radius(&pts, &L2, 0.08, 3);
    let engine = build_sharded_vector_engine(
        IndexKind::MIndexStar,
        pts.clone(),
        L2,
        &opts(32),
        &EngineConfig {
            shards: 4,
            threads: 3,
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .unwrap();
    engine.reset_counters();
    let batch: Vec<Query<Vec<f32>>> = (0..200)
        .map(|i| {
            if i % 2 == 0 {
                Query::range(pts[i].clone(), radius)
            } else {
                Query::knn(pts[i].clone(), 5 + i % 13)
            }
        })
        .collect();
    let out = engine.serve(&batch);
    let shard_sum = engine
        .shard_counters()
        .into_iter()
        .fold(Counters::default(), |a, b| a + b);
    assert_eq!(engine.counters(), shard_sum, "aggregate is the shard sum");
    assert_eq!(
        out.report.cost, shard_sum,
        "batch delta on fresh counters equals the shard sum"
    );
    assert!(shard_sum.compdists > 0);
    assert!(
        shard_sum.page_accesses() > 0,
        "M-index* is disk-based, the batch must pay page accesses"
    );
}

/// The build layout, pinned in two hashes — the tier-1 twin of the ruler's
/// `result_checksum`. `layout`: which shard and slot every object lands in,
/// the exact build cost and every shard's counters. `boxes`: every routing
/// box edge bit for bit, one value for both kinds (one pivot space, one
/// partition): the union of the u16 buckets (step 0.25 here) the stored
/// rows stand for. A changed hash means a changed partition, build cost or
/// box face. Neither hash may depend on the thread count.
#[test]
fn build_layout_is_pinned_and_independent_of_thread_count() {
    const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
    let fnv = |h: &mut u64, x: u64| {
        for b in x.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    let pts = datasets::la(2_000, 3);
    // (kind, layout, boxes).
    let golden = [
        (
            IndexKind::Laesa,
            0x6a62_c031_81cc_1078u64,
            0x02d7_da86_9031_f33cu64,
        ),
        (
            IndexKind::Mvpt,
            0x4438_fae1_1082_9523,
            0x02d7_da86_9031_f33c,
        ),
    ];
    for (kind, want_layout, want_boxes) in golden {
        for threads in [1usize, 2] {
            let engine = build_sharded_vector_engine(
                kind,
                pts.clone(),
                L2,
                &opts(64),
                &EngineConfig {
                    shards: 8,
                    threads,
                    ..EngineConfig::default()
                },
                PartitionPolicy::PivotSpace,
            )
            .unwrap();
            let mut layout = FNV_BASIS;
            for gid in 0..pts.len() as u32 {
                let (shard, local) = engine.locate(gid).expect("every built object is live");
                fnv(&mut layout, shard as u64);
                fnv(&mut layout, local as u64);
            }
            fnv(&mut layout, engine.build_stats().build_compdists);
            for c in engine.shard_counters() {
                for x in [c.compdists, c.page_reads, c.page_writes] {
                    fnv(&mut layout, x);
                }
            }
            let mut boxes = FNV_BASIS;
            // Over the f64 edges the planner bounds with.
            let rt = engine.routing().expect("a routed engine");
            for b in rt.boxes() {
                let (lo, hi): (Vec<f64>, Vec<f64>) = b.edges(rt.step()).unzip();
                for x in lo.iter().chain(&hi) {
                    fnv(&mut boxes, x.to_bits());
                }
            }
            assert_eq!(
                (layout, boxes),
                (want_layout, want_boxes),
                "{} threads={threads}: got layout {layout:#018x}, boxes {boxes:#018x}",
                kind.label()
            );
        }
    }
}

/// The running k-th distance reaches the leaves of a tree shard too: a kNN
/// batch over MVPT shards costs fewer distances than the same plan — same
/// shards, same order, same skips — with every probe unseeded, and answers
/// the same.
#[test]
fn knn_seed_prunes_inside_tree_shards() {
    use pmr::engine::TopK;
    let pts = datasets::la(4_000, 17);
    let (indexed, held_out) = pts.split_at(3_800);
    let engine = build_sharded_vector_engine(
        IndexKind::Mvpt,
        indexed.to_vec(),
        L2,
        &opts(64),
        &EngineConfig {
            shards: 8,
            threads: 1,
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .unwrap();
    let k = 10;
    let batch: Vec<Query<Vec<f32>>> = held_out.iter().map(|q| Query::knn(q.clone(), k)).collect();

    let before = engine.counters().compdists;
    let served = engine.serve(&batch).results;
    let seeded = engine.counters().compdists - before;

    let rt = engine.routing().expect("pivot-space engines route");
    let (mut mapped, mut order) = (Vec::new(), Vec::new());
    let (mut qs, mut tmp, mut topk) = (pmr::QueryScratch::new(), Vec::new(), TopK::new(k));
    let mut probes = 0;
    let by_hand: Vec<QueryResult> = held_out
        .iter()
        .map(|q| {
            topk.reset(k);
            rt.map_into(q, &mut mapped);
            rt.knn_order_into(&mapped, &mut order);
            for &(s, lb) in &order {
                if lb <= topk.threshold() {
                    engine.shards()[s].knn_into_with(
                        q,
                        k,
                        f64::INFINITY,
                        &mut qs,
                        &mut tmp,
                        &mut topk,
                    );
                    probes += 1;
                }
            }
            QueryResult::Knn(topk.drain_sorted())
        })
        .collect();
    let unseeded = engine.counters().compdists - before - seeded;

    assert_eq!(served, by_hand);
    assert!(probes > held_out.len(), "some query probes a second shard");
    assert!(
        seeded < unseeded,
        "seeded probes paid {seeded} distances, unseeded ones {unseeded}"
    );
}

#[test]
fn thousand_query_mixed_batch_matches_unsharded_baseline() {
    let pts = datasets::la(2_000, 42);
    let radius = datasets::calibrate_radius(&pts, &L2, 0.04, 42);
    let kind = IndexKind::Mvpt;
    let single = build_vector_index(kind, pts.clone(), L2, &opts(128)).unwrap();
    let engine = build_sharded_vector_engine(
        kind,
        pts.clone(),
        L2,
        &opts(128),
        &EngineConfig {
            shards: 5,
            threads: 0,
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .unwrap();
    let batch: Vec<Query<Vec<f32>>> = (0..1_000)
        .map(|i| {
            let q = pts[(i * 131) % pts.len()].clone();
            if i % 2 == 0 {
                Query::range(q, radius * (1.0 + (i % 5) as f64 * 0.25))
            } else {
                Query::knn(q, 1 + i % 20)
            }
        })
        .collect();
    engine.reset_counters();
    let out = engine.serve(&batch);
    assert_eq!(out.results.len(), 1_000);
    assert_eq!(out.report.queries, 1_000);
    assert_eq!(out.report.range_queries, 500);
    assert_eq!(out.report.knn_queries, 500);
    assert!(out.report.qps > 0.0);
    assert!(out.report.wall_secs > 0.0);
    assert!(out.report.latency.max_secs >= out.report.latency.p99_secs);
    assert!(out.report.latency.p99_secs >= out.report.latency.p50_secs);
    let shard_sum = engine
        .shard_counters()
        .into_iter()
        .fold(Counters::default(), |a, b| a + b);
    assert_eq!(out.report.cost, shard_sum);

    let mut total = 0usize;
    for (i, (query, result)) in batch.iter().zip(&out.results).enumerate() {
        match (query, result) {
            (Query::Range { q, radius }, QueryResult::Range(ids)) => {
                assert_eq!(
                    *ids,
                    sorted_range(single.as_ref(), q, *radius),
                    "query {i} MRQ"
                );
            }
            (Query::Knn { q, k }, QueryResult::Knn(ns)) => {
                let want = single.knn_query(q, *k);
                assert_eq!(ns.len(), want.len().min(*k), "query {i} MkNNQ size");
                assert_eq!(knn_multiset(ns), knn_multiset(&want), "query {i} MkNNQ");
            }
            _ => panic!("result {i} has the wrong variant"),
        }
        total += result.len();
    }
    assert_eq!(total, out.report.total_results);
}

fn vecs(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-1000.0f32..1000.0, dim..=dim), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized version of the consistency check: random data, radius,
    /// k, shard count and index kind.
    #[test]
    fn random_sharded_engine_agrees_with_unsharded(
        v in vecs(3, 60..160),
        r in 10.0f64..3000.0,
        k in 1usize..12,
        shards_pick in 0usize..4,
        kind_pick in 0usize..3,
    ) {
        let shards = [1usize, 2, 4, 7][shards_pick];
        let kind = [IndexKind::Laesa, IndexKind::Mvpt, IndexKind::OmniR][kind_pick];
        let opts = BuildOptions {
            d_plus: 8000.0,
            maxnum: 16,
            num_pivots: 3,
            ..BuildOptions::default()
        };
        let single = build_vector_index(kind, v.clone(), L2, &opts).unwrap();
        let engine = build_sharded_vector_engine(
            kind,
            v.clone(),
            L2,
            &opts,
            &EngineConfig { shards, threads: 2, ..EngineConfig::default() },
            PartitionPolicy::PivotSpace,
        )
        .unwrap();
        let q = &v[0];
        prop_assert_eq!(
            engine.range_query(q, r),
            sorted_range(single.as_ref(), q, r),
            "{} P={} MRQ", kind.label(), shards
        );
        prop_assert_eq!(
            knn_multiset(&engine.knn_query(q, k)),
            knn_multiset(&single.knn_query(q, k)),
            "{} P={} MkNNQ", kind.label(), shards
        );
    }
}
