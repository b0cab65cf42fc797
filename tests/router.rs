//! Routing-aware sharding: a pivot-space-partitioned engine must answer
//! *identically* to the unsharded baseline (range queries as id sets, kNN
//! as `(id, distance)` multisets) while probing strictly fewer shards than
//! an unrouted engine on clustered data — shard pruning may only ever skip
//! work, never answers.

use pivot_metric_repro as pmr;
use pmr::builder::{build_index, build_vector_index, BuildOptions, IndexKind};
use pmr::engine::{EngineConfig, Layout, Query, QueryResult};
use pmr::{
    build_sharded_vector_engine, BruteForce, MetricIndex, Neighbor, PartitionPolicy, ShardedEngine,
    L2,
};
use proptest::prelude::*;

fn opts() -> BuildOptions {
    BuildOptions {
        d_plus: 14143.0,
        maxnum: 64,
        ..BuildOptions::default()
    }
}

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

/// Deterministic Gaussian blobs: `blobs` well-separated clusters in 2-d,
/// built from a tiny inline LCG + Box–Muller so the test has no RNG
/// dependency.
fn gaussian_blobs(n: usize, blobs: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    let centers: Vec<(f64, f64)> = (0..blobs)
        .map(|b| {
            let angle = std::f64::consts::TAU * b as f64 / blobs as f64;
            (5000.0 + 4000.0 * angle.cos(), 5000.0 + 4000.0 * angle.sin())
        })
        .collect();
    (0..n)
        .map(|i| {
            let (cx, cy) = centers[i % blobs];
            let (u1, u2) = (next().max(1e-12), next());
            let mag = (-2.0 * u1.ln()).sqrt() * 60.0;
            let x = cx + mag * (std::f64::consts::TAU * u2).cos();
            let y = cy + mag * (std::f64::consts::TAU * u2).sin();
            vec![x as f32, y as f32]
        })
        .collect()
}

/// Gaussian blobs, P = 8, selective range queries: the routed engine
/// probes strictly fewer shards than a `Layout::plain()` engine over the
/// same kind and pivots, which probes all of them, and both return
/// byte-identical result sets, equal to brute force; kNN answers are
/// brute force's, in order, ties included.
#[test]
fn blobs_prune_shards_and_match_baseline_exactly() {
    let pts = gaussian_blobs(1_600, 8, 0xb10b5);
    let oracle = BruteForce::new(pts.clone(), L2);
    let (kind, opts) = (IndexKind::Mvpt, opts());
    let cfg = EngineConfig {
        shards: 8,
        threads: 2,
        ..EngineConfig::default()
    };
    let routed = build_sharded_vector_engine(
        kind,
        pts.clone(),
        L2,
        &opts,
        &cfg,
        PartitionPolicy::PivotSpace,
    )
    .unwrap();
    // The facade's pivots: HFI over the whole corpus.
    let pivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(&pts, &L2, opts.num_pivots, opts.seed)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect();
    let plain = ShardedEngine::build(pts.clone(), Layout::plain(), &cfg, |_, part, _| {
        build_index(kind, part, L2, pivots.clone(), &opts)
    })
    .unwrap();
    // A plain layout is the zero-width pivot space: its boxes bound
    // nothing, so its table plans every shard.
    let table = plain.routing().expect("every engine routes");
    assert!(table.boxes().iter().all(|b| b.dim() == 0));
    let mut plan = Vec::new();
    table.range_plan_into(&[], 120.0, &mut plan);
    assert_eq!(plan, (0..8).collect::<Vec<_>>());

    // Selective radius: ~a blob's core, far below the inter-blob spacing.
    let batch: Vec<Query<Vec<f32>>> = (0..200)
        .map(|i| Query::range(pts[(i * 53) % pts.len()].clone(), 120.0))
        .collect();

    routed.reset_counters();
    let routed_out = routed.serve(&batch);
    plain.reset_counters();
    let plain_out = plain.serve(&batch);

    // The plain engine probes everything; routing must skip shards.
    assert_eq!(plain_out.report.shards_probed, 200 * 8);
    assert_eq!(plain_out.report.shards_pruned, 0);
    assert!(
        routed_out.report.shards_pruned > 0,
        "selective queries on blobs must prune shards"
    );
    assert!(
        routed_out.report.shards_probed < plain_out.report.shards_probed,
        "routing must probe strictly fewer shards than the plain engine"
    );
    assert_eq!(
        routed_out.report.shards_probed + routed_out.report.shards_pruned,
        200 * 8
    );

    // Byte-identical result sets: routed == plain == brute force.
    for (i, (query, result)) in batch.iter().zip(&routed_out.results).enumerate() {
        let Query::Range { q, radius } = query else {
            unreachable!()
        };
        assert_eq!(result, &plain_out.results[i], "query {i} vs plain");
        let want = sorted_range(&oracle, q, *radius);
        assert_eq!(result.as_range().unwrap(), want, "query {i} vs brute force");
    }

    // kNN: brute force's answers in brute force's order, and best-first
    // probing prunes the far blobs once the heap fills from the query's
    // own blob.
    routed.reset_counters();
    let knn_batch: Vec<Query<Vec<f32>>> = (0..100)
        .map(|i| Query::knn(pts[(i * 97) % pts.len()].clone(), 10))
        .collect();
    let knn_out = routed.serve(&knn_batch);
    let plain_knn = plain.serve(&knn_batch);
    assert!(
        knn_out.report.shards_pruned > 0,
        "kNN best-first must prune far blobs"
    );
    let ordered = |ns: &[Neighbor]| -> Vec<(u32, u64)> {
        ns.iter().map(|n| (n.id, n.dist.to_bits())).collect()
    };
    for (i, (query, result)) in knn_batch.iter().zip(&knn_out.results).enumerate() {
        let Query::Knn { q, k } = query else {
            unreachable!()
        };
        let want = ordered(&oracle.knn_query(q, *k));
        assert_eq!(ordered(result.as_knn().unwrap()), want, "kNN query {i}");
        let got = ordered(plain_knn.results[i].as_knn().unwrap());
        assert_eq!(got, want, "kNN query {i}, plain");
    }
}

/// Mixed batch through `serve` on a routed engine, versus per-query answers
/// from the unsharded baseline.
#[test]
fn routed_mixed_batch_matches_unsharded_baseline() {
    let pts = gaussian_blobs(900, 6, 0x5eed);
    let radius = pmr::datasets::calibrate_radius(&pts, &L2, 0.05, 3);
    let single = build_vector_index(IndexKind::Laesa, pts.clone(), L2, &opts()).unwrap();
    let engine = build_sharded_vector_engine(
        IndexKind::Laesa,
        pts.clone(),
        L2,
        &opts(),
        &EngineConfig {
            shards: 6,
            threads: 3,
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .unwrap();
    let batch: Vec<Query<Vec<f32>>> = (0..300)
        .map(|i| {
            let q = pts[(i * 131) % pts.len()].clone();
            if i % 2 == 0 {
                Query::range(q, radius * (1.0 + (i % 4) as f64 * 0.5))
            } else {
                Query::knn(q, 1 + i % 17)
            }
        })
        .collect();
    let out = engine.serve(&batch);
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
                assert_eq!(
                    knn_multiset(ns),
                    knn_multiset(&single.knn_query(q, *k)),
                    "query {i} MkNNQ"
                );
            }
            _ => panic!("result {i} has the wrong variant"),
        }
    }
}

fn vecs(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-1000.0f32..1000.0, dim..=dim), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shard pruning must never drop an answer: for random datasets,
    /// radii, k, shard counts and index kinds, the routed engine equals the
    /// unsharded baseline — range as id sets, kNN as (id, dist) multisets.
    #[test]
    fn routed_engine_matches_unsharded_on_random_data(
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
        for q in [&v[0], &v[v.len() - 1]] {
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
}
