//! The shared pivot-distance matrix build path (ISSUE 3): a sharded build
//! computes the `n × l` matrix **once**, routes over it, and seeds every
//! shard's pivot table from its slice — with answers byte-identical to the
//! recompute path and exactly `n · l` fewer shard-side distance
//! computations.

use pivot_metric_repro as pmr;
use pmr::builder::{build_index, build_vector_index, BuildOptions, IndexKind};
use pmr::engine::{EngineConfig, Layout, Query, ShardedEngine};
use pmr::{build_sharded_vector_engine, Metric, Neighbor, PartitionPolicy, L2};
use proptest::prelude::*;

fn opts() -> BuildOptions {
    BuildOptions {
        d_plus: 14143.0,
        maxnum: 64,
        ..BuildOptions::default()
    }
}

fn hfi_pivots(pts: &[Vec<f32>], opts: &BuildOptions) -> Vec<Vec<f32>> {
    pmr::pivots::select_hfi(pts, &L2, opts.num_pivots, opts.seed)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect()
}

/// The *recompute* reference the shared rows replace: laid out exactly
/// like the facade's engine, but the factory ignores the rows it is handed
/// and lets every shard rebuild its own pivot table from scratch via
/// `build_index`.
fn recompute_engine(
    kind: IndexKind,
    pts: &[Vec<f32>],
    opts: &BuildOptions,
    cfg: &EngineConfig,
) -> ShardedEngine<Vec<f32>> {
    let pivots = hfi_pivots(pts, opts);
    let map_pivots = pivots.clone();
    let layout = Layout::mapped(pivots.len(), move |o: &[f32], out: &mut Vec<f64>| {
        out.extend(map_pivots.iter().map(|p| L2.dist(o, p)))
    });
    ShardedEngine::build(pts.to_vec(), layout, cfg, |_, part, _| {
        build_index(kind, part, L2, pivots.clone(), opts)
    })
    .unwrap()
}

/// Per-shard counters of the shards whose own table stores its rows under
/// the step `of` stores them under. The shared path hands every shard the
/// one step of the whole matrix; a shard that recomputes its table sizes
/// the step from its own members, which may be finer — and a finer bucket
/// is a different filter, with its own count.
fn counters_where_steps_agree(
    of: &ShardedEngine<Vec<f32>>,
    with: &ShardedEngine<Vec<f32>>,
) -> Vec<(usize, pmr::Counters)> {
    let step = |e: &ShardedEngine<Vec<f32>>, s: usize| {
        let rows = e.shards()[s].index().pivot_rows();
        rows.expect("LAESA and CPT own their rows").step()
    };
    let counters = of.shard_counters();
    (0..of.num_shards())
        .filter(|&s| step(of, s) == step(with, s))
        .map(|s| (s, counters[s]))
        .collect()
}

fn knn_multiset(ns: &[Neighbor]) -> Vec<(u32, u64)> {
    let mut v: Vec<(u32, u64)> = ns.iter().map(|n| (n.id, n.dist.to_bits())).collect();
    v.sort_unstable();
    v
}

/// The ISSUE's acceptance criterion: a `PivotSpace` P-shard LAESA build
/// over the shared matrix performs exactly `n · l` fewer shard-side metric
/// evaluations than the recompute path (the matrix is computed once, not
/// once for routing plus once per shard), with byte-identical answers.
#[test]
fn pivot_space_build_saves_n_times_l_distance_computations() {
    let n = 1_200usize;
    let pts = pmr::datasets::la(n, 3);
    let opts = opts();
    let l = opts.num_pivots as u64;
    let cfg = EngineConfig {
        shards: 6,
        threads: 2,
        ..EngineConfig::default()
    };

    let shared = build_sharded_vector_engine(
        IndexKind::Laesa,
        pts.clone(),
        L2,
        &opts,
        &cfg,
        PartitionPolicy::PivotSpace,
    )
    .unwrap();
    let recompute = recompute_engine(IndexKind::Laesa, &pts, &opts, &cfg);

    // Shard-side construction cost: n·l for the recompute path (each shard
    // pays its |shard|·l), exactly zero for the shared-matrix path.
    let shard_side_recompute: u64 = recompute.shard_counters().iter().map(|c| c.compdists).sum();
    let shard_side_shared: u64 = shared.shard_counters().iter().map(|c| c.compdists).sum();
    assert_eq!(
        shard_side_recompute,
        n as u64 * l,
        "recompute path pays n·l in shards"
    );
    assert_eq!(shard_side_shared, 0, "shared path adopts every row");
    assert_eq!(
        shard_side_recompute - shard_side_shared,
        n as u64 * l,
        "exactly n·l distance computations saved"
    );
    // And the shared path's total build cost (matrix included) is the
    // matrix computed once.
    assert_eq!(shared.build_stats().build_compdists, n as u64 * l);

    // Byte-identical answers between the two build paths, and correct
    // against the unsharded oracle.
    let single = build_vector_index(IndexKind::Laesa, pts.clone(), L2, &opts).unwrap();
    let radius = pmr::datasets::calibrate_radius(&pts, &L2, 0.02, 3);
    let batch: Vec<Query<Vec<f32>>> = (0..120)
        .map(|i| {
            let q = pts[(i * 37) % n].clone();
            if i % 2 == 0 {
                Query::range(q, radius)
            } else {
                Query::knn(q, 1 + i % 13)
            }
        })
        .collect();
    let out_shared = shared.serve(&batch);
    let out_recompute = recompute.serve(&batch);
    for (i, (a, b)) in out_shared
        .results
        .iter()
        .zip(&out_recompute.results)
        .enumerate()
    {
        assert_eq!(a, b, "query {i}: shared vs recompute");
    }
    for (i, q) in batch.iter().enumerate() {
        match (q, &out_shared.results[i]) {
            (Query::Range { q, radius }, r) => {
                let mut want = single.range_query(q, *radius);
                want.sort_unstable();
                assert_eq!(r.as_range().unwrap(), want, "query {i} vs oracle");
            }
            (Query::Knn { q, k }, r) => {
                assert_eq!(
                    knn_multiset(r.as_knn().unwrap()),
                    knn_multiset(&single.knn_query(q, *k)),
                    "query {i} vs oracle"
                );
            }
        }
    }
}

/// Query-time cost parity: the adopted matrix must drive exactly the same
/// Lemma 1 scan as the recomputed tables — same compdists, same page
/// accesses, per shard. (Over this sample every shard reaches far enough
/// from a pivot to size the step the whole matrix has.)
#[test]
fn matrix_and_recompute_engines_scan_identically() {
    let pts = pmr::datasets::la(700, 9);
    let opts = opts();
    let cfg = EngineConfig {
        shards: 5,
        threads: 2,
        ..EngineConfig::default()
    };
    for kind in [IndexKind::Laesa, IndexKind::Cpt] {
        let policy = PartitionPolicy::PivotSpace;
        let shared =
            build_sharded_vector_engine(kind, pts.clone(), L2, &opts, &cfg, policy).unwrap();
        let recompute = recompute_engine(kind, &pts, &opts, &cfg);
        shared.reset_counters();
        recompute.reset_counters();
        let batch: Vec<Query<Vec<f32>>> = (0..60)
            .map(|i| {
                let q = pts[(i * 53) % pts.len()].clone();
                if i % 2 == 0 {
                    Query::range(q, 400.0)
                } else {
                    Query::knn(q, 8)
                }
            })
            .collect();
        let a = shared.serve(&batch);
        let b = recompute.serve(&batch);
        assert_eq!(a.results, b.results, "{kind:?}");
        let scanned = counters_where_steps_agree(&shared, &recompute);
        assert_eq!(scanned.len(), cfg.shards, "{kind:?}: one step");
        assert_eq!(
            scanned,
            counters_where_steps_agree(&recompute, &shared),
            "{kind:?}: identical per-shard scan cost"
        );
        assert_eq!(
            (a.report.shards_probed, a.report.shards_pruned),
            (b.report.shards_probed, b.report.shards_pruned),
            "{kind:?}: identical routing"
        );
    }
}

fn vecs(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-1000.0f32..1000.0, dim..=dim), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random datasets, radii, k, shard counts and all matrix-affected
    /// index kinds, the shared-matrix engine returns
    /// byte-identical answers to the recompute-path engine (and correct
    /// answers vs the unsharded oracle), at identical query compdists in
    /// every shard the two store under one step.
    #[test]
    fn matrix_engines_match_recompute_on_random_data(
        v in vecs(3, 60..140),
        r in 10.0f64..3000.0,
        k in 1usize..10,
        shards_pick in 0usize..4,
        kind_pick in 0usize..2,
    ) {
        let shards = [1usize, 2, 4, 7][shards_pick];
        let kind = [IndexKind::Laesa, IndexKind::Cpt][kind_pick];
        let policy = PartitionPolicy::PivotSpace;
        let opts = BuildOptions {
            d_plus: 8000.0,
            num_pivots: 3,
            ..BuildOptions::default()
        };
        let cfg = EngineConfig { shards, threads: 2, ..EngineConfig::default() };
        let single = build_vector_index(kind, v.clone(), L2, &opts).unwrap();
        let shared =
            build_sharded_vector_engine(kind, v.clone(), L2, &opts, &cfg, policy).unwrap();
        let recompute = recompute_engine(kind, &v, &opts, &cfg);
        // LAESA shards never recompute adopted rows (CPT still pays its
        // M-tree construction, so only the n·l table vanishes there).
        if kind == IndexKind::Laesa {
            prop_assert_eq!(
                shared.shard_counters().iter().map(|c| c.compdists).sum::<u64>(), 0,
                "LAESA adopts the matrix"
            );
        }
        shared.reset_counters();
        recompute.reset_counters();
        for q in [&v[0], &v[v.len() - 1]] {
            let mut want = single.range_query(q, r);
            want.sort_unstable();
            let got_range = shared.range_query(q, r);
            let got_range_recompute = recompute.range_query(q, r);
            prop_assert_eq!(
                &got_range, &want,
                "{} P={} MRQ", kind.label(), shards
            );
            prop_assert_eq!(
                got_range, got_range_recompute,
                "{} P={} MRQ vs recompute", kind.label(), shards
            );
            let got_knn = shared.knn_query(q, k);
            let got_knn_recompute = recompute.knn_query(q, k);
            prop_assert_eq!(
                knn_multiset(&got_knn),
                knn_multiset(&single.knn_query(q, k)),
                "{} P={} MkNNQ", kind.label(), shards
            );
            prop_assert_eq!(
                got_knn, got_knn_recompute,
                "{} P={} MkNNQ vs recompute", kind.label(), shards
            );
        }
        prop_assert_eq!(
            counters_where_steps_agree(&shared, &recompute),
            counters_where_steps_agree(&recompute, &shared),
            "{} P={}: identical query cost", kind.label(), shards
        );
    }
}
