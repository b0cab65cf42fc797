//! Robustness: malformed queries must never panic the engine — across
//! index kinds — and must come back as typed
//! per-item [`QueryError`]s while the valid queries sharing the batch
//! return byte-identical results to a malformed-free serve. This is the
//! serve-boundary contract of `docs/robustness.md`: validation happens
//! once at the boundary, the layers below assume well-formed input.
//! And budget pressure degrades, it never corrupts: tightening compdist
//! caps turns monotonically more queries into subsets of their exact
//! answer, and a blown batch deadline sheds the batch without touching a
//! shard (the `robust.degraded_ok` invariant of the retired
//! `scan_throughput` bench, here on every run).

use pivot_metric_repro as pmr;
use pmr::builder::{build_index, BuildOptions, IndexKind};
use pmr::engine::{EngineConfig, Layout, Query, QueryResult};
use pmr::{
    build_sharded_vector_engine, LInf, ObjId, OpError, OpErrorKind, PartitionPolicy, QueryBudget,
    QueryError, ServeBudget, ShardedEngine, UpdateBatch, L2,
};
use proptest::prelude::*;

const N: usize = 150;
const KINDS: [IndexKind; 4] = [
    IndexKind::Laesa,
    IndexKind::Cpt,
    IndexKind::Ept,
    IndexKind::Fqa,
];

fn opts() -> BuildOptions {
    BuildOptions {
        d_plus: 14143.0,
        maxnum: 64,
        ..BuildOptions::default()
    }
}

fn cfg() -> EngineConfig {
    EngineConfig {
        shards: 3,
        threads: 2,
        ..EngineConfig::default()
    }
}

/// One malformed (or extreme-but-valid) query per pick. The first five are
/// rejected with the given error; the last two are legal edge cases that
/// must execute normally.
fn hostile(pick: usize, pts: &[Vec<f32>]) -> (Query<Vec<f32>>, Option<QueryError>) {
    match pick {
        0 => (
            Query::range(pts[0].clone(), f64::NAN),
            Some(QueryError::NanRadius),
        ),
        1 => (
            Query::range(pts[1].clone(), -1.0),
            Some(QueryError::NegativeRadius),
        ),
        2 => (Query::knn(pts[2].clone(), 0), Some(QueryError::ZeroK)),
        3 => (
            Query::range(vec![f32::NAN, 0.0], 100.0),
            Some(QueryError::InvalidObject),
        ),
        4 => (
            Query::knn(vec![f32::INFINITY, 0.0], 5),
            Some(QueryError::InvalidObject),
        ),
        // r = +∞ is a valid "match everything".
        5 => (Query::range(pts[3].clone(), f64::INFINITY), None),
        // k = n + 1 is a valid "rank everything".
        _ => (Query::knn(pts[4].clone(), N + 1), None),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn malformed_queries_never_panic_or_perturb(
        picks in prop::collection::vec(0usize..7, 1..5),
        valid in prop::collection::vec((0usize..N, 0usize..4), 1..5),
        interleave in any::<u64>(),
    ) {
        let pts = pmr::datasets::la(N, 21);
        let valid_qs: Vec<Query<Vec<f32>>> = valid
            .iter()
            .map(|&(qi, v)| match v {
                0 => Query::range(pts[qi].clone(), 200.0),
                1 => Query::range(pts[qi].clone(), 800.0),
                2 => Query::knn(pts[qi].clone(), 1),
                _ => Query::knn(pts[qi].clone(), 10),
            })
            .collect();
        let hostile_qs: Vec<(Query<Vec<f32>>, Option<QueryError>)> =
            picks.iter().map(|&p| hostile(p, &pts)).collect();

        // Interleave valid and hostile queries deterministically from the
        // generated bit pattern, remembering where each one landed.
        let mut mixed: Vec<Query<Vec<f32>>> = Vec::new();
        let mut valid_pos = Vec::new();
        let mut hostile_pos = Vec::new();
        let (mut vi, mut hi, mut bits) = (0usize, 0usize, interleave);
        while vi < valid_qs.len() || hi < hostile_qs.len() {
            let take_valid = hi >= hostile_qs.len() || (vi < valid_qs.len() && bits & 1 == 0);
            bits = bits.rotate_right(1);
            if take_valid {
                valid_pos.push(mixed.len());
                mixed.push(valid_qs[vi].clone());
                vi += 1;
            } else {
                hostile_pos.push(mixed.len());
                mixed.push(hostile_qs[hi].0.clone());
                hi += 1;
            }
        }

        for kind in KINDS {
            let policy = PartitionPolicy::PivotSpace;
            // FQA buckets distances, which requires a discrete metric;
            // the other kinds run the paper's L2 setup.
            let engine = if kind == IndexKind::Fqa {
                build_sharded_vector_engine(
                    kind,
                    pts.clone(),
                    LInf::discrete(),
                    &opts(),
                    &cfg(),
                    policy,
                )
                .unwrap()
            } else {
                build_sharded_vector_engine(kind, pts.clone(), L2, &opts(), &cfg(), policy)
                    .unwrap()
            };
            // Neither serve may panic; the engine stays usable after.
            let mixed_out = engine.serve(&mixed);
            let clean_out = engine.serve(&valid_qs);
            prop_assert_eq!(mixed_out.results.len(), mixed.len());

            // Valid queries are byte-identical to the clean batch.
            for (ci, &mi) in valid_pos.iter().enumerate() {
                prop_assert_eq!(
                    &mixed_out.results[mi],
                    &clean_out.results[ci],
                    "{}: valid query {} perturbed by hostile neighbors",
                    kind.label(),
                    ci
                );
            }

            // Hostile queries come back as the expected typed error —
            // or, for the legal extremes, as complete exact answers.
            let mut failed = 0usize;
            for (hi, &mi) in hostile_pos.iter().enumerate() {
                let res = &mixed_out.results[mi];
                match &hostile_qs[hi].1 {
                    Some(err) => {
                        failed += 1;
                        prop_assert_eq!(
                            res,
                            &QueryResult::Failed(*err),
                            "{}: hostile query {}",
                            kind.label(),
                            hi
                        );
                    }
                    None => match res {
                        QueryResult::Range(ids) => prop_assert_eq!(ids.len(), N),
                        QueryResult::Knn(ns) => prop_assert_eq!(ns.len(), N),
                        other => prop_assert!(
                            false,
                            "{}: extreme-but-valid query degraded: {:?}",
                            kind.label(),
                            other
                        ),
                    },
                }
            }
            prop_assert_eq!(mixed_out.report.failed, failed);
            prop_assert_eq!(clean_out.report.failed, 0);
        }
    }
}

/// The norms score two vectors over their common prefix, and the object
/// tables store one fixed stride: on a 2-d engine, a 3-d query comes back
/// as `InvalidObject`, a 1-d insert as the op's `InvalidObject`, and the
/// engine serves and holds exactly what it did before.
#[test]
fn a_vector_of_another_dimension_is_refused_at_the_boundary() {
    let pts = pmr::datasets::la(N, 21);
    let policy = PartitionPolicy::PivotSpace;
    let mut engine =
        build_sharded_vector_engine(IndexKind::Laesa, pts.clone(), L2, &opts(), &cfg(), policy)
            .unwrap();
    let valid = [
        Query::range(pts[0].clone(), 800.0),
        Query::knn(pts[1].clone(), 10),
    ];
    let before = engine.serve(&valid).results;

    let wrong = [
        Query::range(vec![pts[0][0], pts[0][1], 0.0], 800.0),
        Query::knn(vec![pts[1][0], pts[1][1], 0.0], 10),
    ];
    let out = engine.serve(&wrong);
    for r in &out.results {
        assert_eq!(r, &QueryResult::Failed(QueryError::InvalidObject));
    }

    let mut batch = UpdateBatch::new();
    batch.insert(vec![pts[2][0]]);
    let report = engine.apply(&batch);
    assert_eq!(report.inserts, 0);
    assert_eq!(
        report.op_errors,
        vec![OpError {
            op: 0,
            kind: OpErrorKind::InvalidObject
        }]
    );
    assert_eq!(engine.len(), N);
    assert_eq!(engine.get(N as ObjId), None);
    assert_eq!(engine.serve(&valid).results, before);
}

/// Deadline pressure on a plain LAESA engine — every query probes all 8
/// shards, so a budget can always cut one short — one worker so the
/// accounting is deterministic: under compdist caps ∞, 1 000, 100, 1 the degraded count
/// never falls and ends at the whole batch, every answer along the way is a
/// subset of the exact one, and a 1 ns batch deadline sheds every query
/// before any shard is probed.
#[test]
fn tightening_budgets_degrade_monotonically_and_never_invent_answers() {
    const BATCH: usize = 64;
    let pts = pmr::datasets::la(2_000, 21);
    let radius = pmr::datasets::calibrate_radius(&pts, &L2, 0.04, 21);
    let opts = opts();
    let pivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(&pts, &L2, opts.num_pivots, opts.seed)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect();
    let cfg = EngineConfig {
        shards: 8,
        threads: 1,
        ..EngineConfig::default()
    };
    let engine = ShardedEngine::build(pts.clone(), Layout::plain(), &cfg, |_, part, _| {
        build_index(IndexKind::Laesa, part, L2, pivots.clone(), &opts)
    })
    .unwrap();
    let batch: Vec<Query<Vec<f32>>> = (0..BATCH)
        .map(|i| Query::range(pts[(i * 131) % pts.len()].clone(), radius))
        .collect();
    let exact = engine.serve(&batch);
    assert_eq!(exact.report.degraded + exact.report.shed, 0);
    let mut degraded = 0;
    for cap in [0u64, 1_000, 100, 1] {
        // A cap of 0 disables the budget.
        engine.set_budget(ServeBudget {
            query: QueryBudget {
                wall_nanos: 0,
                compdists: cap,
            },
            batch_wall_nanos: 0,
        });
        let out = engine.serve(&batch);
        for (got, want) in out.results.iter().zip(&exact.results) {
            let (got, want) = (got.as_range().unwrap(), want.as_range().unwrap());
            assert!(got.iter().all(|id| want.contains(id)), "cap {cap}");
        }
        assert!(
            out.report.degraded >= degraded,
            "cap {cap}: {} degraded, {degraded} under the looser cap",
            out.report.degraded
        );
        assert_eq!(out.report.shed, 0, "cap {cap}");
        degraded = out.report.degraded;
    }
    assert_eq!(degraded, BATCH, "a one-distance cap degrades every query");
    engine.set_budget(ServeBudget {
        query: QueryBudget::unlimited(),
        batch_wall_nanos: 1,
    });
    engine.reset_counters();
    let shed = engine.serve(&batch);
    assert_eq!(shed.report.shed, BATCH);
    assert_eq!(engine.counters().compdists, 0, "no shard was touched");
}
