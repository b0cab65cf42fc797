//! Convenience constructors wiring [`builder`](crate::builder) into the
//! sharded serving engine (`pmi-engine`, re-exported as [`crate::engine`])
//! and the pivot-space router (`pmi-router`, re-exported as
//! [`crate::router`]).
//!
//! The engine itself is index-agnostic — it takes a shard factory. These
//! helpers close the loop for the common case: "shard this dataset across
//! `P` partitions of its pivot space, each backed by `IndexKind` X built
//! with the paper's shared parameters, and route queries by it".
//!
//! # The pivot space
//!
//! The paper's central object — the `n × l` matrix of object-to-pivot
//! distances — belongs to the engine: this module hands
//! [`ShardedEngine::build`] the mapper `o ↦ (d(o, p_1), …, d(o, p_l))` over
//! the shared pivots and supplies the shard factory. The engine computes
//! the rows **once, in parallel** across its worker threads and derives
//! everything else from them:
//!
//! * it cuts the rows into balanced cells (recursive median cuts of the
//!   pivot space) and builds its per-shard
//!   [`pmi_router::RoutingTable`] boxes from them, so each query only
//!   probes the shards whose bounding box survives Lemma 1;
//! * each shard gets its members' rows, stored once as planar u16 bucket
//!   columns of its own (the only form a pivot distance is stored in), and
//!   the shard factory receives them, so the kinds that adopt them (LAESA,
//!   CPT, and FQA, whose shards are the pivot table under FQA's name — an
//!   FQA over stored rows scans them and never reads its signatures) skip
//!   their own `n · l` recomputation entirely — each object-pivot distance
//!   is computed exactly once instead of twice — and scan sequential
//!   memory;
//! * the shards keep their rows (inside the index for adopting kinds,
//!   beside it otherwise) for the engine's unified mutation path: an
//!   `apply`-batch insert maps its object once and hands the row to the
//!   destination shard, removes shrink routing boxes over the surviving
//!   rows, and the `RefreshPolicy` re-cuts every shard under imbalance.
//!
//! An engine whose pivot space has zero width — every bound 0, so every
//! shard is probed, over balanced contiguous runs — is built directly:
//! `ShardedEngine::build(objects, Layout::plain(), cfg, ..)` with
//! [`build_index`](crate::builder::build_index) as the factory (its shards
//! keep their own pivots, and the engine's empty rows beside them). The exact build cost (rows + every
//! shard's construction) and build wall-clock are recorded in the engine's
//! [`BuildStats`](pmi_engine::BuildStats) and surfaced through every
//! `ServeReport`. Query-time mapping distances (`l` per routed query)
//! remain planner overhead outside the per-shard `Counters`, as before;
//! mutation-side mapping distances are accounted exactly in each
//! [`ApplyReport`](pmi_engine::ApplyReport).

use crate::builder::{build_index_with_matrix, BuildError, BuildOptions, IndexKind};
use pmi_engine::{EngineConfig, EngineError, Layout, ShardedEngine};
use pmi_metric::{dists_from, views, Metric, Object};

/// How the facade's engines partition their dataset: by pivot space, the
/// one policy — each shard covers a compact pivot-space region, and
/// queries prune shards by Lemma 1 box bounds and probe the rest
/// best-first. The argument stays only because existing callers name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PartitionPolicy {
    /// Cut the pivot space into balanced cells and route by them.
    PivotSpace,
}

fn flatten<O: Object>(
    r: Result<ShardedEngine<O>, EngineError<BuildError>>,
) -> Result<ShardedEngine<O>, BuildError> {
    r.map_err(|e| match e {
        EngineError::ZeroShards => BuildError::ZeroShards,
        EngineError::BadMembership(why) => BuildError::BadMembership(why),
        EngineError::Build(b) => b,
    })
}

/// Builds a routed sharded engine whose shards are all `kind` indexes
/// built with `opts`, sharing the caller-provided pivot set (the paper's
/// equal-footing setup: pass one HFI set and every shard uses it). The
/// engine computes the pivot rows once, in parallel, cuts the pivot space
/// into balanced cells over them, one a shard, and uses the rows for
/// routing *and* for seeding the shards' own tables (see the module docs);
/// its `build_stats()` records the exact total.
pub fn build_sharded_engine<O, M>(
    kind: IndexKind,
    objects: Vec<O>,
    metric: M,
    pivots: Vec<O>,
    opts: &BuildOptions,
    cfg: &EngineConfig,
    _: PartitionPolicy,
) -> Result<ShardedEngine<O>, BuildError>
where
    O: Object,
    M: Metric<O> + Clone + 'static,
{
    let (map_metric, map_pivots) = (metric.clone(), pivots.clone());
    let layout = Layout::mapped(pivots.len(), move |o: &O::Target, out: &mut Vec<f64>| {
        dists_from(&map_metric, o, views(&map_pivots), |_, d| out.push(d))
    });
    flatten(ShardedEngine::build(
        objects,
        layout,
        cfg,
        |_, part, rows| {
            build_index_with_matrix(kind, part, metric.clone(), pivots.clone(), opts, rows)
        },
    ))
}

/// Vector-dataset convenience: selects one shared HFI pivot set over the
/// *full* dataset (so shards stay on equal footing with an unsharded
/// build), on the engine's `cfg.threads` — the same pivots as one thread
/// picks — then builds the routed engine. At most `n` pivots are selected,
/// so a kind that needs more refuses with [`BuildError::NotEnoughPivots`].
/// Selection happens before `ShardedEngine::build`, so it is outside
/// `BuildStats::build_wall_secs`.
///
/// Vector queries and inserts additionally get an input validator: an
/// object with a non-finite coordinate, or of another dimension than the
/// corpus's, is rejected at the serve boundary as
/// [`pmi_engine::QueryError::InvalidObject`] (an insert as
/// [`pmi_engine::OpErrorKind::InvalidObject`]) instead of poisoning
/// distance comparisons (NaN breaks metric axioms silently, and the norms
/// would score a shorter vector over the common prefix) or reaching the
/// object tables, whose fixed stride refuses it. See `docs/robustness.md`.
pub fn build_sharded_vector_engine<M>(
    kind: IndexKind,
    objects: Vec<Vec<f32>>,
    metric: M,
    opts: &BuildOptions,
    cfg: &EngineConfig,
    policy: PartitionPolicy,
) -> Result<ShardedEngine<Vec<f32>>, BuildError>
where
    M: Metric<Vec<f32>> + Clone + 'static,
{
    let ids = pmi_pivots::select_hfi_with_threads(
        &objects,
        &metric,
        opts.num_pivots.min(objects.len()),
        opts.seed,
        cfg.resolved_threads(),
    );
    let pivots = ids.into_iter().map(|i| objects[i].clone()).collect();
    let dim = objects.first().map(Vec::len);
    let mut engine = build_sharded_engine(kind, objects, metric, pivots, opts, cfg, policy)?;
    engine.set_query_validator(move |o: &Vec<f32>| {
        dim.is_none_or(|d| o.len() == d) && o.iter().all(|c| c.is_finite())
    });
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_engine::Query;
    use pmi_metric::{datasets, BruteForce, MetricIndex, L2};

    #[test]
    fn sharded_laesa_matches_oracle() {
        let pts = datasets::la(400, 11);
        let opts = BuildOptions {
            d_plus: 14143.0,
            ..BuildOptions::default()
        };
        let engine = build_sharded_vector_engine(
            IndexKind::Laesa,
            pts.clone(),
            L2,
            &opts,
            &EngineConfig {
                shards: 4,
                threads: 2,
                ..EngineConfig::default()
            },
            PartitionPolicy::PivotSpace,
        )
        .unwrap();
        assert_eq!(engine.len(), 400);
        assert!(engine.routing().is_some());
        let oracle = BruteForce::new(pts.clone(), L2);
        let mut want = oracle.range_query(&pts[3], 800.0);
        want.sort_unstable();
        assert_eq!(engine.range_query(&pts[3], 800.0), want);
    }

    #[test]
    fn shared_matrix_build_computes_each_distance_once() {
        // LAESA adopts its rows of the matrix: the matrix is computed once
        // (n·l, recorded in BuildStats) and the shards compute *zero*
        // build distances — the recompute path paid n·l again there.
        let pts = datasets::la(600, 7);
        let opts = BuildOptions {
            d_plus: 14143.0,
            ..BuildOptions::default()
        };
        let engine = build_sharded_vector_engine(
            IndexKind::Laesa,
            pts.clone(),
            L2,
            &opts,
            &EngineConfig {
                shards: 4,
                threads: 2,
                ..EngineConfig::default()
            },
            PartitionPolicy::PivotSpace,
        )
        .unwrap();
        assert_eq!(
            engine.counters().compdists,
            0,
            "shards must adopt, not recompute"
        );
        let stats = engine.build_stats();
        assert_eq!(
            stats.build_compdists,
            600 * opts.num_pivots as u64,
            "matrix computed exactly once"
        );
        assert!(stats.build_wall_secs > 0.0);
    }

    #[test]
    fn build_phase_covers_its_children() {
        // Two threads: shard builds overlap, and the tree must still nest.
        let engine = build_sharded_vector_engine(
            IndexKind::Laesa,
            datasets::la(20_000, 3),
            L2,
            &BuildOptions {
                d_plus: 14143.0,
                ..BuildOptions::default()
            },
            &EngineConfig {
                shards: 4,
                threads: 2,
                ..EngineConfig::default()
            },
            PartitionPolicy::PivotSpace,
        )
        .unwrap();
        let snap = engine.metrics();
        let phase = |path: &str| {
            snap.phases
                .iter()
                .find(|p| p.path == path)
                .unwrap_or_else(|| panic!("no `{path}` phase in\n{}", snap.render()))
        };
        let build = phase("build");
        assert_eq!(build.calls, 1);
        // Phase walls are whole nanoseconds, the build stats a float of the
        // same clock reading.
        assert!((build.wall_secs - engine.build_stats().build_wall_secs).abs() < 1e-8);
        let children: f64 = snap
            .phases
            .iter()
            .filter(|p| p.path.starts_with("build."))
            .map(|p| p.wall_secs)
            .sum();
        assert!(
            children <= build.wall_secs,
            "children {children} s > build {} s\n{}",
            build.wall_secs,
            snap.render()
        );
        let count = |p: &pmi_obs::PhaseSnapshot, name: &str| {
            p.counters.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
        };
        let partition = phase("build.partition");
        assert_eq!(count(partition, "shards"), Some(4));
        // The split between the partition and the shard builds — the
        // objects' moves, the shards' columns and the routing table — is a
        // phase of its own, so that no build time is left unlabelled.
        for path in ["build.matrix", "build.split", "build.shards"] {
            assert!(phase(path).wall_secs > 0.0, "{path}");
        }
    }

    #[test]
    fn pivot_space_routing_prunes_on_clustered_data() {
        // LA is clustered, so selective range queries must skip shards.
        let pts = datasets::la(800, 5);
        let radius = datasets::calibrate_radius(&pts, &L2, 0.01, 5);
        let opts = BuildOptions {
            d_plus: 14143.0,
            ..BuildOptions::default()
        };
        let engine = build_sharded_vector_engine(
            IndexKind::Laesa,
            pts.clone(),
            L2,
            &opts,
            &EngineConfig {
                shards: 8,
                threads: 1,
                ..EngineConfig::default()
            },
            PartitionPolicy::PivotSpace,
        )
        .unwrap();
        engine.reset_counters();
        let batch: Vec<Query<Vec<f32>>> = (0..50)
            .map(|i| Query::range(pts[i].clone(), radius))
            .collect();
        let out = engine.serve(&batch);
        assert!(
            out.report.shards_pruned > 0,
            "selective queries on clustered data must skip shards"
        );
        assert_eq!(
            out.report.shards_probed + out.report.shards_pruned,
            50 * 8,
            "every query accounts for all 8 shards"
        );
    }

    #[test]
    fn build_errors_surface() {
        let pts = datasets::la(50, 1);
        let err = build_sharded_vector_engine(
            IndexKind::Bkt,
            pts,
            L2,
            &BuildOptions::default(),
            &EngineConfig::default(),
            PartitionPolicy::PivotSpace,
        );
        assert!(matches!(err, Err(BuildError::RequiresDiscreteMetric(_))));
    }

    #[test]
    fn zero_shards_is_a_build_error() {
        let err = build_sharded_vector_engine(
            IndexKind::Laesa,
            datasets::la(20, 1),
            L2,
            &BuildOptions::default(),
            &EngineConfig {
                shards: 0,
                threads: 1,
                ..EngineConfig::default()
            },
            PartitionPolicy::PivotSpace,
        );
        assert_eq!(err.err(), Some(BuildError::ZeroShards));
    }

    #[test]
    fn serve_mixed_batch() {
        let pts = datasets::la(300, 5);
        let opts = BuildOptions {
            d_plus: 14143.0,
            ..BuildOptions::default()
        };
        let engine = build_sharded_vector_engine(
            IndexKind::Mvpt,
            pts.clone(),
            L2,
            &opts,
            &EngineConfig {
                shards: 3,
                threads: 2,
                ..EngineConfig::default()
            },
            PartitionPolicy::PivotSpace,
        )
        .unwrap();
        let batch: Vec<Query<Vec<f32>>> = (0..40)
            .map(|i| {
                if i % 2 == 0 {
                    Query::range(pts[i].clone(), 500.0)
                } else {
                    Query::knn(pts[i].clone(), 10)
                }
            })
            .collect();
        engine.reset_counters();
        let out = engine.serve(&batch);
        assert_eq!(out.results.len(), 40);
        assert!(out.report.cost.compdists > 0);
        assert_eq!(
            out.report.cost.compdists,
            engine.counters().compdists,
            "batch delta equals total on fresh counters"
        );
        assert!(
            out.report.build.build_compdists > 0,
            "build stats ride along in the report"
        );
    }
}
