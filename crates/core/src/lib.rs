//! `pmi` — Pivot-based Metric Indexing.
//!
//! A from-scratch Rust reproduction of *Pivot-based Metric Indexing*
//! (Chen, Gao, Zheng, Jensen, Yang, Yang — PVLDB 10(10), 2017): all three
//! families of pivot-based metric indexes surveyed by the paper, the two
//! enhancements it contributes (EPT*, M-index*), the substrates they need,
//! and a uniform [`MetricIndex`] interface with the paper's cost model
//! (distance computations + page accesses) built in.
//!
//! # Quick start
//!
//! ```
//! use pmi::{builder, BuildOptions, IndexKind};
//!
//! // 1. A dataset and its metric (2-d city locations under L2).
//! let objects = pmi::datasets::la(2_000, 42);
//! let metric = pmi::L2;
//!
//! // 2. Build any of the paper's indexes through one entry point.
//! let mut index = builder::build_vector_index(
//!     IndexKind::Mvpt,
//!     objects.clone(),
//!     metric,
//!     &BuildOptions::default(),
//! )
//! .unwrap();
//!
//! // 3. Metric range and k-NN queries (Definitions 1–2 of the paper).
//! let hits = index.range_query(&objects[0], 500.0);
//! let knn = index.knn_query(&objects[0], 10);
//! assert!(hits.contains(&0));
//! assert_eq!(knn[0].id, 0);
//!
//! // 4. The paper's cost metrics are tracked automatically.
//! let c = index.counters();
//! assert!(c.compdists > 0);
//! ```
//!
//! # Serving batches with the sharded engine
//!
//! The [`engine`] module (crate `pmi-engine`) turns any of the indexes into
//! a concurrent query-serving tier: the dataset is partitioned across `P`
//! shards, each backed by its own index, and batches of mixed range/kNN
//! queries execute on a scoped-thread worker pool with per-shard results
//! merged per query (set union for range, a bounded binary heap for the
//! global top-k). Cost counters aggregate exactly across shards.
//!
//! ```
//! use pmi::{
//!     build_sharded_vector_engine, BuildOptions, EngineConfig, IndexKind, PartitionPolicy, Query,
//! };
//!
//! let objects = pmi::datasets::la(2_000, 42);
//! let engine = build_sharded_vector_engine(
//!     IndexKind::Mvpt,
//!     objects.clone(),
//!     pmi::L2,
//!     &BuildOptions { d_plus: 14143.0, ..BuildOptions::default() },
//!     &EngineConfig { shards: 4, threads: 2, ..EngineConfig::default() },
//!     PartitionPolicy::RoundRobin,
//! )
//! .unwrap();
//!
//! // Submit a mixed batch; read back answers plus a ServeReport.
//! let batch = vec![
//!     Query::range(objects[0].clone(), 500.0),
//!     Query::knn(objects[1].clone(), 10),
//! ];
//! let out = engine.serve(&batch);
//! assert_eq!(out.results.len(), 2);
//! assert!(out.report.qps > 0.0);
//! assert!(out.report.cost.compdists > 0);
//! ```
//!
//! # Routing-aware sharding (`PartitionPolicy::PivotSpace`)
//!
//! Round-robin spreads every metric region across all shards, so every
//! query probes all `P` of them. [`PartitionPolicy::PivotSpace`] instead
//! clusters objects by their pivot-distance vectors (balanced k-means in
//! pivot space, via the [`router`] module / crate `pmi-router`) and keeps a
//! per-shard bounding box over the mapped points. Each query is then
//! *routed*: range queries skip every shard whose box fails the Lemma 1
//! intersection test, and kNN queries probe shards best-first by box lower
//! bound (the boxes a query lies inside, nearest centre first), skipping
//! the rest once the k-th distance undercuts them. Answers
//! are identical to round-robin (pruning is conservative); the saved work
//! shows up in `ServeReport::shards_pruned`.
//!
//! ```
//! use pmi::{
//!     build_sharded_vector_engine, BuildOptions, EngineConfig, IndexKind, PartitionPolicy, Query,
//! };
//!
//! let objects = pmi::datasets::la(2_000, 42);
//! let engine = build_sharded_vector_engine(
//!     IndexKind::Mvpt,
//!     objects.clone(),
//!     pmi::L2,
//!     &BuildOptions { d_plus: 14143.0, ..BuildOptions::default() },
//!     &EngineConfig { shards: 8, threads: 2, ..EngineConfig::default() },
//!     PartitionPolicy::PivotSpace,
//! )
//! .unwrap();
//! assert_eq!(engine.policy(), PartitionPolicy::PivotSpace);
//!
//! // Selective range queries on clustered data skip most shards.
//! let batch: Vec<Query<Vec<f32>>> = (0..32)
//!     .map(|i| Query::range(objects[i * 7].clone(), 150.0))
//!     .collect();
//! let out = engine.serve(&batch);
//! assert_eq!(
//!     out.report.shards_probed + out.report.shards_pruned,
//!     32 * 8,
//!     "every query accounts for all shards"
//! );
//! assert!(out.report.shards_pruned > 0, "routing skipped shard probes");
//! ```
//!
//! # The pivot-distance matrix build path
//!
//! Every pivot-based index is a view over the paper's central `n × l`
//! matrix `A[i][j] = d(o_i, p_j)`. The engine's one constructor
//! (`ShardedEngine::build`; this facade hands it the mapper over the
//! shared pivots) computes that matrix **once, in parallel** across its
//! worker threads ([`PivotMatrix`]), clusters/routes over its rows, and
//! hands each shard its members' rows as planar u16 bucket
//! [`PivotColumns`] of its own — the only form a pivot distance is stored in, and the unit a
//! query is routed to owns the bytes it scans — so shared-pivot
//! tables (LAESA, CPT, FQA — [`IndexKind::adopts_pivot_matrix`]) *adopt*
//! their distances instead of recomputing them: a `PivotSpace` LAESA build
//! computes each object-pivot distance exactly once instead of twice. The
//! exact cost is recorded in [`BuildStats`] and rides along in every
//! [`ServeReport`]:
//!
//! ```
//! use pmi::{
//!     build_sharded_vector_engine, BuildOptions, EngineConfig, IndexKind, PartitionPolicy,
//! };
//!
//! let objects = pmi::datasets::la(2_000, 42);
//! let opts = BuildOptions { d_plus: 14143.0, ..BuildOptions::default() };
//! let engine = build_sharded_vector_engine(
//!     IndexKind::Laesa,
//!     objects.clone(),
//!     pmi::L2,
//!     &opts,
//!     &EngineConfig { shards: 8, threads: 4, ..EngineConfig::default() },
//!     PartitionPolicy::PivotSpace,
//! )
//! .unwrap();
//!
//! // The matrix was computed once (n·l distances) and adopted by every
//! // shard: the shards themselves computed zero build distances.
//! assert_eq!(engine.counters().compdists, 0);
//! assert_eq!(
//!     engine.build_stats().build_compdists,
//!     (objects.len() * opts.num_pivots) as u64
//! );
//! ```
//!
//! # Live updates: `engine.apply(&batch)`
//!
//! Mutations flow through the same layered path queries use. An
//! [`UpdateBatch`] of inserts and removes is applied in order: each insert
//! is routed via the routing table, its pivot row is computed **once** and
//! handed to the destination shard with the object (so a LAESA/CPT/FQA
//! insert costs exactly `l` distance computations — no shard-side remap);
//! removes shrink the affected shards' routing boxes back to their
//! surviving members; and when a batch leaves live counts imbalanced past
//! [`EngineConfig::refresh`] ([`RefreshPolicy`]), the worst shard pair is
//! re-clustered incrementally (global ids are preserved and rows ride
//! along — only membership moves).
//! Routed answers after any churn are byte-identical to a from-scratch
//! rebuild over the survivors; the [`ApplyReport`] accounts every step
//! exactly, and cumulative totals ride along in `ServeReport::updates`.
//!
//! Sustained churn leaves tombstoned rows in the shards' matrices — dead
//! weight the scan kernel still pays lower-bound arithmetic for. A
//! [`CompactionPolicy`] (next to `refresh` on [`EngineConfig`]) lets
//! `apply` drop them once the dead fraction crosses a threshold:
//! survivors are renumbered **densely in ascending global-id order** (the
//! ids a fresh rebuild would assign — old ids are invalidated, which is
//! why the default policy is disabled), every shard keeps only its
//! survivors' rows, and serving afterwards is byte-identical to that
//! rebuild. `engine.compact()` runs the same pass on demand; it is
//! all-or-nothing, like `apply`.
//!
//! ```
//! use pmi::{
//!     build_sharded_vector_engine, BuildOptions, CompactionPolicy, EngineConfig, IndexKind,
//!     PartitionPolicy, RefreshPolicy, UpdateBatch,
//! };
//!
//! let objects = pmi::datasets::la(2_000, 42);
//! let opts = BuildOptions { d_plus: 14143.0, ..BuildOptions::default() };
//! let mut engine = build_sharded_vector_engine(
//!     IndexKind::Laesa,
//!     objects.clone(),
//!     pmi::L2,
//!     &opts,
//!     &EngineConfig {
//!         shards: 8,
//!         threads: 2,
//!         // Re-cluster the worst shard pair when one holds 3x another.
//!         refresh: RefreshPolicy { max_imbalance: 3.0, min_objects: 64 },
//!         // Drop tombstoned matrix rows (renumbering ids!) once more
//!         // than 30% of the rows are dead.
//!         compaction: CompactionPolicy::at_dead_fraction(0.3),
//!         ..EngineConfig::default()
//!     },
//!     PartitionPolicy::PivotSpace,
//! )
//! .unwrap();
//!
//! engine.reset_counters();
//! let mut batch = UpdateBatch::new();
//! batch.insert(objects[7].clone()).remove(3).remove(11);
//! let report = engine.apply(&batch);
//! assert_eq!(report.inserts, 1);
//! assert_eq!(report.removes, 2);
//! // One l-wide matrix row for the routed insert, zero shard-side remap.
//! assert_eq!(report.map_compdists, opts.num_pivots as u64);
//! assert_eq!(report.shard_compdists, 0);
//! // A routing box is recomputed only when a removed member lay on one
//! // of its faces; an interior member cannot have changed it.
//! assert!(report.reboxed_shards <= 2);
//! assert_eq!(report.compactions, 0, "2 dead rows is under every floor");
//! assert_eq!(engine.len(), 1_999);
//!
//! // Heavy churn: remove a third of the dataset, then watch apply
//! // compact the matrix back to dense (ids renumber to 0..n_live).
//! let mut churn = UpdateBatch::new();
//! for id in 100..800 {
//!     churn.remove(id);
//! }
//! let report = engine.apply(&churn);
//! assert_eq!(report.compactions, 1);
//! assert_eq!(report.compacted_rows, 702, "all dead rows dropped");
//! assert_eq!(engine.len(), 1_299);
//! ```
//!
//! Each committed batch publishes a new immutable [`EngineSnapshot`]
//! (epoch +1, visible on every `ServeReport::epoch`); `apply` is
//! all-or-nothing ([`ApplyReport`]`::aborted`) and [`EngineReader`]
//! handles (`engine.reader()`) keep serving concurrently through commits
//! — for every [`IndexKind`], through the one write path. A standing [`SubmitQueue`] with [`AdmissionPolicy`]
//! adds backpressure and deadline shedding for always-on operation. The
//! concurrency model — snapshot lifecycle, epoch-based reclamation, the
//! writer-crash contract — is documented in `docs/concurrency.md`.
//!
//! # Observability: `engine.metrics()` and the `obs` feature
//!
//! Every engine carries a lock-free-on-the-hot-path metrics registry
//! ([`obs`], crate `pmi-obs`): build/serve/apply/compact run as
//! instrumented phases (per-worker state is plain writes, folded once per
//! batch), every served query lands in a latency histogram, and each
//! [`ServeReport`] breaks the batch down per shard
//! ([`ShardServeStats`]: exact probe/compdists/page counts, sampled
//! p50/p99 probe wall) so shard skew is visible directly.
//!
//! The whole subsystem sits behind the `obs` cargo feature (on by
//! default). The contract is **zero overhead when off**: disabled at
//! compile time (`--no-default-features`) every hook is a no-op the
//! optimizer erases; disabled at runtime
//! ([`ShardedEngine::set_obs_enabled`]) the serve path performs no clock
//! reads. Either way, *results and the paper's exact cost counters are
//! byte-identical* — observability never changes what is computed, only
//! what is recorded (`tests/counters.rs` proves it).
//!
//! ```
//! use pmi::{
//!     build_sharded_vector_engine, BuildOptions, EngineConfig, IndexKind, PartitionPolicy, Query,
//! };
//!
//! let objects = pmi::datasets::la(2_000, 42);
//! let engine = build_sharded_vector_engine(
//!     IndexKind::Laesa,
//!     objects.clone(),
//!     pmi::L2,
//!     &BuildOptions { d_plus: 14143.0, ..BuildOptions::default() },
//!     &EngineConfig { shards: 4, threads: 2, ..EngineConfig::default() },
//!     PartitionPolicy::PivotSpace,
//! )
//! .unwrap();
//! let batch: Vec<Query<Vec<f32>>> = (0..64)
//!     .map(|i| Query::range(objects[i].clone(), 200.0))
//!     .collect();
//! let out = engine.serve(&batch);
//!
//! // Per-shard breakdown: exact counts, regardless of the obs switch.
//! assert_eq!(out.report.per_shard.len(), 4);
//! let probes: u64 = out.report.per_shard.iter().map(|s| s.probes).sum();
//! assert_eq!(probes, out.report.shards_probed);
//!
//! // The phase tree (build.matrix, serve.scan, ...) — populated when the
//! // `obs` feature is on, empty (and free) when compiled out.
//! let snap = engine.metrics();
//! if pmi::obs::Registry::compiled_in() {
//!     assert!(snap.phases.iter().any(|p| p.path == "serve"));
//!     println!("{}", snap.render());
//! } else {
//!     assert!(snap.phases.is_empty());
//! }
//! ```
//!
//! # Performance: u16 bucket columns, the SIMD kernel, one serving model
//!
//! The Lemma 1 filter scan is bandwidth-bound, and `docs/performance.md`
//! documents the two levers that speed it up without changing a single
//! answer byte, and the one way a query is served:
//!
//! * **Stored pivot distances are u16 buckets** — every table and shard
//!   stores its pivot distances once, as planar columns of `u16` bucket
//!   codes under one power-of-two step ([`PivotColumns`]; there is no f64
//!   copy and no mode to pick), so the filter streams 2 bytes per
//!   distance through integer lanes; a code stands for a whole bucket, so
//!   the bound only loosens, and routing boxes cover the bucket each
//!   stored value stands for, so exact `f64` verification returns
//!   precisely the brute-force answer (proven in `tests/counters.rs`,
//!   `tests/properties.rs` and `tests/rebox.rs`).
//! * **The SIMD kernel** — [`metric::simd`] dispatches
//!   the scan, and eight L1 / L2 / L∞ distances per `Metric::dist8`
//!   call, to AVX2/SSE2/portable at runtime ([`SimdTier`]); every
//!   tier is bit-identical to the scalar reference, and `PMI_SIMD`
//!   forces a tier for testing.
//! * **One serving model** — workers claim whole queries from a shared
//!   cursor and probe each query's planned shards in sequence, so a
//!   batch of any width, a lone query included, runs one probe path:
//!   budgets, quarantine, tracing and exact per-shard accounting hold
//!   everywhere, and every kNN shard scan is seeded with the running
//!   k-th distance. There is no scheduling knob;
//!   [`ServeReport::threads`] is `min(threads, batch)`.

pub mod builder;
pub mod serve;

pub use builder::{build_index_with_matrix, BuildError, BuildOptions, IndexKind};
pub use serve::{build_sharded_engine, build_sharded_vector_engine};

pub use pmi_engine as engine;
pub use pmi_engine::{
    AdmissionPolicy, ApplyReport, BatchOutcome, BuildStats, CompactionPolicy, Completeness,
    DegradeReason, Degraded, EngineConfig, EngineError, EngineReader, EngineScratch,
    EngineSnapshot, FaultPolicy, LatencySummary, OpError, OpErrorKind, PumpOutcome, Query,
    QueryBudget, QueryError, QueryResult, QueryTrace, QueueStats, RefreshPolicy, ServeBudget,
    ServeReport, ShardFaultState, ShardServeStats, ShardedEngine, SubmitOutcome, SubmitQueue,
    TraceEvent, TraceKind, TracePolicy, UpdateBatch, UpdateOp, UpdateStats,
};

pub use pmi_obs as obs;

pub use pmi_router as router;
pub use pmi_router::{PartitionPolicy, RoutingTable};

pub use pmi_metric as metric;
pub use pmi_metric::datasets;
pub use pmi_metric::fault;
pub use pmi_metric::lemmas;
pub use pmi_metric::object;
pub use pmi_metric::{
    BruteForce, Counters, CountingMetric, DistanceCounter, EditDistance, EncodeObject, LInf, Lp,
    Metric, MetricIndex, Neighbor, ObjId, ObjTable, PivotColumns, PivotMatrix, QueryScratch,
    ScanKernel, SimdTier, StorageFootprint, Vector, L1, L2,
};

pub use pmi_pivots as pivots;

pub use pmi_bptree as bptree;
pub use pmi_mtree as mtree;
pub use pmi_rtree as rtree;
pub use pmi_storage as storage;

pub use pmi_external::{
    EptDisk, EptDiskConfig, MIndex, MIndexConfig, OmniBPlus, OmniRTree, OmniSeqFile, PmTree,
    SpbConfig, SpbTree,
};
pub use pmi_tables::{Aesa, Cpt, Ept, EptConfig, EptMode, Laesa};
pub use pmi_trees::{DiscreteTree, DiscreteTreeConfig, Fqa, Mvpt, MvptConfig};
