//! `pmi-engine` — a sharded, concurrent batch query-serving engine over
//! pivot-based metric indexes.
//!
//! The paper (§6.2) observes that pivot-distance work parallelizes
//! naturally because objects are independent of each other. This crate
//! extends that observation from index *construction* to query *serving*:
//!
//! * [`ShardedEngine`] partitions a dataset across `P` independent shards,
//!   each backed by any [`MetricIndex`](pmi_metric::MetricIndex)
//!   implementation (a shard factory closure decides which — the `pmi`
//!   facade wires its `builder` module in, so every index of the paper can
//!   serve). There is one constructor, [`ShardedEngine::build`], and one
//!   shape: [`Layout::mapped`] hands it a pivot space
//!   (`o ↦ (d(o, p_1), …, d(o, p_l))`) and the engine derives the rest
//!   itself — the pivot rows, the balanced cells cut over them
//!   (`pmi-router`), each shard's own run of rows, and a
//!   [`RoutingTable`] of per-shard pivot-space bounding boxes that lets
//!   queries *skip* shards: Lemma 1 box pruning for range queries,
//!   best-first probing with a tightening cutoff for kNN.
//!   [`Layout::plain`] is the zero-width pivot space: every bound is 0, so
//!   every shard is probed, and the cuts come out as balanced contiguous
//!   runs. Skips are counted exactly in every
//!   [`ServeReport`] (`shards_probed` / `shards_pruned`),
//! * batches of mixed range / kNN queries ([`Query`]) execute on
//!   `threads` workers, the calling thread one of them, each claiming the
//!   next query ([`ShardedEngine::serve`], through
//!   [`pmi_metric::parallel::fan_out`]), with per-shard partial results merged per query — a set union for range
//!   queries, a bounded binary heap ([`merge::TopK`]) for the global top-k,
//! * the paper's cost model aggregates exactly: every shard counts
//!   `compdists` and page accesses through atomic counters, and the engine
//!   sums the per-shard [`Counters`](pmi_metric::Counters) snapshots,
//! * every served batch produces a [`ServeReport`] — throughput,
//!   monotonic-clock latency percentiles, and aggregate counters — so
//!   benches and examples can measure QPS directly,
//! * mutations flow through the same layered path as queries
//!   ([`ShardedEngine::apply`] over an [`UpdateBatch`]): inserts are routed
//!   via the routing table and map to **one** pivot row that the
//!   destination shard takes with the object (no remap),
//!   removes shrink the affected routing boxes back to the surviving
//!   members, and a [`RefreshPolicy`] re-cuts every shard when a batch
//!   leaves the shards imbalanced. Every [`ApplyReport`] counter is exact.
//!
//! There is one serving model: every query — in a batch of any width, or
//! alone through [`ShardedEngine::execute`], [`ShardedEngine::range_query`]
//! or [`ShardedEngine::knn_query`] — is planned and probed shard by shard
//! on the thread that claimed it, so quarantine, exact per-shard
//! accounting and kNN threshold seeding hold on every path, and `serve`'s
//! budgets and tracing at every batch width.
//!
//! # Example
//!
//! ```
//! use pmi_engine::{EngineConfig, Layout, Query, ShardedEngine};
//! use pmi_metric::{BruteForce, MetricIndex, L2};
//!
//! let objects: Vec<Vec<f32>> = (0..1000)
//!     .map(|i| vec![(i % 97) as f32, (i % 31) as f32])
//!     .collect();
//! let cfg = EngineConfig { shards: 4, threads: 2, ..EngineConfig::default() };
//! let engine = ShardedEngine::build(objects.clone(), Layout::plain(), &cfg, |_, part, _| {
//!     Ok::<_, String>(Box::new(BruteForce::new(part, L2)) as Box<dyn MetricIndex<_>>)
//! })
//! .unwrap();
//!
//! let batch = vec![
//!     Query::range(objects[0].clone(), 5.0),
//!     Query::knn(objects[1].clone(), 10),
//! ];
//! let outcome = engine.serve(&batch);
//! assert_eq!(outcome.results.len(), 2);
//! assert!(outcome.report.cost.compdists > 0);
//! ```

pub mod engine;
pub mod merge;
pub mod query;
pub mod queue;
pub mod report;
pub mod robust;
pub mod shard;
pub mod update;

pub use engine::{
    BatchOutcome, EngineConfig, EngineError, EngineReader, EngineScratch, EngineSnapshot, Layout,
    ShardedEngine,
};
pub use merge::TopK;
pub use pmi_obs::{QueryTrace, TraceEvent, TraceKind, TracePolicy};
pub use pmi_router::RoutingTable;
pub use query::{Query, QueryResult};
pub use queue::{AdmissionPolicy, PumpOutcome, QueueStats, SubmitOutcome, SubmitQueue};
pub use report::{BuildStats, LatencySummary, ServeReport, ShardServeStats, UpdateStats};
pub use robust::{
    Completeness, DegradeReason, Degraded, FaultPolicy, OpError, OpErrorKind, QueryBudget,
    QueryError, ServeBudget, ShardFaultState,
};
pub use shard::Shard;
pub use update::{ApplyReport, RefreshPolicy, UpdateBatch, UpdateOp};
