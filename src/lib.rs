//! Root crate of the Pivot-based Metric Indexing reproduction.
//!
//! This is a thin re-export of the [`pmi`] facade so that the repository's
//! examples and integration tests have a single import surface:
//!
//! ```
//! use pivot_metric_repro as pmr;
//! let pts = pmr::datasets::la(100, 42);
//! assert_eq!(pts.len(), 100);
//! ```
//!
//! The sharded batch-serving engine is available as `pmr::engine` (see the
//! `pmi` crate docs for a quickstart, and `examples/serve_batch.rs` for a
//! runnable demo):
//!
//! ```
//! use pivot_metric_repro as pmr;
//! let objects = pmr::datasets::la(500, 42);
//! let engine = pmr::build_sharded_vector_engine(
//!     pmr::IndexKind::Laesa,
//!     objects.clone(),
//!     pmr::L2,
//!     &pmr::BuildOptions { d_plus: 14143.0, ..Default::default() },
//!     &pmr::EngineConfig { shards: 4, threads: 2, ..Default::default() },
//!     // PartitionPolicy::PivotSpace cuts the pivot space into shards so
//!     // queries can skip shards (see the `pmi` crate docs).
//!     pmr::PartitionPolicy::PivotSpace,
//! )
//! .unwrap();
//! let out = engine.serve(&[pmr::Query::knn(objects[0].clone(), 5)]);
//! assert_eq!(out.results[0].len(), 5);
//! ```
//!
//! Observability — per-shard serve stats (`out.report.per_shard`), the
//! engine phase tree (`engine.metrics()`), per-query traces with an
//! EXPLAIN renderer (`engine.set_trace_policy(..)` then
//! `out.report.traces[..].explain()`) — is always compiled in and always
//! on. `docs/observability.md` is the quickstart for the whole layer: the
//! cost rules, the metrics reference and the trace format.
//!
//! Concurrency — the engine serves through churn: immutable
//! [`EngineSnapshot`]s behind an atomic slot (every `out.report.epoch`
//! names the version that answered), cloneable [`EngineReader`] handles
//! (`engine.reader()`) that keep serving on any number of threads while
//! `engine.apply(..)` commits copy-on-write transactions, crash-safe
//! all-or-nothing apply ([`ApplyReport::aborted`]) — one write path,
//! the same for every [`IndexKind`] — and a standing
//! [`SubmitQueue`] with admission control ([`AdmissionPolicy`]:
//! backpressure on a full queue, deadline shedding of stale batches) —
//! is documented in `docs/concurrency.md`: the snapshot lifecycle,
//! epoch-based reclamation, the writer-crash contract, and the
//! availability gate (serving never waits for the writer).
//!
//! Robustness — per-query/batch budgets with graceful degradation
//! (`engine.set_budget(..)`, the [`Completeness`] marker on every
//! result), typed per-item errors ([`QueryError`] / [`OpError`]), panic
//! containment with shard quarantine (`engine.fault_states()`,
//! `engine.heal()`), and the deterministic fault-injection harness
//! (`pmr::fault`, compiled in with `--features fault-inject`) — is
//! documented in `docs/robustness.md`: budget semantics, the
//! `Completeness` contract, the quarantine lifecycle, the fault-point
//! catalog, and how to run the chaos suite (`tests/chaos.rs`).
//!
//! Performance — pivot distances stored once as planar `u16` bucket
//! columns (`pmr::PivotColumns`: a quarter of the filter bandwidth of f64
//! rows, answers exact, no mode to pick), the explicit-SIMD scan kernel
//! with runtime dispatch (`pmr::metric::simd::tier()`, override with
//! `PMI_SIMD`), and the one serving model (workers claim whole queries; a
//! lone query runs the same probe path as a batch) — is documented in
//! `docs/performance.md`: the bucket and box-widening admissibility
//! argument, the SIMD tier table and bit-identity contract, why there is
//! no scheduling knob, and the measurements.

pub use pmi::*;
