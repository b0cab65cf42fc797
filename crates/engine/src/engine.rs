//! The sharded engine: partitioning, parallel builds and batch serving
//! (every parallel step through [`pmi_metric::parallel`]), with exact
//! aggregate cost accounting.
//!
//! Everything hangs off one mapping, `o ↦ (d(o, p_1), …, d(o, p_l))` — the
//! engine's **pivot space** — and the engine owns it: there is one
//! constructor, [`ShardedEngine::build`], and its [`Layout`] says only what
//! the pivot space is (a mapper and its width) and optionally an explicit
//! membership. Every engine has one and routes by it: from the mapper the
//! engine itself computes every object's row, cuts the rows into cells,
//! derives the [`RoutingTable`] boxes (the table holds the mapper from then
//! on), and gives every shard its members' rows, stored once as planar u16
//! bucket columns of its own under one engine-wide step
//! ([`pmi_metric::PivotColumns`], the only form a row is stored in) — so
//! "row `i` stores the map of object `i`", "every member lies inside its
//! shard's box" and "every shard holds its members' rows" are true by
//! construction, not by caller contract.
//!
//! The routing table prunes shards per query via Lemma 1 box bounds —
//! range queries skip every shard whose bounding box cannot intersect the
//! search ball, and kNN queries probe shards best-first, skipping those
//! whose lower bound exceeds the current k-th distance. The answers are
//! those of probing every shard; routing only changes how much work is
//! paid for them, which the engine accounts exactly through the
//! `shards_probed` / `shards_pruned` counters. [`Layout::plain`] is the
//! zero-width pivot space: every bound is 0, so every shard is probed, and
//! the partitioner's fallback cuts balanced contiguous runs.
//!
//! The shards keep their rows — inside the index when the kind adopts them
//! (the shard factory receives them, so shard builds stop recomputing pivot
//! distances and every scan streams sequential memory), beside it otherwise
//! ([`Shard::codes`]) — for the unified mutation path
//! ([`ShardedEngine::apply`]): inserts compute and store their pivot row
//! once and hand its codes to the destination shard and its routing box;
//! from there on every write moves codes; removes shrink the affected routing
//! boxes back over the surviving rows (and every insert and remove moves
//! the shard's routing centre); and when live counts drift apart past a
//! [`RefreshPolicy`], a re-cluster re-cuts every shard with the very call
//! the build ran, as [`compact`](ShardedEngine::compact) does before it
//! renumbers. On a plain engine the rows are empty and all of it costs no
//! distance.
//! Serving reuses per-worker [`EngineScratch`] buffers so the batch hot
//! loop performs no transient heap allocations per query.
//!
//! # Panic policy
//!
//! No input reachable through the public API may panic this module:
//! malformed queries are rejected up front by [`ShardedEngine::serve`] as
//! [`QueryError`]s, malformed update ops surface as [`OpError`]s, and a
//! panic that *does* escape a shard (a buggy index or metric) is caught at
//! the serve boundary, turned into `QueryResult::Failed`, and counted
//! toward that shard's quarantine (see `docs/robustness.md`). The
//! `expect`s that remain state internal invariants — every worker slot is
//! claimed exactly once, a built engine has ≥ 1 shard
//! (`EngineError::ZeroShards` otherwise), a membership reaches the
//! partitioner checked (`EngineError::BadMembership` otherwise) — whose
//! violation is an engine bug, not bad input.
//!
//! [`QueryError`]: crate::QueryError

use crate::query::QueryResult;
use crate::report::{BuildStats, ServeReport, UpdateStats};
use crate::robust::{
    FaultPolicy, OpError, OpErrorKind, QuarantineState, ServeBudget, ShardFaultState,
};
use crate::shard::Shard;
use crate::update::{ApplyReport, RefreshPolicy, UpdateBatch, UpdateOp};
use pmi_metric::fault;
use pmi_metric::matrix::quantise;
use pmi_metric::{cow, Counters, CowVec, ObjId, Object, StorageFootprint};
use pmi_obs::{MetricsSnapshot, Registry, Span, TracePolicy};
use pmi_router::RoutingTable;
use std::borrow::Cow;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Engine shape: how many partitions, how many worker threads, and when the
/// mutation path re-clusters.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Number of shards `P`. Clamped to at most `n` at build time so no
    /// shard is ever empty; `0` is a build error ([`EngineError::ZeroShards`]).
    pub shards: usize,
    /// Worker threads for every parallel step the engine runs: batch
    /// serving, the build's pivot matrix, the pivot-space partition (at
    /// build, re-cluster and compaction) and the shard builds — and,
    /// through the `pmi` facade, HFI pivot selection. The calling thread
    /// is one of the workers, so a step with one task (one shard, one
    /// query, one row chunk) spawns nothing; any count, `usize::MAX`
    /// included, is capped by the work there is. `0` means one per
    /// available hardware thread.
    pub threads: usize,
    /// When [`apply`](ShardedEngine::apply) re-cuts every shard.
    pub refresh: RefreshPolicy,
    /// When repeated per-shard query panics quarantine a shard (see
    /// [`FaultPolicy`]; default: after 3).
    pub faults: FaultPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            shards: 4,
            threads: 0,
            refresh: RefreshPolicy::default(),
            faults: FaultPolicy::default(),
        }
    }
}

impl EngineConfig {
    /// The shard count actually built over `n` objects: `shards` clamped to
    /// `1..=max(n, 1)` (no shard is ever empty unless an explicit
    /// membership leaves it so). An explicit membership's entries must stay
    /// below it.
    pub fn resolved_shards(&self, n: usize) -> usize {
        self.shards.max(1).min(n.max(1))
    }

    /// The worker thread count actually used: `threads`, or one per
    /// available hardware thread when 0.
    pub fn resolved_threads(&self) -> usize {
        resolve_threads(self.threads)
    }
}

/// Why a sharded engine could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError<E> {
    /// `EngineConfig::shards` was 0 — an engine needs at least one shard.
    ZeroShards,
    /// An explicit membership ([`Layout::with_membership`]) did not hold
    /// one shard below [`EngineConfig::resolved_shards`] per object; says
    /// what it held instead.
    BadMembership(String),
    /// A shard factory failed; carries the factory's own error.
    Build(E),
}

impl<E: std::fmt::Display> std::fmt::Display for EngineError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ZeroShards => {
                write!(
                    f,
                    "engine requires at least one shard (EngineConfig.shards == 0)"
                )
            }
            EngineError::BadMembership(why) => write!(f, "bad shard membership: {why}"),
            EngineError::Build(e) => write!(f, "shard build failed: {e}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for EngineError<E> {}

fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

#[path = "build.rs"]
mod build;
pub use build::Layout;

#[path = "exec.rs"]
mod exec;
pub use exec::EngineScratch;

/// A lap timer that reads the monotonic clock only when armed: `lap()`
/// returns the nanoseconds since the previous lap (or construction) and
/// re-arms, so a sampled query pays exactly one clock read per measured
/// segment. Disarmed (`ObsClock::start(false)`: a query that is neither
/// one of the 1-in-`OBS_SAMPLE` timing samples nor traced), every call is
/// a constant 0 the optimizer folds away.
struct ObsClock(Option<Instant>);

impl ObsClock {
    #[inline]
    fn start(armed: bool) -> Self {
        ObsClock(if armed { Some(Instant::now()) } else { None })
    }

    #[inline]
    fn lap(&mut self) -> u64 {
        match &mut self.0 {
            Some(t) => {
                let now = Instant::now();
                let d = now.duration_since(*t).as_nanos() as u64;
                *t = now;
                d
            }
            None => 0,
        }
    }
}

/// Global id → `(shard, local id)` for live objects, dense: global ids are
/// handed out consecutively from 0 (and a compaction renumbers the
/// survivors back to `0..n`), so the table is indexed by id, a removed id
/// keeps a sentinel entry, and a transaction's working copy shares every
/// chunk it does not write with the committed one.
#[derive(Clone, Default)]
struct Locator(CowVec<(u32, ObjId)>);

impl Locator {
    /// The entry of an id that is not live.
    const DEAD: (u32, ObjId) = (u32::MAX, ObjId::MAX);

    fn get(&self, gid: ObjId) -> Option<(u32, ObjId)> {
        self.0
            .get(gid as usize)
            .copied()
            .filter(|&e| e != Self::DEAD)
    }

    /// Points `gid` at `(shard, local)`: a known id (a move) or the next
    /// one (an insert — ids are handed out consecutively).
    fn set(&mut self, gid: ObjId, shard: usize, local: ObjId) {
        if gid as usize == self.0.len() {
            self.0.push((shard as u32, local));
        } else {
            self.0.set(gid as usize, (shard as u32, local));
        }
    }

    /// Marks `gid` dead, returning where it lived.
    fn remove(&mut self, gid: ObjId) -> Option<(u32, ObjId)> {
        let at = self.get(gid)?;
        self.0.set(gid as usize, Self::DEAD);
        Some(at)
    }

    /// The live ids, ascending, each with its `(shard, local id)`.
    fn live(&self) -> impl Iterator<Item = (ObjId, (usize, ObjId))> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e != Self::DEAD)
            .map(|(gid, &(s, local))| (gid as ObjId, (s as usize, local)))
    }
}

/// The answers plus the measurement of one served batch.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-query merged results, in batch order.
    pub results: Vec<QueryResult>,
    /// Throughput / latency / cost measurement.
    pub report: ServeReport,
}

/// One immutable published version of the engine's serving state: the
/// shard handles, the routing table, and the epoch that names it.
///
/// Readers load the current snapshot once per batch (one `Arc` clone under
/// a nanosecond lock) and serve the whole batch against it, so a
/// concurrently committing [`apply`](ShardedEngine::apply) can never tear a
/// batch: every answer is byte-identical to serving against some quiesced
/// prefix of the update stream. Shards shared between consecutive
/// snapshots are the *same* `Arc` — `apply` forks only the shards a batch
/// touches, and a fork shares every chunk of per-object state it does not
/// write (copy-on-write at both levels) — so publication cost scales with
/// the write set, not the engine, and a retired snapshot pins only the
/// chunks its successor replaced.
pub struct EngineSnapshot<O: Object> {
    /// Publication epoch: 0 for the freshly built engine, +1 per commit.
    epoch: u64,
    /// The shard set of this version.
    shards: Vec<Arc<Shard<O>>>,
    /// The routing table of this version.
    router: Arc<RoutingTable<O>>,
}

impl<O: Object> EngineSnapshot<O> {
    /// Publication epoch of this snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Live objects in this snapshot.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether this snapshot holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The reader-shared half of the engine: everything batch serving needs
/// behind `&self`. The writer half ([`ShardedEngine`]) owns the mutable
/// bookkeeping (locator, policies) and publishes new
/// [`EngineSnapshot`]s into `snap`; readers — [`EngineReader`] handles and
/// the engine's own serve wrappers — load the snapshot once per batch and
/// never observe a half-applied update.
struct EngineCore<O: Object> {
    threads: usize,
    /// The current published snapshot. The mutex guards a single `Arc`
    /// clone/store — held for nanoseconds, never across a probe.
    snap: Mutex<Arc<EngineSnapshot<O>>>,
    /// Exact count of shard probes executed (a query touching 3 of 8
    /// shards adds 3).
    probed: AtomicU64,
    /// Exact count of shard probes avoided by routing (the same query adds
    /// 5 here).
    pruned: AtomicU64,
    /// The engine's metrics registry: build/serve/apply/compact phases,
    /// latency histograms, counters. Always recording.
    obs: Registry,
    /// The per-query trace capture policy, read once per batch (the mutex
    /// never sits on the query path).
    trace: Mutex<TracePolicy>,
    /// Serving budgets, read once per batch (same discipline as `trace`).
    budget: Mutex<ServeBudget>,
    /// When repeated per-shard panics quarantine a shard.
    faults: FaultPolicy,
    /// Per-shard panic counts and quarantine flags.
    quarantine: QuarantineState,
    /// Optional query/insert object validator (e.g. finite-coords for
    /// vector engines); rejected objects fail per-item, never the batch.
    validator: Mutex<Option<Validator<O>>>,
    /// Construction cost, fixed at build; copied into every report.
    build: BuildStats,
    /// Stats mirror for reports, synced by the writer at each commit.
    updates: Mutex<UpdateStats>,
}

impl<O: Object> EngineCore<O> {
    /// The current published snapshot (one `Arc` clone).
    fn snapshot(&self) -> Arc<EngineSnapshot<O>> {
        Arc::clone(&self.snap.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn trace_policy(&self) -> TracePolicy {
        *self.trace.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn serve_budget(&self) -> ServeBudget {
        *self.budget.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn validator(&self) -> Option<Validator<O>> {
        self.validator
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// A cloneable serving handle for always-on operation: every call loads
/// the engine's current published [`EngineSnapshot`] and serves entirely
/// against it, so reader threads keep answering — each batch internally
/// consistent — while a writer thread commits [`apply`] batches off to the
/// side (MVCC).
///
/// Obtained from [`ShardedEngine::reader`], for every shard kind.
///
/// [`apply`]: ShardedEngine::apply
#[derive(Clone)]
pub struct EngineReader<O: Object> {
    core: Arc<EngineCore<O>>,
}

impl<O: Object> EngineReader<O> {
    /// Epoch of the snapshot a batch served right now would see.
    pub fn epoch(&self) -> u64 {
        self.core.snapshot().epoch
    }

    /// Live objects in the current snapshot.
    pub fn len(&self) -> usize {
        self.core.snapshot().len()
    }

    /// Whether the current snapshot holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A dataset sharded across `P` independent [`MetricIndex`]es, serving
/// batches of mixed range / kNN queries concurrently.
///
/// The engine holds a [`RoutingTable`] that summarizes each shard as a
/// bounding box in pivot space, and queries skip every shard those
/// summaries prove answer-free (Lemma 1); over a plain engine's zero-width
/// space no box proves anything, so every shard is probed. Either way,
/// per-shard partial answers merge into
/// one global answer — a sorted union for range queries, a bounded-heap
/// top-k for kNN — and because pruning is conservative and each shard's own
/// query processing is exact, the merged answers are identical to a single
/// unsharded index over the same data, ties included: shards and the merge
/// order kNN answers by `(distance, id)`, and a shard's local ids ascend
/// with its global ids, so a tie at the k-th distance goes to the smaller
/// global id on both sides (`tests/engine.rs`,
/// `sharded_equals_unsharded_across_kinds_and_shard_counts`, over a corpus
/// that holds every object twice).
///
/// # Concurrency model (MVCC snapshots)
///
/// Serving state lives in immutable [`EngineSnapshot`]s published behind an
/// atomic slot. [`apply`](Self::apply) is a transaction: it forks the
/// shards the batch touches, stages every mutation off to the side, and
/// commits with a single snapshot swap — readers obtained via
/// [`reader`](Self::reader) keep serving the previous snapshot mid-apply
/// and pick up the new one at their next batch. Retired snapshots are
/// reclaimed once the last in-flight batch drops them. This is the only
/// write path and every shard kind takes it ([`MetricIndex::fork`]).
///
/// [`MetricIndex`]: pmi_metric::MetricIndex
/// [`MetricIndex::fork`]: pmi_metric::MetricIndex::fork
pub struct ShardedEngine<O: Object> {
    /// Reader-shared serving state (snapshot slot, policies, metrics).
    core: Arc<EngineCore<O>>,
    /// Writer mirror of the published shard set — the same `Arc`s as the
    /// current snapshot's. `apply` forks the entries it touches.
    shards: Vec<Arc<Shard<O>>>,
    /// Writer mirror of the published routing table. Its mapper is what
    /// lets inserts hand over their mapped row; the rows every shard
    /// carries ([`Shard::codes`]) let removes recompute routing boxes,
    /// and re-clustering and compaction move objects without recomputing
    /// any distance.
    router: Arc<RoutingTable<O>>,
    /// Publication epoch of the current snapshot.
    epoch: u64,
    /// Retired snapshots not yet reclaimed (still pinned by in-flight
    /// reader batches). Swept at each publish: a snapshot whose only owner
    /// is this list is dropped.
    retired: Vec<Arc<EngineSnapshot<O>>>,
    /// When [`apply`](Self::apply) re-cuts every shard.
    refresh: RefreshPolicy,
    /// Global id → (shard, local id) for live objects.
    locator: Locator,
    next_id: ObjId,
    /// Lifetime mutation totals (copied into every [`ServeReport`]).
    update_stats: UpdateStats,
}

/// A shared per-item object validator (see
/// [`set_query_validator`](ShardedEngine::set_query_validator)).
type Validator<O> = Arc<dyn Fn(&O) -> bool + Send + Sync>;

/// One in-flight `apply` or `compact` transaction: the staged next version
/// of the engine's serving state, built off to the side and either
/// committed with a single snapshot publish or dropped whole
/// (all-or-nothing).
struct ApplyTxn<O: Object> {
    /// Staged shard set: entries start as the published `Arc`s and are
    /// forked on first touch.
    shards: Vec<Arc<Shard<O>>>,
    /// Which entries this transaction has forked.
    touched: Vec<bool>,
    /// Staged routing table (a copy-on-write clone: shared mapper, own
    /// boxes).
    router: RoutingTable<O>,
    /// Staged locator (a clone sharing every chunk this batch leaves alone).
    locator: Locator,
    next_id: ObjId,
    /// Staged lifetime totals (committed into the engine's stats).
    stats: UpdateStats,
    report: ApplyReport,
    /// Shards that lost a member lying on a face of their routing box: the
    /// only ones whose box can have changed, recomputed after the last op.
    dirty: Vec<bool>,
}

impl<O: Object> ApplyTxn<O> {
    /// Mutable access to staged shard `s`, forking it first if the
    /// published version is still shared (copy-on-write).
    fn shard_mut(&mut self, s: usize) -> &mut Shard<O> {
        if !self.touched[s] {
            self.shards[s] = Arc::new(self.shards[s].fork());
            self.touched[s] = true;
        }
        Arc::get_mut(&mut self.shards[s]).expect("transaction shard is uniquely owned")
    }

    /// Moves object `gid` from `(shard, local slot)` to shard `to` with its
    /// stored `codes` and re-points the locator. Returns whether it moved:
    /// not if it is in `to` already, or the slot holds nothing. The object
    /// travels as a view of the source shard's table (a handle on the
    /// source keeps it readable while the destination is written), so a
    /// table kind copies it arena to arena.
    fn move_object(&mut self, gid: ObjId, from: (usize, ObjId), to: usize, codes: &[u16]) -> bool {
        let (s, local) = from;
        if s == to {
            return false;
        }
        let source = Arc::clone(&self.shards[s]);
        let Some(o) = source.object_local(local) else {
            return false;
        };
        let new_local = self.shard_mut(to).insert_adopted(o, gid, codes);
        drop(source);
        self.shard_mut(s).remove_local(local);
        self.locator.set(gid, to, new_local);
        true
    }
}

impl<O: Object> ShardedEngine<O> {
    /// Total live objects across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether the engine holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards `P`.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Resolved worker thread count.
    pub fn threads(&self) -> usize {
        self.core.threads
    }

    /// The current shard handles, for inspection. These are the same
    /// `Arc`s the published snapshot holds; [`apply`](Self::apply)
    /// replaces the touched entries at its next commit.
    pub fn shards(&self) -> &[Arc<Shard<O>>] {
        &self.shards
    }

    /// Construction cost of this engine: the exact distance computations
    /// of its pivot rows (`n · l`) plus every
    /// shard's own construction, and the wall-clock of the whole
    /// [`build`](Self::build).
    pub fn build_stats(&self) -> BuildStats {
        self.core.build
    }

    /// The routing table. Always `Some`: the `Option` is kept only for
    /// the frozen `benchmark/` callers that `expect` it.
    pub fn routing(&self) -> Option<&RoutingTable<O>> {
        Some(&self.router)
    }

    /// Publication epoch of the current snapshot: 0 at build, +1 per
    /// committed [`apply`](Self::apply) / [`compact`](Self::compact).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A cloneable, thread-safe serving handle over the engine's published
    /// snapshots. Always `Some`: the `Option` is kept only for the frozen
    /// `benchmark/` callers that match on it.
    ///
    /// Readers stay valid across any number of `apply` / `compact` calls;
    /// each batch they serve sees exactly one published snapshot.
    pub fn reader(&self) -> Option<EngineReader<O>> {
        Some(EngineReader {
            core: Arc::clone(&self.core),
        })
    }

    /// Retired snapshots still pinned by in-flight reader batches
    /// (diagnostic; swept at each publish).
    pub fn retired_snapshots(&self) -> usize {
        self.retired.len()
    }

    /// Exact `(shards_probed, shards_pruned)` totals since construction or
    /// the last [`reset_counters`](Self::reset_counters): every query adds
    /// its probed shard count to the first and its routed-away shard count
    /// to the second (a plain engine always adds `(P, 0)`).
    pub fn probe_counts(&self) -> (u64, u64) {
        (
            self.core.probed.load(Ordering::Relaxed),
            self.core.pruned.load(Ordering::Relaxed),
        )
    }

    /// Aggregate cost counters: the exact sum of every shard's atomic
    /// counters.
    pub fn counters(&self) -> Counters {
        self.shards
            .iter()
            .fold(Counters::default(), |acc, s| acc + s.counters())
    }

    /// Per-shard counter snapshots, in shard order.
    pub fn shard_counters(&self) -> Vec<Counters> {
        self.shards.iter().map(|s| s.counters()).collect()
    }

    /// Snapshot of everything the registry has recorded so far: the
    /// build, serve, apply and compact phase trees, histograms, counters
    /// and gauges.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.core.obs.snapshot()
    }

    /// The current per-query trace capture policy.
    pub fn trace_policy(&self) -> TracePolicy {
        // A panic while holding this lock (a panicking traced query) must
        // not wedge the engine: the data is a Copy policy, always valid.
        self.core.trace_policy()
    }

    /// Swaps the per-query trace capture policy at runtime (takes effect
    /// for the next [`serve`](Self::serve) batch — the policy is read once
    /// per batch, never on the query path). Pass
    /// [`TracePolicy::disabled`] to return the serve loop to its untraced
    /// form; results and exact counters are identical either way.
    pub fn set_trace_policy(&self, policy: TracePolicy) {
        *self.core.trace.lock().unwrap_or_else(|e| e.into_inner()) = policy;
    }

    /// The current serving budgets.
    pub fn serve_budget(&self) -> ServeBudget {
        self.core.serve_budget()
    }

    /// Swaps the serving budgets at runtime (takes effect for the next
    /// [`serve`](Self::serve) batch — budgets are read once per batch,
    /// never on the query path). Pass [`ServeBudget::unlimited`] to return
    /// the serve loop to its unbudgeted form.
    pub fn set_budget(&self, budget: ServeBudget) {
        *self.core.budget.lock().unwrap_or_else(|e| e.into_inner()) = budget;
    }

    /// Installs a query/insert object validator: objects it rejects fail
    /// per-item ([`QueryError::InvalidObject`](crate::QueryError) on serve,
    /// [`OpErrorKind::InvalidObject`](crate::OpErrorKind) on apply)
    /// instead of reaching the shards. The facade's vector builder installs
    /// a finite-coordinates check here.
    pub fn set_query_validator(&mut self, validator: impl Fn(&O) -> bool + Send + Sync + 'static) {
        *self
            .core
            .validator
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = Some(Arc::new(validator));
    }

    /// Per-shard panic/quarantine state, in shard order.
    pub fn fault_states(&self) -> Vec<ShardFaultState> {
        self.core.quarantine.snapshot()
    }

    /// Currently quarantined shards, in shard order.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.core
            .quarantine
            .snapshot()
            .into_iter()
            .filter(|s| s.quarantined)
            .map(|s| s.shard)
            .collect()
    }

    /// Clears all quarantine flags and panic counts, returning the number
    /// of shards that were quarantined. Call after fixing (or rebuilding)
    /// whatever made a shard panic; planning immediately resumes probing
    /// every shard. Quarantine state lives beside the snapshot slot, not
    /// inside snapshots, so healing takes effect for the next served batch
    /// — on every reader — without waiting for a publish.
    pub fn heal(&self) -> usize {
        let cleared = self.core.quarantine.heal();
        self.core.obs.gauge_set("engine.quarantined_shards", 0);
        cleared
    }

    /// Resets every shard's counters and the engine's probe counters.
    pub fn reset_counters(&self) {
        for s in &self.shards {
            s.reset_counters();
        }
        self.core.probed.store(0, Ordering::Relaxed);
        self.core.pruned.store(0, Ordering::Relaxed);
    }

    /// Aggregate storage footprint.
    pub fn storage(&self) -> StorageFootprint {
        self.shards
            .iter()
            .fold(StorageFootprint::default(), |acc, s| acc + s.storage())
    }

    /// Inserts an object, returning its global id — sugar for a one-op
    /// [`apply`](Self::apply) batch. There is exactly one mutation route:
    /// the same transaction computes the pivot row, the destination shard's
    /// fork takes it with the object, the routing box grows to cover it,
    /// and the new snapshot publishes before returning.
    ///
    /// # Panics
    ///
    /// If a validator installed via
    /// [`set_query_validator`](Self::set_query_validator) rejects the
    /// object (use `apply` to observe per-op errors instead).
    pub fn insert(&mut self, o: O) -> ObjId
    where
        O: Clone,
    {
        let mut batch = UpdateBatch::new();
        batch.insert(o);
        let report = self.apply(&batch);
        match report.inserted_ids.first() {
            Some(&gid) => gid,
            None => panic!("insert rejected: {:?}", report.op_errors),
        }
    }

    /// Removes an object by global id; returns whether it was present.
    /// Sugar for a one-op [`apply`](Self::apply) batch, so it shares the
    /// full transactional path — the shard's box shrinks back to the
    /// surviving members, preserving pruning power.
    pub fn remove(&mut self, id: ObjId) -> bool
    where
        O: Clone,
    {
        let mut batch = UpdateBatch::new();
        batch.remove(id);
        self.apply(&batch).removes == 1
    }

    /// Lifetime totals of the mutation path.
    pub fn update_stats(&self) -> UpdateStats {
        self.update_stats
    }

    /// Shard and shard-local slot of a live object.
    pub fn locate(&self, id: ObjId) -> Option<(usize, ObjId)> {
        self.locator.get(id).map(|(s, local)| (s as usize, local))
    }

    /// Applies an ordered batch of inserts and removes through the same
    /// layered path queries use, returning exact accounting.
    ///
    /// * **Inserts** are routed via the routing table (nearest box lower
    ///   bound, smallest shard among ties — on a plain engine every bound
    ///   is 0, so the smallest shard). The object's
    ///   pivot row is computed and stored as codes **once** and handed to
    ///   the destination shard with the object — kinds that own the
    ///   engine's rows (LAESA, CPT, FQA) append it and pay zero shard-side
    ///   remap distances; for the rest the shard keeps it beside the index.
    /// * **Removes** tombstone the object; after the last op every shard
    ///   that lost a member lying on a face of its routing box has the box
    ///   recomputed from its surviving members' codes in one pass
    ///   ([`RoutingTable::rebox`]) — a member strictly inside the box
    ///   cannot have changed it, and only gives its row back to the
    ///   shard's routing centre ([`RoutingTable::forget`]) — so boxes stay
    ///   tight and pruning does not decay under churn.
    /// * If the batch leaves live counts imbalanced past the
    ///   [`RefreshPolicy`], every shard is re-cut instead: the build's k-d
    ///   cut of the live members' stored codes, moving only the objects
    ///   whose cell changed (their global ids are preserved and their codes
    ///   ride along; the locator is fixed up), then every box recomputed
    ///   once.
    ///
    /// Routed answers after any sequence of `apply` calls are identical to
    /// a from-scratch rebuild over the surviving objects — box maintenance
    /// is exact and shard membership never affects correctness.
    ///
    /// # Transaction semantics
    ///
    /// The whole batch stages off to the side — forked copies of the
    /// touched shards (rows included), a copy-on-write routing table — and
    /// commits by publishing one new [`EngineSnapshot`]. Concurrent
    /// [`EngineReader`]s never observe a half-applied batch: a batch
    /// serves either entirely before or entirely after the swap. It is
    /// **all-or-nothing**: a panic anywhere in staging (a poisoned op, an
    /// injected fault at `engine.apply.stage` / `engine.recluster` /
    /// `engine.apply.publish`) is caught, the staged state is dropped,
    /// and the report comes back with [`aborted`](ApplyReport::aborted)
    /// set — the engine keeps serving the last published snapshot and the
    /// same batch can be retried.
    pub fn apply(&mut self, batch: &UpdateBatch<O>) -> ApplyReport
    where
        O: Clone,
    {
        let t0 = Instant::now();
        let span = Span::enter("apply");
        let mut clock = ObsClock::start(true);
        let shard_cd0 = self.counters().compdists;
        let map_cd0 = self.update_stats.map_compdists;
        let copied0 = cow::copied_bytes();
        let validator = self.core.validator();
        let mut txn = self.begin_txn();
        let staged = catch_unwind(AssertUnwindSafe(|| {
            self.stage_batch(batch, validator.as_ref(), &mut txn, &mut clock)
        }));
        if staged.is_err() {
            // Abort: drop the forked shards whole. Nothing was published,
            // so serving (including concurrent readers) continues on the
            // last snapshot, and retrying the batch re-stages it from
            // scratch with the same ids.
            drop(txn);
            self.core.obs.counter_add("apply.aborts", 1);
            let mut report = ApplyReport {
                aborted: true,
                ..ApplyReport::default()
            };
            report.wall_secs = t0.elapsed().as_secs_f64();
            span.finish_with(&self.core.obs, &[("aborted", 1)]);
            return report;
        }
        let mut report = std::mem::take(&mut txn.report);
        let forked = txn.touched.iter().filter(|&&t| t).count();
        self.commit_txn(txn);
        // Snapshot swap and the retire sweep; the bytes are the shared
        // chunks this commit copied in order to write.
        self.core.obs.phase_add(
            "apply.publish",
            1,
            clock.lap(),
            &[
                ("forked_shards", forked as u64),
                ("copied_bytes", cow::copied_bytes() - copied0),
            ],
        );
        report.map_compdists = self.update_stats.map_compdists - map_cd0;
        report.shard_compdists = self.counters().compdists - shard_cd0;
        report.wall_secs = t0.elapsed().as_secs_f64();
        span.finish_with(
            &self.core.obs,
            &[
                ("map_compdists", report.map_compdists),
                ("shard_compdists", report.shard_compdists),
            ],
        );
        self.core
            .obs
            .gauge_set("engine.live_objects", self.len() as u64);
        report
    }

    /// Opens a transaction over the current state: `Arc` clones of the
    /// published shards (forked on first touch), a copy of the routing
    /// boxes and a chunk-sharing clone of the locator — `O(n / chunk)`
    /// handles, no per-object copy.
    fn begin_txn(&self) -> ApplyTxn<O> {
        let n = self.shards.len();
        ApplyTxn {
            shards: self.shards.clone(),
            touched: vec![false; n],
            router: RoutingTable::clone(&self.router),
            locator: self.locator.clone(),
            next_id: self.next_id,
            stats: self.update_stats,
            report: ApplyReport::default(),
            dirty: vec![false; n],
        }
    }

    /// Stages a whole batch into `txn`: ops, box shrinking, re-clustering.
    /// Touches no published state — everything it does is discarded by
    /// dropping the transaction.
    fn stage_batch(
        &self,
        batch: &UpdateBatch<O>,
        validator: Option<&Validator<O>>,
        txn: &mut ApplyTxn<O>,
        clock: &mut ObsClock,
    ) where
        O: Clone,
    {
        let (mut mapped, mut codes) = (Vec::new(), Vec::new());
        // Global ids this batch successfully removed, to tell a duplicate
        // remove apart from a remove of an id that was never live.
        let mut removed_here: HashSet<ObjId> = HashSet::new();
        for (i, op) in batch.ops().iter().enumerate() {
            fault::at("engine.apply.stage", i as u64);
            match op {
                UpdateOp::Insert(o) => {
                    if let Some(v) = validator {
                        if !v(o) {
                            txn.report.op_errors.push(OpError {
                                op: i,
                                kind: OpErrorKind::InvalidObject,
                            });
                            continue;
                        }
                    }
                    let gid = self.stage_insert(txn, o.clone(), &mut mapped, &mut codes);
                    txn.report.inserted_ids.push(gid);
                    txn.report.inserts += 1;
                }
                UpdateOp::Remove(id) => {
                    if self.stage_remove(txn, *id) {
                        txn.report.removes += 1;
                        removed_here.insert(*id);
                    } else {
                        txn.report.missing_removes += 1;
                        let kind = if removed_here.contains(id) {
                            OpErrorKind::DuplicateRemove(*id)
                        } else {
                            OpErrorKind::UnknownGid(*id)
                        };
                        txn.report.op_errors.push(OpError { op: i, kind });
                    }
                }
            }
        }
        self.core.obs.phase_add(
            "apply.ops",
            batch.ops().len() as u64,
            clock.lap(),
            &[
                ("inserts", txn.report.inserts as u64),
                ("removes", txn.report.removes as u64),
            ],
        );
        // The trigger reads the live counts the ops left, which no rebox
        // changes. A re-cluster reboxes every shard after its re-cut, so
        // the face rebox is skipped then: it would be thrown away.
        let lens = || txn.shards.iter().map(|s| s.len());
        let (max_len, min_len) = (lens().max().unwrap_or(0), lens().min().unwrap_or(0));
        let recluster = txn.shards.len() >= 2 && self.refresh.triggers(max_len, min_len);
        let dirty = std::mem::take(&mut txn.dirty);
        if !recluster {
            txn.report.reboxed_shards = self.stage_rebox(txn, |s| dirty[s]);
        }
        self.core.obs.phase_add(
            "apply.rebox",
            1,
            clock.lap(),
            &[("reboxed_shards", txn.report.reboxed_shards as u64)],
        );
        if recluster {
            fault::at("engine.recluster", 0);
            txn.report.moved_objects = self.stage_recut(txn);
            txn.report.reboxed_shards = self.stage_rebox(txn, |_| true);
            txn.report.reclusters = 1;
        }
        txn.stats.reclusters += txn.report.reclusters as u64;
        txn.stats.moved_objects += txn.report.moved_objects;
        self.core.obs.phase_add(
            "apply.recluster",
            u64::from(recluster),
            clock.lap(),
            &[("moved_objects", txn.report.moved_objects)],
        );
        // The last abortable point: past here the transaction commits.
        fault::at("engine.apply.publish", 0);
    }

    /// Publishes a staged transaction: the writer's mirror takes the
    /// staged state and the new snapshot goes out in a single swap.
    fn commit_txn(&mut self, txn: ApplyTxn<O>) {
        self.shards = txn.shards;
        self.router = Arc::new(txn.router);
        self.locator = txn.locator;
        self.next_id = txn.next_id;
        self.update_stats = txn.stats;
        *self.core.updates.lock().unwrap_or_else(|e| e.into_inner()) = self.update_stats;
        self.publish_snapshot();
    }

    /// Swaps in a new snapshot of the current mirror state (epoch + 1) and
    /// sweeps retired snapshots no in-flight batch pins anymore.
    fn publish_snapshot(&mut self) {
        self.epoch += 1;
        let next = Arc::new(EngineSnapshot {
            epoch: self.epoch,
            shards: self.shards.clone(),
            router: Arc::clone(&self.router),
        });
        let old = std::mem::replace(
            &mut *self.core.snap.lock().unwrap_or_else(|e| e.into_inner()),
            next,
        );
        self.retired.push(old);
        // Epoch-based reclamation, degenerate form: a batch pins its
        // snapshot via the Arc it loaded, so strong_count == 1 proves no
        // reader can still reach it.
        self.retired.retain(|s| Arc::strong_count(s) > 1);
        self.core.obs.gauge_set("engine.snapshot_epoch", self.epoch);
        self.core
            .obs
            .gauge_set("engine.retired_snapshots", self.retired.len() as u64);
    }

    /// The one insert path: map once, store the row as codes once, hand
    /// the codes to the shard and its routing box. `mapped` and `codes` are
    /// reused buffers.
    fn stage_insert(
        &self,
        txn: &mut ApplyTxn<O>,
        o: O,
        mapped: &mut Vec<f64>,
        codes: &mut Vec<u16>,
    ) -> ObjId {
        let rt = &mut txn.router;
        rt.map_into(&o, mapped);
        txn.stats.map_compdists += mapped.len() as u64;
        // Nearest box lower bound of the exact map; ties go to the smallest
        // shard, then the lowest shard id.
        let mut best = (f64::INFINITY, usize::MAX, 0usize);
        for (s, b) in rt.boxes().iter().enumerate() {
            let cand = (b.lower_bound(mapped, rt.step()), txn.shards[s].len());
            if cand.0 < best.0 || (cand.0 == best.0 && cand.1 < best.1) {
                best = (cand.0, cand.1, s);
            }
        }
        let si = best.2;
        let step = rt.step();
        codes.clear();
        codes.extend(mapped.iter().map(|&x| quantise(x, step)));
        rt.extend(si, codes);
        let gid = txn.next_id;
        txn.next_id += 1;
        let local = txn.shard_mut(si).insert_adopted(Cow::Owned(o), gid, codes);
        txn.locator.set(gid, si, local);
        txn.stats.inserts += 1;
        gid
    }

    /// The one remove path: tombstone, and flag the shard for a box
    /// recomputation only if the box can have changed. Every staged box is
    /// the per-dimension min and max of its shard's live stored codes
    /// (true at build, kept by every insert's `extend` and every
    /// recomputation), so a member whose code lies strictly inside it on
    /// every pivot dimension attains no face: removing it leaves the box
    /// exactly as it was. The tombstoned slot keeps its row, whether it
    /// was there at the last commit or inserted by this very batch.
    fn stage_remove(&self, txn: &mut ApplyTxn<O>, id: ObjId) -> bool {
        let Some((s, local)) = txn.locator.remove(id) else {
            return false;
        };
        let s = s as usize;
        if !txn.shard_mut(s).remove_local(local) {
            return false;
        }
        txn.stats.removes += 1;
        if !txn.dirty[s] {
            let rt = &mut txn.router;
            let codes = || txn.shards[s].codes(local);
            if rt.boxes()[s].strictly_contains(codes()) {
                // The box stands; the centre gives the row back. A flagged
                // shard's centre is recomputed with its box instead.
                rt.forget(s, codes());
            } else {
                txn.dirty[s] = true;
            }
        }
        true
    }

    /// Recomputes the staged routing boxes and centres of the flagged
    /// shards from their live members' codes (re-clustering and
    /// compaction get their centres here). Work is bounded by the flagged
    /// shards' own columns. Returns how many boxes were recomputed.
    fn stage_rebox(&self, txn: &mut ApplyTxn<O>, dirty: impl Fn(usize) -> bool) -> usize {
        let mut reboxed = 0;
        for s in (0..txn.shards.len()).filter(|&s| dirty(s)) {
            let shard = &txn.shards[s];
            txn.router
                .rebox(s, shard.columns(), |slot| shard.is_live(slot));
            reboxed += 1;
        }
        reboxed
    }

    /// The write path's one re-partition: the build's k-d cut of the live
    /// members' stored codes, gathered row-major in ascending global id
    /// order (slot tables carry no order guarantee; the order keeps the
    /// cut deterministic). Every object whose cell changed moves (global
    /// id kept, codes riding along). Returns the objects moved; boxes are
    /// left to the caller.
    fn stage_recut(&self, txn: &mut ApplyTxn<O>) -> u64 {
        let live: Vec<(ObjId, (usize, ObjId))> = txn.locator.live().collect();
        let width = txn.shards[0].columns().width();
        let mut codes = Vec::with_capacity(live.len() * width);
        for &(_, (s, local)) in &live {
            codes.extend(txn.shards[s].codes(local));
        }
        let cells = pmi_router::partition_pivot_space(
            &codes,
            live.len(),
            txn.shards.len(),
            self.core.threads,
        );
        let mut moved = 0;
        for (i, (&(gid, from), &to)) in live.iter().zip(&cells).enumerate() {
            let row = &codes[i * width..][..width];
            moved += u64::from(txn.move_object(gid, from, to, row));
        }
        moved
    }

    /// Compacts the shards' pivot rows under sustained churn — a **major
    /// compaction**, restoring the engine to what a from-scratch rebuild
    /// over the survivors would produce:
    ///
    /// 1. Every engine first **re-partitions** the survivors with the
    ///    call [`build`](Self::build) ran, over their stored rows (churn
    ///    drifts shard membership away from the balanced cells; probing an
    ///    oversized shard costs extra kernel work on every query).
    ///    Objects that change side move through the normal adopted path —
    ///    kinds that own their rows compute no distances for a move.
    /// 2. The survivors are renumbered **densely in ascending global-id
    ///    order** (survivor of rank `i` becomes global id `i`, exactly the
    ///    ids a rebuild would assign), and every shard is remapped: kinds
    ///    that own their rows rebuild their slot tables tombstone-free
    ///    and keep only the survivors' stored rows
    ///    ([`MetricIndex::compact_rows`]); other kinds keep their local
    ///    tombstones and only have their live slots' global ids
    ///    rewritten.
    /// 3. Every routing box is recomputed from the final membership, so
    ///    pruning is exactly a fresh build's.
    ///
    /// Serving afterwards is byte-identical — results, compdists,
    /// probe/prune counts — to a rebuild over the survivors with this
    /// membership and the same step (the rows keep the step the engine
    /// was built under; a rebuild sizes its own from the survivors, which
    /// differs only if the largest pivot distance left or entered a
    /// power-of-two band). **Renumbers global ids**: ids returned by earlier
    /// inserts are invalidated, exactly as a rebuild would. Returns the
    /// number of dead rows dropped (0 with nothing dead).
    ///
    /// The pass is a transaction like [`apply`](Self::apply): everything
    /// stages on forked shards and publishes as one new engine snapshot,
    /// so in-flight reader batches keep serving old ids consistently from
    /// the snapshot they hold, and it is **all-or-nothing** — a panic
    /// anywhere in it (an injected fault at `engine.compact`) is caught,
    /// the staged state is dropped, `compact.aborts` is counted and the
    /// call returns 0 with nothing changed.
    ///
    /// [`MetricIndex::compact_rows`]: pmi_metric::MetricIndex::compact_rows
    pub fn compact(&mut self) -> usize {
        let dead = self.next_id as usize - self.len();
        if dead == 0 {
            // A no-op records nothing: a `compact` phase in the metrics
            // always means rows actually moved.
            return 0;
        }
        let span = Span::enter("compact");
        let mut txn = self.begin_txn();
        let staged = catch_unwind(AssertUnwindSafe(|| self.stage_compaction(&mut txn)));
        let Ok(survivors) = staged else {
            drop(txn);
            self.core.obs.counter_add("compact.aborts", 1);
            span.finish_with(&self.core.obs, &[("aborted", 1)]);
            return 0;
        };
        txn.stats.compactions += 1;
        txn.stats.compacted_rows += dead as u64;
        self.commit_txn(txn);
        span.finish_with(
            &self.core.obs,
            &[
                ("compacted_rows", dead as u64),
                ("survivors", survivors as u64),
            ],
        );
        self.core
            .obs
            .gauge_set("engine.live_objects", self.len() as u64);
        dead
    }

    /// Stages a whole compaction into `txn` (see [`compact`](Self::compact)
    /// for the steps) and returns the survivor count. Touches no published
    /// state.
    fn stage_compaction(&self, txn: &mut ApplyTxn<O>) -> usize {
        // (1) Full re-partition of the survivors. The movement tombstones
        // this leaves behind are folded away by the dense rebuild below.
        self.stage_recut(txn);

        // (2) Dense ids, per-shard compaction: the survivors in ascending
        // (old) global-id order, their rank the new global id.
        let mut keep: Vec<Vec<ObjId>> = vec![Vec::new(); txn.shards.len()];
        let mut gids: Vec<Vec<ObjId>> = vec![Vec::new(); txn.shards.len()];
        let mut survivors = 0;
        for (_, (s, local)) in txn.locator.live() {
            keep[s].push(local);
            gids[s].push(survivors as ObjId);
            survivors += 1;
        }
        let mut locator = vec![Locator::DEAD; survivors];
        for (s, (keep, gids)) in keep.iter().zip(&gids).enumerate() {
            if txn.shard_mut(s).compact_rows(keep, gids) {
                // Dense rebuild: new local id i holds new global id gids[i].
                for (local, &gid) in gids.iter().enumerate() {
                    locator[gid as usize] = (s as u32, local as ObjId);
                }
            } else {
                // Tombstones kept: local ids unchanged, global ids remapped.
                for (&local, &gid) in keep.iter().zip(gids) {
                    locator[gid as usize] = (s as u32, local);
                }
            }
        }
        txn.locator = Locator(locator.into());
        txn.next_id = survivors as ObjId;

        // (3) Tight boxes over the final membership.
        self.stage_rebox(txn, |_| true);
        // The last abortable point: past here the compaction commits.
        fault::at("engine.compact", 0);
        survivors
    }

    /// Fetches a copy of a live object by global id.
    pub fn get(&self, id: ObjId) -> Option<O> {
        let (s, local) = self.locator.get(id)?;
        Some(self.shards[s as usize].object_local(local)?.into_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Query;
    use pmi_metric::CodeBox;
    use pmi_metric::{BruteForce, Metric, MetricIndex, ObjTable, L2};

    pub(super) fn grid(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| vec![(i % 37) as f32, (i / 37) as f32])
            .collect()
    }

    pub(super) fn brute_factory(
        part: ObjTable<Vec<f32>>,
    ) -> Result<Box<dyn MetricIndex<Vec<f32>>>, &'static str> {
        Ok(Box::new(BruteForce::new(part, L2)))
    }

    /// BruteForce shards in balanced runs over the zero-width pivot space:
    /// the reference engine.
    pub(super) fn engine(n: usize, shards: usize, threads: usize) -> ShardedEngine<Vec<f32>> {
        ShardedEngine::build(
            grid(n),
            Layout::plain(),
            &EngineConfig {
                shards,
                threads,
                ..EngineConfig::default()
            },
            |_, part, _| brute_factory(part),
        )
        .unwrap()
    }

    /// A plain layout is the zero-width pivot space: its boxes bound
    /// nothing, so its table plans every shard.
    pub(super) fn assert_plans_every_shard(e: &ShardedEngine<Vec<f32>>) {
        let rt = e.routing().expect("every engine routes");
        assert!(rt.boxes().iter().all(|b| b.dim() == 0), "zero-width boxes");
        let mut plan = Vec::new();
        rt.range_plan_into(&[], 0.0, &mut plan);
        assert_eq!(plan, (0..e.num_shards()).collect::<Vec<_>>());
    }

    /// A routed engine over [`grid`] whose pivot space is the identity on
    /// the two coordinates, BruteForce shards (so the shards hold the rows).
    fn grid_space_engine(n: usize, cfg: &EngineConfig) -> ShardedEngine<Vec<f32>> {
        let layout = Layout::mapped(2, |o: &[f32], out: &mut Vec<f64>| {
            out.extend([o[0] as f64, o[1] as f64])
        });
        ShardedEngine::build(grid(n), layout, cfg, |_, part, _| brute_factory(part)).unwrap()
    }

    /// A routed engine over two well-separated 1-d clusters, one pivot at
    /// the origin (mapping = |x|), one cluster per shard.
    pub(super) fn routed_two_clusters() -> (Vec<Vec<f32>>, ShardedEngine<Vec<f32>>) {
        two_clusters(RefreshPolicy::disabled())
    }

    fn two_clusters(refresh: RefreshPolicy) -> (Vec<Vec<f32>>, ShardedEngine<Vec<f32>>) {
        let objects: Vec<Vec<f32>> = (0..20)
            .map(|i| {
                if i % 2 == 0 {
                    vec![(i / 2) as f32] // cluster A: 0..10
                } else {
                    vec![100.0 + (i / 2) as f32] // cluster B: 100..110
                }
            })
            .collect();
        let pivot = vec![0.0f32];
        let mapper = move |o: &[f32], out: &mut Vec<f64>| out.push(L2.dist(o, &pivot));
        let membership: Vec<usize> = objects.iter().map(|o| usize::from(o[0] >= 50.0)).collect();
        let e = ShardedEngine::build(
            objects.clone(),
            Layout::mapped(1, mapper).with_membership(&membership),
            &EngineConfig {
                shards: 2,
                threads: 1,
                refresh,
                ..EngineConfig::default()
            },
            |_, part, _| brute_factory(part),
        )
        .unwrap();
        (objects, e)
    }

    #[test]
    fn sharded_matches_unsharded() {
        let objects = grid(300);
        let single = BruteForce::new(objects.clone(), L2);
        for shards in [1usize, 2, 4, 7] {
            let e = engine(300, shards, 2);
            assert_eq!(e.len(), 300);
            assert_eq!(e.num_shards(), shards);
            assert_plans_every_shard(&e);
            for qi in [0usize, 17, 299] {
                let mut want = single.range_query(&objects[qi], 5.0);
                want.sort_unstable();
                assert_eq!(e.range_query(&objects[qi], 5.0), want, "P={shards}");
                let want_k = single.knn_query(&objects[qi], 12);
                let got_k = e.knn_query(&objects[qi], 12);
                assert_eq!(got_k.len(), want_k.len());
                for (g, w) in got_k.iter().zip(&want_k) {
                    assert_eq!(g.id, w.id, "P={shards} qi={qi}");
                    assert!((g.dist - w.dist).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn apply_batches_update_through_the_shared_path() {
        // A routed engine: each insert hands one row to its shard, removes tombstone, counters stay exact.
        let objects = grid(30);
        let mut e = grid_space_engine(
            30,
            &EngineConfig {
                shards: 3,
                threads: 1,
                ..EngineConfig::default()
            },
        );
        let mut batch = UpdateBatch::new();
        batch
            .insert(vec![100.0f32, 100.0])
            .remove(7)
            .insert(vec![200.0f32, 200.0])
            .remove(7) // already gone: counted as missing
            .remove(9999); // never existed
        let report = e.apply(&batch);
        assert_eq!(report.inserts, 2);
        assert_eq!(report.removes, 1);
        assert_eq!(report.missing_removes, 2);
        assert_eq!(report.inserted_ids, vec![30, 31]);
        assert_eq!(report.map_compdists, 4, "one 2-wide row per insert");
        assert_eq!(report.shard_compdists, 0, "BruteForce inserts are free");
        // Every object of grid(30) has y = 0, on its box's face.
        assert_eq!(report.reboxed_shards, 1, "object 7's shard is reboxed");
        // The grid's coordinates stay under 30, so the rows are stored in
        // steps of 2⁻¹¹ that stop short of 32: both inserts saturate.
        assert_eq!(e.routing().unwrap().step(), 1.0 / 2048.0);
        for gid in [30, 31] {
            let (s, local) = e.locate(gid).unwrap();
            assert!(
                e.shards()[s].codes(local).eq([u16::MAX, u16::MAX]),
                "the shard keeps the row a BruteForce index does not take"
            );
        }
        assert_eq!(e.len(), 31);
        assert_eq!(e.locate(30), Some((e.locate(30).unwrap().0, 10)));
        assert_eq!(
            e.range_query(&vec![100.0f32, 100.0], 0.5),
            vec![30],
            "inserted object is served"
        );
        assert!(e.range_query(&objects[7], 0.25).is_empty(), "removed");
        let stats = e.update_stats();
        assert_eq!((stats.inserts, stats.removes), (2, 1));
        // The serve report carries the cumulative update totals.
        let out = e.serve(&[Query::range(vec![0.0f32, 0.0], 1.0)]);
        assert_eq!(out.report.updates, stats);
    }

    #[test]
    fn apply_shrinks_boxes_and_restores_pruning() {
        let (objects, mut shrunk) = routed_two_clusters();
        // Remove all of cluster B but its last member.
        let b_ids: Vec<ObjId> = (0..20).filter(|i| i % 2 == 1).collect();
        let mut batch = UpdateBatch::new();
        for &id in &b_ids[..b_ids.len() - 1] {
            batch.remove(id);
        }
        let report = shrunk.apply(&batch);
        assert_eq!(report.removes, b_ids.len() - 1);
        assert_eq!(report.reboxed_shards, 1, "only shard 1 lost members");

        // Query around the removed members: the shrunk box prunes.
        let q = vec![102.0f32]; // cluster B's low end, removed above
        shrunk.reset_counters();
        assert!(shrunk.range_query(&q, 1.0).is_empty());
        let (shrunk_probed, shrunk_pruned) = shrunk.probe_counts();
        assert_eq!((shrunk_probed, shrunk_pruned), (0, 2), "shrunk box prunes");
        // The survivor is still found through the shrunk box.
        let survivor = objects[b_ids[b_ids.len() - 1] as usize].clone();
        assert_eq!(
            shrunk.range_query(&survivor, 0.5),
            vec![b_ids[b_ids.len() - 1]]
        );
    }

    #[test]
    fn a_pinned_snapshot_keeps_the_table_it_was_published_with() {
        let (_, mut e) = routed_two_clusters();
        let table_of = |rt: &RoutingTable<Vec<f32>>| -> Vec<(CodeBox, Option<Vec<f64>>)> {
            (0..rt.num_shards())
                .map(|s| (rt.boxes()[s].clone(), rt.centre(s).map(|c| c.collect())))
                .collect()
        };
        // What an in-flight reader batch holds across the commits below.
        let pinned = e.core.snapshot();
        let published = table_of(&pinned.router);
        assert_eq!(published[1].1, Some(vec![104.5]));
        // An insert, an interior remove (102) and a face remove (109): the
        // staged copy's centre moves by `extend`, `forget` and a rebox.
        let mut batch = UpdateBatch::new();
        batch.insert(vec![107.5]).remove(5).remove(19);
        assert_eq!(e.apply(&batch).reboxed_shards, 1);
        assert_eq!(table_of(&pinned.router), published);
        // {100, 101, 103, …, 108} and 107.5 remain.
        let now = table_of(e.routing().unwrap());
        assert_eq!(now[1].1, Some(vec![(1045.0 - 102.0 - 109.0 + 107.5) / 9.0]));
        assert_eq!(now[0], published[0], "cluster A was never touched");
    }

    #[test]
    fn apply_phases_nest_under_apply() {
        let mut e = engine(400, 4, 1);
        for round in 0..8u32 {
            let mut batch = UpdateBatch::new();
            for i in 0..32 {
                batch.insert(vec![1000.0 + (round * 32 + i) as f32, 0.0]);
                batch.remove(round * 32 + i);
            }
            assert_eq!(e.apply(&batch).removes, 32);
        }
        let snap = e.metrics();
        let phase = |path: &str| {
            snap.phases
                .iter()
                .find(|p| p.path == path)
                .unwrap_or_else(|| panic!("no `{path}` phase in\n{}", snap.render()))
        };
        let children: f64 = snap
            .phases
            .iter()
            .filter(|p| p.path.starts_with("apply."))
            .map(|p| p.wall_secs)
            .sum();
        assert!(
            children <= phase("apply").wall_secs,
            "children {children} s exceed apply {} s",
            phase("apply").wall_secs
        );
        let publish = phase("apply.publish");
        assert_eq!(publish.calls, 8);
        let counter = |name: &str| publish.counters.iter().find(|(k, _)| k == name).unwrap().1;
        assert!((8..=32).contains(&counter("forked_shards")));
        assert!(
            counter("copied_bytes") > 0,
            "forks copy the chunks they write"
        );
    }

    #[test]
    fn recluster_recuts_every_shard_and_keeps_answers() {
        // Start from two tight clusters, then grow cluster A only: the
        // imbalance trips RefreshPolicy and every shard is re-cut.
        let (_, mut e) = two_clusters(RefreshPolicy {
            max_imbalance: 2.0,
            min_objects: 10,
        });
        // 40 inserts spread across cluster A's neighborhood: all route to
        // shard 0, leaving 50 vs 10.
        let mut batch = UpdateBatch::new();
        for i in 0..40 {
            batch.insert(vec![(i % 12) as f32]);
        }
        let report = e.apply(&batch);
        assert_eq!(report.inserts, 40);
        assert_eq!(report.reclusters, 1, "imbalance trips the policy");
        assert!(report.moved_objects > 0, "the re-cut moved objects");
        assert_eq!(report.reboxed_shards, 2, "every shard is reboxed");
        let lens: Vec<usize> = e.shards().iter().map(|s| s.len()).collect();
        assert_eq!(lens, [30, 30], "the build's balanced cells");
        // Every object is still served exactly once, with exact answers.
        let single: Vec<Vec<f32>> = (0..e.next_id).filter_map(|gid| e.get(gid)).collect();
        assert_eq!(single.len(), e.len());
        let oracle = BruteForce::new(single, L2);
        for q in [vec![3.0f32], vec![105.0f32], vec![11.0f32]] {
            let got = e.knn_query(&q, 5);
            let want = oracle.knn_query(&q, 5);
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() < 1e-12, "post-recluster kNN");
            }
            assert_eq!(
                e.range_query(&q, 2.0).len(),
                oracle.range_query(&q, 2.0).len(),
                "post-recluster MRQ"
            );
        }
        let stats = e.update_stats();
        assert_eq!(stats.reclusters, 1);
        assert_eq!(stats.moved_objects, report.moved_objects);
    }

    #[test]
    fn compaction_renumbers_and_keeps_serving_exact() {
        // A routed engine over BruteForce shards (the non-adopting
        // fallback: tombstones stay local, gids remap).
        let mut e = grid_space_engine(
            40,
            &EngineConfig {
                shards: 3,
                threads: 1,
                ..EngineConfig::default()
            },
        );
        let mut batch = UpdateBatch::new();
        for id in [1u32, 5, 9, 13, 17, 21] {
            batch.remove(id);
        }
        batch.insert(vec![500.0f32, 500.0]);
        let r = e.apply(&batch);
        assert_eq!((r.removes, r.inserts), (6, 1));

        // Survivors in ascending old-gid order are the expected new order.
        let survivors: Vec<Vec<f32>> = (0..41u32).filter_map(|g| e.get(g)).collect();
        let dropped = e.compact();
        assert_eq!(dropped, 6, "one dead row per remove");
        assert_eq!(e.len(), 35);
        let stats = e.update_stats();
        assert_eq!((stats.compactions, stats.compacted_rows), (1, 6));
        // Ids are now dense 0..35 and every survivor is served under its
        // rank, identical to a fresh engine over the survivors.
        for (new_gid, o) in survivors.iter().enumerate() {
            assert_eq!(e.get(new_gid as u32).as_ref(), Some(o));
            assert_eq!(e.range_query(o, 0.0), vec![new_gid as u32]);
        }
        assert_eq!(e.get(35), None);
        // The next insert takes the next dense id and serving stays exact.
        let gid = e.insert(vec![600.0f32, 600.0]);
        assert_eq!(gid, 35);
        assert_eq!(e.range_query(&vec![600.0f32, 600.0], 0.5), vec![35]);
        // compact with nothing dead is a no-op.
        assert_eq!(e.compact(), 0);
    }

    #[test]
    fn routed_insert_routes_and_extends() {
        let (_, mut e) = routed_two_clusters();
        // New object near cluster B must land in shard 1 and widen its box.
        let gid = e.insert(vec![120.0f32]);
        assert_eq!(e.get(gid), Some(vec![120.0f32]));
        e.reset_counters();
        let hits = e.range_query(&vec![120.0f32], 1.0);
        assert_eq!(hits, vec![gid]);
        let (probed, pruned) = e.probe_counts();
        assert_eq!((probed, pruned), (1, 1), "cluster A shard still pruned");
    }

    #[test]
    fn updates_preserve_global_ids() {
        let mut e = engine(20, 3, 1);
        let o = e.get(7).expect("live object");
        assert!(e.remove(7));
        assert!(!e.remove(7));
        assert_eq!(e.len(), 19);
        assert!(!e.range_query(&o, 0.0).contains(&7));
        let gid = e.insert(o.clone());
        assert_eq!(gid, 20);
        assert!(e.range_query(&o, 0.0).contains(&gid));
        assert_eq!(e.get(gid), Some(o));
    }

    #[test]
    fn apply_reports_per_op_errors() {
        let mut e = engine(20, 2, 1);
        e.set_query_validator(|o: &Vec<f32>| o.iter().all(|c| c.is_finite()));
        let mut b = UpdateBatch::new();
        b.insert(vec![1.0, 1.0]) // op 0: fine
            .insert(vec![f32::NAN, 0.0]) // op 1: rejected by the validator
            .remove(3) // op 2: fine
            .remove(3) // op 3: duplicate remove
            .remove(999); // op 4: never existed
        let r = e.apply(&b);
        assert_eq!(r.inserts, 1);
        assert_eq!(r.removes, 1);
        assert_eq!(
            r.missing_removes, 2,
            "counts duplicate + unknown, as before"
        );
        assert_eq!(
            r.op_errors,
            vec![
                OpError {
                    op: 1,
                    kind: OpErrorKind::InvalidObject
                },
                OpError {
                    op: 3,
                    kind: OpErrorKind::DuplicateRemove(3)
                },
                OpError {
                    op: 4,
                    kind: OpErrorKind::UnknownGid(999)
                },
            ]
        );
        assert_eq!(e.len(), 20);
        assert!(format!("{r}").contains("op errors: 3"));
        // An all-valid batch reports no errors.
        let mut ok = UpdateBatch::new();
        ok.insert(vec![2.0, 2.0]).remove(5);
        assert!(e.apply(&ok).op_errors.is_empty());
    }
}
