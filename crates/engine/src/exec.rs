//! The serve path: per-worker scratch, per-query degradation control, the
//! one guarded shard probe every query runs, range / kNN planning around
//! it, and the claim loop that serves a batch. A child of the `engine`
//! module, so it reads the snapshot and the core's policies directly;
//! nothing here writes engine state.

use super::{
    BatchOutcome, EngineCore, EngineReader, EngineSnapshot, ObsClock, ShardedEngine, Validator,
};
use crate::merge::TopK;
use crate::query::{Query, QueryResult};
use crate::queue::{PumpOutcome, SubmitQueue};
use crate::report::{LatencySummary, ServeReport, ShardServeStats};
use crate::robust::{DegradeReason, Degraded, QueryBudget, QueryError};
use crate::shard::Shard;
use pmi_metric::fault;
use pmi_metric::parallel::fan_out;
use pmi_metric::{Counters, Neighbor, ObjId, Object, QueryScratch};
use pmi_obs::{Hist, QueryTrace, TraceEvent, TraceKind, TracePolicy, TraceRing};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Reusable per-worker buffers for the batch-serving hot loop: the
/// query-pivot distance vector, the shard probe plan, the candidate/result
/// staging buffers and the bounded top-k collector all persist across the
/// queries one worker executes, so after warmup the only allocation a query
/// performs is its exact-size answer.
#[derive(Default)]
pub struct EngineScratch {
    /// Index-level scratch (query-pivot distances, kNN heap).
    qs: QueryScratch,
    /// The query's mapped point in pivot space (empty on a plain engine).
    mapped: Vec<f64>,
    /// Range probe plan: shards that must be probed.
    probe: Vec<usize>,
    /// kNN probe order: `(shard, box lower bound)` best-first.
    order: Vec<(usize, f64)>,
    /// Range answer staging buffer (global ids).
    ids: Vec<ObjId>,
    /// Per-shard kNN staging buffer.
    nbrs: Vec<Neighbor>,
    /// Global top-k collector.
    topk: TopK,
    /// Per-worker observability buffers, merged once per batch.
    obs: ScratchObs,
    /// Per-worker trace ring and captured traces (inert unless a
    /// [`TracePolicy`] arms it for the batch).
    trace: ScratchTrace,
    /// Per-query degradation control: budget clocks, compdist spending,
    /// panic attribution, skip accounting. Disarmed (the default), probe
    /// loops pay one branch per probe.
    ctl: QueryCtl,
}

impl EngineScratch {
    /// Fresh, empty scratch buffers.
    pub fn new() -> Self {
        EngineScratch::default()
    }
}

/// One-in-N query sampling rate for probe-wall timing. Exact per-shard
/// probe/cost counts are always kept; only *wall-clock* attribution is
/// sampled, so the per-probe clock-read cost amortizes to well under the
/// 2% serve-overhead budget. Power of two (cheap mask).
const OBS_SAMPLE: u64 = 8;

/// Cap on raw probe-wall samples retained per (worker, shard) per batch,
/// bounding memory on very large batches.
const OBS_SAMPLE_CAP: usize = 65_536;

/// Per-worker observability state, recorded with plain (non-atomic)
/// writes on the serve path and folded into the engine's [`Registry`] and
/// the batch's [`ServeReport`] once per batch. Exact probe counts are
/// kept for every probe; probe and phase walls only for the queries
/// `sampled` marks, so an unsampled query reads one clock pair (its own
/// wall) and no other. A fresh scratch (the single-query paths) never
/// samples.
#[derive(Default)]
struct ScratchObs {
    /// Whether the in-flight query is one of the 1-in-[`OBS_SAMPLE`]
    /// timing samples.
    sampled: bool,
    /// Exact probe count per shard (always on — one plain add per probe).
    probes: Vec<u64>,
    /// Sampled probe wall per shard, summed nanoseconds.
    shard_nanos: Vec<u64>,
    /// Raw sampled probe walls per shard (for exact sample quantiles).
    shard_samples: Vec<Vec<u64>>,
    /// Sampled wall of the plan step (query mapping + shard selection).
    plan_nanos: u64,
    /// Sampled wall of the shard-probe step.
    scan_nanos: u64,
    /// Sampled wall of the merge step.
    merge_nanos: u64,
    /// How many queries this worker sampled for timing.
    sampled_queries: u64,
    /// Pivot distances paid mapping the batch's queries.
    map_dists: u64,
    /// Every query's wall (not sampled — one histogram record per query).
    query_wall: Hist,
    /// Scan-kernel row tally harvested from [`QueryScratch`] at worker exit.
    kernel_rows: u64,
    /// This worker's busy wall across the batch, nanoseconds.
    busy_nanos: u64,
}

impl ScratchObs {
    /// Sizes the per-shard buffers for one batch.
    fn prepare(&mut self, shards: usize) {
        self.sampled = false;
        self.probes.resize(shards, 0);
        self.shard_nanos.resize(shards, 0);
        self.shard_samples.resize_with(shards, Vec::new);
    }

    /// Exact probe tally (always on; resilient to unprepared scratch from
    /// the public single-query paths).
    #[inline]
    fn note_probe(&mut self, s: usize) {
        if self.probes.len() <= s {
            self.probes.resize(s + 1, 0);
        }
        self.probes[s] += 1;
    }

    /// Records one sampled probe wall against shard `s` (only `serve`
    /// samples, and it prepares every worker's scratch).
    fn note_probe_wall(&mut self, s: usize, nanos: u64) {
        self.shard_nanos[s] += nanos;
        self.scan_nanos += nanos;
        if self.shard_samples[s].len() < OBS_SAMPLE_CAP {
            self.shard_samples[s].push(nanos);
        }
    }

    /// Folds another worker's state into this one (report aggregation;
    /// both prepared for the same shard count).
    fn merge(&mut self, other: ScratchObs) {
        for (p, q) in self.probes.iter_mut().zip(other.probes) {
            *p += q;
        }
        for (s, (ns, mut samples)) in other
            .shard_nanos
            .into_iter()
            .zip(other.shard_samples)
            .enumerate()
        {
            self.shard_nanos[s] += ns;
            self.shard_samples[s].append(&mut samples);
        }
        self.plan_nanos += other.plan_nanos;
        self.scan_nanos += other.scan_nanos;
        self.merge_nanos += other.merge_nanos;
        self.sampled_queries += other.sampled_queries;
        self.map_dists += other.map_dists;
        self.query_wall.merge(&other.query_wall);
        self.kernel_rows += other.kernel_rows;
        self.busy_nanos += other.busy_nanos;
    }
}

/// Per-worker trace state. Untraced queries (the default policy) cost one
/// branch per serve-loop iteration and nothing on the query path itself —
/// no allocation, no atomics, no clock reads. A traced query records
/// [`TraceEvent`]s into the worker's fixed-capacity ring with plain slot
/// writes; only *capture* (the decided-to-keep path) allocates, by copying
/// the ring into an owned [`QueryTrace`].
#[derive(Default)]
struct ScratchTrace {
    /// The batch's policy, copied once per batch.
    policy: TracePolicy,
    /// Whether the policy enables any capture mode this batch.
    armed: bool,
    /// Whether the in-flight query is recording events.
    active: bool,
    /// Whether the in-flight query was chosen by 1-in-N sampling (slow
    /// capture decides retroactively at [`finish`](Self::finish)).
    sampled: bool,
    /// The per-worker event ring, reused across queries.
    ring: TraceRing,
    /// Traces this worker captured, in serve order.
    captured: Vec<QueryTrace>,
}

impl ScratchTrace {
    /// Arms (or disarms) tracing for one batch.
    fn prepare(&mut self, policy: TracePolicy) {
        self.policy = policy;
        self.armed = policy.enabled() && policy.max_captured > 0;
        self.active = false;
        self.sampled = false;
        self.captured.clear();
    }

    /// Decides whether the `served`-th query of this worker records events.
    #[inline]
    fn begin(&mut self, served: u64) {
        if !self.armed {
            return;
        }
        if self.captured.len() >= self.policy.max_captured {
            // The worker's capture budget is spent: stop recording.
            self.active = false;
            return;
        }
        self.sampled =
            self.policy.sample_every > 0 && served.is_multiple_of(self.policy.sample_every);
        // With a slow-query threshold set, every query records — the
        // keep/drop decision is made after the wall is known.
        self.active = self.sampled || self.policy.slow_query_nanos > 0;
        if self.active {
            self.ring.clear();
        }
    }

    /// Concludes the in-flight query: captures the ring if the query was
    /// sampled or its wall met the slow-query threshold.
    fn finish(&mut self, query: usize, kind: TraceKind, wall_nanos: u64) {
        if !self.active {
            return;
        }
        self.active = false;
        let slow = self.policy.slow_query_nanos > 0 && wall_nanos >= self.policy.slow_query_nanos;
        if !(self.sampled || slow) {
            return;
        }
        self.captured.push(QueryTrace {
            query,
            kind,
            wall_nanos,
            sampled: self.sampled,
            slow,
            dropped_events: self.ring.dropped(),
            events: self.ring.events().copied().collect(),
        });
    }
}

/// Per-query degradation control, living in [`EngineScratch`] so the
/// `range_with`/`knn_with` signatures stay put: `begin` arms it from the
/// batch's [`QueryBudget`] and the engine's quarantine fast-path bit,
/// probe loops consult [`allow_probe`](Self::allow_probe) before each
/// shard, and `execute_with` harvests the outcome via
/// [`take_degraded`](Self::take_degraded). With budgets off and nothing
/// quarantined the whole structure costs one branch per probe.
///
/// `probing` is written unconditionally (one plain store per probe) so a
/// panic caught by `serve` can attribute itself to the shard that was
/// being probed.
/// A deadline check that finds at least this much time remaining grants
/// [`DEADLINE_SKIP`] clock-free probe-boundary checks.
const DEADLINE_SLACK_NANOS: u64 = 10_000_000;
/// Clock reads skipped per slack grant (worst case: a degradation is
/// noticed up to this many probe boundaries late, only when the previous
/// read was ≥ 10 ms ahead of the deadline).
const DEADLINE_SKIP: u32 = 3;

#[derive(Default)]
struct QueryCtl {
    /// The batch's per-query budget, set once per batch by `serve`
    /// (unlimited for direct `execute_with` callers).
    batch_budget: QueryBudget,
    /// Whether any budget or quarantine is active for this query.
    armed: bool,
    /// The per-query budget (meaningful only when `armed`).
    budget: QueryBudget,
    /// Precomputed wall deadline for the in-flight query.
    deadline: Option<Instant>,
    /// Distance computations this query has spent (per-probe shard-counter
    /// deltas; exact single-threaded, conservative under concurrent
    /// serving of the same shard).
    spent: u64,
    /// Remaining probe-boundary deadline checks allowed to skip the clock
    /// read. Granted in blocks of [`DEADLINE_SKIP`] whenever a real read
    /// shows at least [`DEADLINE_SLACK_NANOS`] to spare, so a far-off
    /// deadline costs ~one clock read per few probes instead of one per
    /// probe; a query's first check always reads, so tight deadlines
    /// (including already-blown ones) degrade exactly as before.
    clock_skips: u32,
    /// The shard currently being probed (panic attribution).
    probing: Option<u32>,
    /// Planned probes skipped so far for this query.
    skipped: u32,
    /// Why the first skip happened.
    reason: Option<DegradeReason>,
}

impl QueryCtl {
    /// Arms (or disarms) the control for one query; returns whether probe
    /// loops need the guarded path.
    #[inline]
    fn begin(&mut self, budget: QueryBudget, quarantine_active: bool) -> bool {
        self.spent = 0;
        self.skipped = 0;
        self.reason = None;
        self.probing = None;
        self.clock_skips = 0;
        self.armed = budget.enabled() || quarantine_active;
        if self.armed {
            self.budget = budget;
            self.deadline = (budget.wall_nanos > 0)
                .then(|| Instant::now() + Duration::from_nanos(budget.wall_nanos));
        } else {
            self.deadline = None;
        }
        self.armed
    }

    /// Budget check at a shard-probe boundary: `true` to probe, `false` to
    /// skip the remaining plan. Only called on the guarded path.
    #[inline]
    fn allow_probe(&mut self) -> bool {
        if self.reason == Some(DegradeReason::Deadline)
            || self.reason == Some(DegradeReason::CompdistCap)
        {
            // Already over budget: skip the rest of the plan outright.
            self.skipped += 1;
            return false;
        }
        if self.budget.compdists > 0 && self.spent >= self.budget.compdists {
            self.skip(DegradeReason::CompdistCap);
            return false;
        }
        if let Some(d) = self.deadline {
            if self.clock_skips > 0 {
                // The last read had DEADLINE_SLACK_NANOS to spare; probes
                // are checked at boundaries only anyway (an in-flight probe
                // can never be cancelled), so a paced check weakens nothing
                // the contract promises.
                self.clock_skips -= 1;
            } else {
                let now = Instant::now();
                if now >= d {
                    self.skip(DegradeReason::Deadline);
                    return false;
                }
                if d - now >= Duration::from_nanos(DEADLINE_SLACK_NANOS) {
                    self.clock_skips = DEADLINE_SKIP;
                }
            }
        }
        true
    }

    /// Records one skipped probe.
    #[inline]
    fn skip(&mut self, reason: DegradeReason) {
        self.skipped += 1;
        self.reason.get_or_insert(reason);
    }

    /// Concludes the query: the degradation marker if any probe was
    /// skipped.
    #[inline]
    fn take_degraded(&mut self) -> Option<Degraded> {
        self.probing = None;
        if self.skipped == 0 {
            return None;
        }
        let d = Degraded {
            shards_skipped: self.skipped,
            reason: self.reason.unwrap_or(DegradeReason::Deadline),
        };
        self.skipped = 0;
        self.reason = None;
        Some(d)
    }
}

/// Nearest-rank quantile over an already-sorted sample set (seconds).
fn sample_quantile(sorted_nanos: &[u64], q: f64) -> f64 {
    if sorted_nanos.is_empty() {
        return 0.0;
    }
    let n = sorted_nanos.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted_nanos[rank - 1] as f64 * 1e-9
}

/// What a probe's bookkeeping knows about the query it serves — the one
/// point where a range probe and a kNN probe differ around the probe
/// proper.
#[derive(Clone, Copy)]
enum ProbeKind {
    /// Range planning recorded every shard's verdict up front.
    Range,
    /// kNN decides shard by shard, so the verdict — box lower bound,
    /// best-first rank and (traced queries only) the centre distance that
    /// ranks bound ties — is traced as the probe starts.
    Knn {
        lb: f64,
        rank: u32,
        centre_dist: f64,
    },
}

impl<O: Object> EngineCore<O> {
    #[inline]
    fn note_probes(&self, probed: usize, pruned: usize) {
        self.probed.fetch_add(probed as u64, Ordering::Relaxed);
        self.pruned.fetch_add(pruned as u64, Ordering::Relaxed);
    }

    /// Serial one-query path over one snapshot (see
    /// [`ShardedEngine::execute_with`]).
    fn execute_with(
        &self,
        snap: &EngineSnapshot<O>,
        query: &Query<O>,
        scratch: &mut EngineScratch,
    ) -> QueryResult {
        match query {
            Query::Range { q, radius } => {
                let ids = self.range_with(snap, q, *radius, scratch);
                match scratch.ctl.take_degraded() {
                    Some(d) => QueryResult::PartialRange(ids, d),
                    None => QueryResult::Range(ids),
                }
            }
            Query::Knn { q, k } => {
                let nbrs = self.knn_with(snap, q, *k, scratch);
                match scratch.ctl.take_degraded() {
                    Some(d) => QueryResult::PartialKnn(nbrs, d),
                    None => QueryResult::Knn(nbrs),
                }
            }
        }
    }

    /// The one guarded shard probe every query runs: quarantine and budget
    /// checks, panic attribution, the fault point, the exact probe tally,
    /// the compdist-cap and trace snapshots around `run` (the probe
    /// proper), spend accounting, the sampled wall and the trace's `Scan`.
    /// Returns whether the probe ran. A skipped probe counts as neither
    /// probed nor pruned: the plan wanted it, the budget (or quarantine)
    /// withheld it.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn probe(
        &self,
        shard: &Shard<O>,
        s: usize,
        kind: ProbeKind,
        qs: &mut QueryScratch,
        obs: &mut ScratchObs,
        trace: &mut ScratchTrace,
        ctl: &mut QueryCtl,
        clock: &mut ObsClock,
        tclock: &mut ObsClock,
        run: impl FnOnce(&mut QueryScratch),
    ) -> bool {
        let guarded = ctl.armed;
        if guarded {
            if self.quarantine.is_quarantined(s) {
                ctl.skip(DegradeReason::Quarantined);
                return false;
            }
            if !ctl.allow_probe() {
                return false;
            }
        }
        // Unconditional plain store: a panic caught by `serve` reads
        // this to attribute itself to the shard under probe.
        ctl.probing = Some(s as u32);
        fault::at("engine.probe", s as u64);
        obs.note_probe(s);
        let cd0 = (guarded && ctl.budget.caps_compdists()).then(|| shard.counters().compdists);
        // Traced queries (trace.active) run their own lap timer and
        // per-probe counter snapshots — neither exists on the untraced
        // path.
        let tsnap = trace.active.then(|| {
            if let ProbeKind::Knn {
                lb,
                rank,
                centre_dist,
            } = kind
            {
                trace.ring.push(TraceEvent::Plan {
                    shard: s as u32,
                    lower_bound: lb,
                    probed: true,
                    order: rank,
                    centre_dist,
                });
            }
            (shard.counters(), qs.kernel_rows)
        });
        run(qs);
        if let Some(c0) = cd0 {
            ctl.spent += shard.counters().compdists.saturating_sub(c0);
        }
        if obs.sampled {
            obs.note_probe_wall(s, clock.lap());
        }
        if let Some((c0, kr0)) = tsnap {
            let d = shard.counters().since(&c0);
            let kernel_rows = qs.kernel_rows - kr0;
            trace.ring.push(TraceEvent::Scan {
                shard: s as u32,
                dists: d.compdists,
                page_accesses: d.page_accesses(),
                kernel_rows,
                // The survivor buffer belongs to kernel scans — the slots
                // a range or a kNN scan verified; a tree shard leaves it
                // untouched from the previous probe.
                survivors: if kernel_rows > 0 {
                    qs.survivors.len() as u64
                } else {
                    0
                },
                nanos: tclock.lap(),
            });
        }
        true
    }

    /// Plans and probes `MRQ(q, r)` serially through scratch buffers.
    fn range_with(
        &self,
        snap: &EngineSnapshot<O>,
        q: &O,
        radius: f64,
        scratch: &mut EngineScratch,
    ) -> Vec<ObjId> {
        let EngineScratch {
            qs,
            mapped,
            probe,
            ids,
            obs,
            trace,
            ctl,
            ..
        } = scratch;
        ctl.begin(ctl.batch_budget, self.quarantine.any());
        // Sampled queries pay one extra clock read per phase boundary; the
        // rest see only the plain per-shard probe tally.
        let mut clock = ObsClock::start(obs.sampled);
        let mut tclock = ObsClock::start(trace.active);
        let rt = &snap.router;
        rt.map_into(q, mapped);
        rt.range_plan_into(mapped, radius, probe);
        obs.map_dists += mapped.len() as u64;
        obs.plan_nanos += clock.lap();
        if trace.active {
            // Per-shard plan verdicts: range planning keeps shard order, so
            // the probe rank is the position in the (ascending) probe set.
            let mut next = probe.iter().peekable();
            let mut rank = 0u32;
            for (s, b) in rt.boxes().iter().enumerate() {
                let probed = next.peek() == Some(&&s);
                let order = if probed {
                    next.next();
                    rank += 1;
                    rank - 1
                } else {
                    u32::MAX
                };
                trace.ring.push(TraceEvent::Plan {
                    shard: s as u32,
                    lower_bound: b.lower_bound(mapped, rt.step()),
                    probed,
                    order,
                    centre_dist: 0.0,
                });
            }
            trace.ring.push(TraceEvent::PlanDone {
                shards: snap.shards.len() as u32,
                probed: probe.len() as u32,
                pruned: (snap.shards.len() - probe.len()) as u32,
                map_dists: mapped.len() as u64,
                nanos: tclock.lap(),
            });
        }
        ids.clear();
        let mut executed = 0usize;
        for &s in probe.iter() {
            let shard = &snap.shards[s];
            executed += usize::from(self.probe(
                shard,
                s,
                ProbeKind::Range,
                qs,
                obs,
                trace,
                ctl,
                &mut clock,
                &mut tclock,
                |qs| shard.range_global_into(q, radius, qs, ids),
            ));
        }
        self.note_probes(executed, snap.shards.len() - probe.len());
        // Shards are disjoint partitions: the union is concatenation plus
        // one sort for determinism.
        ids.sort_unstable();
        let out = ids.clone();
        obs.merge_nanos += clock.lap();
        if trace.active {
            trace.ring.push(TraceEvent::Merge {
                results: out.len() as u64,
                nanos: tclock.lap(),
            });
        }
        out
    }

    /// Probes `MkNNQ(q, k)` serially into the scratch's bounded top-k
    /// collector. Shards go best-first by box lower bound — bound
    /// ties by the nearer centre, whose shard then seeds the radius — and
    /// skip every shard whose bound exceeds the current k-th distance
    /// (strictly — an equal bound could still hide an id-tie winner).
    fn knn_with(
        &self,
        snap: &EngineSnapshot<O>,
        q: &O,
        k: usize,
        scratch: &mut EngineScratch,
    ) -> Vec<Neighbor> {
        let EngineScratch {
            qs,
            mapped,
            order,
            nbrs,
            topk,
            obs,
            trace,
            ctl,
            ..
        } = scratch;
        ctl.begin(ctl.batch_budget, self.quarantine.any());
        topk.reset(k);
        let mut clock = ObsClock::start(obs.sampled);
        let mut tclock = ObsClock::start(trace.active);
        let rt = &snap.router;
        rt.map_into(q, mapped);
        rt.knn_order_into(mapped, order);
        obs.map_dists += mapped.len() as u64;
        obs.plan_nanos += clock.lap();
        let plan_nanos = tclock.lap();
        let (mut probed, mut pruned) = (0usize, 0usize);
        for (rank, &(s, lb)) in order.iter().enumerate() {
            // Traced queries record the key that ranked bound ties too.
            let centre_dist = if trace.active {
                rt.centre_distance(s, mapped)
            } else {
                0.0
            };
            if lb > topk.threshold() {
                pruned += 1;
                if trace.active {
                    // Best-first order: the rank is both the plan
                    // position and the point where pruning struck.
                    trace.ring.push(TraceEvent::Plan {
                        shard: s as u32,
                        lower_bound: lb,
                        probed: false,
                        order: rank as u32,
                        centre_dist,
                    });
                }
                continue;
            }
            let shard = &snap.shards[s];
            let kind = ProbeKind::Knn {
                lb,
                rank: rank as u32,
                centre_dist,
            };
            probed += usize::from(self.probe(
                shard,
                s,
                kind,
                qs,
                obs,
                trace,
                ctl,
                &mut clock,
                &mut tclock,
                |qs| {
                    // Seed the shard scan with the running threshold:
                    // shards are probed in sequence here, so candidates
                    // the merge would reject are never even verified.
                    let seed = topk.threshold();
                    shard.knn_into_with(q, k, seed, qs, nbrs, topk);
                },
            ));
        }
        if trace.active {
            trace.ring.push(TraceEvent::PlanDone {
                shards: order.len() as u32,
                probed: probed as u32,
                pruned: pruned as u32,
                map_dists: mapped.len() as u64,
                nanos: plan_nanos,
            });
        }
        self.note_probes(probed, pruned);
        let out = topk.drain_sorted();
        obs.merge_nanos += clock.lap();
        if trace.active {
            trace.ring.push(TraceEvent::Merge {
                results: out.len() as u64,
                nanos: tclock.lap(),
            });
        }
        out
    }

    /// Up-front validation of one query: the typed error a malformed query
    /// fails with, decided before any shard is touched. Index-level k=0
    /// stays an empty answer (the trait contract); the serve boundary
    /// rejects it so callers notice the likely bug.
    fn validate(&self, validator: Option<&Validator<O>>, query: &Query<O>) -> Option<QueryError> {
        let q = match query {
            Query::Range { q, radius } => {
                if radius.is_nan() {
                    return Some(QueryError::NanRadius);
                }
                if *radius < 0.0 {
                    return Some(QueryError::NegativeRadius);
                }
                q
            }
            Query::Knn { q, k } => {
                if *k == 0 {
                    return Some(QueryError::ZeroK);
                }
                q
            }
        };
        match validator {
            Some(v) if !v(q) => Some(QueryError::InvalidObject),
            _ => None,
        }
    }
}

impl<O: Object> EngineCore<O> {
    /// Serves a batch of mixed queries on the worker pool: each worker
    /// claims queries from a shared atomic cursor, executes them against
    /// the shards the planner selects through its own reused
    /// [`EngineScratch`], merges, and records the per-query latency from a
    /// monotonic clock. Returns the merged answers in batch order plus a
    /// [`ServeReport`].
    ///
    /// The report's `cost` is the delta of the aggregate counters across
    /// the batch — exact for everything this engine's shards executed in
    /// the batch window, because every shard counts atomically; the same
    /// holds for `shards_probed` / `shards_pruned`. If the caller runs
    /// *other* queries on the same engine concurrently with this batch
    /// (another `serve`, or single-query calls from another thread), their
    /// cost lands in the same window and is included; serve one batch at a
    /// time for per-batch attribution.
    ///
    /// This is also the failure boundary (`docs/robustness.md`): malformed
    /// queries come back `Failed` with a typed [`QueryError`], budgets
    /// degrade or shed per item rather than erroring, and a panicking
    /// query is contained here while the rest of the batch completes.
    fn serve(&self, snap: &EngineSnapshot<O>, batch: &[Query<O>]) -> BatchOutcome {
        let workers = self.threads.min(batch.len()).max(1);
        let shard_before: Vec<Counters> = snap.shards.iter().map(|s| s.counters()).collect();
        let before = shard_before
            .iter()
            .fold(Counters::default(), |acc, c| acc + *c);
        let (probed0, pruned0) = (
            self.probed.load(Ordering::Relaxed),
            self.pruned.load(Ordering::Relaxed),
        );
        // The trace policy, the serving budgets and the query validator are
        // read once per batch — one mutex lock each here, then a per-worker
        // copy (the batch sees one consistent policy even if a setter races
        // it).
        let tpolicy = self.trace_policy();
        let budget = self.serve_budget();
        let validator = self.validator();
        let cursor = AtomicUsize::new(0);
        let t0 = Instant::now();
        // Batch-level admission deadline: once blown, still-unclaimed
        // queries are shed without executing.
        let batch_deadline = (budget.batch_wall_nanos > 0)
            .then(|| t0 + Duration::from_nanos(budget.batch_wall_nanos));

        // Each worker claims queries from the shared cursor and returns its
        // answered slice plus its private observability state (probe
        // tallies, sampled walls, kernel tally) — plain writes only, folded
        // once every worker has returned.
        let run_worker = || {
            let b0 = Instant::now();
            let mut scratch = EngineScratch::new();
            scratch.obs.prepare(snap.shards.len());
            scratch.trace.prepare(tpolicy);
            scratch.ctl.batch_budget = budget.query;
            let mut local = Vec::new();
            let mut served = 0u64;
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= batch.len() {
                    break;
                }
                // Admission control: a blown batch deadline sheds every
                // not-yet-claimed query outright.
                if let Some(d) = batch_deadline {
                    if Instant::now() >= d {
                        local.push((i, QueryResult::Shed));
                        continue;
                    }
                }
                // Malformed queries fail per-item before touching a shard.
                if let Some(e) = self.validate(validator.as_ref(), &batch[i]) {
                    local.push((i, QueryResult::Failed(e)));
                    continue;
                }
                // 1-in-OBS_SAMPLE queries pay the per-segment clock reads;
                // every query still lands in the latency histogram.
                scratch.obs.sampled = served.is_multiple_of(OBS_SAMPLE);
                scratch.trace.begin(served);
                served += 1;
                let q0 = Instant::now();
                // Panic isolation: a panicking query is contained here —
                // the scratch buffers are per-query (each query resets the
                // state it reads), so the worker keeps serving.
                let res = catch_unwind(AssertUnwindSafe(|| {
                    self.execute_with(snap, &batch[i], &mut scratch)
                }))
                .unwrap_or_else(|_| {
                    let shard = scratch.ctl.probing.take();
                    // A mid-probe panic leaves the trace ring half-written:
                    // drop the in-flight recording, keep earlier captures.
                    scratch.trace.active = false;
                    if let Some(s) = shard {
                        if self.quarantine.note_panic(s as usize, self.faults) {
                            self.obs.counter_add("serve.quarantines", 1);
                        }
                    }
                    QueryResult::Failed(QueryError::Panicked { shard })
                });
                let ns = q0.elapsed().as_nanos() as u64;
                scratch.obs.query_wall.record(ns);
                scratch.obs.sampled_queries += scratch.obs.sampled as u64;
                if scratch.trace.active {
                    let kind = match &batch[i] {
                        Query::Range { radius, .. } => TraceKind::Range { radius: *radius },
                        Query::Knn { k, .. } => TraceKind::Knn { k: *k },
                    };
                    scratch.trace.finish(i, kind, ns);
                }
                local.push((i, res));
            }
            let kernel_rows = scratch.qs.take_kernel_tally();
            let mut obs = std::mem::take(&mut scratch.obs);
            obs.kernel_rows += kernel_rows;
            obs.busy_nanos = b0.elapsed().as_nanos() as u64;
            (local, obs, std::mem::take(&mut scratch.trace.captured))
        };

        // `workers` copies of the claiming loop, the caller one of them.
        let collected = fan_out(vec![(); workers], |()| run_worker());

        let wall_nanos = t0.elapsed().as_nanos() as u64;
        let wall_secs = wall_nanos as f64 / 1e9;
        let shard_after: Vec<Counters> = snap.shards.iter().map(|s| s.counters()).collect();
        let cost = shard_after
            .iter()
            .fold(Counters::default(), |acc, c| acc + *c)
            .since(&before);
        let (probed1, pruned1) = (
            self.probed.load(Ordering::Relaxed),
            self.pruned.load(Ordering::Relaxed),
        );

        let mut results: Vec<Option<QueryResult>> = (0..batch.len()).map(|_| None).collect();
        let mut total_results = 0usize;
        let (mut degraded, mut shed, mut failed) = (0usize, 0usize, 0usize);
        let mut agg = ScratchObs::default();
        agg.prepare(snap.shards.len());
        let mut traces: Vec<QueryTrace> = Vec::new();
        for (local, wobs, wtraces) in collected {
            for (i, res) in local {
                total_results += res.len();
                match &res {
                    QueryResult::PartialRange(..) | QueryResult::PartialKnn(..) => degraded += 1,
                    QueryResult::Shed => shed += 1,
                    QueryResult::Failed(_) => failed += 1,
                    _ => {}
                }
                results[i] = Some(res);
            }
            agg.merge(wobs);
            traces.extend(wtraces);
        }
        // Batch order; the cap is per batch (each worker already respected
        // it individually, the merge enforces it globally).
        traces.sort_by_key(|t| t.query);
        traces.truncate(tpolicy.max_captured);
        let results: Vec<QueryResult> = results
            .into_iter()
            .map(|r| r.expect("every batch slot served exactly once"))
            .collect();

        // Per-shard breakdown: probe counts and counter deltas are exact;
        // the wall columns come from the 1-in-OBS_SAMPLE timed queries
        // (sums extrapolated, quantiles taken over the raw samples).
        let per_shard: Vec<ShardServeStats> = (0..snap.shards.len())
            .map(|s| {
                let delta = shard_after[s].since(&shard_before[s]);
                let samples = &mut agg.shard_samples[s];
                samples.sort_unstable();
                ShardServeStats {
                    shard: s,
                    probes: agg.probes[s],
                    compdists: delta.compdists,
                    page_accesses: delta.page_accesses(),
                    wall_secs: (agg.shard_nanos[s] * OBS_SAMPLE) as f64 / 1e9,
                    p50_secs: sample_quantile(samples, 0.50),
                    p99_secs: sample_quantile(samples, 0.99),
                }
            })
            .collect();

        let latency = LatencySummary::from_hist(&agg.query_wall);

        // Phase walls for plan/scan/merge cover the sampled queries
        // only; extrapolate by the sampling stride so they read as
        // batch-level estimates next to the exact `serve` wall.
        let idle_nanos = (wall_nanos * workers as u64).saturating_sub(agg.busy_nanos);
        self.obs.phase_add(
            "serve",
            1,
            wall_nanos,
            &[
                ("queries", batch.len() as u64),
                ("results", total_results as u64),
                ("workers", workers as u64),
                ("shards_probed", probed1 - probed0),
                ("shards_pruned", pruned1 - pruned0),
                ("compdists", cost.compdists),
                ("idle_nanos", idle_nanos),
            ],
        );
        self.obs.phase_add(
            "serve.plan",
            batch.len() as u64,
            agg.plan_nanos * OBS_SAMPLE,
            &[("map_dists", agg.map_dists)],
        );
        self.obs.phase_add(
            "serve.scan",
            agg.probes.iter().sum(),
            agg.scan_nanos * OBS_SAMPLE,
            &[
                ("kernel_rows", agg.kernel_rows),
                ("compdists", cost.compdists),
                ("page_accesses", cost.page_accesses()),
            ],
        );
        self.obs.phase_add(
            "serve.merge",
            batch.len() as u64,
            agg.merge_nanos * OBS_SAMPLE,
            &[],
        );
        self.obs.hist_merge("serve.query_wall", &agg.query_wall);
        self.obs
            .counter_add("serve.sampled_queries", agg.sampled_queries);
        // Robustness counters (the registry skips zero adds).
        self.obs.counter_add("serve.degraded", degraded as u64);
        self.obs.counter_add("serve.shed", shed as u64);
        self.obs.counter_add("serve.failed", failed as u64);
        self.obs.gauge_set(
            "engine.quarantined_shards",
            self.quarantine.quarantined_count() as u64,
        );

        let range_queries = batch.iter().filter(|q| q.is_range()).count();
        let report = ServeReport {
            queries: batch.len(),
            range_queries,
            knn_queries: batch.len() - range_queries,
            total_results,
            degraded,
            shed,
            failed,
            shards: snap.shards.len(),
            threads: workers,
            epoch: snap.epoch,
            wall_secs,
            qps: if wall_secs > 0.0 {
                batch.len() as f64 / wall_secs
            } else {
                0.0
            },
            latency,
            cost,
            shards_probed: probed1 - probed0,
            shards_pruned: pruned1 - pruned0,
            build: self.build,
            updates: *self.updates.lock().unwrap_or_else(|e| e.into_inner()),
            per_shard,
            traces,
        };
        BatchOutcome { results, report }
    }

    /// Drains one queued batch from `queue` through this core (see
    /// [`SubmitQueue`]): pops the oldest admitted batch, sheds it whole if
    /// its queue-wall deadline is blown, otherwise serves it against the
    /// snapshot the caller resolved. Queue depth and outcome counters land
    /// in the engine registry.
    fn pump(&self, snap: &EngineSnapshot<O>, queue: &SubmitQueue<O>) -> PumpOutcome<O> {
        let outcome = queue.pump_one(|batch| self.serve(snap, batch));
        let stats = queue.stats();
        self.obs.gauge_set("engine.queue_depth", stats.depth as u64);
        self.obs.gauge_set("queue.submitted", stats.submitted);
        self.obs.gauge_set("queue.rejected", stats.rejected);
        match &outcome {
            PumpOutcome::Served { .. } => self.obs.counter_add("queue.served", 1),
            PumpOutcome::Shed { .. } => self.obs.counter_add("queue.shed", 1),
            PumpOutcome::Idle => {}
        }
        outcome
    }
}

impl<O: Object> EngineReader<O> {
    /// Executes one query against the current snapshot.
    pub fn execute(&self, query: &Query<O>) -> QueryResult {
        let snap = self.core.snapshot();
        self.core
            .execute_with(&snap, query, &mut EngineScratch::new())
    }

    /// `MRQ(q, radius)` over the current snapshot: the ids of
    /// [`execute`](Self::execute); call `execute` to see `Completeness`.
    pub fn range_query(&self, q: &O, radius: f64) -> Vec<ObjId> {
        let snap = self.core.snapshot();
        self.core
            .range_with(&snap, q, radius, &mut EngineScratch::new())
    }

    /// `MkNNQ(q, k)` over the current snapshot: the neighbours of
    /// [`execute`](Self::execute); call `execute` to see `Completeness`.
    pub fn knn_query(&self, q: &O, k: usize) -> Vec<Neighbor> {
        let snap = self.core.snapshot();
        self.core.knn_with(&snap, q, k, &mut EngineScratch::new())
    }
}

impl<O: Object> EngineReader<O> {
    /// Serves a batch against the current snapshot. Identical semantics to
    /// [`ShardedEngine::serve`]; safe to call from any number of threads
    /// concurrently with a writer applying updates.
    pub fn serve(&self, batch: &[Query<O>]) -> BatchOutcome {
        let snap = self.core.snapshot();
        self.core.serve(&snap, batch)
    }

    /// Pops one pending batch from `queue` and serves it against the
    /// current snapshot (see [`ShardedEngine::pump`]).
    pub fn pump(&self, queue: &SubmitQueue<O>) -> PumpOutcome<O> {
        let snap = self.core.snapshot();
        self.core.pump(&snap, queue)
    }
}

impl<O: Object> ShardedEngine<O> {
    /// Answers one query by probing shards serially on the calling thread
    /// (the per-worker path of [`serve`](Self::serve)).
    pub fn execute(&self, query: &Query<O>) -> QueryResult {
        self.execute_with(query, &mut EngineScratch::new())
    }

    /// [`execute`](Self::execute) with caller-owned scratch buffers — the
    /// batch-serving hot path. After warmup the only per-query allocation
    /// is the exact-size answer itself.
    ///
    /// Degradation flows through the scratch: [`serve`](Self::serve) arms
    /// the per-query budget once per batch; direct callers run unbudgeted
    /// (budgets are a serve-path contract) but still route around
    /// quarantined shards, so a degraded answer comes back as
    /// `PartialRange`/`PartialKnn` here too.
    pub fn execute_with(&self, query: &Query<O>, scratch: &mut EngineScratch) -> QueryResult {
        let snap = self.core.snapshot();
        self.core.execute_with(&snap, query, scratch)
    }

    /// Metric range query `MRQ(q, r)` against the current snapshot: the
    /// ids of [`execute`](Self::execute), sorted ascending; call `execute`
    /// to see `Completeness`.
    pub fn range_query(&self, q: &O, radius: f64) -> Vec<ObjId> {
        let snap = self.core.snapshot();
        self.core
            .range_with(&snap, q, radius, &mut EngineScratch::new())
    }

    /// Metric kNN query `MkNNQ(q, k)` against the current snapshot: the
    /// neighbours of [`execute`](Self::execute), sorted ascending by
    /// `(distance, global id)`; call `execute` to see `Completeness`.
    pub fn knn_query(&self, q: &O, k: usize) -> Vec<Neighbor> {
        let snap = self.core.snapshot();
        self.core.knn_with(&snap, q, k, &mut EngineScratch::new())
    }
}

impl<O: Object> ShardedEngine<O> {
    /// Serves a batch against the engine's current snapshot. See
    /// [`EngineReader::serve`] for the concurrent form; both run the same
    /// core against one atomically-loaded [`EngineSnapshot`].
    pub fn serve(&self, batch: &[Query<O>]) -> BatchOutcome {
        let snap = self.core.snapshot();
        self.core.serve(&snap, batch)
    }

    /// Drains one queued batch from `queue` against the current snapshot
    /// (admission control: see [`SubmitQueue`]).
    pub fn pump(&self, queue: &SubmitQueue<O>) -> PumpOutcome<O> {
        let snap = self.core.snapshot();
        self.core.pump(&snap, queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{engine, grid, routed_two_clusters};
    use crate::engine::{EngineConfig, Layout};
    use crate::robust::{FaultPolicy, ServeBudget};
    use pmi_metric::{BruteForce, MetricIndex, QueryScratch, StorageFootprint, L2};
    use std::sync::Mutex;

    #[test]
    fn routed_engine_prunes_and_stays_exact() {
        let (objects, e) = routed_two_clusters();
        assert!(e.routing().is_some());
        let single = BruteForce::new(objects.clone(), L2);

        // Selective range query inside cluster A: shard 1 is pruned.
        let q = vec![3.0f32];
        let mut want = single.range_query(&q, 2.5);
        want.sort_unstable();
        assert_eq!(e.range_query(&q, 2.5), want);
        let (probed, pruned) = e.probe_counts();
        assert_eq!((probed, pruned), (1, 1), "one shard probed, one pruned");

        // kNN inside cluster A: best-first probes shard 0, whose 3 answers
        // (all within distance <= 3) prune shard 1 (lower bound ~90).
        e.reset_counters();
        let got = e.knn_query(&q, 3);
        let want_k = single.knn_query(&q, 3);
        assert_eq!(got.len(), 3);
        for (g, w) in got.iter().zip(&want_k) {
            assert_eq!(g.id, w.id);
            assert!((g.dist - w.dist).abs() < 1e-12);
        }
        let (probed, pruned) = e.probe_counts();
        assert_eq!((probed, pruned), (1, 1));

        // A huge radius must probe both shards and still be exact.
        e.reset_counters();
        let mut want_all = single.range_query(&q, 1000.0);
        want_all.sort_unstable();
        assert_eq!(e.range_query(&q, 1000.0), want_all);
        assert_eq!(e.probe_counts(), (2, 0));

        // Serve reports the probe/prune aggregate exactly.
        e.reset_counters();
        let batch = vec![
            Query::range(vec![3.0f32], 2.5),
            Query::range(vec![105.0f32], 2.5),
            Query::knn(vec![3.0f32], 3),
        ];
        let out = e.serve(&batch);
        assert_eq!(out.report.shards_probed, 3);
        assert_eq!(out.report.shards_pruned, 3);
        assert_eq!(
            out.report.shards_probed + out.report.shards_pruned,
            (batch.len() * e.num_shards()) as u64
        );
    }

    #[test]
    fn scratch_reuse_matches_fresh_execution() {
        let (objects, e) = routed_two_clusters();
        let mut scratch = EngineScratch::new();
        // Interleave query types so every buffer is reused dirty.
        for qi in [0usize, 11, 4, 19] {
            let range = Query::range(objects[qi].clone(), 3.0);
            let knn = Query::knn(objects[qi].clone(), 4);
            assert_eq!(e.execute_with(&range, &mut scratch), e.execute(&range));
            assert_eq!(e.execute_with(&knn, &mut scratch), e.execute(&knn));
        }
    }

    #[test]
    fn a_plain_engine_counts_a_probe_of_every_shard() {
        let e = engine(100, 4, 1);
        e.reset_counters();
        let out = e.serve(&[
            Query::range(vec![0.0f32, 0.0], 2.0),
            Query::knn(vec![1.0f32, 1.0], 3),
        ]);
        assert_eq!(out.report.shards_probed, 8, "2 queries x 4 shards");
        assert_eq!(out.report.shards_pruned, 0);
    }

    #[test]
    fn serve_returns_batch_order_and_exact_counts() {
        let objects = grid(200);
        let e = engine(200, 4, 3);
        e.reset_counters();
        let batch: Vec<Query<Vec<f32>>> = (0..50)
            .map(|i| {
                if i % 2 == 0 {
                    Query::range(objects[i].clone(), 3.0)
                } else {
                    Query::knn(objects[i].clone(), 5)
                }
            })
            .collect();
        let out = e.serve(&batch);
        assert_eq!(out.results.len(), 50);
        assert_eq!(out.report.queries, 50);
        assert_eq!(out.report.range_queries, 25);
        assert_eq!(out.report.knn_queries, 25);
        // Brute force computes n distances per query per shard; the whole
        // dataset is scanned for every query regardless of sharding.
        assert_eq!(out.report.cost.compdists, 50 * 200);
        // Aggregate equals the sum of shard counters.
        let sum: u64 = e.shard_counters().iter().map(|c| c.compdists).sum();
        assert_eq!(e.counters().compdists, sum);
        assert_eq!(sum, 50 * 200);
        // kNN answers carry k neighbors each.
        for (i, r) in out.results.iter().enumerate() {
            match r {
                QueryResult::Range(ids) => {
                    assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted unique");
                    assert!(ids.contains(&(i as u32)), "query object is a hit");
                }
                QueryResult::Knn(ns) => {
                    assert_eq!(ns.len(), 5);
                    assert_eq!(ns[0].id, i as u32);
                    assert!(ns.windows(2).all(|w| w[0] <= w[1]));
                }
                other => panic!("unbudgeted healthy serve degraded: {other:?}"),
            }
        }
        assert!(out.report.qps > 0.0);
        assert!(out.report.latency.max_secs >= out.report.latency.p50_secs);
    }

    #[test]
    fn untraced_serve_captures_nothing() {
        let (objects, e) = routed_two_clusters();
        assert_eq!(e.trace_policy(), TracePolicy::disabled());
        let out = e.serve(&[Query::Range {
            q: objects[0].clone(),
            radius: 2.0,
        }]);
        assert!(out.report.traces.is_empty());
    }

    #[test]
    fn trace_every_query_sums_exactly_to_report() {
        // One worker thread: per-probe counter deltas cannot interleave, so
        // summing the per-trace counters must reproduce the report totals.
        let (objects, e) = routed_two_clusters();
        e.set_trace_policy(TracePolicy::sample(1).with_max_captured(usize::MAX));
        let batch: Vec<Query<Vec<f32>>> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    Query::Range {
                        q: objects[i].clone(),
                        radius: 2.0,
                    }
                } else {
                    Query::Knn {
                        q: objects[i].clone(),
                        k: 3,
                    }
                }
            })
            .collect();
        let out = e.serve(&batch);
        let r = &out.report;
        assert_eq!(r.traces.len(), batch.len(), "every query captured");
        for (i, t) in r.traces.iter().enumerate() {
            assert_eq!(t.query, i, "batch order");
            assert!(t.sampled && !t.slow);
        }
        let probed: u64 = r.traces.iter().map(|t| t.shards_probed()).sum();
        let pruned: u64 = r.traces.iter().map(|t| t.shards_pruned()).sum();
        let dists: u64 = r.traces.iter().map(|t| t.compdists()).sum();
        let pages: u64 = r.traces.iter().map(|t| t.page_accesses()).sum();
        let results: u64 = r.traces.iter().map(|t| t.results()).sum();
        assert_eq!(probed, r.shards_probed);
        assert_eq!(pruned, r.shards_pruned);
        assert_eq!(dists, r.cost.compdists);
        assert_eq!(pages, r.cost.page_accesses());
        assert_eq!(results, r.total_results as u64);
        // The two clusters are far apart, so routing pruned something and
        // the explain output shows both verdicts.
        assert!(pruned > 0, "two-cluster routing must prune");
        let rendered = r.traces[0].explain();
        assert!(rendered.contains("probe #0"), "{rendered}");
        assert!(rendered.contains("pruned"), "{rendered}");
    }

    #[test]
    fn slow_query_capture_is_retroactive() {
        let (objects, e) = routed_two_clusters();
        // 1ns threshold: every query qualifies once its wall is known —
        // without being a 1-in-N sample.
        e.set_trace_policy(TracePolicy {
            sample_every: 0,
            slow_query_nanos: 1,
            max_captured: 3,
        });
        let batch: Vec<Query<Vec<f32>>> = (0..8)
            .map(|i| Query::Knn {
                q: objects[i].clone(),
                k: 2,
            })
            .collect();
        let out = e.serve(&batch);
        assert_eq!(out.report.traces.len(), 3, "cap respected");
        for t in &out.report.traces {
            assert!(t.slow && !t.sampled);
            assert!(t.wall_nanos >= 1);
            assert!(t.explain().contains("[slow]"));
        }
        // An impossible threshold captures nothing.
        e.set_trace_policy(TracePolicy {
            sample_every: 0,
            slow_query_nanos: u64::MAX,
            max_captured: 3,
        });
        assert!(e.serve(&batch).report.traces.is_empty());
    }

    #[test]
    fn tracing_changes_no_results() {
        let (objects, e) = routed_two_clusters();
        let batch: Vec<Query<Vec<f32>>> = (0..12)
            .map(|i| {
                if i % 3 == 0 {
                    Query::Range {
                        q: objects[i].clone(),
                        radius: 3.0,
                    }
                } else {
                    Query::Knn {
                        q: objects[i].clone(),
                        k: 4,
                    }
                }
            })
            .collect();
        let plain = e.serve(&batch);
        e.set_trace_policy(TracePolicy::sample(1));
        let traced = e.serve(&batch);
        assert_eq!(plain.results, traced.results);
        assert_eq!(plain.report.shards_probed, traced.report.shards_probed);
        assert_eq!(plain.report.shards_pruned, traced.report.shards_pruned);
        assert_eq!(plain.report.cost, traced.report.cost);
        assert_eq!(
            traced.report.traces.len(),
            TracePolicy::disabled().max_captured
        );
    }

    #[test]
    fn a_plain_engine_traces_a_probe_of_every_shard() {
        let e = engine(40, 4, 1);
        e.set_trace_policy(TracePolicy::sample(1).with_max_captured(16));
        let q = grid(40)[7].clone();
        let out = e.serve(&[
            Query::Range {
                q: q.clone(),
                radius: 2.0,
            },
            Query::Knn { q, k: 5 },
        ]);
        assert_eq!(out.report.traces.len(), 2);
        for t in &out.report.traces {
            assert_eq!(t.shards_probed(), 4, "a plain engine probes all shards");
            assert_eq!(t.shards_pruned(), 0);
            assert!(t.explain().contains("probed 4/4 shards"));
        }
        // The kNN ran the routed loop over zero bounds: a verdict and a scan
        // per shard, one summary each.
        let knn = &out.report.traces[1].events;
        let count = |f: fn(&TraceEvent) -> bool| knn.iter().filter(|e| f(e)).count();
        assert_eq!(
            [
                count(|e| matches!(e, TraceEvent::Plan { .. })),
                count(|e| matches!(e, TraceEvent::Scan { .. })),
                count(|e| matches!(e, TraceEvent::PlanDone { .. })),
                count(|e| matches!(e, TraceEvent::Merge { .. })),
            ],
            [4, 4, 1, 1]
        );
    }

    use crate::robust::Completeness;

    /// Runs `f` with a panic hook that swallows the intentional
    /// ("injected") panics these tests contain, so the suite's output
    /// stays readable. Serialized: the hook is process-global.
    fn silent_panics<T>(f: impl FnOnce() -> T) -> T {
        static HOOK: Mutex<()> = Mutex::new(());
        let _g = HOOK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("injected"))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<&str>()
                        .map(|s| s.contains("injected"))
                })
                .unwrap_or(false);
            if !injected {
                eprintln!("{info}");
            }
        }));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    /// A shard index whose query paths always panic — the tier-1 stand-in
    /// for a faulty distance function (the feature-gated chaos suite
    /// drives the same machinery through `pmi_metric::fault`).
    struct PanickyIndex {
        inner: Box<dyn MetricIndex<Vec<f32>>>,
    }

    impl MetricIndex<Vec<f32>> for PanickyIndex {
        fn name(&self) -> &str {
            "panicky"
        }
        fn fork(&self) -> Box<dyn MetricIndex<Vec<f32>>> {
            Box::new(PanickyIndex {
                inner: self.inner.fork(),
            })
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn range_query_into(
            &self,
            _q: &Vec<f32>,
            _r: f64,
            _scratch: &mut QueryScratch,
            _out: &mut Vec<ObjId>,
        ) {
            panic!("injected: shard range panic")
        }
        fn knn_query_into_seeded(
            &self,
            _q: &Vec<f32>,
            _k: usize,
            _seed: f64,
            _scratch: &mut QueryScratch,
            _out: &mut Vec<Neighbor>,
        ) {
            panic!("injected: shard knn panic")
        }
        fn insert(&mut self, o: Vec<f32>) -> ObjId {
            self.inner.insert(o)
        }
        fn remove(&mut self, id: ObjId) -> bool {
            self.inner.remove(id)
        }
        fn object(&self, id: ObjId) -> Option<std::borrow::Cow<'_, [f32]>> {
            self.inner.object(id)
        }
        fn storage(&self) -> StorageFootprint {
            self.inner.storage()
        }
        fn counters(&self) -> Counters {
            self.inner.counters()
        }
        fn reset_counters(&self) {
            self.inner.reset_counters()
        }
    }

    /// 4-shard plain engine whose shard 1 panics on every query.
    fn panicky_engine(
        n: usize,
        faults: FaultPolicy,
        threads: usize,
    ) -> (Vec<Vec<f32>>, ShardedEngine<Vec<f32>>) {
        let objects = grid(n);
        let e = ShardedEngine::build(
            objects.clone(),
            Layout::plain(),
            &EngineConfig {
                shards: 4,
                threads,
                faults,
                ..EngineConfig::default()
            },
            |s, part, _| {
                let inner = Box::new(BruteForce::new(part, L2)) as Box<dyn MetricIndex<_>>;
                Ok::<_, String>(if s == 1 {
                    Box::new(PanickyIndex { inner }) as Box<dyn MetricIndex<_>>
                } else {
                    inner
                })
            },
        )
        .unwrap();
        (objects, e)
    }

    #[test]
    fn panicking_shard_is_contained_then_quarantined_then_healed() {
        silent_panics(|| {
            let (objects, e) = panicky_engine(
                40,
                FaultPolicy {
                    quarantine_after: 2,
                },
                1,
            );
            let batch: Vec<_> = (0..6)
                .map(|i| Query::range(objects[i].clone(), 1.0))
                .collect();
            let out = e.serve(&batch);
            // threads:1 ⇒ deterministic claim order. Queries 0 and 1 panic
            // probing shard 1 and are contained; the second panic trips the
            // quarantine, so queries 2.. route around the shard and come
            // back Partial. The batch as a whole completes.
            assert_eq!(out.results.len(), 6);
            for r in &out.results[..2] {
                assert_eq!(
                    *r,
                    QueryResult::Failed(QueryError::Panicked { shard: Some(1) })
                );
            }
            for r in &out.results[2..] {
                match r {
                    QueryResult::PartialRange(_, d) => {
                        assert_eq!(d.shards_skipped, 1);
                        assert_eq!(d.reason, DegradeReason::Quarantined);
                    }
                    other => panic!("expected Partial after quarantine, got {other:?}"),
                }
            }
            assert_eq!(out.report.failed, 2);
            assert_eq!(out.report.degraded, 4);
            assert_eq!(e.quarantined_shards(), vec![1]);
            let states = e.fault_states();
            assert_eq!(states[1].panics, 2);
            assert!(states[1].quarantined);
            assert!(!states[0].quarantined && !states[2].quarantined);
            // Single-query paths route around the quarantined shard too.
            let ids = e.range_query(&objects[0], 1.0);
            assert!(matches!(
                e.execute(&Query::range(objects[0].clone(), 1.0)),
                QueryResult::PartialRange(ref p, _) if *p == ids
            ));
            let _ = e.knn_query(&objects[0], 3);
            // heal() clears the state and planning probes everything again
            // (so the faulty shard panics anew).
            assert_eq!(e.heal(), 1);
            assert!(e.quarantined_shards().is_empty());
            assert_eq!(e.fault_states()[1].panics, 0);
            let out2 = e.serve(&batch[..1]);
            assert_eq!(
                out2.results[0],
                QueryResult::Failed(QueryError::Panicked { shard: Some(1) })
            );
        });
    }

    #[test]
    fn a_lone_query_is_accounted_like_any_batch() {
        // Narrower than the pool, on an engine past any size threshold.
        let e = engine(4096, 4, 4);
        for one in [
            Query::range(vec![3.0f32, 3.0], 2.0),
            Query::knn(vec![3.0f32, 3.0], 5),
        ] {
            let report = e.serve(std::slice::from_ref(&one)).report;
            assert_eq!(report.threads, 1, "max(1, min(threads, batch))");
            assert_eq!(report.shards_probed, 4);
            let probes: u64 = report.per_shard.iter().map(|s| s.probes).sum();
            assert_eq!(probes, report.shards_probed, "per-shard tally is exact");
        }
    }

    #[test]
    fn lone_queries_attribute_their_panics_and_quarantine_the_shard() {
        silent_panics(|| {
            let (objects, e) = panicky_engine(
                4096,
                FaultPolicy {
                    quarantine_after: 2,
                },
                4,
            );
            let one = [Query::range(objects[0].clone(), 1.0)];
            for _ in 0..2 {
                assert_eq!(
                    e.serve(&one).results[0],
                    QueryResult::Failed(QueryError::Panicked { shard: Some(1) })
                );
            }
            assert_eq!(e.quarantined_shards(), vec![1]);
            assert!(matches!(
                e.serve(&one).results[0],
                QueryResult::PartialRange(_, d) if d.reason == DegradeReason::Quarantined
            ));
        });
    }

    #[test]
    fn malformed_queries_fail_per_item() {
        let objects = grid(50);
        let mut e = engine(50, 2, 1);
        e.set_query_validator(|o: &Vec<f32>| o.iter().all(|c| c.is_finite()));
        let valid = Query::range(objects[3].clone(), 2.0);
        let batch = vec![
            Query::range(objects[0].clone(), f64::NAN),
            Query::range(objects[1].clone(), -1.0),
            Query::knn(objects[2].clone(), 0),
            Query::knn(vec![f32::NAN, 0.0], 3),
            valid.clone(),
        ];
        let out = e.serve(&batch);
        assert_eq!(out.results[0], QueryResult::Failed(QueryError::NanRadius));
        assert_eq!(
            out.results[1],
            QueryResult::Failed(QueryError::NegativeRadius)
        );
        assert_eq!(out.results[2], QueryResult::Failed(QueryError::ZeroK));
        assert_eq!(
            out.results[3],
            QueryResult::Failed(QueryError::InvalidObject)
        );
        assert_eq!(out.report.failed, 4);
        assert_eq!(out.report.degraded + out.report.shed, 0);
        // The valid query is identical to a malformed-free serve.
        let clean = e.serve(std::slice::from_ref(&valid));
        assert_eq!(out.results[4], clean.results[0]);
        // +∞ radius stays a *valid* radius: everything matches.
        let all = e.serve(&[Query::range(objects[0].clone(), f64::INFINITY)]);
        assert_eq!(all.results[0].len(), 50);
        // Completeness/error accessors.
        assert_eq!(out.results[0].completeness(), Completeness::Failed);
        assert_eq!(out.results[0].error(), Some(QueryError::NanRadius));
        assert_eq!(clean.results[0].completeness(), Completeness::Exact);
        assert_eq!(clean.results[0].error(), None);
    }

    #[test]
    fn compdist_cap_degrades_to_partial_subset() {
        let objects = grid(200);
        let e = engine(200, 4, 1);
        let batch: Vec<_> = (0..10)
            .map(|i| Query::range(objects[i].clone(), 3.0))
            .collect();
        let exact = e.serve(&batch);
        e.set_budget(ServeBudget {
            query: QueryBudget {
                wall_nanos: 0,
                compdists: 1,
            },
            batch_wall_nanos: 0,
        });
        assert!(e.serve_budget().enabled());
        let capped = e.serve(&batch);
        assert_eq!(capped.report.degraded, 10);
        for (p, x) in capped.results.iter().zip(&exact.results) {
            let QueryResult::PartialRange(ids, d) = p else {
                panic!("expected PartialRange, got {p:?}");
            };
            assert_eq!(d.reason, DegradeReason::CompdistCap);
            assert_eq!(d.shards_skipped, 3, "the first probe spends past the cap");
            let exact_ids = x.as_range().unwrap();
            assert!(
                ids.iter().all(|id| exact_ids.contains(id)),
                "partial range ⊆ exact"
            );
            assert_eq!(
                p.completeness(),
                Completeness::Partial {
                    shards_skipped: 3,
                    reason: DegradeReason::CompdistCap
                }
            );
        }
        // A budget that never binds is exact — and swapping back to
        // unlimited at runtime restores the unguarded path.
        e.set_budget(ServeBudget {
            query: QueryBudget {
                wall_nanos: 0,
                compdists: u64::MAX,
            },
            batch_wall_nanos: 0,
        });
        let huge = e.serve(&batch);
        assert_eq!(huge.results, exact.results);
        assert_eq!(huge.report.degraded, 0);
        e.set_budget(ServeBudget::unlimited());
        assert_eq!(e.serve(&batch).results, exact.results);
    }

    #[test]
    fn deadlines_degrade_and_batch_deadline_sheds() {
        let objects = grid(100);
        let e = engine(100, 4, 1);
        let batch: Vec<_> = (0..8)
            .map(|i| Query::range(objects[i].clone(), 2.0))
            .collect();
        // A 1 ns per-query deadline is blown before the first probe: every
        // query degrades to an empty partial answer (still not an error).
        e.set_budget(ServeBudget {
            query: QueryBudget {
                wall_nanos: 1,
                compdists: 0,
            },
            batch_wall_nanos: 0,
        });
        let out = e.serve(&batch);
        assert_eq!(out.report.degraded, 8);
        for r in &out.results {
            let QueryResult::PartialRange(ids, d) = r else {
                panic!("expected PartialRange, got {r:?}");
            };
            assert!(ids.is_empty());
            assert_eq!(d.reason, DegradeReason::Deadline);
            assert_eq!(d.shards_skipped, 4);
        }
        // A 1 ns *batch* deadline sheds every query without executing it.
        e.set_budget(ServeBudget {
            query: QueryBudget::unlimited(),
            batch_wall_nanos: 1,
        });
        let out = e.serve(&batch);
        assert_eq!(out.report.shed, 8);
        assert!(out.results.iter().all(|r| *r == QueryResult::Shed));
        assert_eq!(out.report.cost.compdists, 0, "no shard was touched");
        assert_eq!(out.results[0].completeness(), Completeness::Shed);
        assert_eq!(out.results[0].len(), 0);
    }
}
