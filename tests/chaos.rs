//! Chaos suite: end-to-end failure-containment invariants, driven by the
//! deterministic fault-injection hooks (`pmi::fault`, compiled in only
//! with `--features fault-inject`).
//!
//! Run with:
//!
//! ```text
//! cargo test --features fault-inject --test chaos
//! ```
//!
//! The headline test installs a [`FaultPlan`] that panics one shard's
//! probe (the shard's distance-evaluation path) and proves the serve
//! boundary's contract: the batch completes, affected queries come back
//! `Failed` (then `Partial` once the shard is quarantined), every query
//! that never routed to the faulted shard is byte-identical — results
//! *and* exact per-shard cost counters — to the fault-free run, and the
//! quarantined shard is visible in `engine.metrics()` until `heal()`.
#![cfg(feature = "fault-inject")]

use pivot_metric_repro as pmr;
use pmr::builder::{build_index, BuildOptions, IndexKind};
use pmr::engine::{EngineConfig, Layout, Query, QueryResult};
use pmr::fault::{self, FaultKind, FaultPlan, FaultSpec};
use pmr::{
    build_sharded_vector_engine, Counters, DegradeReason, FaultPolicy, Metric, PartitionPolicy,
    QueryBudget, QueryError, QueryScratch, ServeBudget, ShardedEngine, UpdateBatch, L1, L2,
};
use std::cmp::Reverse;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The installed fault plan is process-global: every test that arms one
/// holds this lock (and clears the plan before releasing it).
static PLAN_LOCK: Mutex<()> = Mutex::new(());

/// Suppresses the default panic printout for the *injected* panics these
/// tests fire on purpose; anything else still reaches stderr.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected fault"));
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Sets a reader loop's stop flag even if a writer-side assertion panics,
/// so the reader thread exits and the scope join cannot hang the suite.
struct StopOnDrop<'a>(&'a AtomicBool);
impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn opts() -> BuildOptions {
    BuildOptions {
        d_plus: 14143.0,
        maxnum: 64,
        ..BuildOptions::default()
    }
}

/// The kinds the writer-crash and quarantine drills sweep: a table, a
/// disk-backed table, a tree and a disk index.
const KINDS: [IndexKind; 4] = [
    IndexKind::Laesa,
    IndexKind::Cpt,
    IndexKind::Mvpt,
    IndexKind::OmniR,
];
fn cfg(shards: usize) -> EngineConfig {
    EngineConfig {
        shards,
        threads: 1,
        faults: FaultPolicy {
            quarantine_after: 2,
        },
        ..EngineConfig::default()
    }
}

fn build(kind: IndexKind, shards: usize, pts: &[Vec<f32>]) -> ShardedEngine<Vec<f32>> {
    build_with(kind, shards, pts, L2)
}

fn build_with<M: Metric<Vec<f32>> + Clone + 'static>(
    kind: IndexKind,
    shards: usize,
    pts: &[Vec<f32>],
    metric: M,
) -> ShardedEngine<Vec<f32>> {
    let policy = PartitionPolicy::PivotSpace;
    build_sharded_vector_engine(kind, pts.to_vec(), metric, &opts(), &cfg(shards), policy).unwrap()
}

/// LAESA shards over balanced contiguous runs (`Layout::plain()`), with
/// the facade's options and pivots: every query probes every shard.
fn plain_laesa(shards: usize, pts: &[Vec<f32>]) -> ShardedEngine<Vec<f32>> {
    let opts = opts();
    let pivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(pts, &L2, opts.num_pivots, opts.seed)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect();
    ShardedEngine::build(pts.to_vec(), Layout::plain(), &cfg(shards), |_, part, _| {
        build_index(IndexKind::Laesa, part, L2, pivots.clone(), &opts)
    })
    .unwrap()
}

/// Serves `q` alone and returns its result plus the exact per-shard
/// counter deltas it cost (threads = 1, so this is deterministic).
fn probe_one(e: &ShardedEngine<Vec<f32>>, q: &Query<Vec<f32>>) -> (QueryResult, Vec<Counters>) {
    e.reset_counters();
    let out = e.serve(std::slice::from_ref(q));
    (out.results.into_iter().next().unwrap(), e.shard_counters())
}

#[test]
fn panicking_shard_probe_is_contained_and_routed_around() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();

    // Clustered LA data + a selective radius: routing prunes shards, so
    // some queries probe the shard we will break and some never do.
    let pts = pmr::datasets::la(800, 5);
    let radius = pmr::datasets::calibrate_radius(&pts, &L2, 0.01, 5);
    let queries: Vec<Query<Vec<f32>>> = (0..24)
        .map(|i| Query::range(pts[i * 31].clone(), radius))
        .collect();

    // Fault-free baseline: per-query results and exact per-shard costs.
    let clean = build(IndexKind::Laesa, 8, &pts);
    let baseline: Vec<(QueryResult, Vec<Counters>)> =
        queries.iter().map(|q| probe_one(&clean, q)).collect();
    // A probed LAESA shard always computes ≥ l pivot distances, so the
    // counter delta tells us each query's probe set.
    let probes: Vec<Vec<bool>> = baseline
        .iter()
        .map(|(_, per_shard)| per_shard.iter().map(|c| c.compdists > 0).collect())
        .collect();
    // Break a shard that some (≥ 2, to trip the quarantine) but not all
    // queries probe.
    let faulted = (0..8)
        .find(|&s| {
            let n = probes.iter().filter(|p| p[s]).count();
            n >= 2 && n < queries.len()
        })
        .expect("clustered data must leave some shard partially probed");

    let chaos = build(IndexKind::Laesa, 8, &pts);
    fault::install(FaultPlan::new().with(FaultSpec::always(
        "engine.probe",
        Some(faulted as u64),
        FaultKind::Panic,
    )));

    let mut panics_seen = 0usize;
    for (i, q) in queries.iter().enumerate() {
        let (res, per_shard) = probe_one(&chaos, q);
        if !probes[i][faulted] {
            // Never routed to the broken shard: byte-identical results AND
            // byte-identical exact counters, fault plan armed or not.
            assert_eq!(res, baseline[i].0, "query {i}: unaffected result");
            assert_eq!(per_shard, baseline[i].1, "query {i}: unaffected counters");
            continue;
        }
        if panics_seen < 2 {
            // Quarantine not yet tripped: the probe panics, the panic is
            // contained, and the query fails with the shard attributed.
            panics_seen += 1;
            assert_eq!(
                res,
                QueryResult::Failed(QueryError::Panicked {
                    shard: Some(faulted as u32)
                }),
                "query {i}: contained panic"
            );
        } else {
            // Quarantined: the planner routes around the shard and the
            // answer degrades to a partial result instead of failing.
            let QueryResult::PartialRange(ids, d) = &res else {
                panic!("query {i}: expected PartialRange, got {res:?}");
            };
            assert_eq!(d.reason, DegradeReason::Quarantined);
            assert_eq!(d.shards_skipped, 1);
            let QueryResult::Range(exact) = &baseline[i].0 else {
                panic!("baseline {i} must be exact");
            };
            assert!(
                ids.iter().all(|id| exact.contains(id)),
                "query {i}: partial ⊆ exact"
            );
        }
    }
    assert_eq!(panics_seen, 2, "exactly two panics trip the quarantine");
    assert_eq!(fault::fired(), vec![2], "the plan fired once per panic");

    // The quarantined shard is visible in the engine's own state and in
    // the metrics registry.
    assert_eq!(chaos.quarantined_shards(), vec![faulted]);
    let states = chaos.fault_states();
    assert_eq!(states[faulted].panics, 2);
    assert!(states[faulted].quarantined);
    let snap = chaos.metrics();
    let gauge = snap
        .gauges
        .iter()
        .find(|(n, _)| n == "engine.quarantined_shards")
        .map(|(_, v)| *v);
    assert_eq!(gauge, Some(1), "quarantine gauge in engine.metrics()");
    let quarantines = snap
        .counters
        .iter()
        .find(|(n, _)| n == "serve.quarantines")
        .map(|(_, v)| *v);
    assert_eq!(quarantines, Some(1));

    // Disarm the fault and heal: every query is byte-identical to the
    // fault-free baseline again.
    fault::clear();
    assert_eq!(chaos.heal(), 1);
    assert!(chaos.quarantined_shards().is_empty());
    for (i, q) in queries.iter().enumerate() {
        let (res, per_shard) = probe_one(&chaos, q);
        assert_eq!(res, baseline[i].0, "query {i}: healed result");
        assert_eq!(per_shard, baseline[i].1, "query {i}: healed counters");
    }
}

#[test]
fn nan_distances_never_poison_or_panic() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();

    let pts = pmr::datasets::la(300, 7);
    let e = build(IndexKind::Laesa, 4, &pts);
    let q = Query::range(pts[10].clone(), 500.0);
    let exact = e.serve(std::slice::from_ref(&q));
    let QueryResult::Range(exact_ids) = &exact.results[0] else {
        panic!("exact serve must be a Range");
    };

    // Every LAESA verification distance comes out NaN: candidates are
    // silently dropped (`NaN <= r` is false) — degraded answers, but no
    // panic and no NaN escaping into results.
    fault::install(FaultPlan::new().with(FaultSpec::always(
        "laesa.dist",
        None,
        FaultKind::NanDist,
    )));
    let poisoned = e.serve(std::slice::from_ref(&q));
    let QueryResult::Range(ids) = &poisoned.results[0] else {
        panic!("NaN injection must not change the result variant");
    };
    assert!(
        ids.iter().all(|id| exact_ids.contains(id)),
        "poisoned ⊆ exact"
    );
    assert_eq!(poisoned.report.failed, 0, "no panic, no failure");

    // Clearing the plan restores exact answers.
    fault::clear();
    let again = e.serve(std::slice::from_ref(&q));
    assert_eq!(again.results[0], exact.results[0]);
}

/// Range verification computes four distances per `Metric::dist4` call
/// (`QueryScratch::range_verify`), yet each distance still passes the
/// kind's fault hook once, under its own slot id. A panic armed on the third
/// survivor of a shard's first group of four fires on that slot, fails the
/// one query that verifies it, and leaves every other answer and per-shard
/// counter byte-identical.
#[test]
fn a_dist_fault_inside_a_group_of_four_fires_on_its_own_slot() {
    let pts = pmr::datasets::la(800, 5);
    a_dist_fault_fires_on_its_own_slot(&pts, L2, 0.02, (2, 4));
}

/// The same on 282-d Color under L1, where range verification computes
/// eight distances per `Metric::dist8` call (the AVX2 register kernel, on a
/// CPU that has it): a panic armed on the seventh survivor of a shard's
/// first group of eight fires on that slot alone.
#[test]
fn a_dist_fault_inside_a_group_of_eight_fires_on_its_own_slot() {
    let pts = pmr::datasets::color(800, 5);
    a_dist_fault_fires_on_its_own_slot(&pts, L1, 0.01, (6, 8));
}

/// Arms `laesa.dist` on survivor `rank` of one query's survivors in one
/// shard (shard-local slot ids: a slot that query verifies in no other
/// shard), over four LAESA shards of `pts`, with groups of `group`
/// survivors or more. Queries that verify that slot id elsewhere would fail
/// too and are left out; of the rest, the armed query alone fails, on that
/// shard, the fault fires once, and every other answer and per-shard
/// counter equals the fault-free run's.
fn a_dist_fault_fires_on_its_own_slot<M: Metric<Vec<f32>> + Clone + 'static>(
    pts: &[Vec<f32>],
    metric: M,
    selectivity: f64,
    (rank, group): (usize, usize),
) {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();

    let radius = pmr::datasets::calibrate_radius(pts, &metric, selectivity, 5);
    let centres: Vec<Vec<f32>> = (0..24).map(|i| pts[i * 31].clone()).collect();
    let engine = || {
        let m = metric.clone();
        build_with(IndexKind::Laesa, 4, pts, m)
    };
    let clean = engine();

    // Every shard's range survivors of every query, in verification order.
    let mut scratch = QueryScratch::new();
    let survivors: Vec<Vec<Vec<u32>>> = centres
        .iter()
        .map(|c| {
            let shards = clean.shards().iter();
            shards
                .map(|s| {
                    s.index()
                        .range_query_into(c, radius, &mut scratch, &mut Vec::new());
                    scratch.survivors.clone()
                })
                .collect()
        })
        .collect();
    // How many shards verify shard-local slot id `slot` for query `qi`.
    let verifying = |qi: usize, slot: u32| {
        survivors[qi]
            .iter()
            .filter(|ids| ids.contains(&slot))
            .count()
    };
    // The queries a fault on `slot`, armed for query `qi`, leaves alone.
    let spared = |qi: usize, slot: u32| {
        (0..centres.len()).filter(move |&qj| qj != qi && verifying(qj, slot) == 0)
    };
    let (qi, s, slot) = (0..centres.len())
        .flat_map(|qi| (0..4).map(move |s| (qi, s)))
        .filter(|&(qi, s)| survivors[qi][s].len() >= group)
        .map(|(qi, s)| (qi, s, survivors[qi][s][rank]))
        .filter(|&(qi, _, slot)| verifying(qi, slot) == 1)
        .max_by_key(|&(qi, s, slot)| (spared(qi, slot).count(), Reverse((qi, s))))
        .expect("some query verifies its armed slot in one shard");
    let queries: Vec<(usize, Query<Vec<f32>>)> = std::iter::once(qi)
        .chain(spared(qi, slot))
        .map(|qj| (qj, Query::range(centres[qj].clone(), radius)))
        .collect();
    assert!(queries.len() >= 12, "{} queries left", queries.len());

    let baseline: Vec<(QueryResult, Vec<Counters>)> =
        queries.iter().map(|(_, q)| probe_one(&clean, q)).collect();
    let chaos = engine();
    fault::install(FaultPlan::new().with(FaultSpec::always(
        "laesa.dist",
        Some(slot as u64),
        FaultKind::Panic,
    )));
    for ((i, q), (base, base_counters)) in queries.iter().zip(&baseline) {
        let (res, per_shard) = probe_one(&chaos, q);
        if *i == qi {
            assert_eq!(
                res,
                QueryResult::Failed(QueryError::Panicked {
                    shard: Some(s as u32)
                }),
                "query {i}: the armed slot's probe fails"
            );
        } else {
            assert_eq!(&res, base, "query {i}: unaffected result");
            assert_eq!(&per_shard, base_counters, "query {i}: unaffected counters");
        }
    }
    assert_eq!(fault::fired(), vec![1], "fired once, on the armed slot");
    fault::clear();
}

#[test]
fn injected_probe_delays_trip_the_query_deadline() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();

    let pts = pmr::datasets::la(400, 9);
    let e = plain_laesa(4, &pts);
    let q = Query::range(pts[5].clone(), 500.0);
    let exact = e.serve(std::slice::from_ref(&q));
    let QueryResult::Range(exact_ids) = &exact.results[0] else {
        panic!("exact serve must be a Range");
    };

    // 2 ms per-query budget, 10 ms injected delay on every probe: the
    // first probe runs (and sleeps), every later probe is over deadline.
    e.set_budget(ServeBudget {
        query: QueryBudget {
            wall_nanos: 2_000_000,
            compdists: 0,
        },
        batch_wall_nanos: 0,
    });
    fault::install(FaultPlan::new().with(FaultSpec::always(
        "engine.probe",
        None,
        FaultKind::DelayMicros(10_000),
    )));
    let out = e.serve(std::slice::from_ref(&q));
    let QueryResult::PartialRange(ids, d) = &out.results[0] else {
        panic!(
            "expected a deadline-degraded partial, got {:?}",
            out.results[0]
        );
    };
    assert_eq!(d.reason, DegradeReason::Deadline);
    assert_eq!(d.shards_skipped, 3, "only the first probe beat the clock");
    assert!(
        ids.iter().all(|id| exact_ids.contains(id)),
        "partial ⊆ exact"
    );
    assert_eq!(out.report.degraded, 1);

    fault::clear();
    e.set_budget(ServeBudget::unlimited());
    let again = e.serve(std::slice::from_ref(&q));
    assert_eq!(again.results[0], exact.results[0]);
}

/// The crash-safe apply contract (`docs/concurrency.md`): a panic injected
/// anywhere inside the staging transaction — mid-op (`engine.apply.stage`)
/// or at the last abortable point before publication
/// (`engine.apply.publish`) — aborts the whole batch. Nothing lands, the
/// epoch does not advance, a reader hammering the engine *during* the
/// abort sees byte-identical results throughout, and retrying the same
/// batch after clearing the fault succeeds with the same ids — on every
/// kind, because there is one write path.
#[test]
fn writer_panic_mid_apply_aborts_and_serving_continues() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for kind in KINDS {
        writer_panic_mid_apply(kind);
    }
}

fn writer_panic_mid_apply(kind: IndexKind) {
    fault::clear();

    let pts = pmr::datasets::la(400, 5);
    let mut e = build(kind, 4, &pts);
    let reader = e.reader().expect("every kind hands out readers");
    let queries: Vec<Query<Vec<f32>>> = (0..16)
        .map(|i| Query::range(pts[i * 23].clone(), 40.0))
        .collect();
    let baseline = e.serve(&queries).results;
    let epoch0 = e.epoch();
    let len0 = e.len();
    let located0: Vec<_> = (0..len0 as u32 + 2).map(|g| e.locate(g)).collect();

    for at in ["engine.apply.stage", "engine.apply.publish"] {
        let point = &format!("{kind:?} {at}");
        fault::install(FaultPlan::new().with(FaultSpec::always(at, None, FaultKind::Panic)));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let _stop_guard = StopOnDrop(&stop);
            let h = {
                let r = reader.clone();
                let stop = &stop;
                let queries = &queries;
                let baseline = &baseline;
                s.spawn(move || {
                    // At least one batch races the aborting apply; more as
                    // long as it is still in flight.
                    let mut batches = 0u32;
                    loop {
                        let out = r.serve(queries);
                        assert_eq!(out.report.epoch, epoch0, "no epoch mid-abort");
                        assert_eq!(&out.results, baseline, "reads unperturbed by abort");
                        batches += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    batches
                })
            };
            let mut batch = UpdateBatch::new();
            batch.remove(0).insert(vec![1.0f32; 2]);
            let report = e.apply(&batch);
            assert!(report.aborted, "{point}: the transaction aborted");
            assert_eq!((report.inserts, report.removes), (0, 0), "{point}");
            assert!(report.inserted_ids.is_empty(), "{point}");
            stop.store(true, Ordering::Relaxed);
            assert!(h.join().expect("reader panicked") > 0);
        });
        // All-or-nothing: no op landed, no snapshot was published.
        assert_eq!(e.epoch(), epoch0, "{point}: epoch unchanged");
        assert_eq!(e.len(), len0, "{point}: live count unchanged");
        assert!(e.get(0).is_some(), "{point}: the remove did not apply");
        assert_eq!(e.num_shards(), 4, "{point}: every shard still there");
        assert_eq!(
            (0..len0 as u32 + 2)
                .map(|g| e.locate(g))
                .collect::<Vec<_>>(),
            located0,
            "{point}: locator unchanged"
        );
        assert_eq!(
            e.serve(&queries).results,
            baseline,
            "{point}: post-abort serving byte-identical"
        );
        fault::clear();
    }
    let snap = e.metrics();
    let aborts = snap
        .counters
        .iter()
        .find(|(n, _)| n == "apply.aborts")
        .map(|(_, v)| *v);
    assert_eq!(aborts, Some(2), "both aborts counted");

    // Retry after the fault is gone: the identical batch applies cleanly.
    let mut batch = UpdateBatch::new();
    batch.remove(0).insert(vec![1.0f32; 2]);
    let report = e.apply(&batch);
    assert!(!report.aborted);
    assert_eq!((report.inserts, report.removes), (1, 1));
    // The aborted attempts consumed no id: the retry gets the first free one.
    assert_eq!(report.inserted_ids, vec![len0 as u32]);
    assert_eq!(e.epoch(), epoch0 + 1);
    assert!(e.get(0).is_none());
}

/// The availability gate (`docs/concurrency.md`): serving never waits for
/// the writer. The writer is stalled for 150 ms at its last step before
/// publication (`engine.apply.publish`) — asleep, not spinning, so the
/// reader keeps a core whatever the host has — and a reader must complete
/// whole batches *inside* that stall, on the old snapshot; the first batch
/// after `apply` returns reads the new one. A publication that held the
/// snapshot slot while it stalled would leave the count at zero.
#[test]
fn serving_never_waits_for_a_stalled_writer() {
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for kind in KINDS {
        serving_through_a_stalled_writer(kind);
    }
}

fn serving_through_a_stalled_writer(kind: IndexKind) {
    fault::clear();
    let label = &format!("{kind:?}");

    let pts = pmr::datasets::la(400, 5);
    let queries: Vec<Query<Vec<f32>>> = (0..16)
        .map(|i| Query::range(pts[i * 23].clone(), 40.0))
        .collect();
    let mut batch = UpdateBatch::new();
    batch.remove(0).insert(vec![1.0f32; 2]);

    let mut quiesced = build(kind, 4, &pts);
    assert!(!quiesced.apply(&batch).aborted, "{label}");
    let after = quiesced.serve(&queries).results;

    let mut e = build(kind, 4, &pts);
    let reader = e.reader().expect("every kind hands out readers");
    let before = e.serve(&queries).results;
    assert_ne!(before, after, "{label}: the batch changes an answer");
    let epoch0 = e.epoch();

    fault::install(FaultPlan::new().with(FaultSpec {
        limit: 1,
        ..FaultSpec::always(
            "engine.apply.publish",
            None,
            FaultKind::DelayMicros(150_000),
        )
    }));
    let returned = AtomicBool::new(false);
    std::thread::scope(|s| {
        let _stop_guard = StopOnDrop(&returned);
        let h = {
            let r = reader.clone();
            let (returned, queries, before, after) = (&returned, &queries, &before, &after);
            s.spawn(move || {
                // Whole batches that began after the writer reached its
                // stall and completed before `apply` returned.
                let mut inside_stall = 0u32;
                loop {
                    let stalled = fault::fired() == [1];
                    let out = r.serve(queries);
                    let done = returned.load(Ordering::Relaxed);
                    if out.report.epoch == epoch0 {
                        assert_eq!(&out.results, before, "old snapshot, old answers");
                        inside_stall += u32::from(stalled && !done);
                    } else {
                        assert_eq!(out.report.epoch, epoch0 + 1);
                        assert_eq!(&out.results, after, "new snapshot, new answers");
                    }
                    if done {
                        return inside_stall;
                    }
                }
            })
        };
        let report = e.apply(&batch);
        returned.store(true, Ordering::Relaxed);
        assert!(!report.aborted, "{label}: a delay is not a crash");
        assert_eq!(fault::fired(), vec![1], "{label}: the writer did stall");
        let first = reader.serve(&queries);
        assert_eq!(first.report.epoch, epoch0 + 1, "{label}: published");
        assert_eq!(first.results, after, "{label}: equals the quiesced engine");
        let inside_stall = h.join().expect("reader panicked");
        assert!(
            inside_stall >= 2,
            "{label}: {inside_stall} batches served while the writer stalled"
        );
    });
    fault::clear();
}

/// `compact()` is a transaction like `apply`: a panic at its last abortable
/// point (`engine.compact` — the re-partition moves, every shard's
/// compaction and the rebox have all staged by then) drops the staged state
/// whole. The call returns 0, nothing observable changes — ids, locations,
/// boxes, answers, the epoch, a pinned reader — and the retry compacts.
#[test]
fn compaction_panic_aborts_and_changes_nothing() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Rows inside the index, and rows the shard holds beside it.
    for kind in [IndexKind::Laesa, IndexKind::Mvpt] {
        fault::clear();
        let pts = pmr::datasets::la(400, 5);
        let mut e = build(kind, 4, &pts);
        let mut churn = UpdateBatch::new();
        for i in 0..60u32 {
            churn.remove(i * 5);
        }
        for o in pts.iter().step_by(10) {
            churn.insert(o.iter().map(|c| c + 0.5).collect());
        }
        let report = e.apply(&churn);
        assert_eq!((report.removes, report.inserts), (60, 40), "{kind:?}");
        let id_bound = 440u32;

        let reader = e.reader().expect("every kind hands out readers");
        let queries: Vec<Query<Vec<f32>>> = (0..16)
            .map(|i| Query::range(pts[i * 23 + 1].clone(), 300.0))
            .collect();
        let baseline = e.serve(&queries).results;
        assert!(
            baseline
                .iter()
                .all(|r| matches!(r, QueryResult::Range(ids) if !ids.is_empty())),
            "{kind:?}: every drill query has an answer to lose"
        );
        let (epoch0, len0) = (e.epoch(), e.len());
        let located0: Vec<_> = (0..id_bound + 2).map(|g| e.locate(g)).collect();
        let boxes0 = e.routing().expect("routed").boxes().to_vec();

        fault::install(FaultPlan::new().with(FaultSpec::always(
            "engine.compact",
            None,
            FaultKind::Panic,
        )));
        assert_eq!(e.compact(), 0, "{kind:?}: the compaction aborted");
        assert_eq!(fault::fired(), vec![1], "{kind:?}");
        fault::clear();
        assert_eq!(
            (e.epoch(), e.len(), e.num_shards()),
            (epoch0, len0, 4),
            "{kind:?}"
        );
        let located: Vec<_> = (0..id_bound + 2).map(|g| e.locate(g)).collect();
        assert_eq!(located, located0, "{kind:?}: locator unchanged");
        assert_eq!(e.routing().expect("routed").boxes(), boxes0, "{kind:?}");
        assert_eq!(e.serve(&queries).results, baseline, "{kind:?}");
        let pinned = reader.serve(&queries);
        assert_eq!(pinned.report.epoch, epoch0, "{kind:?}: nothing published");
        assert_eq!(pinned.results, baseline, "{kind:?}: reader unperturbed");
        let snap = e.metrics();
        let aborts = snap.counters.iter().find(|(n, _)| n == "compact.aborts");
        assert_eq!(aborts.map(|(_, v)| *v), Some(1), "{kind:?}");

        // Disarmed, the same call drops every dead row and serving equals
        // a rebuild over the survivors (rank in id order == new id).
        let survivors: Vec<Vec<f32>> = (0..id_bound).filter_map(|g| e.get(g)).collect();
        assert_eq!(e.compact(), 60, "{kind:?}: one dead row per remove");
        assert_eq!((e.epoch(), e.len()), (epoch0 + 1, len0), "{kind:?}");
        let rebuilt = build(kind, 4, &survivors);
        assert_eq!(
            e.serve(&queries).results,
            rebuilt.serve(&queries).results,
            "{kind:?}: compacted serving equals a rebuild"
        );
    }
}

/// A panic inside the re-clustering pass (`engine.recluster`) aborts the
/// *whole* transaction, including the several hundred inserts that staged
/// before the trigger fired — re-clustering is part of the apply
/// transaction, not a separate best-effort pass.
#[test]
fn recluster_panic_aborts_the_whole_batch() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for kind in KINDS {
        recluster_panic_aborts(kind);
    }
}

fn recluster_panic_aborts(kind: IndexKind) {
    fault::clear();

    let pts = pmr::datasets::la(400, 5);
    let mut e = build_sharded_vector_engine(
        kind,
        pts.to_vec(),
        L2,
        &opts(),
        &EngineConfig {
            shards: 4,
            threads: 1,
            refresh: pmr::RefreshPolicy {
                max_imbalance: 2.0,
                min_objects: 50,
            },
            ..EngineConfig::default()
        },
        PartitionPolicy::PivotSpace,
    )
    .unwrap();
    let epoch0 = e.epoch();
    let queries: Vec<Query<Vec<f32>>> = (0..16)
        .map(|i| Query::range(pts[i * 23].clone(), 40.0))
        .collect();
    let baseline = e.serve(&queries).results;
    let boxes0 = e.routing().expect("routed").boxes().to_vec();

    // 300 near-duplicates of one region all route to one shard and trip
    // the refresh trigger — where the injected panic fires.
    let hot = pts[7].clone();
    let mut batch = UpdateBatch::new();
    for i in 0..300 {
        let mut o = hot.clone();
        o[0] += (i % 17) as f32;
        o[1] += (i % 13) as f32;
        batch.insert(o);
    }
    fault::install(FaultPlan::new().with(FaultSpec::always(
        "engine.recluster",
        None,
        FaultKind::Panic,
    )));
    let report = e.apply(&batch);
    assert!(report.aborted, "{kind:?}: recluster panic aborts");
    assert_eq!(e.len(), 400, "all 300 staged inserts discarded with it");
    assert_eq!(e.epoch(), epoch0);
    assert_eq!(fault::fired(), vec![1]);
    assert_eq!(e.serve(&queries).results, baseline, "{kind:?}");
    assert_eq!(e.routing().expect("routed").boxes(), boxes0, "{kind:?}");

    // Retry lands everything, including the re-clustering pass.
    fault::clear();
    let report = e.apply(&batch);
    assert!(!report.aborted);
    assert_eq!(report.inserts, 300);
    assert_eq!(report.inserted_ids, (400..700).collect::<Vec<u32>>());
    assert_eq!(report.reclusters, 1, "skew still trips the refresh policy");
    assert_eq!(e.len(), 700);
    assert_eq!(e.epoch(), epoch0 + 1);
}

/// Quarantine × publication, across the four shardable kinds and both
/// partition policies: a shard quarantined during churn stays quarantined
/// across snapshot publishes (quarantine state lives beside the snapshot
/// slot, not inside any one snapshot), and after `heal()` the next
/// published snapshot serves byte-identically to a never-faulted control
/// engine that applied the same batches.
#[test]
fn quarantine_survives_publication_and_heal_restores_parity() {
    quiet_injected_panics();
    let _g = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear();

    let pts = pmr::datasets::la(150, 5);
    // Big-radius ranges probe every live shard on both policies.
    let queries: Vec<Query<Vec<f32>>> = (0..6)
        .map(|i| Query::range(pts[i * 20].clone(), 1e6))
        .collect();
    let churn = |step: usize| {
        let mut b = UpdateBatch::new();
        for i in 0..5u32 {
            b.remove(step as u32 * 5 + i);
            b.insert(
                (0..2)
                    .map(|d| ((step * 7 + d * 3 + i as usize) % 50) as f32)
                    .collect(),
            );
        }
        b
    };

    for kind in KINDS {
        let mk = || build(kind, 3, &pts);
        let mut chaos = mk();
        let mut control = mk();
        let label = format!("{kind:?}");

        // Two injected probe panics on shard 1 trip the quarantine.
        fault::install(FaultPlan::new().with(FaultSpec::always(
            "engine.probe",
            Some(1),
            FaultKind::Panic,
        )));
        let out = chaos.serve(&queries);
        assert_eq!(out.report.failed, 2, "{label}: two contained panics");
        assert_eq!(chaos.quarantined_shards(), vec![1], "{label}");
        fault::clear();

        // Churn publishes a fresh snapshot; the quarantine carries over
        // and the new snapshot still routes around shard 1.
        let epoch0 = chaos.epoch();
        chaos.apply(&churn(0));
        control.apply(&churn(0));
        assert_eq!(chaos.epoch(), epoch0 + 1, "{label}: publish happened");
        assert_eq!(
            chaos.quarantined_shards(),
            vec![1],
            "{label}: quarantine survives publication"
        );
        let during = chaos.serve(&queries);
        assert_eq!(during.report.failed, 0, "{label}: no more panics");
        assert_eq!(
            during.report.degraded,
            queries.len(),
            "{label}: every query degrades around the quarantined shard"
        );

        // Heal, publish once more: byte-identical to the never-faulted
        // control engine over the same batch stream.
        assert_eq!(chaos.heal(), 1, "{label}");
        chaos.apply(&churn(1));
        control.apply(&churn(1));
        let healed = chaos.serve(&queries);
        let clean = control.serve(&queries);
        assert_eq!(healed.report.degraded, 0, "{label}: fully healed");
        assert_eq!(healed.report.failed, 0, "{label}");
        assert_eq!(
            healed.results, clean.results,
            "{label}: healed serving matches the control engine"
        );
        assert_eq!(healed.report.epoch, clean.report.epoch, "{label}");
    }
}
