//! The traced run: the per-layer metrics. Spans are recorded here, around
//! calls into each layer's public functions; nothing inside the engine is
//! instrumented. A traced query is a root span around the real
//! `execute_with` plus the same query answered by hand — the router plans,
//! the shards probe, the merge sorts — as its children, and the hand-made
//! answer must equal the engine's. End-to-end metrics never come from here.

use crate::host::{self, Reference};
use crate::run::{
    apply_slice, batch_pass, churn_pass, read_timings, reference_pass, single_pass, write_timings,
    Measured, Outcome, ReferencePass,
};
use crate::stats::{median, percentile, sorted, Fastest};
use crate::workload::{Bench, Engine, Obj, Tally, Writer, BATCH, CORPUS_SEED};
use pivot_metric_repro as pmr;
use pmr::engine::TopK;
use pmr::obs::JsonObj;
use pmr::{
    AdmissionPolicy, CountingMetric, EngineScratch, Metric, PivotMatrix, PumpOutcome, Query,
    QueryResult, QueryScratch, ScanKernel, SubmitQueue, TraceEvent, TracePolicy,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Rounds of a `RUN_SECONDS` traced run (scaled by `--seconds`).
const ROUNDS: u64 = 8;
/// `W-apply` slices and `W-churn` passes of a traced run.
const WRITE_ROUNDS: usize = 10;
/// Commits the paced writer makes.
const PACED_COMMITS: usize = 12;

pub type SpanId = usize;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one request share it.
    pub request: u64,
}

/// Spans kept in memory, written out once at the end of the run.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Registers a span without starting it, so a child can name a parent
    /// that runs after it (replica-first order).
    pub fn push(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside span `id`.
    pub fn time<T>(&mut self, id: SpanId, f: impl FnOnce() -> T) -> T {
        self.spans[id].start_ns = self.now();
        let out = f();
        self.spans[id].end_ns = self.now();
        out
    }

    /// Registers a span and runs `f` inside it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let id = self.push(name, parent, request);
        (id, self.time(id, f))
    }

    pub fn nanos(&self, id: SpanId) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// A span's duration minus its children's. Children are the layers the
    /// parent called; a replica child runs beside its parent, not inside
    /// it, so durations are subtracted, not intervals intersected.
    pub fn self_nanos(&self, id: SpanId) -> u64 {
        let children: u64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(id))
            .map(|c| self.nanos(c))
            .sum();
        self.nanos(id).saturating_sub(children)
    }

    pub fn write(&self, workload: &str) -> std::io::Result<()> {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(dir)?;
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                JsonObj::new()
                    .field_u64("id", id as u64)
                    .field_str("name", s.name)
                    .field_u64("start_ns", s.start_ns)
                    .field_u64("end_ns", s.end_ns)
                    .field_raw("parent", &s.parent.map_or("null".into(), |p| p.to_string()))
                    .field_u64("request", s.request)
                    .finish()
            })
            .collect();
        let doc = format!(
            "{{\"workload\":\"{workload}\",\"spans\":[\n{}\n]}}\n",
            spans.join(",\n")
        );
        std::fs::write(format!("{dir}/{workload}.trace.json"), doc)
    }
}

/// The query layers' scratch for answering by hand.
#[derive(Default)]
struct Replica {
    mapped: Vec<f64>,
    probe: Vec<usize>,
    order: Vec<(usize, f64)>,
    qs: QueryScratch,
    ids: Vec<pmr::ObjId>,
    nbrs: Vec<pmr::Neighbor>,
    topk: TopK,
}

/// Nanoseconds of one hand-answered query by layer.
struct Parts {
    plan: u64,
    probes: u64,
    probe_count: u64,
    merge: u64,
}

impl Replica {
    /// Answers `q` through the layers' public functions, each call under a
    /// child span of `root`, in the engine's order: plan, probe the planned
    /// shards (kNN best-first, seeded with the running threshold), merge.
    fn answer(
        &mut self,
        engine: &Engine,
        q: &Query<Obj>,
        tracer: &mut Tracer,
        root: SpanId,
        request: u64,
    ) -> (QueryResult, Parts) {
        let rt = engine.routing().expect("pivot-space engines route");
        let shards = engine.shards();
        let Replica {
            mapped,
            probe,
            order,
            qs,
            ids,
            nbrs,
            topk,
        } = self;
        let (mut probes, mut probe_count) = (0, 0);
        let (plan, merge, result) = match q {
            Query::Range { q, radius } => {
                let (plan, ()) = tracer.span("router.plan", Some(root), request, || {
                    rt.map_into(q, mapped);
                    rt.range_plan_into(mapped, *radius, probe);
                });
                ids.clear();
                for &s in probe.iter() {
                    let (id, ()) = tracer.span("index.probe", Some(root), request, || {
                        shards[s].range_global_into(q, *radius, qs, ids)
                    });
                    probes += tracer.nanos(id);
                    probe_count += 1;
                }
                let (merge, out) = tracer.span("engine.merge", Some(root), request, || {
                    ids.sort_unstable();
                    ids.clone()
                });
                (plan, merge, QueryResult::Range(out))
            }
            Query::Knn { q, k } => {
                let (plan, ()) = tracer.span("router.plan", Some(root), request, || {
                    topk.reset(*k);
                    rt.map_into(q, mapped);
                    rt.knn_order_into(mapped, order);
                });
                for &(s, lb) in order.iter() {
                    if lb > topk.threshold() {
                        continue;
                    }
                    let (id, ()) = tracer.span("index.probe", Some(root), request, || {
                        let seed = topk.threshold();
                        shards[s].knn_into_with(q, *k, seed, qs, nbrs, topk)
                    });
                    probes += tracer.nanos(id);
                    probe_count += 1;
                }
                let (merge, out) =
                    tracer.span("engine.merge", Some(root), request, || topk.drain_sorted());
                (plan, merge, QueryResult::Knn(out))
            }
        };
        let parts = Parts {
            plan: tracer.nanos(plan),
            probes,
            probe_count,
            merge: tracer.nanos(merge),
        };
        (result, parts)
    }
}

/// Per-query fastest of the root span and of each layer beneath it.
struct QueryLayers {
    root: Fastest,
    plan: Fastest,
    probes: Fastest,
    merge: Fastest,
    probe_count: u64,
}

/// One traced pass over the pool. Real-first and replica-first alternate
/// by query and by round, and only the one that ran first is folded: the
/// second finds the caches warmed by the first, which no untraced query
/// does. The second still has to give the same answer.
#[allow(clippy::too_many_arguments)]
fn traced_pass<M: Metric<Obj> + Clone + 'static>(
    bench: &Bench<M>,
    reads: &Engine,
    round: usize,
    tracer: &mut Tracer,
    replica: &mut Replica,
    scratch: &mut EngineScratch,
    layers: &mut QueryLayers,
    tally: &mut Tally,
) {
    layers.probe_count = 0;
    for (i, q) in bench.timed().iter().enumerate() {
        let request = (round * bench.pool + i) as u64;
        let root = tracer.push("engine.execute", None, request);
        let real_first = (i + round).is_multiple_of(2);
        let mut by_hand = None;
        if !real_first {
            by_hand = Some(replica.answer(reads, q, tracer, root, request));
        }
        let real = tracer.time(root, || reads.execute_with(q, scratch));
        let (hand, parts) =
            by_hand.unwrap_or_else(|| replica.answer(reads, q, tracer, root, request));
        tally.query(&real);
        tally.check(
            hand == real,
            "a hand-answered query differs from the engine's answer",
        );
        if real_first {
            layers.root.fold(i, tracer.nanos(root));
        } else {
            layers.plan.fold(i, parts.plan);
            layers.probes.fold(i, parts.probes);
            layers.merge.fold(i, parts.merge);
        }
        layers.probe_count += parts.probe_count;
    }
}

/// The Lemma-1 filter and the verification it leaves, by hand over the
/// benchmark's own copy of the pivot matrix: per range query and probed
/// shard, `ScanKernel::lower_bounds` over the shard's rows, then
/// `Metric::dist` on the survivors.
struct FilterReplica {
    pivots: Vec<Obj>,
    /// Per shard: global ids and their rows, row-major.
    shards: Vec<(Vec<pmr::ObjId>, Vec<f64>)>,
}

impl FilterReplica {
    fn new(engine: &Engine, matrix: &PivotMatrix, pivots: Vec<Obj>) -> Self {
        let shards = engine
            .shards()
            .iter()
            .map(|s| {
                let gids = s.global_ids().to_vec();
                let rows = gids
                    .iter()
                    .flat_map(|&g| matrix.row(g as usize).iter().copied())
                    .collect();
                (gids, rows)
            })
            .collect();
        FilterReplica { pivots, shards }
    }

    /// Returns `(scan seconds, verify seconds, results)` of one range query.
    fn range<M: Metric<Obj>>(
        &self,
        bench: &Bench<M>,
        engine: &Engine,
        q: &Obj,
        lbs: &mut Vec<f64>,
    ) -> (f64, f64, usize) {
        let rt = engine.routing().expect("pivot-space engines route");
        let qd: Vec<f64> = self
            .pivots
            .iter()
            .map(|p| bench.metric.dist(q, p))
            .collect();
        let mut probe = Vec::new();
        rt.range_plan_into(&qd, bench.radius, &mut probe);
        let (mut scan, mut verify, mut results) = (0.0, 0.0, 0);
        for s in probe {
            let (gids, rows) = &self.shards[s];
            let t = Instant::now();
            ScanKernel::lower_bounds(&qd, rows, gids.len(), lbs);
            let survivors: Vec<u32> = (0..gids.len() as u32)
                .filter(|&i| lbs[i as usize] <= bench.radius)
                .collect();
            scan += t.elapsed().as_secs_f64();
            let t = Instant::now();
            results += survivors
                .iter()
                .filter(|&&i| {
                    bench
                        .metric
                        .dist(q, &bench.indexed[gids[i as usize] as usize])
                        <= bench.radius
                })
                .count();
            verify += t.elapsed().as_secs_f64();
        }
        (scan, verify, results)
    }
}

fn fastest_of<T>(times: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..times)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn mean_nanos(f: &Fastest) -> f64 {
    f.nanos().iter().map(|&n| n as f64).sum::<f64>() / f.nanos().len() as f64
}

/// Exact per-probe accounting from the engine's own query traces. Each
/// query is served as a batch of one: a probe's count is a delta of the
/// shard's shared counter, exact only while no other worker probes.
struct ProbeCounts {
    kernel_rows: u64,
    kernel_probes: u64,
}

fn probe_counts<M: Metric<Obj> + Clone + 'static>(
    bench: &Bench<M>,
    reads: &Engine,
    refpass: &ReferencePass,
    tally: &mut Tally,
) -> ProbeCounts {
    let l = bench.opts.num_pivots as u64;
    let mut counts = ProbeCounts {
        kernel_rows: 0,
        kernel_probes: 0,
    };
    let mut compdists = 0;
    reads.set_trace_policy(TracePolicy::sample(1));
    for q in &bench.queries {
        let out = reads.serve(std::slice::from_ref(q));
        tally.queries(&out.results);
        let Some(trace) = out.report.traces.first() else {
            tally.check(false, "the engine did not trace a sampled query");
            continue;
        };
        compdists += trace.compdists();
        for event in &trace.events {
            if let TraceEvent::Scan {
                dists,
                kernel_rows,
                survivors,
                ..
            } = *event
            {
                if kernel_rows > 0 {
                    counts.kernel_rows += kernel_rows;
                    counts.kernel_probes += 1;
                    // A table probe pays its l query-pivot distances and
                    // one distance per filter survivor.
                    tally.check(
                        !q.is_range() || dists == survivors + l,
                        "survivors + l != the probe's compdists",
                    );
                }
            }
        }
    }
    reads.set_trace_policy(TracePolicy::disabled());
    let served: u64 = refpass.report.iter().map(|r| r.cost.compdists).sum();
    tally.check(
        compdists == served,
        "trace compdists do not sum to the reference pass's",
    );
    counts
}

/// What the paced writer saw, in seconds from each commit's due time.
struct Paced {
    done_after_due: Vec<f64>,
    lag: Vec<f64>,
    retired_max: usize,
    epochs: u64,
}

/// An open-loop writer: commit `j` is due at `j * interval` whatever
/// happened to the ones before, and is timed from when it was due. A
/// reader keeps the engine busy meanwhile (second thread on forking kinds,
/// the owner itself between commits otherwise).
fn paced_writer<M: Metric<Obj> + Clone + 'static>(
    writer: &mut Writer<'_, M>,
    walk: &[Query<Obj>],
    interval: Duration,
    tally: &mut Tally,
) -> Paced {
    let epoch0 = writer.engine.epoch();
    let mut paced = Paced {
        done_after_due: Vec::new(),
        lag: Vec::new(),
        retired_max: 0,
        epochs: 0,
    };
    let reader = writer.engine.reader();
    let done = AtomicBool::new(false);
    let read = std::thread::scope(|s| {
        let handle = reader.as_ref().map(|reader| {
            s.spawn(|| {
                let mut answers = Vec::new();
                // Acquire pairs with the writer's Release store below.
                for q in walk.iter().cycle() {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    answers.push(reader.execute(q));
                }
                answers
            })
        });
        let mut scratch = EngineScratch::new();
        let mut own_reads = walk.iter().cycle();
        let start = Instant::now();
        for j in 0..PACED_COMMITS as u32 {
            let staged = writer.stage();
            let due = start + interval * j;
            while Instant::now() < due {
                if handle.is_some() {
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                } else {
                    let q = own_reads.next().expect("a cycle never ends");
                    tally.query(&writer.engine.execute_with(q, &mut scratch));
                }
            }
            paced.lag.push((Instant::now() - due).as_secs_f64());
            writer.commit(&staged, tally);
            paced
                .done_after_due
                .push((Instant::now() - due).as_secs_f64());
            paced.retired_max = paced.retired_max.max(writer.engine.retired_snapshots());
        }
        done.store(true, Ordering::Release);
        handle.map(|h| h.join().expect("the paced reader does not panic"))
    });
    tally.queries(&read.unwrap_or_default());
    paced.epochs = writer.engine.epoch() - epoch0;
    paced
}

/// `submit` + `pump` of a one-query batch minus a direct `serve` of it,
/// per-query fastest of three, alternating which goes first; microseconds.
fn queue_roundtrip_us(engine: &Engine, queries: &[Query<Obj>], tally: &mut Tally) -> f64 {
    let queue = SubmitQueue::new(AdmissionPolicy::unbounded());
    let (mut queued, mut direct) = (Fastest::new(queries.len()), Fastest::new(queries.len()));
    for round in 0..3 {
        for (i, q) in queries.iter().enumerate() {
            let mut via_queue = || {
                let batch = vec![q.clone()];
                let t = Instant::now();
                queue.submit(batch);
                let pumped = engine.pump(&queue);
                queued.fold(i, t.elapsed().as_nanos() as u64);
                match pumped {
                    PumpOutcome::Served { outcome, .. } => tally.queries(&outcome.results),
                    _ => tally.check(false, "a queued batch was not served"),
                }
            };
            let mut via_serve = || {
                let batch = [q.clone()];
                let t = Instant::now();
                let out = engine.serve(&batch);
                direct.fold(i, t.elapsed().as_nanos() as u64);
                out.results
            };
            if (i + round) % 2 == 0 {
                via_queue();
                via_serve();
            } else {
                via_serve();
                via_queue();
            }
        }
    }
    (queued.sum_secs() - direct.sum_secs()) / queries.len() as f64 * 1e6
}

pub fn run<M: Metric<Obj> + Clone + 'static>(bench: &Bench<M>) -> Outcome {
    let spec = bench.spec;
    let mut tally = Tally::default();
    let mut tracer = Tracer::new();
    let mut reference = Reference::new(64);
    let pool = bench.pool;
    let counted = bench.queries.len();
    let l = bench.opts.num_pivots;

    // Set-up: a span around the real build; the layers it calls are run
    // again by hand as its children, and what is left is the engine's own.
    let (build_span, (reads, _)) = tracer.span("engine.build", None, 0, || bench.build());
    tally.builds += 1;
    let counting = CountingMetric::new(bench.metric.clone());
    let (hfi_span, pivot_ids) = tracer.span("pivots.select_hfi", Some(build_span), 0, || {
        pmr::pivots::select_hfi(&bench.indexed, &counting, l, CORPUS_SEED)
    });
    let hfi_compdists = counting.count();
    let pivots: Vec<Obj> = pivot_ids
        .iter()
        .map(|&i| bench.indexed[i].clone())
        .collect();
    let (matrix_span, matrix) = tracer.span("metric.matrix_compute", Some(build_span), 0, || {
        PivotMatrix::compute(&bench.indexed, &bench.metric, &pivots, bench.cfg.threads)
    });
    let (assign_span, assignment) = tracer.span("router.assign", Some(build_span), 0, || {
        pmr::router::assign_pivot_space(&matrix, bench.cfg.shards, CORPUS_SEED)
    });
    let same_partition = assignment
        .iter()
        .enumerate()
        .all(|(gid, &s)| reads.locate(gid as pmr::ObjId).map(|(shard, _)| shard) == Some(s));
    tally.check(
        same_partition,
        "the hand-made partition differs from the engine's",
    );
    let secs = |id| tracer.nanos(id) as f64 * 1e-9;
    let (hfi_s, matrix_s, assign_s) = (secs(hfi_span), secs(matrix_span), secs(assign_span));
    let build_shards_s = tracer.self_nanos(build_span) as f64 * 1e-9;
    let build_compdists = reads.build_stats().build_compdists;

    // The metric layer on its own.
    let held = &bench.fresh;
    let dist_calls = 1_000_000;
    let dist_ns = fastest_of(3, || {
        (0..dist_calls).fold(0.0, |acc, i| {
            acc + bench
                .metric
                .dist(&held[i % held.len()], &held[(i * 7 + 1) % held.len()])
        })
    }) / dist_calls as f64
        * 1e9;
    let qd: Vec<f64> = pivots
        .iter()
        .map(|p| bench.metric.dist(&held[0], p))
        .collect();
    let mut lbs = Vec::new();
    reference.sample();
    let scan_s = fastest_of(5, || {
        ScanKernel::lower_bounds(&qd, matrix.as_slice(), matrix.rows(), &mut lbs)
    });
    let scan_gbps = (matrix.rows() * l * 8) as f64 / scan_s / 1e9;
    let filter = FilterReplica::new(&reads, &matrix, pivots);
    drop(matrix);

    let refpass = reference_pass(bench, &reads, &mut tally);
    let counts = probe_counts(bench, &reads, &refpass, &mut tally);
    let total = |f: fn(&pmr::ServeReport) -> u64| refpass.report.iter().map(f).sum::<u64>() as f64;
    let (probed, pruned) = (total(|r| r.shards_probed), total(|r| r.shards_pruned));
    let (compdists, results) = (
        total(|r| r.cost.compdists),
        total(|r| r.total_results as u64),
    );

    let batches = bench.batches().len();
    let mut single_fast = Fastest::new(pool);
    let mut batch_fast = Fastest::new(batches);
    let mut batch_traced_fast = Fastest::new(batches);
    let mut layers = QueryLayers {
        root: Fastest::new(pool),
        plan: Fastest::new(pool),
        probes: Fastest::new(pool),
        merge: Fastest::new(pool),
        probe_count: 0,
    };
    let ranges: Vec<&Obj> = bench
        .timed()
        .iter()
        .filter_map(|q| match q {
            Query::Range { q, .. } => Some(q),
            Query::Knn { .. } => None,
        })
        .collect();
    let (mut scan_fast, mut verify_fast) = (Fastest::new(ranges.len()), Fastest::new(ranges.len()));
    let mut scratch = EngineScratch::new();
    let mut replica = Replica::default();
    let rounds = (ROUNDS * bench.rounds as u64)
        .div_ceil(spec.rounds as u64)
        .max(2) as usize;
    for round in 0..rounds {
        reference.sample();
        single_pass(
            bench,
            &reads,
            &refpass,
            &mut scratch,
            &mut single_fast,
            &mut tally,
        );
        traced_pass(
            bench,
            &reads,
            round,
            &mut tracer,
            &mut replica,
            &mut scratch,
            &mut layers,
            &mut tally,
        );
        // Engine tracing on and off alternate which goes first.
        for traced in [round % 2 == 0, round % 2 != 0] {
            if traced {
                reads.set_trace_policy(TracePolicy::sample(1).with_max_captured(BATCH));
                batch_pass(bench, &reads, &refpass, &mut batch_traced_fast, &mut tally);
                reads.set_trace_policy(TracePolicy::disabled());
            } else {
                batch_pass(bench, &reads, &refpass, &mut batch_fast, &mut tally);
            }
        }
        let mut filter_results = 0;
        for (i, q) in ranges.iter().enumerate() {
            let (scan, verify, found) = filter.range(bench, &reads, q, &mut lbs);
            scan_fast.fold(i, (scan * 1e9) as u64);
            verify_fast.fold(i, (verify * 1e9) as u64);
            filter_results += found;
        }
        let range_results: usize = refpass.report[..batches]
            .iter()
            .map(|r| r.total_results)
            .sum::<usize>()
            - (pool - ranges.len()) * crate::workload::KNN_K;
        tally.check(
            filter_results == range_results,
            "the hand-made filter finds other range answers",
        );
    }
    // Allocations of a pass in steady state (the scratch has grown).
    let ((), allocs, _) = host::count_allocs(|| {
        for q in bench.timed() {
            std::hint::black_box(reads.execute_with(q, &mut scratch));
        }
    });
    let allocs_per_query = allocs as f64 / pool as f64;
    let queue_us = queue_roundtrip_us(&reads, &bench.timed()[..pool.min(BATCH)], &mut tally);
    drop(filter);

    // Writes, on the same engine now that the reads are done.
    let mut writer = Writer::new(bench, reads, &mut tally);
    let walk = &bench.timed()[..spec.churn_walk.min(pool)];
    // Reads of the walk with the writer idle, through the API the churn
    // reader uses.
    let alone_us = {
        let reader = writer.engine.reader();
        let mut scratch = EngineScratch::new();
        fastest_of(3, || {
            for q in walk {
                let r = match &reader {
                    Some(reader) => reader.execute(q),
                    None => writer.engine.execute_with(q, &mut scratch),
                };
                std::hint::black_box(r);
            }
        }) / walk.len() as f64
            * 1e6
    };
    let mut commits = Vec::new();
    let mut commit_bytes = 0;
    let (mut slices, mut passes) = (Vec::new(), Vec::new());
    for _ in 0..WRITE_ROUNDS {
        let (slice, _, bytes) =
            host::count_allocs(|| apply_slice(&mut writer, spec.slice_commits, &mut tally));
        commit_bytes += bytes;
        slices.push(slice.iter().map(|(wall, _)| *wall).collect::<Vec<f64>>());
        commits.extend(slice);
        passes.push(churn_pass(&mut writer, walk, &mut tally));
    }
    let commit_walls: Vec<f64> = slices.concat();
    let inserts: usize = commits.iter().map(|(_, r)| r.inserts).sum();
    let map_compdists: u64 = commits.iter().map(|(_, r)| r.map_compdists).sum();
    let reboxed: usize = commits.iter().map(|(_, r)| r.reboxed_shards).sum();
    let reclusters: usize = commits.iter().map(|(_, r)| r.reclusters).sum();
    tally.check(
        map_compdists == (inserts * l) as u64,
        "an insert was mapped with other than l distances",
    );
    let beside_us = passes
        .iter()
        .map(|p| p.mean_read_us())
        .fold(f64::INFINITY, f64::min);
    let churn_commits: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.commit_walls.iter().copied())
        .collect();
    let churn_reads = sorted(
        passes
            .iter()
            .flat_map(|p| p.read_walls.iter().copied())
            .collect(),
    );
    let interval = Duration::from_secs_f64(2.0 * median(&commit_walls));
    let paced = paced_writer(&mut writer, walk, interval, &mut tally);
    writer.oracle_check(&mut tally);

    // Dead rows: a quarter pool through `serve` before and after compaction
    // (which renumbers ids, so the record ends here).
    let mut engine = writer.engine;
    let quarter = &bench.timed()[..(pool / 4).max(1)];
    let quarter_qps = |engine: &Engine| {
        quarter.len() as f64
            / fastest_of(3, || {
                quarter
                    .chunks(BATCH)
                    .map(|b| engine.serve(b).results.len())
                    .sum::<usize>()
            })
    };
    let post_churn_qps = quarter_qps(&engine);
    let t = Instant::now();
    let dropped = engine.compact();
    let compact_s = t.elapsed().as_secs_f64();
    tally.check(dropped > 0, "compaction found no dead row after the writes");
    let post_compact_qps = quarter_qps(&engine);

    if let Err(e) = tracer.write(spec.name) {
        eprintln!("trace not written: {e}");
    }

    let execute_ns = mean_nanos(&layers.root);
    let children_ns =
        mean_nanos(&layers.plan) + mean_nanos(&layers.probes) + mean_nanos(&layers.merge);
    tally.check(
        bench.smoke || children_ns / execute_ns >= 0.90,
        "plan + probes + merge account for under 0.90 of execute_with",
    );
    let k = rounds as u64;
    let per_query = pool as u64 * k;
    let n_commits = commit_walls.len() as u64;
    let m = |name, value, samples| Measured {
        name,
        value,
        samples,
    };
    let mut metrics = vec![
        m(
            "host.ref_ms",
            reference.fastest_ms(),
            reference.samples() as u64,
        ),
        m(
            "host.ref_spread",
            reference.spread(),
            reference.samples() as u64,
        ),
        m(
            "host.stream_gbps",
            reference.stream_gbps(),
            reference.samples() as u64,
        ),
        m("metric.dist_ns", dist_ns, 3 * dist_calls as u64),
        m(
            "metric.scan_rows_per_s",
            bench.indexed.len() as f64 / scan_s,
            5,
        ),
        m("metric.scan_gbps", scan_gbps, 5),
        m(
            "metric.scan_roofline_frac",
            scan_gbps / reference.stream_gbps(),
            5,
        ),
        m(
            "metric.scan_us",
            mean_nanos(&scan_fast) * 1e-3,
            ranges.len() as u64 * k,
        ),
        m(
            "metric.verify_us",
            mean_nanos(&verify_fast) * 1e-3,
            ranges.len() as u64 * k,
        ),
        m("metric.matrix_compute_s", matrix_s, 1),
        m("pivots.hfi_s", hfi_s, 1),
        m("pivots.hfi_compdists", hfi_compdists as f64, 1),
        m("router.assign_s", assign_s, 1),
        m("router.plan_ns", mean_nanos(&layers.plan), per_query),
        m(
            "router.prune_rate",
            pruned / (probed + pruned),
            counted as u64,
        ),
        m(
            "router.shards_probed_per_query",
            probed / counted as f64,
            counted as u64,
        ),
        m("core.build_compdists", build_compdists as f64, 1),
        m(
            "index.probe_us",
            layers.probes.sum_secs() * 1e6 / layers.probe_count as f64,
            layers.probe_count * k,
        ),
        m(
            "index.compdists_per_probe",
            compdists / probed,
            probed as u64,
        ),
        m(
            "index.verified_per_result",
            (compdists - (counts.kernel_probes * l as u64) as f64) / results,
            results as u64,
        ),
        m(
            "index.kernel_rows_per_query",
            counts.kernel_rows as f64 / counted as f64,
            counted as u64,
        ),
        m("engine.build_shards_s", build_shards_s, 1),
        m("engine.execute_us", execute_ns * 1e-3, per_query),
        m("engine.merge_ns", mean_nanos(&layers.merge), per_query),
        m(
            "engine.overhead_us",
            (execute_ns - children_ns) * 1e-3,
            per_query,
        ),
        m(
            "engine.overhead_frac",
            (execute_ns - children_ns) / execute_ns,
            per_query,
        ),
        m("engine.closure_frac", children_ns / execute_ns, per_query),
        m(
            "engine.batch_wall_ms",
            batch_fast.sum_secs() / batches as f64 * 1e3,
            batches as u64 * k,
        ),
        m(
            "engine.batch_parallel_eff",
            single_fast.sum_secs() / (bench.cfg.threads as f64 * batch_fast.sum_secs()),
            batches as u64 * k,
        ),
        m("engine.allocs_per_query", allocs_per_query, pool as u64),
        m(
            "engine.commit_alloc_kb",
            commit_bytes as f64 / n_commits as f64 / 1024.0,
            n_commits,
        ),
        m(
            "engine.apply_us_per_op",
            median(&commit_walls) * 1e6 / (2 * crate::workload::COMMIT_INSERTS) as f64,
            n_commits,
        ),
        m(
            "engine.commit_p99_ms",
            percentile(&sorted(commit_walls.clone()), 0.99) * 1e3,
            n_commits,
        ),
        m(
            "engine.apply_map_compdists_per_insert",
            map_compdists as f64 / inserts as f64,
            inserts as u64,
        ),
        m(
            "engine.reboxed_per_commit",
            reboxed as f64 / n_commits as f64,
            n_commits,
        ),
        m("engine.reclusters", reclusters as f64, n_commits),
        m(
            "engine.churn_read_frac",
            alone_us / beside_us,
            churn_reads.len() as u64,
        ),
        m(
            "engine.churn_commit_ms",
            median(&churn_commits) * 1e3,
            churn_commits.len() as u64,
        ),
        m(
            "engine.churn_p99_us",
            percentile(&churn_reads, 0.99) * 1e6,
            churn_reads.len() as u64,
        ),
        m(
            "engine.paced_commit_p99_ms",
            percentile(&sorted(paced.done_after_due), 0.99) * 1e3,
            PACED_COMMITS as u64,
        ),
        m(
            "engine.writer_lag_ms_p99",
            percentile(&sorted(paced.lag), 0.99) * 1e3,
            PACED_COMMITS as u64,
        ),
        m(
            "engine.retired_snapshots_max",
            paced.retired_max as f64,
            PACED_COMMITS as u64,
        ),
        m(
            "engine.epochs_published",
            paced.epochs as f64,
            PACED_COMMITS as u64,
        ),
        m("engine.post_churn_qps", post_churn_qps, 3),
        m("engine.compact_s", compact_s, 1),
        m("engine.post_compact_qps", post_compact_qps, 3),
        m(
            "engine.queue_roundtrip_us",
            queue_us,
            3 * pool.min(BATCH) as u64,
        ),
        m(
            "obs.bench_trace_overhead_frac",
            layers.root.sum_secs() / single_fast.sum_secs() - 1.0,
            per_query,
        ),
        m(
            "obs.engine_trace_overhead_frac",
            batch_traced_fast.sum_secs() / batch_fast.sum_secs() - 1.0,
            batches as u64 * k,
        ),
    ];
    // The phase timings, by the rule of the untraced run from this run's
    // fewer executions.
    metrics.extend(read_timings(bench, &batch_fast, &single_fast));
    metrics.extend(write_timings(&slices, &passes));
    Outcome {
        metrics,
        tally,
        result_checksum: refpass.result_checksum,
        reference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new();
        let root = t.push("root", None, 7);
        let a = t.push("a", Some(root), 7);
        let b = t.push("b", Some(root), 7);
        let grandchild = t.push("c", Some(a), 7);
        let other = t.push("other", None, 8);
        for (id, start, end) in [
            (root, 0, 100),
            (a, 10, 40),
            (b, 50, 70),
            (grandchild, 15, 20),
            (other, 0, 1000),
        ] {
            t.spans[id].start_ns = start;
            t.spans[id].end_ns = end;
        }
        assert_eq!(t.self_nanos(root), 50, "only direct children count");
        assert_eq!(t.self_nanos(a), 25);
        assert_eq!(t.self_nanos(b), 20, "a leaf's self time is its duration");
        // A replica child may outlast its parent; self time never goes negative.
        t.spans[b].end_ns = 500;
        assert_eq!(t.self_nanos(root), 0);
    }
}
