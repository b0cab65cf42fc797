//! The three workloads and what the traced and the untraced run share:
//! corpus and traffic generation, the engine builder, the write driver with
//! its own record of the live set, result checksums and the oracle check.

use crate::stats::{Fnv, Rng};
use pivot_metric_repro as pmr;
use pmr::{
    ApplyReport, BruteForce, BuildOptions, Completeness, EngineConfig, IndexKind, Metric,
    MetricIndex, ObjId, PartitionPolicy, Query, QueryResult, ShardedEngine, UpdateBatch,
};
use std::collections::VecDeque;
use std::time::Instant;

pub type Obj = Vec<f32>;
pub type Engine = ShardedEngine<Obj>;

/// Queries per `serve` call in the `R-batch` phase.
pub const BATCH: usize = 256;
/// One commit: this many inserts and as many FIFO removes.
pub const COMMIT_INSERTS: usize = 128;
/// `k` of every kNN query.
pub const KNN_K: usize = 10;
/// The single-owner churn loop reads this many queries after each commit.
pub const CHURN_BLOCK: usize = 64;
/// Pool queries checked against the brute-force oracle at the end state.
pub const ORACLE_QUERIES: usize = 64;
/// The corpus seed. Fixed: pivots, partition and radius follow from it, and
/// another corpus moves `compdists_per_query` by 30-90 %.
pub const CORPUS_SEED: u64 = 42;
/// Held-out objects beyond the queries: what the insert stream cycles.
const FRESH: usize = 16_384;
/// The `writes` engine is rebuilt once this share of its objects is gone,
/// so that every write slice meets nearly the index the build made.
const REBUILD_AT_REMOVED: f64 = 0.05;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dataset {
    /// LA, 2-d, L2.
    La,
    /// Color, 282-d, L1.
    Color,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: Dataset,
    pub kind: IndexKind,
    pub n: usize,
    pub selectivity: f64,
    /// Queries the timed passes walk, each on a held-out point of its own.
    pub pool: usize,
    /// Queries of the reference pass, the pool first: the exact counts need
    /// one execution, not K, so they are taken over more queries where a
    /// pool of that size would cost too many seconds per round.
    pub counted: usize,
    /// Rounds of a `RUN_SECONDS` run; fixed, so every run does the same work.
    pub rounds: usize,
    /// Rounds of those that end with a `W-apply` slice and a `W-churn` pass.
    pub write_rounds: usize,
    /// Commits per `W-apply` slice.
    pub slice_commits: usize,
    /// Pool queries the `W-churn` reader walks per pass.
    pub churn_walk: usize,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "la1m-scan",
        why: "LA 2-d/L2, n=1e6, LAESA: a distance costs 4 ns and the 40 MB pivot matrix is 10x L2, so the Lemma-1 filter scan and O(n) commits dominate; scan-kernel and commit-cost work shows here only",
        dataset: Dataset::La,
        kind: IndexKind::Laesa,
        n: 1_000_000,
        selectivity: 1e-4,
        pool: 256,
        counted: 3072,
        rounds: 12,
        write_rounds: 10,
        slice_commits: 3,
        churn_walk: 192,
    },
    Spec {
        name: "color-verify",
        why: "Color 282-d/L1, n=12500, LAESA: a distance costs 330 ns, 1500 are verified per query and the 0.5 MB scan fits L2, so Metric::dist and pruning power dominate; a scan-kernel gain must read no change",
        dataset: Dataset::Color,
        kind: IndexKind::Laesa,
        n: 12_500,
        selectivity: 0.01,
        pool: 512,
        counted: 1024,
        rounds: 30,
        write_rounds: 20,
        slice_commits: 8,
        churn_walk: 128,
    },
    Spec {
        name: "la-mvpt-mixed",
        why: "LA/L2, n=1e5, MVPT shards (cannot fork: exclusive write path): queries take 10-20 us, so plan, snapshot load, scratch, thread spawn and merge are a large share; scan-kernel work bypasses it",
        dataset: Dataset::La,
        kind: IndexKind::Mvpt,
        n: 100_000,
        selectivity: 5e-4,
        pool: 4096,
        counted: 4096,
        rounds: 60,
        write_rounds: 20,
        slice_commits: 8,
        churn_walk: 1024,
    },
];

pub struct Args {
    pub seed: u64,
    pub seconds: u64,
    pub smoke: bool,
}

/// Everything a run is made from. The corpus, radius, pivots and partition
/// are the same for every seed; the seed draws the traffic: which held-out
/// objects are queried, of which type and in which order, and which are
/// inserted.
pub struct Bench<M> {
    pub spec: &'static Spec,
    pub metric: M,
    pub indexed: Vec<Obj>,
    pub radius: f64,
    /// The reference pass's queries; the first `pool` are the timed pool.
    pub queries: Vec<Query<Obj>>,
    pub pool: usize,
    pub fresh: Vec<Obj>,
    pub rounds: usize,
    pub write_rounds: usize,
    /// A `--smoke` run: sizes at which a timing means nothing.
    pub smoke: bool,
    pub opts: BuildOptions,
    pub cfg: EngineConfig,
}

impl<M: Metric<Obj> + Clone + 'static> Bench<M> {
    pub fn new(spec: &'static Spec, metric: M, args: &Args) -> Self {
        // `--smoke`: n/50 and a quarter of the queries, for tests.
        let (n, pool, counted, fresh) = if args.smoke {
            (spec.n / 50, spec.pool / 4, spec.counted / 4, FRESH / 16)
        } else {
            (spec.n, spec.pool, spec.counted, FRESH)
        };
        let (mut corpus, d_plus) = match spec.dataset {
            Dataset::La => (
                pmr::datasets::la(n + counted + fresh, CORPUS_SEED),
                14_143.0,
            ),
            Dataset::Color => (
                pmr::datasets::color(n + counted + fresh, CORPUS_SEED),
                282.0 * 510.0,
            ),
        };
        let mut held_out = corpus.split_off(n);
        let radius =
            pmr::datasets::calibrate_radius(&corpus, &metric, spec.selectivity, CORPUS_SEED);
        Rng::new(args.seed).shuffle(&mut held_out);
        let fresh = held_out.split_off(counted);
        let queries = held_out
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                if i % 2 == 0 {
                    Query::range(p, radius)
                } else {
                    Query::knn(p, KNN_K)
                }
            })
            .collect();
        // Scaled by the asked-for length only, never by host speed.
        let scaled = |full: usize| {
            (full as u64 * args.seconds).div_ceil(crate::manifest::RUN_SECONDS) as usize
        };
        let (rounds, write_rounds) = if args.smoke {
            (2, 2)
        } else {
            (scaled(spec.rounds).max(2), scaled(spec.write_rounds).max(1))
        };
        Bench {
            spec,
            metric,
            indexed: corpus,
            radius,
            queries,
            pool,
            fresh,
            rounds,
            write_rounds,
            smoke: args.smoke,
            opts: BuildOptions {
                d_plus,
                seed: CORPUS_SEED,
                ..BuildOptions::default()
            },
            cfg: EngineConfig {
                shards: 8,
                threads: 2,
                ..EngineConfig::default()
            },
        }
    }

    /// One set-up: the corpus copy is made before the clock starts.
    pub fn build(&self) -> (Engine, f64) {
        let objects = self.indexed.clone();
        let t = Instant::now();
        let engine = pmr::build_sharded_vector_engine(
            self.spec.kind,
            objects,
            self.metric.clone(),
            &self.opts,
            &self.cfg,
            PartitionPolicy::PivotSpace,
        )
        .expect("the workload's index kind builds over its metric");
        (engine, t.elapsed().as_secs_f64())
    }

    /// The timed pool.
    pub fn timed(&self) -> &[Query<Obj>] {
        &self.queries[..self.pool]
    }

    /// The timed pool in `serve` batches.
    pub fn batches(&self) -> std::slice::Chunks<'_, Query<Obj>> {
        self.timed().chunks(BATCH)
    }

    /// Whether `round` (1-based) is one of the `write_rounds` spread evenly
    /// over the run, the last round always among them.
    pub fn writes_in(&self, round: usize) -> bool {
        let slices = |r: usize| r * self.write_rounds / self.rounds;
        slices(round) != slices(round - 1)
    }
}

/// Operations attempted and failed; the result line carries both.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub queries: u64,
    pub commits: u64,
    pub builds: u64,
}

impl Tally {
    /// Counts one answered query; anything but an exact answer is a failure.
    pub fn query(&mut self, r: &QueryResult) {
        self.attempted += 1;
        self.queries += 1;
        if r.completeness() != Completeness::Exact {
            self.failed += 1;
        }
    }

    pub fn queries(&mut self, rs: &[QueryResult]) {
        rs.iter().for_each(|r| self.query(r));
    }

    /// Counts a check the benchmark makes on answers (checksum, oracle).
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Counts one commit: every op of an aborted or erroring commit failed.
    pub fn commit(&mut self, report: &ApplyReport) {
        let ops = 2 * COMMIT_INSERTS as u64;
        self.attempted += ops;
        self.commits += 1;
        let clean = !report.aborted
            && report.op_errors.is_empty()
            && report.inserts == COMMIT_INSERTS
            && report.removes == COMMIT_INSERTS;
        if !clean {
            self.failed += ops;
            eprintln!("commit failed: {report}");
        }
    }
}

/// FNV-1a over one answer, ids and distance bits.
pub fn result_hash(r: &QueryResult, h: &mut Fnv) {
    match r {
        QueryResult::Range(ids) => {
            h.eat_u64(ids.len() as u64);
            ids.iter().for_each(|&id| h.eat(&id.to_le_bytes()));
        }
        QueryResult::Knn(nbrs) => {
            h.eat_u64(nbrs.len() as u64 | 1 << 63);
            for n in nbrs {
                h.eat(&n.id.to_le_bytes());
                h.eat_u64(n.dist.to_bits());
            }
        }
        // Degraded answers already count as failures; hash a marker.
        _ => h.eat_u64(u64::MAX),
    }
}

pub fn batch_hash(rs: &[QueryResult]) -> u64 {
    let mut h = Fnv::default();
    rs.iter().for_each(|r| result_hash(r, &mut h));
    h.0
}

/// The `writes` engine and the benchmark's own record of what is live in
/// it: `(global id, source)` oldest first, a source below `n` being an
/// indexed object and above it a fresh one.
pub struct Writer<'a, M> {
    bench: &'a Bench<M>,
    pub engine: Engine,
    live: VecDeque<(ObjId, u32)>,
    next_fresh: usize,
    removed: usize,
}

/// A commit built before the clock starts, with the sources of its inserts.
pub struct Staged {
    pub batch: UpdateBatch<Obj>,
    sources: Vec<u32>,
}

impl<'a, M: Metric<Obj> + Clone + 'static> Writer<'a, M> {
    /// Takes a freshly built engine and makes its first commit, which no
    /// slice times: the cold fork path runs 1.5-2x slow.
    pub fn new(bench: &'a Bench<M>, engine: Engine, tally: &mut Tally) -> Self {
        Self::resume(bench, engine, 0, tally)
    }

    fn resume(bench: &'a Bench<M>, engine: Engine, next_fresh: usize, tally: &mut Tally) -> Self {
        let mut writer = Writer {
            bench,
            engine,
            live: (0..bench.indexed.len() as u32).map(|i| (i, i)).collect(),
            next_fresh,
            removed: 0,
        };
        let staged = writer.stage();
        writer.commit(&staged, tally);
        writer
    }

    /// Whether enough objects are gone that the next write round should
    /// start from a rebuilt engine.
    pub fn worn(&self) -> bool {
        self.removed as f64 >= REBUILD_AT_REMOVED * self.bench.indexed.len() as f64
    }

    /// Drops the engine, builds it again (timed, like any set-up) and goes
    /// on with the insert stream where it was. Returns the build's wall.
    pub fn rebuilt(self, tally: &mut Tally) -> (Self, f64) {
        let Writer {
            bench,
            engine,
            next_fresh,
            ..
        } = self;
        drop(engine);
        let (engine, wall) = bench.build();
        (Self::resume(bench, engine, next_fresh, tally), wall)
    }

    /// The next commit: 128 objects of the insert stream and the 128
    /// oldest live objects.
    pub fn stage(&mut self) -> Staged {
        let n = self.bench.indexed.len();
        let mut batch = UpdateBatch::new();
        let mut sources = Vec::with_capacity(COMMIT_INSERTS);
        for i in 0..COMMIT_INSERTS {
            let f = self.next_fresh % self.bench.fresh.len();
            self.next_fresh += 1;
            batch.insert(self.bench.fresh[f].clone());
            sources.push((n + f) as u32);
            batch.remove(self.live[i].0);
        }
        Staged { batch, sources }
    }

    /// Applies a staged commit and returns its wall; the record is brought
    /// up to date after the clock stops.
    pub fn commit(&mut self, staged: &Staged, tally: &mut Tally) -> (f64, ApplyReport) {
        let t = Instant::now();
        let report = self.engine.apply(&staged.batch);
        let wall = t.elapsed().as_secs_f64();
        tally.commit(&report);
        if !report.aborted {
            self.removed += report.removes;
            self.live.drain(..report.removes.min(COMMIT_INSERTS));
            self.live.extend(
                report
                    .inserted_ids
                    .iter()
                    .copied()
                    .zip(staged.sources.iter().copied()),
            );
        }
        (wall, report)
    }

    fn object(&self, source: u32) -> &Obj {
        let n = self.bench.indexed.len();
        match (source as usize).checked_sub(n) {
            None => &self.bench.indexed[source as usize],
            Some(f) => &self.bench.fresh[f],
        }
    }

    /// The first pool queries against `BruteForce` over the record: range
    /// answers id for id, kNN answers distance for distance.
    pub fn oracle_check(&self, tally: &mut Tally) {
        let objects: Vec<Obj> = self
            .live
            .iter()
            .map(|&(_, s)| self.object(s).clone())
            .collect();
        let oracle = BruteForce::new(objects, self.bench.metric.clone());
        tally.check(
            self.engine.len() == self.live.len(),
            "engine and record disagree on the live count",
        );
        for q in self.bench.timed().iter().take(ORACLE_QUERIES) {
            let got = self.engine.execute(q);
            tally.query(&got);
            let ok = match (q, &got) {
                (Query::Range { q, radius }, QueryResult::Range(ids)) => {
                    let mut want: Vec<ObjId> = oracle
                        .range_query(q, *radius)
                        .into_iter()
                        .map(|local| self.live[local as usize].0)
                        .collect();
                    want.sort_unstable();
                    *ids == want
                }
                (Query::Knn { q, k }, QueryResult::Knn(nbrs)) => {
                    let want = oracle.knn_query(q, *k);
                    nbrs.len() == want.len()
                        && nbrs.iter().zip(&want).all(|(a, b)| a.dist == b.dist)
                }
                _ => false,
            };
            tally.check(ok, "an answer differs from the brute-force oracle");
        }
    }
}
