//! The untraced run: the end-to-end metrics, and the timing of every phase.
//! Every timing is the fastest of K executions of an identical unit of work,
//! the executions spread evenly over the run by the round structure; every
//! other metric is a count. The timings are per-layer metrics (the README
//! says why); this run measures them all the same, with more executions
//! than the traced run can afford, and puts them into its report. The
//! phases and the timing statistics defined here are the traced run's too.

use crate::host::{self, Reference};
use crate::stats::{median, percentile, sorted, Fastest, Fnv};
use crate::workload::{
    batch_hash, result_hash, Bench, Engine, Obj, Tally, Writer, BATCH, CHURN_BLOCK,
};
use pivot_metric_repro as pmr;
use pmr::{EngineScratch, Metric, Query};
use std::time::Instant;

pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// Executions the statistic was folded from.
    pub samples: u64,
}

pub struct Outcome {
    /// Every metric the run measured; `main` reports the registered ones.
    pub metrics: Vec<Measured>,
    pub tally: Tally,
    /// FNV-1a over every reference-pass answer; the same for every run of
    /// a seed, on any commit that answers correctly.
    pub result_checksum: u64,
    pub reference: Reference,
}

/// The untimed pass over the `reads` engine: warms it, takes the exact
/// counts and records the checksum every later batch must repeat.
pub struct ReferencePass {
    /// One per `serve` call, the timed pool's batches first.
    pub batch_hashes: Vec<u64>,
    pub result_checksum: u64,
    pub compdists_per_query: f64,
    pub report: Vec<pmr::ServeReport>,
}

pub fn reference_pass<M: Metric<Obj> + Clone + 'static>(
    bench: &Bench<M>,
    reads: &Engine,
    tally: &mut Tally,
) -> ReferencePass {
    reads.reset_counters();
    let mut batch_hashes = Vec::new();
    let mut report = Vec::new();
    let mut all = Fnv::default();
    let counted_only = bench.queries[bench.pool..].chunks(BATCH);
    for batch in bench.batches().chain(counted_only) {
        let out = reads.serve(batch);
        tally.queries(&out.results);
        let h = batch_hash(&out.results);
        all.eat_u64(h);
        batch_hashes.push(h);
        report.push(out.report);
    }
    let compdists = reads.counters().compdists;
    ReferencePass {
        batch_hashes,
        result_checksum: all.0,
        compdists_per_query: compdists as f64 / bench.queries.len() as f64,
        report,
    }
}

/// `R-batch`: every batch through `serve` once, each timed on its own.
pub fn batch_pass<M: Metric<Obj> + Clone + 'static>(
    bench: &Bench<M>,
    reads: &Engine,
    reference: &ReferencePass,
    fastest: &mut Fastest,
    tally: &mut Tally,
) {
    for (b, batch) in bench.batches().enumerate() {
        let t = Instant::now();
        let out = reads.serve(batch);
        fastest.fold(b, t.elapsed().as_nanos() as u64);
        tally.queries(&out.results);
        tally.check(
            batch_hash(&out.results) == reference.batch_hashes[b],
            "a served batch changed its checksum",
        );
    }
}

/// `R-single`: every pool query through `execute_with` once on one thread,
/// each timed on its own.
pub fn single_pass<M: Metric<Obj> + Clone + 'static>(
    bench: &Bench<M>,
    reads: &Engine,
    reference: &ReferencePass,
    scratch: &mut EngineScratch,
    fastest: &mut Fastest,
    tally: &mut Tally,
) {
    for (b, batch) in bench.batches().enumerate() {
        let mut h = Fnv::default();
        for (i, q) in batch.iter().enumerate() {
            let t = Instant::now();
            let r = reads.execute_with(q, scratch);
            fastest.fold(b * BATCH + i, t.elapsed().as_nanos() as u64);
            tally.query(&r);
            result_hash(&r, &mut h);
        }
        tally.check(
            h.0 == reference.batch_hashes[b],
            "single-query answers changed their checksum",
        );
    }
}

/// One `W-apply` slice: `commits` closed-loop commits, their walls in seconds.
pub fn apply_slice<M: Metric<Obj> + Clone + 'static>(
    writer: &mut Writer<'_, M>,
    commits: usize,
    tally: &mut Tally,
) -> Vec<(f64, pmr::ApplyReport)> {
    (0..commits)
        .map(|_| {
            let staged = writer.stage();
            writer.commit(&staged, tally)
        })
        .collect()
}

/// What one `W-churn` pass saw: reader query walls and the commit walls
/// that ran beside them, all in seconds.
pub struct ChurnPass {
    pub read_walls: Vec<f64>,
    pub commit_walls: Vec<f64>,
}

impl ChurnPass {
    pub fn mean_read_us(&self) -> f64 {
        self.read_walls.iter().sum::<f64>() / self.read_walls.len() as f64 * 1e6
    }
}

/// `W-churn`: a reader walks `walk` while a writer commits closed-loop.
/// Forking kinds read through an `EngineReader` on a second thread beside
/// `apply` on the first. Kinds that cannot fork have no concurrent reader:
/// their single owner commits, reads a block, and repeats.
pub fn churn_pass<M: Metric<Obj> + Clone + 'static>(
    writer: &mut Writer<'_, M>,
    walk: &[Query<Obj>],
    tally: &mut Tally,
) -> ChurnPass {
    let mut commit_walls = Vec::new();
    let Some(reader) = writer.engine.reader() else {
        let mut read_walls = Vec::with_capacity(walk.len());
        let mut scratch = EngineScratch::new();
        for block in walk.chunks(CHURN_BLOCK) {
            let staged = writer.stage();
            commit_walls.push(writer.commit(&staged, tally).0);
            for q in block {
                let t = Instant::now();
                let r = writer.engine.execute_with(q, &mut scratch);
                read_walls.push(t.elapsed().as_secs_f64());
                tally.query(&r);
            }
        }
        return ChurnPass {
            read_walls,
            commit_walls,
        };
    };
    let answers = std::thread::scope(|s| {
        let handle = s.spawn(|| {
            walk.iter()
                .map(|q| {
                    let t = Instant::now();
                    let r = reader.execute(q);
                    (t.elapsed().as_secs_f64(), r)
                })
                .collect::<Vec<_>>()
        });
        // Finished covers a reader that panicked, too: the join reports it.
        while !handle.is_finished() {
            let staged = writer.stage();
            commit_walls.push(writer.commit(&staged, tally).0);
        }
        handle.join().expect("the churn reader does not panic")
    });
    let mut read_walls = Vec::with_capacity(answers.len());
    for (wall, r) in &answers {
        read_walls.push(*wall);
        tally.query(r);
    }
    ChurnPass {
        read_walls,
        commit_walls,
    }
}

/// The read timings: `serve_qps` from each batch's fastest `serve` wall,
/// the percentiles (nearest rank, per query type) over each pool query's
/// fastest `R-single` wall.
pub fn read_timings<M: Metric<Obj> + Clone + 'static>(
    bench: &Bench<M>,
    batch_fast: &Fastest,
    single_fast: &Fastest,
) -> Vec<Measured> {
    let fastest_us = |range: bool| {
        sorted(
            bench
                .timed()
                .iter()
                .zip(single_fast.nanos())
                .filter(|(q, _)| q.is_range() == range)
                .map(|(_, &n)| n as f64 * 1e-3)
                .collect(),
        )
    };
    let (range_us, knn_us) = (fastest_us(true), fastest_us(false));
    let k = single_fast.min_folds() as u64;
    let (ranges, knns) = (range_us.len() as u64 * k, knn_us.len() as u64 * k);
    vec![
        Measured {
            name: "serve_qps",
            value: bench.pool as f64 / batch_fast.sum_secs(),
            samples: batch_fast.nanos().len() as u64 * batch_fast.min_folds() as u64,
        },
        Measured {
            name: "range_p50_us",
            value: percentile(&range_us, 0.50),
            samples: ranges,
        },
        Measured {
            name: "range_p90_us",
            value: percentile(&range_us, 0.90),
            samples: ranges,
        },
        Measured {
            name: "knn_p50_us",
            value: percentile(&knn_us, 0.50),
            samples: knns,
        },
        Measured {
            name: "knn_p90_us",
            value: percentile(&knn_us, 0.90),
            samples: knns,
        },
    ]
}

/// The write timings. `commit_ms`: the median commit wall of each
/// `W-apply` slice, the fastest slice. `churn_read_us`: the fastest
/// `W-churn` pass, its reader walls summed over its queries.
pub fn write_timings(slices: &[Vec<f64>], passes: &[ChurnPass]) -> Vec<Measured> {
    let fastest = |v: &mut dyn Iterator<Item = f64>| v.fold(f64::INFINITY, f64::min);
    vec![
        Measured {
            name: "commit_ms",
            value: fastest(&mut slices.iter().map(|walls| median(walls))) * 1e3,
            samples: slices.iter().map(|walls| walls.len() as u64).sum(),
        },
        Measured {
            name: "churn_read_us",
            value: fastest(&mut passes.iter().map(ChurnPass::mean_read_us)),
            samples: passes.iter().map(|p| p.read_walls.len() as u64).sum(),
        },
    ]
}

pub fn run<M: Metric<Obj> + Clone + 'static>(bench: &Bench<M>) -> Outcome {
    let spec = bench.spec;
    let mut tally = Tally::default();
    let mut reference = Reference::new(0);

    // Set-up is timed at the start (both engines), whenever the `writes`
    // engine is worn, and once more after the last round.
    let (reads, first) = bench.build();
    let (writes, second) = bench.build();
    let mut setup = vec![first, second];
    let index_bytes_per_obj = reads.storage().total() as f64 / reads.len() as f64;
    let refpass = reference_pass(bench, &reads, &mut tally);
    let mut writer = Writer::new(bench, writes, &mut tally);

    let mut batch_fast = Fastest::new(bench.batches().len());
    let mut single_fast = Fastest::new(bench.pool);
    let mut scratch = EngineScratch::new();
    let walk = &bench.timed()[..spec.churn_walk.min(bench.pool)];
    let (mut slices, mut passes) = (Vec::new(), Vec::new());
    for round in 1..=bench.rounds {
        reference.sample();
        batch_pass(bench, &reads, &refpass, &mut batch_fast, &mut tally);
        single_pass(
            bench,
            &reads,
            &refpass,
            &mut scratch,
            &mut single_fast,
            &mut tally,
        );
        if bench.writes_in(round) {
            if writer.worn() {
                let wall;
                (writer, wall) = writer.rebuilt(&mut tally);
                setup.push(wall);
            }
            let slice = apply_slice(&mut writer, spec.slice_commits, &mut tally);
            slices.push(slice.into_iter().map(|(wall, _)| wall).collect());
            passes.push(churn_pass(&mut writer, walk, &mut tally));
        }
    }
    // Peak RSS is read after the last phase and before what only the
    // benchmark needs: the last build (a third engine beside the two) and
    // the oracle check (a copy of the live set).
    let peak_rss_mb = host::peak_rss_mb();
    setup.push(bench.build().1);
    tally.builds += setup.len() as u64;
    writer.oracle_check(&mut tally);

    let m = |name, value, samples| Measured {
        name,
        value,
        samples,
    };
    let mut metrics = vec![m(
        "setup_s",
        setup.iter().copied().fold(f64::INFINITY, f64::min),
        setup.len() as u64,
    )];
    metrics.extend(read_timings(bench, &batch_fast, &single_fast));
    metrics.extend(write_timings(&slices, &passes));
    metrics.extend([
        m(
            "compdists_per_query",
            refpass.compdists_per_query,
            bench.queries.len() as u64,
        ),
        m("index_bytes_per_obj", index_bytes_per_obj, 1),
        m("peak_rss_mb", peak_rss_mb, 1),
    ]);
    Outcome {
        metrics,
        tally,
        result_checksum: refpass.result_checksum,
        reference,
    }
}
