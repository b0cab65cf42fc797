//! Cost-accounting invariants: the paper's three metrics must be observable
//! and behave as §6 describes (in-memory indexes have zero PA, disk indexes
//! pay PA on queries, the kNN cache absorbs repeat reads, counters reset) —
//! and the blocked scan kernel must change **no** exact counter: it only
//! reorders lower-bound arithmetic, never distance evaluations. The tables
//! store their pivot distances as u16 buckets, so the by-hand filter oracles
//! here count survivors with the bucketed bound.

use pivot_metric_repro as pmr;
use pmr::builder::{build_index, build_index_with_matrix, BuildOptions, IndexKind};
use pmr::{datasets, Ept, EptConfig, EptMode, Metric, MetricIndex, PivotColumns, PivotMatrix, L2};
use std::cell::Cell;

/// A table's stored rows by hand: the step — the smallest power of two
/// under which the largest distance of `matrix` is within 65 535 steps —
/// and every distance floored to a whole number of steps.
fn stored(matrix: &PivotMatrix) -> (Vec<Vec<f64>>, f64) {
    let max = matrix.as_slice().iter().fold(0.0f64, |m, &x| m.max(x));
    let mut step = 1.0;
    while 65_535.0 * step < max {
        step *= 2.0;
    }
    while 65_535.0 * (step / 2.0) >= max {
        step /= 2.0;
    }
    let rows = (0..matrix.rows())
        .map(|i| {
            matrix
                .row(i)
                .iter()
                .map(|&x| (x / step).floor() * step)
                .collect()
        })
        .collect();
    (rows, step)
}

/// The bucketed Lemma 1 bound by hand: with the query floored to whole
/// steps like the stored `row`, `max_j |⌊qd_j⌋ − y_j|` less the one step two
/// buckets can overlap by, clamped at 0 — never above the f64
/// `pivot_lower_bound` over the exact row.
fn stored_lower_bound(qd: &[f64], row: &[f64], step: f64) -> f64 {
    let top = 65_535.0 * step;
    let m = qd.iter().zip(row).fold(0.0f64, |m, (&q, &y)| {
        m.max((((q / step).floor() * step).min(top) - y).abs())
    });
    (m - step).max(0.0)
}

fn build(kind: IndexKind, n: usize) -> (Vec<Vec<f32>>, Box<dyn MetricIndex<Vec<f32>>>) {
    let pts = datasets::la(n, 31);
    let opts = BuildOptions {
        d_plus: 14143.0,
        maxnum: 48,
        ..BuildOptions::default()
    };
    let pivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(&pts, &L2, 5, 31)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect();
    let idx = build_index(kind, pts.clone(), L2, pivots, &opts).unwrap();
    (pts, idx)
}

#[test]
fn in_memory_indexes_have_zero_pa() {
    for kind in [
        IndexKind::Laesa,
        IndexKind::Ept,
        IndexKind::EptStar,
        IndexKind::Vpt,
        IndexKind::Mvpt,
    ] {
        let (pts, idx) = build(kind, 300);
        idx.reset_counters();
        let _ = idx.range_query(&pts[0], 1000.0);
        let _ = idx.knn_query(&pts[0], 10);
        let c = idx.counters();
        assert_eq!(c.page_accesses(), 0, "{}", kind.label());
        assert!(c.compdists > 0, "{}", kind.label());
    }
}

#[test]
fn disk_indexes_pay_pa_on_queries() {
    for kind in [
        IndexKind::Cpt,
        IndexKind::PmTree,
        IndexKind::OmniSeq,
        IndexKind::OmniR,
        IndexKind::MIndexStar,
        IndexKind::Spb,
    ] {
        let (pts, idx) = build(kind, 300);
        idx.reset_counters();
        let _ = idx.range_query(&pts[0], 1500.0);
        let c = idx.counters();
        assert!(c.page_reads > 0, "{} should read pages", kind.label());
    }
}

#[test]
fn reset_counters_resets() {
    let (pts, idx) = build(IndexKind::OmniR, 300);
    let _ = idx.range_query(&pts[0], 500.0);
    assert!(idx.counters().compdists > 0);
    idx.reset_counters();
    let c = idx.counters();
    assert_eq!(c.compdists, 0);
    assert_eq!(c.page_accesses(), 0);
}

#[test]
fn knn_cache_reduces_page_reads_across_queries() {
    let (pts, idx) = build(IndexKind::Spb, 800);
    // Cold: no cache.
    idx.reset_counters();
    for qi in [1usize, 2, 3] {
        let _ = idx.knn_query(&pts[qi], 20);
    }
    let cold = idx.counters().page_reads;
    // Warm: the paper's 128 KB LRU cache.
    idx.set_page_cache(pmr::storage::KNN_CACHE_BYTES);
    idx.reset_counters();
    for qi in [1usize, 2, 3] {
        let _ = idx.knn_query(&pts[qi], 20);
    }
    let warm = idx.counters().page_reads;
    assert!(warm < cold, "cache should help: warm {warm} vs cold {cold}");
}

#[test]
fn compdists_scale_with_radius() {
    // Fig. 16's basic trend: larger r => more distance computations.
    let (pts, idx) = build(IndexKind::Mvpt, 600);
    let mut prev = 0;
    for r in [100.0, 1000.0, 4000.0, 12000.0] {
        idx.reset_counters();
        let _ = idx.range_query(&pts[42], r);
        let cd = idx.counters().compdists;
        assert!(cd >= prev, "r={r}: {cd} < {prev}");
        prev = cd;
    }
}

/// Scalar reference for a Lemma 1 pivot-table scan: given every live
/// slot's (lower bound, exact distance) pair, replay the exact filter the
/// index runs — range keeps `lb <= r`, kNN verifies nearest bound first
/// (below) — and return how many exact distance evaluations it performs.
fn scalar_range_verifications(rows: &[(f64, f64)], r: f64) -> u64 {
    rows.iter().filter(|&&(lb, _)| lb <= r).count() as u64
}

/// The k best `(distance, slot)` pairs so far, kept sorted: the replays'
/// stand-in for the index's bounded heap.
struct Best {
    k: usize,
    held: Vec<(f64, usize)>,
}

impl Best {
    fn kth(&self) -> f64 {
        if self.held.len() < self.k {
            f64::INFINITY
        } else {
            self.held[self.k - 1].0
        }
    }

    fn offer(&mut self, d: f64, slot: usize) {
        self.held.push((d, slot));
        self.held
            .sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.held.truncate(self.k);
    }
}

/// Scalar replay of the tables' kNN verification order: the `4 · k`
/// smallest `(bound, slot)` pairs ascending, ending the query at the first
/// bound above the running k-th distance; only a full probe that runs dry
/// goes on over the remaining slots in slot order.
fn scalar_knn_verifications(rows: &[(f64, f64)], k: usize) -> u64 {
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| rows[a].0.total_cmp(&rows[b].0).then(a.cmp(&b)));
    let width = 4 * k;
    let probe = &order[..width.min(order.len())];
    let mut best = Best {
        k,
        held: Vec::new(),
    };
    let mut verified = 0u64;
    for &slot in probe {
        if rows[slot].0 > best.kth() {
            return verified;
        }
        verified += 1;
        best.offer(rows[slot].1, slot);
    }
    if probe.len() < width {
        return verified;
    }
    let mut probed = vec![false; rows.len()];
    probe.iter().for_each(|&slot| probed[slot] = true);
    for (slot, &(lb, d)) in rows.iter().enumerate() {
        if !probed[slot] && lb <= best.kth() {
            verified += 1;
            best.offer(d, slot);
        }
    }
    verified
}

/// The order the tables verified in before: every slot in slot order under
/// the running k-th distance. Kept as the yardstick the new order must beat.
fn slot_order_knn_verifications(rows: &[(f64, f64)], k: usize) -> u64 {
    let mut best = Best {
        k,
        held: Vec::new(),
    };
    let mut verified = 0u64;
    for (slot, &(lb, d)) in rows.iter().enumerate() {
        if lb <= best.kth() {
            verified += 1;
            best.offer(d, slot);
        }
    }
    verified
}

/// What no order can go below: every slot whose bound is within the true
/// k-th distance has to be verified.
fn knn_verification_floor(rows: &[(f64, f64)], k: usize) -> u64 {
    let mut ds: Vec<f64> = rows.iter().map(|&(_, d)| d).collect();
    ds.sort_by(f64::total_cmp);
    let dk = ds[k.min(ds.len()) - 1];
    rows.iter().filter(|&&(lb, _)| lb <= dk).count() as u64
}

/// The blocked-kernel satellite: for every pivot-table kind the kernel now
/// drives (LAESA, CPT, EPT, adopted FQA), measured compdists for range and
/// kNN queries must equal the scalar-path prediction exactly — `|pivots|`
/// query-mapping distances plus the verifications the scalar Lemma 1 filter
/// (per-row bucketed bound, no blocking) would perform. Bit-for-bit
/// kernel-vs-scalar equality is unit-tested in `pmi_metric::matrix`; this
/// test closes the loop end to end through real indexes and real counters.
/// A kNN query also never verifies fewer than the slots whose bound is
/// within the true k-th distance, and over the LA sample the nearest-bound
/// order verifies fewer than the slot order it replaced.
#[test]
fn blocked_kernel_changes_no_exact_counters() {
    let n = 500usize;
    let pts = datasets::la(n, 31);
    let l = 5usize;
    let pivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(&pts, &L2, l, 31)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect();
    let queries = [0usize, 123, 499];
    let radii = [200.0f64, 1500.0, 9000.0];
    let ks = [1usize, 10, 40];

    // The scalar oracle's view of the shared-pivot tables' rows.
    let (srows, step) = stored(&PivotMatrix::compute(&pts, &L2, &pivots, 1));
    let table_rows = |q: &Vec<f32>| -> (Vec<f64>, Vec<(f64, f64)>) {
        let qd: Vec<f64> = pivots.iter().map(|p| L2.dist(q, p)).collect();
        let rows = (0..n)
            .map(|i| {
                (
                    stored_lower_bound(&qd, &srows[i], step),
                    L2.dist(q, &pts[i]),
                )
            })
            .collect();
        (qd, rows)
    };

    // LAESA and CPT share the scan shape (CPT additionally pays page
    // reads, which the kernel does not touch either way).
    let (la_verified, la_slot_order) = (Cell::new(0u64), Cell::new(0u64));
    let check = |idx: &dyn MetricIndex<Vec<f32>>, label: &str| {
        for &qi in &queries {
            let (qd, rows) = table_rows(&pts[qi]);
            for &r in &radii {
                idx.reset_counters();
                let _ = idx.range_query(&pts[qi], r);
                assert_eq!(
                    idx.counters().compdists,
                    qd.len() as u64 + scalar_range_verifications(&rows, r),
                    "{label} range q={qi} r={r}"
                );
            }
            for &k in &ks {
                idx.reset_counters();
                let _ = idx.knn_query(&pts[qi], k);
                assert_eq!(
                    idx.counters().compdists,
                    qd.len() as u64 + scalar_knn_verifications(&rows, k),
                    "{label} knn q={qi} k={k}"
                );
                let verified = idx.counters().compdists - qd.len() as u64;
                assert!(
                    knn_verification_floor(&rows, k) <= verified,
                    "{label} knn q={qi} k={k}: below the floor"
                );
                la_verified.set(la_verified.get() + verified);
                la_slot_order.set(la_slot_order.get() + slot_order_knn_verifications(&rows, k));
            }
        }
    };
    let opts = BuildOptions {
        d_plus: 14143.0,
        ..BuildOptions::default()
    };
    let laesa = build_index(IndexKind::Laesa, pts.clone(), L2, pivots.clone(), &opts).unwrap();
    check(laesa.as_ref(), "LAESA");
    let cpt = build_index(IndexKind::Cpt, pts.clone(), L2, pivots.clone(), &opts).unwrap();
    check(cpt.as_ref(), "CPT");
    assert!(
        la_verified.get() < la_slot_order.get(),
        "nearest bound first verified {}, slot order {}",
        la_verified.get(),
        la_slot_order.get()
    );

    // EPT: per-object extreme pivots over its own pool; the scalar oracle
    // decodes each stored row (pivot id, bucket edge) and bounds it with the
    // bucketed rule against the query's distance to that entry's pivot.
    let ept = Ept::build(pts.clone(), L2, EptMode::Random, EptConfig::default());
    for &qi in &queries {
        let qd: Vec<f64> = ept
            .pivot_objects()
            .iter()
            .map(|p| L2.dist(&pts[qi], p))
            .collect();
        let rows: Vec<(f64, f64)> = (0..n as u32)
            .map(|id| {
                let (pqd, ys): (Vec<f64>, Vec<f64>) =
                    ept.row(id).map(|(p, y)| (qd[usize::from(p)], y)).unzip();
                (
                    stored_lower_bound(&pqd, &ys, ept.step()),
                    L2.dist(&pts[qi], &pts[id as usize]),
                )
            })
            .collect();
        for &r in &radii {
            ept.reset_counters();
            let _ = ept.range_query(&pts[qi], r);
            assert_eq!(
                ept.counters().compdists,
                qd.len() as u64 + scalar_range_verifications(&rows, r),
                "EPT range q={qi} r={r}"
            );
        }
        for &k in &ks {
            ept.reset_counters();
            let _ = ept.knn_query(&pts[qi], k);
            assert_eq!(
                ept.counters().compdists,
                qd.len() as u64 + scalar_knn_verifications(&rows, k),
                "EPT knn q={qi} k={k}"
            );
            assert!(
                qd.len() as u64 + knn_verification_floor(&rows, k) <= ept.counters().compdists,
                "EPT knn q={qi} k={k}: below the floor"
            );
        }
    }

    // The engine's FQA is the same table over its adopted rows (discrete
    // metric; the slot-aligned slice is the oracle's matrix).
    let m = pmr::LInf::discrete();
    let dpts = datasets::synthetic(n, 17);
    let dpivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(&dpts, &m, l, 17)
        .into_iter()
        .map(|i| dpts[i].clone())
        .collect();
    let dmatrix = PivotMatrix::compute(&dpts, &m, &dpivots, 1);
    let (drows, dstep) = stored(&dmatrix);
    let dopts = BuildOptions {
        d_plus: 10000.0,
        buckets: 32,
        ..BuildOptions::default()
    };
    let fqa = build_index_with_matrix(
        IndexKind::Fqa,
        dpts.clone(),
        m,
        dpivots.clone(),
        &dopts,
        PivotColumns::from(&dmatrix),
    )
    .unwrap();
    for &qi in &queries {
        let qd: Vec<f64> = dpivots.iter().map(|p| m.dist(&dpts[qi], p)).collect();
        let rows: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                (
                    stored_lower_bound(&qd, &drows[i], dstep),
                    m.dist(&dpts[qi], &dpts[i]),
                )
            })
            .collect();
        for &r in &[500.0f64, 1800.0] {
            fqa.reset_counters();
            let _ = fqa.range_query(&dpts[qi], r);
            assert_eq!(
                fqa.counters().compdists,
                qd.len() as u64 + scalar_range_verifications(&rows, r),
                "FQA range q={qi} r={r}"
            );
        }
        for &k in &ks {
            fqa.reset_counters();
            let _ = fqa.knn_query(&dpts[qi], k);
            assert_eq!(
                fqa.counters().compdists,
                qd.len() as u64 + scalar_knn_verifications(&rows, k),
                "FQA knn q={qi} k={k}"
            );
            assert!(
                qd.len() as u64 + knn_verification_floor(&rows, k) <= fqa.counters().compdists,
                "FQA knn q={qi} k={k}: below the floor"
            );
        }
    }
}

/// Nearest-bound-first verification meets candidates in bound order, not id
/// order, so the tie rule has to be the push's, not the scan's: over a
/// corpus that holds every object twice — every distance tied, ids `i` and
/// `n + i` — each table's kNN is `BruteForce`'s id for id.
#[test]
fn duplicated_corpus_knn_ties_go_to_the_smaller_id() {
    let twice = |pts: Vec<Vec<f32>>| [pts.clone(), pts].concat();
    let same_as_oracle = |idx: &dyn MetricIndex<Vec<f32>>,
                          oracle: &dyn MetricIndex<Vec<f32>>,
                          pts: &[Vec<f32>],
                          label: &str| {
        for q in pts.iter().step_by(37) {
            for k in [1usize, 3, 10, 41] {
                assert_eq!(idx.knn_query(q, k), oracle.knn_query(q, k), "{label} k={k}");
            }
        }
    };
    let opts = BuildOptions {
        d_plus: 14143.0,
        ..BuildOptions::default()
    };
    let pts = twice(datasets::la(300, 31));
    let pivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(&pts, &L2, 5, 31)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect();
    let oracle = pmr::BruteForce::new(pts.clone(), L2);
    for kind in [IndexKind::Laesa, IndexKind::Cpt, IndexKind::Ept] {
        let idx = build_index(kind, pts.clone(), L2, pivots.clone(), &opts).unwrap();
        same_as_oracle(idx.as_ref(), &oracle, &pts, kind.label());
    }

    let m = pmr::LInf::discrete();
    let dpts = twice(datasets::synthetic(300, 17));
    let dpivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(&dpts, &m, 5, 17)
        .into_iter()
        .map(|i| dpts[i].clone())
        .collect();
    let rows = PivotColumns::from(&PivotMatrix::compute(&dpts, &m, &dpivots, 1));
    let dopts = BuildOptions {
        d_plus: 10000.0,
        buckets: 32,
        ..BuildOptions::default()
    };
    let fqa =
        build_index_with_matrix(IndexKind::Fqa, dpts.clone(), m, dpivots, &dopts, rows).unwrap();
    let oracle = pmr::BruteForce::new(dpts.clone(), m);
    same_as_oracle(fqa.as_ref(), &oracle, &dpts, "FQA");
}

/// Measurement changes *what is recorded*, never *what is computed*. A
/// `serve` batch — per-query walls, 1-in-8 sampled phase clocks, the
/// registry fold — must answer and count exactly as the same queries run
/// one by one through `execute`, whose fresh scratch never samples a
/// clock: byte-identical answers and identical exact counters
/// (compdists, page accesses, probe/prune counts, per-shard breakdowns)
/// across every instrumented engine kind — tables driven by the scan
/// kernel (LAESA, CPT, EPT) and a tree (MVPT). This pins the sampling
/// clocks and phase recording strictly outside the query math.
#[test]
fn instrumented_serve_matches_untimed_execute() {
    let pts = datasets::la(600, 23);
    let opts = BuildOptions {
        d_plus: 14143.0,
        ..BuildOptions::default()
    };
    let radius = datasets::calibrate_radius(&pts, &L2, 0.02, 5);
    for kind in [
        IndexKind::Laesa,
        IndexKind::Cpt,
        IndexKind::Ept,
        IndexKind::Mvpt,
    ] {
        let engine = pmr::build_sharded_vector_engine(
            kind,
            pts.clone(),
            L2,
            &opts,
            &pmr::EngineConfig {
                shards: 4,
                threads: 2,
                ..pmr::EngineConfig::default()
            },
            pmr::PartitionPolicy::PivotSpace,
        )
        .unwrap();
        let batch: Vec<pmr::Query<Vec<f32>>> = (0..48)
            .map(|i| {
                if i % 2 == 0 {
                    pmr::Query::range(pts[i * 11].clone(), radius)
                } else {
                    pmr::Query::knn(pts[i * 7].clone(), 10)
                }
            })
            .collect();
        let label = kind.label();

        engine.reset_counters();
        let served = engine.serve(&batch);
        let serve_cost = engine.counters();
        let serve_shards = engine.shard_counters();
        assert_eq!(
            engine.probe_counts(),
            (served.report.shards_probed, served.report.shards_pruned),
            "{label}: the report's probe counts are the engine's"
        );

        engine.reset_counters();
        let executed: Vec<pmr::QueryResult> = batch.iter().map(|q| engine.execute(q)).collect();
        let exec_cost = engine.counters();
        let exec_shards = engine.shard_counters();

        assert_eq!(served.results, executed, "{label}: answers must match");
        assert_eq!(served.report.cost, serve_cost, "{label}: report cost");
        assert_eq!(serve_cost, exec_cost, "{label}: exact cost");
        assert_eq!(
            (served.report.shards_probed, served.report.shards_pruned),
            engine.probe_counts(),
            "{label}: probe counts"
        );
        assert_eq!(serve_shards, exec_shards, "{label}: per-shard counters");

        // The per-shard breakdown: exact columns equal the untimed run's
        // per-shard counters and sum to the totals.
        assert_eq!(served.report.per_shard.len(), 4, "{label}");
        for (s, (row, c)) in served.report.per_shard.iter().zip(&exec_shards).enumerate() {
            assert_eq!(
                (row.shard, row.compdists, row.page_accesses),
                (s, c.compdists, c.page_accesses()),
                "{label}: per-shard exact columns"
            );
        }
        let per_shard = &served.report.per_shard;
        let probe_sum: u64 = per_shard.iter().map(|s| s.probes).sum();
        assert_eq!(
            probe_sum, served.report.shards_probed,
            "{label}: probes add up"
        );
        let cd_sum: u64 = per_shard.iter().map(|s| s.compdists).sum();
        assert_eq!(cd_sum, exec_cost.compdists, "{label}: compdists add up");
        let pa_sum: u64 = per_shard.iter().map(|s| s.page_accesses).sum();
        assert_eq!(
            pa_sum,
            exec_cost.page_accesses(),
            "{label}: page accesses add up"
        );

        // Phase tree: the batch recorded it; `execute` recorded nothing.
        let snap = engine.metrics();
        assert!(
            snap.phases.iter().any(|p| p.path == "serve"),
            "{label}: serve phase recorded"
        );
        let scan = snap
            .phases
            .iter()
            .find(|p| p.path == "serve.scan")
            .unwrap_or_else(|| panic!("{label}: serve.scan phase missing"));
        assert_eq!(
            scan.calls, served.report.shards_probed,
            "{label}: scan calls == the batch's probes"
        );
        if kind != IndexKind::Mvpt {
            assert!(
                scan.counters
                    .iter()
                    .any(|(k, v)| k == "kernel_rows" && *v > 0),
                "{label}: kernel tally surfaced"
            );
        }
    }
}

/// Inserts `n` objects evenly spaced on a circle of radius 7 500 around
/// the middle of the LA square, every one outside it. Each lands in the
/// routing box nearest it and stretches that box out to cover it, on some
/// pivot dimensions over a neighbouring k-d cell: how boxes come to share
/// buckets once a fresh build's cells, disjoint up to the bucket a cut
/// falls in, take inserts.
fn grow_boxes_by_outliers(engine: &mut pmr::ShardedEngine<Vec<f32>>, n: usize) {
    let mut batch = pmr::engine::UpdateBatch::new();
    for i in 0..n {
        let t = i as f64 * std::f64::consts::TAU / n as f64;
        batch.insert(vec![
            (5000.0 + 7500.0 * t.cos()) as f32,
            (5000.0 + 7500.0 * t.sin()) as f32,
        ]);
    }
    assert_eq!(engine.apply(&batch).inserts, n);
}

/// The tracing tentpole's acceptance contract: a traced query's
/// `explain()` output shows the router's per-shard prune/probe decisions,
/// and the captured traces' counters sum **exactly** to the batch's
/// `ServeReport` totals. One worker thread keeps per-probe counter deltas
/// exactly attributable (concurrent workers probing the same shard would
/// interleave in the shared atomics); `sample_every = 1` traces every
/// query so the sums must close with no remainder.
#[test]
fn traced_queries_sum_exactly_to_serve_report() {
    let pts = datasets::la(600, 23);
    let opts = BuildOptions {
        d_plus: 14143.0,
        ..BuildOptions::default()
    };
    let radius = datasets::calibrate_radius(&pts, &L2, 0.02, 5);
    let mut engine = pmr::build_sharded_vector_engine(
        IndexKind::Laesa,
        pts.clone(),
        L2,
        &opts,
        &pmr::EngineConfig {
            shards: 4,
            threads: 1,
            ..pmr::EngineConfig::default()
        },
        pmr::PartitionPolicy::PivotSpace,
    )
    .unwrap();
    // The k-d cells of a fresh build share no bucket here (each cut bucket
    // holds one row), so no query has a bound tie until inserts grow a box
    // over a neighbour's cell.
    grow_boxes_by_outliers(&mut engine, 12);
    let rt = engine.routing().expect("a routed engine");
    let mut mapped = Vec::new();
    let shared = pts
        .iter()
        .find(|o| {
            rt.map_into(o, &mut mapped);
            let inside = rt
                .boxes()
                .iter()
                .filter(|b| b.lower_bound(&mapped, rt.step()) == 0.0);
            inside.count() >= 2
        })
        .expect("an object in a bucket two routing boxes share")
        .clone();
    let batch: Vec<pmr::Query<Vec<f32>>> = (0..32)
        .map(|i| {
            if i % 2 == 0 {
                pmr::Query::range(pts[i * 17].clone(), radius)
            } else {
                pmr::Query::knn(pts[i * 13].clone(), 10)
            }
        })
        .chain([pmr::Query::knn(shared, 10)])
        .collect();
    engine.set_trace_policy(pmr::TracePolicy::sample(1).with_max_captured(batch.len()));
    let out = engine.serve(&batch);
    let report = &out.report;
    let traces = &report.traces;
    assert_eq!(traces.len(), batch.len(), "every query traced");

    // Exact closure: per-trace event counters roll up to the report.
    let probed: u64 = traces.iter().map(|t| t.shards_probed()).sum();
    let pruned: u64 = traces.iter().map(|t| t.shards_pruned()).sum();
    let dists: u64 = traces.iter().map(|t| t.compdists()).sum();
    let pages: u64 = traces.iter().map(|t| t.page_accesses()).sum();
    let results: u64 = traces.iter().map(|t| t.results()).sum();
    assert_eq!(probed, report.shards_probed, "probed sums exactly");
    assert_eq!(pruned, report.shards_pruned, "pruned sums exactly");
    assert_eq!(dists, report.cost.compdists, "compdists sums exactly");
    assert_eq!(pages, report.cost.page_accesses(), "pages sum exactly");
    assert_eq!(results, report.total_results as u64, "results sum exactly");
    assert!(
        pruned > 0,
        "routed clusters must actually prune somewhere in the batch"
    );

    // Every LAESA probe, range or kNN, scans its shard's rows and pays its
    // l query-pivot distances plus one per verified survivor.
    let l = opts.num_pivots as u64;
    let mut scans = 0;
    for t in traces {
        for ev in &t.events {
            if let pmr::TraceEvent::Scan {
                dists,
                kernel_rows,
                survivors,
                ..
            } = *ev
            {
                scans += 1;
                assert!(kernel_rows > 0, "a table probe scanned no rows: {ev:?}");
                assert_eq!(dists, survivors + l, "{:?} probe: {ev:?}", t.kind);
                assert!(
                    t.explain()
                        .contains(&format!("kernel {kernel_rows} rows, survivors {survivors}")),
                    "kernel clause missing:\n{}",
                    t.explain()
                );
            }
        }
    }
    assert_eq!(scans, probed, "one Scan per probed shard");

    // explain() renders the plan tree: every trace names each shard's
    // verdict, and its headline ratio matches the trace's own counters.
    for t in traces {
        let text = t.explain();
        assert!(
            text.contains(&format!(
                "probed {}/{} shards (pruned {})",
                t.shards_probed(),
                t.shards_probed() + t.shards_pruned(),
                t.shards_pruned()
            )),
            "plan headline mismatch:\n{text}"
        );
        for ev in &t.events {
            if let pmr::TraceEvent::Plan { shard, probed, .. } = ev {
                let tag = if *probed { "→ shard" } else { "· shard" };
                assert!(
                    text.lines()
                        .any(|l| l.contains(tag) && l.contains(&format!("shard {shard}"))),
                    "shard {shard} verdict missing:\n{text}"
                );
            }
        }
        assert!(text.contains("merge:"), "merge line present:\n{text}");
    }
    // The last kNN lies inside two boxes, and its plan says the centres
    // ranked them.
    assert!(
        traces
            .iter()
            .any(|t| t.explain().contains("(bound tie: by centre², ")),
        "no kNN plan names the key that split a bound tie"
    );
}

/// One kNN answered by hand through the layers' public calls, visiting the
/// shards in `order`'s sequence under the engine's own rule — skip a shard
/// whose box bound exceeds the running k-th distance, seed every probe with
/// it. Returns the answer, the distances the probes paid and how many ran.
#[cfg(not(debug_assertions))]
fn knn_by_hand(
    engine: &pmr::ShardedEngine<Vec<f32>>,
    q: &Vec<f32>,
    k: usize,
    order: &[(usize, f64)],
) -> (Vec<pmr::Neighbor>, u64, u64) {
    let mut qs = pmr::QueryScratch::default();
    let mut nbrs = Vec::new();
    let mut topk = pmr::engine::TopK::new(k);
    let (mut dists, mut probes) = (0u64, 0u64);
    for &(s, lb) in order {
        if lb > topk.threshold() {
            continue;
        }
        let shard = &engine.shards()[s];
        let before = shard.counters().compdists;
        let seed = topk.threshold();
        shard.knn_into_with(q, k, seed, &mut qs, &mut nbrs, &mut topk);
        dists += shard.counters().compdists - before;
        probes += 1;
    }
    (topk.drain_sorted(), dists, probes)
}

/// The kNN probe order's pin: which of the boxes a query lies inside is
/// probed first seeds the radius every later probe prunes with, so bound
/// ties go to the nearest centre. A routed 8-shard engine first takes
/// twelve outliers ([`grow_boxes_by_outliers`]), so that some of 200
/// held-out queries lie inside two boxes. Over those queries, (1) the
/// engine pays exactly what the by-hand replay of `knn_order_into`'s order
/// pays, and strictly less than the replay of the `(bound, shard id)`
/// order — a table kind and a tree kind, same answers either way; (2)
/// LAESA's verified slots stay within 5 % of what no order can go below:
/// every slot whose stored bound is within the true k-th distance, in
/// every shard whose box bound is. Both hold on a fresh build and on one
/// whose removes emptied a cell (2 000 of shard 7's 2 500 members), so
/// that a re-cluster re-cut every shard before the outliers came.
#[cfg(not(debug_assertions))]
#[test]
fn knn_probe_order_stays_near_the_verification_floor() {
    let pts = datasets::la(20_200, 37);
    let (indexed, held_out) = pts.split_at(20_000);
    let opts = BuildOptions {
        d_plus: 14143.0,
        ..BuildOptions::default()
    };
    for kind in [IndexKind::Laesa, IndexKind::Mvpt] {
        for recut in [false, true] {
            let mut engine = pmr::build_sharded_vector_engine(
                kind,
                indexed.to_vec(),
                L2,
                &opts,
                &pmr::EngineConfig {
                    shards: 8,
                    threads: 1,
                    ..pmr::EngineConfig::default()
                },
                pmr::PartitionPolicy::PivotSpace,
            )
            .unwrap();
            let label = format!("{} re-cut {recut}", kind.label());
            if recut {
                let mut batch = pmr::engine::UpdateBatch::new();
                for (_, gid) in engine.shards()[7].live_members().take(2_000) {
                    batch.remove(gid);
                }
                assert_eq!(engine.apply(&batch).reclusters, 1, "{label}");
            }
            grow_boxes_by_outliers(&mut engine, 12);
            assert_probe_order_near_the_floor(&engine, held_out, kind == IndexKind::Laesa, &label);
        }
    }
}

/// The checks of [`knn_probe_order_stays_near_the_verification_floor`] on
/// one engine; `floor_check` for a table kind, whose stored rows are the
/// slots it verifies.
#[cfg(not(debug_assertions))]
fn assert_probe_order_near_the_floor(
    engine: &pmr::ShardedEngine<Vec<f32>>,
    held_out: &[Vec<f32>],
    floor_check: bool,
    label: &str,
) {
    const K: usize = 10;
    let rt = engine.routing().unwrap();
    // Every shard's stored rows (LAESA's own, the floor's input).
    let rows: Vec<Vec<Vec<f64>>> = engine
        .shards()
        .iter()
        .map(|sh| {
            sh.live_members()
                .map(|(local, _)| {
                    let row = sh.codes(local).map(|c| f64::from(c) * rt.step());
                    row.collect()
                })
                .collect()
        })
        .collect();
    let (mut mapped, mut order) = (Vec::new(), Vec::new());
    let (mut by_centre, mut by_id, mut verified, mut floor) = (0u64, 0u64, 0u64, 0u64);
    for q in held_out {
        rt.map_into(q, &mut mapped);
        rt.knn_order_into(&mapped, &mut order);
        let mut id_order = order.clone();
        id_order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));

        let before = engine.counters().compdists;
        let real = engine.knn_query(q, K);
        let paid = engine.counters().compdists - before;
        let (hand, dists, probes) = knn_by_hand(engine, q, K, &order);
        assert_eq!(hand, real, "{label}: the replay answers as the engine");
        assert_eq!(dists, paid, "{label}: and pays what it pays");
        let (old, old_dists, _) = knn_by_hand(engine, q, K, &id_order);
        assert_eq!(old, real, "{label}: the answer is order-free");
        by_centre += dists;
        by_id += old_dists;

        if floor_check {
            // Each probe maps the query (`l` distances), then verifies.
            verified += dists - probes * mapped.len() as u64;
            let dk = real[K - 1].dist;
            for &(s, _) in order.iter().filter(|&&(_, lb)| lb <= dk) {
                floor += rows[s]
                    .iter()
                    .filter(|row| stored_lower_bound(&mapped, row, rt.step()) <= dk)
                    .count() as u64;
            }
        }
    }
    assert!(
        by_centre < by_id,
        "{label}: nearest centre first paid {by_centre}, lowest id first {by_id}"
    );
    if floor_check {
        assert!(floor <= verified, "{label}: a floor: {floor} vs {verified}");
        assert!(
            verified as f64 <= 1.05 * floor as f64,
            "{label}: verified {verified} slots against a floor of {floor}"
        );
    }
}

/// A lone kNN runs the batch path's probe sequence, seeded with the running
/// k-th distance: through `knn_query` it spends exactly the compdists of the
/// same query through `execute` — on a routed engine and on a plain one,
/// where every shard is probed and only the seed saves verifications.
#[test]
fn lone_knn_spends_what_execute_spends() {
    let pts = datasets::la(2_000, 29);
    let opts = BuildOptions {
        d_plus: 14143.0,
        ..BuildOptions::default()
    };
    let cfg = pmr::EngineConfig {
        shards: 4,
        threads: 2,
        ..pmr::EngineConfig::default()
    };
    let routed = pmr::build_sharded_vector_engine(
        IndexKind::Laesa,
        pts.clone(),
        L2,
        &opts,
        &cfg,
        pmr::PartitionPolicy::PivotSpace,
    )
    .unwrap();
    let pivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(&pts, &L2, opts.num_pivots, opts.seed)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect();
    let plain = pmr::ShardedEngine::build(
        pts.clone(),
        pmr::engine::Layout::plain(),
        &cfg,
        |_, part, _| build_index(IndexKind::Laesa, part, L2, pivots.clone(), &opts),
    )
    .unwrap();
    for engine in [&routed, &plain] {
        for q in pts.iter().step_by(199) {
            let cd0 = engine.counters().compdists;
            let executed = engine.execute(&pmr::Query::knn(q.clone(), 10));
            let cd1 = engine.counters().compdists;
            let nbrs = engine.knn_query(q, 10);
            let cd2 = engine.counters().compdists;
            assert_eq!(executed, pmr::QueryResult::Knn(nbrs));
            assert_eq!(cd2 - cd1, cd1 - cd0, "knn_query is execute's probe path");
        }
    }
}

#[test]
fn storage_split_matches_index_family() {
    // Table 4's (I)/(D) annotations: tables/trees in memory, external on
    // disk, CPT split across both.
    let (_, laesa) = build(IndexKind::Laesa, 200);
    assert!(laesa.storage().mem_bytes > 0);
    assert_eq!(laesa.storage().disk_bytes, 0);
    let (_, spb) = build(IndexKind::Spb, 200);
    assert!(spb.storage().disk_bytes > 0);
    let (_, cpt) = build(IndexKind::Cpt, 200);
    let s = cpt.storage();
    assert!(s.mem_bytes > 0 && s.disk_bytes > 0, "CPT is hybrid");
}

#[test]
fn stored_columns_serve_byte_identical_answers() {
    use pmr::engine::{EngineConfig, Query};
    use pmr::{build_sharded_vector_engine, BruteForce, LInf, PartitionPolicy, QueryResult};

    // Pivot distances are stored as u16 buckets — a quarter of the bytes
    // of the distances themselves for the Lemma 1 kernel to stream — and
    // that must change no answer: a bucket stands for every distance in
    // it and the routing boxes cover what each stored value stands for,
    // so the filter is only ever looser and exact f64 verification
    // returns `BruteForce`'s answer id for id, distances bit for bit —
    // across every adopting kind (LAESA, CPT, FQA; EPT rides along to
    // cover a non-adopter), range and kNN.
    let pts = datasets::la(600, 31);
    let opts = BuildOptions {
        d_plus: 14143.0,
        maxnum: 48,
        ..BuildOptions::default()
    };
    let cfg = EngineConfig {
        shards: 3,
        threads: 2,
        ..EngineConfig::default()
    };
    fn check<M: Metric<Vec<f32>> + Clone + 'static>(
        kind: IndexKind,
        metric: M,
        pts: &[Vec<f32>],
        opts: &BuildOptions,
        cfg: &EngineConfig,
    ) {
        let oracle = BruteForce::new(pts.to_vec(), metric.clone());
        let radius = datasets::calibrate_radius(pts, &metric, 0.05, 31);
        let policy = PartitionPolicy::PivotSpace;
        let label = kind.label();
        let engine =
            build_sharded_vector_engine(kind, pts.to_vec(), metric.clone(), opts, cfg, policy)
                .unwrap();
        let batch: Vec<Query<Vec<f32>>> = (0..40)
            .map(|i| {
                let q = pts[(i * 13) % pts.len()].clone();
                if i % 2 == 0 {
                    Query::range(q, radius)
                } else {
                    Query::knn(q, 7)
                }
            })
            .collect();
        for (q, got) in batch.iter().zip(engine.serve(&batch).results) {
            match (q, got) {
                (Query::Range { q, radius }, QueryResult::Range(ids)) => {
                    let mut want = oracle.range_query(q, *radius);
                    want.sort_unstable();
                    assert_eq!(ids, want, "{label}");
                }
                (Query::Knn { q, k }, QueryResult::Knn(nbrs)) => {
                    let want = oracle.knn_query(q, *k);
                    assert_eq!(nbrs, want, "{label}");
                    // `==` alone would let -0.0 pass for 0.0.
                    for (x, y) in nbrs.iter().zip(&want) {
                        assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "{label}");
                    }
                }
                (_, other) => panic!("{label}: {other:?}"),
            }
        }
    }
    for kind in [IndexKind::Laesa, IndexKind::Cpt, IndexKind::Ept] {
        check(kind, L2, &pts, &opts, &cfg);
    }
    // FQA buckets distances, which requires a discrete metric.
    check(IndexKind::Fqa, LInf::discrete(), &pts, &opts, &cfg);
}
