//! Cross-index consistency: every index must return exactly the same MRQ
//! result sets and kNN distance profiles as a brute-force scan, on every
//! dataset, across small and large radii. This is the repository's primary
//! correctness gate.

use pivot_metric_repro as pmr;
use pmr::builder::{build_index, BuildOptions, IndexKind};
use pmr::{datasets, BruteForce, EditDistance, LInf, Metric, MetricIndex, Neighbor, ObjId, L1, L2};

const ALL_KINDS: [IndexKind; 17] = [
    IndexKind::Aesa,
    IndexKind::Laesa,
    IndexKind::Ept,
    IndexKind::EptStar,
    IndexKind::Cpt,
    IndexKind::Bkt,
    IndexKind::Fqt,
    IndexKind::Fqa,
    IndexKind::Vpt,
    IndexKind::Mvpt,
    IndexKind::PmTree,
    IndexKind::OmniSeq,
    IndexKind::OmniBPlus,
    IndexKind::OmniR,
    IndexKind::MIndex,
    IndexKind::MIndexStar,
    IndexKind::Spb,
];

fn check_all<O, M>(objects: Vec<O>, metric: M, d_plus: f64, radii: &[f64], label: &str)
where
    O: pmr::Object + PartialEq + std::fmt::Debug,
    M: Metric<O> + Clone + 'static,
{
    let opts = BuildOptions {
        d_plus,
        maxnum: 48,
        ..BuildOptions::default()
    };
    let pivot_ids = pmr::pivots::select_hfi(&objects, &metric, opts.num_pivots, 42);
    let pivots: Vec<O> = pivot_ids.iter().map(|&i| objects[i].clone()).collect();
    let oracle = BruteForce::new(objects.clone(), metric.clone());
    let queries: Vec<usize> = vec![0, objects.len() / 3, objects.len() - 1];

    for kind in ALL_KINDS {
        let idx = match build_index(kind, objects.clone(), metric.clone(), pivots.clone(), &opts) {
            Ok(idx) => idx,
            Err(_) => continue, // BKT/FQT/FQA on continuous metrics
        };
        assert_eq!(idx.len(), objects.len(), "{label}/{}", kind.label());
        for &qi in &queries {
            let q = &objects[qi];
            for &r in radii {
                let mut got = idx.range_query(q, r);
                got.sort_unstable();
                let mut want = oracle.range_query(q, r);
                want.sort_unstable();
                assert_eq!(got, want, "{label}/{} MRQ(q={qi}, r={r})", kind.label());
            }
            for k in [1usize, 10, 25] {
                let got = idx.knn_query(q, k);
                let want = oracle.knn_query(q, k);
                assert_eq!(got.len(), want.len(), "{label}/{} k={k}", kind.label());
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g.dist - w.dist).abs() < 1e-9,
                        "{label}/{} kNN(q={qi}, k={k}): {} vs {}",
                        kind.label(),
                        g.dist,
                        w.dist
                    );
                }
                // Sorted ascending.
                assert!(got.windows(2).all(|w| w[0].dist <= w[1].dist));
            }
        }
    }
}

#[test]
fn la_consistency() {
    let pts = datasets::la(600, 11);
    let radii = [
        datasets::calibrate_radius(&pts, &L2, 0.04, 1),
        datasets::calibrate_radius(&pts, &L2, 0.16, 1),
        datasets::calibrate_radius(&pts, &L2, 0.64, 1),
    ];
    check_all(pts, L2, 14143.0, &radii, "LA");
}

#[test]
fn words_consistency() {
    let ws = datasets::words(400, 11);
    let radii = [1.0, 3.0, 10.0, 25.0];
    check_all(ws, EditDistance, 34.0, &radii, "Words");
}

#[test]
fn color_consistency() {
    let pts = datasets::color(250, 11);
    let radii = [
        datasets::calibrate_radius(&pts, &L1, 0.04, 1),
        datasets::calibrate_radius(&pts, &L1, 0.32, 1),
    ];
    check_all(pts, L1, 510.0 * datasets::COLOR_DIM as f64, &radii, "Color");
}

#[test]
fn synthetic_consistency() {
    let pts = datasets::synthetic(500, 11);
    let radii = [
        datasets::calibrate_radius(&pts, &LInf::discrete(), 0.08, 1),
        datasets::calibrate_radius(&pts, &LInf::discrete(), 0.64, 1),
    ];
    check_all(pts, LInf::discrete(), 10000.0, &radii, "Synthetic");
}

#[test]
fn spb_consistency_separately() {
    // The SPB-tree is checked on its own so a failure names it directly
    // (its discretized filtering has historically been the most delicate).
    let pts = datasets::la(600, 13);
    let opts = BuildOptions {
        d_plus: 14143.0,
        ..BuildOptions::default()
    };
    let pivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(&pts, &L2, 5, 13)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect();
    let idx = build_index(IndexKind::Spb, pts.clone(), L2, pivots, &opts).unwrap();
    let oracle = BruteForce::new(pts.clone(), L2);
    for r in [100.0, 2000.0, 9000.0] {
        let mut got = idx.range_query(&pts[77], r);
        got.sort_unstable();
        let mut want = oracle.range_query(&pts[77], r);
        want.sort_unstable();
        assert_eq!(got, want, "SPB r={r}");
    }
}

/// What an index answers for a fixed handful of queries: sorted MRQ ids
/// and the full kNN lists, exact enough to compare one index with itself.
fn answers<O: pmr::Object>(
    idx: &dyn MetricIndex<O>,
    queries: &[O],
    r: f64,
) -> Vec<(Vec<ObjId>, Vec<Neighbor>)> {
    queries
        .iter()
        .map(|q| {
            let mut ids = idx.range_query(q, r);
            ids.sort_unstable();
            (ids, idx.knn_query(q, 10))
        })
        .collect()
}

/// The fork contract (`MetricIndex::fork`), for every kind that builds
/// over this metric. Returns the kinds covered.
fn check_fork_contract<O, M>(
    objects: Vec<O>,
    fresh: Vec<O>,
    metric: M,
    d_plus: f64,
    r: f64,
    label: &str,
) -> Vec<IndexKind>
where
    O: pmr::Object + PartialEq + std::fmt::Debug,
    M: Metric<O> + Clone + 'static,
{
    let opts = BuildOptions {
        d_plus,
        maxnum: 48,
        ..BuildOptions::default()
    };
    let pivots: Vec<O> = pmr::pivots::select_hfi(&objects, &metric, opts.num_pivots, 42)
        .into_iter()
        .map(|i| objects[i].clone())
        .collect();
    let queries: Vec<O> = objects.iter().step_by(objects.len() / 5).cloned().collect();
    let mut covered = Vec::new();
    for kind in ALL_KINDS {
        let Ok(mut parent) =
            build_index(kind, objects.clone(), metric.clone(), pivots.clone(), &opts)
        else {
            continue;
        };
        let ctx = format!("{label}/{}", kind.label());
        let before = answers(&*parent, &queries, r);
        let (len0, storage0) = (parent.len(), parent.storage());
        let mut fork = parent.fork();
        assert_eq!(answers(&*fork, &queries, r), before, "{ctx}: at fork time");

        // A seeded insert/remove stream on the fork only, mirrored on the
        // model's live set.
        let mut live: Vec<(ObjId, O)> = (0..).zip(objects.iter().cloned()).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for (step, o) in fresh.iter().enumerate() {
            let id = fork.insert(o.clone());
            live.push((id, o.clone()));
            for _ in 0..1 + step % 2 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let (id, _) = live.swap_remove((state >> 33) as usize % live.len());
                assert!(fork.remove(id), "{ctx}: remove {id} on the fork");
            }
        }
        assert_eq!(
            answers(&*parent, &queries, r),
            before,
            "{ctx}: parent moved"
        );
        assert_eq!((parent.len(), parent.storage()), (len0, storage0), "{ctx}");

        // The fork equals a brute-force model of its own live set.
        assert_eq!(fork.len(), live.len(), "{ctx}");
        let model = BruteForce::new(
            live.iter().map(|(_, o)| o.clone()).collect::<Vec<_>>(),
            metric.clone(),
        );
        for (q, (ids, knn)) in queries.iter().zip(answers(&*fork, &queries, r)) {
            let mut want: Vec<ObjId> = model
                .range_query(q, r)
                .into_iter()
                .map(|i| live[i as usize].0)
                .collect();
            want.sort_unstable();
            assert_eq!(ids, want, "{ctx}: fork MRQ vs model");
            for (g, w) in knn.iter().zip(model.knn_query(q, 10)) {
                assert!((g.dist - w.dist).abs() < 1e-9, "{ctx}: fork kNN vs model");
            }
        }

        // One set of cost counters: the fork's work shows in the parent's.
        parent.reset_counters();
        let after = answers(&*fork, &queries, r);
        let c = parent.counters();
        assert_eq!(c, fork.counters(), "{ctx}: shared counters");
        assert!(c.compdists > 0, "{ctx}: shared distance counter");
        assert_eq!(
            c.page_reads > 0,
            kind.is_disk_based(),
            "{ctx}: page counter"
        );

        // The other direction, then life without the parent.
        let victim = parent.insert(fresh[0].clone());
        assert!(parent.remove(victim) && parent.remove(0), "{ctx}");
        assert_eq!(answers(&*fork, &queries, r), after, "{ctx}: fork moved");
        drop(parent);
        assert_eq!(answers(&*fork, &queries, r), after, "{ctx}: parent dropped");
        covered.push(kind);
    }
    covered
}

#[test]
fn fork_contract_holds_for_every_kind() {
    let pts = datasets::la(340, 17);
    let (indexed, fresh) = pts.split_at(300);
    let r = datasets::calibrate_radius(indexed, &L2, 0.08, 1);
    let continuous = check_fork_contract(indexed.to_vec(), fresh.to_vec(), L2, 14143.0, r, "LA");
    let pts = datasets::synthetic(340, 17);
    let (indexed, fresh) = pts.split_at(300);
    let m = LInf::discrete();
    let r = datasets::calibrate_radius(indexed, &m, 0.16, 1);
    let discrete =
        check_fork_contract(indexed.to_vec(), fresh.to_vec(), m, 10000.0, r, "Synthetic");
    assert_eq!(continuous.len(), 14, "all but BKT/FQT/FQA: {continuous:?}");
    assert_eq!(discrete, ALL_KINDS, "all seventeen kinds");
}
