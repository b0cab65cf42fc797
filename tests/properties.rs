//! Property-based tests (proptest) on the core invariants:
//! metric axioms, lemma soundness, SFC bijectivity, codec roundtrips, and
//! index/oracle agreement under random data and parameters.

use pivot_metric_repro as pmr;
use pmr::builder::{build_index, BuildOptions, IndexKind};
use pmr::engine::TopK;
use pmr::storage::sfc::Hilbert;
use pmr::{
    lemmas, BruteForce, EditDistance, EncodeObject, LInf, Metric, MetricIndex, Neighbor,
    QueryScratch, L1, L2,
};
use proptest::prelude::*;

fn vecs(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(prop::collection::vec(-1000.0f32..1000.0, dim..=dim), n)
}

/// Integer points of a small grid: under L∞ nearly every distance is tied.
fn grid_vecs(dim: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f32>>> {
    let coord = (-40i32..40).prop_map(|x| x as f32);
    prop::collection::vec(prop::collection::vec(coord, dim..=dim), n)
}

/// Every kind, and whether its kNN prunes with the caller's seed. A disk
/// kind may turn `false` (its `knn_query_into_seeded` then says why in one
/// line); the kinds of `crates/tables` and `crates/trees` may not.
const HONOURS_SEED: [(IndexKind, bool); 17] = [
    (IndexKind::Aesa, true),
    (IndexKind::Laesa, true),
    (IndexKind::Ept, true),
    (IndexKind::EptStar, true),
    (IndexKind::Cpt, true),
    (IndexKind::Bkt, true),
    (IndexKind::Fqt, true),
    (IndexKind::Fqa, true),
    (IndexKind::Vpt, true),
    (IndexKind::Mvpt, true),
    (IndexKind::PmTree, true),
    (IndexKind::OmniSeq, true),
    (IndexKind::OmniBPlus, true),
    (IndexKind::OmniR, true),
    (IndexKind::MIndex, true),
    (IndexKind::MIndexStar, true),
    (IndexKind::Spb, true),
];

/// Every kind of `crates/tables` and `crates/trees`.
const TABLES_AND_TREES: [IndexKind; 10] = [
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
];

/// A local answer merged the way the engine merges a shard's: offered into
/// a collector that already holds `k` candidates at the seed.
fn merged(k: usize, seed: f64, local: &[Neighbor]) -> Vec<(u32, u64)> {
    let mut topk = TopK::new(k);
    (0..k as u32).for_each(|i| topk.offer(Neighbor::new(u32::MAX - i, seed)));
    local.iter().for_each(|&n| topk.offer(n));
    id_bits(&topk.drain_sorted())
}

/// An answer as `(id, distance bits)`, for equality bit for bit.
fn id_bits(answer: &[Neighbor]) -> Vec<(u32, u64)> {
    answer.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// The contract of `MetricIndex::knn_query_into_seeded`, for every kind
/// that builds over `metric`: unseeded it is `BruteForce`'s answer id for
/// id; under each seed of {∞, the true k-th distance, a looser one, 0} its
/// answer merges bit for bit like the unseeded one, and a kind that
/// honours the seed pays no more distances for it. Returns the kinds that
/// paid strictly less under some seed.
fn check_seed_contract<M>(
    objects: &[Vec<f32>],
    metric: M,
    d_plus: f64,
    q: &Vec<f32>,
    k: usize,
    loosen: f64,
) -> Vec<IndexKind>
where
    M: Metric<Vec<f32>> + Clone + 'static,
{
    let opts = BuildOptions {
        d_plus,
        maxnum: 16,
        num_pivots: 3,
        ..BuildOptions::default()
    };
    let pivots: Vec<Vec<f32>> = pmr::pivots::select_hfi(objects, &metric, 3, 7)
        .into_iter()
        .map(|i| objects[i].clone())
        .collect();
    let truth = BruteForce::new(objects.to_vec(), metric.clone()).knn_query(q, k);
    let dk = truth.last().expect("k >= 1 over a non-empty corpus").dist;
    let mut scratch = QueryScratch::new();
    let mut pruned = Vec::new();
    for (kind, honours) in HONOURS_SEED {
        let Ok(idx) = build_index(
            kind,
            objects.to_vec(),
            metric.clone(),
            pivots.clone(),
            &opts,
        ) else {
            continue; // BKT / FQT / FQA over a continuous metric
        };
        let mut run = |seed: f64| {
            idx.reset_counters();
            let mut out = Vec::new();
            idx.knn_query_into_seeded(q, k, seed, &mut scratch, &mut out);
            (out, idx.counters().compdists)
        };
        let (plain, plain_cost) = run(f64::INFINITY);
        assert_eq!(plain, truth, "{} unseeded", kind.label());
        for seed in [f64::INFINITY, dk, dk * loosen + 1.0, 0.0] {
            let (seeded, cost) = run(seed);
            assert_eq!(
                merged(k, seed, &seeded),
                merged(k, seed, &plain),
                "{} seed {seed}",
                kind.label()
            );
            if honours {
                assert!(
                    cost <= plain_cost,
                    "{} seed {seed}: {cost} > {plain_cost}",
                    kind.label()
                );
                if cost < plain_cost {
                    pruned.push(kind);
                }
            }
        }
    }
    pruned
}

/// No in-memory kind ignores the seed, and no kind claims it for nothing:
/// over a fixed corpus each one that honours it pays strictly fewer
/// distances under some seed.
#[test]
fn every_kind_that_honours_the_seed_prunes_with_it() {
    for kind in TABLES_AND_TREES {
        assert!(HONOURS_SEED.contains(&(kind, true)), "{}", kind.label());
    }
    let pts = pmr::datasets::synthetic(260, 17);
    let (indexed, queries) = pts.split_at(256);
    let mut pruned = Vec::new();
    for q in queries {
        pruned.extend(check_seed_contract(
            indexed,
            LInf::discrete(),
            10000.0,
            q,
            7,
            1.5,
        ));
    }
    for (kind, honours) in HONOURS_SEED {
        assert!(
            !honours || pruned.contains(&kind),
            "{} never pruned",
            kind.label()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn metric_axioms_hold(v in vecs(4, 3..10)) {
        let metrics: [&dyn Metric<Vec<f32>>; 3] = [&L1, &L2, &LInf { discrete: false }];
        for m in metrics {
            for a in &v {
                for b in &v {
                    let dab = m.dist(a, b);
                    prop_assert!(dab >= 0.0);
                    // Bitwise: HFI computes each pair distance once.
                    prop_assert_eq!(dab.to_bits(), m.dist(b, a).to_bits(), "symmetry");
                    if a == b {
                        prop_assert_eq!(dab, 0.0);
                    }
                    for c in &v {
                        // Triangle inequality with float slack.
                        prop_assert!(dab <= m.dist(a, c) + m.dist(c, b) + 1e-6);
                    }
                }
            }
        }
    }

    #[test]
    fn edit_distance_axioms(words in prop::collection::vec("[a-z]{0,12}", 3..8)) {
        for a in &words {
            for b in &words {
                let dab = EditDistance::levenshtein(a, b);
                prop_assert_eq!(dab, EditDistance::levenshtein(b, a));
                if a == b {
                    prop_assert_eq!(dab, 0);
                }
                prop_assert!(dab <= a.len().max(b.len()));
                for c in &words {
                    prop_assert!(
                        dab <= EditDistance::levenshtein(a, c) + EditDistance::levenshtein(c, b)
                    );
                }
            }
        }
    }

    #[test]
    fn lemmas_are_sound(
        v in vecs(3, 6..20),
        qi in 0usize..6,
        r in 1.0f64..2000.0,
    ) {
        // Pivots = first two objects; query = object qi.
        let q = &v[qi];
        let pivots = [&v[0], &v[1]];
        let qd: Vec<f64> = pivots.iter().map(|p| L2.dist(*p, q)).collect();
        for o in &v {
            let od: Vec<f64> = pivots.iter().map(|p| L2.dist(*p, o)).collect();
            let actual = L2.dist(q, o);
            // Lemma 1 never prunes a true answer.
            if lemmas::lemma1_prunable(&qd, &od, r) {
                prop_assert!(actual > r);
            }
            // Lemma 4 never validates a non-answer.
            if lemmas::lemma4_validated(&qd, &od, r) {
                prop_assert!(actual <= r + 1e-9);
            }
            // Bounds sandwich the true distance.
            prop_assert!(lemmas::pivot_lower_bound(&qd, &od) <= actual + 1e-9);
            prop_assert!(lemmas::pivot_upper_bound(&qd, &od) >= actual - 1e-9);
        }
    }

    #[test]
    fn hilbert_bijective(
        dims in 2usize..6,
        bits in 1u32..6,
        seed in any::<u64>(),
    ) {
        let h = Hilbert::new(dims, bits);
        let mut s = seed | 1;
        for _ in 0..50 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let coords: Vec<u32> = (0..dims)
                .map(|d| ((s >> (d * 7)) as u32) & h.max_coord())
                .collect();
            prop_assert_eq!(h.decode(h.encode(&coords)), coords);
        }
    }

    #[test]
    fn codec_roundtrips(v in prop::collection::vec(any::<f32>(), 0..64)) {
        // NaN-free for equality.
        let v: Vec<f32> = v.into_iter().map(|x| if x.is_nan() { 0.0 } else { x }).collect();
        let enc = v.encode();
        let (back, used) = Vec::<f32>::decode_from(&enc);
        prop_assert_eq!(back, v);
        prop_assert_eq!(used, enc.len());
    }

    #[test]
    fn string_codec_roundtrips(s in "\\PC{0,40}") {
        let enc = s.encode();
        let (back, used) = String::decode_from(&enc);
        prop_assert_eq!(back, s);
        prop_assert_eq!(used, enc.len());
    }
}

proptest! {
    // Heavier cases: fewer iterations.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_indexes_agree_with_oracle(
        v in vecs(3, 40..120),
        r in 10.0f64..3000.0,
        k in 1usize..15,
        kind_pick in 0usize..6,
    ) {
        let kind = [
            IndexKind::Laesa,
            IndexKind::Mvpt,
            IndexKind::OmniR,
            IndexKind::MIndexStar,
            IndexKind::Spb,
            IndexKind::PmTree,
        ][kind_pick];
        let opts = BuildOptions {
            d_plus: 8000.0, // > max possible distance in [-1000,1000]^3 under L2
            maxnum: 16,
            num_pivots: 3,
            ..BuildOptions::default()
        };
        let pivot_ids = pmr::pivots::select_hfi(&v, &L2, 3, 7);
        let pivots: Vec<Vec<f32>> = pivot_ids.iter().map(|&i| v[i].clone()).collect();
        let idx = build_index(kind, v.clone(), L2, pivots, &opts).unwrap();
        let oracle = BruteForce::new(v.clone(), L2);
        let q = &v[0];
        let mut got = idx.range_query(q, r);
        got.sort_unstable();
        let mut want = oracle.range_query(q, r);
        want.sort_unstable();
        prop_assert_eq!(got, want, "{} MRQ", kind.label());
        // Bit for bit, ties included: every kind computes the same `dist`
        // and breaks ties by the smaller id, as the oracle does.
        prop_assert_eq!(
            id_bits(&idx.knn_query(q, k)),
            id_bits(&oracle.knn_query(q, k)),
            "{} kNN",
            kind.label()
        );
    }

    #[test]
    fn seeded_knn_merges_like_unseeded_for_every_kind(
        v in vecs(3, 30..90),
        g in grid_vecs(3, 30..90),
        q in prop::collection::vec(-40i32..40, 3..=3),
        k in 1usize..12,
        loosen in 1.0f64..3.0,
    ) {
        // A third of each corpus a second time: ties at whole distances.
        let twice = |mut v: Vec<Vec<f32>>| {
            v.extend_from_within(..v.len() / 3);
            v
        };
        let q: Vec<f32> = q.into_iter().map(|x| x as f32).collect();
        check_seed_contract(&twice(v), L2, 8000.0, &q, k, loosen);
        check_seed_contract(&twice(g), LInf::discrete(), 100.0, &q, k, loosen);
    }

    #[test]
    fn stored_filter_bounds_stay_admissible(
        v in vecs(6, 8..40),
        qraw in prop::collection::vec(-1000.0f32..1000.0, 6..=6),
        w in 1usize..5,
    ) {
        use pmr::{PivotColumns, PivotMatrix};
        // Stored columns over random data: the rows are floored to u16
        // buckets and the kernel gives back the one step two buckets can
        // overlap by, so every row's bound `gap · step` must sit at or below
        // the true distance — exactly, no float tolerance (Lemma 1 over
        // intervals).
        let pivots: Vec<Vec<f32>> = v.iter().take(w).cloned().collect();
        let m = PivotMatrix::compute(&v, &L2, &pivots, 1);
        let qd: Vec<f64> = pivots.iter().map(|p| L2.dist(&qraw, p)).collect();
        let stored = PivotColumns::from(&m);
        let mut gaps = Vec::new();
        stored.gaps_into(&qd, &mut gaps);
        prop_assert_eq!(gaps.len(), v.len());
        for (i, o) in v.iter().enumerate() {
            let d = L2.dist(&qraw, o);
            let lb = f64::from(gaps[i]) * stored.step();
            prop_assert!(lb <= d, "stored lb {} > d {} at row {i}", lb, d);
            // Never above the exact f64 Lemma 1 bound it approximates —
            // the stored-precision filter is strictly the looser of the two.
            let lb64 = pmr::lemmas::pivot_lower_bound(&qd, m.row(i));
            prop_assert!(lb <= lb64, "stored lb {} > lb_f64 {}", lb, lb64);
        }
    }
}

/// The adversarial case for bucketed storage: L1 over coordinates up to 10⁷
/// — pivot distances in steps of 256 — with every object's distance to the
/// first pivot *on* a bucket edge (even ids) or half a unit under the next
/// one (odd ids), queried with a radius of *exactly* `d(q, o)` along a line
/// through the pivot, where Lemma 1 is tight (`|d(q, p) − d(o, p)| = d(q,
/// o)`), from 11 and 12 units to either side: query and object fall in
/// adjacent buckets while being 11 apart. A bound of whole code differences
/// reads 256 for a true 11, and a box over bare stored values ends a bucket
/// short of its outermost member; the step the kernel gives back and the
/// boxes' bucket-wide faces are what keep `o` in the answer. Every object is
/// queried from both sides, so every shard has its face members probed from
/// outside the box.
#[test]
fn stored_precision_never_loses_an_answer_on_a_rounding_boundary() {
    use pmr::engine::EngineConfig;
    use pmr::{build_sharded_engine, PartitionPolicy};

    // 8 499 968 = 33 203 · 256, and objects are 11 buckets apart.
    let objects: Vec<Vec<f32>> = (0..400)
        .map(|i| {
            let edge = (8_499_968 + 2_816 * i) as f32;
            if i % 2 == 0 {
                vec![edge, 0.0]
            } else {
                vec![edge - 1.0, 0.5]
            }
        })
        .collect();
    let pivots = vec![vec![0.0f32, 0.0], vec![10_000_000.0, 0.0]];
    let edges = objects
        .iter()
        .map(|o| L1.dist(o.as_slice(), pivots[0].as_slice()) % 256.0)
        .filter(|&past| past == 0.0 || past == 255.5)
        .count();
    assert_eq!(edges, 400, "every distance to the first pivot hugs an edge");
    let opts = BuildOptions {
        d_plus: 2e7,
        ..BuildOptions::default()
    };
    let cfg = EngineConfig {
        shards: 8,
        threads: 1,
        ..EngineConfig::default()
    };
    for kind in [IndexKind::Laesa, IndexKind::Cpt, IndexKind::Mvpt] {
        let label = kind.label();
        let engine = build_sharded_engine(
            kind,
            objects.clone(),
            L1,
            pivots.clone(),
            &opts,
            &cfg,
            PartitionPolicy::PivotSpace,
        )
        .unwrap();
        let rt = engine.routing().expect("a routed engine");
        assert_eq!(rt.step(), 256.0, "{label}");
        let (mut mapped, mut plan) = (Vec::new(), Vec::new());
        for (gid, o) in objects.iter().enumerate() {
            for step in [-11.0f32, 11.0, -12.0, 12.0] {
                let q = vec![o[0] + step, o[1]];
                let r = L1.dist(q.as_slice(), o.as_slice());
                assert_eq!(r, step.abs() as f64, "the radius is d(q, o) exactly");
                let (shard, _) = engine.locate(gid as u32).expect("live");
                rt.map_into(&q, &mut mapped);
                rt.range_plan_into(&mapped, r, &mut plan);
                assert!(
                    plan.contains(&shard),
                    "{label}: shard {shard} holding {gid} pruned for step {step}"
                );
                assert!(
                    engine.range_query(&q, r).contains(&(gid as u32)),
                    "{label}: object {gid} lost at radius d(q, o) = {r}, step {step}"
                );
            }
        }
    }
}
