//! Routing-box maintenance is exact: after every commit, each shard's box
//! is **bit for bit** the union of the buckets its live *stored* rows stand
//! for — from the lowest stored value to one step above the highest, open
//! above once a member is stored saturated — a pure function of the stored
//! columns, and the invariant the face rule rests on (a removed member
//! whose bucket lies strictly inside its box cannot have changed it, so
//! only a member on a face triggers a recomputation) — **and** contains the
//! mapper's exact f64 row of every live member, which is what keeps routing
//! admissible over bucketed storage. Checked on a table, a disk-backed
//! table, a tree and a disk index — one write path, one locator, one rule.
//! The rows that rule reads live with the shard (inside the index for the
//! tables, beside it for the rest): each is checked against the object it
//! belongs to.
//!
//! The routing centres ride the same path: each is the mean of its shard's
//! live stored rows, bit for bit — stored values are multiples of one step,
//! so their sum is exact whether it was recomputed or maintained insert by
//! insert and remove by remove.

use pivot_metric_repro as pmr;
use pmr::engine::{EngineConfig, Layout, ShardedEngine};
use pmr::{
    build_sharded_engine, datasets, BruteForce, BuildOptions, IndexKind, Metric, MetricIndex, Mvpt,
    ObjId, PartitionPolicy, RefreshPolicy, UpdateBatch, L2,
};

fn bits(edge: &[f64]) -> Vec<u64> {
    edge.iter().map(|x| x.to_bits()).collect()
}

/// The one step of the engine's stored rows: the routing table's.
fn step_of(e: &ShardedEngine<Vec<f32>>) -> f64 {
    e.routing().expect("a routed engine").step()
}

/// Shard `s`'s box as the f64 edges the planner bounds with, one
/// `(lo, hi)` per dimension.
fn box_edges(e: &ShardedEngine<Vec<f32>>, s: usize) -> Vec<(f64, f64)> {
    let rt = e.routing().expect("a routed engine");
    rt.boxes()[s].edges(rt.step()).collect()
}

/// By hand: what `x` is stored as under `step` and the bucket that stands
/// for — `⌊x / step⌋` steps, 65 535 at most, the last one open above.
fn bucket(x: f64, step: f64) -> (f64, f64) {
    let code = (x / step).floor().min(65_535.0);
    let upper = if code == 65_535.0 {
        f64::INFINITY
    } else {
        (code + 1.0) * step
    };
    (code * step, upper)
}

/// Every routing box against the union of the buckets of the stored rows of
/// the objects the engine locates in that shard (ids below `id_bound`), and
/// every such object's stored row against its pivot map.
fn assert_boxes_tight(e: &ShardedEngine<Vec<f32>>, id_bound: ObjId, ctx: &str) {
    let rt = e.routing().expect("a routed engine");
    assert_rows_true(e, id_bound, &|o, row| rt.map_into(o, row), ctx);
}

/// [`assert_boxes_tight`] under a pivot map of the caller's (`map` clears
/// and fills its buffer), so that it also proves the router's mapper and
/// the caller's pivots agree.
fn assert_rows_true(
    e: &ShardedEngine<Vec<f32>>,
    id_bound: ObjId,
    map: &dyn Fn(&Vec<f32>, &mut Vec<f64>),
    ctx: &str,
) {
    let step = step_of(e);
    assert_eq!(step.to_bits() << 12, 0, "{ctx}: {step} is a power of two");
    // Per shard: the exact row of every live member.
    let mut rows: Vec<Vec<Vec<f64>>> = vec![Vec::new(); e.num_shards()];
    for g in 0..id_bound {
        let Some((s, local)) = e.locate(g) else {
            continue;
        };
        let o = e.get(g).expect("a located id is live");
        let mut exact = Vec::new();
        map(&o, &mut exact);
        let held: Vec<f64> = (e.shards()[s].codes(local))
            .map(|c| f64::from(c) * step)
            .collect();
        let floored: Vec<f64> = exact.iter().map(|&x| bucket(x, step).0).collect();
        assert_eq!(
            bits(&held),
            bits(&floored),
            "{ctx}: row of id {g} in shard {s}"
        );
        rows[s].push(exact);
    }
    assert_eq!(rows.iter().map(Vec::len).sum::<usize>(), e.len(), "{ctx}");
    let rt = e.routing().expect("a routed engine");
    let dim = rt.boxes()[0].dim();
    for (s, (got, rows)) in rt.boxes().iter().zip(&rows).enumerate() {
        if rows.is_empty() {
            assert!(got.is_empty(), "{ctx}: shard {s} has no member");
            continue;
        }
        let (mut lo, mut hi) = (vec![f64::INFINITY; dim], vec![f64::NEG_INFINITY; dim]);
        for exact in rows {
            for (j, &x) in exact.iter().enumerate() {
                let (below, above) = bucket(x, step);
                assert!(below <= x && x <= above);
                lo[j] = lo[j].min(below);
                hi[j] = hi[j].max(above);
            }
        }
        let (got_lo, got_hi): (Vec<f64>, Vec<f64>) = got.edges(step).unzip();
        assert_eq!(bits(&got_lo), bits(&lo), "{ctx}: shard {s} lo");
        assert_eq!(bits(&got_hi), bits(&hi), "{ctx}: shard {s} hi");
    }
}

/// One stored form: every leaf entry of every shard's VPT / MVPT holds,
/// code for code, what the shard's columns store for that member under the
/// one step, and the leaves hold every live member once. Returns the trees'
/// total node count.
fn assert_leaf_codes_are_the_columns(e: &ShardedEngine<Vec<f32>>, ctx: &str) -> usize {
    let step = step_of(e);
    let mut nodes = 0;
    for (s, shard) in e.shards().iter().enumerate() {
        let tree = shard
            .index()
            .as_any()
            .and_then(|a| a.downcast_ref::<Mvpt<Vec<f32>, L2>>())
            .expect("a tree shard");
        assert_eq!(tree.step(), step, "{ctx}: shard {s} step");
        let mut held: Vec<ObjId> = Vec::new();
        for (local, codes) in tree.leaf_codes() {
            let stored: Vec<u16> = shard.codes(local).take(codes.len()).collect();
            assert_eq!(codes, stored, "{ctx}: shard {s} slot {local}");
            held.push(local);
        }
        held.sort_unstable();
        let live: Vec<ObjId> = shard.live_members().map(|(local, _)| local).collect();
        assert_eq!(held, live, "{ctx}: shard {s} leaf entries");
        nodes += tree.node_count();
    }
    nodes
}

/// Every routing centre against the mean of the shard's live stored rows,
/// bit for bit. Nothing to check on an engine that routes nothing.
fn assert_centres_true(e: &ShardedEngine<Vec<f32>>, ctx: &str) {
    let Some(rt) = e.routing() else {
        return;
    };
    for (s, shard) in e.shards().iter().enumerate() {
        let mut sum = vec![0.0f64; rt.boxes()[s].dim()];
        let mut count = 0u64;
        for (local, _) in shard.live_members() {
            for (t, c) in sum.iter_mut().zip(shard.codes(local)) {
                *t += f64::from(c) * rt.step();
            }
            count += 1;
        }
        let got: Option<Vec<f64>> = rt.centre(s).map(|c| c.collect());
        let Some(got) = got else {
            assert_eq!(count, 0, "{ctx}: shard {s} has members and no centre");
            continue;
        };
        let want: Vec<f64> = sum.iter().map(|t| t / count as f64).collect();
        assert_eq!(bits(&got), bits(&want), "{ctx}: shard {s} centre");
    }
}

fn hfi_pivots(pts: &[Vec<f32>]) -> Vec<Vec<f32>> {
    pmr::pivots::select_hfi(pts, &L2, 5, 21)
        .into_iter()
        .map(|i| pts[i].clone())
        .collect()
}

fn engine(kind: IndexKind, pts: &[Vec<f32>], refresh: RefreshPolicy) -> ShardedEngine<Vec<f32>> {
    engine_over(kind, pts, hfi_pivots(pts), refresh, 6)
}

fn engine_over(
    kind: IndexKind,
    pts: &[Vec<f32>],
    pivots: Vec<Vec<f32>>,
    refresh: RefreshPolicy,
    shards: usize,
) -> ShardedEngine<Vec<f32>> {
    let opts = BuildOptions {
        d_plus: 14143.0,
        maxnum: 48,
        ..BuildOptions::default()
    };
    let cfg = EngineConfig {
        shards,
        threads: 1,
        refresh,
        ..EngineConfig::default()
    };
    let policy = PartitionPolicy::PivotSpace;
    build_sharded_engine(kind, pts.to_vec(), L2, pivots, &opts, &cfg, policy).unwrap()
}

/// The shard pairs whose routing boxes overlap by more than one bucket on
/// every dimension (the two sides of a k-d cut share at most the bucket
/// the cut falls in), and the live objects whose exact map lies inside two
/// boxes or more.
fn box_overlaps(e: &ShardedEngine<Vec<f32>>, id_bound: ObjId) -> (usize, usize) {
    let rt = e.routing().expect("a routed engine");
    let boxes: Vec<Vec<(f64, f64)>> = (0..e.num_shards()).map(|s| box_edges(e, s)).collect();
    let mut pairs = 0;
    for a in 0..boxes.len() {
        for b in a + 1..boxes.len() {
            let wide = boxes[a]
                .iter()
                .zip(&boxes[b])
                .all(|(x, y)| x.1.min(y.1) - x.0.max(y.0) > rt.step());
            pairs += usize::from(wide);
        }
    }
    let mut row = Vec::new();
    let mut inside_two = 0;
    for g in 0..id_bound {
        let Some(o) = e.get(g) else {
            continue;
        };
        rt.map_into(&o, &mut row);
        let holders = boxes
            .iter()
            .filter(|b| b.iter().zip(&row).all(|(&(lo, hi), &x)| lo <= x && x <= hi))
            .count();
        inside_two += usize::from(holders >= 2);
    }
    (pairs, inside_two)
}

/// The tables own their rows; the shards of the tree and the disk index
/// hold them beside the index.
const KINDS: [IndexKind; 4] = [
    IndexKind::Laesa,
    IndexKind::Cpt,
    IndexKind::Mvpt,
    IndexKind::OmniR,
];

/// Right after build, before any commit: every row a shard holds stores its
/// object's pivot map under the pivots the engine was built over (not the
/// router's own mapper — this also proves the two agree), and every box is
/// tight. An adopting kind and one whose shards hold the rows.
#[test]
fn a_fresh_build_holds_true_rows_and_tight_boxes() {
    let pts = datasets::la(600, 21);
    let pivots = hfi_pivots(&pts);
    let map = |o: &Vec<f32>, row: &mut Vec<f64>| {
        row.clear();
        row.extend(pivots.iter().map(|p| L2.dist(o, p)));
    };
    for kind in [IndexKind::Laesa, IndexKind::Mvpt] {
        let e = engine(kind, &pts, RefreshPolicy::disabled());
        let ctx = format!("{} fresh build", kind.label());
        assert_rows_true(&e, 600, &map, &ctx);
        assert_centres_true(&e, &ctx);
    }
}

#[test]
fn seeded_random_batches_keep_every_box_tight() {
    let pts = datasets::la(600, 21);
    let pool = datasets::la(400, 77);
    let pivots = hfi_pivots(&pts);
    let map = |o: &Vec<f32>, row: &mut Vec<f64>| {
        row.clear();
        row.extend(pivots.iter().map(|p| L2.dist(o, p)));
    };
    for kind in KINDS {
        let label = kind.label();
        let mut e = engine(kind, &pts, RefreshPolicy::disabled());
        assert_rows_true(&e, 600, &map, &format!("{label} fresh build"));
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |below: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) as usize % below
        };
        let (mut id_bound, mut fed, mut reboxed) = (600 as ObjId, 0, 0);
        for commit in 0..12 {
            let mut batch = UpdateBatch::new();
            for _ in 0..draw(40) {
                batch.insert(pool[fed % pool.len()].clone());
                fed += 1;
            }
            // Removes of live, dead and not-yet-assigned ids alike.
            for _ in 0..draw(60) {
                batch.remove(draw(id_bound as usize + 8) as ObjId);
            }
            let report = e.apply(&batch);
            id_bound += report.inserts as ObjId;
            reboxed += report.reboxed_shards;
            if commit % 4 == 3 {
                e.heal();
            }
            let ctx = format!("{label} commit {commit}");
            assert_rows_true(&e, id_bound, &map, &ctx);
            assert_centres_true(&e, &ctx);
        }
        assert!(reboxed > 0, "{label}: some remove hit a face");
        assert!(e.compact() > 0, "{label}: churn left dead rows");
        let ctx = format!("{label} compacted");
        assert_rows_true(&e, e.len() as ObjId, &map, &ctx);
        assert_centres_true(&e, &ctx);
    }
}

#[test]
fn a_commit_that_reclusters_leaves_tight_boxes() {
    let pts = datasets::la(400, 21);
    let refresh = RefreshPolicy {
        max_imbalance: 2.0,
        min_objects: 50,
    };
    for kind in KINDS {
        let mut e = engine(kind, &pts, refresh);
        // 300 near-duplicates of one region all route to one shard.
        let mut batch = UpdateBatch::new();
        for i in 0..300 {
            let mut o = pts[7].clone();
            o[0] += (i % 17) as f32;
            o[1] += (i % 13) as f32;
            batch.insert(o);
        }
        let report = e.apply(&batch);
        assert_eq!(report.reclusters, 1, "{}", kind.label());
        assert!(report.moved_objects > 0);
        assert_eq!(report.reboxed_shards, e.num_shards());
        assert_boxes_tight(&e, 700, kind.label());
        assert_centres_true(&e, kind.label());
    }

    // Removes empty one k-d cell (120 of shard 3's 150 members, P = 4): the
    // re-cluster re-cuts every shard, so the cells stay as disjoint and as
    // balanced as a fresh build's over the same live set.
    let pts = datasets::la(600, 21);
    let pivots = hfi_pivots(&pts);
    for kind in KINDS {
        let label = kind.label();
        let mut e = engine_over(kind, &pts, pivots.clone(), RefreshPolicy::default(), 4);
        let mut batch = UpdateBatch::new();
        for (_, gid) in e.shards()[3].live_members().take(120) {
            batch.remove(gid);
        }
        let report = e.apply(&batch);
        assert_eq!((report.removes, report.reclusters), (120, 1), "{label}");
        assert_eq!(report.reboxed_shards, e.num_shards(), "{label}");
        assert_boxes_tight(&e, 600, label);
        assert_centres_true(&e, label);

        let (pairs, inside_two) = box_overlaps(&e, 600);
        assert_eq!(pairs, 0, "{label}: boxes overlapping past a cut bucket");
        let live: Vec<Vec<f32>> = (0..600).filter_map(|g| e.get(g)).collect();
        let n = live.len();
        let fresh = engine_over(kind, &live, pivots.clone(), RefreshPolicy::default(), 4);
        let (_, fresh_two) = box_overlaps(&fresh, n as ObjId);
        assert!(
            inside_two <= fresh_two,
            "{label}: {inside_two} objects inside two boxes, a fresh build {fresh_two}"
        );
        let sizes: Vec<usize> = e.shards().iter().map(|s| s.len()).collect();
        let balanced: Vec<usize> = (0..4).map(|s| n / 4 + usize::from(s < n % 4)).collect();
        assert_eq!(sizes, balanced, "{label}");
    }
}

/// The trees' leaf codes stay the shard's column codes through every write
/// path: a build, inserts that split leaves, removes, a commit that
/// re-clusters and a `compact()`.
#[test]
fn tree_leaves_store_the_shard_columns_codes() {
    let pts = datasets::la(400, 21);
    let refresh = RefreshPolicy {
        max_imbalance: 2.0,
        min_objects: 50,
    };
    let near = |i: usize| {
        let mut o = pts[7].clone();
        o[0] += (i % 17) as f32;
        o[1] += (i % 13) as f32;
        o
    };
    for kind in [IndexKind::Vpt, IndexKind::Mvpt] {
        let label = kind.label();
        let mut e = engine(kind, &pts, refresh);
        let built = assert_leaf_codes_are_the_columns(&e, &format!("{label} build"));

        // Forty near-duplicates land in one leaf and split it, short of
        // the imbalance that re-clusters.
        let mut batch = UpdateBatch::new();
        for i in 0..40 {
            batch.insert(near(i));
        }
        let report = e.apply(&batch);
        assert_eq!((report.inserts, report.reclusters), (40, 0), "{label}");
        let split = assert_leaf_codes_are_the_columns(&e, &format!("{label} inserts"));
        assert!(split > built, "{label}: a leaf split");

        let mut batch = UpdateBatch::new();
        for g in (0..440).step_by(7) {
            batch.remove(g);
        }
        assert_eq!(e.apply(&batch).removes, 63, "{label}");
        assert_leaf_codes_are_the_columns(&e, &format!("{label} removes"));

        let mut batch = UpdateBatch::new();
        for i in 0..300 {
            batch.insert(near(i));
        }
        assert_eq!(e.apply(&batch).reclusters, 1, "{label}");
        assert_leaf_codes_are_the_columns(&e, &format!("{label} re-cluster"));

        assert_eq!(e.compact(), 63, "{label}");
        assert_leaf_codes_are_the_columns(&e, &format!("{label} compacted"));
    }
}

/// Two 1-d clusters under one pivot at the origin, so a row is the
/// object's coordinate: shard 0 holds 0..=9 (even ids), shard 1 holds
/// 100..=109 (odd ids; id `2i + 1` is `100 + i`).
fn two_clusters() -> ShardedEngine<Vec<f32>> {
    let objects: Vec<Vec<f32>> = (0..20)
        .map(|i| vec![(i % 2 * 100 + i / 2) as f32])
        .collect();
    let membership: Vec<usize> = (0..20).map(|i| i % 2).collect();
    let mapper = |o: &[f32], out: &mut Vec<f64>| out.push(L2.dist(o, &[0.0f32]));
    ShardedEngine::build(
        objects,
        Layout::mapped(1, mapper).with_membership(&membership),
        &EngineConfig {
            shards: 2,
            threads: 1,
            refresh: RefreshPolicy::disabled(),
            ..EngineConfig::default()
        },
        |_, part, _| -> Result<Box<dyn MetricIndex<Vec<f32>>>, ()> {
            Ok(Box::new(BruteForce::new(part, L2)))
        },
    )
    .unwrap()
}

fn edges(e: &ShardedEngine<Vec<f32>>, s: usize) -> (f64, f64) {
    box_edges(e, s)[0]
}

#[test]
fn only_a_member_on_a_face_triggers_a_recomputation() {
    let mut e = two_clusters();
    let id_of = |x: u32| 2 * (x - 100) + 1;
    // Distances up to 109: 65 535 steps of 2⁻⁹ reach just under 128. An
    // integer is stored as itself and stands for one step above it.
    let step = e.routing().unwrap().step();
    assert_eq!(step, 2f64.powi(-9));
    let widened = |lo: f64, hi: f64| (lo, hi + step);
    assert_eq!(edges(&e, 1), widened(100.0, 109.0));

    // Interior members only: nothing to recompute, nothing changes.
    let mut interior = UpdateBatch::new();
    for x in 102..=106 {
        interior.remove(id_of(x));
    }
    let report = e.apply(&interior);
    assert_eq!((report.removes, report.reboxed_shards), (5, 0));
    assert_eq!(edges(&e, 1), widened(100.0, 109.0));
    assert_boxes_tight(&e, 20, "interior-only batch");
    // No box was recomputed, yet shard 1's centre let the five rows go:
    // {100, 101, 107, 108, 109} remain.
    assert_centres_true(&e, "interior-only batch");
    let centre: Vec<f64> = e.routing().unwrap().centre(1).unwrap().collect();
    assert_eq!(centre, [105.0]);

    // The member on the upper face: one box recomputed, and it shrinks.
    let mut face = UpdateBatch::new();
    face.remove(id_of(109));
    let report = e.apply(&face);
    assert_eq!((report.removes, report.reboxed_shards), (1, 1));
    assert_eq!(edges(&e, 1), widened(100.0, 108.0));
    assert_boxes_tight(&e, 20, "face point");
    assert_centres_true(&e, "face point");

    // A duplicate row shares the face: removing one of the two touches
    // the face, so the box is recomputed — to the same box.
    let twin = e.insert(vec![108.0]);
    assert_eq!(twin, 20);
    assert_eq!(e.locate(twin).unwrap().0, 1);
    let mut dup = UpdateBatch::new();
    dup.remove(id_of(108));
    let report = e.apply(&dup);
    assert_eq!((report.removes, report.reboxed_shards), (1, 1));
    assert_eq!(edges(&e, 1), widened(100.0, 108.0));
    assert_boxes_tight(&e, 21, "duplicate on a face");
    assert_centres_true(&e, "duplicate on a face");

    // Insert and remove of one object in a single batch: the insert grows
    // the staged box — 200 is beyond the top bucket, so it is stored
    // saturated and opens the box above — the remove finds its (still
    // staged) row on the new face, and the recomputation takes the box
    // back.
    let mut both = UpdateBatch::new();
    both.insert(vec![200.0]).remove(21);
    let report = e.apply(&both);
    assert_eq!((report.inserts, report.removes), (1, 1));
    assert_eq!(report.reboxed_shards, 1);
    assert_eq!(edges(&e, 1), widened(100.0, 108.0));
    assert_boxes_tight(&e, 22, "insert and remove in one batch");
    assert_centres_true(&e, "insert and remove in one batch");

    // The shard emptied: the box is the empty box, which every query prunes.
    let mut rest = UpdateBatch::new();
    for g in (0..22).filter(|&g| e.locate(g).is_some_and(|(s, _)| s == 1)) {
        rest.remove(g);
    }
    let report = e.apply(&rest);
    assert_eq!(report.removes, 4);
    assert_eq!(report.reboxed_shards, 1);
    assert!(e.routing().unwrap().boxes()[1].is_empty());
    assert!(e.routing().unwrap().centre(1).is_none());
    assert_boxes_tight(&e, 22, "a shard emptied");
    assert_centres_true(&e, "a shard emptied");
    assert_eq!(
        edges(&e, 0),
        widened(0.0, 9.0),
        "the other shard was never touched"
    );
}

/// Objects farther from every pivot than any build-time member are stored
/// saturated: their shard's box opens above on every dimension, they are
/// still found (and still pruned from afar), removing them — or a member on
/// a lower face — recomputes the box, and a compaction keeps the step.
/// Answers are `BruteForce`'s id for id throughout. In VPT and MVPT shards
/// the saturated members' leaf codes are the top code too, as the columns
/// hold them.
#[test]
fn inserts_beyond_the_top_bucket_saturate_and_stay_exact() {
    let pts = datasets::la(600, 21);
    let pivots = hfi_pivots(&pts);
    let map = |o: &Vec<f32>, row: &mut Vec<f64>| {
        row.clear();
        row.extend(pivots.iter().map(|p| L2.dist(o, p)));
    };
    // LA lies in [0, 10⁴]²: distances stay under 14 143, the step is 0.25
    // and the top bucket starts at 16 383.75. These are 40 000 and more
    // from all of it, in two far-apart groups.
    let far: Vec<Vec<f32>> = (0..12)
        .map(|i| {
            let along = 1_000.0 * (i / 2) as f32;
            if i % 2 == 0 {
                vec![60_000.0 + along, 55_000.0]
            } else {
                vec![-45_000.0, -50_000.0 - along]
            }
        })
        .collect();
    let same_answers = |e: &ShardedEngine<Vec<f32>>, live: &[(ObjId, Vec<f32>)], ctx: &str| {
        let oracle = BruteForce::new(live.iter().map(|(_, o)| o.clone()).collect::<Vec<_>>(), L2);
        let gid = |local: ObjId| live[local as usize].0;
        for q in [&far[0], &far[1], &far[7], &pts[3], &pts[411]] {
            for r in [0.0, 900.0, 5_000.0, 80_000.0] {
                let mut got = e.range_query(q, r);
                got.sort_unstable();
                let want: Vec<ObjId> = oracle.range_query(q, r).into_iter().map(gid).collect();
                assert_eq!(got, want, "{ctx}: range {r} around {q:?}");
            }
            let got = e.knn_query(q, 9);
            let want = oracle.knn_query(q, 9);
            assert_eq!(got.len(), want.len(), "{ctx}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    (g.id, g.dist.to_bits()),
                    (gid(w.id), w.dist.to_bits()),
                    "{ctx}"
                );
            }
        }
    };
    // The tables own their rows; the trees' leaves hold the columns' codes.
    let trees = |e: &ShardedEngine<Vec<f32>>, ctx: &str| {
        if e.shards()[0].index().pivot_rows().is_none() {
            assert_leaf_codes_are_the_columns(e, ctx);
        }
    };
    for kind in [
        IndexKind::Laesa,
        IndexKind::Cpt,
        IndexKind::Vpt,
        IndexKind::Mvpt,
    ] {
        let label = kind.label();
        let mut e = engine(kind, &pts, RefreshPolicy::disabled());
        let step = step_of(&e);
        assert_eq!(step, 0.25, "{label}");
        let mut live: Vec<(ObjId, Vec<f32>)> = (0..).zip(pts.iter().cloned()).collect::<Vec<_>>();

        let mut batch = UpdateBatch::new();
        for o in &far {
            batch.insert(o.clone());
        }
        assert_eq!(e.apply(&batch).inserts, 12, "{label}");
        live.extend((600..).zip(far.iter().cloned()));
        let ctx = format!("{label} saturated inserts");
        for g in 600..612 {
            let (s, local) = e.locate(g).unwrap();
            assert!(
                e.shards()[s].codes(local).all(|c| c == u16::MAX),
                "{ctx}: id {g} is beyond the top bucket on every pivot"
            );
        }
        assert_rows_true(&e, 612, &map, &ctx);
        assert_centres_true(&e, &ctx);
        let open = |e: &ShardedEngine<Vec<f32>>| {
            let open_above = |s| box_edges(e, s)[0].1 == f64::INFINITY;
            (0..e.num_shards()).filter(|&s| open_above(s)).count()
        };
        assert!(open(&e) > 0, "{ctx}: a box is open above");
        trees(&e, &ctx);
        same_answers(&e, &live, &ctx);

        // The saturated members sit on their boxes' (open) upper faces,
        // and each shard's nearest member to pivot 0 on a lower one.
        let mut faces = UpdateBatch::new();
        for g in (600..612).filter(|g| g % 3 != 0) {
            faces.remove(g);
        }
        for shard in e.shards() {
            let nearest = shard.live_members().min_by(|a, b| {
                let first = |local| shard.codes(local).next().unwrap();
                first(a.0).cmp(&first(b.0)).then(a.1.cmp(&b.1))
            });
            faces.remove(nearest.unwrap().1);
        }
        let report = e.apply(&faces);
        assert_eq!(report.removes, 8 + 6, "{label}");
        assert!(report.reboxed_shards > 0, "{label}");
        live.retain(|(g, _)| e.locate(*g).is_some());
        let ctx = format!("{label} face removes");
        assert_rows_true(&e, 612, &map, &ctx);
        assert_centres_true(&e, &ctx);
        trees(&e, &ctx);
        same_answers(&e, &live, &ctx);

        // The rest of them gone: every box closes again.
        let mut rest = UpdateBatch::new();
        for g in (600..612).filter(|g| g % 3 == 0) {
            rest.remove(g);
        }
        assert_eq!(e.apply(&rest).removes, 4, "{label}");
        assert_eq!(open(&e), 0, "{label}: no saturated member, no open box");
        // One comes back, and a compaction keeps the step it is under.
        let back = e.insert(far[5].clone());
        live.retain(|(g, _)| e.locate(*g).is_some());
        live.push((back, far[5].clone()));
        assert!(e.compact() > 0, "{label}");
        let live: Vec<(ObjId, Vec<f32>)> = (0..).zip(live.into_iter().map(|(_, o)| o)).collect();
        let ctx = format!("{label} compacted");
        assert_eq!(step_of(&e), step, "{ctx}");
        assert_rows_true(&e, live.len() as ObjId, &map, &ctx);
        assert_centres_true(&e, &ctx);
        assert!(open(&e) > 0, "{ctx}");
        trees(&e, &ctx);
        same_answers(&e, &live, &ctx);
    }
}
