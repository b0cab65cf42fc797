//! Fork, then diverge: trees that share nodes behind `Arc`s and path-copy
//! what they write must each stay equal to a fresh build over their own
//! live set, however the generations interleave their writes.

use pmi_metric::{LInf, Metric, MetricIndex, ObjId, L2};
use pmi_trees::{DiscreteTree, DiscreteTreeConfig, Mvpt, MvptConfig};
use proptest::prelude::*;

type Point = Vec<f32>;

/// One generation: a tree and the model of what it holds.
struct Generation {
    tree: Box<dyn MetricIndex<Point>>,
    live: Vec<(ObjId, Point)>,
}

fn point(v: usize) -> Point {
    vec![(v % 100) as f32, (v / 100) as f32]
}

/// Runs `ops` over a chain of generations — each quarter of the stream
/// starts by forking the newest one, every op then writes to any of them,
/// so a node may be shared by all four, by some, or owned by one — and
/// checks each generation against `build` over its own live set.
fn fork_then_diverge<M: Metric<Point>>(
    initial: usize,
    ops: &[(usize, u8, usize)],
    metric: &M,
    build: impl Fn(Vec<Point>) -> Box<dyn MetricIndex<Point>>,
) {
    let objects: Vec<Point> = (0..initial).map(|i| point(i * 37)).collect();
    let mut gens = vec![Generation {
        tree: build(objects.clone()),
        live: (0..).zip(objects).collect(),
    }];
    for quarter in ops.chunks(ops.len().div_ceil(4)) {
        let newest = gens.last().expect("never empty");
        gens.push(Generation {
            tree: newest.tree.fork(),
            live: newest.live.clone(),
        });
        for &(g, kind, v) in quarter {
            let at = g % gens.len();
            let g = &mut gens[at];
            if kind < 4 || g.live.is_empty() {
                g.live.push((g.tree.insert(point(v)), point(v)));
            } else {
                let (id, _) = g.live.swap_remove(v % g.live.len());
                assert!(g.tree.remove(id));
            }
        }
    }
    assert!(gens.len() >= 4, "three forks deep");
    for (n, g) in gens.iter().enumerate() {
        assert_eq!(g.tree.len(), g.live.len());
        let fresh = build(g.live.iter().map(|(_, o)| o.clone()).collect());
        for q in [point(0), point(4_242), point(9_999)] {
            for r in [3.0, 20.0, 70.0] {
                let mut got = g.tree.range_query(&q, r);
                got.sort_unstable();
                let mut want: Vec<ObjId> = fresh
                    .range_query(&q, r)
                    .into_iter()
                    .map(|i| g.live[i as usize].0)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "generation {} r={}", n, r);
            }
            let got = g.tree.knn_query(&q, 7);
            let want = fresh.knn_query(&q, 7);
            assert_eq!(got.len(), want.len());
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.dist, b.dist, "generation {}", n);
                let o = &g.live.iter().find(|(id, _)| *id == a.id).expect("live").1;
                assert_eq!(metric.dist(&q, o), a.dist);
            }
        }
    }
}

fn discrete_cfg() -> DiscreteTreeConfig {
    DiscreteTreeConfig {
        max_distance: 100.0,
        buckets: 8,
        leaf_cap: 3,
        max_depth: 10,
        seed: 5,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mvpt_fork_then_diverge_equals_fresh_builds(
        initial in 1usize..160,
        arity in 2usize..6,
        ops in prop::collection::vec((0usize..8, 0u8..6, 0usize..10_000), 8..160),
    ) {
        let pivots: Vec<Point> = [0, 99, 9_900, 5_050].into_iter().map(point).collect();
        let cfg = MvptConfig { arity, leaf_cap: 4 };
        fork_then_diverge(initial, &ops, &L2, |objs| {
            Box::new(Mvpt::build(objs, L2, pivots.clone(), cfg))
        });
    }

    #[test]
    fn discrete_tree_fork_then_diverge_equals_fresh_builds(
        initial in 1usize..160,
        fqt in 0u8..2,
        ops in prop::collection::vec((0usize..8, 0u8..6, 0usize..10_000), 8..160),
    ) {
        let m = LInf::discrete();
        let pivots: Vec<Point> = [0, 99, 9_900, 5_050].into_iter().map(point).collect();
        fork_then_diverge(initial, &ops, &m, |objs| {
            if fqt == 1 {
                Box::new(DiscreteTree::fqt(objs, m, pivots.clone(), discrete_cfg()))
            } else {
                Box::new(DiscreteTree::bkt(objs, m, discrete_cfg()))
            }
        });
    }
}
