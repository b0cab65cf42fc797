//! BKT and FQT (paper §4.1–4.2): bucketed trees for discrete metrics.
//!
//! BKT chooses a pivot per sub-tree (randomly, per the paper) and sends
//! objects at distance `i` to the `i`-th child; FQT uses the same pivot for
//! every node of a level. To avoid empty sub-trees on large distance
//! domains "every sub-tree covers the same range of distance values"
//! (§4.1 discussion): children are distance *buckets* of equal width.

use pmi_metric::{
    Counters, CountingMetric, KnnBest, Metric, MetricIndex, Neighbor, ObjId, ObjTable, Object,
    QueryScratch, StorageFootprint,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Which pivot policy the tree uses: `true` = FQT (fixed pivot per level
/// from the shared set), `false` = BKT (random pivot per sub-tree).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Bkt,
    Fqt,
}

/// Construction parameters for [`DiscreteTree`].
#[derive(Clone, Debug)]
pub struct DiscreteTreeConfig {
    /// Upper bound on distances (the discrete domain is `0..=max_distance`).
    pub max_distance: f64,
    /// Number of buckets per node (children cover equal distance ranges).
    pub buckets: usize,
    /// Leaf capacity before a split is attempted.
    pub leaf_cap: usize,
    /// Maximum tree depth (FQT is bounded by the pivot count anyway).
    pub max_depth: usize,
    /// RNG seed for BKT's random pivots.
    pub seed: u64,
}

impl Default for DiscreteTreeConfig {
    fn default() -> Self {
        DiscreteTreeConfig {
            max_distance: 100.0,
            buckets: 32,
            leaf_cap: 8,
            max_depth: 16,
            seed: 42,
        }
    }
}

#[derive(Clone)]
enum Node<O> {
    Internal {
        /// The pivot object, owned by the node so that routing never breaks
        /// when the underlying dataset object is removed.
        pivot: O,
        /// `children[b]` covers distances `[b·w, (b+1)·w)`.
        children: Vec<Option<Arc<Node<O>>>>,
    },
    Leaf {
        ids: Vec<ObjId>,
    },
}

/// BKT / FQT over a discrete metric.
///
/// Cloning — the [`MetricIndex::fork`] — shares every node (the root and
/// all children sit behind `Arc`s), the object table's chunks and the
/// distance counter. `insert` / `remove` descend with `Arc::make_mut`: a
/// sole owner copies nothing, a fork copies the root-to-leaf path it
/// writes and nothing else.
#[derive(Clone)]
pub struct DiscreteTree<O: Object, M> {
    kind: Kind,
    metric: CountingMetric<M>,
    /// FQT: the shared per-level pivots.
    level_pivots: Vec<O>,
    cfg: DiscreteTreeConfig,
    root: Option<Arc<Node<O>>>,
    table: ObjTable<O>,
    rng: StdRng,
    node_count: usize,
}

impl<O, M> DiscreteTree<O, M>
where
    O: Object,
    M: Metric<O>,
{
    /// Builds a BKT (random pivots per sub-tree) over `objects`, a
    /// `Vec<O>` or an [`ObjTable`] it adopts as it is.
    ///
    /// # Panics
    ///
    /// If `objects` is a table with a removed slot ([`ObjTable::fresh`]).
    pub fn bkt(objects: impl Into<ObjTable<O>>, metric: M, cfg: DiscreteTreeConfig) -> Self {
        Self::build(objects, metric, Kind::Bkt, Vec::new(), cfg)
    }

    /// Builds an FQT with one shared pivot per level, over objects as
    /// [`bkt`](Self::bkt) takes them.
    pub fn fqt(
        objects: impl Into<ObjTable<O>>,
        metric: M,
        level_pivots: Vec<O>,
        cfg: DiscreteTreeConfig,
    ) -> Self {
        assert!(!level_pivots.is_empty(), "FQT needs at least one pivot");
        Self::build(objects, metric, Kind::Fqt, level_pivots, cfg)
    }

    fn build(
        objects: impl Into<ObjTable<O>>,
        metric: M,
        kind: Kind,
        level_pivots: Vec<O>,
        cfg: DiscreteTreeConfig,
    ) -> Self {
        assert!(
            metric.is_discrete(),
            "BKT/FQT require a discrete distance function (paper §4.1)"
        );
        assert!(cfg.buckets >= 2 && cfg.max_distance > 0.0);
        let metric = CountingMetric::new(metric);
        let mut t = DiscreteTree {
            kind,
            metric,
            level_pivots,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x424b54),
            cfg,
            root: None,
            table: ObjTable::fresh(objects),
            node_count: 0,
        };
        let ids: Vec<ObjId> = t.table.iter().map(|(i, _)| i).collect();
        t.root = Some(Arc::new(t.build_node(ids, 0)));
        t
    }

    fn bucket_width(&self) -> f64 {
        (self.cfg.max_distance / self.cfg.buckets as f64).max(1.0)
    }

    fn max_depth(&self) -> usize {
        match self.kind {
            Kind::Bkt => self.cfg.max_depth,
            Kind::Fqt => self.level_pivots.len(),
        }
    }

    fn pick_pivot(&mut self, ids: &[ObjId], depth: usize) -> O {
        match self.kind {
            Kind::Bkt => {
                let id = ids[self.rng.random_range(0..ids.len())];
                self.table.get(id).expect("pivot object live").to_owned()
            }
            Kind::Fqt => self.level_pivots[depth].clone(),
        }
    }

    fn build_node(&mut self, ids: Vec<ObjId>, depth: usize) -> Node<O> {
        self.node_count += 1;
        if ids.len() <= self.cfg.leaf_cap || depth >= self.max_depth() {
            return Node::Leaf { ids };
        }
        let pivot = self.pick_pivot(&ids, depth);
        let w = self.bucket_width();
        let mut parts: Vec<Vec<ObjId>> = vec![Vec::new(); self.cfg.buckets];
        for id in ids {
            let o = self.table.get(id).expect("live");
            let d = self.metric.dist(o, &pivot);
            let b = ((d / w) as usize).min(self.cfg.buckets - 1);
            parts[b].push(id);
        }
        // A pivot that fails to discriminate (everything in one bucket)
        // would recurse forever — fall back to a leaf.
        if parts.iter().filter(|p| !p.is_empty()).count() <= 1 && self.kind == Kind::Bkt {
            let ids = parts.into_iter().flatten().collect();
            return Node::Leaf { ids };
        }
        let children = parts
            .into_iter()
            .map(|p| (!p.is_empty()).then(|| Arc::new(self.build_node(p, depth + 1))))
            .collect();
        Node::Internal { pivot, children }
    }

    /// Nodes in the tree (diagnostics).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The instrumented metric.
    pub fn metric(&self) -> &CountingMetric<M> {
        &self.metric
    }

    fn range_rec(&self, node: &Node<O>, q: &O, r: f64, out: &mut Vec<ObjId>) {
        match node {
            Node::Leaf { ids } => {
                for &id in ids {
                    if let Some(o) = self.table.get(id) {
                        if self.metric.dist(q, o) <= r {
                            out.push(id);
                        }
                    }
                }
            }
            Node::Internal { pivot, children } => {
                let dq = self.metric.dist(q, pivot);
                let w = self.bucket_width();
                for (b, child) in children.iter().enumerate() {
                    let Some(child) = child else { continue };
                    let lo = b as f64 * w;
                    let hi = if b + 1 == children.len() {
                        f64::INFINITY
                    } else {
                        (b + 1) as f64 * w
                    };
                    // Lemma 1 on the bucket range: objects in this child have
                    // d(o, p) ∈ [lo, hi).
                    if dq + r < lo || dq - r >= hi {
                        continue;
                    }
                    self.range_rec(child, q, r, out);
                }
            }
        }
    }
}

impl<O, M> MetricIndex<O> for DiscreteTree<O, M>
where
    O: Object,
    M: Metric<O> + Clone + 'static,
{
    fn name(&self) -> &str {
        match self.kind {
            Kind::Bkt => "BKT",
            Kind::Fqt => "FQT",
        }
    }

    fn fork(&self) -> Box<dyn MetricIndex<O>> {
        Box::new(self.clone())
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn range_query_into(&self, q: &O, r: f64, _scratch: &mut QueryScratch, out: &mut Vec<ObjId>) {
        if let Some(root) = &self.root {
            self.range_rec(root, q, r, out);
        }
    }

    fn knn_query_into_seeded(
        &self,
        q: &O,
        k: usize,
        seed: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<Neighbor>,
    ) {
        if k == 0 || self.table.is_empty() {
            return;
        }
        let Some(root) = &self.root else { return };
        // Best-first: nodes ordered by the lower bound accumulated from
        // bucket ranges along the path, under the one radius.
        let mut best = KnnBest::new(&mut scratch.heap, k, seed);
        let mut nodes: Vec<&Node<O>> = vec![&**root];
        let mut frontier: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        frontier.push(Reverse((0, 0)));
        while let Some(Reverse((lb_bits, idx))) = frontier.pop() {
            let lb = f64::from_bits(lb_bits);
            if lb > best.radius() {
                break;
            }
            match nodes[idx] {
                Node::Leaf { ids } => {
                    for &id in ids {
                        if let Some(o) = self.table.get(id) {
                            best.offer(id, self.metric.dist(q, o));
                        }
                    }
                }
                Node::Internal { pivot, children } => {
                    let dq = self.metric.dist(q, pivot);
                    let w = self.bucket_width();
                    for (b, child) in children.iter().enumerate() {
                        let Some(child) = child else { continue };
                        let lo = b as f64 * w;
                        let hi = if b + 1 == children.len() {
                            f64::INFINITY
                        } else {
                            (b + 1) as f64 * w
                        };
                        let gap = if dq < lo {
                            lo - dq
                        } else if dq >= hi {
                            dq - hi
                        } else {
                            0.0
                        };
                        let child_lb = lb.max(gap);
                        if child_lb <= best.radius() {
                            nodes.push(&**child);
                            frontier.push(Reverse((child_lb.to_bits(), nodes.len() - 1)));
                        }
                    }
                }
            }
        }
        best.finish(out);
    }

    fn insert(&mut self, o: O) -> ObjId {
        let id = self.table.push(&o);
        let w = self.bucket_width();
        let buckets = self.cfg.buckets;
        let leaf_cap = self.cfg.leaf_cap;
        let max_depth = self.max_depth();
        // Descend to the leaf, splitting it if it overflows.
        let mut root = self
            .root
            .take()
            .unwrap_or_else(|| Arc::new(Node::Leaf { ids: Vec::new() }));
        {
            let mut node = Arc::make_mut(&mut root);
            let mut depth = 0usize;
            loop {
                match node {
                    Node::Internal { pivot, children } => {
                        let d = self.metric.dist(&o, pivot);
                        let b = ((d / w) as usize).min(buckets - 1);
                        if children[b].is_none() {
                            children[b] = Some(Arc::new(Node::Leaf { ids: vec![id] }));
                            self.node_count += 1;
                            self.root = Some(root);
                            return id;
                        }
                        node = Arc::make_mut(children[b].as_mut().unwrap());
                        depth += 1;
                    }
                    Node::Leaf { ids } => {
                        ids.push(id);
                        if ids.len() > leaf_cap && depth < max_depth {
                            let ids = std::mem::take(ids);
                            self.node_count -= 1; // rebuilt below
                            *node = self.build_node(ids, depth);
                        }
                        self.root = Some(root);
                        return id;
                    }
                }
            }
        }
    }

    fn remove(&mut self, id: ObjId) -> bool {
        // Nodes own their pivot objects, so removing the dataset object
        // never breaks routing: we just drop the id from its leaf.
        let Some(o) = self.table.get(id) else {
            return false;
        };
        let w = self.bucket_width();
        let buckets = self.cfg.buckets;
        let mut removed = false;
        let mut root = self.root.take();
        if let Some(root) = root.as_mut() {
            let mut node = Arc::make_mut(root);
            loop {
                match node {
                    Node::Internal { pivot, children } => {
                        let d = self.metric.dist(o, pivot);
                        let b = ((d / w) as usize).min(buckets - 1);
                        match children[b].as_mut() {
                            Some(c) => node = Arc::make_mut(c),
                            None => break,
                        }
                    }
                    Node::Leaf { ids } => {
                        if let Some(pos) = ids.iter().position(|&x| x == id) {
                            ids.swap_remove(pos);
                            removed = true;
                        }
                        break;
                    }
                }
            }
        }
        self.root = root;
        if removed {
            self.table.remove(id);
        }
        removed
    }

    fn object(&self, id: ObjId) -> Option<Cow<'_, O::Target>> {
        self.table.get(id).map(Cow::Borrowed)
    }

    fn storage(&self) -> StorageFootprint {
        let objs = self.table.encoded_bytes();
        // Rough structural accounting: each node has a pivot id + bucket
        // pointers; leaves hold ids.
        let structure =
            (self.node_count * (4 + self.cfg.buckets * 8)) as u64 + 4 * self.table.len() as u64;
        StorageFootprint::mem(objs + structure)
    }

    fn counters(&self) -> Counters {
        Counters {
            compdists: self.metric.count(),
            ..Counters::default()
        }
    }

    fn reset_counters(&self) {
        self.metric.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::datasets;
    use pmi_metric::{BruteForce, EditDistance, LInf};
    use pmi_pivots::select_hfi;

    fn cfg(maxd: f64) -> DiscreteTreeConfig {
        DiscreteTreeConfig {
            max_distance: maxd,
            buckets: 16,
            leaf_cap: 6,
            max_depth: 12,
            seed: 3,
        }
    }

    #[test]
    fn bkt_on_words_matches_brute_force() {
        let ws = datasets::words(300, 3);
        let idx = DiscreteTree::bkt(ws.clone(), EditDistance, cfg(34.0));
        let oracle = BruteForce::new(ws.clone(), EditDistance);
        for r in [1.0, 3.0, 8.0] {
            let mut got = idx.range_query(&ws[5], r);
            got.sort();
            let mut want = oracle.range_query(&ws[5], r);
            want.sort();
            assert_eq!(got, want, "r={r}");
        }
    }

    #[test]
    fn fqt_on_synthetic_matches_brute_force() {
        let pts = datasets::synthetic(400, 3);
        let m = LInf::discrete();
        let pv: Vec<Vec<f32>> = select_hfi(&pts, &m, 5, 3)
            .into_iter()
            .map(|i| pts[i].clone())
            .collect();
        let idx = DiscreteTree::fqt(pts.clone(), m, pv, cfg(10000.0));
        let oracle = BruteForce::new(pts.clone(), m);
        for r in [500.0, 2500.0] {
            let mut got = idx.range_query(&pts[17], r);
            got.sort();
            let mut want = oracle.range_query(&pts[17], r);
            want.sort();
            assert_eq!(got, want, "r={r}");
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        let ws = datasets::words(250, 9);
        let idx = DiscreteTree::bkt(ws.clone(), EditDistance, cfg(34.0));
        let oracle = BruteForce::new(ws.clone(), EditDistance);
        for k in [1usize, 5, 20] {
            let got = idx.knn_query(&ws[100], k);
            let want = oracle.knn_query(&ws[100], k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert!((g.dist - w.dist).abs() < 1e-9, "k={k}");
            }
        }
    }

    #[test]
    fn tree_prunes_versus_scan() {
        let ws = datasets::words(800, 1);
        let idx = DiscreteTree::bkt(ws.clone(), EditDistance, cfg(34.0));
        idx.reset_counters();
        let _ = idx.range_query(&ws[0], 1.0);
        let cd = idx.counters().compdists;
        assert!(cd < 800, "expected pruning, got {cd}");
    }

    #[test]
    #[should_panic]
    fn continuous_metric_rejected() {
        let pts = datasets::la(50, 1);
        let _ = DiscreteTree::bkt(pts, pmi_metric::L2, cfg(14000.0));
    }

    #[test]
    fn update_cycle() {
        let ws = datasets::words(200, 5);
        let idx_target = ws[150].clone();
        let mut idx = DiscreteTree::bkt(ws.clone(), EditDistance, cfg(34.0));
        assert!(idx.remove(150));
        assert!(!idx.remove(150));
        assert!(!idx.range_query(&idx_target, 0.0).contains(&150));
        let nid = idx.insert(idx_target.clone());
        assert!(idx.range_query(&idx_target, 0.0).contains(&nid));
        // Insert enough near-duplicates to force leaf splits.
        for i in 0..30 {
            let mut w = idx_target.clone();
            w.push(char::from(b'a' + (i % 26) as u8));
            idx.insert(w);
        }
        let oracle_data: Vec<String> = idx.table.to_vec();
        let oracle = BruteForce::new(oracle_data, EditDistance);
        let got = idx.knn_query(&idx_target, 10);
        let want = oracle.knn_query(&idx_target, 10);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist - w.dist).abs() < 1e-9);
        }
    }
}
