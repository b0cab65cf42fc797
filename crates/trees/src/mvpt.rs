//! VPT / MVPT (paper §4.3): (multi-way) vantage point trees for continuous
//! metrics.
//!
//! Each level splits a node's objects into `m` children at the quantiles of
//! their distances to the level's pivot; VPT is the `m = 2` case and the
//! paper fixes `m = 5` for MVPT. To allow apples-to-apples comparison with
//! the other indexes, nodes at the same level share the same pivot (§4.3),
//! taken from the workspace-wide HFI set. Leaves store, for each object,
//! its exact distances to all path pivots, enabling full Lemma 1 filtering
//! at the leaf level — this is the subset of pre-computed distances the
//! paper says the trees keep.

use pmi_metric::lemmas;
use pmi_metric::{
    Counters, CountingMetric, EncodeObject, KnnBest, Metric, MetricIndex, Neighbor, ObjId,
    ObjTable, QueryScratch, StorageFootprint,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Construction parameters for [`Mvpt`].
#[derive(Clone, Copy, Debug)]
pub struct MvptConfig {
    /// Arity `m` (2 = VPT; the paper uses 5 for MVPT).
    pub arity: usize,
    /// Leaf capacity.
    pub leaf_cap: usize,
}

impl Default for MvptConfig {
    fn default() -> Self {
        MvptConfig {
            arity: 5,
            leaf_cap: 16,
        }
    }
}

#[derive(Clone)]
enum Node {
    Internal {
        /// `m − 1` ascending cut values over d(o, pivot-of-level).
        cuts: Vec<f64>,
        children: Vec<Arc<Node>>,
    },
    Leaf {
        /// Object ids plus their distances to the path pivots
        /// (`pdists[i][lvl] = d(o_i, P[lvl])`). A row never changes once
        /// written, so a path copy of the leaf shares it: the copy is three
        /// allocations, not one per entry.
        ids: Vec<ObjId>,
        pdists: Vec<Arc<[f64]>>,
    },
}

/// MVPT (VPT when `arity == 2`).
///
/// Cloning — the [`MetricIndex::fork`] — shares every node (the root, all
/// children and each leaf entry's distance row sit behind `Arc`s), the
/// object table's chunks and the distance counter. `insert` / `remove`
/// descend with `Arc::make_mut`: a sole owner copies nothing, a fork
/// copies the root-to-leaf path it writes (≤ one node per level plus one
/// leaf's id and row-handle vectors) and nothing else.
#[derive(Clone)]
pub struct Mvpt<O, M> {
    metric: CountingMetric<M>,
    pivots: Vec<O>,
    cfg: MvptConfig,
    root: Arc<Node>,
    table: ObjTable<O>,
    node_count: usize,
}

impl<O, M> Mvpt<O, M>
where
    O: Clone + EncodeObject + Send + Sync + 'static,
    M: Metric<O>,
{
    /// Builds an MVPT with one shared pivot per level (`pivots[lvl]`).
    pub fn build(objects: Vec<O>, metric: M, pivots: Vec<O>, cfg: MvptConfig) -> Self {
        assert!(cfg.arity >= 2, "MVPT arity must be at least 2");
        assert!(!pivots.is_empty(), "MVPT needs at least one pivot");
        let metric = CountingMetric::new(metric);
        let table = ObjTable::new(objects);
        let mut t = Mvpt {
            metric,
            pivots,
            cfg,
            root: Arc::new(Node::Leaf {
                ids: Vec::new(),
                pdists: Vec::new(),
            }),
            table,
            node_count: 0,
        };
        let items: Vec<(ObjId, Vec<f64>)> =
            t.table.iter().map(|(id, _)| (id, Vec::new())).collect();
        t.root = Arc::new(t.build_node(items, 0));
        t
    }

    /// VPT: binary vantage point tree.
    pub fn vpt(objects: Vec<O>, metric: M, pivots: Vec<O>, leaf_cap: usize) -> Self {
        Self::build(objects, metric, pivots, MvptConfig { arity: 2, leaf_cap })
    }

    /// Arity `m`.
    pub fn arity(&self) -> usize {
        self.cfg.arity
    }

    /// Nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The instrumented metric.
    pub fn metric(&self) -> &CountingMetric<M> {
        &self.metric
    }

    /// Builds a subtree from `(id, path distances so far)` items.
    fn build_node(&mut self, mut items: Vec<(ObjId, Vec<f64>)>, level: usize) -> Node {
        self.node_count += 1;
        if items.len() <= self.cfg.leaf_cap || level >= self.pivots.len() {
            return Self::leaf(items);
        }
        // One distance computation per object per level: the n·l build cost
        // shared by all pivot-based structures (Table 4).
        let pivot = self.pivots[level].clone();
        for (id, pd) in &mut items {
            let o = self.table.get(*id).expect("live");
            pd.push(self.metric.dist(o, &pivot));
        }
        items.sort_by(|a, b| a.1[level].total_cmp(&b.1[level]));
        // Quantile cuts (medians for m = 2).
        let m = self.cfg.arity;
        let cuts: Vec<f64> = (1..m)
            .map(|i| items[(items.len() * i / m).min(items.len() - 1)].1[level])
            .collect();
        let mut parts: Vec<Vec<(ObjId, Vec<f64>)>> = (0..m).map(|_| Vec::new()).collect();
        'outer: for item in items {
            for (i, c) in cuts.iter().enumerate() {
                if item.1[level] <= *c {
                    parts[i].push(item);
                    continue 'outer;
                }
            }
            parts[m - 1].push(item);
        }
        // Degenerate cuts (all-equal distances): keep as a leaf.
        if parts.iter().filter(|p| !p.is_empty()).count() <= 1 {
            return Self::leaf(parts.into_iter().flatten().collect());
        }
        let children = parts
            .into_iter()
            .map(|p| Arc::new(self.build_node(p, level + 1)))
            .collect();
        Node::Internal { cuts, children }
    }

    fn leaf(items: Vec<(ObjId, Vec<f64>)>) -> Node {
        let (ids, pdists) = items.into_iter().map(|(id, pd)| (id, pd.into())).unzip();
        Node::Leaf { ids, pdists }
    }

    /// `[lo, hi]` range of d(o, pivot) covered by child `i`.
    fn child_range(cuts: &[f64], i: usize) -> (f64, f64) {
        let lo = if i == 0 { 0.0 } else { cuts[i - 1] };
        let hi = if i == cuts.len() {
            f64::INFINITY
        } else {
            cuts[i]
        };
        (lo, hi)
    }

    fn range_rec(
        &self,
        node: &Node,
        q: &O,
        r: f64,
        q_dists: &[f64],
        level: usize,
        out: &mut Vec<ObjId>,
    ) {
        match node {
            Node::Leaf { ids, pdists } => {
                for (idx, &id) in ids.iter().enumerate() {
                    // The leaf's own distances first: the table (liveness
                    // bit, then the object) is read for survivors only.
                    let pd = &pdists[idx];
                    if lemmas::lemma1_prunable(&q_dists[..pd.len()], pd, r) {
                        continue;
                    }
                    let Some(o) = self.table.get(id) else {
                        continue;
                    };
                    if self.metric.dist(q, o) <= r {
                        out.push(id);
                    }
                }
            }
            Node::Internal { cuts, children } => {
                let dq = q_dists[level];
                for (i, child) in children.iter().enumerate() {
                    let (lo, hi) = Self::child_range(cuts, i);
                    if dq + r < lo || dq - r > hi {
                        continue;
                    }
                    self.range_rec(child, q, r, q_dists, level + 1, out);
                }
            }
        }
    }
}

impl<O, M> MetricIndex<O> for Mvpt<O, M>
where
    O: Clone + EncodeObject + Send + Sync + 'static,
    M: Metric<O> + Clone + 'static,
{
    fn name(&self) -> &str {
        if self.cfg.arity == 2 {
            "VPT"
        } else {
            "MVPT"
        }
    }

    fn fork(&self) -> Box<dyn MetricIndex<O>> {
        Box::new(self.clone())
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn range_query_into(&self, q: &O, r: f64, scratch: &mut QueryScratch, out: &mut Vec<ObjId>) {
        let qd = &mut scratch.qd;
        qd.clear();
        qd.extend(self.pivots.iter().map(|p| self.metric.dist(q, p)));
        self.range_rec(&self.root, q, r, qd, 0, out);
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
        let QueryScratch { qd, heap, .. } = scratch;
        qd.clear();
        qd.extend(self.pivots.iter().map(|p| self.metric.dist(q, p)));
        // Best-first by the lower bound accumulated along the path; the
        // frontier, the leaf filter and the stop all hold against the one
        // radius, so a seeded probe never opens a subtree the merge has
        // already ruled out.
        let mut best = KnnBest::new(heap, k, seed);
        let mut nodes: Vec<(&Node, usize)> = vec![(&*self.root, 0)];
        let mut frontier: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        frontier.push(Reverse((0, 0)));
        while let Some(Reverse((lb_bits, idx))) = frontier.pop() {
            let lb = f64::from_bits(lb_bits);
            if lb > best.radius() {
                break;
            }
            let (node, level) = nodes[idx];
            match node {
                Node::Leaf { ids, pdists } => {
                    for (&id, pd) in ids.iter().zip(pdists) {
                        let r = best.radius();
                        if r.is_finite() && lemmas::lemma1_prunable(&qd[..pd.len()], pd, r) {
                            continue;
                        }
                        if let Some(o) = self.table.get(id) {
                            best.offer(id, self.metric.dist(q, o));
                        }
                    }
                }
                Node::Internal { cuts, children } => {
                    let dq = qd[level];
                    for (i, child) in children.iter().enumerate() {
                        let (lo, hi) = Self::child_range(cuts, i);
                        let gap = if dq < lo {
                            lo - dq
                        } else if dq > hi {
                            dq - hi
                        } else {
                            0.0
                        };
                        let child_lb = lb.max(gap);
                        if child_lb <= best.radius() {
                            nodes.push((&**child, level + 1));
                            frontier.push(Reverse((child_lb.to_bits(), nodes.len() - 1)));
                        }
                    }
                }
            }
        }
        best.finish(out);
    }

    fn insert(&mut self, o: O) -> ObjId {
        let id = self.table.push(o.clone());
        // Phase 1: descend (one distance per level), add to the leaf, and —
        // if it overflowed — take its items out for rebuilding. The path of
        // child indices is recorded so phase 2 can replay the descent
        // without further distance computations.
        let mut pd: Vec<f64> = Vec::new();
        let mut path: Vec<usize> = Vec::new();
        #[allow(clippy::type_complexity)]
        let mut split: Option<(Vec<(ObjId, Vec<f64>)>, usize)> = None;
        {
            let mut node = Arc::make_mut(&mut self.root);
            let mut level = 0usize;
            loop {
                match node {
                    Node::Internal { cuts, children } => {
                        let d = self.metric.dist(&o, &self.pivots[level]);
                        pd.push(d);
                        let mut idx = cuts.len();
                        for (i, c) in cuts.iter().enumerate() {
                            if d <= *c {
                                idx = i;
                                break;
                            }
                        }
                        path.push(idx);
                        node = Arc::make_mut(&mut children[idx]);
                        level += 1;
                    }
                    Node::Leaf { ids, pdists } => {
                        // Leaf objects may carry fewer path distances than
                        // the leaf's depth suggests if an ancestor
                        // degenerated; match their length.
                        let want = pdists.first().map(|p| p.len()).unwrap_or(pd.len());
                        while pd.len() < want {
                            pd.push(self.metric.dist(&o, &self.pivots[pd.len()]));
                        }
                        pd.truncate(want);
                        ids.push(id);
                        pdists.push(pd.into());
                        if ids.len() > self.cfg.leaf_cap * 2 && level < self.pivots.len() {
                            let items: Vec<(ObjId, Vec<f64>)> = std::mem::take(ids)
                                .into_iter()
                                .zip(std::mem::take(pdists))
                                // build_node recomputes from `level`.
                                .map(|(id, p)| (id, p[..level].to_vec()))
                                .collect();
                            split = Some((items, level));
                        }
                        break;
                    }
                }
            }
        }
        // Phase 2: rebuild the overflowed leaf in place.
        if let Some((items, level)) = split {
            self.node_count -= 1; // the leaf being replaced
            let rebuilt = self.build_node(items, level);
            // Phase 1 made the whole path this tree's own: no copy here.
            let mut node = Arc::make_mut(&mut self.root);
            for idx in path {
                match node {
                    Node::Internal { children, .. } => node = Arc::make_mut(&mut children[idx]),
                    Node::Leaf { .. } => break,
                }
            }
            *node = rebuilt;
        }
        id
    }

    fn remove(&mut self, id: ObjId) -> bool {
        let Some(o) = self.table.get(id).cloned() else {
            return false;
        };
        let mut node = Arc::make_mut(&mut self.root);
        let mut level = 0usize;
        loop {
            match node {
                Node::Internal { cuts, children } => {
                    let d = self.metric.dist(&o, &self.pivots[level]);
                    let mut idx = cuts.len();
                    for (i, c) in cuts.iter().enumerate() {
                        if d <= *c {
                            idx = i;
                            break;
                        }
                    }
                    node = Arc::make_mut(&mut children[idx]);
                    level += 1;
                }
                Node::Leaf { ids, pdists } => {
                    if let Some(pos) = ids.iter().position(|&x| x == id) {
                        ids.swap_remove(pos);
                        pdists.swap_remove(pos);
                        self.table.remove(id);
                        return true;
                    }
                    return false;
                }
            }
        }
    }

    fn get(&self, id: ObjId) -> Option<O> {
        self.table.get(id).cloned()
    }

    fn storage(&self) -> StorageFootprint {
        let objs: u64 = self.table.iter().map(|(_, o)| o.encoded_len() as u64).sum();
        fn node_bytes(n: &Node) -> u64 {
            match n {
                Node::Leaf { ids, pdists } => {
                    4 * ids.len() as u64 + pdists.iter().map(|p| 8 * p.len() as u64).sum::<u64>()
                }
                Node::Internal { cuts, children } => {
                    8 * cuts.len() as u64 + children.iter().map(|c| node_bytes(c)).sum::<u64>()
                }
            }
        }
        StorageFootprint::mem(objs + node_bytes(&self.root))
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
    use pmi_metric::{BruteForce, EditDistance, L2};
    use pmi_pivots::select_hfi;

    fn build(n: usize, arity: usize) -> (Vec<Vec<f32>>, Mvpt<Vec<f32>, L2>) {
        let pts = datasets::la(n, 31);
        let pv: Vec<Vec<f32>> = select_hfi(&pts, &L2, 5, 31)
            .into_iter()
            .map(|i| pts[i].clone())
            .collect();
        let idx = Mvpt::build(pts.clone(), L2, pv, MvptConfig { arity, leaf_cap: 8 });
        (pts, idx)
    }

    #[test]
    fn range_matches_brute_force() {
        for arity in [2usize, 5] {
            let (pts, idx) = build(400, arity);
            let oracle = BruteForce::new(pts.clone(), L2);
            for r in [80.0, 900.0, 5000.0] {
                let mut got = idx.range_query(&pts[3], r);
                got.sort();
                let mut want = oracle.range_query(&pts[3], r);
                want.sort();
                assert_eq!(got, want, "arity={arity} r={r}");
            }
        }
    }

    #[test]
    fn knn_matches_brute_force() {
        for arity in [2usize, 5] {
            let (pts, idx) = build(400, arity);
            let oracle = BruteForce::new(pts.clone(), L2);
            for k in [1usize, 10, 40] {
                let got = idx.knn_query(&pts[77], k);
                let want = oracle.knn_query(&pts[77], k);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert!((g.dist - w.dist).abs() < 1e-9, "arity={arity} k={k}");
                }
            }
        }
    }

    #[test]
    fn works_on_strings() {
        let ws = datasets::words(300, 8);
        let pv: Vec<String> = select_hfi(&ws, &EditDistance, 4, 8)
            .into_iter()
            .map(|i| ws[i].clone())
            .collect();
        let idx = Mvpt::build(ws.clone(), EditDistance, pv, MvptConfig::default());
        let oracle = BruteForce::new(ws.clone(), EditDistance);
        let mut got = idx.range_query(&ws[9], 4.0);
        got.sort();
        let mut want = oracle.range_query(&ws[9], 4.0);
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn name_depends_on_arity() {
        let (_, vpt) = build(60, 2);
        let (_, mvpt) = build(60, 5);
        assert_eq!(vpt.name(), "VPT");
        assert_eq!(mvpt.name(), "MVPT");
    }

    #[test]
    fn balanced_tree_prunes() {
        let (pts, idx) = build(900, 5);
        idx.reset_counters();
        let _ = idx.range_query(&pts[1], 150.0);
        let cd = idx.counters().compdists;
        assert!(cd < 900 / 2, "expected pruning, got {cd}");
    }

    #[test]
    fn update_cycle_with_splits() {
        let (pts, mut idx) = build(250, 5);
        let o = idx.get(40).unwrap();
        assert!(idx.remove(40));
        assert!(!idx.remove(40));
        let nid = idx.insert(o);
        assert!(idx.range_query(&pts[40], 0.0).contains(&nid));
        // Bulk inserts to force leaf splits.
        for p in pts.iter().take(120) {
            idx.insert(vec![p[0] + 1.0, p[1] + 1.0]);
        }
        let all: Vec<Vec<f32>> = idx.table.iter().map(|(_, o)| o.clone()).collect();
        let oracle = BruteForce::new(all, L2);
        let got = idx.knn_query(&pts[10], 15);
        let want = oracle.knn_query(&pts[10], 15);
        for (g, w) in got.iter().zip(&want) {
            assert!((g.dist - w.dist).abs() < 1e-9);
        }
        let mut gr = idx.range_query(&pts[10], 700.0);
        gr.sort();
        assert_eq!(gr.len(), oracle.range_query(&pts[10], 700.0).len());
    }
}
