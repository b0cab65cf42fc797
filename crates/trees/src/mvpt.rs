//! VPT / MVPT (paper §4.3): (multi-way) vantage point trees for continuous
//! metrics.
//!
//! Each level splits a node's objects into `m` children at the quantiles of
//! their distances to the level's pivot; VPT is the `m = 2` case and the
//! paper fixes `m = 5` for MVPT. To allow apples-to-apples comparison with
//! the other indexes, nodes at the same level share the same pivot (§4.3),
//! taken from the workspace-wide HFI set. Internal nodes keep their cuts as
//! exact f64s, and every descent compares exact distances against them.
//!
//! Leaves store, for each object, its distances to all path pivots — the
//! subset of pre-computed distances the paper says the trees keep, so that
//! Lemma 1 filters at the leaf level. They are stored the way every pivot
//! table stores them ([`pmi_metric::matrix`]): one u16 bucket code per
//! distance under the tree's one power-of-two `step`, flat, one row of
//! `depth` codes per entry, so a leaf is two allocations however many
//! entries it holds. A code stands for an interval of distances; the leaf
//! filter tests that interval against the exact query distance
//! ([`code_lower_bound`]), which only ever gives back bound, never an
//! answer. In a sharded engine the tree takes the step of the shard's
//! stored columns, so each leaf code equals the shard's code for that
//! member; a standalone build sizes the step from the largest distance it
//! computed ([`step_for`]).

use pmi_metric::matrix::{code_lower_bound, quantise, step_for};
use pmi_metric::{
    dists_from, Counters, CountingMetric, KnnBest, Metric, MetricIndex, Neighbor, ObjId, ObjTable,
    Object, QueryScratch, StorageFootprint,
};
use std::borrow::Cow;
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
        /// Object ids plus the codes of their distances to the path pivots,
        /// entry after entry: `codes[i * depth + lvl]` is `d(o_i, P[lvl])`
        /// stored under the tree's step, so
        /// `codes.len() == ids.len() * depth`.
        ids: Vec<ObjId>,
        codes: Vec<u16>,
        /// Path distances per entry: the leaf's level, or one more when
        /// degenerate cuts stopped the split.
        depth: usize,
    },
}

/// MVPT (VPT when `arity == 2`).
///
/// Cloning — the [`MetricIndex::fork`] — shares every node (the root and
/// all children sit behind `Arc`s), the object table's chunks and the
/// distance counter. `insert` / `remove` descend with `Arc::make_mut`: a
/// sole owner copies nothing, a fork copies the root-to-leaf path it writes
/// (≤ one node per level, the leaf's two vectors included) and nothing
/// else.
#[derive(Clone)]
pub struct Mvpt<O: Object, M> {
    metric: CountingMetric<M>,
    pivots: Vec<O>,
    cfg: MvptConfig,
    root: Arc<Node>,
    table: ObjTable<O>,
    node_count: usize,
    /// The bucket width of every leaf code, a power of two, fixed for the
    /// tree's life.
    step: f64,
}

impl<O, M> Mvpt<O, M>
where
    O: Object,
    M: Metric<O>,
{
    /// Builds an MVPT with one shared pivot per level (`pivots[lvl]`),
    /// storing leaf codes under [`step_for`] the largest distance the build
    /// computed.
    pub fn build(
        objects: impl Into<ObjTable<O>>,
        metric: M,
        pivots: Vec<O>,
        cfg: MvptConfig,
    ) -> Self {
        Self::build_under(ObjTable::fresh(objects), metric, pivots, cfg, None)
    }

    /// [`build`](Self::build), storing leaf codes under `step` (a power of
    /// two) — the step of the [`PivotColumns`](pmi_metric::PivotColumns)
    /// the tree sits beside, so each leaf code equals the column's code for
    /// that member. Same tree, same distance count.
    pub fn build_with_step(
        objects: impl Into<ObjTable<O>>,
        metric: M,
        pivots: Vec<O>,
        cfg: MvptConfig,
        step: f64,
    ) -> Self {
        assert!(
            step > 0.0 && step.is_finite() && step.to_bits() << 12 == 0,
            "{step} is not a power of two"
        );
        Self::build_under(ObjTable::fresh(objects), metric, pivots, cfg, Some(step))
    }

    fn build_under(
        table: ObjTable<O>,
        metric: M,
        pivots: Vec<O>,
        cfg: MvptConfig,
        step: Option<f64>,
    ) -> Self {
        assert!(cfg.arity >= 2, "MVPT arity must be at least 2");
        assert!(!pivots.is_empty(), "MVPT needs at least one pivot");
        let metric = CountingMetric::new(metric);
        let mut t = Mvpt {
            metric,
            pivots,
            cfg,
            root: Arc::new(Node::Leaf {
                ids: Vec::new(),
                codes: Vec::new(),
                depth: 0,
            }),
            table,
            node_count: 0,
            step: 1.0,
        };
        let ids: Vec<ObjId> = t.table.iter().map(|(id, _)| id).collect();
        let rows = vec![0.0; ids.len() * t.pivots.len()];
        t.root = Arc::new(t.subtree(ids, rows, 0, step));
        t
    }

    /// VPT: binary vantage point tree.
    pub fn vpt(
        objects: impl Into<ObjTable<O>>,
        metric: M,
        pivots: Vec<O>,
        leaf_cap: usize,
    ) -> Self {
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

    /// The bucket width of every leaf code.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Every leaf entry with its stored path codes (`codes[lvl]` for
    /// `d(o, pivots[lvl])`), leaf after leaf, depth first.
    pub fn leaf_codes(&self) -> Vec<(ObjId, &[u16])> {
        fn walk<'a>(node: &'a Node, out: &mut Vec<(ObjId, &'a [u16])>) {
            match node {
                Node::Leaf { ids, codes, depth } => {
                    let rows = ids.iter().enumerate();
                    out.extend(rows.map(|(i, &id)| (id, &codes[i * depth..][..*depth])));
                }
                Node::Internal { children, .. } => {
                    children.iter().for_each(|c| walk(c, out));
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }

    /// Builds the subtree at `level` over `ids`, whose path distances so
    /// far fill the first `level` columns of `rows` (one row of
    /// `pivots.len()` per id), and counts its nodes. Its leaves store codes
    /// under `step`, or — `None`, a whole build — under [`step_for`] the
    /// largest distance the builder computed, which becomes the tree's.
    fn subtree(
        &mut self,
        ids: Vec<ObjId>,
        rows: Vec<f64>,
        level: usize,
        step: Option<f64>,
    ) -> Node {
        let mut items: Vec<u32> = (0..ids.len() as u32).collect();
        let mut b = Builder {
            metric: &self.metric,
            table: &self.table,
            pivots: &self.pivots,
            cfg: self.cfg,
            ids,
            rows,
            keys: Vec::new(),
            nodes: 0,
        };
        let mut node = b.node(&mut items, level);
        self.node_count += b.nodes;
        self.step = step.unwrap_or_else(|| {
            step_for(
                b.rows
                    .iter()
                    .copied()
                    .filter(|d| d.is_finite())
                    .fold(0.0, f64::max),
            )
        });
        // The leaves hold their entries in slice order, and the children of
        // a node take consecutive sub-slices: leaf after leaf, depth first,
        // they list `items` front to back.
        b.encode(&mut node, &mut items.iter(), self.step);
        node
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
            Node::Leaf { ids, codes, depth } => {
                let q_dists = &q_dists[..*depth];
                for (idx, &id) in ids.iter().enumerate() {
                    // The leaf's own codes first: the table (liveness bit,
                    // then the object) is read for survivors only.
                    let row = &codes[idx * depth..][..*depth];
                    if code_lower_bound(q_dists, row, self.step) > r {
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

/// The one subtree builder, for [`Mvpt::build`] and an insert's leaf
/// split. Items are positions into `ids` and `rows` (row `p` is
/// `rows[p * l..][..l]`, `l = pivots.len()`); a node permutes its slice of
/// positions and hands each child a sub-slice, so no item's row moves.
struct Builder<'a, O: Object, M> {
    metric: &'a CountingMetric<M>,
    table: &'a ObjTable<O>,
    pivots: &'a [O],
    cfg: MvptConfig,
    ids: Vec<ObjId>,
    rows: Vec<f64>,
    /// A node's `(distance, item)` keys; reused by every node.
    keys: Vec<(f64, u32)>,
    nodes: usize,
}

impl<O: Object, M: Metric<O>> Builder<'_, O, M> {
    fn node(&mut self, items: &mut [u32], level: usize) -> Node {
        self.nodes += 1;
        if items.len() <= self.cfg.leaf_cap || level >= self.pivots.len() {
            return self.leaf(items, level);
        }
        // One distance computation per object per level: the n·l build cost
        // shared by all pivot-based structures (Table 4).
        let l = self.pivots.len();
        let Builder {
            keys, rows, ids, ..
        } = self;
        keys.clear();
        let objects = items.iter().map(|&p| {
            let o = self.table.get(ids[p as usize]).expect("live");
            (p, o)
        });
        dists_from(self.metric, &self.pivots[level], objects, |p, d| {
            rows[p as usize * l + level] = d;
            keys.push((d, p));
        });
        // Stable: ties keep their order in the slice.
        keys.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Quantile cuts (medians for m = 2).
        let m = self.cfg.arity;
        let n = keys.len();
        let cuts: Vec<f64> = (1..m).map(|i| keys[(n * i / m).min(n - 1)].0).collect();
        // Each item goes to the first part whose cut it does not exceed.
        // The keys ascend and so do the cuts, so each part is a run of the
        // sorted keys.
        let mut sizes = vec![0usize; m];
        for (slot, &(d, p)) in items.iter_mut().zip(keys.iter()) {
            *slot = p;
            sizes[cuts.iter().position(|c| d <= *c).unwrap_or(m - 1)] += 1;
        }
        // Degenerate cuts (all-equal distances): keep as a leaf.
        if sizes.iter().filter(|&&s| s > 0).count() <= 1 {
            return self.leaf(items, level + 1);
        }
        let mut rest = items;
        let children = sizes
            .iter()
            .map(|&s| {
                let (part, tail) = std::mem::take(&mut rest).split_at_mut(s);
                rest = tail;
                Arc::new(self.node(part, level + 1))
            })
            .collect();
        Node::Internal { cuts, children }
    }

    /// A leaf of `items` in slice order, each to hold its first `depth`
    /// path distances; [`encode`](Self::encode) stores them.
    fn leaf(&self, items: &[u32], depth: usize) -> Node {
        Node::Leaf {
            ids: items.iter().map(|&p| self.ids[p as usize]).collect(),
            codes: Vec::with_capacity(items.len() * depth),
            depth,
        }
    }

    /// Stores the codes of every leaf under `node`, leaf after leaf in
    /// depth-first order, taking its entries' rows from `items` in turn.
    fn encode(&self, node: &mut Node, items: &mut std::slice::Iter<'_, u32>, step: f64) {
        let l = self.pivots.len();
        match node {
            Node::Leaf { ids, codes, depth } => {
                for &p in items.by_ref().take(ids.len()) {
                    let row = &self.rows[p as usize * l..][..*depth];
                    codes.extend(row.iter().map(|&d| quantise(d, step)));
                }
            }
            Node::Internal { children, .. } => {
                for child in children {
                    let child = Arc::get_mut(child).expect("a fresh subtree is unshared");
                    self.encode(child, items, step);
                }
            }
        }
    }
}

impl<O, M> MetricIndex<O> for Mvpt<O, M>
where
    O: Object,
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

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn range_query_into(&self, q: &O, r: f64, scratch: &mut QueryScratch, out: &mut Vec<ObjId>) {
        scratch.map_query(&self.metric, q, &self.pivots);
        self.range_rec(&self.root, q, r, &scratch.qd, 0, out);
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
        scratch.map_query(&self.metric, q, &self.pivots);
        let QueryScratch { qd, heap, .. } = scratch;
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
                Node::Leaf { ids, codes, depth } => {
                    let qd = &qd[..*depth];
                    for (i, &id) in ids.iter().enumerate() {
                        let r = best.radius();
                        let row = &codes[i * depth..][..*depth];
                        if r.is_finite() && code_lower_bound(qd, row, self.step) > r {
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
        let id = self.table.push(&o);
        // Phase 1: descend (one distance per level), add to the leaf, and —
        // if it overflowed — take its items out for rebuilding. The path of
        // child indices is recorded so phase 2 can replay the descent
        // without further distance computations.
        let mut pd: Vec<f64> = Vec::new();
        let mut path: Vec<usize> = Vec::new();
        let mut split: Option<(Vec<ObjId>, Vec<f64>, usize)> = None;
        let step = self.step;
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
                    Node::Leaf { ids, codes, depth } => {
                        // A leaf under degenerate cuts holds one more path
                        // distance than its level; an empty leaf takes the
                        // descent's.
                        if ids.is_empty() {
                            *depth = pd.len();
                        }
                        while pd.len() < *depth {
                            pd.push(self.metric.dist(&o, &self.pivots[pd.len()]));
                        }
                        ids.push(id);
                        codes.extend(pd[..*depth].iter().map(|&d| quantise(d, step)));
                        if ids.len() > self.cfg.leaf_cap * 2 && level < self.pivots.len() {
                            // The builder recomputes from `level`; above it,
                            // each code's lower edge stores as the same code.
                            let l = self.pivots.len();
                            let mut rows = vec![0.0; ids.len() * l];
                            for (i, row) in rows.chunks_exact_mut(l).enumerate() {
                                let stored = &codes[i * *depth..][..level];
                                for (x, &c) in row.iter_mut().zip(stored) {
                                    *x = f64::from(c) * step;
                                }
                            }
                            split = Some((std::mem::take(ids), rows, level));
                        }
                        break;
                    }
                }
            }
        }
        // Phase 2: rebuild the overflowed leaf in place.
        if let Some((ids, rows, level)) = split {
            self.node_count -= 1; // the leaf being replaced
            let rebuilt = self.subtree(ids, rows, level, Some(self.step));
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
        let Some(o) = self.table.get(id) else {
            return false;
        };
        let mut node = Arc::make_mut(&mut self.root);
        let mut level = 0usize;
        let found = loop {
            match node {
                Node::Internal { cuts, children } => {
                    let d = self.metric.dist(o, &self.pivots[level]);
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
                Node::Leaf { ids, codes, depth } => {
                    let Some(pos) = ids.iter().position(|&x| x == id) else {
                        break false;
                    };
                    let last = ids.len() - 1;
                    ids.swap_remove(pos);
                    codes.copy_within(last * *depth.., pos * *depth);
                    codes.truncate(last * *depth);
                    break true;
                }
            }
        };
        if found {
            self.table.remove(id);
        }
        found
    }

    fn object(&self, id: ObjId) -> Option<Cow<'_, O::Target>> {
        self.table.get(id).map(Cow::Borrowed)
    }

    fn storage(&self) -> StorageFootprint {
        let objs = self.table.encoded_bytes();
        fn node_bytes(n: &Node) -> u64 {
            match n {
                Node::Leaf { ids, codes, .. } => 4 * ids.len() as u64 + 2 * codes.len() as u64,
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
                assert_eq!(bits(&got), bits(&want), "arity={arity} k={k}");
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
        // The oracle numbers the live objects 0, 1, …; `live` maps its ids
        // back, in ascending order, so ties keep their order.
        let (live, all): (Vec<ObjId>, Vec<Vec<f32>>) =
            idx.table.iter().map(|(id, o)| (id, o.to_vec())).unzip();
        let oracle = BruteForce::new(all, L2);
        let got = idx.knn_query(&pts[10], 15);
        let mut want = oracle.knn_query(&pts[10], 15);
        for w in &mut want {
            w.id = live[w.id as usize];
        }
        assert_eq!(bits(&got), bits(&want));
        let mut gr = idx.range_query(&pts[10], 700.0);
        gr.sort();
        let mut wr: Vec<ObjId> = oracle
            .range_query(&pts[10], 700.0)
            .into_iter()
            .map(|i| live[i as usize])
            .collect();
        wr.sort();
        assert_eq!(gr, wr);
    }

    /// `(id, distance bits)` of a kNN answer, in answer order.
    fn bits(answer: &[Neighbor]) -> Vec<(ObjId, u64)> {
        answer.iter().map(|n| (n.id, n.dist.to_bits())).collect()
    }

    /// `[node_count, storage bytes, distances charged so far, distances
    /// of 50 range and 50 kNN queries, sum of their answer ids, wrapping
    /// sum of the kNN distances' bits]`.
    fn fingerprint<O, M>(idx: &Mvpt<O, M>, queries: &[O], r: f64, k: usize) -> [u64; 6]
    where
        O: Object,
        M: Metric<O> + Clone + 'static,
    {
        let charged = idx.counters().compdists;
        idx.reset_counters();
        let (mut ids, mut bits) = (0u64, 0u64);
        for q in queries {
            ids += idx.range_query(q, r).iter().map(|&i| i as u64).sum::<u64>();
            for nb in idx.knn_query(q, k) {
                ids += nb.id as u64;
                bits = bits.wrapping_add(nb.dist.to_bits());
            }
        }
        let queried = idx.counters().compdists;
        idx.reset_counters();
        [
            idx.node_count() as u64,
            idx.storage().mem_bytes,
            charged,
            queried,
            ids,
            bits,
        ]
    }

    /// Builds over ten HFI pivots, fingerprints, inserts `extra` and
    /// removes 200 ids, then fingerprints again.
    fn golden_run<O, M>(
        objs: Vec<O>,
        metric: M,
        arity: usize,
        extra: Vec<O>,
        (r, k): (f64, usize),
    ) -> [[u64; 6]; 2]
    where
        O: Object,
        M: Metric<O> + Clone + 'static,
    {
        let n = objs.len();
        let pv: Vec<O> = select_hfi(&objs, &metric, 10, 17)
            .into_iter()
            .map(|i| objs[i].clone())
            .collect();
        let queries: Vec<O> = (0..50).map(|i| objs[(i * 97 + 5) % n].clone()).collect();
        let mut idx = Mvpt::build(objs, metric, pv, MvptConfig { arity, leaf_cap: 8 });
        let built = fingerprint(&idx, &queries, r, k);
        for o in extra {
            idx.insert(o);
        }
        for i in 0..200 {
            assert!(idx.remove(((i * 13) % n) as ObjId));
        }
        [built, fingerprint(&idx, &queries, r, k)]
    }

    /// The tree's shape, storage, distance counts and answers, pinned: a
    /// rewrite of the build or the leaf layout must return the same tree,
    /// bit for bit, after a build and after 300 inserts (crowded around ten
    /// objects, so leaves overflow and split) and 200 removes. Words'
    /// integer distances make degenerate cuts (the `level + 1` leaf).
    ///
    /// Node counts, build distances and answers are the constants recorded
    /// when each leaf entry kept its own `Arc<[f64]>` row. Storage (2 B a
    /// leaf code, was 8 B an f64) and LA's query distances (a code stands
    /// for a bucket a quarter wide, so a few more entries reach
    /// verification) were re-pinned when leaves began to store codes;
    /// Words' integer distances code losslessly and kept their counts.
    #[test]
    fn mvpt_golden_tree_is_pinned() {
        let la = datasets::la(5_000, 41);
        let crowd: Vec<Vec<f32>> = (0..300)
            .map(|i| vec![la[i % 10][0] + (i / 10) as f32 * 0.5, la[i % 10][1]])
            .collect();
        let words = datasets::words(2_000, 43);
        let suffixes = ["a", "e", "i", "o", "u", "y"];
        let near: Vec<String> = (0..300)
            .map(|i| {
                format!(
                    "{}{}",
                    words[i % 10],
                    suffixes[(i / 10) % 6].repeat(1 + i / 60)
                )
            })
            .collect();
        for (at, arity) in [2usize, 5].into_iter().enumerate() {
            let got = golden_run(la.clone(), L2, arity, crowd.clone(), (150.0, 10));
            assert_eq!(got, GOLDEN_LA[at], "LA arity={arity}");
            let got = golden_run(words.clone(), EditDistance, arity, near.clone(), (2.0, 5));
            assert_eq!(got, GOLDEN_WORDS[at], "Words arity={arity}");
        }
    }

    /// `golden_run` at arity 2 and 5.
    const GOLDEN_LA: [[[u64; 6]; 2]; 2] = [
        [
            [1963, 187188, 49670, 2448, 2653781, 16009208973270053318],
            [1965, 190850, 4988, 2525, 3173050, 2010456659952510091],
        ],
        [
            [1301, 130220, 20950, 2498, 2653781, 16009208973270053318],
            [1391, 134368, 2665, 2563, 3173050, 2010456659952510091],
        ],
    ];
    const GOLDEN_WORDS: [[[u64; 6]; 2]; 2] = [
        [
            [589, 79330, 17635, 34234, 769976, 354095520702005248],
            [633, 82585, 4689, 35944, 788736, 9571838058022567936],
        ],
        [
            [1046, 67330, 9467, 45249, 769976, 354095520702005248],
            [1056, 69267, 2224, 48316, 788736, 9571838058022567936],
        ],
    ];
}
