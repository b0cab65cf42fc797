//! A paged M-tree (Ciaccia et al.) with optional pivot-space augmentation.
//!
//! The M-tree is the storage substrate of two of the paper's indexes:
//!
//! * **CPT** (§3.3) uses a plain M-tree to cluster objects on disk, with the
//!   distance table kept in main memory;
//! * the **PM-tree** (§5.1) is an M-tree whose leaf entries additionally
//!   carry the pivot-mapped vector of their object, and whose routing
//!   entries carry a minimum bounding box over the mapped vectors of their
//!   subtree ("cut-region" rings). Enabling `pivots` on [`MTree`] yields
//!   exactly that structure.
//!
//! Objects are stored *inline* in the nodes — the property that forces CPT
//! and the PM-tree onto 40 KB pages for high-dimensional data (paper §6.1)
//! and that the experiments surface as poor page utilization (§6.5.2).
//!
//! Every node is one disk page; entries are variable-length (objects are
//! serialized with [`EncodeObject`](pmi_metric::EncodeObject)), so node capacity is byte-bounded and
//! splits trigger on serialized size.

use pmi_metric::lemmas;
use pmi_metric::{KnnBest, Metric, Object};
use pmi_storage::{DiskSim, PageId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A leaf entry: one data object.
#[derive(Clone, Debug)]
pub struct LeafEntry<O> {
    /// Object identifier.
    pub oid: u32,
    /// Distance to the routing object of the parent entry (∞ at the root).
    pub pd: f64,
    /// The object itself, stored inline.
    pub obj: O,
    /// Pivot-mapped vector `⟨d(o,p_1),…,d(o,p_l)⟩`; empty when the tree is
    /// not pivot-augmented.
    pub mapped: Vec<f64>,
}

/// A routing (internal) entry.
#[derive(Clone, Debug)]
pub struct RoutingEntry<O> {
    /// Child node page.
    pub child: PageId,
    /// Covering radius: max distance from the routing object to any object
    /// in the subtree.
    pub radius: f64,
    /// Distance to the parent entry's routing object (∞ at the root).
    pub pd: f64,
    /// The routing object, stored inline.
    pub robj: O,
    /// Per-pivot lower bounds of the subtree's mapped vectors.
    pub mbb_lo: Vec<f64>,
    /// Per-pivot upper bounds of the subtree's mapped vectors.
    pub mbb_hi: Vec<f64>,
}

/// A decoded M-tree node.
#[derive(Clone, Debug)]
pub enum Node<O> {
    /// Leaf level: data objects.
    Leaf(Vec<LeafEntry<O>>),
    /// Internal level: routing entries.
    Internal(Vec<RoutingEntry<O>>),
}

enum InsertOutcome<O> {
    /// Subtree absorbed the object.
    Done,
    /// Subtree split: replace its routing entry with these two.
    Split(RoutingEntry<O>, RoutingEntry<O>),
}

/// A paged M-tree. `pivots` non-empty enables PM-tree augmentation.
pub struct MTree<O, M> {
    disk: DiskSim,
    metric: M,
    pivots: Vec<O>,
    root: Option<PageId>,
    height: usize,
    len: usize,
    pages_used: usize,
    free: Vec<PageId>,
    /// oid → leaf page, maintained across splits so CPT can fetch objects
    /// through its distance-table pointers (paper Fig. 6).
    loc: HashMap<u32, PageId>,
}

impl<O: Object, M: Metric<O>> MTree<O, M> {
    /// Creates an empty M-tree. Pass pivot objects to enable PM-tree
    /// augmentation (empty slice = plain M-tree).
    pub fn new(disk: DiskSim, metric: M, pivots: Vec<O>) -> Self {
        MTree {
            disk,
            metric,
            pivots,
            root: None,
            height: 0,
            len: 0,
            pages_used: 0,
            free: Vec::new(),
            loc: HashMap::new(),
        }
    }

    /// This tree re-pointed at `disk`, a [`DiskSim::fork`] of its own disk:
    /// same pages, a clone of the leaf directory, independent afterwards.
    /// The metric is cloned (a counting metric keeps its shared counter).
    pub fn fork_onto(&self, disk: &DiskSim) -> Self
    where
        M: Clone,
    {
        MTree {
            disk: disk.clone(),
            metric: self.metric.clone(),
            pivots: self.pivots.clone(),
            root: self.root,
            height: self.height,
            len: self.len,
            pages_used: self.pages_used,
            free: self.free.clone(),
            loc: self.loc.clone(),
        }
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (0 when empty).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pages owned.
    pub fn pages_used(&self) -> usize {
        self.pages_used
    }

    /// Bytes on disk.
    pub fn disk_bytes(&self) -> u64 {
        (self.pages_used * self.disk.page_size()) as u64
    }

    /// The disk handle.
    pub fn disk(&self) -> &DiskSim {
        &self.disk
    }

    /// The metric (all tree distance computations go through it).
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Number of augmentation pivots (0 = plain M-tree).
    pub fn num_pivots(&self) -> usize {
        self.pivots.len()
    }

    /// Maps an object to its pivot-distance vector (computes distances).
    pub fn map_object(&self, o: &O) -> Vec<f64> {
        self.pivots.iter().map(|p| self.metric.dist(o, p)).collect()
    }

    /// Inserts an object under id `oid`.
    pub fn insert(&mut self, oid: u32, o: &O) {
        let mapped = self.map_object(o);
        let entry = LeafEntry {
            oid,
            pd: f64::INFINITY,
            obj: o.clone(),
            mapped,
        };
        match self.root {
            None => {
                let pid = self.alloc_page();
                self.write_node(pid, &Node::Leaf(vec![entry]));
                self.loc.insert(oid, pid);
                self.root = Some(pid);
                self.height = 1;
            }
            Some(root) => match self.insert_rec(root, 1, entry, None) {
                InsertOutcome::Done => {}
                InsertOutcome::Split(a, b) => {
                    let new_root = self.alloc_page();
                    self.write_node(new_root, &Node::Internal(vec![a, b]));
                    self.root = Some(new_root);
                    self.height += 1;
                }
            },
        }
        self.len += 1;
    }

    /// Removes object `oid` (the object value is needed to steer the
    /// descent). Covering radii are not shrunk — they remain valid upper
    /// bounds. Returns whether the object was found.
    pub fn remove(&mut self, oid: u32, o: &O) -> bool {
        let Some(root) = self.root else { return false };
        let (found, now_empty) = self.remove_rec(root, o, oid);
        if found {
            self.len -= 1;
            self.loc.remove(&oid);
            if now_empty {
                self.free_page(root);
                self.root = None;
                self.height = 0;
            } else if self.height > 1 {
                if let Node::Internal(entries) = self.read_node(root) {
                    if entries.len() == 1 {
                        self.free_page(root);
                        self.root = Some(entries[0].child);
                        self.height -= 1;
                    }
                }
            }
        }
        found
    }

    /// Fetches an object by id through the location directory (one page
    /// read — this is CPT's "load object for verification" path).
    pub fn fetch(&self, oid: u32) -> Option<O> {
        let pid = *self.loc.get(&oid)?;
        match self.read_node(pid) {
            Node::Leaf(entries) => entries.into_iter().find(|e| e.oid == oid).map(|e| e.obj),
            Node::Internal(_) => None,
        }
    }

    /// Reads and decodes a node (counted page access).
    pub fn read_node(&self, pid: PageId) -> Node<O> {
        let page = self.disk.read(pid);
        self.decode(&page)
    }

    /// Verifies the M-tree invariants over the whole tree:
    ///
    /// * every object in a routing entry's subtree lies within that entry's
    ///   covering radius (the M-tree correctness invariant, §3.3 (ii) — NOT
    ///   the stronger nested-ball property, which M-trees do not maintain),
    /// * stored parent distances equal the recomputed distances,
    /// * pivot-space MBBs contain every mapped vector beneath them.
    ///
    /// Test/debug facility — O(n · height) distance computations.
    pub fn check_invariants(&self) -> Result<(), String> {
        let Some(root) = self.root else { return Ok(()) };
        self.check_rec(root, None, &[], &[]).map(|_| ())
    }

    /// Returns the leaf objects of the subtree after checking it.
    #[allow(clippy::type_complexity)]
    fn check_rec(
        &self,
        pid: PageId,
        parent: Option<&O>,
        mbb_lo: &[f64],
        mbb_hi: &[f64],
    ) -> Result<Vec<O>, String> {
        const EPS: f64 = 1e-6;
        match self.read_node(pid) {
            Node::Leaf(entries) => {
                let mut objs = Vec::with_capacity(entries.len());
                for e in entries {
                    if let Some(p) = parent {
                        let d = self.metric.dist(&e.obj, p);
                        if (d - e.pd).abs() > EPS {
                            return Err(format!(
                                "leaf {}: stored pd {} != actual {}",
                                e.oid, e.pd, d
                            ));
                        }
                    }
                    for (i, m) in e.mapped.iter().enumerate() {
                        if !mbb_lo.is_empty() && (*m < mbb_lo[i] - EPS || *m > mbb_hi[i] + EPS) {
                            return Err(format!(
                                "leaf {}: mapped[{i}]={m} outside MBB [{}, {}]",
                                e.oid, mbb_lo[i], mbb_hi[i]
                            ));
                        }
                    }
                    objs.push(e.obj);
                }
                Ok(objs)
            }
            Node::Internal(entries) => {
                let mut all = Vec::new();
                for e in &entries {
                    if let Some(p) = parent {
                        let d = self.metric.dist(&e.robj, p);
                        if (d - e.pd).abs() > EPS {
                            return Err(format!("routing: stored pd {} != actual {d}", e.pd));
                        }
                    }
                    if !mbb_lo.is_empty() {
                        for i in 0..self.l() {
                            if e.mbb_lo[i] < mbb_lo[i] - EPS || e.mbb_hi[i] > mbb_hi[i] + EPS {
                                return Err("child MBB exceeds parent MBB".into());
                            }
                        }
                    }
                    let subtree = self.check_rec(e.child, Some(&e.robj), &e.mbb_lo, &e.mbb_hi)?;
                    // Covering-radius invariant over every object below.
                    for o in &subtree {
                        let d = self.metric.dist(o, &e.robj);
                        if d > e.radius + EPS {
                            return Err(format!(
                                "object at distance {d} outside covering radius {}",
                                e.radius
                            ));
                        }
                    }
                    all.extend(subtree);
                }
                Ok(all)
            }
        }
    }

    /// MRQ over the tree (paper §5.1): depth-first; routing entries pruned
    /// by the parent-distance test, Lemma 2 (range-pivot on the covering
    /// radius) and — when augmented — Lemma 1 on the MBB; leaf entries
    /// pruned by parent distance and Lemma 1 before the final distance
    /// computation. `q_dists` must hold `d(q, p_i)` for augmented trees
    /// (empty otherwise).
    pub fn range(&self, q: &O, r: f64, q_dists: &[f64]) -> Vec<(u32, f64)> {
        let mut out = Vec::new();
        if let Some(root) = self.root {
            self.range_rec(root, q, r, q_dists, f64::INFINITY, &mut out);
        }
        out
    }

    fn range_rec(
        &self,
        pid: PageId,
        q: &O,
        r: f64,
        q_dists: &[f64],
        d_q_parent: f64,
        out: &mut Vec<(u32, f64)>,
    ) {
        match self.read_node(pid) {
            Node::Leaf(entries) => {
                for e in entries {
                    // Parent-distance filter (cheap, no distance needed).
                    if d_q_parent.is_finite() && (d_q_parent - e.pd).abs() > r {
                        continue;
                    }
                    // Lemma 1 on the mapped vector.
                    if !q_dists.is_empty() && lemmas::lemma1_prunable(q_dists, &e.mapped, r) {
                        continue;
                    }
                    let d = self.metric.dist(q, &e.obj);
                    if d <= r {
                        out.push((e.oid, d));
                    }
                }
            }
            Node::Internal(entries) => {
                for e in entries {
                    if d_q_parent.is_finite() && (d_q_parent - e.pd).abs() > r + e.radius {
                        continue;
                    }
                    if !q_dists.is_empty()
                        && lemmas::lemma1_box_prunable(q_dists, &e.mbb_lo, &e.mbb_hi, r)
                    {
                        continue;
                    }
                    let d = self.metric.dist(q, &e.robj);
                    // Lemma 2: range-pivot filtering on the ball region.
                    if lemmas::lemma2_prunable(d, e.radius, r) {
                        continue;
                    }
                    self.range_rec(e.child, q, r, q_dists, d, out);
                }
            }
        }
    }

    /// MkNNQ over the tree: best-first by the entry lower bound (ball bound
    /// combined with the MBB bound when augmented), offering every verified
    /// object into the caller's `best` and pruning with its radius, which
    /// shrinks as neighbors are found (paper §5.1).
    pub fn knn(&self, q: &O, q_dists: &[f64], best: &mut KnnBest<'_>) {
        let Some(root) = self.root else { return };
        let mut frontier: BinaryHeap<Reverse<(NotNan, PageId, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        frontier.push(Reverse((NotNan(0.0), root, seq)));
        while let Some(Reverse((lb, pid, _))) = frontier.pop() {
            if lb.0 > best.radius() {
                break;
            }
            match self.read_node(pid) {
                Node::Leaf(entries) => {
                    for e in entries {
                        let r = best.radius();
                        if !q_dists.is_empty()
                            && r.is_finite()
                            && lemmas::lemma1_prunable(q_dists, &e.mapped, r)
                        {
                            continue;
                        }
                        best.offer(e.oid, self.metric.dist(q, &e.obj));
                    }
                }
                Node::Internal(entries) => {
                    for e in entries {
                        let r = best.radius();
                        let mut lb = 0.0f64;
                        if !q_dists.is_empty() {
                            lb = lemmas::mbb_lower_bound(q_dists, &e.mbb_lo, &e.mbb_hi);
                            if r.is_finite() && lb > r {
                                continue;
                            }
                        }
                        let d = self.metric.dist(q, &e.robj);
                        let ball_lb = lemmas::ball_lower_bound(d, e.radius);
                        let lower = ball_lb.max(lb);
                        if lower <= best.radius() {
                            seq += 1;
                            frontier.push(Reverse((NotNan(lower), e.child, seq)));
                        }
                    }
                }
            }
        }
    }

    // --- internals ---------------------------------------------------------

    fn alloc_page(&mut self) -> PageId {
        self.pages_used += 1;
        self.free.pop().unwrap_or_else(|| self.disk.alloc())
    }

    fn free_page(&mut self, pid: PageId) {
        self.pages_used -= 1;
        self.free.push(pid);
    }

    fn l(&self) -> usize {
        self.pivots.len()
    }

    fn leaf_entry_bytes(&self, e: &LeafEntry<O>) -> usize {
        4 + 8 + 4 + e.obj.encoded_len() + 8 * self.l()
    }

    fn routing_entry_bytes(&self, e: &RoutingEntry<O>) -> usize {
        4 + 8 + 8 + 4 + e.robj.encoded_len() + 16 * self.l()
    }

    fn node_bytes(&self, node: &Node<O>) -> usize {
        3 + match node {
            Node::Leaf(es) => es.iter().map(|e| self.leaf_entry_bytes(e)).sum::<usize>(),
            Node::Internal(es) => es
                .iter()
                .map(|e| self.routing_entry_bytes(e))
                .sum::<usize>(),
        }
    }

    fn write_node(&mut self, pid: PageId, node: &Node<O>) {
        let ps = self.disk.page_size();
        let mut page = Vec::with_capacity(ps);
        match node {
            Node::Leaf(entries) => {
                page.push(0u8);
                page.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                for e in entries {
                    page.extend_from_slice(&e.oid.to_le_bytes());
                    page.extend_from_slice(&e.pd.to_le_bytes());
                    page.extend_from_slice(&(e.obj.encoded_len() as u32).to_le_bytes());
                    e.obj.encode_into(&mut page);
                    for m in &e.mapped {
                        page.extend_from_slice(&m.to_le_bytes());
                    }
                    // Track object locations through every rewrite.
                    self.loc.insert(e.oid, pid);
                }
            }
            Node::Internal(entries) => {
                page.push(1u8);
                page.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                for e in entries {
                    page.extend_from_slice(&e.child.to_le_bytes());
                    page.extend_from_slice(&e.radius.to_le_bytes());
                    page.extend_from_slice(&e.pd.to_le_bytes());
                    page.extend_from_slice(&(e.robj.encoded_len() as u32).to_le_bytes());
                    e.robj.encode_into(&mut page);
                    for m in &e.mbb_lo {
                        page.extend_from_slice(&m.to_le_bytes());
                    }
                    for m in &e.mbb_hi {
                        page.extend_from_slice(&m.to_le_bytes());
                    }
                }
            }
        }
        assert!(
            page.len() <= ps,
            "M-tree node overflows page ({} > {ps}); object too large for page size",
            page.len()
        );
        page.resize(ps, 0);
        self.disk.write(pid, &page);
    }

    fn decode(&self, page: &[u8]) -> Node<O> {
        let count = u16::from_le_bytes(page[1..3].try_into().unwrap()) as usize;
        let l = self.l();
        let mut off = 3;
        if page[0] == 0 {
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let oid = u32::from_le_bytes(page[off..off + 4].try_into().unwrap());
                off += 4;
                let pd = f64::from_le_bytes(page[off..off + 8].try_into().unwrap());
                off += 8;
                let olen = u32::from_le_bytes(page[off..off + 4].try_into().unwrap()) as usize;
                off += 4;
                let (obj, used) = O::decode_from(&page[off..off + olen]);
                debug_assert_eq!(used, olen);
                off += olen;
                let mut mapped = Vec::with_capacity(l);
                for _ in 0..l {
                    mapped.push(f64::from_le_bytes(page[off..off + 8].try_into().unwrap()));
                    off += 8;
                }
                entries.push(LeafEntry {
                    oid,
                    pd,
                    obj,
                    mapped,
                });
            }
            Node::Leaf(entries)
        } else {
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let child = PageId::from_le_bytes(page[off..off + 4].try_into().unwrap());
                off += 4;
                let radius = f64::from_le_bytes(page[off..off + 8].try_into().unwrap());
                off += 8;
                let pd = f64::from_le_bytes(page[off..off + 8].try_into().unwrap());
                off += 8;
                let olen = u32::from_le_bytes(page[off..off + 4].try_into().unwrap()) as usize;
                off += 4;
                let (robj, used) = O::decode_from(&page[off..off + olen]);
                debug_assert_eq!(used, olen);
                off += olen;
                let mut mbb_lo = Vec::with_capacity(l);
                for _ in 0..l {
                    mbb_lo.push(f64::from_le_bytes(page[off..off + 8].try_into().unwrap()));
                    off += 8;
                }
                let mut mbb_hi = Vec::with_capacity(l);
                for _ in 0..l {
                    mbb_hi.push(f64::from_le_bytes(page[off..off + 8].try_into().unwrap()));
                    off += 8;
                }
                entries.push(RoutingEntry {
                    child,
                    radius,
                    pd,
                    robj,
                    mbb_lo,
                    mbb_hi,
                });
            }
            Node::Internal(entries)
        }
    }

    /// Recursive insert; `parent_robj` is the routing object of the entry we
    /// descended through (None at the root).
    fn insert_rec(
        &mut self,
        pid: PageId,
        level: usize,
        mut entry: LeafEntry<O>,
        parent_robj: Option<&O>,
    ) -> InsertOutcome<O> {
        if level == self.height {
            // Leaf node.
            let Node::Leaf(mut entries) = self.read_node(pid) else {
                unreachable!("leaf expected");
            };
            entry.pd = parent_robj
                .map(|p| self.metric.dist(&entry.obj, p))
                .unwrap_or(f64::INFINITY);
            entries.push(entry);
            let node = Node::Leaf(entries);
            if self.node_bytes(&node) <= self.disk.page_size() {
                self.write_node(pid, &node);
                InsertOutcome::Done
            } else {
                let Node::Leaf(entries) = node else {
                    unreachable!()
                };
                self.split_leaf(pid, entries, parent_robj)
            }
        } else {
            let Node::Internal(mut entries) = self.read_node(pid) else {
                unreachable!("internal expected");
            };
            // Choose subtree: min distance among covering entries, else min
            // radius increase (classic M-tree heuristic).
            let dists: Vec<f64> = entries
                .iter()
                .map(|e| self.metric.dist(&entry.obj, &e.robj))
                .collect();
            let mut best: Option<usize> = None;
            for (i, e) in entries.iter().enumerate() {
                if dists[i] <= e.radius && best.is_none_or(|b| dists[i] < dists[b]) {
                    best = Some(i);
                }
            }
            let idx = match best {
                Some(i) => i,
                None => {
                    let mut bi = 0;
                    let mut binc = f64::INFINITY;
                    for (i, e) in entries.iter().enumerate() {
                        let inc = dists[i] - e.radius;
                        if inc < binc {
                            binc = inc;
                            bi = i;
                        }
                    }
                    entries[bi].radius = dists[bi];
                    bi
                }
            };
            // Maintain the PM-tree MBB on the way down.
            if self.l() > 0 {
                for d in 0..self.l() {
                    entries[idx].mbb_lo[d] = entries[idx].mbb_lo[d].min(entry.mapped[d]);
                    entries[idx].mbb_hi[d] = entries[idx].mbb_hi[d].max(entry.mapped[d]);
                }
            }
            let child = entries[idx].child;
            let robj = entries[idx].robj.clone();
            match self.insert_rec(child, level + 1, entry, Some(&robj)) {
                InsertOutcome::Done => {
                    self.write_node(pid, &Node::Internal(entries));
                    InsertOutcome::Done
                }
                InsertOutcome::Split(mut a, mut b) => {
                    a.pd = parent_robj
                        .map(|p| self.metric.dist(&a.robj, p))
                        .unwrap_or(f64::INFINITY);
                    b.pd = parent_robj
                        .map(|p| self.metric.dist(&b.robj, p))
                        .unwrap_or(f64::INFINITY);
                    entries.remove(idx);
                    entries.push(a);
                    entries.push(b);
                    let node = Node::Internal(entries);
                    if self.node_bytes(&node) <= self.disk.page_size() {
                        self.write_node(pid, &node);
                        InsertOutcome::Done
                    } else {
                        let Node::Internal(entries) = node else {
                            unreachable!()
                        };
                        self.split_internal(pid, entries, parent_robj)
                    }
                }
            }
        }
    }

    /// Promotes two routing objects (sampled mM_RAD: try a few pairs, keep
    /// the one minimizing the larger covering radius) and partitions by
    /// generalized hyperplane (nearest promoted object wins).
    fn promote_leaf(&self, entries: &[LeafEntry<O>]) -> (usize, usize) {
        let n = entries.len();
        let pairs = candidate_pairs(n);
        let mut best = (0, 1);
        let mut best_cost = f64::INFINITY;
        for (i, j) in pairs {
            let mut r1 = 0.0f64;
            let mut r2 = 0.0f64;
            for (k, e) in entries.iter().enumerate() {
                if k == i || k == j {
                    continue;
                }
                let d1 = self.metric.dist(&e.obj, &entries[i].obj);
                let d2 = self.metric.dist(&e.obj, &entries[j].obj);
                if d1 <= d2 {
                    r1 = r1.max(d1);
                } else {
                    r2 = r2.max(d2);
                }
            }
            let cost = r1.max(r2);
            if cost < best_cost {
                best_cost = cost;
                best = (i, j);
            }
        }
        best
    }

    fn split_leaf(
        &mut self,
        pid: PageId,
        entries: Vec<LeafEntry<O>>,
        _parent: Option<&O>,
    ) -> InsertOutcome<O> {
        let (i, j) = self.promote_leaf(&entries);
        let p1 = entries[i].obj.clone();
        let p2 = entries[j].obj.clone();
        let d: Vec<(f64, f64)> = (entries.iter())
            .map(|e| (self.metric.dist(&e.obj, &p1), self.metric.dist(&e.obj, &p2)))
            .collect();
        let bytes: Vec<usize> = entries.iter().map(|e| self.leaf_entry_bytes(e)).collect();
        let sides = split_sides(&d, (i, j), &bytes, self.disk.page_size());
        let mut g1: Vec<LeafEntry<O>> = Vec::new();
        let mut g2: Vec<LeafEntry<O>> = Vec::new();
        let mut r1 = 0.0f64;
        let mut r2 = 0.0f64;
        for ((mut e, (d1, d2)), first) in entries.into_iter().zip(d).zip(sides) {
            if first {
                e.pd = d1;
                r1 = r1.max(d1);
                g1.push(e);
            } else {
                e.pd = d2;
                r2 = r2.max(d2);
                g2.push(e);
            }
        }
        let rpid = self.alloc_page();
        let (lo1, hi1) = self.mapped_bounds_leaf(&g1);
        let (lo2, hi2) = self.mapped_bounds_leaf(&g2);
        self.write_node(pid, &Node::Leaf(g1));
        self.write_node(rpid, &Node::Leaf(g2));
        InsertOutcome::Split(
            RoutingEntry {
                child: pid,
                radius: r1,
                pd: f64::INFINITY,
                robj: p1,
                mbb_lo: lo1,
                mbb_hi: hi1,
            },
            RoutingEntry {
                child: rpid,
                radius: r2,
                pd: f64::INFINITY,
                robj: p2,
                mbb_lo: lo2,
                mbb_hi: hi2,
            },
        )
    }

    fn split_internal(
        &mut self,
        pid: PageId,
        entries: Vec<RoutingEntry<O>>,
        _parent: Option<&O>,
    ) -> InsertOutcome<O> {
        // Promote among routing objects; radius must cover child radii.
        let n = entries.len();
        let pairs = candidate_pairs(n);
        let mut best = (0, 1);
        let mut best_cost = f64::INFINITY;
        for (i, j) in pairs {
            let mut r1 = 0.0f64;
            let mut r2 = 0.0f64;
            for (k, e) in entries.iter().enumerate() {
                if k == i || k == j {
                    continue;
                }
                let d1 = self.metric.dist(&e.robj, &entries[i].robj) + e.radius;
                let d2 = self.metric.dist(&e.robj, &entries[j].robj) + e.radius;
                if d1 <= d2 {
                    r1 = r1.max(d1);
                } else {
                    r2 = r2.max(d2);
                }
            }
            let cost = r1.max(r2);
            if cost < best_cost {
                best_cost = cost;
                best = (i, j);
            }
        }
        let (i, j) = best;
        let p1 = entries[i].robj.clone();
        let p2 = entries[j].robj.clone();
        let d: Vec<(f64, f64)> = (entries.iter())
            .map(|e| {
                (
                    self.metric.dist(&e.robj, &p1),
                    self.metric.dist(&e.robj, &p2),
                )
            })
            .collect();
        let bytes: Vec<usize> = (entries.iter())
            .map(|e| self.routing_entry_bytes(e))
            .collect();
        let sides = split_sides(&d, (i, j), &bytes, self.disk.page_size());
        let mut g1: Vec<RoutingEntry<O>> = Vec::new();
        let mut g2: Vec<RoutingEntry<O>> = Vec::new();
        let mut r1 = entries[i].radius;
        let mut r2 = entries[j].radius;
        for ((mut e, (d1, d2)), first) in entries.into_iter().zip(d).zip(sides) {
            if first {
                e.pd = d1;
                r1 = r1.max(d1 + e.radius);
                g1.push(e);
            } else {
                e.pd = d2;
                r2 = r2.max(d2 + e.radius);
                g2.push(e);
            }
        }
        let rpid = self.alloc_page();
        let (lo1, hi1) = self.mapped_bounds_internal(&g1);
        let (lo2, hi2) = self.mapped_bounds_internal(&g2);
        self.write_node(pid, &Node::Internal(g1));
        self.write_node(rpid, &Node::Internal(g2));
        InsertOutcome::Split(
            RoutingEntry {
                child: pid,
                radius: r1,
                pd: f64::INFINITY,
                robj: p1,
                mbb_lo: lo1,
                mbb_hi: hi1,
            },
            RoutingEntry {
                child: rpid,
                radius: r2,
                pd: f64::INFINITY,
                robj: p2,
                mbb_lo: lo2,
                mbb_hi: hi2,
            },
        )
    }

    fn mapped_bounds_leaf(&self, entries: &[LeafEntry<O>]) -> (Vec<f64>, Vec<f64>) {
        let l = self.l();
        let mut lo = vec![f64::INFINITY; l];
        let mut hi = vec![f64::NEG_INFINITY; l];
        for e in entries {
            for d in 0..l {
                lo[d] = lo[d].min(e.mapped[d]);
                hi[d] = hi[d].max(e.mapped[d]);
            }
        }
        (lo, hi)
    }

    fn mapped_bounds_internal(&self, entries: &[RoutingEntry<O>]) -> (Vec<f64>, Vec<f64>) {
        let l = self.l();
        let mut lo = vec![f64::INFINITY; l];
        let mut hi = vec![f64::NEG_INFINITY; l];
        for e in entries {
            for d in 0..l {
                lo[d] = lo[d].min(e.mbb_lo[d]);
                hi[d] = hi[d].max(e.mbb_hi[d]);
            }
        }
        (lo, hi)
    }

    /// Returns `(found, subtree empty)`.
    fn remove_rec(&mut self, pid: PageId, o: &O, oid: u32) -> (bool, bool) {
        match self.read_node(pid) {
            Node::Leaf(mut entries) => {
                if let Some(pos) = entries.iter().position(|e| e.oid == oid) {
                    entries.remove(pos);
                    let empty = entries.is_empty();
                    self.write_node(pid, &Node::Leaf(entries));
                    (true, empty)
                } else {
                    (false, false)
                }
            }
            Node::Internal(mut entries) => {
                for idx in 0..entries.len() {
                    let d = self.metric.dist(o, &entries[idx].robj);
                    if d > entries[idx].radius + 1e-9 {
                        continue;
                    }
                    let (found, child_empty) = self.remove_rec(entries[idx].child, o, oid);
                    if found {
                        if child_empty {
                            self.free_page(entries[idx].child);
                            entries.remove(idx);
                        }
                        let empty = entries.is_empty();
                        if !empty {
                            self.write_node(pid, &Node::Internal(entries));
                        }
                        return (true, empty);
                    }
                }
                (false, false)
            }
        }
    }
}

/// Candidate promotion pairs: bounded sample so splits stay O(n · pairs).
/// The side of a split each entry goes to (`true`: promoted entry `i`'s),
/// given its distances `(d1, d2)` to the two promoted objects and its
/// serialized `bytes`: by generalized hyperplane (the nearer promoted
/// object, ties to `i`), each promoted entry on its own side. When that
/// leaves a node over `page` bytes — duplicates of the promoted objects
/// collapse the hyperplane onto one side — the entries are cut by
/// `d1 − d2` order into two runs of equal count instead.
fn split_sides(
    d: &[(f64, f64)],
    (i, j): (usize, usize),
    bytes: &[usize],
    page: usize,
) -> Vec<bool> {
    let mut sides: Vec<bool> = d.iter().map(|&(d1, d2)| d1 <= d2).collect();
    sides[i] = true;
    sides[j] = false;
    let node = |first: bool, sides: &[bool]| -> usize {
        3 + (bytes.iter().zip(sides))
            .filter(|&(_, &s)| s == first)
            .map(|(b, _)| b)
            .sum::<usize>()
    };
    if node(true, &sides) > page || node(false, &sides) > page {
        let mut order: Vec<usize> = (0..d.len()).collect();
        order.sort_by(|&a, &b| (d[a].0 - d[a].1).total_cmp(&(d[b].0 - d[b].1)));
        for (rank, &k) in order.iter().enumerate() {
            sides[k] = rank < d.len().div_ceil(2);
        }
    }
    sides
}

/// The smallest page an M-tree over `l` pivots holds objects of up to
/// `max_encoded` bytes in: a node of two of the largest routing entries,
/// the fewest a split leaves on one page.
pub fn page_floor(l: usize, max_encoded: usize) -> usize {
    3 + 2 * (4 + 8 + 8 + 4 + max_encoded + 16 * l)
}

fn candidate_pairs(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    if n < 2 {
        return pairs;
    }
    // Deterministic spread of up to 5 pairs.
    let picks = [
        (0, n / 2),
        (0, n - 1),
        (n / 3, 2 * n / 3),
        (n / 4, n - 1),
        (n / 2, n - 1),
    ];
    for (a, b) in picks {
        if a != b && !pairs.contains(&(a.min(b), a.max(b))) {
            pairs.push((a.min(b), a.max(b)));
        }
    }
    pairs
}

/// Total-ordered f64 wrapper (distances are never NaN here).
#[derive(Clone, Copy, Debug, PartialEq)]
struct NotNan(f64);
impl Eq for NotNan {}
impl PartialOrd for NotNan {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for NotNan {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::{datasets, CountingMetric, Neighbor, L2};

    #[allow(clippy::type_complexity)]
    fn build(n: usize, pivots: usize) -> (Vec<Vec<f32>>, MTree<Vec<f32>, CountingMetric<L2>>) {
        let pts = datasets::la(n, 77);
        let metric = CountingMetric::new(L2);
        let pv: Vec<Vec<f32>> = pmi_pivots_stub(&pts, pivots);
        let mut t = MTree::new(DiskSim::new(1024), metric, pv);
        for (i, p) in pts.iter().enumerate() {
            t.insert(i as u32, p);
        }
        (pts, t)
    }

    // Tiny local pivot picker to avoid a dev-dependency cycle.
    fn pmi_pivots_stub(pts: &[Vec<f32>], k: usize) -> Vec<Vec<f32>> {
        (0..k).map(|i| pts[i * 37 % pts.len()].clone()).collect()
    }

    /// The unseeded kNN over a fresh heap.
    fn knn<M: Metric<Vec<f32>>>(
        t: &MTree<Vec<f32>, M>,
        q: &Vec<f32>,
        k: usize,
        qd: &[f64],
    ) -> Vec<Neighbor> {
        let (mut heap, mut out) = (BinaryHeap::new(), Vec::new());
        let mut best = KnnBest::new(&mut heap, k, f64::INFINITY);
        t.knn(q, qd, &mut best);
        best.finish(&mut out);
        out
    }

    fn brute_range(pts: &[Vec<f32>], q: &[f32], r: f64) -> Vec<u32> {
        let q = q.to_vec();
        pts.iter()
            .enumerate()
            .filter(|(_, p)| L2.dist(&q, p) <= r)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn range_matches_brute_force_plain() {
        let (pts, t) = build(500, 0);
        assert_eq!(t.len(), 500);
        assert!(t.height() >= 2);
        for qi in [3usize, 99, 250] {
            let q = &pts[qi];
            for r in [100.0, 800.0, 3000.0] {
                let mut got: Vec<u32> = t.range(q, r, &[]).into_iter().map(|(i, _)| i).collect();
                got.sort();
                assert_eq!(got, brute_range(&pts, q, r), "q={qi} r={r}");
            }
        }
    }

    #[test]
    fn range_matches_brute_force_augmented() {
        let (pts, t) = build(500, 4);
        let qd = t.map_object(&pts[42]);
        let mut got: Vec<u32> = t
            .range(&pts[42], 900.0, &qd)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        got.sort();
        assert_eq!(got, brute_range(&pts, &pts[42], 900.0));
    }

    #[test]
    fn augmentation_reduces_distance_computations() {
        let (pts, plain) = build(800, 0);
        let (_, aug) = build(800, 4);
        let q = &pts[11];
        plain.metric().reset();
        let _ = plain.range(q, 500.0, &[]);
        let plain_cd = plain.metric().count();
        aug.metric().reset();
        let qd = aug.map_object(q);
        let _ = aug.range(q, 500.0, &qd);
        let aug_cd = aug.metric().count();
        assert!(
            aug_cd < plain_cd,
            "PM-tree rings should prune: {aug_cd} vs {plain_cd}"
        );
    }

    #[test]
    fn knn_matches_brute_force() {
        let (pts, t) = build(400, 3);
        let q = &pts[7];
        let qd = t.map_object(q);
        let got = knn(&t, q, 10, &qd);
        assert_eq!(got.len(), 10);
        let mut all: Vec<Neighbor> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| Neighbor::new(i as u32, L2.dist(q, p)))
            .collect();
        all.sort();
        assert_eq!(got, all[..10], "the (distance, id) top-k");
    }

    #[test]
    fn fetch_finds_objects_after_splits() {
        let (pts, t) = build(300, 0);
        for i in [0usize, 150, 299] {
            let o = t.fetch(i as u32).expect("object present");
            assert_eq!(o, pts[i]);
        }
        assert_eq!(t.fetch(9999), None);
    }

    #[test]
    fn remove_then_queries_stay_correct() {
        let (pts, mut t) = build(300, 0);
        for i in 0..50u32 {
            assert!(t.remove(i, &pts[i as usize]), "remove {i}");
        }
        assert_eq!(t.len(), 250);
        let q = &pts[100];
        let mut got: Vec<u32> = t
            .range(q, 1500.0, &[])
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        got.sort();
        let want: Vec<u32> = brute_range(&pts, q, 1500.0)
            .into_iter()
            .filter(|&i| i >= 50)
            .collect();
        assert_eq!(got, want);
        // Reinsert and check again.
        for i in 0..50u32 {
            t.insert(i, &pts[i as usize]);
        }
        let mut got: Vec<u32> = t
            .range(q, 1500.0, &[])
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        got.sort();
        assert_eq!(got, brute_range(&pts, q, 1500.0));
    }

    #[test]
    fn pages_and_storage_accounting() {
        let (_, t) = build(500, 0);
        assert!(t.pages_used() > 2);
        assert_eq!(t.disk_bytes(), (t.pages_used() * 1024) as u64);
    }

    #[test]
    fn invariants_hold_after_build_and_updates() {
        let (pts, mut t) = build(400, 3);
        t.check_invariants().expect("fresh tree");
        for i in (0..100u32).step_by(3) {
            assert!(t.remove(i, &pts[i as usize]));
        }
        t.check_invariants().expect("after removals");
        for i in (0..100u32).step_by(3) {
            t.insert(i, &pts[i as usize]);
        }
        t.check_invariants().expect("after reinserts");
    }

    #[test]
    fn empty_tree() {
        let t: MTree<Vec<f32>, L2> = MTree::new(DiskSim::new(1024), L2, vec![]);
        assert!(t.is_empty());
        assert_eq!(t.range(&vec![0.0, 0.0], 10.0, &[]), vec![]);
        assert_eq!(knn(&t, &vec![0.0, 0.0], 3, &[]), vec![]);
    }
}
