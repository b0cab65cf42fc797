//! A paged B+-tree over the simulated disk, with optional per-entry subtree
//! summaries (used by the SPB-tree to keep minimum bounding boxes of mapped
//! vectors in its non-leaf entries, paper §5.4).
//!
//! Design notes:
//!
//! * Every node occupies exactly one disk page; all node accesses go through
//!   [`pmi_storage::DiskSim`] so that the paper's PA metric is observable.
//! * Keys are fixed-size and totally ordered ([`Key`]); duplicate keys are
//!   allowed (distances collide), so removal is by `(key, value)` pair.
//! * Internal entries store a *lower bound* of their child's keys. Deleting
//!   a subtree minimum may leave the bound slack, which preserves search
//!   correctness (bounds only steer descent) while keeping deletion simple.
//! * [`BpTree::read_node`] exposes raw nodes so that index structures can
//!   run their own pruned traversals (depth-first MRQ / best-first MkNNQ)
//!   while still paying the same page-access costs.

mod key;

pub use key::{F64Key, Key, Val};

use pmi_storage::{DiskSim, PageId};

const NO_PAGE: PageId = PageId::MAX;

/// Computes per-entry subtree summaries (e.g. MBBs). The summary of an
/// internal entry aggregates everything stored below it.
pub trait Summarizer<K>: Clone + Send + Sync {
    /// The summary type.
    type Summary: Clone + std::fmt::Debug + Send + Sync;
    /// Encoded summary size in bytes (fixed).
    fn size(&self) -> usize;
    /// Summary of a single leaf key.
    fn leaf(&self, k: &K) -> Self::Summary;
    /// Merges `other` into `acc`.
    fn merge(&self, acc: &mut Self::Summary, other: &Self::Summary);
    /// Appends the encoding of `s` to `out` (exactly [`Self::size`] bytes).
    fn write(&self, s: &Self::Summary, out: &mut Vec<u8>);
    /// Decodes a summary from the front of `buf`.
    fn read(&self, buf: &[u8]) -> Self::Summary;
}

/// The trivial summarizer: summaries are zero-sized and carry nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoSummary;

impl<K> Summarizer<K> for NoSummary {
    type Summary = ();
    fn size(&self) -> usize {
        0
    }
    fn leaf(&self, _k: &K) {}
    fn merge(&self, _acc: &mut (), _other: &()) {}
    fn write(&self, _s: &(), _out: &mut Vec<u8>) {}
    fn read(&self, _buf: &[u8]) {}
}

/// A decoded node, as exposed to custom traversals.
#[derive(Clone, Debug)]
pub enum NodeView<K, V, S> {
    /// Leaf node: sorted `(key, value)` entries plus the right-sibling link.
    Leaf {
        /// Entries in key order.
        entries: Vec<(K, V)>,
        /// Next leaf to the right, if any.
        next: Option<PageId>,
    },
    /// Internal node: `(min-key lower bound, child page, summary)` entries.
    Internal {
        /// Entries in key order.
        entries: Vec<(K, PageId, S)>,
    },
}

/// A paged B+-tree.
pub struct BpTree<K, V, S: Summarizer<K> = NoSummary> {
    disk: DiskSim,
    summarizer: S,
    root: Option<PageId>,
    height: usize,
    len: usize,
    pages_used: usize,
    free: Vec<PageId>,
    _marker: std::marker::PhantomData<(K, V)>,
}

impl<K: Key, V: Val, S: Summarizer<K>> BpTree<K, V, S> {
    /// Creates an empty tree on `disk`.
    pub fn new(disk: DiskSim, summarizer: S) -> Self {
        let t = BpTree {
            disk,
            summarizer,
            root: None,
            height: 0,
            len: 0,
            pages_used: 0,
            free: Vec::new(),
            _marker: std::marker::PhantomData,
        };
        assert!(t.leaf_cap() >= 2, "page too small for two leaf entries");
        assert!(t.int_cap() >= 2, "page too small for two internal entries");
        t
    }

    /// This tree re-pointed at `disk`, a [`DiskSim::fork`] of its own disk:
    /// same pages, independent afterwards.
    pub fn fork_onto(&self, disk: &DiskSim) -> Self
    where
        S: Clone,
    {
        BpTree {
            disk: disk.clone(),
            summarizer: self.summarizer.clone(),
            root: self.root,
            height: self.height,
            len: self.len,
            pages_used: self.pages_used,
            free: self.free.clone(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Bulk-loads from entries sorted by key (ties in any order).
    pub fn bulk_load(disk: DiskSim, summarizer: S, sorted: &[(K, V)]) -> Self {
        let mut t = Self::new(disk, summarizer);
        if sorted.is_empty() {
            return t;
        }
        debug_assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
        // Fill leaves to ~80% to leave room for inserts.
        let per_leaf = ((t.leaf_cap() * 4) / 5).max(2);
        let mut level: Vec<(K, PageId, S::Summary)> = Vec::new();
        let mut chunk_start = 0;
        let mut leaf_pids: Vec<PageId> = Vec::new();
        let mut bounds: Vec<(usize, usize)> = Vec::new();
        while chunk_start < sorted.len() {
            let end = (chunk_start + per_leaf).min(sorted.len());
            leaf_pids.push(t.alloc_page());
            bounds.push((chunk_start, end));
            chunk_start = end;
        }
        for (i, &(s0, e0)) in bounds.iter().enumerate() {
            let chunk = &sorted[s0..e0];
            let next = leaf_pids.get(i + 1).copied();
            t.write_leaf(leaf_pids[i], chunk, next);
            let s = t.leaf_summary(chunk);
            level.push((chunk[0].0, leaf_pids[i], s));
        }
        t.len = sorted.len();
        t.height = 1;
        // Build internal levels.
        let per_node = ((t.int_cap() * 4) / 5).max(2);
        while level.len() > 1 {
            let mut upper = Vec::new();
            for chunk in level.chunks(per_node) {
                let pid = t.alloc_page();
                t.write_internal(pid, chunk);
                let s = t.internal_summary(chunk);
                upper.push((chunk[0].0, pid, s));
            }
            level = upper;
            t.height += 1;
        }
        t.root = Some(level[0].1);
        t
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height in levels (0 when empty).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Root page, if any.
    pub fn root(&self) -> Option<PageId> {
        self.root
    }

    /// Pages currently owned by the tree.
    pub fn pages_used(&self) -> usize {
        self.pages_used
    }

    /// Bytes occupied on disk.
    pub fn disk_bytes(&self) -> u64 {
        (self.pages_used * self.disk.page_size()) as u64
    }

    /// The disk handle.
    pub fn disk(&self) -> &DiskSim {
        &self.disk
    }

    /// Reads and decodes a node (counted as a page access).
    pub fn read_node(&self, pid: PageId) -> NodeView<K, V, S::Summary> {
        let page = self.disk.read(pid);
        self.decode_node(&page)
    }

    /// Inserts an entry (duplicates allowed).
    pub fn insert(&mut self, k: K, v: V) {
        match self.root {
            None => {
                let pid = self.alloc_page();
                self.write_leaf(pid, &[(k, v)], None);
                self.root = Some(pid);
                self.height = 1;
            }
            Some(root) => {
                if let (_, Some((rk, rpid, rs))) = self.insert_rec(root, k, v) {
                    // Root split: build a new root over the two subtrees.
                    let old_min = self.subtree_min_key(root);
                    let old_summary = self.subtree_summary(root);
                    let new_root = self.alloc_page();
                    self.write_internal(new_root, &[(old_min, root, old_summary), (rk, rpid, rs)]);
                    self.root = Some(new_root);
                    self.height += 1;
                }
            }
        }
        self.len += 1;
    }

    /// Removes one entry equal to `(k, v)`. Returns whether it was found.
    pub fn remove(&mut self, k: K, v: V) -> bool {
        let Some(root) = self.root else { return false };
        let (found, _summary, now_empty) = self.remove_rec(root, k, v);
        if found {
            self.len -= 1;
            if now_empty {
                self.free_page(root);
                self.root = None;
                self.height = 0;
            } else if self.height > 1 {
                // Collapse single-child roots.
                if let NodeView::Internal { entries } = self.read_node(root) {
                    if entries.len() == 1 {
                        self.free_page(root);
                        self.root = Some(entries[0].1);
                        self.height -= 1;
                    }
                }
            }
        }
        found
    }

    /// Visits entries with keys in `[lo, hi]` in key order; the callback
    /// returns `false` to stop early.
    pub fn range<F: FnMut(K, V) -> bool>(&self, lo: K, hi: K, mut f: F) {
        let Some(mut pid) = self.root else { return };
        // Descend to the leaf that may contain `lo`.
        for _ in 1..self.height {
            match self.read_node(pid) {
                NodeView::Internal { entries } => {
                    // Last child with min-key strictly below `lo`: duplicates
                    // of `lo` may start at the end of that child.
                    let idx = entries.partition_point(|e| e.0 < lo).saturating_sub(1);
                    pid = entries[idx].1;
                }
                NodeView::Leaf { .. } => break,
            }
        }
        let mut cur = Some(pid);
        while let Some(pid) = cur {
            match self.read_node(pid) {
                NodeView::Leaf { entries, next } => {
                    for (k, v) in entries {
                        if k > hi {
                            return;
                        }
                        if k >= lo && !f(k, v) {
                            return;
                        }
                    }
                    cur = next;
                }
                NodeView::Internal { .. } => unreachable!("leaf level expected"),
            }
        }
    }

    /// Collects all entries in `[lo, hi]`.
    pub fn range_vec(&self, lo: K, hi: K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.range(lo, hi, |k, v| {
            out.push((k, v));
            true
        });
        out
    }

    // --- internals ---------------------------------------------------------

    fn leaf_cap(&self) -> usize {
        (self.disk.page_size() - 7) / (K::SIZE + V::SIZE)
    }

    fn int_cap(&self) -> usize {
        (self.disk.page_size() - 3) / (K::SIZE + 4 + self.summarizer.size())
    }

    fn alloc_page(&mut self) -> PageId {
        self.pages_used += 1;
        self.free.pop().unwrap_or_else(|| self.disk.alloc())
    }

    fn free_page(&mut self, pid: PageId) {
        self.pages_used -= 1;
        self.free.push(pid);
    }

    fn decode_node(&self, page: &[u8]) -> NodeView<K, V, S::Summary> {
        let count = u16::from_le_bytes(page[1..3].try_into().unwrap()) as usize;
        if page[0] == 0 {
            let next = PageId::from_le_bytes(page[3..7].try_into().unwrap());
            let mut entries = Vec::with_capacity(count);
            let mut off = 7;
            for _ in 0..count {
                let k = K::read(&page[off..]);
                off += K::SIZE;
                let v = V::read(&page[off..]);
                off += V::SIZE;
                entries.push((k, v));
            }
            NodeView::Leaf {
                entries,
                next: (next != NO_PAGE).then_some(next),
            }
        } else {
            let mut entries = Vec::with_capacity(count);
            let mut off = 3;
            for _ in 0..count {
                let k = K::read(&page[off..]);
                off += K::SIZE;
                let c = PageId::from_le_bytes(page[off..off + 4].try_into().unwrap());
                off += 4;
                let s = self.summarizer.read(&page[off..]);
                off += self.summarizer.size();
                entries.push((k, c, s));
            }
            NodeView::Internal { entries }
        }
    }

    fn write_leaf(&self, pid: PageId, entries: &[(K, V)], next: Option<PageId>) {
        debug_assert!(entries.len() <= self.leaf_cap());
        let mut page = Vec::with_capacity(self.disk.page_size());
        page.push(0u8);
        page.extend_from_slice(&(entries.len() as u16).to_le_bytes());
        page.extend_from_slice(&next.unwrap_or(NO_PAGE).to_le_bytes());
        for (k, v) in entries {
            k.write(&mut page);
            v.write(&mut page);
        }
        page.resize(self.disk.page_size(), 0);
        self.disk.write(pid, &page);
    }

    fn write_internal(&self, pid: PageId, entries: &[(K, PageId, S::Summary)]) {
        debug_assert!(entries.len() <= self.int_cap());
        let mut page = Vec::with_capacity(self.disk.page_size());
        page.push(1u8);
        page.extend_from_slice(&(entries.len() as u16).to_le_bytes());
        for (k, c, s) in entries {
            k.write(&mut page);
            page.extend_from_slice(&c.to_le_bytes());
            self.summarizer.write(s, &mut page);
        }
        page.resize(self.disk.page_size(), 0);
        self.disk.write(pid, &page);
    }

    fn leaf_summary(&self, entries: &[(K, V)]) -> S::Summary {
        let mut s = self.summarizer.leaf(&entries[0].0);
        for (k, _) in &entries[1..] {
            let ks = self.summarizer.leaf(k);
            self.summarizer.merge(&mut s, &ks);
        }
        s
    }

    fn internal_summary(&self, entries: &[(K, PageId, S::Summary)]) -> S::Summary {
        let mut s = entries[0].2.clone();
        for (_, _, cs) in &entries[1..] {
            self.summarizer.merge(&mut s, cs);
        }
        s
    }

    fn subtree_min_key(&self, pid: PageId) -> K {
        match self.read_node(pid) {
            NodeView::Leaf { entries, .. } => entries[0].0,
            NodeView::Internal { entries } => entries[0].0,
        }
    }

    fn subtree_summary(&self, pid: PageId) -> S::Summary {
        match self.read_node(pid) {
            NodeView::Leaf { entries, .. } => self.leaf_summary(&entries),
            NodeView::Internal { entries } => self.internal_summary(&entries),
        }
    }

    /// Returns `(subtree summary, split)`; `split` is the new right sibling.
    #[allow(clippy::type_complexity)]
    fn insert_rec(
        &mut self,
        pid: PageId,
        k: K,
        v: V,
    ) -> (S::Summary, Option<(K, PageId, S::Summary)>) {
        match self.read_node(pid) {
            NodeView::Leaf { mut entries, next } => {
                let pos = entries.partition_point(|(ek, _)| *ek <= k);
                entries.insert(pos, (k, v));
                if entries.len() <= self.leaf_cap() {
                    self.write_leaf(pid, &entries, next);
                    (self.leaf_summary(&entries), None)
                } else {
                    let right = entries.split_off(entries.len() / 2);
                    let rpid = self.alloc_page();
                    self.write_leaf(rpid, &right, next);
                    self.write_leaf(pid, &entries, Some(rpid));
                    let rs = self.leaf_summary(&right);
                    (self.leaf_summary(&entries), Some((right[0].0, rpid, rs)))
                }
            }
            NodeView::Internal { mut entries } => {
                let mut idx = entries.partition_point(|e| e.0 <= k);
                idx = idx.saturating_sub(1);
                let (child_summary, split) = self.insert_rec(entries[idx].1, k, v);
                // Keep the lower bound tight-ish.
                if k < entries[idx].0 {
                    entries[idx].0 = k;
                }
                entries[idx].2 = child_summary;
                if let Some(se) = split {
                    entries.insert(idx + 1, se);
                }
                if entries.len() <= self.int_cap() {
                    self.write_internal(pid, &entries);
                    (self.internal_summary(&entries), None)
                } else {
                    let right = entries.split_off(entries.len() / 2);
                    let rpid = self.alloc_page();
                    self.write_internal(rpid, &right);
                    self.write_internal(pid, &entries);
                    let rs = self.internal_summary(&right);
                    (
                        self.internal_summary(&entries),
                        Some((right[0].0, rpid, rs)),
                    )
                }
            }
        }
    }

    /// Returns `(found, new summary if non-empty, subtree now empty)`.
    fn remove_rec(&mut self, pid: PageId, k: K, v: V) -> (bool, Option<S::Summary>, bool) {
        match self.read_node(pid) {
            NodeView::Leaf { mut entries, next } => {
                let Some(pos) = entries.iter().position(|(ek, ev)| *ek == k && *ev == v) else {
                    return (false, None, false);
                };
                entries.remove(pos);
                if entries.is_empty() {
                    self.write_leaf(pid, &entries, next);
                    (true, None, true)
                } else {
                    self.write_leaf(pid, &entries, next);
                    (true, Some(self.leaf_summary(&entries)), false)
                }
            }
            NodeView::Internal { mut entries } => {
                // Duplicates may spill across children: try every child whose
                // key range could contain `k`, starting from the first with
                // lower bound <= k that the next sibling does not rule out.
                let start = {
                    let mut i = entries.partition_point(|e| e.0 <= k);
                    i = i.saturating_sub(1);
                    while i > 0 && entries[i].0 == k {
                        i -= 1;
                    }
                    i
                };
                let mut found = false;
                let mut child_empty = false;
                let mut ci = start;
                while ci < entries.len() && entries[ci].0 <= k {
                    let (f, s, empty) = self.remove_rec(entries[ci].1, k, v);
                    if f {
                        found = true;
                        child_empty = empty;
                        if let Some(s) = s {
                            entries[ci].2 = s;
                        }
                        break;
                    }
                    ci += 1;
                }
                if !found {
                    return (false, None, false);
                }
                if child_empty {
                    self.free_page(entries[ci].1);
                    entries.remove(ci);
                    self.relink_leaves_if_needed();
                }
                if entries.is_empty() {
                    (true, None, true)
                } else {
                    self.write_internal(pid, &entries);
                    (true, Some(self.internal_summary(&entries)), false)
                }
            }
        }
    }

    /// After unlinking an empty leaf, left siblings still point at the freed
    /// page. Rebuild the leaf chain from the tree structure. This favours
    /// simplicity over minimal write amplification (see module docs).
    fn relink_leaves_if_needed(&mut self) {
        let Some(root) = self.root else { return };
        if self.height <= 1 {
            return;
        }
        let mut leaves = Vec::new();
        self.collect_leaves(root, &mut leaves);
        for i in 0..leaves.len() {
            let next = leaves.get(i + 1).copied();
            if let NodeView::Leaf { entries, next: old } = self.read_node(leaves[i]) {
                if old != next {
                    self.write_leaf(leaves[i], &entries, next);
                }
            }
        }
    }

    fn collect_leaves(&self, pid: PageId, out: &mut Vec<PageId>) {
        match self.read_node(pid) {
            NodeView::Leaf { .. } => out.push(pid),
            NodeView::Internal { entries } => {
                for (_, c, _) in entries {
                    self.collect_leaves(c, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(page: usize) -> BpTree<u64, u32> {
        BpTree::new(DiskSim::new(page), NoSummary)
    }

    #[test]
    fn empty_tree() {
        let t = tree(256);
        assert!(t.is_empty());
        assert_eq!(t.range_vec(0, u64::MAX), vec![]);
    }

    #[test]
    fn insert_and_range() {
        let mut t = tree(256);
        for i in (0..200u64).rev() {
            t.insert(i * 2, i as u32);
        }
        assert_eq!(t.len(), 200);
        let all = t.range_vec(0, u64::MAX);
        assert_eq!(all.len(), 200);
        assert!(all.windows(2).all(|w| w[0].0 <= w[1].0));
        let mid = t.range_vec(100, 120);
        assert_eq!(
            mid.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120]
        );
    }

    #[test]
    fn duplicate_keys() {
        let mut t = tree(256);
        for v in 0..50u32 {
            t.insert(7, v);
        }
        t.insert(6, 999);
        t.insert(8, 999);
        let hits = t.range_vec(7, 7);
        assert_eq!(hits.len(), 50);
        assert!(t.remove(7, 25));
        assert!(!t.remove(7, 25));
        assert_eq!(t.range_vec(7, 7).len(), 49);
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let entries: Vec<(u64, u32)> = (0..500).map(|i| (i * 3, i as u32)).collect();
        let bulk = BpTree::bulk_load(DiskSim::new(256), NoSummary, &entries);
        assert_eq!(bulk.len(), 500);
        assert_eq!(bulk.range_vec(0, u64::MAX), entries);
        assert!(bulk.height() > 1);
    }

    #[test]
    fn remove_then_empty() {
        let mut t = tree(256);
        for i in 0..100u64 {
            t.insert(i, i as u32);
        }
        for i in 0..100u64 {
            assert!(t.remove(i, i as u32), "remove {i}");
        }
        assert!(t.is_empty());
        assert_eq!(t.root(), None);
        assert_eq!(t.range_vec(0, u64::MAX), vec![]);
        // Tree remains usable.
        t.insert(5, 5);
        assert_eq!(t.range_vec(0, u64::MAX), vec![(5, 5)]);
    }

    #[test]
    fn range_early_stop() {
        let mut t = tree(256);
        for i in 0..100u64 {
            t.insert(i, 0u32);
        }
        let mut seen = 0;
        t.range(0, u64::MAX, |_, _| {
            seen += 1;
            seen < 10
        });
        assert_eq!(seen, 10);
    }

    #[test]
    fn page_accounting() {
        let mut t = tree(256);
        for i in 0..1000u64 {
            t.insert(i, 0u32);
        }
        assert!(t.pages_used() > 4);
        assert_eq!(t.disk_bytes(), (t.pages_used() * 256) as u64);
        let pages_before = t.pages_used();
        for i in 0..1000u64 {
            t.remove(i, 0u32);
        }
        assert!(t.pages_used() < pages_before);
        assert_eq!(t.pages_used(), 0);
    }

    #[test]
    fn f64_keys() {
        let mut t: BpTree<F64Key, u32> = BpTree::new(DiskSim::new(256), NoSummary);
        let ds = [3.5, -1.0, 0.0, 2.25, -7.5, 10.0];
        for (i, d) in ds.iter().enumerate() {
            t.insert(F64Key::new(*d), i as u32);
        }
        let got = t.range_vec(F64Key::new(-2.0), F64Key::new(3.0));
        let keys: Vec<f64> = got.iter().map(|(k, _)| k.get()).collect();
        assert_eq!(keys, vec![-1.0, 0.0, 2.25]);
    }

    #[test]
    fn interleaved_ops_match_model() {
        use std::collections::BTreeSet;
        let mut t = tree(256);
        let mut model: BTreeSet<(u64, u32)> = BTreeSet::new();
        // Deterministic pseudo-random op stream.
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..2000 {
            let op = next() % 3;
            let k = next() % 64;
            let v = (next() % 8) as u32;
            match op {
                0 | 1 => {
                    // Model is a set; avoid duplicate (k,v) pairs so counts
                    // stay comparable.
                    if model.insert((k, v)) {
                        t.insert(k, v);
                    }
                }
                _ => {
                    let was = model.remove(&(k, v));
                    assert_eq!(t.remove(k, v), was, "remove({k},{v})");
                }
            }
        }
        let got = t.range_vec(0, u64::MAX);
        let want: Vec<(u64, u32)> = model.iter().copied().collect();
        let mut got_sorted = got.clone();
        got_sorted.sort();
        assert_eq!(got_sorted, want);
        assert_eq!(t.len(), model.len());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u64, u32),
        Remove(u64, u32),
        Range(u64, u64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u64..100, 0u32..4).prop_map(|(k, v)| Op::Insert(k, v)),
            2 => (0u64..100, 0u32..4).prop_map(|(k, v)| Op::Remove(k, v)),
            1 => (0u64..100, 0u64..100).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The tree behaves exactly like a sorted multiset of (key, value)
        /// pairs under arbitrary interleavings of operations, including the
        /// page-split and page-free paths (tiny pages force splits early).
        #[test]
        fn behaves_like_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
            let mut tree = BpTree::<u64, u32>::new(DiskSim::new(256), NoSummary);
            let mut model: Vec<(u64, u32)> = Vec::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        tree.insert(k, v);
                        let pos = model.partition_point(|(mk, _)| *mk <= k);
                        model.insert(pos, (k, v));
                    }
                    Op::Remove(k, v) => {
                        let in_model = model.iter().position(|e| *e == (k, v));
                        let removed = tree.remove(k, v);
                        prop_assert_eq!(removed, in_model.is_some());
                        if let Some(p) = in_model {
                            model.remove(p);
                        }
                    }
                    Op::Range(lo, hi) => {
                        let mut got = tree.range_vec(lo, hi);
                        got.sort();
                        let mut want: Vec<(u64, u32)> = model
                            .iter()
                            .copied()
                            .filter(|(k, _)| *k >= lo && *k <= hi)
                            .collect();
                        want.sort();
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(tree.len(), model.len());
            }
            let mut got = tree.range_vec(0, u64::MAX);
            got.sort();
            model.sort();
            prop_assert_eq!(got, model);
        }

        /// Bulk load over any sorted input equals the input.
        #[test]
        fn bulk_load_roundtrip(mut keys in prop::collection::vec(0u64..1000, 0..300)) {
            keys.sort();
            let entries: Vec<(u64, u32)> =
                keys.iter().enumerate().map(|(i, k)| (*k, i as u32)).collect();
            let t = BpTree::bulk_load(DiskSim::new(256), NoSummary, &entries);
            prop_assert_eq!(t.len(), entries.len());
            let got = t.range_vec(0, u64::MAX);
            prop_assert_eq!(got.len(), entries.len());
            prop_assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }
}
