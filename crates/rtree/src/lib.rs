//! A paged R-tree over the simulated disk.
//!
//! The OmniR-tree (paper §5.2) indexes the pivot-mapped vectors — points in
//! an `l`-dimensional space where `l = |P|` — with an R-tree whose leaf
//! entries reference objects in a separate random access file. This
//! implementation provides:
//!
//! * STR bulk loading (sort-tile-recursive) for well-clustered builds,
//! * Guttman quadratic-split insertion and simple deletion with reinsertion,
//! * box-intersection range search (the search region of Lemma 1 is a box
//!   in pivot space),
//! * raw node access ([`RTree::read_node`]) for best-first MkNNQ traversals
//!   driven by the Chebyshev `MINDIST` of [`Mbb::mindist`], which is the
//!   valid metric lower bound in pivot space.
//!
//! Boxes are stored as `f32` with outward rounding so that pruning stays
//! sound for `f64` distances.

use pmi_storage::{DiskSim, PageId};

/// Maximum supported dimensionality (the paper sweeps |P| up to 9).
pub const MAX_DIMS: usize = 16;

/// An axis-aligned minimum bounding box with outward-rounded `f32` bounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mbb {
    dims: u8,
    lo: [f32; MAX_DIMS],
    hi: [f32; MAX_DIMS],
}

impl Mbb {
    /// An empty (inverted) box of `dims` dimensions; unioning fixes it.
    pub fn empty(dims: usize) -> Self {
        assert!((1..=MAX_DIMS).contains(&dims));
        let mut lo = [f32::INFINITY; MAX_DIMS];
        let mut hi = [f32::NEG_INFINITY; MAX_DIMS];
        for d in dims..MAX_DIMS {
            lo[d] = 0.0;
            hi[d] = 0.0;
        }
        Mbb {
            dims: dims as u8,
            lo,
            hi,
        }
    }

    /// A degenerate box around an `f64` point, rounded outward so the box
    /// provably contains the point.
    pub fn from_point(p: &[f64]) -> Self {
        let mut b = Mbb::empty(p.len());
        for (d, &x) in p.iter().enumerate() {
            b.lo[d] = next_down(x as f32, x);
            b.hi[d] = next_up(x as f32, x);
        }
        b
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims as usize
    }

    /// Lower bounds.
    pub fn lo(&self) -> &[f32] {
        &self.lo[..self.dims as usize]
    }

    /// Upper bounds.
    pub fn hi(&self) -> &[f32] {
        &self.hi[..self.dims as usize]
    }

    /// Lower bounds widened to `f64`.
    pub fn lo_f64(&self) -> Vec<f64> {
        self.lo().iter().map(|&x| x as f64).collect()
    }

    /// Upper bounds widened to `f64`.
    pub fn hi_f64(&self) -> Vec<f64> {
        self.hi().iter().map(|&x| x as f64).collect()
    }

    /// Grows `self` to cover `other`.
    pub fn union_with(&mut self, other: &Mbb) {
        debug_assert_eq!(self.dims, other.dims);
        for d in 0..self.dims as usize {
            self.lo[d] = self.lo[d].min(other.lo[d]);
            self.hi[d] = self.hi[d].max(other.hi[d]);
        }
    }

    /// Whether `self` intersects the closed `f64` box `[lo, hi]`.
    pub fn intersects(&self, lo: &[f64], hi: &[f64]) -> bool {
        for d in 0..self.dims as usize {
            if (self.lo[d] as f64) > hi[d] || (self.hi[d] as f64) < lo[d] {
                return false;
            }
        }
        true
    }

    /// Chebyshev (L∞) distance from point `q` to this box — the valid lower
    /// bound on the metric distance for any object mapped inside the box
    /// (Lemma 1 applied to regions).
    pub fn mindist(&self, q: &[f64]) -> f64 {
        let mut m = 0.0f64;
        for (d, &x) in q.iter().enumerate().take(self.dims as usize) {
            let gap = if x < self.lo[d] as f64 {
                self.lo[d] as f64 - x
            } else if x > self.hi[d] as f64 {
                x - self.hi[d] as f64
            } else {
                0.0
            };
            if gap > m {
                m = gap;
            }
        }
        m
    }

    /// Area (product of extents) in `f64`; used by the quadratic split.
    pub fn area(&self) -> f64 {
        let mut a = 1.0f64;
        for d in 0..self.dims as usize {
            a *= (self.hi[d] - self.lo[d]).max(0.0) as f64;
        }
        a
    }

    /// Sum of extents; tiebreaker where areas degenerate to zero.
    pub fn margin(&self) -> f64 {
        (0..self.dims as usize)
            .map(|d| (self.hi[d] - self.lo[d]).max(0.0) as f64)
            .sum()
    }

    fn union(a: &Mbb, b: &Mbb) -> Mbb {
        let mut u = *a;
        u.union_with(b);
        u
    }

    fn enlargement(&self, add: &Mbb) -> f64 {
        let u = Mbb::union(self, add);
        let da = u.area() - self.area();
        if da > 0.0 {
            da
        } else {
            // Degenerate area: fall back to margin growth.
            (u.margin() - self.margin()).max(0.0)
        }
    }

    fn write(&self, out: &mut Vec<u8>) {
        for d in 0..self.dims as usize {
            out.extend_from_slice(&self.lo[d].to_le_bytes());
            out.extend_from_slice(&self.hi[d].to_le_bytes());
        }
    }

    fn read(buf: &[u8], dims: usize) -> Self {
        let mut b = Mbb::empty(dims);
        let mut off = 0;
        for d in 0..dims {
            b.lo[d] = f32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
            b.hi[d] = f32::from_le_bytes(buf[off + 4..off + 8].try_into().unwrap());
            off += 8;
        }
        b
    }
}

/// Rounds `v` down if the cast rounded up.
fn next_down(v: f32, exact: f64) -> f32 {
    if (v as f64) > exact {
        f32::from_bits(if v > 0.0 {
            v.to_bits() - 1
        } else {
            v.to_bits() + 1
        })
    } else {
        v
    }
}

/// Rounds `v` up if the cast rounded down.
fn next_up(v: f32, exact: f64) -> f32 {
    if (v as f64) < exact {
        f32::from_bits(if v >= 0.0 {
            v.to_bits() + 1
        } else {
            v.to_bits() - 1
        })
    } else {
        v
    }
}

/// A decoded R-tree node.
#[derive(Clone, Debug)]
pub enum NodeView {
    /// Leaf entries: object boxes (points, for pivot mappings) + object ids.
    Leaf {
        /// `(bounding box, object id)` pairs.
        entries: Vec<(Mbb, u32)>,
    },
    /// Internal entries: child boxes + child pages.
    Internal {
        /// `(bounding box, child page)` pairs.
        entries: Vec<(Mbb, PageId)>,
    },
}

/// A paged R-tree.
pub struct RTree {
    disk: DiskSim,
    dims: usize,
    root: Option<PageId>,
    height: usize,
    len: usize,
    pages_used: usize,
    free: Vec<PageId>,
}

impl RTree {
    /// Creates an empty R-tree for `dims`-dimensional boxes.
    pub fn new(disk: DiskSim, dims: usize) -> Self {
        assert!((1..=MAX_DIMS).contains(&dims));
        let t = RTree {
            disk,
            dims,
            root: None,
            height: 0,
            len: 0,
            pages_used: 0,
            free: Vec::new(),
        };
        assert!(t.cap() >= 4, "page too small for an R-tree node");
        t
    }

    /// This tree re-pointed at `disk`, a [`DiskSim::fork`] of its own disk:
    /// same pages, independent afterwards.
    pub fn fork_onto(&self, disk: &DiskSim) -> Self {
        RTree {
            disk: disk.clone(),
            dims: self.dims,
            root: self.root,
            height: self.height,
            len: self.len,
            pages_used: self.pages_used,
            free: self.free.clone(),
        }
    }

    /// STR bulk load from `(box, object id)` pairs.
    pub fn bulk_load(disk: DiskSim, dims: usize, mut items: Vec<(Mbb, u32)>) -> Self {
        let mut t = Self::new(disk, dims);
        if items.is_empty() {
            return t;
        }
        t.len = items.len();
        let cap = (t.cap() * 4) / 5;
        let mut groups: Vec<Vec<(Mbb, u32)>> = Vec::new();
        str_partition(&mut items, 0, dims, cap.max(2), &mut groups);
        let mut level: Vec<(Mbb, PageId)> = groups
            .into_iter()
            .map(|g| {
                let pid = t.alloc_page();
                t.write_node(
                    pid,
                    true,
                    &g.iter().map(|(b, v)| (*b, *v)).collect::<Vec<_>>(),
                );
                let mut mbb = g[0].0;
                for (b, _) in &g[1..] {
                    mbb.union_with(b);
                }
                (mbb, pid)
            })
            .collect();
        t.height = 1;
        while level.len() > 1 {
            let mut upper = Vec::new();
            for chunk in level.chunks(cap.max(2)) {
                let pid = t.alloc_page();
                t.write_node(pid, false, chunk);
                let mut mbb = chunk[0].0;
                for (b, _) in &chunk[1..] {
                    mbb.union_with(b);
                }
                upper.push((mbb, pid));
            }
            level = upper;
            t.height += 1;
        }
        t.root = Some(level[0].1);
        t
    }

    /// Number of indexed objects.
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

    /// Root page, if any.
    pub fn root(&self) -> Option<PageId> {
        self.root
    }

    /// Pages owned by the tree.
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

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Reads and decodes a node (counted page access).
    pub fn read_node(&self, pid: PageId) -> NodeView {
        let page = self.disk.read(pid);
        self.decode(&page)
    }

    /// Inserts `(mbb, id)` (Guttman: least-enlargement descent, quadratic
    /// split).
    pub fn insert(&mut self, mbb: Mbb, id: u32) {
        assert_eq!(mbb.dims(), self.dims);
        match self.root {
            None => {
                let pid = self.alloc_page();
                self.write_node(pid, true, &[(mbb, id)]);
                self.root = Some(pid);
                self.height = 1;
            }
            Some(root) => {
                if let (_, Some((rb, rpid))) = self.insert_rec(root, 1, mbb, id) {
                    let lb = self.node_mbb(root);
                    let new_root = self.alloc_page();
                    self.write_node(new_root, false, &[(lb, root), (rb, rpid)]);
                    self.root = Some(new_root);
                    self.height += 1;
                }
            }
        }
        self.len += 1;
    }

    /// Removes the entry `(id)` whose box contains/equals `mbb`'s center;
    /// returns whether it was found. Simple algorithm: locate, remove, and
    /// leave the node (no condensation; boxes stay valid upper bounds).
    pub fn remove(&mut self, mbb: &Mbb, id: u32) -> bool {
        let Some(root) = self.root else { return false };
        let found = self.remove_rec(root, mbb, id);
        if found {
            self.len -= 1;
            if self.len == 0 {
                self.free_all(root);
                self.root = None;
                self.height = 0;
            }
        }
        found
    }

    /// Visits ids of all leaf entries whose box intersects `[lo, hi]`.
    pub fn search_box<F: FnMut(u32)>(&self, lo: &[f64], hi: &[f64], mut f: F) {
        let Some(root) = self.root else { return };
        let mut stack = vec![root];
        while let Some(pid) = stack.pop() {
            match self.read_node(pid) {
                NodeView::Leaf { entries } => {
                    for (b, id) in entries {
                        if b.intersects(lo, hi) {
                            f(id);
                        }
                    }
                }
                NodeView::Internal { entries } => {
                    for (b, c) in entries {
                        if b.intersects(lo, hi) {
                            stack.push(c);
                        }
                    }
                }
            }
        }
    }

    // --- internals ---------------------------------------------------------

    fn cap(&self) -> usize {
        (self.disk.page_size() - 3) / (8 * self.dims + 4)
    }

    fn alloc_page(&mut self) -> PageId {
        self.pages_used += 1;
        self.free.pop().unwrap_or_else(|| self.disk.alloc())
    }

    fn free_page(&mut self, pid: PageId) {
        self.pages_used -= 1;
        self.free.push(pid);
    }

    fn free_all(&mut self, pid: PageId) {
        if let NodeView::Internal { entries } = self.read_node(pid) {
            for (_, c) in entries {
                self.free_all(c);
            }
        }
        self.free_page(pid);
    }

    fn decode(&self, page: &[u8]) -> NodeView {
        let leaf = page[0] == 0;
        let count = u16::from_le_bytes(page[1..3].try_into().unwrap()) as usize;
        let esz = 8 * self.dims + 4;
        let mut off = 3;
        if leaf {
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let b = Mbb::read(&page[off..], self.dims);
                let id =
                    u32::from_le_bytes(page[off + 8 * self.dims..off + esz].try_into().unwrap());
                entries.push((b, id));
                off += esz;
            }
            NodeView::Leaf { entries }
        } else {
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let b = Mbb::read(&page[off..], self.dims);
                let c =
                    u32::from_le_bytes(page[off + 8 * self.dims..off + esz].try_into().unwrap());
                entries.push((b, c));
                off += esz;
            }
            NodeView::Internal { entries }
        }
    }

    fn write_node(&self, pid: PageId, leaf: bool, entries: &[(Mbb, u32)]) {
        debug_assert!(entries.len() <= self.cap(), "node overflow");
        let mut page = Vec::with_capacity(self.disk.page_size());
        page.push(if leaf { 0u8 } else { 1u8 });
        page.extend_from_slice(&(entries.len() as u16).to_le_bytes());
        for (b, v) in entries {
            b.write(&mut page);
            page.extend_from_slice(&v.to_le_bytes());
        }
        page.resize(self.disk.page_size(), 0);
        self.disk.write(pid, &page);
    }

    fn node_mbb(&self, pid: PageId) -> Mbb {
        let entries = match self.read_node(pid) {
            NodeView::Leaf { entries } => entries,
            NodeView::Internal { entries } => entries,
        };
        let mut mbb = entries[0].0;
        for (b, _) in &entries[1..] {
            mbb.union_with(b);
        }
        mbb
    }

    /// Returns `(subtree mbb, split sibling)`.
    fn insert_rec(
        &mut self,
        pid: PageId,
        level: usize,
        mbb: Mbb,
        id: u32,
    ) -> (Mbb, Option<(Mbb, PageId)>) {
        if level == self.height {
            // Leaf level.
            let NodeView::Leaf { mut entries } = self.read_node(pid) else {
                unreachable!("leaf expected at level {level}");
            };
            entries.push((mbb, id));
            if entries.len() <= self.cap() {
                self.write_node(pid, true, &entries);
                (cover(&entries), None)
            } else {
                let (left, right) = quadratic_split(entries, self.cap());
                let rpid = self.alloc_page();
                self.write_node(rpid, true, &right);
                self.write_node(pid, true, &left);
                (cover(&left), Some((cover(&right), rpid)))
            }
        } else {
            let NodeView::Internal { mut entries } = self.read_node(pid) else {
                unreachable!("internal expected at level {level}");
            };
            // Least enlargement, ties by smaller area.
            let mut best = 0;
            let mut best_enl = f64::INFINITY;
            let mut best_area = f64::INFINITY;
            for (i, (b, _)) in entries.iter().enumerate() {
                let enl = b.enlargement(&mbb);
                let area = b.area();
                if enl < best_enl || (enl == best_enl && area < best_area) {
                    best = i;
                    best_enl = enl;
                    best_area = area;
                }
            }
            let (child_mbb, split) = self.insert_rec(entries[best].1, level + 1, mbb, id);
            entries[best].0 = child_mbb;
            if let Some((sb, spid)) = split {
                entries.push((sb, spid));
            }
            if entries.len() <= self.cap() {
                self.write_node(pid, false, &entries);
                (cover(&entries), None)
            } else {
                let (left, right) = quadratic_split(entries, self.cap());
                let rpid = self.alloc_page();
                self.write_node(rpid, false, &right);
                self.write_node(pid, false, &left);
                (cover(&left), Some((cover(&right), rpid)))
            }
        }
    }

    fn remove_rec(&mut self, pid: PageId, mbb: &Mbb, id: u32) -> bool {
        match self.read_node(pid) {
            NodeView::Leaf { mut entries } => {
                if let Some(pos) = entries.iter().position(|(_, eid)| *eid == id) {
                    entries.remove(pos);
                    self.write_node(pid, true, &entries);
                    true
                } else {
                    false
                }
            }
            NodeView::Internal { entries } => {
                for (b, c) in &entries {
                    if b.intersects(&mbb.lo_f64(), &mbb.hi_f64()) && self.remove_rec(*c, mbb, id) {
                        return true;
                    }
                }
                false
            }
        }
    }
}

fn cover(entries: &[(Mbb, u32)]) -> Mbb {
    let mut mbb = entries[0].0;
    for (b, _) in &entries[1..] {
        mbb.union_with(b);
    }
    mbb
}

/// A node's entry list: boxes plus child page / object ids.
type EntryList = Vec<(Mbb, u32)>;

/// Guttman's quadratic split.
fn quadratic_split(entries: EntryList, cap: usize) -> (EntryList, EntryList) {
    let min_fill = (cap * 2) / 5;
    // Pick seeds with maximal dead space.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in i + 1..entries.len() {
            let u = Mbb::union(&entries[i].0, &entries[j].0);
            let dead = u.area() - entries[i].0.area() - entries[j].0.area();
            let dead = if dead.abs() < f64::EPSILON {
                u.margin() - entries[i].0.margin() - entries[j].0.margin()
            } else {
                dead
            };
            if dead > worst {
                worst = dead;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut left = vec![entries[s1]];
    let mut right = vec![entries[s2]];
    let mut lbox = entries[s1].0;
    let mut rbox = entries[s2].0;
    let mut rest: Vec<(Mbb, u32)> = entries
        .into_iter()
        .enumerate()
        .filter_map(|(i, e)| (i != s1 && i != s2).then_some(e))
        .collect();
    while let Some(e) = rest.pop() {
        let remaining = rest.len() + 1;
        if left.len() + remaining <= min_fill {
            lbox.union_with(&e.0);
            left.push(e);
            continue;
        }
        if right.len() + remaining <= min_fill {
            rbox.union_with(&e.0);
            right.push(e);
            continue;
        }
        let dl = lbox.enlargement(&e.0);
        let dr = rbox.enlargement(&e.0);
        if dl < dr || (dl == dr && left.len() <= right.len()) {
            lbox.union_with(&e.0);
            left.push(e);
        } else {
            rbox.union_with(&e.0);
            right.push(e);
        }
    }
    (left, right)
}

/// Sort-tile-recursive partitioning into leaf groups.
fn str_partition(
    items: &mut [(Mbb, u32)],
    dim: usize,
    dims: usize,
    cap: usize,
    out: &mut Vec<Vec<(Mbb, u32)>>,
) {
    if items.len() <= cap {
        out.push(items.to_vec());
        return;
    }
    let center = |b: &Mbb, d: usize| (b.lo()[d] + b.hi()[d]) / 2.0;
    items.sort_by(|a, b| center(&a.0, dim).total_cmp(&center(&b.0, dim)));
    if dim + 1 >= dims {
        for chunk in items.chunks(cap) {
            out.push(chunk.to_vec());
        }
        return;
    }
    let n_leaves = items.len().div_ceil(cap);
    let per_dim = (n_leaves as f64)
        .powf(1.0 / (dims - dim) as f64)
        .ceil()
        .max(1.0) as usize;
    let slab = items.len().div_ceil(per_dim);
    let mut start = 0;
    while start < items.len() {
        let end = (start + slab).min(items.len());
        str_partition(&mut items[start..end], dim + 1, dims, cap, out);
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(xs: &[f64]) -> Mbb {
        Mbb::from_point(xs)
    }

    #[test]
    fn mbb_basics() {
        let mut a = pt(&[1.0, 2.0]);
        a.union_with(&pt(&[3.0, -1.0]));
        assert!(a.intersects(&[2.0, 0.0], &[2.5, 0.5]));
        assert!(!a.intersects(&[4.0, 0.0], &[5.0, 1.0]));
        assert_eq!(a.mindist(&[5.0, 0.0]), 2.0);
        assert_eq!(a.mindist(&[2.0, 0.0]), 0.0);
    }

    #[test]
    fn outward_rounding_contains_point() {
        // A value that is not representable in f32.
        let x = 1.000000059604644e8 + 0.123456789;
        let b = pt(&[x]);
        assert!((b.lo()[0] as f64) <= x && x <= (b.hi()[0] as f64));
    }

    fn brute(points: &[Vec<f64>], lo: &[f64], hi: &[f64]) -> Vec<u32> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                p.iter().zip(lo).all(|(x, l)| x >= l) && p.iter().zip(hi).all(|(x, h)| x <= h)
            })
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn gen_points(n: usize, dims: usize, seed: u64) -> Vec<Vec<f64>> {
        // Simple LCG to avoid a rand dev-dependency cycle.
        let mut s = seed | 1;
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / (u32::MAX as f64) * 100.0
        };
        (0..n)
            .map(|_| (0..dims).map(|_| next()).collect())
            .collect()
    }

    #[test]
    fn insert_and_search_matches_brute_force() {
        for dims in [2usize, 5] {
            let pts = gen_points(400, dims, 42);
            let mut t = RTree::new(DiskSim::new(512), dims);
            for (i, p) in pts.iter().enumerate() {
                t.insert(pt(p), i as u32);
            }
            assert_eq!(t.len(), 400);
            for (lo_v, hi_v) in [(10.0, 50.0), (0.0, 100.0), (80.0, 81.0)] {
                let lo = vec![lo_v; dims];
                let hi = vec![hi_v; dims];
                let mut got = Vec::new();
                t.search_box(&lo, &hi, |id| got.push(id));
                got.sort();
                assert_eq!(got, brute(&pts, &lo, &hi), "dims={dims} {lo_v}..{hi_v}");
            }
        }
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let dims = 3;
        let pts = gen_points(600, dims, 7);
        let items: Vec<(Mbb, u32)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (pt(p), i as u32))
            .collect();
        let t = RTree::bulk_load(DiskSim::new(512), dims, items);
        assert_eq!(t.len(), 600);
        assert!(t.height() >= 2);
        let lo = vec![20.0; dims];
        let hi = vec![60.0; dims];
        let mut got = Vec::new();
        t.search_box(&lo, &hi, |id| got.push(id));
        got.sort();
        assert_eq!(got, brute(&pts, &lo, &hi));
    }

    #[test]
    fn bulk_load_is_better_clustered_than_inserts() {
        let dims = 2;
        let pts = gen_points(2000, dims, 3);
        let items: Vec<(Mbb, u32)> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| (pt(p), i as u32))
            .collect();
        let bulk = RTree::bulk_load(DiskSim::new(512), dims, items.clone());
        let mut ins = RTree::new(DiskSim::new(512), dims);
        for (b, i) in items {
            ins.insert(b, i);
        }
        // STR packs tighter: fewer pages.
        assert!(bulk.pages_used() <= ins.pages_used());
        // Point query I/O should be no worse for the bulk tree.
        let probe = |t: &RTree| {
            t.disk().reset_counters();
            let mut hits = 0u32;
            t.search_box(&[40.0, 40.0], &[45.0, 45.0], |_| hits += 1);
            t.disk().reads()
        };
        assert!(probe(&bulk) <= probe(&ins) * 2);
    }

    #[test]
    fn remove_works() {
        let dims = 2;
        let pts = gen_points(100, dims, 9);
        let mut t = RTree::new(DiskSim::new(512), dims);
        for (i, p) in pts.iter().enumerate() {
            t.insert(pt(p), i as u32);
        }
        assert!(t.remove(&pt(&pts[13]), 13));
        assert!(!t.remove(&pt(&pts[13]), 13));
        assert_eq!(t.len(), 99);
        let mut got = Vec::new();
        t.search_box(&vec![0.0; dims], &vec![100.0; dims], |id| got.push(id));
        assert_eq!(got.len(), 99);
        assert!(!got.contains(&13));
    }

    #[test]
    fn empty_tree_cleanup() {
        let mut t = RTree::new(DiskSim::new(512), 2);
        for i in 0..50 {
            t.insert(pt(&[i as f64, 0.0]), i as u32);
        }
        for i in 0..50 {
            assert!(t.remove(&pt(&[i as f64, 0.0]), i as u32));
        }
        assert!(t.is_empty());
        assert_eq!(t.pages_used(), 0);
        t.insert(pt(&[1.0, 1.0]), 7);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn mindist_orders_nodes_sensibly() {
        // Best-first style check: mindist to a far box exceeds mindist to a
        // near box.
        let near = Mbb::union(&pt(&[0.0, 0.0]), &pt(&[1.0, 1.0]));
        let far = Mbb::union(&pt(&[10.0, 10.0]), &pt(&[11.0, 11.0]));
        let q = [0.5, 0.5];
        assert!(near.mindist(&q) < far.mindist(&q));
        assert_eq!(near.mindist(&q), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Insert-built trees answer box queries exactly like a linear scan,
        /// across random dimensionalities, point sets and query boxes.
        #[test]
        fn search_matches_brute_force(
            dims in 1usize..5,
            pts in prop::collection::vec(
                prop::collection::vec(0.0f64..100.0, 4),
                1..120,
            ),
            qlo in prop::collection::vec(0.0f64..100.0, 4),
            extent in 1.0f64..60.0,
        ) {
            let pts: Vec<Vec<f64>> = pts.into_iter().map(|p| p[..dims].to_vec()).collect();
            let mut t = RTree::new(DiskSim::new(512), dims);
            for (i, p) in pts.iter().enumerate() {
                t.insert(Mbb::from_point(p), i as u32);
            }
            let lo: Vec<f64> = qlo[..dims].to_vec();
            let hi: Vec<f64> = lo.iter().map(|x| x + extent).collect();
            let mut got = Vec::new();
            t.search_box(&lo, &hi, |id| got.push(id));
            got.sort_unstable();
            let want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    p.iter().zip(&lo).all(|(x, l)| x >= l)
                        && p.iter().zip(&hi).all(|(x, h)| x <= h)
                })
                .map(|(i, _)| i as u32)
                .collect();
            // f32 storage rounds outward, so the tree may return points on
            // the boundary that exact f64 filtering excludes; the tree's
            // answer must be a superset whose extras touch the boundary.
            for w in &want {
                prop_assert!(got.contains(w), "missing {w}");
            }
            for g in &got {
                if !want.contains(g) {
                    let p = &pts[*g as usize];
                    let near = p.iter().zip(&lo).all(|(x, l)| *x >= l - 1e-3)
                        && p.iter().zip(&hi).all(|(x, h)| *x <= h + 1e-3);
                    prop_assert!(near, "false positive far from boundary");
                }
            }
        }

        /// mindist is a valid lower bound: never exceeds the true Chebyshev
        /// distance from the query to any point inside the box.
        #[test]
        fn mindist_is_lower_bound(
            a in prop::collection::vec(0.0f64..100.0, 3),
            b in prop::collection::vec(0.0f64..100.0, 3),
            q in prop::collection::vec(-50.0f64..150.0, 3),
            t in prop::collection::vec(0.0f64..1.0, 3),
        ) {
            let mut mbb = Mbb::from_point(&a);
            mbb.union_with(&Mbb::from_point(&b));
            // Any convex combination of the two corners lies in the box.
            let inside: Vec<f64> = a.iter().zip(&b).zip(&t)
                .map(|((x, y), w)| x * w + y * (1.0 - w))
                .collect();
            let cheb = inside.iter().zip(&q).map(|(x, y)| (x - y).abs())
                .fold(0.0f64, f64::max);
            prop_assert!(mbb.mindist(&q) <= cheb + 1e-3);
        }
    }
}
