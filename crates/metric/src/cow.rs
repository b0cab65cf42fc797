//! A small persistent vector: the structure behind every per-commit copy
//! the engine used to make.
//!
//! [`CowVec<T>`] stores its elements in fixed power-of-two **chunks**: every
//! full chunk is an immutable `Arc<Vec<T>>` under a spine `Vec` of handles
//! (the `Vec` the chunk was filled in, moved behind the `Arc` when it fills
//! up rather than copied into an `Arc<[T]>`), and
//! the partly filled last chunk is a plain owned `Vec`. Cloning copies the
//! spine (one `Arc` bump per chunk) and that last chunk; the clone and the
//! original then share every full chunk until one of them overwrites an
//! element, which un-shares exactly the chunk it touches ([`Arc::get_mut`],
//! else one chunk copy). That is what makes a fork of an index — an object
//! table, a pivot-distance column, a local→global id table — cost
//! `O(n / chunk)` instead of `O(n)`, and lets a commit that appends `b`
//! elements copy at most one chunk. A lookup is two loads: the spine
//! entry, then the element (the chunk's elements sit inline behind the
//! `Arc`).
//!
//! The sharing rule readers rely on: **a chunk reachable from another clone
//! is never mutated** — `Arc::get_mut` succeeds only for a sole owner, so a
//! writer's first touch of a shared chunk replaces it in the writer's own
//! spine and leaves the published one intact, and the owned last chunk is
//! nobody else's to begin with. Dropping an unpublished clone (an aborted
//! transaction) therefore changes nothing any other clone can observe.

use std::cell::Cell;
use std::ops::Index;
use std::sync::Arc;

/// Bytes one chunk aims to hold: large enough that a spine clone is a few
/// thousand `Arc` bumps at n = 10⁶, small enough that un-sharing a chunk
/// stays well under a commit's own payload.
const CHUNK_BYTES: usize = 8192;

thread_local! {
    /// Shallow bytes of every chunk this thread copied to own it.
    static COPIED: Cell<u64> = const { Cell::new(0) };
}

/// Cumulative shallow bytes of the chunks **this thread** has copied in
/// order to write to them — a clone's last chunk, an overwritten shared
/// chunk. A writer reads it before and after a commit; the difference is
/// what the commit un-shared.
pub fn copied_bytes() -> u64 {
    COPIED.with(Cell::get)
}

/// Books one chunk copy (see [`copied_bytes`]).
fn note_copied(bytes: usize) {
    COPIED.with(|c| c.set(c.get() + bytes as u64));
}

/// A vector with `O(n / chunk)` clone and copy-on-write chunks (see the
/// module docs for the sharing rule).
///
/// A chunk holds a power of two of **runs** of `run` elements each: one
/// element a run for a plain vector, an object's `d` coordinates for the
/// object arena ([`strided`](Self::strided)), so that no run straddles two
/// chunks and [`run_at`](Self::run_at) is one contiguous slice.
#[derive(Debug)]
pub struct CowVec<T> {
    /// The full chunks, `run << shift` elements each.
    full: Vec<Arc<Vec<T>>>,
    /// The last chunk while it is short of full (possibly empty): a whole
    /// chunk's allocation once pushed to from empty, a clone's exact copy
    /// growing by doubling otherwise.
    tail: Vec<T>,
    /// Elements a run spans: 1 for a plain vector.
    run: usize,
    /// log2 of the runs a chunk holds.
    shift: u32,
}

impl<T: Clone> Clone for CowVec<T> {
    fn clone(&self) -> Self {
        // Exactly the elements: the clone's next push grows it to a whole
        // chunk, and a clone that is never pushed to holds no more.
        let tail = self.tail.clone();
        note_copied(std::mem::size_of_val(tail.as_slice()));
        CowVec {
            full: self.full.clone(),
            tail,
            ..*self
        }
    }
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec::strided(1)
    }
}

impl<T> CowVec<T> {
    /// Elements per chunk of a plain vector.
    #[cfg(test)]
    pub(crate) const CHUNK: usize = 1 << runs_shift(std::mem::size_of::<T>());

    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty vector of runs of `run` elements each (`run = 0` is a
    /// vector that never holds an element): a chunk holds the largest
    /// power of two of runs that fits 8 KiB, never under 64.
    pub fn strided(run: usize) -> Self {
        CowVec {
            full: Vec::new(),
            tail: Vec::new(),
            run,
            shift: runs_shift(std::mem::size_of::<T>() * run.max(1)),
        }
    }

    /// Elements per chunk.
    #[inline]
    fn chunk_len(&self) -> usize {
        self.run << self.shift
    }

    /// Runs per chunk: a power of two, at least 64.
    #[inline]
    pub(crate) fn runs_per_chunk(&self) -> usize {
        1 << self.shift
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.full.len() * self.chunk_len() + self.tail.len()
    }

    /// Whether the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.full.is_empty() && self.tail.is_empty()
    }

    /// The element at `i`, if in range (a plain vector's: one element a
    /// run).
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        debug_assert_eq!(self.run, 1, "elements of a strided vector are read by run");
        self.chunk(i >> self.shift)
            .get(i & (self.runs_per_chunk() - 1))
    }

    /// Run `r`: elements `r·run .. (r+1)·run`, one slice inside one chunk.
    /// Panics if the run is not stored.
    #[inline]
    pub fn run_at(&self, r: usize) -> &[T] {
        let at = (r & (self.runs_per_chunk() - 1)) * self.run;
        &self.chunk(r >> self.shift)[at..at + self.run]
    }

    /// Chunk `c` as a slice; the chunk after the last full one is the
    /// partly filled one, empty when there is none (and past it).
    #[inline]
    pub(crate) fn chunk(&self, c: usize) -> &[T] {
        match self.full.get(c) {
            Some(chunk) => chunk,
            None if c == self.full.len() => &self.tail,
            None => &[],
        }
    }

    /// The chunks in order, each a plain slice (all full but the last).
    /// Chunk-wise iteration is what the scan kernels and the object table's
    /// live walk use: the inner loop runs over contiguous memory.
    pub fn chunks(&self) -> CowChunks<'_, T> {
        CowChunks {
            full: self.full.iter(),
            tail: Some(self.tail.as_slice()).filter(|t| !t.is_empty()),
        }
    }

    /// Hands every chunk to `f` in order, releasing each once `f` returns
    /// (the vector is consumed), so a pass that copies the elements out
    /// holds them about once.
    pub fn drain_chunks(self, mut f: impl FnMut(&[T])) {
        for chunk in self.full {
            f(&chunk);
        }
        f(&self.tail);
    }

    /// Every element in order.
    pub fn iter(&self) -> std::iter::Flatten<CowChunks<'_, T>> {
        self.chunks().flatten()
    }

    /// Appends an element (amortized one move: a chunk that fills up is
    /// moved behind its `Arc` once).
    pub fn push(&mut self, v: T) {
        debug_assert_eq!(self.run, 1, "a strided vector grows by whole runs");
        self.reserve_chunk(1);
        self.tail.push(v);
        self.seal_full_tail();
    }

    /// Makes room in the last chunk for `more` elements: a whole chunk for
    /// an empty one (a vector being filled), else at least twice its size
    /// (a clone's exact copy, written a little per commit) — never past a
    /// whole chunk.
    #[inline]
    fn reserve_chunk(&mut self, more: usize) {
        let (len, cap) = (self.tail.len(), self.tail.capacity());
        if len + more > cap {
            let want = if len == 0 {
                self.chunk_len()
            } else {
                (2 * len).max(len + more)
            };
            self.tail.reserve_exact(want.min(self.chunk_len()) - len);
        }
    }

    /// Moves the last chunk behind its `Arc` once it is full.
    #[inline]
    fn seal_full_tail(&mut self) {
        if self.tail.len() == self.chunk_len() {
            // The next chunk is allocated by the next push, not here: a
            // caller that frees what it copied in (a packing pass) has
            // freed the last of it by then.
            let full = std::mem::take(&mut self.tail);
            self.full.push(Arc::new(full));
        }
    }
}

/// log2 of the runs of `bytes` each that one chunk holds: the largest power
/// of two whose chunk fits [`CHUNK_BYTES`], never under 64 (bit tables
/// address chunks in whole 64-bit words).
const fn runs_shift(bytes: usize) -> u32 {
    let per = CHUNK_BYTES / if bytes == 0 { 1 } else { bytes };
    if per < 64 {
        6
    } else {
        per.ilog2()
    }
}

/// The chunks of a [`CowVec`] in order (see [`CowVec::chunks`]).
#[derive(Debug)]
pub struct CowChunks<'a, T> {
    full: std::slice::Iter<'a, Arc<Vec<T>>>,
    tail: Option<&'a [T]>,
}

impl<'a, T> Iterator for CowChunks<'a, T> {
    type Item = &'a [T];

    #[inline]
    fn next(&mut self) -> Option<&'a [T]> {
        match self.full.next() {
            Some(chunk) => Some(chunk),
            None => self.tail.take(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.full.len() + usize::from(self.tail.is_some());
        (n, Some(n))
    }
}

impl<T> ExactSizeIterator for CowChunks<'_, T> {}

impl<T: Clone> CowVec<T> {
    /// Appends every element of `vs` in order — [`push`](Self::push) in
    /// bulk, one copy per chunk it fills.
    #[inline]
    pub fn extend_from_slice(&mut self, mut vs: &[T]) {
        // The common case, a run or a whole chunk that fits the last one.
        if vs.is_empty() {
            return;
        }
        if vs.len() <= self.tail.capacity() - self.tail.len() {
            self.tail.extend_from_slice(vs);
            self.seal_full_tail();
            return;
        }
        while !vs.is_empty() {
            let (now, later) = vs.split_at(vs.len().min(self.chunk_len() - self.tail.len()));
            self.reserve_chunk(now.len());
            self.tail.extend_from_slice(now);
            vs = later;
            self.seal_full_tail();
        }
    }

    /// Overwrites element `i`; copies its chunk first if another clone
    /// shares it. Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, v: T) {
        debug_assert_eq!(self.run, 1, "elements of a strided vector are read by run");
        let (c, at) = (i >> self.shift, i & (self.runs_per_chunk() - 1));
        let Some(chunk) = self.full.get_mut(c) else {
            assert!(c == self.full.len(), "index {i} out of range");
            self.tail[at] = v;
            return;
        };
        if Arc::get_mut(chunk).is_none() {
            note_copied(std::mem::size_of_val(&chunk[..]));
            *chunk = Arc::new(chunk.to_vec());
        }
        Arc::get_mut(chunk).expect("the chunk was just made uniquely owned")[at] = v;
    }

    /// The elements as one owned `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        self.chunks().for_each(|c| out.extend_from_slice(c));
        out
    }
}

impl<T> Index<usize> for CowVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        debug_assert_eq!(self.run, 1, "elements of a strided vector are read by run");
        &self.chunk(i >> self.shift)[i & (self.runs_per_chunk() - 1)]
    }
}

impl<T> FromIterator<T> for CowVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = CowVec::new();
        iter.into_iter().for_each(|v| out.push(v));
        out
    }
}

impl<T> From<Vec<T>> for CowVec<T> {
    fn from(v: Vec<T>) -> Self {
        v.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 128-byte elements: 64 to a chunk, so a few hundred ops cross
    /// several chunk boundaries.
    type Wide = [u32; 32];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `CowVec` against a `Vec` model under push / set / clone: every
        /// clone taken along the way is frozen next to a copy of the model
        /// and must still equal it after the original went on mutating.
        #[test]
        fn cow_vec_matches_a_vec_model(
            initial in 0usize..200,
            ops in prop::collection::vec((0u8..8, 0usize..1_000, 0u32..1_000_000), 0..300),
        ) {
            let wide = |v: u32| -> Wide { [v; 32] };
            let mut model: Vec<Wide> = (0..initial as u32).map(wide).collect();
            let mut cow: CowVec<Wide> = model.clone().into();
            let mut frozen: Vec<(CowVec<Wide>, Vec<Wide>)> = Vec::new();
            for (kind, at, v) in ops {
                match kind {
                    0..=3 => {
                        model.push(wide(v));
                        cow.push(wide(v));
                    }
                    4..=5 if !model.is_empty() => {
                        let i = at % model.len();
                        model[i] = wide(v);
                        cow.set(i, wide(v));
                    }
                    6 => frozen.push((cow.clone(), model.clone())),
                    7 if at % 4 == 0 => {
                        let run = vec![wide(v); at % 150];
                        model.extend_from_slice(&run);
                        cow.extend_from_slice(&run);
                    }
                    _ => {
                        prop_assert_eq!(cow.get(at), model.get(at));
                    }
                }
                prop_assert_eq!(cow.len(), model.len());
            }
            frozen.push((cow, model));
            for (cow, model) in &frozen {
                prop_assert_eq!(cow.len(), model.len());
                prop_assert_eq!(cow.is_empty(), model.is_empty());
                prop_assert!(cow.iter().eq(model.iter()));
                prop_assert_eq!(&cow.to_vec(), model);
                prop_assert!(cow.chunks().flatten().eq(model.iter()));
                let lens: Vec<usize> = cow.chunks().map(<[Wide]>::len).collect();
                if let Some((last, full)) = lens.split_last() {
                    prop_assert!(full.iter().all(|&l| l == CowVec::<Wide>::CHUNK));
                    prop_assert!((1..=CowVec::<Wide>::CHUNK).contains(last));
                }
                for (i, want) in model.iter().enumerate() {
                    prop_assert_eq!(&cow[i], want);
                }
                prop_assert_eq!(cow.get(model.len()), None);
            }
        }
    }

    #[test]
    fn chunk_lengths_follow_element_size() {
        assert_eq!(CowVec::<u32>::CHUNK, 2048);
        assert_eq!(CowVec::<u64>::CHUNK, 1024);
        assert_eq!(CowVec::<Vec<f32>>::CHUNK, 256);
        assert_eq!(CowVec::<[u8; 4096]>::CHUNK, 64);
        assert_eq!(CowVec::<()>::CHUNK, 8192);
    }

    #[test]
    fn push_get_set_across_chunk_boundaries() {
        let n = 3 * CowVec::<u32>::CHUNK + 7;
        let mut v: CowVec<u32> = (0..n as u32).collect();
        assert_eq!(v.len(), n);
        assert_eq!(v.chunks().len(), 4);
        v.push(99);
        v.set(CowVec::<u32>::CHUNK, 5);
        assert_eq!(v[CowVec::<u32>::CHUNK], 5);
        assert_eq!(v.get(n), Some(&99));
        assert_eq!(v.get(n + 1), None);
        assert_eq!(v.iter().count(), n + 1);
        assert_eq!(v.to_vec().len(), n + 1);
    }

    #[test]
    fn a_write_unshares_only_the_chunk_it_touches() {
        let chunk = CowVec::<u32>::CHUNK;
        let parent: CowVec<u32> = (0..(4 * chunk + 10) as u32).collect();
        let before = copied_bytes();
        let mut child = parent.clone();
        assert_eq!(copied_bytes() - before, 4 * 10, "the short last chunk");
        child.set(chunk + 1, 7);
        assert_eq!(copied_bytes() - before, (4 * 10 + 4 * chunk) as u64);
        // The second write to that chunk finds it owned; pushes and writes
        // to the owned last chunk copy nothing.
        child.set(chunk + 2, 8);
        child.set(4 * chunk + 3, 9);
        child.push(1);
        assert_eq!(copied_bytes() - before, (4 * 10 + 4 * chunk) as u64);
        assert_eq!(parent[chunk + 1], (chunk + 1) as u32, "parent unchanged");
        assert_eq!(parent[4 * chunk + 3], (4 * chunk + 3) as u32);
        assert_eq!(parent.len(), 4 * chunk + 10);
        assert_eq!((child[chunk + 1], child[4 * chunk + 3]), (7, 9));
        assert_eq!(child.len(), 4 * chunk + 11);
    }
}
