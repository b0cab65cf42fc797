//! A small persistent vector: the structure behind every per-commit copy
//! the engine used to make.
//!
//! [`CowVec<T>`] stores its elements in fixed power-of-two **chunks**: every
//! full chunk is an immutable `Arc<[T]>` under a spine `Vec` of handles, and
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
#[derive(Debug)]
pub struct CowVec<T> {
    /// The full chunks, [`CHUNK`](Self::CHUNK) elements each.
    full: Vec<Arc<[T]>>,
    /// The last chunk while it is short of full (possibly empty); always
    /// allocated to a whole chunk.
    tail: Vec<T>,
}

impl<T: Clone> Clone for CowVec<T> {
    fn clone(&self) -> Self {
        let mut tail = Vec::with_capacity(Self::CHUNK);
        tail.extend_from_slice(&self.tail);
        note_copied(std::mem::size_of_val(tail.as_slice()));
        CowVec {
            full: self.full.clone(),
            tail,
        }
    }
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec {
            full: Vec::new(),
            tail: Vec::new(),
        }
    }
}

impl<T> CowVec<T> {
    /// log2 of the chunk length: the largest power of two whose chunk fits
    /// [`CHUNK_BYTES`], never under 64 elements (bit tables address chunks
    /// in whole 64-bit words).
    const SHIFT: u32 = {
        let size = if std::mem::size_of::<T>() == 0 {
            1
        } else {
            std::mem::size_of::<T>()
        };
        let per = CHUNK_BYTES / size;
        if per < 64 {
            6
        } else {
            per.ilog2()
        }
    };
    /// Elements per chunk.
    pub(crate) const CHUNK: usize = 1 << Self::SHIFT;

    /// An empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        (self.full.len() << Self::SHIFT) + self.tail.len()
    }

    /// Whether the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.full.is_empty() && self.tail.is_empty()
    }

    /// The element at `i`, if in range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        self.chunk(i >> Self::SHIFT).get(i & (Self::CHUNK - 1))
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

    /// Every element in order.
    pub fn iter(&self) -> std::iter::Flatten<CowChunks<'_, T>> {
        self.chunks().flatten()
    }

    /// Appends an element (amortized one move: a chunk that fills up is
    /// moved behind its `Arc` once).
    pub fn push(&mut self, v: T) {
        if self.tail.capacity() == 0 {
            self.tail.reserve_exact(Self::CHUNK);
        }
        self.tail.push(v);
        self.seal_full_tail();
    }

    /// Moves the last chunk behind its `Arc` once it is full.
    fn seal_full_tail(&mut self) {
        if self.tail.len() == Self::CHUNK {
            let full = std::mem::replace(&mut self.tail, Vec::with_capacity(Self::CHUNK));
            self.full.push(full.into());
        }
    }
}

/// The chunks of a [`CowVec`] in order (see [`CowVec::chunks`]).
#[derive(Debug)]
pub struct CowChunks<'a, T> {
    full: std::slice::Iter<'a, Arc<[T]>>,
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
    pub fn extend_from_slice(&mut self, mut vs: &[T]) {
        while !vs.is_empty() {
            if self.tail.capacity() == 0 {
                self.tail.reserve_exact(Self::CHUNK);
            }
            let (now, later) = vs.split_at(vs.len().min(Self::CHUNK - self.tail.len()));
            self.tail.extend_from_slice(now);
            vs = later;
            self.seal_full_tail();
        }
    }

    /// Overwrites element `i`; copies its chunk first if another clone
    /// shares it. Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, v: T) {
        let (c, at) = (i >> Self::SHIFT, i & (Self::CHUNK - 1));
        let Some(chunk) = self.full.get_mut(c) else {
            assert!(c == self.full.len(), "index {i} out of range");
            self.tail[at] = v;
            return;
        };
        if Arc::get_mut(chunk).is_none() {
            note_copied(std::mem::size_of_val(&chunk[..]));
            *chunk = Arc::from(&chunk[..]);
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
        &self.chunk(i >> Self::SHIFT)[i & (Self::CHUNK - 1)]
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
