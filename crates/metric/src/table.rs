//! A slotted in-memory object table with tombstoned removal.
//!
//! Every in-memory index of the paper keeps "the real data" in a separate
//! object table (§4.1: "we only store the identifiers in the tree
//! structures, and store the objects in a separate table"). Ids are slot
//! positions and stay stable until removal.
//!
//! Objects are **append-only** in a [`CowVec`] and liveness is a bit per
//! slot in a second one, so cloning the table — what an index fork does —
//! shares every object, and a removal flips one bit instead of touching
//! (and un-sharing) a chunk of objects. A removed object's storage is
//! released when the table is compacted or dropped, the policy the pivot
//! matrix already has for the rows of removed objects.

use crate::cow::{CowChunks, CowVec};
use crate::stats::ObjId;

/// Slotted object storage with stable ids.
#[derive(Clone, Debug)]
pub struct ObjTable<O> {
    /// Every object ever pushed since the last compaction, by slot.
    objs: CowVec<O>,
    /// One liveness bit per slot, 64 slots a word.
    live_bits: CowVec<u64>,
    live: usize,
}

impl<O> Default for ObjTable<O> {
    fn default() -> Self {
        ObjTable {
            objs: CowVec::new(),
            live_bits: CowVec::new(),
            live: 0,
        }
    }
}

impl<O> ObjTable<O> {
    /// Object chunks cover whole liveness words, so the live walk changes
    /// object chunk only between words.
    const ALIGNED: () = assert!(CowVec::<O>::CHUNK.is_multiple_of(64));

    /// Builds a table from initial objects; ids are `0..n`.
    pub fn new(objects: Vec<O>) -> Self {
        let n = objects.len();
        let mut words = vec![u64::MAX; n / 64];
        if !n.is_multiple_of(64) {
            words.push((1u64 << (n % 64)) - 1);
        }
        ObjTable {
            objs: objects.into(),
            live_bits: words.into(),
            live: n,
        }
    }

    /// An empty table.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no objects are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of slots. This **includes tombstones**: removal never shrinks
    /// the slot vector (ids are slot positions and must stay stable), so
    /// `slots() >= len()` always, with equality only while nothing has been
    /// removed. Use [`len`](Self::len) for the live count.
    pub fn slots(&self) -> usize {
        self.objs.len()
    }

    /// Whether slot `id` exists and holds a live object (the bits past the
    /// last slot are never set).
    #[inline]
    fn is_live(&self, id: ObjId) -> bool {
        let id = id as usize;
        self.live_bits
            .get(id / 64)
            .is_some_and(|word| word >> (id % 64) & 1 == 1)
    }

    /// The object at `id`, if live.
    #[inline]
    pub fn get(&self, id: ObjId) -> Option<&O> {
        let o = self.objs.get(id as usize)?;
        let word = self.live_bits[id as usize / 64];
        (word >> (id % 64) & 1 == 1).then_some(o)
    }

    /// Iterates `(id, object)` over live slots in id order.
    pub fn iter(&self) -> Live<'_, O> {
        let () = Self::ALIGNED;
        Live {
            objs: &self.objs,
            words: self.live_bits.iter(),
            bits: 0,
            // One word before slot 0: the first word read steps onto it.
            base: 0usize.wrapping_sub(64),
            chunk: &[],
        }
    }
}

/// The live walk of an [`ObjTable`]: scans the liveness words a set bit at
/// a time, so a dead slot costs nothing and a live one a few register ops —
/// no object is touched until the caller dereferences it.
pub struct Live<'a, O> {
    objs: &'a CowVec<O>,
    /// The liveness words not yet read.
    words: std::iter::Flatten<CowChunks<'a, u64>>,
    /// Unvisited live bits of the current word.
    bits: u64,
    /// Slot id of the current word's bit 0.
    base: usize,
    /// The object chunk holding the current word's slots.
    chunk: &'a [O],
}

impl<'a, O> Iterator for Live<'a, O> {
    type Item = (ObjId, &'a O);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        while self.bits == 0 {
            self.bits = *self.words.next()?;
            self.base = self.base.wrapping_add(64);
            // Object chunks cover whole words (`ALIGNED`).
            if self.base.is_multiple_of(CowVec::<O>::CHUNK) {
                self.chunk = self.objs.chunk(self.base / CowVec::<O>::CHUNK);
            }
        }
        let id = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((id as ObjId, &self.chunk[id % CowVec::<O>::CHUNK]))
    }
}

impl<O: Clone> ObjTable<O> {
    /// Appends an object, returning its id.
    pub fn push(&mut self, o: O) -> ObjId {
        let id = self.objs.len();
        self.objs.push(o);
        if id.is_multiple_of(64) {
            self.live_bits.push(1);
        } else {
            self.live_bits
                .set(id / 64, self.live_bits[id / 64] | 1 << (id % 64));
        }
        self.live += 1;
        id as ObjId
    }

    /// Tombstones `id`; returns whether it was live. The object itself
    /// stays in its (possibly shared) chunk until [`compact`](Self::compact).
    pub fn remove(&mut self, id: ObjId) -> bool {
        if !self.is_live(id) {
            return false;
        }
        let id = id as usize;
        self.live_bits
            .set(id / 64, self.live_bits[id / 64] & !(1 << (id % 64)));
        self.live -= 1;
        true
    }

    /// Drops every tombstoned slot, re-adding the live objects in `keep`
    /// order (old slot ids) so that old slot `keep[i]` becomes new slot
    /// `i` — the engine-level compaction path, where `keep` is the shard's
    /// surviving members in ascending global-id order (exactly the slot
    /// order a from-scratch rebuild over the survivors would produce).
    /// Panics if any `keep` entry is not live or a live slot is omitted.
    pub fn compact(&mut self, keep: &[ObjId]) {
        assert_eq!(
            keep.len(),
            self.live,
            "compaction must keep every live slot"
        );
        let kept = keep
            .iter()
            .map(|&id| {
                self.get(id)
                    .expect("compaction keeps only live slots")
                    .clone()
            })
            .collect();
        *self = ObjTable::new(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_remove() {
        let mut t = ObjTable::new(vec!["a", "b"]);
        assert_eq!(t.len(), 2);
        let id = t.push("c");
        assert_eq!(id, 2);
        assert_eq!(t.get(1), Some(&"b"));
        assert!(t.remove(1));
        assert!(!t.remove(1));
        assert!(!t.remove(99));
        assert_eq!(t.get(1), None);
        assert_eq!(t.len(), 2);
        let ids: Vec<_> = t.iter().map(|(i, _)| i).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn compact_drops_tombstones_in_keep_order() {
        let mut t = ObjTable::new(vec!["a", "b", "c", "d"]);
        t.remove(1);
        assert_eq!(t.slots(), 4, "slots() includes the tombstone");
        assert_eq!(t.len(), 3);
        // Keep order need not be slot order (post-recluster shards sort by
        // global id).
        t.compact(&[0, 3, 2]);
        assert_eq!(t.slots(), 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(0), Some(&"a"));
        assert_eq!(t.get(1), Some(&"d"));
        assert_eq!(t.get(2), Some(&"c"));
    }

    #[test]
    #[should_panic]
    fn compact_rejects_dead_slots() {
        let mut t = ObjTable::new(vec!["a", "b"]);
        t.remove(0);
        t.compact(&[0]);
    }

    #[test]
    fn live_walk_crosses_chunk_and_word_boundaries() {
        // Spans several object chunks and a ragged last word; every third
        // slot removed, then more pushed behind the tombstones.
        let n = 2 * CowVec::<u32>::CHUNK + 67;
        let mut t = ObjTable::new((0..n as u32).collect());
        for id in (0..n as u32).step_by(3) {
            assert!(t.remove(id));
        }
        for v in 0..70u32 {
            assert_eq!(t.push(1_000_000 + v) as usize, n + v as usize);
        }
        let want: Vec<u32> = (0..n as u32)
            .filter(|id| id % 3 != 0)
            .chain(n as u32..n as u32 + 70)
            .collect();
        let got: Vec<u32> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(got, want);
        assert_eq!(t.len(), want.len());
        assert!(t.iter().all(|(id, o)| t.get(id) == Some(o)));
    }

    #[test]
    fn a_clone_shares_objects_and_diverges_on_write() {
        let parent = ObjTable::new((0..1000u32).collect());
        let mut child = parent.clone();
        assert!(child.remove(10));
        let id = child.push(7);
        assert_eq!(parent.len(), 1000);
        assert_eq!(parent.get(10), Some(&10));
        assert_eq!(parent.get(id), None);
        assert_eq!(child.get(10), None);
        assert_eq!(child.get(id), Some(&7));
    }
}
