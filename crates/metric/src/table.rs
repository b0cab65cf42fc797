//! A slotted in-memory object table with tombstoned removal.
//!
//! Every in-memory index of the paper keeps "the real data" in a separate
//! object table (§4.1: "we only store the identifiers in the tree
//! structures, and store the objects in a separate table"). Ids are slot
//! positions and stay stable until removal.
//!
//! Objects are **append-only** in their type's [`Arena`] and liveness is a
//! bit per slot in a [`CowVec`], so cloning the table — what an index fork
//! does — shares every full chunk, and a removal flips one bit instead of
//! touching (and un-sharing) a chunk of objects. A removed object's storage
//! is released when the table is compacted or dropped, the policy the pivot
//! columns already have for the rows of removed objects.
//!
//! A vector's arena is [`Flat`]: every object's coordinates back to back in
//! one chunked `CowVec<f32>` of **stride** `d`, the dimension the first
//! object fixes (an object of another length panics on push). A chunk holds
//! a power of two of whole objects, at least 64, so no object straddles two
//! chunks and the liveness words line up with the chunks. An object costs
//! its `4·d` bytes: no `Vec` header, no heap block of its own. The table
//! hands out **views** (`&[f32]`, `&str`), which is what a
//! [`Metric`](crate::Metric) measures; [`get`](ObjTable::get) never copies,
//! and a fork copies the last, short chunk of coordinates in one `memcpy`.
//!
//! An index is built over a table with no removed slot
//! ([`ObjTable::fresh`]): its ids are the table's slots from then on.

use crate::cow::CowVec;
use crate::object::Object;
use crate::stats::ObjId;

/// Where an [`ObjTable`] keeps its objects: slot `i` is the `i`-th view
/// pushed. Cloning shares every full chunk.
pub trait Arena<V: ?Sized>: Clone + Default + std::fmt::Debug + Send + Sync {
    /// Number of slots.
    fn len(&self) -> usize;

    /// Whether no slot was pushed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The view in `slot`. Panics if `slot >= len()`.
    fn get(&self, slot: usize) -> &V;

    /// Appends a copy of `v` as the next slot.
    fn push(&mut self, v: &V);

    /// Hands every slot's view to `f` in slot order, releasing the storage
    /// behind each chunk once it has been read.
    fn drain(self, f: impl FnMut(&V));
}

/// The vector arena: `d` coordinates a slot, contiguous, in one
/// [`CowVec::strided`] run of `d` (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Flat {
    coords: CowVec<f32>,
    /// The stride, fixed by the first push.
    dim: Option<usize>,
    len: usize,
}

impl Arena<[f32]> for Flat {
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn get(&self, slot: usize) -> &[f32] {
        assert!(slot < self.len, "slot {slot} of {}", self.len);
        self.coords.run_at(slot)
    }

    #[inline]
    fn push(&mut self, v: &[f32]) {
        match self.dim {
            Some(d) => assert_eq!(
                v.len(),
                d,
                "a {}-d vector pushed into a table of {d}-d vectors",
                v.len()
            ),
            None => {
                self.dim = Some(v.len());
                self.coords = CowVec::strided(v.len());
            }
        }
        self.coords.extend_from_slice(v);
        self.len += 1;
    }

    fn drain(self, mut f: impl FnMut(&[f32])) {
        match self.dim {
            Some(0) => (0..self.len).for_each(|_| f(&[])),
            Some(d) => self
                .coords
                .drain_chunks(|c| c.chunks_exact(d).for_each(&mut f)),
            None => {}
        }
    }
}

/// Slotted object storage with stable ids.
#[derive(Clone, Debug)]
pub struct ObjTable<O: Object> {
    /// Every object pushed since the last compaction, by slot.
    objs: O::Arena,
    /// One liveness bit per slot, 64 slots a word.
    live_bits: CowVec<u64>,
    live: usize,
}

impl<O: Object> Default for ObjTable<O> {
    fn default() -> Self {
        ObjTable {
            objs: O::Arena::default(),
            live_bits: CowVec::new(),
            live: 0,
        }
    }
}

impl<O: Object> From<Vec<O>> for ObjTable<O> {
    fn from(objects: Vec<O>) -> Self {
        ObjTable::new(objects)
    }
}

impl<O: Object> ObjTable<O> {
    /// Builds a table from initial objects; ids are `0..n`. Each object is
    /// copied into the arena and dropped before the next is read.
    pub fn new(objects: Vec<O>) -> Self {
        let mut objs = O::Arena::default();
        for o in objects {
            objs.push(&o);
        }
        Self::all_live(objs)
    }

    /// The table an index is built over: ids are slot positions, so a
    /// build needs every slot live. Every constructor that takes
    /// `impl Into<ObjTable<O>>` converts through here.
    ///
    /// # Panics
    ///
    /// If a slot of `objects` was removed.
    pub fn fresh(objects: impl Into<Self>) -> Self {
        let table = objects.into();
        assert!(
            table.live == table.slots(),
            "an index is built over a table with no removed slots ({} of {} live)",
            table.live,
            table.slots()
        );
        table
    }

    /// A table whose every slot of `objs` is live.
    fn all_live(objs: O::Arena) -> Self {
        let n = objs.len();
        let mut words = vec![u64::MAX; n / 64];
        if !n.is_multiple_of(64) {
            words.push((1u64 << (n % 64)) - 1);
        }
        ObjTable {
            objs,
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
    /// last slot are never set): one liveness word, no object touched.
    #[inline]
    pub fn is_live(&self, id: ObjId) -> bool {
        let id = id as usize;
        self.live_bits
            .get(id / 64)
            .is_some_and(|word| word >> (id % 64) & 1 == 1)
    }

    /// The view of the object at `id`, if live.
    #[inline]
    pub fn get(&self, id: ObjId) -> Option<&O::Target> {
        self.is_live(id).then(|| self.objs.get(id as usize))
    }

    /// Iterates `(id, view)` over live slots in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjId, &O::Target)> + '_ {
        let mut words = self.live_bits.iter();
        let mut bits = 0u64;
        // One word before slot 0: the first word read steps onto it.
        let mut base = 0usize.wrapping_sub(64);
        // Scans the liveness words a set bit at a time, so a dead slot
        // costs nothing.
        std::iter::from_fn(move || {
            while bits == 0 {
                bits = *words.next()?;
                base = base.wrapping_add(64);
            }
            let id = base + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some((id as ObjId, self.objs.get(id)))
        })
    }

    /// Appends a copy of `o`, returning its id.
    ///
    /// # Panics
    ///
    /// If the arena has a fixed width `o` does not have (a vector of
    /// another dimension than the first one pushed).
    pub fn push(&mut self, o: &O::Target) -> ObjId {
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

    /// A fresh table of the live objects `ids` name, in that order: new
    /// slot `i` holds a copy of old slot `ids[i]`, arena to arena. Panics if
    /// an id is not live.
    pub fn select(&self, ids: &[ObjId]) -> Self {
        let mut objs = O::Arena::default();
        for &id in ids {
            objs.push(self.get(id).expect("only live slots are selected"));
        }
        Self::all_live(objs)
    }

    /// Splits a table whose every slot is live into `parts` tables: slot
    /// `i` goes to table `part[i]`, in slot order within each. One pass in
    /// slot order that releases each chunk of `self` once it is copied, so
    /// the objects are held about once throughout.
    pub fn split(self, part: &[usize], parts: usize) -> Vec<Self> {
        assert_eq!(self.live, self.slots(), "a split table is all live");
        assert_eq!(part.len(), self.slots(), "one part per object");
        let mut arenas = vec![O::Arena::default(); parts];
        let mut slot = 0;
        self.objs.drain(|o| {
            arenas[part[slot]].push(o);
            slot += 1;
        });
        arenas.into_iter().map(Self::all_live).collect()
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
        *self = self.select(keep);
    }

    /// Owned copies of the live objects, in id order.
    pub fn to_vec(&self) -> Vec<O> {
        self.iter().map(|(_, o)| o.to_owned()).collect()
    }

    /// The encoded bytes of the live objects ([`Object::encoded_len_of`]):
    /// what an in-memory kind's `storage()` counts for its objects.
    pub fn encoded_bytes(&self) -> u64 {
        self.iter().map(|(_, o)| O::encoded_len_of(o) as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn words(ws: &[&str]) -> Vec<String> {
        ws.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn push_get_remove() {
        let mut t = ObjTable::new(words(&["a", "b"]));
        assert_eq!(t.len(), 2);
        let id = t.push("c");
        assert_eq!(id, 2);
        assert_eq!(t.get(1), Some("b"));
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
        let mut t = ObjTable::new(words(&["a", "b", "c", "d"]));
        t.remove(1);
        assert_eq!(t.slots(), 4, "slots() includes the tombstone");
        assert_eq!(t.len(), 3);
        // Keep order need not be slot order (post-recluster shards sort by
        // global id).
        t.compact(&[0, 3, 2]);
        assert_eq!(t.slots(), 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(0), Some("a"));
        assert_eq!(t.get(1), Some("d"));
        assert_eq!(t.get(2), Some("c"));
    }

    #[test]
    #[should_panic]
    fn compact_rejects_dead_slots() {
        let mut t = ObjTable::new(words(&["a", "b"]));
        t.remove(0);
        t.compact(&[0]);
    }

    #[test]
    #[should_panic(expected = "a 3-d vector pushed into a table of 2-d vectors")]
    fn a_vector_of_another_dimension_is_refused() {
        let mut t = ObjTable::new(vec![vec![1.0f32, 2.0]]);
        t.push(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn vectors_pack_whole_objects_into_each_chunk() {
        for (d, per) in [(1, 2048), (2, 1024), (3, 512), (282, 64)] {
            let mut t = ObjTable::<Vec<f32>>::empty();
            t.push(&vec![0.0; d]);
            assert_eq!(t.objs.coords.runs_per_chunk(), per, "d = {d}");
            assert_eq!(t.objs.dim, Some(d));
        }
        let t = ObjTable::<Vec<f32>>::new(vec![Vec::new(); 3]);
        assert_eq!((t.len(), t.get(2)), (3, Some(&[][..])), "zero-width");
    }

    #[test]
    fn split_deals_every_object_to_its_part_in_slot_order() {
        // Across chunk boundaries (1 024 objects a chunk at d = 2).
        let n = 2_500;
        let objects: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32, -(i as f32)]).collect();
        let part: Vec<usize> = (0..n).map(|i| i * 7 % 3).collect();
        let tables = ObjTable::new(objects.clone()).split(&part, 3);
        for (p, t) in tables.iter().enumerate() {
            let want: Vec<&[f32]> = (0..n)
                .filter(|&i| part[i] == p)
                .map(|i| &objects[i][..])
                .collect();
            assert_eq!(t.len(), want.len());
            assert!(t.iter().map(|(_, o)| o).eq(want));
        }
    }

    #[test]
    fn live_walk_crosses_chunk_and_word_boundaries() {
        // Spans several object chunks and a ragged last word; every third
        // slot removed, then more pushed behind the tombstones.
        let n = 2 * 1024 + 67;
        let mut t = ObjTable::new((0..n).map(|i| vec![i as f32, 0.5]).collect());
        for id in (0..n as u32).step_by(3) {
            assert!(t.remove(id));
        }
        for v in 0..70 {
            let id = t.push(&[1e6 + v as f32, 0.5]);
            assert_eq!(id as usize, n + v);
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
        // Written on the clone, past the parent's last chunk (2 048 objects
        // a chunk at d = 1, 1 024 at d = 2, 64 at d = 282), and checked
        // against what the parent still holds.
        fn diverge<O: Object + PartialEq<O::Target>>(objects: Vec<O>, extra: impl Fn(usize) -> O) {
            let n = objects.len();
            let parent = ObjTable::new(objects.clone());
            let mut child = parent.clone();
            assert!(child.remove(10));
            let pushed: Vec<O> = (0..200).map(extra).collect();
            for (i, o) in pushed.iter().enumerate() {
                assert_eq!(child.push(o) as usize, n + i);
            }
            assert_eq!((parent.len(), parent.slots()), (n, n));
            assert!((0..n).all(|i| objects[i] == *parent.get(i as ObjId).unwrap()));
            assert!(parent.get(n as ObjId).is_none());
            assert!(child.get(10).is_none());
            assert!((0..n)
                .filter(|&i| i != 10)
                .all(|i| objects[i] == *child.get(i as ObjId).unwrap()));
            assert!((0..200).all(|i| pushed[i] == *child.get((n + i) as ObjId).unwrap()));
        }
        for (d, n) in [(1, 2_000), (2, 1_000), (282, 100)] {
            let vector = move |v: usize| vec![v as f32; d];
            diverge((0..n).map(vector).collect(), move |i| vector(n + i));
        }
        diverge((0..300).map(|v| v.to_string()).collect(), |i| {
            format!("new {i}")
        });
    }

    /// One model operation: push an object, remove a slot, compact, or
    /// fork. A fork freezes one side beside a copy of the model and goes on
    /// writing the other: the clone when `Fork(true)`, else the original.
    #[derive(Clone, Debug)]
    enum Op {
        Push(u32),
        Remove(usize),
        Compact(u64),
        Fork(bool),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => any::<u32>().prop_map(Op::Push),
            3 => any::<usize>().prop_map(Op::Remove),
            1 => any::<u64>().prop_map(Op::Compact),
            1 => any::<bool>().prop_map(Op::Fork),
        ]
    }

    /// Runs `ops` on an arena table and on a `Vec<Option<O>>` model side
    /// by side; `make(v)` is the object a `Push(v)` pushes, and `bytes`
    /// spells a view out, so that views compare byte for byte (NaN
    /// coordinates included).
    fn check_against_model<O: Object>(
        initial: usize,
        ops: &[Op],
        make: impl Fn(u32) -> O,
        bytes: impl Fn(&O::Target) -> Vec<u8>,
    ) {
        let mut model: Vec<Option<O>> = (0..initial as u32).map(|v| Some(make(v))).collect();
        let mut table = ObjTable::new(model.iter().flatten().cloned().collect());
        let mut frozen: Vec<(ObjTable<O>, Vec<Option<O>>)> = Vec::new();
        let same = |t: &ObjTable<O>, model: &[Option<O>]| {
            assert_eq!(t.slots(), model.len());
            assert_eq!(t.len(), model.iter().flatten().count());
            for (id, want) in model.iter().enumerate() {
                let got = t.get(id as ObjId).map(&bytes);
                assert_eq!(got, want.as_ref().map(|o| bytes(o)), "slot {id}");
            }
            let live = (model.iter().enumerate())
                .filter_map(|(id, o)| Some((id as ObjId, bytes(o.as_ref()?))));
            assert!(t.iter().map(|(id, o)| (id, bytes(o))).eq(live));
        };
        for op in ops {
            match *op {
                Op::Push(v) => {
                    let o = make(v);
                    assert_eq!(table.push(&o) as usize, model.len());
                    model.push(Some(o));
                }
                Op::Remove(at) if !model.is_empty() => {
                    let id = at % model.len();
                    assert_eq!(table.remove(id as ObjId), model[id].take().is_some());
                }
                Op::Compact(seed) => {
                    // The live slots in a seeded shuffle: keep order is the
                    // caller's.
                    let mut keep: Vec<ObjId> = (0..model.len() as ObjId)
                        .filter(|&id| model[id as usize].is_some())
                        .collect();
                    let mut s = seed | 1;
                    for i in (1..keep.len()).rev() {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        keep.swap(i, (s % (i as u64 + 1)) as usize);
                    }
                    table.compact(&keep);
                    model = keep.iter().map(|&id| model[id as usize].clone()).collect();
                }
                Op::Fork(write_clone) => {
                    let clone = table.clone();
                    let frozen_side = if write_clone {
                        std::mem::replace(&mut table, clone)
                    } else {
                        clone
                    };
                    frozen.push((frozen_side, model.clone()));
                }
                Op::Remove(_) => {}
            }
            // Every slot after a compaction or a fork; otherwise the counts
            // and the last slot (each op's full check is quadratic).
            if matches!(op, Op::Compact(_) | Op::Fork(_)) {
                same(&table, &model);
            } else {
                assert_eq!(
                    (table.slots(), table.len()),
                    (model.len(), model.iter().flatten().count())
                );
                if let Some(last) = model.len().checked_sub(1) {
                    let got = table.get(last as ObjId).map(&bytes);
                    assert_eq!(got, model[last].as_ref().map(|o| bytes(o)));
                }
            }
        }
        same(&table, &model);
        for (t, model) in &frozen {
            same(t, model);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The arena table against a `Vec<Option<O>>` model at strides 1, 2
        /// and 282 and for strings: push, remove and `compact(keep)` across
        /// chunk boundaries (1 024 objects a chunk at stride 2, 64 at 282),
        /// every view byte-identical to what was pushed (the coordinates
        /// are arbitrary bit patterns, NaNs included), and at every fork
        /// the side left alone unchanged by what is written to the other
        /// after it, whether the clone or the original goes on.
        #[test]
        fn the_arena_table_matches_a_vec_of_options(
            initial in 0usize..1_500,
            ops in prop::collection::vec(op(), 0..400),
        ) {
            let floats = |v: &[f32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
            for d in [1usize, 2, 282] {
                let make = |v: u32| -> Vec<f32> {
                    (0..d as u32).map(|j| f32::from_bits(v.rotate_left(j))).collect()
                };
                let initial = if d == 282 { initial / 8 } else { initial };
                check_against_model(initial, &ops, make, floats);
            }
            let text = |v: u32| format!("{v:x}").repeat(v as usize % 5);
            check_against_model(initial, &ops, text, |s: &str| s.as_bytes().to_vec());
        }
    }
}
