//! One partition of a sharded dataset: an index plus the local→global id
//! mapping.

use crate::merge::TopK;
use pmi_metric::{
    Counters, CowVec, MetricIndex, Neighbor, ObjId, ObjTable, Object, PivotColumns, QueryScratch,
    StorageFootprint,
};
use std::borrow::Cow;

/// What a removed (or never-filled) slot of the local→global table holds.
const TOMBSTONE: ObjId = ObjId::MAX;

/// One shard: any [`MetricIndex`] over a disjoint partition of the dataset,
/// plus the mapping from the index's local object ids back to global
/// dataset ids.
///
/// Local ids are whatever the wrapped index assigned at insertion time
/// (positions in its object table); the shard records the global id for
/// each local slot so merged answers always speak global ids.
pub struct Shard<O: Object> {
    index: Box<dyn MetricIndex<O>>,
    /// Local id → global id; `ObjId::MAX` once the slot's object is removed
    /// (overwritten if the index reuses the local id), so the table alone
    /// says which slots are live members. Chunks are shared with every
    /// [`fork`](Self::fork).
    global_ids: CowVec<ObjId>,
    /// The members' stored pivot-distance rows, slot-aligned with
    /// `global_ids` (a tombstoned slot keeps its row), unless the index
    /// holds them: `None` iff [`MetricIndex::pivot_rows`] has the engine's
    /// width. Routing state, not index state: outside
    /// [`storage`](Self::storage).
    rows: Option<PivotColumns>,
}

impl<O: Object> Shard<O> {
    /// Wraps a freshly built index whose insertion order matched
    /// `global_ids` (i.e. local id `i` holds the object with global id
    /// `global_ids[i]`); `rows` are the members' rows of the engine's pivot
    /// space in that order. An index whose rows have the engine's width
    /// adopted them (it was built from a clone of `rows`, sharing the
    /// storage) and answers [`codes`](Self::codes) itself;
    /// otherwise — no rows, or rows over pivots of its own — the shard
    /// keeps them.
    pub fn new(index: Box<dyn MetricIndex<O>>, global_ids: Vec<ObjId>, rows: PivotColumns) -> Self {
        debug_assert_eq!(index.len(), global_ids.len());
        debug_assert_eq!(rows.rows(), global_ids.len());
        let adopted = index.pivot_rows().map(PivotColumns::width) == Some(rows.width());
        Shard {
            rows: (!adopted).then_some(rows),
            index,
            global_ids: global_ids.into(),
        }
    }

    /// The members' stored pivot-distance rows, slot-aligned, tombstoned
    /// slots included — the index's, or the ones the shard holds.
    pub(crate) fn columns(&self) -> &PivotColumns {
        match &self.rows {
            Some(rows) => rows,
            None => self.index.pivot_rows().expect("the index holds the rows"),
        }
    }

    /// The stored codes of local slot `local`'s row, live or tombstoned.
    pub fn codes(&self, local: ObjId) -> impl Iterator<Item = u16> + '_ {
        self.columns().codes(local as usize)
    }

    /// Number of live objects in this shard.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the shard is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The wrapped index (for name / storage inspection).
    pub fn index(&self) -> &dyn MetricIndex<O> {
        self.index.as_ref()
    }

    /// Translates a local id to its global id.
    #[inline]
    pub fn global_id(&self, local: ObjId) -> ObjId {
        self.global_ids[local as usize]
    }

    /// The full local→global slot table, **including dead slots**, which
    /// hold `ObjId::MAX` (see [`live_members`](Self::live_members)).
    pub fn global_ids(&self) -> &CowVec<ObjId> {
        &self.global_ids
    }

    /// The live members as `(local slot, global id)` pairs in slot order —
    /// one pass over this shard's own table, which is what lets the engine
    /// recompute a routing box without touching the rest of the dataset.
    pub fn live_members(&self) -> impl Iterator<Item = (ObjId, ObjId)> + '_ {
        self.global_ids
            .iter()
            .enumerate()
            .filter(|&(_, &gid)| gid != TOMBSTONE)
            .map(|(local, &gid)| (local as ObjId, gid))
    }

    /// Whether local slot `local` holds a live member.
    pub(crate) fn is_live(&self, local: usize) -> bool {
        self.global_ids[local] != TOMBSTONE
    }

    /// Range query answered in global ids (unsorted), appended to `out`;
    /// all transient state lives in `scratch`.
    pub fn range_global_into(
        &self,
        q: &O,
        radius: f64,
        scratch: &mut QueryScratch,
        out: &mut Vec<ObjId>,
    ) {
        let start = out.len();
        self.index.range_query_into(q, radius, scratch, out);
        for id in &mut out[start..] {
            *id = self.global_ids[*id as usize];
        }
    }

    /// Local top-k offered into a global [`TopK`] collector: the shard's
    /// local top-k lands in the reused `tmp` buffer and is offered into
    /// `topk` under global ids. `seed` is the collector's threshold
    /// *before* this shard is probed
    /// ([`TopK::threshold`](crate::merge::TopK::threshold)) — when the
    /// caller probes shards in sequence, passing it lets the index skip
    /// (and never verify) candidates the merge would reject anyway, with
    /// byte-identical merged results (see
    /// [`MetricIndex::knn_query_into_seeded`]). Pass `f64::INFINITY` to
    /// run unseeded.
    pub fn knn_into_with(
        &self,
        q: &O,
        k: usize,
        seed: f64,
        scratch: &mut QueryScratch,
        tmp: &mut Vec<Neighbor>,
        topk: &mut TopK,
    ) {
        tmp.clear();
        self.index.knn_query_into_seeded(q, k, seed, scratch, tmp);
        for n in tmp.drain(..) {
            topk.offer(Neighbor::new(self.global_id(n.id), n.dist));
        }
    }

    /// Inserts an object carrying a global id, with the pivot row the
    /// engine already computed and stored as `codes`: an index that holds
    /// the engine's rows appends them (no remap) and copies the view into
    /// its object table; otherwise the index takes a plain insert of the
    /// object, made owned only if it was borrowed, and the shard keeps the
    /// codes.
    pub fn insert_adopted(&mut self, o: Cow<'_, O::Target>, global: ObjId, codes: &[u16]) -> ObjId {
        let local = match &mut self.rows {
            None => self.index.insert_adopted(&o, codes),
            Some(rows) => {
                let local = self.index.insert(o.into_owned());
                let slot = rows.push_codes(codes);
                assert_eq!(slot, local as usize, "routing rows stay slot-aligned");
                local
            }
        };
        self.note_mapping(local, global);
        local
    }

    /// Engine-level compaction of the wrapped index: `keep` are the old
    /// local ids of this shard's survivors (ascending global id), `gids`
    /// their new global ids. An index that compacts
    /// ([`MetricIndex::compact_rows`]) holds survivor `i` at local id `i`
    /// afterwards, so the local→global table — and the rows the shard
    /// holds, if any — are replaced wholesale. Returns whether it did:
    /// other kinds keep their tombstones (and the shard its slot-aligned
    /// rows); only the live slots' global ids are rewritten then.
    pub fn compact_rows(&mut self, keep: &[ObjId], gids: &[ObjId]) -> bool {
        if self.index.compact_rows(keep) {
            self.global_ids = gids.iter().copied().collect();
            if let Some(rows) = &mut self.rows {
                *rows = rows.select(keep);
            }
            true
        } else {
            for (&local, &gid) in keep.iter().zip(gids) {
                self.global_ids.set(local as usize, gid);
            }
            false
        }
    }

    fn note_mapping(&mut self, local: ObjId, global: ObjId) {
        let slot = local as usize;
        while self.global_ids.len() < slot {
            self.global_ids.push(TOMBSTONE);
        }
        if slot == self.global_ids.len() {
            self.global_ids.push(global);
        } else {
            self.global_ids.set(slot, global);
        }
    }

    /// Removes by local id, tombstoning the slot's global id.
    pub fn remove_local(&mut self, local: ObjId) -> bool {
        let removed = self.index.remove(local);
        if removed {
            self.global_ids.set(local as usize, TOMBSTONE);
        }
        removed
    }

    /// A live object by local id: borrowed from the index's object table
    /// where it has one ([`MetricIndex::object`]).
    pub fn object_local(&self, local: ObjId) -> Option<Cow<'_, O::Target>> {
        self.index.object(local)
    }

    /// Cost counter snapshot of the wrapped index.
    pub fn counters(&self) -> Counters {
        self.index.counters()
    }

    /// Resets the wrapped index's counters.
    pub fn reset_counters(&self) {
        self.index.reset_counters()
    }

    /// Storage footprint of the wrapped index.
    pub fn storage(&self) -> StorageFootprint {
        self.index.storage()
    }

    /// An independently mutable copy of this shard (see
    /// [`MetricIndex::fork`]): byte-identical answers at fork time,
    /// **shared** cost counters, and a slot table and rows that share every
    /// chunk with the original until one side writes to it.
    pub fn fork(&self) -> Shard<O> {
        Shard {
            index: self.index.fork(),
            global_ids: self.global_ids.clone(),
            rows: self.rows.clone(),
        }
    }
}

/// One partition awaiting its index: its objects plus their global ids.
pub type Partition<O> = (ObjTable<O>, Vec<ObjId>);

/// Each shard's members under an explicit per-object shard assignment —
/// every membership the builder produces or is given goes through here —
/// in input order, so global ids stay the slots of the packed input. The
/// builder has checked that `assignment` holds one entry `< shards` per
/// object.
pub(crate) fn members_by_assignment(assignment: &[usize], shards: usize) -> Vec<Vec<ObjId>> {
    let mut members: Vec<Vec<ObjId>> = vec![Vec::new(); shards.max(1)];
    for (i, &s) in assignment.iter().enumerate() {
        members[s].push(i as ObjId);
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::{BruteForce, L2};

    #[test]
    fn assignment_partitioning_preserves_order() {
        let members = members_by_assignment(&[1, 0, 1, 1, 0, 2], 3);
        assert_eq!(members, [vec![1, 4], vec![0, 2, 3], vec![5]]);
    }

    #[test]
    fn shard_speaks_global_ids() {
        // Shard holds objects with global ids 4, 9, 14.
        let objs = vec![vec![0.0f32], vec![10.0], vec![20.0]];
        let idx = Box::new(BruteForce::new(objs.clone(), L2));
        let rows = PivotColumns::from_codes(0, 1.0, [[0u16; 0]; 3]);
        let shard = Shard::new(idx as Box<dyn MetricIndex<_>>, vec![4, 9, 14], rows);
        let mut qs = QueryScratch::new();
        let mut hits = Vec::new();
        shard.range_global_into(&vec![0.0f32], 10.5, &mut qs, &mut hits);
        hits.sort_unstable();
        assert_eq!(hits, vec![4, 9]);
        let mut topk = TopK::new(2);
        let seed = topk.threshold();
        shard.knn_into_with(&vec![21.0f32], 2, seed, &mut qs, &mut Vec::new(), &mut topk);
        let got = topk.drain_sorted();
        assert_eq!(got[0].id, 14);
        assert_eq!(got[1].id, 9);
    }

    #[test]
    fn insert_extends_mapping() {
        let idx = Box::new(BruteForce::new(vec![vec![0.0f32]], L2));
        let rows = PivotColumns::from_codes(1, 1.0, [[0u16]]);
        let mut shard = Shard::new(idx as Box<dyn MetricIndex<_>>, vec![7], rows);
        shard.insert_adopted(Cow::Owned(vec![5.0f32]), 42, &[5]);
        assert!(shard.codes(1).eq([5]), "the shard keeps the row");
        assert_eq!(shard.len(), 2);
        let mut hits = Vec::new();
        shard.range_global_into(&vec![5.0f32], 0.1, &mut QueryScratch::new(), &mut hits);
        assert_eq!(hits, vec![42]);
        assert!(shard.remove_local(0) && !shard.is_live(0) && shard.is_live(1));
    }
}
