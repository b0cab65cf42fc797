//! The engine's unified mutation path: batched updates
//! ([`UpdateBatch`] → [`ShardedEngine::apply`](crate::ShardedEngine::apply)),
//! their exact accounting ([`ApplyReport`]), and the re-clustering trigger
//! ([`RefreshPolicy`]).
//!
//! Inserts and removes flow through the same layered fast path queries use:
//! an insert is routed via the [`RoutingTable`](pmi_router::RoutingTable),
//! its pivot row is computed **once** and handed to the destination shard
//! with the object
//! ([`MetricIndex::insert_adopted`](pmi_metric::MetricIndex::insert_adopted))
//! — no per-shard remap. Removes recompute the affected shards' routing
//! boxes from the surviving members' rows, and a batch that leaves the
//! shards too imbalanced re-cuts every shard.

use crate::robust::OpError;
use pmi_metric::ObjId;

/// One mutation of an [`UpdateBatch`].
#[derive(Clone, Debug)]
pub enum UpdateOp<O> {
    /// Insert an object; it receives the next global id.
    Insert(O),
    /// Remove the object with this global id (a miss is counted, not an
    /// error — the object may have been removed earlier in the batch).
    Remove(ObjId),
}

/// An ordered batch of inserts and removes, applied atomically with respect
/// to box maintenance: boxes are grown per insert, shrunk once per affected
/// shard after the last remove, and the re-cluster check runs once at the
/// end.
#[derive(Clone, Debug, Default)]
pub struct UpdateBatch<O> {
    ops: Vec<UpdateOp<O>>,
}

impl<O> UpdateBatch<O> {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch { ops: Vec::new() }
    }

    /// Queues an insert.
    pub fn insert(&mut self, o: O) -> &mut Self {
        self.ops.push(UpdateOp::Insert(o));
        self
    }

    /// Queues a remove by global id.
    pub fn remove(&mut self, id: ObjId) -> &mut Self {
        self.ops.push(UpdateOp::Remove(id));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch queues nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The queued operations, in application order.
    pub fn ops(&self) -> &[UpdateOp<O>] {
        &self.ops
    }
}

impl<O> FromIterator<UpdateOp<O>> for UpdateBatch<O> {
    fn from_iter<T: IntoIterator<Item = UpdateOp<O>>>(iter: T) -> Self {
        UpdateBatch {
            ops: iter.into_iter().collect(),
        }
    }
}

/// When `apply` re-clusters: after a batch, if the fullest shard holds more
/// than `max_imbalance ×` the emptiest shard's live objects (and the two
/// are big enough to matter), every shard is re-cut by the build's k-d cut
/// of the live members' stored rows, moving only the objects whose cell
/// changed — what [`compact`](crate::ShardedEngine::compact) does before it
/// renumbers, without the renumbering. Over a plain engine's zero-width rows
/// the cut orders by global id alone: balanced contiguous runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefreshPolicy {
    /// Trigger threshold: re-cluster when `max_len > max_imbalance *
    /// max(min_len, 1)`. `f64::INFINITY` disables re-clustering.
    pub max_imbalance: f64,
    /// The fullest and the emptiest shard must hold at least this many live
    /// objects combined;
    /// below it, imbalance is noise and re-clustering is skipped.
    pub min_objects: usize,
}

impl RefreshPolicy {
    /// Never re-cluster.
    pub fn disabled() -> Self {
        RefreshPolicy {
            max_imbalance: f64::INFINITY,
            min_objects: usize::MAX,
        }
    }

    /// Whether a `(max, min)` live-count pair trips the trigger.
    pub fn triggers(&self, max_len: usize, min_len: usize) -> bool {
        max_len + min_len >= self.min_objects
            && (max_len as f64) > self.max_imbalance * min_len.max(1) as f64
    }
}

impl Default for RefreshPolicy {
    fn default() -> Self {
        RefreshPolicy {
            max_imbalance: 3.0,
            min_objects: 64,
        }
    }
}

/// What one [`apply`](crate::ShardedEngine::apply) did and what it cost —
/// every counter is exact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ApplyReport {
    /// Inserts applied.
    pub inserts: usize,
    /// Removes applied (the id was live).
    pub removes: usize,
    /// Removes whose id was absent (already removed or never existed).
    pub missing_removes: usize,
    /// Global ids assigned to the batch's inserts, in op order.
    pub inserted_ids: Vec<ObjId>,
    /// Distance computations spent mapping inserts into pivot space —
    /// exactly one `l`-wide matrix row per mapped insert, the whole point
    /// of the unified path (the old route re-mapped once more per shard).
    pub map_compdists: u64,
    /// Distance computations the shards themselves spent during the apply
    /// (auxiliary structures only: matrix-adopting kinds pay 0 here; e.g.
    /// CPT still pays its M-tree clustering, and fallback kinds their own
    /// insert cost). Exact delta of the aggregate shard counters.
    pub shard_compdists: u64,
    /// Routing boxes actually recomputed from surviving members: one per
    /// shard that lost a member lying on a face of its box (removing a
    /// member strictly inside cannot change the box) — or, in a commit
    /// that re-clusters, exactly one per shard: the re-cut reboxes every
    /// shard, so the face rebox is skipped.
    pub reboxed_shards: usize,
    /// Re-clustering passes run (0 or 1 per apply).
    pub reclusters: usize,
    /// Objects moved between shards by re-clustering.
    pub moved_objects: u64,
    /// Wall-clock duration of the apply, seconds.
    pub wall_secs: f64,
    /// Whether the apply aborted: a fault (panic) inside the staging
    /// transaction discarded every staged mutation and the engine still
    /// publishes the pre-apply snapshot — no op landed, concurrent serving
    /// never saw intermediate state, and the same batch can be retried.
    /// All counts above are zero when set.
    pub aborted: bool,
    /// Per-op errors, in op order: validator-rejected inserts, removes of
    /// unknown ids, and duplicate removes. The batch still applies every
    /// valid op — these classify what was skipped or missed
    /// (`missing_removes` keeps counting unknown + duplicate removes
    /// together, as before).
    pub op_errors: Vec<OpError>,
}

impl std::fmt::Display for ApplyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.aborted {
            return write!(
                f,
                "apply ABORTED after {:.4}s (staged state discarded, nothing published)",
                self.wall_secs
            );
        }
        writeln!(
            f,
            "applied {} insert(s), {} remove(s) ({} missing) in {:.4}s",
            self.inserts, self.removes, self.missing_removes, self.wall_secs
        )?;
        writeln!(
            f,
            "  cost: {} map compdists ({} per routed insert), {} shard compdists",
            self.map_compdists,
            if self.inserts > 0 {
                self.map_compdists / self.inserts as u64
            } else {
                0
            },
            self.shard_compdists
        )?;
        write!(
            f,
            "  routing: {} box(es) shrunk, {} re-cluster(s) moving {} object(s)",
            self.reboxed_shards, self.reclusters, self.moved_objects
        )?;
        if !self.op_errors.is_empty() {
            write!(f, "\n  op errors: {}", self.op_errors.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder_orders_ops() {
        let mut b = UpdateBatch::new();
        assert!(b.is_empty());
        b.insert(vec![1.0f32]).remove(3).insert(vec![2.0f32]);
        assert_eq!(b.len(), 3);
        assert!(matches!(b.ops()[0], UpdateOp::Insert(_)));
        assert!(matches!(b.ops()[1], UpdateOp::Remove(3)));
        let collected: UpdateBatch<Vec<f32>> = [UpdateOp::Remove(1), UpdateOp::Remove(2)]
            .into_iter()
            .collect();
        assert_eq!(collected.len(), 2);
    }

    #[test]
    fn refresh_policy_triggers() {
        let p = RefreshPolicy {
            max_imbalance: 2.0,
            min_objects: 10,
        };
        assert!(p.triggers(30, 5), "6x imbalance over the floor");
        assert!(!p.triggers(30, 20), "1.5x is under the threshold");
        assert!(!p.triggers(6, 2), "too small to matter");
        assert!(p.triggers(12, 0), "empty shard counts as 1");
        assert!(!RefreshPolicy::disabled().triggers(1_000_000, 0));
        assert!(RefreshPolicy::default().triggers(400, 100));
    }

    #[test]
    fn report_displays() {
        let r = ApplyReport {
            inserts: 4,
            removes: 2,
            missing_removes: 1,
            map_compdists: 20,
            reboxed_shards: 2,
            reclusters: 1,
            moved_objects: 7,
            ..ApplyReport::default()
        };
        let s = format!("{r}");
        assert!(s.contains("4 insert(s)"));
        assert!(s.contains("(1 missing)"));
        assert!(s.contains("5 per routed insert"));
        assert!(s.contains("2 box(es) shrunk"));
        assert!(s.contains("moving 7 object(s)"));
    }
}
