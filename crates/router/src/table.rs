//! The routing table: per-shard pivot-space summaries plus the query
//! planner that decides which shards a query must probe.

use pmi_metric::lemmas::Mbb;
use pmi_metric::matrix::quantise;
use pmi_metric::PivotMatrix;
use std::sync::Arc;

/// Boxed pivot-space mapper: appends `(d(o, p_1), …, d(o, p_l))` to the
/// caller's buffer. The write-into shape keeps the serving hot loop free of
/// per-query allocations — workers reuse one buffer across a whole batch.
pub type Mapper<O> = Box<dyn Fn(&O, &mut Vec<f64>) + Send + Sync>;

/// The shared form the table stores: cloning a [`RoutingTable`] shares the
/// mapper and copies only the boxes (copy-on-write rebox — the engine's
/// apply transaction clones the table, mutates the clone's boxes, and
/// publishes it with the next engine snapshot).
type SharedMapper<O> = Arc<dyn Fn(&O, &mut Vec<f64>) + Send + Sync>;

/// Per-shard routing state for a pivot-space-partitioned engine: a mapper
/// from objects into pivot space (`o ↦ (d(o, p_1), …, d(o, p_l))`) and one
/// bounding box per shard over its members' mapped points — over what the
/// shard *stores* of them: the bounding box of the members' stored (f32)
/// pivot distances, widened outward by one f32 ulp per face
/// ([`Mbb::extend_stored`]). That box is a pure function of the shard's
/// stored columns — identical whether it was grown insert by insert or
/// recomputed from the rows — and contains the exact f64 map of every
/// member, so planning against it with the exact f64 map of a query stays
/// admissible.
///
/// Planning is a conservative application of Lemma 1 at shard granularity,
/// so a routed engine returns exactly what probing every shard would:
///
/// * [`range_plan_into`](Self::range_plan_into) keeps only the shards whose
///   box intersects the query's search box (`lemma1_box_prunable` on the
///   rest);
/// * [`knn_order_into`](Self::knn_order_into) sorts shards by ascending box
///   lower bound, letting the engine probe best-first and stop paying for
///   shards whose bound exceeds the current k-th distance.
///
/// All planning entry points are write-into (the serving hot loop reuses
/// one buffer per worker); the old allocating wrappers are gone.
///
/// Boxes are maintained exactly through the engine's mutation path: grown
/// on insert ([`extend`](Self::extend)) and recomputed from the surviving
/// members' stored rows on remove ([`shrink`](Self::shrink) /
/// [`rebox_from_rows`](Self::rebox_from_rows)), so pruning power does not
/// decay under churn — there is exactly one mutation route (the engine's
/// transactional `apply`), so published boxes are never stale.
///
/// Cloning shares the mapper (an `Arc`) and deep-copies only the boxes:
/// the table is immutable once published inside an engine snapshot, and
/// the apply transaction reboxes a copy-on-write clone off to the side.
pub struct RoutingTable<O> {
    mapper: SharedMapper<O>,
    boxes: Vec<Mbb>,
}

impl<O> Clone for RoutingTable<O> {
    fn clone(&self) -> Self {
        RoutingTable {
            mapper: Arc::clone(&self.mapper),
            boxes: self.boxes.clone(),
        }
    }
}

impl<O> RoutingTable<O> {
    /// Wraps a mapper and pre-computed per-shard boxes.
    ///
    /// Correctness contract: `mapper` must append the pivot-distance vector
    /// of its argument under the *same* pivots and metric that produced the
    /// boxes, and every object in shard `s` must have its (exact) mapped
    /// point inside `boxes[s]`.
    pub fn new(
        mapper: impl Fn(&O, &mut Vec<f64>) + Send + Sync + 'static,
        boxes: Vec<Mbb>,
    ) -> Self {
        RoutingTable {
            mapper: Arc::new(mapper),
            boxes,
        }
    }

    /// Builds the table from a partitioning: row `i` of `mapped` (the
    /// build-time pivot-distance matrix) is object `i`'s pivot-distance
    /// vector, `assignment[i]` its shard. Each box covers what its shard
    /// will store of those rows (see [`extend`](Self::extend)).
    pub fn from_assignment(
        mapper: impl Fn(&O, &mut Vec<f64>) + Send + Sync + 'static,
        dim: usize,
        mapped: &PivotMatrix,
        assignment: &[usize],
        shards: usize,
    ) -> Self {
        debug_assert_eq!(mapped.rows(), assignment.len());
        debug_assert_eq!(mapped.width(), dim);
        // Rounding to nearest is monotone, so the box of the stored values
        // is the stored form of the exact rows' box: take that (two
        // compares a value), then widen each occupied box once.
        let mut exact = vec![Mbb::empty(dim); shards];
        for ((_, m), &s) in mapped.iter_rows().zip(assignment) {
            exact[s].extend(m);
        }
        let mut table = Self::new(mapper, vec![Mbb::empty(dim); shards]);
        for (s, b) in exact.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
            table.extend(s, b.lo());
            table.extend(s, b.hi());
        }
        table
    }

    /// Number of shards the table routes over.
    pub fn num_shards(&self) -> usize {
        self.boxes.len()
    }

    /// The per-shard boxes, for inspection.
    pub fn boxes(&self) -> &[Mbb] {
        &self.boxes
    }

    /// Maps a query object into pivot space (`l` distance computations)
    /// into a reused buffer: clears `out`, then appends the mapped point.
    /// The batch-serving hot path.
    pub fn map_into(&self, q: &O, out: &mut Vec<f64>) {
        out.clear();
        (self.mapper)(q, out);
    }

    /// Shards that `MRQ(q, r)` must probe, written into a reused buffer
    /// (cleared first): every shard whose box is not prunable by Lemma 1,
    /// ascending shard order.
    pub fn range_plan_into(&self, q_dists: &[f64], r: f64, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.boxes.len()).filter(|&s| !self.boxes[s].prunable(q_dists, r)));
    }

    /// All shards ordered best-first for `MkNNQ(q, k)`, written into a
    /// reused buffer (cleared first): ascending box lower bound (`MINDIST`
    /// in pivot space), ties by shard id. The engine probes in this order
    /// and skips every shard whose bound exceeds the current k-th distance.
    pub fn knn_order_into(&self, q_dists: &[f64], out: &mut Vec<(usize, f64)>) {
        out.clear();
        out.extend(
            self.boxes
                .iter()
                .enumerate()
                .map(|(s, b)| (s, b.lower_bound(q_dists))),
        );
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    }

    /// Grows shard `s`'s box to cover a newly inserted object: `point` is
    /// its exact mapped point, and the box grows by the interval its
    /// *stored* form stands for — exactly what
    /// [`rebox_from_rows`](Self::rebox_from_rows) would produce for that
    /// row, so an insert followed by a rebox of the same members yields the
    /// identical box.
    pub fn extend(&mut self, s: usize, point: &[f64]) {
        self.boxes[s].extend_stored(point.iter().map(|&x| quantise(x)));
    }

    /// Replaces shard `s`'s box with an exactly recomputed one — the
    /// engine's remove path shrinks stale boxes back to the minimum box
    /// over the shard's surviving members (it recomputes several shards'
    /// boxes in one pass over its locator and installs each here).
    ///
    /// Correctness contract: `to` must cover every live member's exact
    /// mapped point; passing the box over the stored rows restores full
    /// pruning power.
    pub fn shrink(&mut self, s: usize, to: Mbb) {
        debug_assert_eq!(to.dim(), self.boxes[s].dim());
        self.boxes[s] = to;
    }

    /// Recomputes shard `s`'s box from its live members' stored rows (an
    /// empty iterator leaves the always-prunable empty box). The one-shard
    /// form of [`shrink`](Self::shrink).
    pub fn rebox_from_rows<R>(&mut self, s: usize, rows: impl IntoIterator<Item = R>)
    where
        R: IntoIterator<Item = f32>,
    {
        let mut to = Mbb::empty(self.boxes[s].dim());
        for row in rows {
            to.extend_stored(row);
        }
        self.shrink(s, to);
    }
}

impl<O> std::fmt::Debug for RoutingTable<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingTable")
            .field("shards", &self.boxes.len())
            .field("boxes", &self.boxes)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-d objects, one pivot at the origin: mapping is |x|.
    fn table(points: &[(f64, usize)], shards: usize) -> RoutingTable<f64> {
        let mapped = PivotMatrix::from_rows(1, points.iter().map(|&(x, _)| [x.abs()]));
        let assignment: Vec<usize> = points.iter().map(|&(_, s)| s).collect();
        RoutingTable::from_assignment(
            |q: &f64, out: &mut Vec<f64>| out.push(q.abs()),
            1,
            &mapped,
            &assignment,
            shards,
        )
    }

    fn range_plan(t: &RoutingTable<f64>, q: &[f64], r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        t.range_plan_into(q, r, &mut out);
        out
    }

    fn knn_order(t: &RoutingTable<f64>, q: &[f64]) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        t.knn_order_into(q, &mut out);
        out
    }

    #[test]
    fn range_plan_prunes_disjoint_boxes() {
        // Shard 0 covers |x| in [1, 2], shard 1 covers [10, 12].
        let t = table(&[(1.0, 0), (2.0, 0), (10.0, 1), (12.0, 1)], 2);
        // Query at x = 1.5 (mapped 1.5), r = 1: shard 1's box is 8.5 away.
        assert_eq!(range_plan(&t, &[1.5], 1.0), vec![0]);
        // Large radius reaches both.
        assert_eq!(range_plan(&t, &[1.5], 9.0), vec![0, 1]);
        // A query between the boxes with a tiny radius reaches neither.
        assert!(range_plan(&t, &[5.0], 0.5).is_empty());
        // The buffer is cleared and reused.
        let mut buf = vec![42usize];
        t.range_plan_into(&[1.5], 9.0, &mut buf);
        assert_eq!(buf, vec![0, 1]);
    }

    #[test]
    fn map_into_reuses_buffer() {
        let t = table(&[(1.0, 0), (-2.0, 1)], 2);
        let mut buf = vec![99.0];
        t.map_into(&-3.5, &mut buf);
        assert_eq!(buf, vec![3.5]);
    }

    #[test]
    fn knn_order_is_best_first() {
        let t = table(&[(1.0, 0), (2.0, 0), (10.0, 1), (12.0, 1), (5.0, 2)], 3);
        let order = knn_order(&t, &[11.0]);
        // Shard 1's box contains 11 (bound 0), shard 2 is 6 away, shard 0 is
        // 9 — each less the one f32 ulp its face is widened by.
        assert_eq!(order[0], (1, 0.0));
        assert_eq!(order[1], (2, 11.0 - 5.0f32.next_up() as f64));
        assert_eq!(order[2], (0, 11.0 - 2.0f32.next_up() as f64));
    }

    #[test]
    fn empty_shard_box_always_prunes() {
        // Shard 1 never receives a point.
        let t = table(&[(1.0, 0), (2.0, 0)], 2);
        assert_eq!(range_plan(&t, &[1.0], 1e9), vec![0]);
        let order = knn_order(&t, &[1.0]);
        assert_eq!(order[1], (1, f64::INFINITY));
    }

    #[test]
    fn extend_grows_the_target_box() {
        let mut t = table(&[(1.0, 0), (2.0, 0), (10.0, 1)], 2);
        assert_eq!(range_plan(&t, &[5.0], 1.0), Vec::<usize>::new());
        t.extend(0, &[5.0]);
        assert_eq!(range_plan(&t, &[5.0], 1.0), vec![0]);
        assert_eq!(t.boxes()[0].lower_bound(&[5.0]), 0.0);
        // One f32 ulp inside the stored 10.
        assert_eq!(
            t.boxes()[1].lower_bound(&[5.0]),
            10.0f32.next_down() as f64 - 5.0
        );
    }

    #[test]
    fn shrink_and_rebox_restore_pruning() {
        // Shard 0 holds |x| in {1, 2, 9}; removing the 9 leaves the box
        // stale at [1, 9] until it is recomputed from the survivors.
        let mut t = table(&[(1.0, 0), (2.0, 0), (9.0, 0), (30.0, 1)], 2);
        assert_eq!(
            range_plan(&t, &[8.0], 0.5),
            vec![0],
            "stale box still matches near the removed member"
        );
        let grown = t.boxes()[0].clone();
        t.rebox_from_rows(0, [[1.0f32], [2.0], [9.0]]);
        assert_eq!(
            t.boxes()[0],
            grown,
            "a rebox of the same members is the same box"
        );
        t.rebox_from_rows(0, [[1.0f32], [2.0]]);
        assert_eq!(
            range_plan(&t, &[8.0], 0.5),
            Vec::<usize>::new(),
            "recomputed box prunes the query again"
        );
        assert_eq!(range_plan(&t, &[1.5], 0.5), vec![0], "members still found");
        // shrink() installs a caller-built box; an empty one (the shard
        // lost its last member) is always pruned.
        t.shrink(0, Mbb::empty(1));
        assert_eq!(range_plan(&t, &[1.5], 1e9), vec![1]);
        assert_eq!(knn_order(&t, &[1.5])[1], (0, f64::INFINITY));
    }
}
