//! The routing table: per-shard pivot-space summaries plus the query
//! planner that decides which shards a query must probe.

use pmi_metric::{CodeBox, Object, PivotColumns};
use std::sync::Arc;

/// The pivot-space mapper: appends `(d(o, p_1), …, d(o, p_l))` to the
/// caller's buffer, for an object's view (what the engine's object tables
/// store; an owned object coerces). The write-into shape keeps the serving hot loop free of
/// per-query allocations — workers reuse one buffer across a whole batch.
/// Shared: cloning a [`RoutingTable`] shares the mapper and copies only the
/// boxes (copy-on-write rebox — the engine's apply transaction clones the
/// table, mutates the clone's boxes, and publishes it with the next engine
/// snapshot).
pub type Mapper<O> = Arc<dyn Fn(&<O as std::ops::Deref>::Target, &mut Vec<f64>) + Send + Sync>;

/// Per-shard routing state for a pivot-space-partitioned engine: a mapper
/// from objects into pivot space (`o ↦ (d(o, p_1), …, d(o, p_l))`) and, per
/// shard, one bounding box and one centre over what the shard *stores* of
/// its members' mapped points — u16 bucket codes under the one `step` the
/// engine hands every shard's columns and this table. The box is a
/// [`CodeBox`]: per pivot the smallest and largest code, standing for the
/// union of the members' buckets (open above once a member is stored
/// saturated); the centre is the mean of the stored values, kept as the
/// members' code sums and the live count and read as `sum · step / count`.
/// Both are pure functions of the shard's stored codes: the box is
/// identical whether it was grown insert by insert or recomputed, and
/// contains the exact f64 map of every member, so planning against it with
/// the exact f64 map of a query stays admissible; a code sum is an integer,
/// below 2⁵³ and exact in any order, so a fresh build and a compaction of
/// the same survivors agree bit for bit — which keeps their probe orders,
/// and with them their distance counts, identical.
///
/// Planning is a conservative application of Lemma 1 at shard granularity,
/// so a routed engine returns exactly what probing every shard would:
///
/// * [`range_plan_into`](Self::range_plan_into) keeps only the shards whose
///   box bound ([`CodeBox::lower_bound`]) is within the radius;
/// * [`knn_order_into`](Self::knn_order_into) sorts shards by ascending box
///   lower bound, bound ties by the nearer centre, letting the engine probe
///   best-first and stop paying for shards whose bound exceeds the current
///   k-th distance.
///
/// All planning entry points are write-into (the serving hot loop reuses
/// one buffer per worker).
///
/// Boxes are maintained exactly through the engine's mutation path: grown
/// on insert ([`extend`](Self::extend)) and recomputed from the surviving
/// members' stored codes when a remove hits a face
/// ([`rebox`](Self::rebox)), so pruning power does not decay under churn —
/// there is exactly one mutation route (the engine's transactional
/// `apply`), so published boxes are never stale. Centres follow the same
/// route: `extend` adds a row, [`forget`](Self::forget) subtracts one, a
/// rebox recomputes.
///
/// Cloning shares the mapper (an `Arc`) and deep-copies the boxes and
/// centres: the table is immutable once published inside an engine
/// snapshot, and the apply transaction reboxes a copy-on-write clone off to
/// the side.
pub struct RoutingTable<O: Object> {
    mapper: Mapper<O>,
    boxes: Vec<CodeBox>,
    /// Shard-major, one box dimension each: `sums[s * dim..][..dim]` is Σ
    /// of the codes of shard `s`'s live stored rows.
    sums: Vec<u64>,
    /// Live rows behind each shard's sum.
    counts: Vec<u64>,
    /// The bucket width of the shards' stored columns.
    step: f64,
}

impl<O: Object> Clone for RoutingTable<O> {
    fn clone(&self) -> Self {
        RoutingTable {
            mapper: Arc::clone(&self.mapper),
            boxes: self.boxes.clone(),
            sums: self.sums.clone(),
            counts: self.counts.clone(),
            step: self.step,
        }
    }
}

impl<O: Object> RoutingTable<O> {
    /// Builds the table over the shards' stored rows — the only way to make
    /// one: `shards[s]` are shard `s`'s members' columns, all under `step`,
    /// each summarised by [`rebox`](Self::rebox) over every row.
    ///
    /// Correctness contract: `mapper` must append the pivot-distance vector
    /// of its argument under the *same* pivots and metric that produced the
    /// columns.
    ///
    /// # Panics
    /// If the shards' columns differ in width or are under another step.
    pub fn from_columns(mapper: Mapper<O>, step: f64, shards: &[PivotColumns]) -> Self {
        let dim = shards.first().map_or(0, PivotColumns::width);
        let mut table = RoutingTable {
            mapper,
            boxes: vec![CodeBox::empty(dim); shards.len()],
            sums: vec![0; shards.len() * dim],
            counts: vec![0; shards.len()],
            step,
        };
        for (s, cols) in shards.iter().enumerate() {
            table.rebox(s, cols, |_| true);
        }
        table
    }

    /// The bucket width of the stored rows the boxes and centres are over.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Number of shards the table routes over.
    pub fn num_shards(&self) -> usize {
        self.boxes.len()
    }

    /// The per-shard boxes, for inspection; their edges are under
    /// [`step`](Self::step).
    pub fn boxes(&self) -> &[CodeBox] {
        &self.boxes
    }

    /// Shard `s`'s centre — the mean of its live members' stored rows —
    /// for inspection; `None` for a shard without members.
    pub fn centre(&self, s: usize) -> Option<impl Iterator<Item = f64> + '_> {
        let n = self.counts[s];
        (n > 0).then(|| {
            self.sum(s)
                .iter()
                .map(move |&t| t as f64 * self.step / n as f64)
        })
    }

    /// Squared Euclidean distance in pivot space from a mapped query to
    /// shard `s`'s centre — the key [`knn_order_into`](Self::knn_order_into)
    /// breaks bound ties with; `∞` for a shard without members.
    pub fn centre_distance(&self, s: usize, q_dists: &[f64]) -> f64 {
        match self.centre(s) {
            Some(c) => c.zip(q_dists).map(|(c, &q)| (c - q) * (c - q)).sum(),
            None => f64::INFINITY,
        }
    }

    fn sum(&self, s: usize) -> &[u64] {
        let dim = self.boxes[s].dim();
        &self.sums[s * dim..][..dim]
    }

    fn sum_mut(&mut self, s: usize) -> &mut [u64] {
        let dim = self.boxes[s].dim();
        &mut self.sums[s * dim..][..dim]
    }

    /// Maps a query object into pivot space (`l` distance computations)
    /// into a reused buffer: clears `out`, then appends the mapped point.
    /// The batch-serving hot path.
    pub fn map_into(&self, q: &O::Target, out: &mut Vec<f64>) {
        out.clear();
        (self.mapper)(q, out);
    }

    /// Shards that `MRQ(q, r)` must probe, written into a reused buffer
    /// (cleared first): every shard whose box is not prunable by Lemma 1,
    /// ascending shard order.
    pub fn range_plan_into(&self, q_dists: &[f64], r: f64, out: &mut Vec<usize>) {
        out.clear();
        out.extend(
            (0..self.boxes.len()).filter(|&s| self.boxes[s].lower_bound(q_dists, self.step) <= r),
        );
    }

    /// All shards ordered best-first for `MkNNQ(q, k)`, written into a
    /// reused buffer (cleared first) as `(shard, box lower bound)`:
    /// ascending box lower bound (`MINDIST` in pivot space), bound ties by
    /// ascending [`centre_distance`](Self::centre_distance), then by shard
    /// id. The engine probes in this order and skips every shard whose
    /// bound exceeds the current k-th distance.
    ///
    /// The tie rule decides what a kNN costs: a query can lie inside
    /// several boxes (bound 0 for each) — k-d cells share the bucket a cut
    /// falls in, and inserts grow boxes over their neighbours' — and the
    /// shard probed first seeds the radius every later probe prunes with.
    /// A box grown by inserts keeps its centre in its own cell, so the
    /// nearest centre is the likely home of the query's true neighbours,
    /// where the shard id says nothing. The key would mislead where a
    /// shard is not one cell, which is why a re-cluster re-cuts every
    /// shard instead of re-splitting two. The
    /// answer does not depend on the order (the engine merges by
    /// `(distance, id)`), only the number of distances paid for it does.
    pub fn knn_order_into(&self, q_dists: &[f64], out: &mut Vec<(usize, f64)>) {
        out.clear();
        out.extend(
            self.boxes
                .iter()
                .enumerate()
                .map(|(s, b)| (s, b.lower_bound(q_dists, self.step))),
        );
        // Centre distances are computed only where two bounds tie: a
        // handful of `l`-term sums per query, and nothing to allocate.
        out.sort_unstable_by(|a, b| {
            a.1.total_cmp(&b.1)
                .then_with(|| {
                    self.centre_distance(a.0, q_dists)
                        .total_cmp(&self.centre_distance(b.0, q_dists))
                })
                .then(a.0.cmp(&b.0))
        });
    }

    /// Grows shard `s`'s box and moves its centre to cover a newly inserted
    /// member, given as the `codes` it is stored as — exactly what
    /// [`rebox`](Self::rebox) would produce for that row, so an insert
    /// followed by a rebox of the same members yields the identical box.
    pub fn extend(&mut self, s: usize, codes: &[u16]) {
        self.boxes[s].extend(codes.iter().copied());
        for (t, &c) in self.sum_mut(s).iter_mut().zip(codes) {
            *t += u64::from(c);
        }
        self.counts[s] += 1;
    }

    /// Takes a removed member's stored `codes` out of shard `s`'s centre.
    /// The box is left alone: the engine calls this for a member strictly
    /// inside it ([`CodeBox::strictly_contains`]), and recomputes box and
    /// centre together ([`rebox`](Self::rebox)) for one on a face.
    pub fn forget(&mut self, s: usize, codes: impl IntoIterator<Item = u16>) {
        assert!(self.counts[s] > 0, "forgetting a row of an empty shard");
        self.counts[s] -= 1;
        for (t, c) in self.sum_mut(s).iter_mut().zip(codes) {
            *t -= u64::from(c);
        }
    }

    /// Recomputes shard `s`'s box and centre from the rows of `cols` whose
    /// slot `live` keeps — the one derivation, which
    /// [`from_columns`](Self::from_columns) runs over every row and the
    /// engine over a shard's live members — restoring full pruning power
    /// after removes (no live row leaves the always-prunable empty box and
    /// no centre). Per column: its smallest and largest live code and
    /// their integer sum, a chunk of contiguous codes at a time.
    ///
    /// # Panics
    /// If `cols` are not the table's width or under another step.
    pub fn rebox(&mut self, s: usize, cols: &PivotColumns, live: impl Fn(usize) -> bool) {
        let (dim, step) = (self.boxes[s].dim(), self.step);
        assert!(
            cols.width() == dim && cols.step() == step,
            "every shard's columns are {dim} wide, under step {step}"
        );
        let mut lo = vec![u16::MAX; dim];
        let mut hi = vec![0u16; dim];
        for (j, ((lo, hi), total)) in lo.iter_mut().zip(&mut hi).zip(self.sum_mut(s)).enumerate() {
            *total = 0;
            let mut slot = 0;
            for chunk in cols.column(j).chunks() {
                for (i, &c) in chunk.iter().enumerate() {
                    if live(slot + i) {
                        *lo = (*lo).min(c);
                        *hi = (*hi).max(c);
                        *total += u64::from(c);
                    }
                }
                slot += chunk.len();
            }
        }
        let count = (0..cols.rows()).filter(|&i| live(i)).count();
        let mut b = CodeBox::empty(dim);
        if count > 0 {
            b.extend(lo);
            b.extend(hi);
        }
        self.boxes[s] = b;
        self.counts[s] = count as u64;
    }
}

impl<O: Object> std::fmt::Debug for RoutingTable<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoutingTable")
            .field("shards", &self.boxes.len())
            .field("boxes", &self.boxes)
            .field("sums", &self.sums)
            .field("counts", &self.counts)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::lemmas::mbb_lower_bound;
    use pmi_metric::matrix::quantise;

    /// The bucket width of the tests' tables: coordinates are stored to
    /// the eighth below them.
    const STEP: f64 = 0.125;

    /// What `x` reads back as under `step`: its bucket's lower edge.
    fn snap(x: f64, step: f64) -> f64 {
        f64::from(quantise(x, step)) * step
    }

    /// A row as the codes it is stored as under [`STEP`].
    fn stored(row: &[f64]) -> Vec<u16> {
        row.iter().map(|&x| quantise(x, STEP)).collect()
    }

    /// Each shard's members' rows, in row order, stored under `step`.
    fn columns(
        rows: &[Vec<f64>],
        assignment: &[usize],
        shards: usize,
        width: usize,
        step: f64,
    ) -> Vec<PivotColumns> {
        (0..shards)
            .map(|s| {
                let members = rows.iter().zip(assignment).filter(|&(_, &t)| t == s);
                let codes =
                    members.map(|(row, _)| row.iter().map(|&x| quantise(x, step)).collect());
                PivotColumns::from_codes(width, step, codes.collect::<Vec<Vec<u16>>>())
            })
            .collect()
    }

    /// 1-d objects, one pivot at the origin: mapping is |x|.
    fn table(points: &[(f64, usize)], shards: usize) -> RoutingTable<Vec<f32>> {
        let rows: Vec<Vec<f64>> = points.iter().map(|&(x, _)| vec![x.abs()]).collect();
        let assignment: Vec<usize> = points.iter().map(|&(_, s)| s).collect();
        RoutingTable::from_columns(
            Arc::new(|q: &[f32], out: &mut Vec<f64>| out.push(q[0].abs() as f64)),
            STEP,
            &columns(&rows, &assignment, shards, 1, STEP),
        )
    }

    /// Shard `s`'s box as f64 edges under the table's step, `None` when
    /// empty.
    fn edges(t: &RoutingTable<Vec<f32>>, s: usize) -> Option<Vec<(f64, f64)>> {
        let b = &t.boxes()[s];
        (!b.is_empty()).then(|| b.edges(t.step()).collect())
    }

    /// Per shard: the box's f64 edges (`None` when empty), the centre sums
    /// `Σ stored value` and the count — all as bits.
    type TableBits = Vec<(Option<Vec<(u64, u64)>>, Vec<u64>, u64)>;

    fn table_bits(t: &RoutingTable<Vec<f32>>) -> TableBits {
        (0..t.num_shards())
            .map(|s| {
                let edges = edges(t, s).map(|e| {
                    e.iter()
                        .map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
                        .collect()
                });
                let sums = t.sum(s).iter().map(|&c| (c as f64 * t.step).to_bits());
                (edges, sums.collect(), t.counts[s])
            })
            .collect()
    }

    /// The derivation the table had when boxes held f64 edges, kept as the
    /// oracle: one pass over the f64 rows, the exact box snapped at its two
    /// corners and widened to their buckets (open above at the top one),
    /// and each centre the f64 sum of the snapped values in row order.
    fn from_rows_reference(
        rows: &[Vec<f64>],
        assignment: &[usize],
        shards: usize,
        dim: usize,
        step: f64,
    ) -> TableBits {
        let top = 65_535.0 * step;
        (0..shards)
            .map(|s| {
                let members: Vec<&Vec<f64>> = rows
                    .iter()
                    .zip(assignment)
                    .filter(|&(_, &t)| t == s)
                    .map(|(m, _)| m)
                    .collect();
                let edges = (!members.is_empty()).then(|| {
                    (0..dim)
                        .map(|j| {
                            let lo = members.iter().map(|m| m[j]).fold(f64::INFINITY, f64::min);
                            let hi = members.iter().map(|m| m[j]).fold(0.0, f64::max);
                            let (lo, hi) = (snap(lo, step), snap(hi, step));
                            let above = if hi >= top { f64::INFINITY } else { hi + step };
                            (lo.to_bits(), above.to_bits())
                        })
                        .collect()
                });
                let sums = (0..dim).map(|j| {
                    let total = members.iter().fold(0.0, |t, m| t + snap(m[j], step));
                    total.to_bits()
                });
                (edges, sums.collect(), members.len() as u64)
            })
            .collect()
    }

    #[test]
    fn columns_table_equals_the_row_derivation_on_edge_cases() {
        // Shard 1 is empty; shard 0 holds tied rows; shard 2 a value past
        // the top bucket (stored saturated, its box open above) and one
        // exactly at its lower edge; shard 3 a lone zero row.
        let top = 65_535.0 * STEP;
        let rows = vec![
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            vec![9_000.0, 0.3],
            vec![top, 0.3],
            vec![1.0, 2.0],
            vec![0.0, 0.0],
        ];
        let assignment = [0, 0, 2, 2, 0, 3];
        let got = RoutingTable::from_columns(
            Arc::new(|_: &[f32], _: &mut Vec<f64>| {}),
            STEP,
            &columns(&rows, &assignment, 4, 2, STEP),
        );
        let want = from_rows_reference(&rows, &assignment, 4, 2, STEP);
        assert_eq!(table_bits(&got), want);
        assert!(got.boxes()[1].is_empty() && got.centre(1).is_none());
        assert_eq!(edges(&got, 2).unwrap()[0], (top, f64::INFINITY));
        assert_eq!(got.centre(0).unwrap().collect::<Vec<_>>(), vec![1.0, 2.0]);
    }

    fn range_plan(t: &RoutingTable<Vec<f32>>, q: &[f64], r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        t.range_plan_into(q, r, &mut out);
        out
    }

    fn knn_order(t: &RoutingTable<Vec<f32>>, q: &[f64]) -> Vec<(usize, f64)> {
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
        t.map_into(&[-3.5], &mut buf);
        assert_eq!(buf, vec![3.5]);
    }

    #[test]
    fn knn_order_is_best_first() {
        let t = table(&[(1.0, 0), (2.0, 0), (10.0, 1), (12.0, 1), (5.0, 2)], 3);
        let order = knn_order(&t, &[11.0]);
        // Shard 1's box contains 11 (bound 0), shard 2 is 6 away, shard 0 is
        // 9 — each less the one bucket its upper face stands for.
        assert_eq!(order[0], (1, 0.0));
        assert_eq!(order[1], (2, 11.0 - (5.0 + STEP)));
        assert_eq!(order[2], (0, 11.0 - (2.0 + STEP)));
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
        t.extend(0, &stored(&[5.0]));
        assert_eq!(range_plan(&t, &[5.0], 1.0), vec![0]);
        assert_eq!(t.boxes()[0].lower_bound(&[5.0], STEP), 0.0);
        // A lower face is the stored value itself.
        assert_eq!(t.boxes()[1].lower_bound(&[5.0], STEP), 10.0 - 5.0);
        // Beyond the top bucket (65 535 steps) a member is stored
        // saturated: its box is open above, wherever it really is.
        t.extend(1, &stored(&[9_000.0]));
        assert_eq!(edges(&t, 1).unwrap()[0].1, f64::INFINITY);
        assert_eq!(t.boxes()[1].lower_bound(&[1e9], STEP), 0.0);
        assert_eq!(
            t.centre(1).unwrap().next(),
            Some((10.0 + 65_535.0 * STEP) / 2.0)
        );
    }

    #[test]
    fn rebox_restores_pruning() {
        // Shard 0 holds |x| in {1, 2, 9}; removing the 9 leaves the box
        // stale at [1, 9] until it is recomputed from the survivors.
        let mut t = table(&[(1.0, 0), (2.0, 0), (9.0, 0), (30.0, 1)], 2);
        assert_eq!(
            range_plan(&t, &[8.0], 0.5),
            vec![0],
            "stale box still matches near the removed member"
        );
        let grown = t.boxes()[0].clone();
        let cols = PivotColumns::from_codes(1, STEP, [[1.0], [2.0], [9.0]].map(|r| stored(&r)));
        t.rebox(0, &cols, |_| true);
        assert_eq!(
            t.boxes()[0],
            grown,
            "a rebox of the same members is the same box"
        );
        // Slot 2 tombstoned: only the live rows count.
        t.rebox(0, &cols, |slot| slot != 2);
        assert_eq!(
            range_plan(&t, &[8.0], 0.5),
            Vec::<usize>::new(),
            "recomputed box prunes the query again"
        );
        assert_eq!(range_plan(&t, &[1.5], 0.5), vec![0], "members still found");
        // The shard lost its last member: the empty box is always pruned.
        t.rebox(0, &cols, |_| false);
        assert!(t.boxes()[0].is_empty() && t.centre(0).is_none());
        assert_eq!(range_plan(&t, &[1.5], 1e9), vec![1]);
        assert_eq!(knn_order(&t, &[1.5])[1], (0, f64::INFINITY));
    }

    fn centre(t: &RoutingTable<Vec<f32>>, s: usize) -> Option<Vec<f64>> {
        t.centre(s).map(|c| c.collect())
    }

    fn shards_of(order: &[(usize, f64)]) -> Vec<usize> {
        order.iter().map(|&(s, _)| s).collect()
    }

    #[test]
    fn bound_ties_go_to_the_nearer_centre_then_the_lower_id() {
        // Three overlapping boxes: [1, 9] centred 5, [4, 8] and [3, 9]
        // both centred 6.
        let t = table(
            &[(1.0, 0), (9.0, 0), (4.0, 1), (8.0, 1), (3.0, 2), (9.0, 2)],
            3,
        );
        assert_eq!(centre(&t, 0), Some(vec![5.0]));
        assert_eq!(centre(&t, 1), Some(vec![6.0]));
        // 7 lies inside all three (bound 0): the two centres at 6 come
        // first, lower id first between them; by id alone it was 0, 1, 2.
        let order = knn_order(&t, &[7.0]);
        assert!(order.iter().all(|&(_, lb)| lb == 0.0));
        assert_eq!(shards_of(&order), vec![1, 2, 0]);
        // 5 sits on shard 0's centre.
        assert_eq!(shards_of(&knn_order(&t, &[5.0])), vec![0, 1, 2]);
        // 3.5 is outside shard 1's box: the bound decides that one, the
        // centres the tie between the other two.
        let order = knn_order(&t, &[3.5]);
        assert_eq!(shards_of(&order), vec![0, 2, 1]);
        assert!(order[1].1 == 0.0 && order[2].1 > 0.0);
    }

    #[test]
    fn distinct_bounds_keep_their_order_whatever_the_centres_say() {
        // Shard 0's box [0, 10] has its centre far left at 2.5; shard 1's
        // box [11, 12] is centred at 11.5. A query at 10.4 is nearer shard
        // 0's *box* and far nearer shard 1's *centre*: the box decides.
        let t = table(
            &[
                (0.0, 0),
                (0.0, 0),
                (0.0, 0),
                (10.0, 0),
                (11.0, 1),
                (12.0, 1),
            ],
            2,
        );
        let q = [10.4];
        assert!(t.centre_distance(1, &q) < t.centre_distance(0, &q));
        let order = knn_order(&t, &q);
        assert_eq!(shards_of(&order), vec![0, 1]);
        assert!(order[0].1 < order[1].1);
    }

    #[test]
    fn an_empty_shard_stays_last_and_has_no_centre() {
        // Shard 0 never receives a point; the query is inside both others.
        let t = table(&[(1.0, 1), (9.0, 1), (2.0, 2), (4.0, 2)], 3);
        assert_eq!(centre(&t, 0), None);
        assert_eq!(t.centre_distance(0, &[3.0]), f64::INFINITY);
        let order = knn_order(&t, &[3.0]);
        assert_eq!(order, vec![(2, 0.0), (1, 0.0), (0, f64::INFINITY)]);
    }

    #[test]
    fn extend_forget_and_rebox_move_the_centre() {
        let mut t = table(&[(1.0, 0), (3.0, 0), (10.0, 1)], 2);
        assert_eq!(centre(&t, 0), Some(vec![2.0]));
        t.extend(0, &stored(&[8.0]));
        assert_eq!(centre(&t, 0), Some(vec![4.0]));
        // A member strictly inside the box leaves: the box stays, the
        // centre follows.
        let boxed = t.boxes()[0].clone();
        t.forget(0, stored(&[3.0]));
        assert_eq!(centre(&t, 0), Some(vec![4.5]));
        assert_eq!(t.boxes()[0], boxed);
        // The centre is over the *stored* values: 0.3 is stored as 0.25.
        t.extend(1, &stored(&[0.3]));
        assert_eq!(centre(&t, 1), Some(vec![(10.0 + 0.25) / 2.0]));
        let cols = PivotColumns::from_codes(1, STEP, [stored(&[0.25]), stored(&[0.5])]);
        t.rebox(1, &cols, |_| true);
        assert_eq!(
            centre(&t, 1),
            Some(vec![(0.25 + 0.5) / 2.0]),
            "a rebox recomputes the centre from the rows it is given"
        );
        // The last member forgotten: no centre, and — code sums are
        // integers — no residue for the next.
        let mut t = table(&[(0.3, 0), (0.7, 1)], 2);
        t.forget(0, stored(&[0.25]));
        assert_eq!(centre(&t, 0), None);
        t.extend(0, &stored(&[0.25]));
        assert_eq!(centre(&t, 0), Some(vec![0.25]));
        // A clone carries the centres it was cloned with.
        let published = t.clone();
        t.extend(0, &stored(&[0.75]));
        assert_eq!(centre(&published, 0), Some(vec![0.25]));
        assert_eq!(centre(&t, 0), Some(vec![0.5]));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random rows — tied ones, values past the top bucket, shards left
        /// empty, steps from a sixty-fourth to 2 — give the table the row
        /// derivation gives, bit for bit.
        #[test]
        fn columns_table_equals_the_row_derivation(
            cells in prop::collection::vec((0u32..10_000, 0usize..6, 0u32..20), 0..80),
            width in 1usize..=4,
            shards in 1usize..=6,
            step_log in -6i32..=1,
        ) {
            let step = 2f64.powi(step_log);
            let rows: Vec<Vec<f64>> = cells
                .iter()
                .map(|&(c, _, far)| {
                    (0..width as u32)
                        .map(|k| {
                            let x = f64::from((c / 10u32.pow(k)) % 10) / 3.0;
                            if far == 0 { x + 70_000.0 * step } else { x }
                        })
                        .collect()
                })
                .collect();
            let assignment: Vec<usize> = cells.iter().map(|&(_, s, _)| s % shards).collect();
            let got = RoutingTable::from_columns(
                Arc::new(|_: &[f32], _: &mut Vec<f64>| {}),
                step,
                &columns(&rows, &assignment, shards, width, step),
            );
            let want = from_rows_reference(&rows, &assignment, shards, width, step);
            prop_assert_eq!(table_bits(&got), want);
        }

        /// Random rows on a coarse grid (boxes overlap and bounds tie at 0
        /// and elsewhere; some shards stay empty), a few inserts on top:
        /// the order is the sort of `(bound, centre distance, id)` with
        /// the bound `mbb_lower_bound` over the union of the members' f64
        /// buckets and the centre worked out here from the rows, and its
        /// bound column is the `(bound, id)` order's.
        #[test]
        fn knn_order_is_the_sort_of_bound_centre_distance_id(
            cells in prop::collection::vec((0u32..10_000, 0usize..6), 1..60),
            inserts in prop::collection::vec((0u32..10_000, 0usize..6), 0..8),
            width in 1usize..=4,
            shards in 1usize..=6,
            q_cell in 0u32..10_000,
        ) {
            let point = |cell: u32| -> Vec<f64> {
                (0..width as u32).map(|k| f64::from((cell / 10u32.pow(k)) % 10) / 3.0).collect()
            };
            let rows: Vec<Vec<f64>> = cells.iter().map(|&(c, _)| point(c)).collect();
            let assignment: Vec<usize> = cells.iter().map(|&(_, s)| s % shards).collect();
            let mut t = RoutingTable::from_columns(
                Arc::new(|_: &[f32], _: &mut Vec<f64>| {}),
                STEP,
                &columns(&rows, &assignment, shards, width, STEP),
            );
            let mut members: Vec<Vec<Vec<f64>>> = vec![Vec::new(); shards];
            for (row, &s) in rows.iter().zip(&assignment) {
                members[s].push(row.clone());
            }
            for &(c, s) in &inserts {
                t.extend(s % shards, &stored(&point(c)));
                members[s % shards].push(point(c));
            }
            let q = point(q_cell);
            let bound = |s: usize| -> f64 {
                if members[s].is_empty() {
                    return f64::INFINITY;
                }
                let lo: Vec<f64> = (0..width)
                    .map(|j| members[s].iter().map(|r| snap(r[j], STEP)).fold(f64::INFINITY, f64::min))
                    .collect();
                let hi: Vec<f64> = (0..width)
                    .map(|j| members[s].iter().map(|r| snap(r[j], STEP) + STEP).fold(0.0, f64::max))
                    .collect();
                mbb_lower_bound(&q, &lo, &hi)
            };
            let centre_distance = |s: usize| -> f64 {
                if members[s].is_empty() {
                    return f64::INFINITY;
                }
                (0..width)
                    .map(|j| {
                        let sum: f64 = members[s].iter().map(|r| snap(r[j], STEP)).sum();
                        let c = sum / members[s].len() as f64;
                        (c - q[j]) * (c - q[j])
                    })
                    .sum()
            };
            let mut want: Vec<(usize, f64, f64)> = (0..shards)
                .map(|s| (s, bound(s), centre_distance(s)))
                .collect();
            let mut by_id = want.clone();
            want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.2.total_cmp(&b.2)).then(a.0.cmp(&b.0)));
            by_id.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let got = knn_order(&t, &q);
            prop_assert_eq!(&got, &want.iter().map(|&(s, lb, _)| (s, lb)).collect::<Vec<_>>());
            prop_assert_eq!(
                got.iter().map(|&(_, lb)| lb.to_bits()).collect::<Vec<_>>(),
                by_id.iter().map(|&(_, lb, _)| lb.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
