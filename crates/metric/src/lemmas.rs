//! The four pivot filtering / validation lemmas of the paper (§2.3).
//!
//! Every index implements its pruning in terms of these functions, which are
//! unit- and property-tested for soundness: a lemma may only discard objects
//! that cannot be answers (Lemmas 1–3) and may only validate objects that
//! must be answers (Lemma 4).

use crate::matrix::stored_interval;

/// Lower bound on `d(q, o)` from pre-computed pivot distances:
/// `max_i |d(q, p_i) - d(o, p_i)|` (triangle inequality). With no pivots the
/// bound is trivially 0.
#[inline]
pub fn pivot_lower_bound(q_dists: &[f64], o_dists: &[f64]) -> f64 {
    debug_assert_eq!(q_dists.len(), o_dists.len());
    let mut lb = 0.0f64;
    for (qd, od) in q_dists.iter().zip(o_dists) {
        let d = (qd - od).abs();
        if d > lb {
            lb = d;
        }
    }
    lb
}

/// Upper bound on `d(q, o)`: `min_i (d(q, p_i) + d(o, p_i))`.
#[inline]
pub fn pivot_upper_bound(q_dists: &[f64], o_dists: &[f64]) -> f64 {
    debug_assert_eq!(q_dists.len(), o_dists.len());
    let mut ub = f64::INFINITY;
    for (qd, od) in q_dists.iter().zip(o_dists) {
        let d = qd + od;
        if d < ub {
            ub = d;
        }
    }
    ub
}

/// Lemma 1 (pivot filtering): `o` can be pruned for `MRQ(q, r)` when its
/// mapped point lies outside the search box `[d(q,p_i)-r, d(q,p_i)+r]^l`.
///
/// ```
/// use pmi_metric::lemmas::lemma1_prunable;
/// // d(q,p) = 10, d(o,p) = 2 -> d(q,o) >= 8 > r = 5: prune.
/// assert!(lemma1_prunable(&[10.0], &[2.0], 5.0));
/// assert!(!lemma1_prunable(&[10.0], &[6.0], 5.0));
/// ```
#[inline]
pub fn lemma1_prunable(q_dists: &[f64], o_dists: &[f64], r: f64) -> bool {
    pivot_lower_bound(q_dists, o_dists) > r
}

/// Lemma 1 applied to a minimum bounding box over mapped points: the whole
/// region can be pruned when the box does not intersect the search box.
/// `lo[i]..=hi[i]` bounds `d(o, p_i)` for all objects in the region.
#[inline]
pub fn lemma1_box_prunable(q_dists: &[f64], lo: &[f64], hi: &[f64], r: f64) -> bool {
    mbb_lower_bound(q_dists, lo, hi) > r
}

/// Lower bound on `d(q, o)` for any `o` whose mapped point lies in the box
/// `[lo, hi]` — the Chebyshev distance from the mapped query point to the
/// box. This is the `MINDIST` used for best-first traversal of R-tree /
/// M-index* / SPB-tree structures.
#[inline]
pub fn mbb_lower_bound(q_dists: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    debug_assert_eq!(q_dists.len(), lo.len());
    debug_assert_eq!(q_dists.len(), hi.len());
    let mut m = 0.0f64;
    for i in 0..q_dists.len() {
        let qd = q_dists[i];
        let gap = if qd < lo[i] {
            lo[i] - qd
        } else if qd > hi[i] {
            qd - hi[i]
        } else {
            0.0
        };
        if gap > m {
            m = gap;
        }
    }
    m
}

/// Upper bound counterpart of [`mbb_lower_bound`]: no point in the box maps
/// further than this from the query in the pivot (L∞) space. Combined with
/// Lemma 4 this can validate whole regions.
#[inline]
pub fn mbb_validation_bound(q_dists: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    let mut worst = f64::INFINITY;
    for i in 0..q_dists.len() {
        // For pivot i, every object o in the box has d(o,p_i) <= hi[i], so
        // d(q,o) <= d(q,p_i) + hi[i].
        let ub = q_dists[i] + hi[i];
        if ub < worst {
            worst = ub;
        }
    }
    let _ = lo;
    worst
}

/// A minimum bounding box over mapped points (pivot-distance vectors), the
/// region summary behind [`lemma1_box_prunable`]: `lo[i]..=hi[i]` bounds
/// `d(o, p_i)` for every object `o` the box covers.
///
/// Used wherever a set of objects is summarized for region-level pruning —
/// R-tree nodes conceptually, and the serving engine's per-shard routing
/// summaries concretely. An empty box (no points extended yet) reports an
/// infinite lower bound, so it is always prunable; a zero-dimensional box
/// (no pivots) reports a zero lower bound, so it never prunes.
#[derive(Clone, Debug, PartialEq)]
pub struct Mbb {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Mbb {
    /// An empty box over `dim` pivot dimensions (`lo = +∞`, `hi = -∞`).
    pub fn empty(dim: usize) -> Self {
        Mbb {
            lo: vec![f64::INFINITY; dim],
            hi: vec![f64::NEG_INFINITY; dim],
        }
    }

    /// The tight box over an iterator of mapped points.
    pub fn from_points<'a>(dim: usize, points: impl IntoIterator<Item = &'a [f64]>) -> Self {
        let mut b = Mbb::empty(dim);
        for p in points {
            b.extend(p);
        }
        b
    }

    /// Number of pivot dimensions.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Whether the box covers no points yet (any inverted interval).
    pub fn is_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(l, h)| l > h)
    }

    /// Per-dimension lower edges.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Per-dimension upper edges.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Grows the box to cover one mapped point.
    pub fn extend(&mut self, p: &[f64]) {
        debug_assert_eq!(p.len(), self.lo.len());
        for ((x, lo), hi) in p.iter().zip(&mut self.lo).zip(&mut self.hi) {
            if *x < *lo {
                *lo = *x;
            }
            if *x > *hi {
                *hi = *x;
            }
        }
    }

    /// Grows the box to cover every true distance a *stored* row can stand
    /// for: per dimension the [`stored_interval`] of the stored value under
    /// the columns' `step` — its bucket, open above for the top one. A box
    /// extended only this way is the union of its members' buckets per
    /// dimension — a pure function of the stored values, whatever the
    /// order — and contains the exact f64 map of every member.
    pub fn extend_stored(&mut self, row: impl IntoIterator<Item = f64>, step: f64) {
        for ((y, lo), hi) in row.into_iter().zip(&mut self.lo).zip(&mut self.hi) {
            let (below, above) = stored_interval(y, step);
            if below < *lo {
                *lo = below;
            }
            if above > *hi {
                *hi = above;
            }
        }
    }

    /// [`mbb_lower_bound`] against this box; `+∞` when the box is empty
    /// (nothing inside, so everything is prunable).
    pub fn lower_bound(&self, q_dists: &[f64]) -> f64 {
        if self.is_empty() {
            return f64::INFINITY;
        }
        mbb_lower_bound(q_dists, &self.lo, &self.hi)
    }

    /// [`lemma1_box_prunable`] against this box.
    pub fn prunable(&self, q_dists: &[f64], r: f64) -> bool {
        self.lower_bound(q_dists) > r
    }
}

/// Lemma 2 (range-pivot filtering): a ball region with pivot distance
/// `d(q, R.p) = d_qp` and covering radius `R.r = radius` can be pruned when
/// `d_qp > radius + r`.
#[inline]
pub fn lemma2_prunable(d_qp: f64, radius: f64, r: f64) -> bool {
    d_qp > radius + r
}

/// Lower bound on `d(q, o)` for `o` inside a ball region (used for
/// best-first ordering): `max(0, d(q, R.p) - R.r)`.
#[inline]
pub fn ball_lower_bound(d_qp: f64, radius: f64) -> f64 {
    (d_qp - radius).max(0.0)
}

/// Lemma 3 (double-pivot filtering): the hyperplane partition of pivot `p_i`
/// can be pruned when `d(q, p_i) - d(q, p_j) > 2r` for some other pivot
/// `p_j`.
#[inline]
pub fn lemma3_prunable(d_q_pi: f64, d_q_pj: f64, r: f64) -> bool {
    d_q_pi - d_q_pj > 2.0 * r
}

/// Hyperplane lower bound used for best-first ordering of M-index clusters:
/// for `o` in the partition of `p_i`, `d(q,o) >= (d(q,p_i) - min_j d(q,p_j)) / 2`.
#[inline]
pub fn hyperplane_lower_bound(d_q_pi: f64, min_d_q_pj: f64) -> f64 {
    ((d_q_pi - min_d_q_pj) / 2.0).max(0.0)
}

/// Lemma 4 (pivot validation): `o` is guaranteed to be an answer of
/// `MRQ(q, r)` when some pivot satisfies `d(o, p_i) <= r - d(q, p_i)`.
#[inline]
pub fn lemma4_validated(q_dists: &[f64], o_dists: &[f64], r: f64) -> bool {
    debug_assert_eq!(q_dists.len(), o_dists.len());
    q_dists.iter().zip(o_dists).any(|(qd, od)| *od <= r - *qd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{Metric, L2};

    fn dists(points: &[[f32; 2]], pivots: &[[f32; 2]], x: &[f32; 2]) -> Vec<f64> {
        let _ = points;
        pivots.iter().map(|p| L2.dist(&p[..], &x[..])).collect()
    }

    #[test]
    fn lemma1_soundness_exhaustive() {
        // A small grid; check Lemma 1 never prunes a true answer.
        let pts: Vec<[f32; 2]> = (0..6)
            .flat_map(|x| (0..6).map(move |y| [x as f32, y as f32]))
            .collect();
        let pivots = [[0.0f32, 0.0], [5.0, 5.0]];
        let q = [2.0f32, 3.0];
        let qd = dists(&pts, &pivots, &q);
        for r in [0.5f64, 1.0, 2.0, 3.5] {
            for o in &pts {
                let od = dists(&pts, &pivots, o);
                let actual = L2.dist(&q[..], &o[..]);
                if lemma1_prunable(&qd, &od, r) {
                    assert!(actual > r, "false prune at r={r} for {o:?}");
                }
                if lemma4_validated(&qd, &od, r) {
                    assert!(actual <= r, "false validation at r={r} for {o:?}");
                }
                assert!(pivot_lower_bound(&qd, &od) <= actual + 1e-9);
                assert!(pivot_upper_bound(&qd, &od) >= actual - 1e-9);
            }
        }
    }

    #[test]
    fn lemma2_soundness() {
        // Ball around p with radius 2; q at distance 5 from p; r = 2.
        assert!(lemma2_prunable(5.0, 2.0, 2.0));
        assert!(!lemma2_prunable(4.0, 2.0, 2.0));
        assert_eq!(ball_lower_bound(5.0, 2.0), 3.0);
        assert_eq!(ball_lower_bound(1.0, 2.0), 0.0);
    }

    #[test]
    fn lemma3_soundness() {
        assert!(lemma3_prunable(10.0, 2.0, 3.0));
        assert!(!lemma3_prunable(8.0, 2.0, 3.0));
        assert_eq!(hyperplane_lower_bound(10.0, 2.0), 4.0);
        assert_eq!(hyperplane_lower_bound(1.0, 2.0), 0.0);
    }

    #[test]
    fn box_bounds() {
        let qd = [5.0, 1.0];
        let lo = [0.0, 2.0];
        let hi = [2.0, 4.0];
        // Pivot 0: gap 3; pivot 1: gap 1 -> lower bound 3.
        assert_eq!(mbb_lower_bound(&qd, &lo, &hi), 3.0);
        assert!(lemma1_box_prunable(&qd, &lo, &hi, 2.9));
        assert!(!lemma1_box_prunable(&qd, &lo, &hi, 3.0));
        // Validation bound: min(5+2, 1+4) = 5.
        assert_eq!(mbb_validation_bound(&qd, &lo, &hi), 5.0);
    }

    #[test]
    fn mbb_covers_and_bounds() {
        let mut b = Mbb::empty(2);
        assert!(b.is_empty());
        assert_eq!(b.lower_bound(&[1.0, 1.0]), f64::INFINITY);
        assert!(b.prunable(&[1.0, 1.0], 1e18), "empty box always prunes");
        b.extend(&[1.0, 3.0]);
        b.extend(&[2.0, 2.0]);
        assert!(!b.is_empty());
        assert_eq!(b.lo(), &[1.0, 2.0]);
        assert_eq!(b.hi(), &[2.0, 3.0]);
        // Same semantics as the free functions.
        assert_eq!(b.lower_bound(&[5.0, 1.0]), 3.0);
        assert!(b.prunable(&[5.0, 1.0], 2.9));
        assert!(!b.prunable(&[5.0, 1.0], 3.0));
        // Inside the box: bound 0.
        assert_eq!(b.lower_bound(&[1.5, 2.5]), 0.0);
        let c = Mbb::from_points(2, [[1.0, 3.0].as_slice(), [2.0, 2.0].as_slice()]);
        assert_eq!(b, c);
    }

    #[test]
    fn stored_rows_widen_the_box_to_their_buckets() {
        use crate::matrix::snap;
        // Step 0.5: 7.3 is stored as 7.0 and stands for [7, 7.5]; 40 000
        // is beyond the top bucket, stored saturated and open above.
        let step = 0.5;
        let exact = [[7.3, 0.1], [3.0, 40_000.0]];
        let mut b = Mbb::empty(2);
        for row in &exact {
            b.extend_stored(row.iter().map(|&x| snap(x, step)), step);
        }
        for row in &exact {
            assert_eq!(b.lower_bound(row), 0.0, "{row:?} outside {b:?}");
        }
        assert_eq!((b.lo()[0], b.hi()[0]), (3.0, 7.5));
        assert_eq!((b.lo()[1], b.hi()[1]), (0.0, f64::INFINITY));
        // Order-blind.
        let mut rev = Mbb::empty(2);
        for row in exact.iter().rev() {
            rev.extend_stored(row.iter().map(|&x| snap(x, step)), step);
        }
        assert_eq!(b, rev);
    }

    #[test]
    fn zero_dim_mbb_never_prunes() {
        let b = Mbb::empty(0);
        assert!(!b.is_empty(), "a 0-d box covers the whole (empty) space");
        assert_eq!(b.lower_bound(&[]), 0.0);
        assert!(!b.prunable(&[], 0.0));
    }

    #[test]
    fn empty_pivots_are_neutral() {
        assert_eq!(pivot_lower_bound(&[], &[]), 0.0);
        assert!(!lemma1_prunable(&[], &[], 1.0));
        assert!(!lemma4_validated(&[], &[], 1.0));
    }
}
