//! The four pivot filtering / validation lemmas of the paper (§2.3).
//!
//! Every index implements its pruning in terms of these functions, which are
//! unit- and property-tested for soundness: a lemma may only discard objects
//! that cannot be answers (Lemmas 1–3) and may only validate objects that
//! must be answers (Lemma 4).

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
    }

    #[test]
    fn empty_pivots_are_neutral() {
        assert_eq!(pivot_lower_bound(&[], &[]), 0.0);
        assert!(!lemma1_prunable(&[], &[], 1.0));
        assert!(!lemma4_validated(&[], &[], 1.0));
    }
}
