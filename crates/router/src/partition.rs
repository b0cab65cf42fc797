//! Balanced pivot-space partitioning by median cuts (a k-d split).
//!
//! Objects are assigned to shards by cutting their pivot-distance vectors —
//! as the u16 bucket codes the shards store them in — recursively in two. A
//! node holding shards `first .. first + parts` cuts on the column whose
//! codes span the widest range (ties to the lower column): ordered by the
//! key `(code, id)`, the node's first `parts / 2` shards take the smallest
//! keys, exactly as many as those shards hold in balanced contiguous runs
//! (shard `s` of `P` holds `⌊n/P⌋ + [s < n mod P]` rows). So every shard has
//! its balanced size, and the two sides of a cut share at most one bucket
//! of the cut column — the one the cut falls in — which makes the shards'
//! routing boxes disjoint but for a face.
//!
//! The keys are unique, so the partition is a pure function of the codes:
//! the same for every thread count by construction, and no SIMD kernel is
//! involved. A zero-width pivot space (an engine's `Layout::plain()`) is
//! one constant column, and constant rows tie on every code: both order by
//! id alone and come out as the balanced contiguous runs.
//!
//! A node visits its rows in ascending id order three times — the column
//! ranges, a histogram of the cut column, a stable split — so a cut is
//! `O(rows · width)` with no sort, and a partition `O(n · width · log P)`.
//! The two halves of a node are independent and run on up to `threads`
//! workers ([`claim_each`]).

use pmi_metric::parallel::claim_each;
use pmi_metric::PivotMatrix;

/// Rows below which a node's two halves are not worth a thread of their
/// own: a spawn costs tens of microseconds, a row here a few nanoseconds.
const MIN_ROWS_PER_TASK: usize = 8192;

/// [`partition_pivot_space`] on the calling thread of the matrix's codes
/// under its own [`step`](PivotMatrix::step), as a build cuts them. The
/// seed is unused; it stays only for the benchmark, which calls this, and
/// goes with ROADMAP item 3 (k).
pub fn assign_pivot_space(mapped: &PivotMatrix, shards: usize, _seed: u64) -> Vec<usize> {
    partition_pivot_space(&mapped.codes(mapped.step()), mapped.rows(), shards, 1)
}

/// Cuts `rows` stored rows (`codes`, row-major; zero-width rows have none)
/// into `shards` balanced cells by recursive median cuts (see module docs)
/// and returns the shard of each row: shard `s` gets exactly
/// `⌊n/P⌋ + [s < n mod P]`. Runs on up to `threads` workers, the caller one
/// of them; the result does not depend on `threads`.
///
/// # Panics
///
/// If there are more than `u32::MAX` rows (object ids are `u32`), or the
/// codes are not a whole number of rows.
pub fn partition_pivot_space(
    codes: &[u16],
    rows: usize,
    shards: usize,
    threads: usize,
) -> Vec<usize> {
    cut_pivot_space(codes, rows, shards, threads, MIN_ROWS_PER_TASK)
}

/// [`partition_pivot_space`] with the node size below which its halves stay
/// on one thread, which the tests lower to reach the threaded path.
fn cut_pivot_space(
    codes: &[u16],
    n: usize,
    shards: usize,
    threads: usize,
    min_rows: usize,
) -> Vec<usize> {
    assert!(
        u32::try_from(n).is_ok(),
        "{n} rows: object ids must fit in u32"
    );
    let width = codes.len().checked_div(n).unwrap_or(0);
    assert_eq!(codes.len(), width * n, "{} codes in {n} rows", codes.len());
    let cells = Cells {
        codes,
        width,
        n,
        p: shards.max(1),
        min_rows,
    };
    let mut ids: Vec<u32> = (0..n as u32).collect();
    let mut spare = vec![0; n];
    cells.cut(&mut ids, &mut spare, 0, cells.p, threads);
    let mut out = vec![0; n];
    for s in 0..cells.p {
        for &i in &ids[cells.start(s)..cells.start(s + 1)] {
            out[i as usize] = s;
        }
    }
    out
}

/// The codes being cut and the shape of the result.
struct Cells<'a> {
    /// Row-major: row `i`'s code in column `j` at `codes[i · width + j]`.
    codes: &'a [u16],
    width: usize,
    /// Rows and shards.
    n: usize,
    p: usize,
    min_rows: usize,
}

impl Cells<'_> {
    /// Where shard `s` starts in balanced contiguous runs of the rows.
    fn start(&self, s: usize) -> usize {
        s * (self.n / self.p) + s.min(self.n % self.p)
    }

    /// Splits `ids` — ascending, the rows of shards `first .. first + parts`
    /// — into one ascending run per shard, in shard order; `spare` is as
    /// long, scratch.
    fn cut(&self, ids: &mut [u32], spare: &mut [u32], first: usize, parts: usize, threads: usize) {
        if parts < 2 || ids.is_empty() {
            return;
        }
        let left = parts / 2;
        let k = self.start(first + left) - self.start(first);
        // Zero width is one constant column: every key ties on its code,
        // so the left shards take the lowest ids, where they already are.
        if self.width > 0 {
            self.split(ids, spare, k);
        }
        let workers = if ids.len() >= self.min_rows {
            threads
        } else {
            1
        };
        let (ids_l, ids_r) = ids.split_at_mut(k);
        let (spare_l, spare_r) = spare.split_at_mut(k);
        let halves = vec![
            (ids_l, spare_l, first, left),
            (ids_r, spare_r, first + left, parts - left),
        ];
        // Each half on half the workers.
        let threads = (threads / 2).max(1);
        claim_each(halves, workers, |(ids, spare, first, parts)| {
            self.cut(ids, spare, first, parts, threads)
        });
    }

    /// Moves the `k` smallest keys `(code, id)` of the widest column to the
    /// front of `ids`, both sides still ascending.
    fn split(&self, ids: &mut [u32], spare: &mut [u32], k: usize) {
        let w = self.width;
        let code = |i: u32, j: usize| self.codes[i as usize * w + j];

        // The widest column, ties to the lower one.
        let (mut lo, mut hi) = (vec![u16::MAX; w], vec![0; w]);
        for &i in &*ids {
            for (j, (lo, hi)) in lo.iter_mut().zip(&mut hi).enumerate() {
                let c = code(i, j);
                *lo = (*lo).min(c);
                *hi = (*hi).max(c);
            }
        }
        let mut col = 0;
        for j in 1..w {
            if hi[j] - lo[j] > hi[col] - lo[col] {
                col = j;
            }
        }
        let (lo, hi) = (lo[col], hi[col]);

        // The bucket holding the `k`-th key, and how many of its rows (the
        // lowest ids: `ids` ascends) go left.
        let mut counts = vec![0usize; usize::from(hi - lo) + 1];
        for &i in &*ids {
            counts[usize::from(code(i, col) - lo)] += 1;
        }
        let (mut cut, mut below) = (lo, 0);
        for (c, &count) in (lo..=hi).zip(&counts) {
            cut = c;
            if below + count >= k {
                break;
            }
            below += count;
        }
        let mut take = k - below;

        // A stable split into `spare`, copied back: both sides ascend.
        let (mut l, mut r) = (0, k);
        for &i in &*ids {
            let c = code(i, col);
            if c < cut || (c == cut && take > 0) {
                take -= usize::from(c == cut);
                spare[l] = i;
                l += 1;
            } else {
                spare[r] = i;
                r += 1;
            }
        }
        debug_assert_eq!((l, r), (k, ids.len()));
        ids.copy_from_slice(spare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::matrix::quantise;
    use proptest::prelude::*;

    /// Balanced contiguous runs: shard `s` takes the next `⌊n/P⌋ + [s < n
    /// mod P]` objects in order — what a zero-width or constant pivot space
    /// is cut into, and the sizes every partition has.
    fn balanced_runs(n: usize, shards: usize) -> Vec<usize> {
        let shards = shards.max(1);
        (0..shards)
            .flat_map(|s| std::iter::repeat_n(s, n / shards + usize::from(s < n % shards)))
            .collect()
    }

    fn blobs(per: usize, centers: &[(f64, f64)]) -> PivotMatrix {
        // Tiny deterministic jitter, no RNG needed.
        let jitter = |i: usize| ((i % 5) as f64 * 0.01, (i % 7) as f64 * 0.01);
        let rows = centers
            .iter()
            .flat_map(|&(cx, cy)| (0..per).map(move |i| [cx + jitter(i).0, cy + jitter(i).1]));
        PivotMatrix::from_rows(2, rows)
    }

    #[test]
    fn degenerate_inputs_fall_back_to_balanced_runs() {
        assert_eq!(balanced_runs(10, 3), [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        assert_eq!(balanced_runs(5, 2), [0, 0, 0, 1, 1]);
        assert_eq!(balanced_runs(2, 2), [0, 1]);
        assert!(balanced_runs(0, 1).is_empty());
        // One shard.
        assert_eq!(
            assign_pivot_space(&blobs(4, &[(0.0, 0.0)]), 1, 7),
            vec![0; 4]
        );
        // Zero-dimensional mapped points (no pivots): a plain engine's cut.
        let flat = PivotMatrix::from_rows(0, [[0.0; 0]; 3]);
        assert_eq!(assign_pivot_space(&flat, 2, 7), vec![0, 0, 1]);
        // All mapped points identical.
        let same = PivotMatrix::from_rows(2, vec![[3.0, 3.0]; 6]);
        assert_eq!(assign_pivot_space(&same, 3, 7), vec![0, 0, 1, 1, 2, 2]);
        // Fewer objects than shards.
        assert_eq!(
            assign_pivot_space(&blobs(2, &[(0.0, 0.0)]), 5, 7),
            vec![0, 1]
        );
        // No objects.
        let none = PivotMatrix::from_rows(2, [[0.0; 2]; 0]);
        assert!(assign_pivot_space(&none, 3, 7).is_empty());
    }

    #[test]
    fn balanced_and_total() {
        let pts = blobs(10, &[(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)]);
        let a = assign_pivot_space(&pts, 3, 42);
        assert_eq!(a.len(), 30);
        let mut counts = [0usize; 3];
        for &s in &a {
            counts[s] += 1;
        }
        assert_eq!(counts, [10; 3]);
    }

    #[test]
    fn separated_blobs_land_in_distinct_shards() {
        let pts = blobs(
            8,
            &[(0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0), (1000.0, 1000.0)],
        );
        let a = assign_pivot_space(&pts, 4, 1);
        // Each blob of 8 points must map to a single shard (a shard holds
        // exactly 8, and the blobs are far apart).
        for blob in 0..4 {
            let first = a[blob * 8];
            for j in 0..8 {
                assert_eq!(a[blob * 8 + j], first, "blob {blob} split");
            }
        }
        // And the four blobs use four distinct shards.
        let mut used: Vec<usize> = (0..4).map(|b| a[b * 8]).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 4);
    }

    #[test]
    fn deterministic_per_seed() {
        let pts = blobs(6, &[(0.0, 0.0), (50.0, 50.0)]);
        assert_eq!(
            assign_pivot_space(&pts, 2, 9),
            assign_pivot_space(&pts, 2, 9)
        );
    }

    /// Checks the cut of the node holding shards `first .. first + parts`
    /// against its definition, then its two halves: on the column with the
    /// widest code range (ties to the lower), every key `(code, id)` of the
    /// left shards is below every key of the right ones — so the two sides
    /// share at most the one bucket the cut falls in.
    fn check_cuts(codes: &[Vec<u16>], assignment: &[usize], first: usize, parts: usize) {
        if parts < 2 {
            return;
        }
        let left = parts / 2;
        let rows: Vec<usize> = (0..codes.len())
            .filter(|&i| (first..first + parts).contains(&assignment[i]))
            .collect();
        if let Some(width) = rows.first().map(|&i| codes[i].len()) {
            let range = |j: usize| {
                let cs = rows.iter().map(|&i| codes[i][j]);
                cs.clone().max().unwrap() - cs.min().unwrap()
            };
            let mut col = 0;
            for j in 1..width {
                if range(j) > range(col) {
                    col = j;
                }
            }
            let keys = |left_side: bool| {
                rows.iter()
                    .filter(move |&&i| (assignment[i] < first + left) == left_side)
                    .map(move |&i| (codes[i].get(col).copied().unwrap_or(0), i))
            };
            if let (Some(l), Some(r)) = (keys(true).max(), keys(false).min()) {
                assert!(
                    l < r,
                    "shards {first}..{}: left key {l:?} ≥ right key {r:?} on column {col}",
                    first + parts
                );
            }
        }
        check_cuts(codes, assignment, first, left);
        check_cuts(codes, assignment, first + left, parts - left);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random coarse grids (few distinct codes: ties and duplicate rows
        /// are the common case), of width 0 to 5, some with every row
        /// constant and some with `+∞` entries (the top code). For every
        /// input and `P ∈ {2, 3, 8, 9}`: the shard sizes are the balanced
        /// runs' exactly, width 0 and constant rows give the runs
        /// themselves, every cut is a cut of the keys on the widest column,
        /// and threads 1, 2 and 3 — every node split over the workers —
        /// give the same assignment.
        #[test]
        fn kd_cuts_are_balanced_disjoint_and_thread_free(
            cells in prop::collection::vec((0u32..1_000_000, 0u32..8), 0..300),
            width in 0usize..=5,
            grid in 1u32..12,
            scale in 0u32..3,
            constant in 0u32..4,
        ) {
            let scale = [1.0, 0.37, 1e5][scale as usize];
            let rows: Vec<Vec<f64>> = cells
                .iter()
                .map(|&(cell, flags)| {
                    let cell = if constant == 0 { 0 } else { cell };
                    (0..width as u32)
                        .map(|k| {
                            if flags & (1 << k) != 0 && flags >= 5 && constant != 0 {
                                f64::INFINITY
                            } else {
                                ((cell / grid.pow(k)) % grid) as f64 * scale
                            }
                        })
                        .collect()
                })
                .collect();
            let mapped = PivotMatrix::from_rows(width, &rows);
            let n = mapped.rows();
            let step = mapped.step();
            let codes: Vec<Vec<u16>> =
                rows.iter().map(|r| r.iter().map(|&x| quantise(x, step)).collect()).collect();
            let row_major = codes.concat();
            let flat = width == 0 || codes.windows(2).all(|w| w[0] == w[1]);
            for p in [2, 3, 8, 9] {
                let one = cut_pivot_space(&row_major, n, p, 1, 1);
                let runs = balanced_runs(n, p);
                let mut sizes = vec![0usize; p];
                for &s in &one {
                    sizes[s] += 1;
                }
                let mut want = vec![0usize; p];
                for &s in &runs {
                    want[s] += 1;
                }
                prop_assert_eq!(&sizes, &want, "n={} P={}", n, p);
                if flat {
                    prop_assert_eq!(&one, &runs, "n={} P={} width={}", n, p, width);
                }
                check_cuts(&codes, &one, 0, p);
                prop_assert_eq!(&assign_pivot_space(&mapped, p, 0), &one);
                for threads in [2, 3] {
                    prop_assert_eq!(
                        &cut_pivot_space(&row_major, n, p, threads, 1),
                        &one,
                        "n={} P={} threads={}", n, p, threads
                    );
                }
            }
        }

        /// The cut of codes is the cut the f64 paths made. A re-cut's codes
        /// (0 and the top code among them) against their decoded rows
        /// `c · step`, which a re-cut once handed `assign_pivot_space` —
        /// whose own step, sized from the decoded maximum, is `step / 2^k`;
        /// and an exact f64 matrix with `+∞` entries and values far beyond
        /// the top bucket of the finer steps, coded once under its step as a
        /// build codes it and cut on one, two and three threads, against
        /// `assign_pivot_space` over the f64 rows.
        #[test]
        fn a_cut_of_codes_equals_the_cut_of_their_f64_rows(
            cells in prop::collection::vec(
                prop_oneof![2 => 0u16..=3, 4 => 0u16..=u16::MAX, 1 => 65_532u16..=u16::MAX],
                0..240,
            ),
            width in 0usize..=4,
            step_exp in -6i32..=4,
            far in prop::collection::vec(0u8..6, 60),
        ) {
            let rows = cells.len().checked_div(width).unwrap_or(cells.len() / 3);
            let codes = &cells[..rows * width];
            let step = 2f64.powi(step_exp);
            let row = |i: usize| &codes[i * width..][..width];
            let decoded = PivotMatrix::from_rows(
                width,
                (0..rows).map(row).map(|r| {
                    r.iter().map(|&c| f64::from(c) * step).collect::<Vec<f64>>()
                }),
            );
            let exact = PivotMatrix::from_rows(
                width,
                (0..rows).map(row).zip(far.iter().cycle()).map(|(r, &f)| {
                    r.iter()
                        .map(|&c| match f {
                            0 => f64::INFINITY,
                            1 => f64::from(c) * 1e9,
                            _ => f64::from(c) / 3.0,
                        })
                        .collect::<Vec<f64>>()
                }),
            );
            let exact_step = exact.step();
            let coded: Vec<u16> = exact.as_slice().iter().map(|&x| quantise(x, exact_step)).collect();
            for p in [2, 3, 8] {
                prop_assert_eq!(
                    &cut_pivot_space(codes, rows, p, 1, 1),
                    &assign_pivot_space(&decoded, p, 0),
                    "decoded: rows={} P={}", rows, p
                );
                let want = assign_pivot_space(&exact, p, 0);
                for threads in [1, 2, 3] {
                    prop_assert_eq!(
                        &cut_pivot_space(&coded, rows, p, threads, 1),
                        &want,
                        "exact: rows={} P={} threads={}", rows, p, threads
                    );
                }
            }
        }
    }
}
