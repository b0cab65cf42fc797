//! Balanced pivot-space partitioning.
//!
//! Objects are assigned to shards by clustering their pivot-distance
//! vectors — the rows of the shared [`PivotMatrix`] — with a k-means-style
//! loop in pivot space whose assignment step is *balanced* (no shard exceeds
//! `ceil(n / P)` objects and none is left empty), so routing quality never
//! comes at the price of a hot shard. Degenerate inputs — one shard, no
//! pivots, fewer objects than shards, or a dataset whose mapped points are
//! all identical — fall back to the stride ([`assign_round_robin`]), which
//! is always valid.
//!
//! Every step is a linear pass over the matrix rows plus work proportional
//! to the proposals a full shard turns away; the per-object passes run over
//! row ranges on the caller's threads and merge exactly, so the assignment
//! does not depend on the thread count (see `docs/performance.md`, "Build
//! and partition cost").

use pmi_metric::parallel::map_row_chunks;
use pmi_metric::PivotMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BinaryHeap;

/// Assignment iterations; balanced k-means converges fast and the result
/// only steers routing quality, never correctness.
const MAX_ITERS: usize = 8;

/// Rows below which a chunk of a per-object pass is not worth a thread of
/// its own: a spawn costs tens of microseconds, a row here a few
/// nanoseconds.
const MIN_ROWS_PER_CHUNK: usize = 8192;

/// The stride: object `i` to shard `i % shards`. Always valid and within
/// one object of balanced, so it is [`partition_pivot_space`]'s fallback
/// for inputs clustering cannot help — not what the engine builds under
/// `PartitionPolicy::RoundRobin`, which is balanced contiguous runs.
pub fn assign_round_robin(n: usize, shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    (0..n).map(|i| i % shards).collect()
}

#[inline]
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// A partitioning and the exact work it took, for build-cost accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// The shard of each object.
    pub assignment: Vec<usize>,
    /// Balanced-assignment iterations run (0 on a stride fallback).
    pub iters: u64,
    /// Proposals a full shard turned away, over all iterations: every one
    /// made its point recompute its next-nearest centroid.
    pub rejected: u64,
}

/// [`partition_pivot_space`] on the calling thread, keeping only the
/// assignment.
pub fn assign_pivot_space(mapped: &PivotMatrix, shards: usize, seed: u64) -> Vec<usize> {
    partition_pivot_space(mapped, shards, seed, 1).assignment
}

/// Clusters the rows of `mapped` (one pivot-distance vector per object)
/// into `shards` balanced groups and returns the shard of each object.
///
/// Centroids are seeded farthest-first (deterministic per `seed`), then a
/// few rounds of: balanced nearest-centroid assignment, centroid
/// recomputation. The assignment step guarantees every shard gets at least
/// one object and at most `ceil(n / shards)`, so shards stay within one
/// object of perfectly balanced. Falls back to the stride when clustering
/// cannot help (see module docs).
///
/// Runs in `O(iters · n · shards)` distance computations plus
/// `O(shards + log n)` per rejected proposal (at most `n · shards` of them
/// per iteration, a fraction of `n` on clustered data), and `O(n)` memory
/// beyond the matrix: nothing is stored per (object, shard) pair. The
/// per-object passes (seeding, first proposals) run over row ranges on up
/// to `threads` scoped threads; the assignment is the same for every
/// `threads`.
///
/// # Panics
///
/// If the matrix has more than `u32::MAX` rows (object ids are `u32`).
pub fn partition_pivot_space(
    mapped: &PivotMatrix,
    shards: usize,
    seed: u64,
    threads: usize,
) -> Partition {
    let n = mapped.rows();
    let p = shards.max(1).min(n.max(1));
    let dim = mapped.width();
    let fallback = || Partition {
        assignment: assign_round_robin(n, p),
        iters: 0,
        rejected: 0,
    };
    if p <= 1 || dim == 0 || n <= p {
        return fallback();
    }
    // The one width check: below, `usize -> u32` casts of a row or shard
    // index are all bounded by `n`.
    assert!(
        u32::try_from(n).is_ok(),
        "{n} rows: object ids must fit in u32"
    );
    let rows = mapped.as_slice();

    // Farthest-first (maximin) seeding: spreads centroids across the mapped
    // point cloud, deterministic given the seed.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x524f_5554); // "ROUT"
    let mut centroids: Vec<f64> = Vec::with_capacity(p * dim);
    centroids.extend_from_slice(mapped.row(rng.random_range(0..n)));
    let mut nearest = vec![f64::INFINITY; n];
    while centroids.len() < p * dim {
        let newest = &centroids[centroids.len() - dim..];
        // The first row at the maximum, as one sequential pass finds it:
        // strict `>` inside a chunk and again across chunks in row order.
        let (mut far, mut far_d) = (0usize, -1.0f64);
        for (i, d) in map_row_chunks(&mut nearest, threads, MIN_ROWS_PER_CHUNK, |start, chunk| {
            let (mut far, mut far_d) = (0usize, -1.0f64);
            let chunk_rows = rows[start * dim..].chunks_exact(dim);
            for (j, (slot, m)) in chunk.iter_mut().zip(chunk_rows).enumerate() {
                let d = sq_dist(m, newest).min(*slot);
                *slot = d;
                if d > far_d {
                    far_d = d;
                    far = start + j;
                }
            }
            (far, far_d)
        }) {
            if d > far_d {
                far_d = d;
                far = i;
            }
        }
        if far_d <= 0.0 {
            // Every mapped point coincides with a centroid: the pivot space
            // carries no routing signal, so balance is all that matters.
            return fallback();
        }
        centroids.extend_from_slice(mapped.row(far));
    }
    drop(nearest);

    let cap = n.div_ceil(p);
    let mut work = Balancer::new(p);
    let mut assignment = vec![usize::MAX; n];
    let mut next = Vec::new();
    let (mut iters, mut rejected) = (0u64, 0u64);
    let mut sums = vec![0.0f64; p * dim];
    let mut counts = vec![0usize; p];
    for iter in 0..MAX_ITERS {
        rejected += work.assign(mapped, &centroids, cap, threads, &mut next);
        iters += 1;
        if next == assignment {
            break;
        }
        std::mem::swap(&mut assignment, &mut next);
        if iter + 1 == MAX_ITERS {
            break; // nothing reads the centroids after the last assignment
        }
        // Standard k-means centroid update over the new groups. One
        // sequential pass: a floating-point sum depends on its order, so
        // splitting it over threads would tie the centroids — and through
        // them the assignment — to the thread count.
        sums.fill(0.0);
        counts.fill(0);
        for (m, &s) in rows.chunks_exact(dim).zip(&assignment) {
            counts[s] += 1;
            for (acc, x) in sums[s * dim..(s + 1) * dim].iter_mut().zip(m) {
                *acc += x;
            }
        }
        for (s, &count) in counts.iter().enumerate() {
            if count > 0 {
                let span = s * dim..(s + 1) * dim;
                for (c, sum) in centroids[span.clone()].iter_mut().zip(&sums[span]) {
                    *c = sum / count as f64;
                }
            }
        }
    }
    Partition {
        assignment,
        iters,
        rejected,
    }
}

/// `(squared distance bits, id)`. Squared distances are non-negative, where
/// the order of the raw `f64` bits is the numeric order, so these tuples
/// compare exactly as the reference's `total_cmp`-then-id order.
type Key = (u64, u32);

const INF_BITS: u64 = 0x7ff0_0000_0000_0000;

/// The buffers of the balanced assignment step, reused across the k-means
/// iterations of one partitioning run.
struct Balancer {
    /// Per point, the `(distance bits, shard)` of the shard it currently
    /// proposes to (or is held by): its cursor into its own preference
    /// order, which is never materialized.
    proposal: Vec<Key>,
    /// Per shard, the `(distance bits, point)` of the points it holds.
    held: Vec<Vec<Key>>,
    /// Points turned away and not yet placed.
    rejected: Vec<u32>,
}

/// Per centroid, its `p` nearest points of one row chunk, each list in
/// ascending `(distance, point)` order.
struct Nearest {
    lists: Vec<Vec<Key>>,
    /// What a distance to centroid `s` must beat to enter `lists[s]`.
    bound: Vec<u64>,
    /// The largest bound: a row whose nearest centroid is no nearer than
    /// this enters no list, which is all the hot loop checks.
    widest: u64,
}

impl Nearest {
    fn new(p: usize) -> Self {
        Nearest {
            lists: vec![Vec::with_capacity(p + 1); p],
            // As the reference's `d < f64::INFINITY`.
            bound: vec![INF_BITS; p],
            widest: INF_BITS,
        }
    }

    /// Enters row `i` (`m`) into every list it belongs to. Rows must be
    /// offered in ascending id order: a tie with a full list's last entry
    /// then loses, as it does in the reference.
    fn offer(&mut self, i: u32, m: &[f64], centroids: &[f64]) {
        let p = self.lists.len();
        let each = centroids.chunks_exact(m.len());
        for ((c, list), bound) in each.zip(&mut self.lists).zip(&mut self.bound) {
            let bits = sq_dist(m, c).to_bits();
            if bits < *bound {
                let at = list.partition_point(|e| e.0 <= bits);
                list.insert(at, (bits, i));
                if list.len() >= p {
                    list.truncate(p);
                    *bound = list[p - 1].0;
                }
            }
        }
        self.widest = self.bound.iter().copied().max().unwrap_or(0);
    }
}

impl Balancer {
    fn new(p: usize) -> Self {
        Balancer {
            proposal: Vec::new(),
            held: vec![Vec::new(); p],
            rejected: Vec::new(),
        }
    }

    /// Nearest-centroid assignment under a per-shard capacity, written to
    /// `out`; returns the number of proposals rejected. `centroids` is
    /// `p` rows of `mapped.width()` values.
    ///
    /// The assignment is defined by the reference in the tests: first every
    /// centroid in turn claims its single nearest unclaimed point (no shard
    /// left empty), then all `(distance, point, centroid)` pairs are taken
    /// in ascending order, skipping assigned points and full shards. That
    /// greedy scan is the point-proposing **deferred acceptance** outcome
    /// for the preferences "a point ranks centroids by `(distance,
    /// centroid)`, a shard ranks points by `(distance, point)`": both
    /// rankings are restrictions of one strict order on pairs, so the stable
    /// matching is unique — the smallest remaining pair blocks any matching
    /// that omits it — and deferred acceptance reaches it whatever the
    /// order of proposals. Hence:
    ///
    /// 1. one pass computes each point's nearest centroid (its first
    ///    proposal) and, fused into it, the `p` nearest points of every
    ///    centroid, from which the claims are replayed in centroid order;
    /// 2. every shard over capacity keeps its best `cap − claimed` proposers
    ///    by one `select_nth_unstable` and turns the rest away;
    /// 3. each rejected point recomputes its next preference on demand and
    ///    proposes again. From here on a shard's held set is a max-heap, so
    ///    a proposal to a full shard costs `O(log cap)` — accepted by
    ///    evicting the worst held point, or refused — and a chain of
    ///    single evictions cannot turn quadratic.
    ///
    /// Total capacity `p · cap >= n` guarantees every point lands somewhere.
    fn assign(
        &mut self,
        mapped: &PivotMatrix,
        centroids: &[f64],
        cap: usize,
        threads: usize,
        out: &mut Vec<usize>,
    ) -> u64 {
        let n = mapped.rows();
        let dim = mapped.width();
        let p = self.held.len();
        debug_assert_eq!(centroids.len(), p * dim);
        let rows = mapped.as_slice();

        // (1) First proposals, and per centroid its `p` nearest points —
        // enough to replay `p` claims, each of which removes one point.
        self.proposal.resize(n, (0, 0));
        let chunk_nearest = map_row_chunks(
            &mut self.proposal,
            threads,
            MIN_ROWS_PER_CHUNK,
            |start, chunk| {
                let mut nearest = Nearest::new(p);
                let chunk_rows = rows[start * dim..].chunks_exact(dim);
                for (j, (slot, m)) in chunk.iter_mut().zip(chunk_rows).enumerate() {
                    // Strict `<`: a tie goes to the lower centroid id. Written
                    // as selects so that the loop has no unpredictable branch.
                    let mut first = (u64::MAX, 0u32);
                    for (s, c) in centroids.chunks_exact(dim).enumerate() {
                        let bits = sq_dist(m, c).to_bits();
                        let nearer = bits < first.0;
                        first.0 = if nearer { bits } else { first.0 };
                        first.1 = if nearer { s as u32 } else { first.1 };
                    }
                    *slot = first;
                    if first.0 < nearest.widest {
                        nearest.offer((start + j) as u32, m, centroids);
                    }
                }
                nearest.lists
            },
        );
        let mut room = vec![cap; p];
        out.clear();
        out.resize(n, usize::MAX);
        for s in 0..p {
            let mut nearest: Vec<Key> = chunk_nearest
                .iter()
                .flat_map(|lists| lists[s].iter().copied())
                .collect();
            nearest.sort_unstable();
            if let Some(&(_, i)) = nearest
                .iter()
                .find(|&&(_, i)| out[i as usize] == usize::MAX)
            {
                out[i as usize] = s;
                room[s] -= 1;
            }
        }

        // (2) Group the free points by first choice; over-full shards keep
        // their nearest.
        for held in &mut self.held {
            held.clear();
        }
        for (i, (&(bits, s), &claimed)) in self.proposal.iter().zip(out.iter()).enumerate() {
            if claimed == usize::MAX {
                self.held[s as usize].push((bits, i as u32));
            }
        }
        self.rejected.clear();
        for (held, &room) in self.held.iter_mut().zip(&room) {
            if held.len() > room {
                held.select_nth_unstable(room);
                self.rejected.extend(held.drain(room..).map(|(_, i)| i));
            }
        }
        let mut turned_away = self.rejected.len() as u64;

        // (3) Deferred acceptance over the rejected.
        let mut heaps: Vec<BinaryHeap<Key>> = self
            .held
            .iter_mut()
            .map(|held| BinaryHeap::from(std::mem::take(held)))
            .collect();
        while let Some(i) = self.rejected.pop() {
            let m = mapped.row(i as usize);
            let tried = self.proposal[i as usize];
            let mut next = (u64::MAX, u32::MAX);
            for (s, c) in centroids.chunks_exact(dim).enumerate() {
                let key = (sq_dist(m, c).to_bits(), s as u32);
                if key > tried && key < next {
                    next = key;
                }
            }
            let (bits, s) = next;
            debug_assert!((s as usize) < p, "total capacity covers every point");
            self.proposal[i as usize] = next;
            let heap = &mut heaps[s as usize];
            if heap.len() < room[s as usize] {
                heap.push((bits, i));
                continue;
            }
            turned_away += 1;
            match heap.peek_mut() {
                Some(mut worst) if (bits, i) < *worst => {
                    self.rejected.push(worst.1);
                    *worst = (bits, i);
                }
                _ => self.rejected.push(i),
            }
        }
        for (held, heap) in self.held.iter_mut().zip(heaps) {
            *held = heap.into_vec(); // keep the buffer for the next iteration
        }
        // Every free point is now held by the shard it last proposed to.
        for (shard, &(_, s)) in out.iter_mut().zip(&self.proposal) {
            if *shard == usize::MAX {
                *shard = s as usize;
            }
        }
        debug_assert!(out.iter().all(|&s| s < p));
        turned_away
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi_metric::{datasets, Metric, L1, L2};
    use proptest::prelude::*;

    fn blobs(per: usize, centers: &[(f64, f64)]) -> PivotMatrix {
        // Tiny deterministic jitter, no RNG needed.
        let mut out = PivotMatrix::new(2);
        for &(cx, cy) in centers {
            for i in 0..per {
                let dx = (i % 5) as f64 * 0.01;
                let dy = (i % 7) as f64 * 0.01;
                out.push_row(&[cx + dx, cy + dy]);
            }
        }
        out
    }

    #[test]
    fn round_robin_fallbacks() {
        assert_eq!(assign_round_robin(5, 2), vec![0, 1, 0, 1, 0]);
        // One shard.
        assert_eq!(
            assign_pivot_space(&blobs(4, &[(0.0, 0.0)]), 1, 7),
            vec![0; 4]
        );
        // Zero-dimensional mapped points (no pivots).
        let mut flat = PivotMatrix::new(0);
        for _ in 0..3 {
            flat.push_row(&[]);
        }
        assert_eq!(assign_pivot_space(&flat, 2, 7), vec![0, 1, 0]);
        // All mapped points identical.
        let same = PivotMatrix::from_rows(2, vec![[3.0, 3.0]; 6]);
        assert_eq!(assign_pivot_space(&same, 3, 7), vec![0, 1, 2, 0, 1, 2]);
        // Fewer objects than shards.
        assert_eq!(
            assign_pivot_space(&blobs(2, &[(0.0, 0.0)]), 5, 7),
            vec![0, 1]
        );
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
        let cap = 30usize.div_ceil(3);
        for (s, &c) in counts.iter().enumerate() {
            assert!(c >= 1, "shard {s} empty");
            assert!(c <= cap, "shard {s} over capacity: {c} > {cap}");
        }
    }

    #[test]
    fn separated_blobs_land_in_distinct_shards() {
        let pts = blobs(
            8,
            &[(0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0), (1000.0, 1000.0)],
        );
        let a = assign_pivot_space(&pts, 4, 1);
        // Each blob of 8 points must map to a single shard (capacity is
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

    /// The definition of the balanced assignment step: build every
    /// `(distance, point, centroid)` pair, sort, scan. The oracle the
    /// deferred-acceptance implementation must equal element for element.
    fn balanced_assign_reference(
        mapped: &PivotMatrix,
        centroids: &[Vec<f64>],
        cap: usize,
    ) -> Vec<usize> {
        let n = mapped.rows();
        let p = centroids.len();
        let mut assignment = vec![usize::MAX; n];
        let mut counts = vec![0usize; p];
        for (s, c) in centroids.iter().enumerate() {
            let mut pick = None;
            let mut pick_d = f64::INFINITY;
            for (i, m) in mapped.iter_rows() {
                if assignment[i] == usize::MAX {
                    let d = sq_dist(m, c);
                    if d < pick_d {
                        pick_d = d;
                        pick = Some(i);
                    }
                }
            }
            if let Some(i) = pick {
                assignment[i] = s;
                counts[s] += 1;
            }
        }
        let mut pairs: Vec<(f64, u32, u32)> = Vec::new();
        for (i, m) in mapped.iter_rows() {
            if assignment[i] == usize::MAX {
                for (s, c) in centroids.iter().enumerate() {
                    pairs.push((sq_dist(m, c), i as u32, s as u32));
                }
            }
        }
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        for (_, i, s) in pairs {
            let (i, s) = (i as usize, s as usize);
            if assignment[i] == usize::MAX && counts[s] < cap {
                assignment[i] = s;
                counts[s] += 1;
            }
        }
        assignment
    }

    /// One assignment step of the implementation, plus its rejection count.
    fn balanced_assign(
        mapped: &PivotMatrix,
        centroids: &[Vec<f64>],
        cap: usize,
    ) -> (Vec<usize>, u64) {
        let mut out = Vec::new();
        let rejected =
            Balancer::new(centroids.len()).assign(mapped, &centroids.concat(), cap, 1, &mut out);
        (out, rejected)
    }

    #[test]
    fn deferred_acceptance_equals_sorted_reference() {
        // Mixed shapes, including heavy capacity pressure (all points near
        // one centroid), duplicate points (distance ties broken by ids),
        // and p not dividing n.
        let cases: Vec<(PivotMatrix, usize)> = vec![
            (blobs(10, &[(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)]), 3),
            (blobs(23, &[(1.0, 1.0), (1.5, 1.2)]), 4),
            (PivotMatrix::from_rows(2, vec![[5.0, 5.0]; 17]), 5),
            (
                PivotMatrix::from_rows(2, (0..40).map(|i| [(i % 7) as f64, (i % 11) as f64])),
                6,
            ),
        ];
        for (mapped, p) in cases {
            let n = mapped.rows();
            let cap = n.div_ceil(p);
            // Centroids straight from farthest-first over the data, like
            // the real loop would produce.
            let centroids: Vec<Vec<f64>> =
                (0..p).map(|s| mapped.row((s * n) / p).to_vec()).collect();
            let (fast, _) = balanced_assign(&mapped, &centroids, cap);
            let slow = balanced_assign_reference(&mapped, &centroids, cap);
            assert_eq!(fast, slow, "n={n} p={p}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random point clouds on a coarse grid (exact distance ties and
        /// duplicate rows are the common case, `p` rarely divides `n`),
        /// optionally squeezed next to one centroid so that nearly every
        /// first proposal lands on the same shard; centroids are rows of
        /// the data (zero distances) or arbitrary grid points.
        #[test]
        fn deferred_acceptance_equals_reference_on_random_input(
            cells in prop::collection::vec(0u32..1_000_000, 12..400),
            width in 1usize..=5,
            p in 2usize..=9,
            grid in 2u32..12,
            squeeze in 0u32..3,
            centroid_picks in prop::collection::vec(0u32..1_000_000, 9),
            data_centroids in 0u32..2,
        ) {
            // One cell value per point, unpacked digit by digit in base
            // `grid`: few distinct coordinates, so many equal distances.
            let point = |cell: u32| -> Vec<f64> {
                (0..width as u32).map(|k| ((cell / grid.pow(k)) % grid) as f64).collect()
            };
            let n = cells.len();
            let rows: Vec<Vec<f64>> = cells
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    let mut v = point(c);
                    // squeeze 1: all but every 16th point collapse onto a
                    // 2-cell corner; squeeze 2: onto one cell exactly.
                    if squeeze > 0 && i % 16 != 0 {
                        for x in &mut v {
                            *x = if squeeze == 1 { *x % 2.0 } else { 0.0 };
                        }
                    }
                    v
                })
                .collect();
            let mapped = PivotMatrix::from_rows(width, &rows);
            let centroids: Vec<Vec<f64>> = centroid_picks[..p]
                .iter()
                .map(|&c| if data_centroids == 1 { rows[c as usize % n].clone() } else { point(c) })
                .collect();
            let cap = n.div_ceil(p);
            let (fast, rejected) = balanced_assign(&mapped, &centroids, cap);
            let slow = balanced_assign_reference(&mapped, &centroids, cap);
            prop_assert_eq!(&fast, &slow, "n={} p={} width={}", n, p, width);
            prop_assert!(rejected <= (n * p) as u64, "a point proposes to a shard at most once");
        }
    }

    fn fnv1a(assignment: &[usize]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &s in assignment {
            for b in (s as u64).to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The benchmark's build recipe: HFI pivots (5, seed 42) over the
    /// corpus, then the object-to-pivot distance table.
    fn hfi_matrix<M: Metric<Vec<f32>> + Sync>(pts: &[Vec<f32>], metric: &M) -> PivotMatrix {
        let ids = pmi_pivots::select_hfi(pts, metric, 5, 42);
        let pivots: Vec<Vec<f32>> = ids.into_iter().map(|i| pts[i].clone()).collect();
        PivotMatrix::compute(pts, metric, &pivots, 1)
    }

    #[test]
    fn assignment_hashes_match_the_heap_implementation() {
        // FNV-1a over the assignment (each shard id as 8 LE bytes),
        // recorded at commit 1fcac48 from the lazy-heap `balanced_assign`
        // this implementation replaced. The partition is the same partition.
        let la = hfi_matrix(&datasets::la(20_000, 42), &L2);
        for (p, want) in [
            (2, 0x84af_9b87_9ca9_6645u64),
            (3, 0xdf44_2b11_71a2_cc66),
            (8, 0x30d2_4900_802e_b0a5),
        ] {
            let got = fnv1a(&assign_pivot_space(&la, p, 42));
            assert_eq!(got, want, "LA n=20000 P={p}: {got:#018x}");
        }
        let color = hfi_matrix(&datasets::color(5_000, 42), &L1);
        for (p, want) in [(8, 0x48d9_8aee_5d40_e8a5u64), (5, 0x55e3_4681_8a68_3ea5)] {
            let got = fnv1a(&assign_pivot_space(&color, p, 42));
            assert_eq!(got, want, "Color n=5000 P={p}: {got:#018x}");
        }
    }

    #[test]
    fn partition_is_independent_of_thread_count() {
        // Large enough that 7 threads really get 7 row chunks.
        let mapped = hfi_matrix(&datasets::la(60_000, 7), &L2);
        for p in [2, 8] {
            let one = partition_pivot_space(&mapped, p, 42, 1);
            assert_eq!(one.assignment, assign_pivot_space(&mapped, p, 42));
            assert!(one.iters >= 1 && one.rejected > 0, "{one:?}");
            for threads in [2, 3, 7] {
                assert_eq!(
                    partition_pivot_space(&mapped, p, 42, threads),
                    one,
                    "P={p} threads={threads}"
                );
            }
        }
    }

    /// Inputs built to make rejections cascade; release builds only (the
    /// point is that they finish: a quadratic cascade at this size is
    /// hours, the linear one well under a second each).
    #[cfg(not(debug_assertions))]
    #[test]
    fn adversarial_shapes_finish_at_scale() {
        let n = 200_000usize;
        let p = 8;
        let check = |mapped: &PivotMatrix, what: &str| {
            let part = partition_pivot_space(mapped, p, 42, 2);
            let mut counts = vec![0usize; p];
            for &s in &part.assignment {
                counts[s] += 1;
            }
            let cap = n.div_ceil(p);
            assert!(
                counts.iter().all(|&c| (1..=cap).contains(&c)),
                "{what}: {counts:?}"
            );
            // A point proposes to each shard at most once per iteration.
            assert!(
                part.rejected <= part.iters * (n * p) as u64,
                "{what}: {part:?}"
            );
        };
        // Every point nearest one centroid: a tight cloud plus p - 1 far
        // outliers that farthest-first seeding is bound to pick.
        let cloud = (0..n).map(|i| {
            if i < p - 1 {
                [1e6 * (i + 1) as f64, -1e6 * (i + 1) as f64]
            } else {
                [(i % 997) as f64 * 1e-3, (i % 991) as f64 * 1e-3]
            }
        });
        check(&PivotMatrix::from_rows(2, cloud), "one hot centroid");
        // Duplicates: 16 distinct rows, every distance tied 12 500 ways.
        let dups = (0..n).map(|i| [(i % 4) as f64, ((i / 4) % 4) as f64]);
        check(&PivotMatrix::from_rows(2, dups), "duplicates");
        // A line, points in descending order of position: centroids sit
        // along it, and each full shard pushes its overflow to the next,
        // which evicts in turn — chains of one eviction per step.
        let line = (0..n).map(|i| [(n - i) as f64]);
        check(&PivotMatrix::from_rows(1, line), "eviction chains");
    }
}
