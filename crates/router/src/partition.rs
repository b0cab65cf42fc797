//! Balanced pivot-space partitioning.
//!
//! Objects are assigned to shards by clustering their pivot-distance
//! vectors — the rows of the shared [`PivotMatrix`] — with a k-means-style
//! loop in pivot space whose assignment step is *balanced* (no shard exceeds
//! `ceil(n / P)` objects and none is left empty), so routing quality never
//! comes at the price of a hot shard. Degenerate inputs — one shard, no
//! pivots, fewer objects than shards, or a dataset whose mapped points are
//! all identical — fall back to balanced contiguous runs
//! (`balanced_runs`), which are always valid. A zero-width pivot space —
//! an engine's `Layout::plain()` — is such an input, so this one fallback
//! is what an engine without pivots is cut into.
//!
//! Every step is a linear pass over the matrix rows plus work proportional
//! to the proposals a full shard turns away. The per-object passes run over
//! row ranges, and the per-shard work shard by shard, on up to `threads`
//! workers with the caller one of them; every merge is exact, so the
//! assignment does not depend on the thread count. The distances to the
//! centroids run on the SIMD tier [`simd::tier`] picks
//! ([`CentroidLanes`]: the same bits on every tier), so it does not depend
//! on the tier either (see `docs/performance.md`, "Build and partition
//! cost").

use pmi_metric::parallel::{claim_each, map_row_chunks, map_row_chunks_with};
use pmi_metric::simd::{self, CentroidLanes, SimdTier};
use pmi_metric::PivotMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Assignment iterations; balanced k-means converges fast and the result
/// only steers routing quality, never correctness.
const MAX_ITERS: usize = 8;

/// Rows below which a chunk of a per-object pass is not worth a thread of
/// its own: a spawn costs tens of microseconds, a row here a few
/// nanoseconds.
const MIN_ROWS_PER_CHUNK: usize = 8192;

/// Proposals a thread must get for a deferred-acceptance round to leave the
/// caller, and points turned away for step 2 to: a proposal fetches a row
/// from anywhere in the matrix and costs tens of nanoseconds, a spawn tens
/// of microseconds.
const MIN_PROPOSALS_PER_PART: usize = 4096;

/// How many proposals ahead a round prefetches the row, or the slot of
/// `out`, it will touch: a round's points are scattered over the matrix, and
/// this many proposals of work cover a miss to memory.
const PREFETCH_AHEAD: usize = 16;

/// Balanced contiguous runs: shard `s` takes the next ⌈n/P⌉-or-⌊n/P⌋
/// objects in order. Always valid and within one object of balanced, so it
/// is [`partition_pivot_space`]'s fallback for inputs clustering cannot
/// help.
fn balanced_runs(n: usize, shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    (0..shards)
        .flat_map(|s| std::iter::repeat_n(s, n / shards + usize::from(s < n % shards)))
        .collect()
}

/// The squared Euclidean distance, one coordinate at a time: what every
/// [`CentroidLanes`] lane computes, bit for bit, on every tier.
#[inline]
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// A partitioning and the exact work it took, for build-cost accounting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// The shard of each object.
    pub assignment: Vec<usize>,
    /// Balanced-assignment iterations run (0 on the fallback).
    pub iters: u64,
    /// Proposals a full shard turned away, over all iterations: every one
    /// made its point recompute its next-nearest centroid.
    pub rejected: u64,
    /// Deferred-acceptance rounds, over all iterations: a round moves every
    /// point the one before turned away to its next-nearest centroid.
    pub rounds: u64,
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
/// object of perfectly balanced. Falls back to balanced contiguous runs
/// when clustering cannot help (see module docs).
///
/// Runs in `O(iters · n · shards)` distance computations, plus per rejected
/// proposal `shards` more and one `O(log n)` heap step (at most
/// `n · shards` rejections per iteration, a fraction of `n` on clustered
/// data), plus `O(shards)` per round; and `O(n)` memory beyond the matrix:
/// nothing is stored per (object, shard) pair. Seeding, the first proposals
/// and each round's next proposals run over row ranges, and the select,
/// heapify and acceptances shard by shard, on up to `threads` workers, the
/// caller one of them ([`pmi_metric::parallel`]); the partition is the same
/// for every `threads` and every SIMD tier.
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
    partition_on(simd::tier(), mapped, shards, seed, threads)
}

/// [`partition_pivot_space`] with the centroid distances on `tier`, which
/// the tier-agreement tests pin.
fn partition_on(
    tier: SimdTier,
    mapped: &PivotMatrix,
    shards: usize,
    seed: u64,
    threads: usize,
) -> Partition {
    let n = mapped.rows();
    let p = shards.max(1).min(n.max(1));
    let dim = mapped.width();
    let fallback = || Partition {
        assignment: balanced_runs(n, p),
        iters: 0,
        rejected: 0,
        rounds: 0,
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
    let mut work = Balancer::new(p, tier);
    // Shard ids are `u32` inside the loop (`p ≤ n` fits, checked above).
    let mut assignment = vec![u32::MAX; n];
    let mut next = Vec::new();
    let mut iters = 0u64;
    let mut sums = vec![0.0f64; p * dim];
    let mut counts = vec![0usize; p];
    for iter in 0..MAX_ITERS {
        work.assign(
            mapped,
            &centroids,
            cap,
            threads,
            MIN_PROPOSALS_PER_PART,
            &mut next,
        );
        iters += 1;
        if iter + 1 == MAX_ITERS {
            // Nothing reads the centroids after the last assignment, and
            // the result is this one whether or not it moved a point.
            std::mem::swap(&mut assignment, &mut next);
            break;
        }
        // The convergence test and the standard k-means centroid sums over
        // the new groups, in one sequential pass: a floating-point sum
        // depends on its order, so splitting it over threads would tie the
        // centroids — and through them the assignment — to the thread
        // count.
        sums.fill(0.0);
        counts.fill(0);
        let mut moved = false;
        for ((m, &s), &was) in rows.chunks_exact(dim).zip(&next).zip(&assignment) {
            moved |= s != was;
            let s = s as usize;
            counts[s] += 1;
            for (acc, x) in sums[s * dim..][..dim].iter_mut().zip(m) {
                *acc += x;
            }
        }
        std::mem::swap(&mut assignment, &mut next);
        if !moved {
            break;
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
    let (rejected, rounds) = (work.rejected, work.rounds);
    // The balancer's buffers go before the ids are widened.
    drop((work, next));
    Partition {
        assignment: assignment.into_iter().map(|s| s as usize).collect(),
        iters,
        rejected,
        rounds,
    }
}

/// `(squared distance bits, id)`, compared as a `u64`, then the id. On
/// non-negative distances the order of the raw `f64` bits is the numeric
/// order, so for NaN-free rows these tuples compare exactly as the
/// reference's `total_cmp`-then-id order. A NaN distance (`∞ − ∞`, from a
/// row and a centroid with `+∞` in the same coordinate, is a NaN with the
/// sign bit set on x86) ranks last here and first under `total_cmp`: the
/// partition of rows with `+∞` coordinates is defined by this order, the
/// same on every tier and thread count, and equals the reference's only
/// where no distance is NaN.
type Key = (u64, u32);

/// A proposal: `(distance bits, shard, point)`. Flat, so that it packs
/// into 16 bytes; `(bits, shard)` is its key.
type Move = (u64, u32, u32);

const INF_BITS: u64 = 0x7ff0_0000_0000_0000;

/// The buffers of the balanced assignment step, reused across the k-means
/// iterations of one partitioning run, and the work it has done.
struct Balancer {
    /// The SIMD tier of the distances to the centroids.
    tier: SimdTier,
    /// Per row chunk of step 1, per shard, the chunk's points whose first
    /// proposal is to it, `(distance bits, point)` in row order. The first
    /// chunk fills the shards' own buffers, lent for the pass.
    firsts: Vec<Vec<Vec<Key>>>,
    /// Proposals turned away, each `(distance bits, shard)` a cursor into
    /// its point's own preference order, which is never materialized:
    /// after step 2 the points over their first choice's room, each with
    /// the proposal it lost. A round rewrites each to its next proposal,
    /// buckets them by shard and lets each shard overwrite its bucket with
    /// what it turns away, all in place.
    moves: Vec<Move>,
    shards: Vec<Shard>,
    /// Per shard, what it turns away in step 2, or the proposals it
    /// receives in a round.
    counts: Vec<usize>,
    /// Per shard, its bucket's cursor while a round is bucketed.
    cursors: Vec<usize>,
    /// Proposals turned away, over every `assign` so far.
    rejected: u64,
    /// Deferred-acceptance rounds, over every `assign` so far.
    rounds: u64,
}

/// One shard's side of the deferred acceptance.
struct Shard {
    held: Held,
    /// Places left after the claims.
    room: usize,
}

/// The `(distance bits, point)` of the points a shard holds.
enum Held {
    /// Below its room: proposals are appended, in no order.
    Open(Vec<Key>),
    /// At its room: a max-heap, the worst point held on top.
    Full(BinaryHeap<Key>),
}

impl Shard {
    /// Empties the shard and hands out its buffer.
    fn take_buffer(&mut self) -> Vec<Key> {
        let mut held = match std::mem::replace(&mut self.held, Held::Open(Vec::new())) {
            Held::Open(held) => held,
            Held::Full(heap) => heap.into_vec(),
        };
        held.clear();
        held
    }

    /// Opens the shard for step 2 with the first chunk's first-choice
    /// proposers `held`, room for `total` of them in all, and `room` places
    /// left after the claims. A shard below its room stays open: filling it
    /// on a worker must not allocate.
    fn open(&mut self, room: usize, mut held: Vec<Key>, total: usize) {
        held.reserve(total.max(room) - held.len());
        self.held = Held::Open(held);
        self.room = room;
    }

    /// Step 2 for shard `s`: append the later chunks' proposers `rest`;
    /// over its room, keep the best by one `select_nth_unstable` and write
    /// the rest to `out`, which has exactly their number of slots; at its
    /// room, become a heap. Returns how many it turned away.
    fn settle<'a>(
        &mut self,
        s: usize,
        rest: impl Iterator<Item = &'a [Key]>,
        out: &mut [Move],
    ) -> usize {
        let Held::Open(held) = &mut self.held else {
            unreachable!("every shard is opened before step 2")
        };
        for group in rest {
            held.extend_from_slice(group);
        }
        debug_assert_eq!(out.len(), held.len().saturating_sub(self.room));
        if held.len() > self.room {
            held.select_nth_unstable(self.room);
            for (slot, (bits, i)) in out.iter_mut().zip(held.drain(self.room..)) {
                *slot = (bits, s as u32, i);
            }
        }
        if held.len() == self.room {
            self.held = Held::Full(BinaryHeap::from(std::mem::take(held)));
        }
        out.len()
    }

    /// Step 3: takes the proposal `entry`, returning the one it turns away.
    /// Below its room the shard keeps it, and heapifies once, when it
    /// fills; a full shard keeps the better of `entry` and its worst point.
    fn offer(&mut self, entry: Key) -> Option<Key> {
        match &mut self.held {
            Held::Open(held) => {
                held.push(entry);
                if held.len() == self.room {
                    self.held = Held::Full(BinaryHeap::from(std::mem::take(held)));
                }
                None
            }
            Held::Full(heap) => Some(match heap.peek_mut() {
                Some(mut worst) if entry < *worst => std::mem::replace(&mut *worst, entry),
                _ => entry,
            }),
        }
    }
}
/// Runs `work(s, shard, slots)` on every shard, where `slots` is the
/// shard's own `bound[s]` entries of `out` and `work` returns how many it
/// wrote; then packs what was written, in shard order, into `out`. Up to
/// `threads` workers, one per `floor` slots at most and the caller one of
/// them, take the shards most slots first ([`claim_each`]). Nothing is
/// allocated off the caller.
fn for_each_shard<F>(
    shards: &mut [Shard],
    bound: &[usize],
    threads: usize,
    floor: usize,
    out: &mut Vec<Move>,
    work: F,
) where
    F: Fn(usize, &mut Shard, &mut [Move]) -> usize + Sync,
{
    let total: usize = bound.iter().sum();
    let workers = threads.min(total / floor.max(1));
    out.resize(total, (0, 0, 0));
    let mut tasks = Vec::with_capacity(shards.len());
    let mut rest = &mut out[..];
    for ((s, shard), &bound) in shards.iter_mut().enumerate().zip(bound) {
        let (slots, tail) = std::mem::take(&mut rest).split_at_mut(bound);
        rest = tail;
        tasks.push((s, shard, slots));
    }
    tasks.sort_by_key(|task| Reverse(task.2.len()));
    let mut written = claim_each(tasks, workers, |(s, shard, slots)| {
        (s, work(s, shard, slots))
    });
    written.sort_unstable();
    let (mut from, mut to) = (0, 0);
    for (&bound, &(_, written)) in bound.iter().zip(&written) {
        out.copy_within(from..from + written, to);
        from += bound;
        to += written;
    }
    out.truncate(to);
}

/// Reorders `moves` so that the `counts[s]` entries proposing to shard `s`
/// come before those of shard `s + 1`, in place: one cycle-leader pass, no
/// second buffer.
fn bucket_by_shard(moves: &mut [Move], counts: &[usize], cursors: &mut Vec<usize>) {
    // Everything before `cursors[s]` in bucket `s` is already in place.
    cursors.clear();
    let mut start = 0;
    cursors.extend(counts.iter().map(|&count| {
        start += count;
        start - count
    }));
    let mut end = 0;
    for (s, &count) in counts.iter().enumerate() {
        end += count;
        while cursors[s] < end {
            // Follow the cycle through the entry at the cursor, carrying
            // the displaced one, until an entry of bucket `s` comes back.
            let mut entry = moves[cursors[s]];
            while entry.1 as usize != s {
                let at = &mut cursors[entry.1 as usize];
                std::mem::swap(&mut entry, &mut moves[*at]);
                *at += 1;
            }
            moves[cursors[s]] = entry;
            cursors[s] += 1;
        }
    }
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

    /// Enters row `i` (`m`, whose nearest centroid is `first` away, in
    /// bits) into every list it belongs to. Rows must be offered in
    /// ascending id order: a tie with a full list's last entry then loses,
    /// as it does in the reference. No distance is below `first`, so only
    /// a list whose bound is above it can take the row, and only that
    /// list's distance is computed — by `sq_dist`, whose bits are the lane
    /// kernel's.
    fn offer(&mut self, i: u32, first: u64, m: &[f64], centroids: &[f64]) {
        let p = self.lists.len();
        let dim = m.len();
        let lists = self.lists.iter_mut().zip(&mut self.bound).enumerate();
        for (s, (list, bound)) in lists.filter(|(_, (_, bound))| first < **bound) {
            let bits = sq_dist(m, &centroids[s * dim..][..dim]).to_bits();
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
    fn new(p: usize, tier: SimdTier) -> Self {
        Balancer {
            tier,
            firsts: Vec::new(),
            moves: Vec::new(),
            shards: (0..p)
                .map(|_| Shard {
                    held: Held::Open(Vec::new()),
                    room: 0,
                })
                .collect(),
            counts: Vec::new(),
            cursors: Vec::new(),
            rejected: 0,
            rounds: 0,
        }
    }

    /// Nearest-centroid assignment under a per-shard capacity, written to
    /// `out`; adds the proposals rejected and the rounds run to `rejected`
    /// and `rounds`. `centroids` is `p` rows of `mapped.width()` values;
    /// `floor` is [`MIN_PROPOSALS_PER_PART`] (tests lower it to reach the
    /// threaded paths on small inputs).
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
    /// order of proposals. Every point then proposes to exactly the shards
    /// it ranks at or above its final one (McVitie and Wilson, 1971), so
    /// the number of rejections is the same for every order too. Hence:
    ///
    /// 1. one pass over row ranges computes each point's nearest centroid
    ///    (its first proposal), records it in `out` and appends the point
    ///    to its chunk's group for that shard, in row order; fused into it,
    ///    the `p` nearest points of every centroid, from which the claims
    ///    are replayed in centroid order, each taking its point out of its
    ///    group;
    /// 2. every shard over capacity keeps its best `cap − claimed` proposers
    ///    by one `select_nth_unstable` and turns the rest away;
    /// 3. in rounds, every point turned away recomputes its next preference
    ///    and proposes again, all at once: the next proposals over ranges
    ///    of the round, prefetching rows ahead, then the acceptances shard
    ///    by shard. A shard below its room appends; once full it is a
    ///    max-heap, so a proposal to it costs `O(log cap)` — accepted by
    ///    evicting the worst held point, or refused — and a chain of
    ///    single evictions cannot turn quadratic. What a round turns away
    ///    is the same set whatever the order inside it (a full shard keeps
    ///    its best `room` of all it was offered), so the rounds are too.
    ///
    /// Total capacity `p · cap >= n` guarantees every point lands somewhere.
    fn assign(
        &mut self,
        mapped: &PivotMatrix,
        centroids: &[f64],
        cap: usize,
        threads: usize,
        floor: usize,
        out: &mut Vec<u32>,
    ) {
        let n = mapped.rows();
        let dim = mapped.width();
        let p = self.shards.len();
        debug_assert_eq!(centroids.len(), p * dim);
        let rows = mapped.as_slice();
        let lanes = CentroidLanes::new(centroids, dim);
        let tier = self.tier;

        // (1) First proposals, grouped by shard per row chunk, and per
        // centroid its `p` nearest points — enough to replay `p` claims,
        // each of which removes one point. `out` records from here on the
        // shard each point last proposed to; step 1 writes every slot.
        out.resize(n, 0);
        let lent = self.shards.iter_mut().map(Shard::take_buffer).collect();
        match self.firsts.first_mut() {
            Some(first) => *first = lent,
            None => self.firsts.push(lent),
        }
        let chunk_nearest = map_row_chunks_with(
            out,
            &mut self.firsts,
            threads,
            MIN_ROWS_PER_CHUNK,
            |start, chunk, firsts| {
                firsts.resize_with(p, Vec::new);
                for group in firsts.iter_mut() {
                    group.clear();
                }
                let mut nearest = Nearest::new(p);
                let chunk_rows = &rows[start * dim..][..chunk.len() * dim];
                lanes.nearest_each(tier, chunk_rows, |j, bits, s| {
                    let i = (start + j) as u32;
                    chunk[j] = s;
                    firsts[s as usize].push((bits, i));
                    if bits < nearest.widest {
                        nearest.offer(i, bits, &chunk_rows[j * dim..][..dim], centroids);
                    }
                });
                nearest.lists
            },
        );
        let mut room = vec![cap; p];
        let mut claimed = Vec::with_capacity(p);
        for s in 0..p {
            let mut nearest: Vec<Key> = chunk_nearest
                .iter()
                .flat_map(|lists| lists[s].iter().copied())
                .collect();
            nearest.sort_unstable();
            if let Some(&(_, i)) = nearest.iter().find(|&&(_, i)| !claimed.contains(&i)) {
                // Out of its first choice's group, in whichever chunk holds
                // it: each group is in row order.
                let first = out[i as usize] as usize;
                for groups in &mut self.firsts {
                    let group = &mut groups[first];
                    if let Ok(at) = group.binary_search_by_key(&i, |&(_, j)| j) {
                        group.remove(at);
                        break;
                    }
                }
                claimed.push(i);
                out[i as usize] = s as u32;
                room[s] -= 1;
            }
        }

        // (2) Each shard's proposers are its groups in chunk order — every
        // free point in row order, the later chunks' appended on the
        // workers; over-full shards keep their nearest.
        self.counts.clear();
        let (lent, rest) = self.firsts.split_first_mut().expect("one chunk at least");
        let rest = &*rest;
        for ((s, shard), &room) in self.shards.iter_mut().enumerate().zip(&room) {
            let held = std::mem::take(&mut lent[s]);
            let total = held.len() + rest.iter().map(|groups| groups[s].len()).sum::<usize>();
            self.counts.push(total.saturating_sub(room));
            shard.open(room, held, total);
        }
        for_each_shard(
            &mut self.shards,
            &self.counts,
            threads,
            floor,
            &mut self.moves,
            |s, shard, slots| shard.settle(s, rest.iter().map(|groups| &groups[s][..]), slots),
        );
        self.rejected += self.moves.len() as u64;

        // (3) Deferred acceptance, one round per generation of rejections.
        while !self.moves.is_empty() {
            self.rounds += 1;
            map_row_chunks(&mut self.moves, threads, floor, |_, chunk| {
                lanes.next_each(tier, rows, chunk, PREFETCH_AHEAD);
                debug_assert!(
                    chunk.iter().all(|&(_, s, _)| (s as usize) < p),
                    "total capacity covers every point"
                );
            });
            // Record each proposal as its point's, and bucket them by shard.
            self.counts.clear();
            self.counts.resize(p, 0);
            for (j, &(_, s, i)) in self.moves.iter().enumerate() {
                if let Some(&(_, _, ahead)) = self.moves.get(j + PREFETCH_AHEAD) {
                    simd::prefetch(&out[ahead as usize]);
                }
                out[i as usize] = s;
                self.counts[s as usize] += 1;
            }
            bucket_by_shard(&mut self.moves, &self.counts, &mut self.cursors);
            // Apply them, each shard overwriting its bucket with what it
            // turns away: it writes an entry only after reading it.
            for_each_shard(
                &mut self.shards,
                &self.counts,
                threads,
                floor,
                &mut self.moves,
                |s, shard, bucket| {
                    let mut turned = 0;
                    for j in 0..bucket.len() {
                        let (bits, _, i) = bucket[j];
                        if let Some((bits, i)) = shard.offer((bits, i)) {
                            bucket[turned] = (bits, s as u32, i);
                            turned += 1;
                        }
                    }
                    turned
                },
            );
            self.rejected += self.moves.len() as u64;
        }
        // Every free point is now held by the shard it last proposed to.
        debug_assert!(out.iter().all(|&s| (s as usize) < p));
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
        let mut flat = PivotMatrix::new(0);
        for _ in 0..3 {
            flat.push_row(&[]);
        }
        assert_eq!(assign_pivot_space(&flat, 2, 7), vec![0, 0, 1]);
        // All mapped points identical.
        let same = PivotMatrix::from_rows(2, vec![[3.0, 3.0]; 6]);
        assert_eq!(assign_pivot_space(&same, 3, 7), vec![0, 0, 1, 1, 2, 2]);
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

    /// One assignment step of the implementation on `tier` and `threads`,
    /// with step 2 and the rounds split down to single proposals, plus the
    /// proposals it rejected and the rounds it ran.
    fn balanced_assign(
        mapped: &PivotMatrix,
        centroids: &[Vec<f64>],
        cap: usize,
        tier: SimdTier,
        threads: usize,
    ) -> (Vec<usize>, u64, u64) {
        let mut out = Vec::new();
        let mut work = Balancer::new(centroids.len(), tier);
        work.assign(mapped, &centroids.concat(), cap, threads, 1, &mut out);
        let out = out.into_iter().map(|s| s as usize).collect();
        (out, work.rejected, work.rounds)
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
            let slow = balanced_assign_reference(&mapped, &centroids, cap);
            for tier in simd::available_tiers() {
                let (fast, _, _) = balanced_assign(&mapped, &centroids, cap, tier, 1);
                assert_eq!(fast, slow, "n={n} p={p} {tier:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random point clouds on a coarse grid (exact distance ties and
        /// duplicate rows are the common case, `p` rarely divides `n`),
        /// optionally squeezed next to one centroid so that nearly every
        /// first proposal lands on the same shard; centroids are rows of
        /// the data (zero distances) or arbitrary grid points. `p` spans
        /// one masked lane block, whole ones and two or three blocks, and
        /// every case runs on every SIMD tier the CPU has, each on one, two
        /// and three threads with step 2 and the rounds split down to single
        /// proposals.
        #[test]
        fn deferred_acceptance_equals_reference_on_random_input(
            cells in prop::collection::vec(0u32..1_000_000, 12..400),
            width in 1usize..=5,
            p in 2usize..=17,
            grid in 2u32..12,
            squeeze in 0u32..3,
            centroid_picks in prop::collection::vec(0u32..1_000_000, 17),
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
            // The lane kernel is `sq_dist` bit for bit, on coordinates whose
            // sums round (the grid's are exact in any order), and every tier
            // picks the key the definitions below pick.
            let thirds = |v: &Vec<f64>| -> Vec<f64> { v.iter().map(|x| x / 3.0 + 0.1).collect() };
            let lanes = CentroidLanes::new(&centroids.iter().flat_map(thirds).collect::<Vec<_>>(), width);
            let fine: Vec<f64> = rows.iter().flat_map(thirds).collect();
            let mut want_nearest = Vec::new();
            let mut want_next = Vec::new();
            for (i, m) in fine.chunks_exact(width).enumerate() {
                let mut got = Vec::new();
                lanes.each(m, |s, d| got.push((s, d.to_bits())));
                let want: Vec<(usize, u64)> =
                    centroids.iter().map(|c| sq_dist(m, &thirds(c)).to_bits()).enumerate().collect();
                prop_assert_eq!(&got, &want, "lane kernel p={} width={}", p, width);
                let keys = || want.iter().map(|&(s, bits)| (bits, s as u32));
                let first = keys().min().expect("p >= 2");
                want_nearest.push(first);
                // Every key of the row in turn, and one past the last.
                let mut tried = first;
                loop {
                    let next = keys().filter(|&k| k > tried).min().unwrap_or(simd::NO_KEY);
                    want_next.push(((tried.0, tried.1, i as u32), (next.0, next.1, i as u32)));
                    if next == simd::NO_KEY {
                        break;
                    }
                    tried = next;
                }
            }
            for tier in simd::available_tiers() {
                let mut got = Vec::new();
                lanes.nearest_each(tier, &fine, |j, bits, s| {
                    got.push((bits, s));
                    assert_eq!(j + 1, got.len());
                });
                prop_assert_eq!(&got, &want_nearest, "nearest_each {:?} p={} width={}", tier, p, width);
                let mut moves: Vec<Move> = want_next.iter().map(|w| w.0).collect();
                lanes.next_each(tier, &fine, &mut moves, PREFETCH_AHEAD);
                prop_assert!(
                    moves.iter().eq(want_next.iter().map(|w| &w.1)),
                    "next_each {:?} p={} width={}", tier, p, width
                );
            }
            let cap = n.div_ceil(p);
            let slow = balanced_assign_reference(&mapped, &centroids, cap);
            let portable = SimdTier::Portable;
            let (fast, rejected, rounds) = balanced_assign(&mapped, &centroids, cap, portable, 1);
            prop_assert_eq!(&fast, &slow, "n={} p={} width={}", n, p, width);
            prop_assert!(rejected <= (n * p) as u64, "a point proposes to a shard at most once");
            prop_assert_eq!(rounds > 0, rejected > 0);
            for tier in simd::available_tiers() {
                for threads in [1, 2, 3] {
                    let other = balanced_assign(&mapped, &centroids, cap, tier, threads);
                    prop_assert_eq!(
                        other,
                        (slow.clone(), rejected, rounds),
                        "n={} p={} width={} {:?} threads={}", n, p, width, tier, threads
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rows with `+∞` coordinates — `PivotMatrix::step` skips
        /// non-finite distances, so they are expected — in every shape the
        /// proptest above draws: a centroid that averages one in is `+∞`
        /// there, and `∞ − ∞` makes NaN distances, which the balancer ranks
        /// above every number. Every tier and thread count gives the same
        /// partition, and it is total and within `⌈n/P⌉`.
        #[test]
        fn partition_tiers_agree_on_infinite_rows(
            cells in prop::collection::vec((0u32..1_000_000, 0u32..8), 12..300),
            width in 1usize..=5,
            p in 2usize..=17,
            grid in 2u32..12,
            seed in 0u64..1_000,
        ) {
            // One cell value per point, as above; a point's `flags` put
            // `+∞` in up to three of its coordinates (most have none).
            let rows: Vec<Vec<f64>> = cells
                .iter()
                .map(|&(cell, flags)| {
                    (0..width as u32)
                        .map(|k| {
                            if flags & (1 << k) != 0 && flags >= 5 {
                                f64::INFINITY
                            } else {
                                ((cell / grid.pow(k)) % grid) as f64
                            }
                        })
                        .collect()
                })
                .collect();
            let mapped = PivotMatrix::from_rows(width, &rows);
            let n = mapped.rows();
            let one = partition_on(SimdTier::Portable, &mapped, p, seed, 1);
            prop_assert_eq!(one.assignment.len(), n);
            let mut counts = vec![0usize; p];
            for &s in &one.assignment {
                prop_assert!(s < p, "shard {} of {}", s, p);
                counts[s] += 1;
            }
            prop_assert!(counts.iter().all(|&c| c <= n.div_ceil(p)), "{:?}", counts);
            for tier in simd::available_tiers() {
                for threads in [1, 2, 3] {
                    prop_assert_eq!(
                        &partition_on(tier, &mapped, p, seed, threads),
                        &one,
                        "{:?} threads={}", tier, threads
                    );
                }
            }
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
        // Beside each, the iterations and rejections, recorded at commit
        // 4c66cae from the one-proposal-at-a-time loop the rounds replaced:
        // the proposals made do not depend on their order.
        let check = |mapped: &PivotMatrix, what: &str, p: usize, want: (u64, u64, u64)| {
            let part = partition_pivot_space(mapped, p, 42, 1);
            let got = (fnv1a(&part.assignment), part.iters, part.rejected);
            assert_eq!(got, want, "{what} P={p}: {:#018x}", got.0);
        };
        let la = hfi_matrix(&datasets::la(20_000, 42), &L2);
        for (p, want) in [
            (2, (0x84af_9b87_9ca9_6645, 8, 11_811)),
            (3, (0xdf44_2b11_71a2_cc66, 7, 8_385)),
            (8, (0x30d2_4900_802e_b0a5, 8, 42_332)),
        ] {
            check(&la, "LA n=20000", p, want);
        }
        let color = hfi_matrix(&datasets::color(5_000, 42), &L1);
        for (p, want) in [
            (8, (0x48d9_8aee_5d40_e8a5, 5, 1_535)),
            (5, (0x55e3_4681_8a68_3ea5, 8, 5_233)),
        ] {
            check(&color, "Color n=5000", p, want);
        }
    }

    #[test]
    fn partition_is_independent_of_thread_count() {
        // Large enough that 7 threads really get 7 row chunks; 9 shards
        // end in a masked lane block.
        let mapped = hfi_matrix(&datasets::la(60_000, 7), &L2);
        for p in [2, 9] {
            let one = partition_on(SimdTier::Portable, &mapped, p, 42, 1);
            assert_eq!(one.assignment, assign_pivot_space(&mapped, p, 42));
            assert!(
                one.iters >= 1 && one.rejected > 0 && one.rounds >= 1,
                "{one:?}"
            );
            // Every tier on one and two threads, the best on more.
            let tiers = simd::available_tiers();
            let best = *tiers.last().expect("portable always present");
            let runs = tiers.iter().flat_map(|&tier| [(tier, 1), (tier, 2)]);
            for (tier, threads) in runs.chain([(best, 3), (best, 7)]) {
                assert_eq!(
                    partition_on(tier, &mapped, p, 42, threads),
                    one,
                    "P={p} {tier:?} threads={threads}"
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
            // Rounds this large split their acceptances over the threads;
            // a race there would show as a different partition.
            let part = partition_pivot_space(mapped, p, 42, 1);
            for threads in [2, 3] {
                assert_eq!(
                    partition_pivot_space(mapped, p, 42, threads),
                    part,
                    "{what}: threads={threads}"
                );
            }
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
