//! The pivot-distance matrix — the paper's central `n × l` object — in its
//! two forms: the transient f64 [`PivotMatrix`] a build computes and sizes
//! the step from, and the u16 bucket codes every table, shard, routing box
//! and write path moves from then on ([`PivotColumns`], [`CodeBox`]).
//!
//! Every pivot-based index is, at its core, a view over the matrix
//! `A[i][j] = d(o_i, p_j)`.
//!
//! * A build never holds that matrix: [`code_rows`] maps it **once, in
//!   parallel**, one block of rows per worker at a time, and keeps only
//!   its u16 codes and their one step. Each block is coded under a step
//!   of its own and shifted to the shared one at the end (exact, both
//!   steps being powers of two — [`code_rows`]).
//! * [`PivotMatrix`] is the same matrix flat, row-major and exact in f64
//!   ([`PivotMatrix::compute`]): the reference the tests and the ruler
//!   code ([`quantise`] under [`PivotMatrix::step`]) and compare against.
//! * [`PivotColumns`] is the only stored form: one planar column of u16
//!   *bucket codes* per pivot, in local-slot order. Code `c` stands for
//!   every distance in `[c·step, (c+1)·step]` (the top one open above) — the
//!   discretisation the paper's own compact indexes use (SPB-tree's δ-grid,
//!   FQA's buckets): Lemma 1 stays admissible when a stored distance is an
//!   interval, so a bound only ever gets *smaller* — an occasional extra
//!   exact check, never a dropped result. Two bytes per distance, sixteen
//!   rows per 256-bit register, and all of it integer arithmetic: there is
//!   no rounding to account for.
//! * The per-object lower-bound filter runs through the cache-blocked,
//!   SIMD-dispatched [`ScanKernel`] instead of one function call per row,
//!   and yields one u16 *gap* per row ([`ScanKernel`], "The gap").
//!
//! # The step
//!
//! A set of columns has one `step`, chosen when it is built
//! ([`step_for`]: the smallest power of two under which the largest
//! distance of the build's matrix still gets a code) and **fixed for its
//! life** — forks, [`select`](PivotColumns::select) and appends keep it, and
//! a sharded engine hands every shard and its routing table the same one,
//! so a row moves between shards as it is and routing boxes are a pure
//! function of the stored codes. A power of two makes `x / step` and
//! `c · step` exact, so the code of a distance is its exact floor and the
//! bucket edges are exact f64s. The top code is open above
//! (`[65 535·step, ∞)`): a later insert farther from a pivot than anything
//! the build saw is stored *saturated* and stays admissible — it is merely
//! filtered less well.
//!
//! # One owner, clone shares, a writer copies what it writes
//!
//! Stored columns have value semantics and exactly one owner: a standalone
//! table, or one shard of a sharded engine — the unit a query is routed to
//! owns the bytes it scans. Each column is a [`CowVec`]: readers never
//! block (a scan is a pass over plain slices behind `Arc`s), a clone (what
//! an index fork is) shares every full chunk and copies the one partly
//! filled chunk per column — what a forked shard pays per commit — so a
//! [`PivotColumns::push_codes`] on it writes only memory it owns. The other
//! side never observes the write, and dropping an unpublished clone changes
//! nothing.
//!
//! Removal is handled *outside* the columns: rows of tombstoned objects
//! stay in place (ids remain row indices) and are simply never verified,
//! because liveness lives in the index's slot map ([`crate::ObjTable`]).
//! Under sustained churn those dead rows still cost lower-bound arithmetic
//! and cache space, which is what the engine's `compact()` reclaims: each
//! shard keeps [`select`](PivotColumns::select) of its survivors.

use crate::cow::CowVec;
use crate::distance::{dists_from, Metric};
use crate::lemmas::pivot_lower_bound;
use crate::object::Object;
use crate::simd::{self, SimdTier};

/// The top bucket code: open above, what a distance beyond `TOP · step`
/// saturates to.
const TOP: u16 = u16::MAX;

/// The step of a set of columns whose build saw distances up to `max`: the
/// smallest power of two with `max ≤ 65 535 · step`, so that every build-time
/// distance gets a code of its own bucket. A `max` that is not a positive
/// finite number (no rows, all-zero rows) gives 1.
pub fn step_for(max: f64) -> f64 {
    if !(max.is_finite() && max > 0.0) {
        return 1.0;
    }
    const EXPONENT: u64 = 0x7ff0_0000_0000_0000;
    let top = f64::from(TOP);
    // 2^⌊log₂(max / 65 535)⌋ by masking the mantissa off, then the at most
    // two doublings that cover `max`. `top * step` is exact.
    let mut step = f64::from_bits((max / top).to_bits() & EXPONENT).max(f64::MIN_POSITIVE);
    while top * step < max {
        step *= 2.0;
    }
    step
}

/// The code a distance is stored as: `min(⌊x / step⌋, 65 535)` — exact,
/// `step` being a power of two (so is the product with its reciprocal,
/// which keeps a division out of the build's per-value loop). The cast
/// saturates, which is the whole out-of-range rule: beyond the top bucket
/// (and `+∞`) is the top code, below zero and `NaN` — no distance — are
/// code 0.
#[inline]
pub fn quantise(x: f64, step: f64) -> u16 {
    (x * (1.0 / step)) as u16
}

/// The largest gap a radius admits: for every u16 `g`,
/// `g ≤ steps_within(r, step)` exactly when `f64::from(g) · step ≤ r`.
/// `step` is a power of two, so `r / step` is exact unless it leaves the
/// normal range, where the floor is 0 anyway (subnormal) or the cast
/// saturates (overflow); `+∞` and every radius from `65 535 · step` up
/// admit every gap. For a radius that is a distance: neither NaN nor
/// negative.
#[inline]
pub fn steps_within(r: f64, step: f64) -> u16 {
    debug_assert!(r >= 0.0, "a radius is a distance, not {r}");
    (r / step) as u16
}

/// The distances the codes `lo ..= hi` stand for: `[lo·step, hi·step +
/// step]`, open above at the top code; exact, `step` being a power of two.
#[inline]
fn bucket_edges(lo: u16, hi: u16, step: f64) -> (f64, f64) {
    let above = if hi == TOP {
        f64::INFINITY
    } else {
        f64::from(hi) * step + step
    };
    (f64::from(lo) * step, above)
}

/// Lemma 1 against the buckets `lo[j] ..= hi[j]`: the largest distance by
/// which some `qd[j]` lies outside them, 0 when it lies inside them all.
#[inline]
fn outside(qd: &[f64], lo: &[u16], hi: &[u16], step: f64) -> f64 {
    let mut m = 0.0f64;
    for ((&q, &l), &h) in qd.iter().zip(lo).zip(hi) {
        let (lo, hi) = bucket_edges(l, h, step);
        let (below, above) = (lo - q, q - hi);
        if below > m {
            m = below;
        }
        if above > m {
            m = above;
        }
    }
    m
}

/// Lemma 1 over a row stored as `codes` under `step`, against the *exact*
/// query map `qd`: the [`CodeBox::lower_bound`] of the box holding only
/// that row — the largest distance by which some `qd[j]` lies outside the
/// bucket of `codes[j]`. Every row the codes stand for is at least this far
/// from the query, so the bound is admissible; it gives back at most one
/// step of the exact `max_j |qd[j] − d_j|` where no code saturates — what a
/// tree leaf that stores its path distances as codes filters with.
#[inline]
pub fn code_lower_bound(qd: &[f64], codes: &[u16], step: f64) -> f64 {
    debug_assert_eq!(qd.len(), codes.len());
    outside(qd, codes, codes, step)
}

/// A box of stored rows: per pivot the smallest and the largest code of its
/// members, standing for the union of their buckets ([`edges`](Self::edges))
/// whatever order they came in, so it contains the exact map of every
/// member. Empty while some `lo > hi` (no member yet: bound `+∞`, prunes
/// everything); a zero-width box is never empty and bounds nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodeBox {
    lo: Vec<u16>,
    hi: Vec<u16>,
}

impl CodeBox {
    /// The empty box over `dim` pivots.
    pub fn empty(dim: usize) -> Self {
        CodeBox {
            lo: vec![TOP; dim],
            hi: vec![0; dim],
        }
    }

    /// Number of pivot dimensions.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Whether the box holds no row yet.
    pub fn is_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(l, h)| l > h)
    }

    /// Grows the box to hold one stored row.
    pub fn extend(&mut self, codes: impl IntoIterator<Item = u16>) {
        for ((c, lo), hi) in codes.into_iter().zip(&mut self.lo).zip(&mut self.hi) {
            *lo = (*lo).min(c);
            *hi = (*hi).max(c);
        }
    }

    /// Whether a stored row lies strictly inside the box on every dimension
    /// (`lo < c < hi`): it attains no face, so the box without it is the
    /// same box. The top code is never strictly inside.
    pub fn strictly_contains(&self, codes: impl IntoIterator<Item = u16>) -> bool {
        codes
            .into_iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(c, (&lo, &hi))| lo < c && c < hi)
    }

    /// The distances the box stands for under `step`, per dimension:
    /// `[lo·step, hi·step + step]`, open above at the top code.
    pub fn edges(&self, step: f64) -> impl Iterator<Item = (f64, f64)> + '_ {
        let (lo, hi) = (&self.lo, &self.hi);
        lo.iter()
            .zip(hi)
            .map(move |(&l, &h)| bucket_edges(l, h, step))
    }

    /// Lemma 1 against the box's edges under `step` for the exact query map
    /// `qd`: a lower bound on `d(q, o)` for every member `o`; `+∞` if empty.
    pub fn lower_bound(&self, qd: &[f64], step: f64) -> f64 {
        debug_assert_eq!(qd.len(), self.dim());
        if self.is_empty() {
            return f64::INFINITY;
        }
        outside(qd, &self.lo, &self.hi, step)
    }
}

/// Rows the block coder maps at a time: its f64 buffer is
/// `CODE_BLOCK · width` values a worker (160 KB at five pivots).
const CODE_BLOCK: usize = 4096;

/// The rows `0..rows` split evenly over `threads` (each run's `width`
/// values a row of `data`, row-major), or one run of every row when there
/// are fewer than two rows a thread: the one split of the matrix's rows
/// over workers, [`code_rows`]'s and [`PivotMatrix::compute`]'s.
fn even_runs<T>(
    rows: usize,
    width: usize,
    threads: usize,
    data: &mut [T],
) -> Vec<(std::ops::Range<usize>, &mut [T])> {
    let threads = threads.max(1);
    // `rows / 2 < threads` is `rows < 2 * threads` without the overflow.
    if rows / 2 < threads || width == 0 {
        return vec![(0..rows, data)];
    }
    let chunk = rows.div_ceil(threads);
    (0..rows)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(rows))
        .zip(data.chunks_mut(chunk * width))
        .collect()
}

/// The largest finite distance of `values` (0 without a positive one):
/// what [`step_for`] sizes a step from.
fn finite_max(values: &[f64]) -> f64 {
    // Eight running maxima: a single one is a chain of compares each
    // waiting on the last (6× the wall over 5·10⁶ values).
    let mut lanes = [0.0f64; 8];
    for chunk in values.chunks(lanes.len()) {
        for (m, &x) in lanes.iter_mut().zip(chunk) {
            if x > *m && x < f64::INFINITY {
                *m = x;
            }
        }
    }
    lanes.into_iter().fold(0.0, f64::max)
}

/// One block of [`code_rows`], coded under `step_for(max)`. When `max`
/// itself codes to the top, the top code also stands for a finite
/// distance, which a coarser step shifts like any other: `inf` then lists
/// where the block's `+∞` entries lie.
struct CodedBlock {
    max: f64,
    inf: Option<Vec<usize>>,
}

/// The `rows × width` distances `fill` writes, stored: their row-major
/// codes under their one step, the step being [`step_for`] the largest
/// finite distance — the codes and the step of the f64 matrix
/// ([`PivotMatrix::codes`] under [`PivotMatrix::step`]), bit for bit,
/// without ever holding it.
///
/// `fill(run, slots)` gets a contiguous run of row numbers and their
/// zeroed f64 row slots (`run.len() * width` values, row-major) and must
/// write row `i` from `i` alone. The rows are split evenly over `threads`
/// workers ([`fan_out`](crate::parallel::fan_out), the caller one of
/// them), or run as one when there are fewer than two rows a thread, and
/// each worker maps its run 4 096 rows at a time into one buffer
/// of its own, coding each block under the step of its own largest
/// distance. The shared step is that of the largest block maximum, and a
/// block whose step is `2^k` times finer is shifted right by `k`: for a
/// power of two, `⌊⌊x/s⌋ / 2^k⌋ = ⌊x / (2^k·s)⌋` exactly, so the codes
/// are the same for every thread count. `+∞` stays the top code; a shift
/// of 16 or more leaves 0.
pub fn code_rows<F>(rows: usize, width: usize, threads: usize, fill: F) -> (Vec<u16>, f64)
where
    F: Fn(std::ops::Range<usize>, &mut [f64]) + Sync,
{
    code_rows_by(CODE_BLOCK, rows, width, threads, fill)
}

/// [`code_rows`] in blocks of `block` rows.
fn code_rows_by<F>(
    block: usize,
    rows: usize,
    width: usize,
    threads: usize,
    fill: F,
) -> (Vec<u16>, f64)
where
    F: Fn(std::ops::Range<usize>, &mut [f64]) + Sync,
{
    let mut codes = vec![0u16; width * rows];
    let runs = even_runs(rows, width, threads, &mut codes);
    let blocks = crate::parallel::fan_out(runs, |(run, out)| {
        let mut buf = vec![0.0f64; block.min(run.len()) * width];
        let mut blocks = Vec::with_capacity(run.len().div_ceil(block));
        let outs = out.chunks_mut(block * width.max(1));
        for (start, out) in run.clone().step_by(block).zip(outs) {
            let end = (start + block).min(run.end);
            let vals = &mut buf[..(end - start) * width];
            vals.fill(0.0);
            fill(start..end, vals);
            let max = finite_max(vals);
            let step = step_for(max);
            for (c, &x) in out.iter_mut().zip(vals.iter()) {
                *c = quantise(x, step);
            }
            let inf = (max > 0.0 && quantise(max, step) == TOP).then(|| {
                (0..vals.len())
                    .filter(|&e| vals[e] == f64::INFINITY)
                    .collect()
            });
            blocks.push(CodedBlock { max, inf });
        }
        blocks
    });
    let step = step_for(blocks.iter().flatten().map(|b| b.max).fold(0.0, f64::max));
    let runs = even_runs(rows, width, threads, &mut codes);
    crate::parallel::fan_out(
        runs.into_iter().zip(blocks).collect(),
        |((_, out), blocks)| {
            for (out, coded) in out.chunks_mut(block * width.max(1)).zip(blocks) {
                // Both steps are normal powers of two: `k` is the difference of
                // their exponents. A block with no positive distance codes the
                // same under every step, so a coarser step of its own is no
                // shift. `⌊c / 2^16⌋` is 0 for every code, so a wider shift is
                // one of 16, and no shift overflows its lane.
                let exponent = |s: f64| (s.to_bits() >> 52) as u32;
                let k = exponent(step).saturating_sub(exponent(step_for(coded.max)));
                if k == 0 {
                    continue;
                }
                let (k, keep_top) = (k.min(16), coded.inf.is_none());
                for c in out.iter_mut() {
                    let shifted = (u32::from(*c) >> k) as u16;
                    *c = if keep_top && *c == TOP { TOP } else { shifted };
                }
                for &e in coded.inf.iter().flatten() {
                    out[e] = TOP;
                }
            }
        },
    );
    (codes, step)
}

/// The exact, row-major `n × l` matrix in f64: row `i` holds
/// `(d(o_i, p_1), …, d(o_i, p_l))` — the reference [`code_rows`] must
/// code bit for bit, and what the ruler computes by hand. No build holds
/// one; nothing keeps an f64 row.
#[derive(Clone, Debug, PartialEq)]
pub struct PivotMatrix {
    /// `data[i * width + j] = d(o_i, p_j)`.
    data: Vec<f64>,
    /// Number of pivots `l` (row stride). A width of 0 is allowed (no
    /// pivots): the matrix then has zero-length rows.
    width: usize,
    /// Number of rows `n` (tracked separately so `width == 0` still counts).
    rows: usize,
}

impl PivotMatrix {
    /// Computes the full `objects × pivots` matrix, fanning rows across
    /// `threads` workers, the caller one of them (1 ⇒ serial).
    /// Deterministic: the output is identical for every thread count, and
    /// with a [`CountingMetric`](crate::CountingMetric) exactly
    /// `objects.len() * pivots.len()` evaluations are counted.
    pub fn compute<O, M>(objects: &[O], metric: &M, pivots: &[O], threads: usize) -> Self
    where
        O: Object,
        M: Metric<O> + Sync,
    {
        let (rows, width) = (objects.len(), pivots.len());
        let mut data = vec![0.0f64; width * rows];
        let runs = even_runs(rows, width, threads, &mut data);
        crate::parallel::fan_out(runs, |(run, slots)| {
            for (slot, o) in slots.chunks_mut(width.max(1)).zip(&objects[run]) {
                let pivots = slot.iter_mut().zip(pivots.iter().map(|p| &**p));
                dists_from(metric, &**o, pivots, |x, d| *x = d);
            }
        });
        PivotMatrix { data, width, rows }
    }

    /// Builds a matrix from per-object rows (each of length `width`).
    pub fn from_rows<R: AsRef<[f64]>>(width: usize, rows: impl IntoIterator<Item = R>) -> Self {
        let (mut data, mut n) = (Vec::new(), 0);
        for r in rows {
            let r = r.as_ref();
            assert_eq!(r.len(), width, "row length must equal pivot count");
            data.extend_from_slice(r);
            n += 1;
        }
        PivotMatrix {
            data,
            width,
            rows: n,
        }
    }

    /// Number of rows `n`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of pivots `l` (the row stride).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `id` as a contiguous slice of `l` distances.
    #[inline]
    pub fn row(&self, id: usize) -> &[f64] {
        &self.data[id * self.width..(id + 1) * self.width]
    }

    /// The whole matrix as one flat row-major run.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Every distance stored under `step`, row-major: the one quantisation
    /// of a build's matrix.
    pub fn codes(&self, step: f64) -> Vec<u16> {
        self.data.iter().map(|&x| quantise(x, step)).collect()
    }

    /// The step to store these rows under: [`step_for`] the largest finite
    /// distance in the matrix.
    pub fn step(&self) -> f64 {
        step_for(finite_max(&self.data))
    }
}

/// The stored form of pivot distances: one planar (column-major) column of
/// u16 bucket codes per pivot — `column j` holds `⌊d(o_i, p_j) / step⌋`
/// (saturating) at index `i` — plus the one `step` they share (module
/// docs). Row ids are stable slot ids: rows are never removed (a tombstoned
/// slot keeps its row and its index skips it) until an engine-level
/// compaction [`select`](Self::select)s the survivors.
///
/// Cloning shares every full chunk of every column and copies the partly
/// filled one (`O(rows / chunk)` handles, at most one 8 KiB chunk per
/// column), and a clone that is then written to copies what it writes —
/// value semantics (module docs).
#[derive(Clone, Debug)]
pub struct PivotColumns {
    /// `cols[j][i]` is the code of `d(o_i, p_j)`. Every column chunks
    /// alike, so chunk `c` of each covers the same rows.
    cols: Vec<CowVec<u16>>,
    /// The bucket width, a power of two, fixed for the columns' life.
    step: f64,
    /// Number of rows (tracked separately so zero pivots still count).
    rows: usize,
}

impl PivotColumns {
    /// Empty columns over `width` pivots under `step` (a power of two —
    /// [`step_for`], or the step of the columns these will sit beside).
    fn new(width: usize, step: f64) -> Self {
        assert!(
            step > 0.0 && step.is_finite() && step.to_bits() << 12 == 0,
            "{step} is not a power of two"
        );
        PivotColumns {
            cols: vec![CowVec::new(); width],
            step,
            rows: 0,
        }
    }

    /// Columns over rows already stored under `step` (each `width` codes),
    /// in order — how a sharded build hands each shard its members' rows of
    /// the one coded matrix (a standalone table stores the whole of the
    /// matrix it computed: `PivotColumns::from(&matrix)`).
    pub fn from_codes<R: AsRef<[u16]>>(
        width: usize,
        step: f64,
        rows: impl IntoIterator<Item = R>,
    ) -> Self {
        // Rows are transposed a block at a time, so that each column takes
        // a slice instead of one push per value.
        const BLOCK: usize = 1024;
        let mut out = PivotColumns::new(width, step);
        let mut block = vec![0u16; width * BLOCK];
        let mut rows = rows.into_iter();
        loop {
            let mut n = 0;
            for row in rows.by_ref().take(BLOCK) {
                let row = row.as_ref();
                assert_eq!(row.len(), width, "row length must equal pivot count");
                for (j, &c) in row.iter().enumerate() {
                    block[j * BLOCK + n] = c;
                }
                n += 1;
            }
            for (col, codes) in out.cols.iter_mut().zip(block.chunks(BLOCK)) {
                col.extend_from_slice(&codes[..n]);
            }
            out.rows += n;
            if n < BLOCK {
                return out;
            }
        }
    }

    /// Number of rows (including rows of tombstoned objects).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of pivots `l`.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The bucket width every stored value is a multiple of.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Column `j`: the codes of every row against pivot `j`, in row order.
    pub fn column(&self, j: usize) -> &CowVec<u16> {
        &self.cols[j]
    }

    /// The codes of row `id`, pivot order.
    #[inline]
    pub fn codes(&self, id: usize) -> impl Iterator<Item = u16> + '_ {
        assert!(id < self.rows, "row {id} of {}", self.rows);
        self.cols.iter().map(move |c| c[id])
    }

    /// The stored values of row `id`, pivot order: each the lower edge of
    /// its bucket, `c · step`.
    #[inline]
    pub fn row(&self, id: usize) -> impl Iterator<Item = f64> + '_ {
        self.codes(id).map(move |c| f64::from(c) * self.step)
    }

    /// Appends one row already stored under this step, returning its row
    /// id. Never copies a chunk: a clone took its own copy of each column's
    /// partly filled one (module docs).
    pub fn push_codes(&mut self, codes: &[u16]) -> usize {
        assert_eq!(
            codes.len(),
            self.width(),
            "row length must equal pivot count"
        );
        for (col, &c) in self.cols.iter_mut().zip(codes) {
            col.push(c);
        }
        self.rows += 1;
        self.rows - 1
    }

    /// New columns holding the given rows of `self`, in `ids` order, code
    /// for code under the same step — the dense-survivor rebuild of a
    /// shard's compaction.
    pub fn select(&self, ids: &[u32]) -> Self {
        let mut out = PivotColumns::new(self.width(), self.step);
        for (to, from) in out.cols.iter_mut().zip(&self.cols) {
            for &id in ids {
                to.push(from[id as usize]);
            }
        }
        out.rows = ids.len();
        out
    }

    /// In-memory footprint in bytes: 2 per stored distance.
    pub fn mem_bytes(&self) -> u64 {
        2 * (self.rows * self.width()) as u64
    }

    /// Lemma 1 for **all** rows at once: `out[i]` is row `i`'s gap, the
    /// bound `g · step` in whole steps ([`ScanKernel`]), through the blocked
    /// kernel over each chunk of the columns. Rows of tombstoned slots are
    /// included — a gap is cheaper than a branch on liveness inside the
    /// kernel; the caller's slot map skips them in the verification pass.
    pub fn gaps_into(&self, qd: &[f64], out: &mut Vec<u16>) {
        self.gaps_with_tier(simd::tier(), qd, out);
    }

    /// [`gaps_into`](Self::gaps_into) pinned to an explicit SIMD tier, for
    /// the tier-agreement tests.
    pub(crate) fn gaps_with_tier(&self, tier: SimdTier, qd: &[f64], out: &mut Vec<u16>) {
        let w = self.width();
        debug_assert_eq!(qd.len(), w);
        out.clear();
        out.resize(self.rows, 0);
        if w == 0 {
            return;
        }
        // Column refs sit on the stack for the common pivot counts.
        let mut cstack: [&[u16]; 64] = [&[]; 64];
        let mut cheap: Vec<&[u16]> = Vec::new();
        let cols: &mut [&[u16]] = if w <= cstack.len() {
            &mut cstack[..w]
        } else {
            cheap.resize(w, &[]);
            &mut cheap
        };
        query_codes(qd, self.step, |qf| {
            let mut rest = out.as_mut_slice();
            for c in 0..self.cols[0].chunks().len() {
                for (s, col) in cols.iter_mut().zip(&self.cols) {
                    *s = col.chunk(c);
                }
                let (now, later) = rest.split_at_mut(cols[0].len());
                ScanKernel::fill_gaps(tier, qf, cols, now);
                rest = later;
            }
        });
    }

    /// [`gaps_into`](Self::gaps_into) for rows whose entries each name
    /// their own pivot (EPT): entry `j` of row `i` is compared with the
    /// query's code for pivot `pivots[j][i]` of `qd`, one gather per entry.
    pub fn gathered_gaps_into(&self, qd: &[f64], pivots: &[CowVec<u16>], out: &mut Vec<u16>) {
        assert_eq!(
            pivots.len(),
            self.width(),
            "one pivot column per code column"
        );
        out.clear();
        out.resize(self.rows, 0);
        query_codes(qd, self.step, |qf| {
            for (codes, ids) in self.cols.iter().zip(pivots) {
                let mut rest = out.as_mut_slice();
                for (codes, ids) in codes.chunks().zip(ids.chunks()) {
                    let (now, later) = rest.split_at_mut(codes.len());
                    for ((m, &c), &p) in now.iter_mut().zip(codes).zip(ids) {
                        *m = (*m).max(c.abs_diff(qf[usize::from(p)]));
                    }
                    rest = later;
                }
            }
        });
        for g in out.iter_mut() {
            *g = g.saturating_sub(1);
        }
    }
}

/// Runs `f` over the query's pivot distances moved to code space, once per
/// scan (on the stack for the common pivot counts). A query beyond the top
/// bucket saturates like a row does, which only loosens bounds.
fn query_codes(qd: &[f64], step: f64, f: impl FnOnce(&[u16])) {
    let mut stack = [0u16; 64];
    if qd.len() <= stack.len() {
        for (s, &q) in stack.iter_mut().zip(qd) {
            *s = quantise(q, step);
        }
        f(&stack[..qd.len()]);
    } else {
        f(&qd.iter().map(|&q| quantise(q, step)).collect::<Vec<_>>());
    }
}

impl From<&PivotMatrix> for PivotColumns {
    /// Every row of `matrix`, in row order, under the matrix's own
    /// [`step`](PivotMatrix::step).
    fn from(matrix: &PivotMatrix) -> Self {
        let (w, step) = (matrix.width(), matrix.step());
        let codes = matrix.codes(step);
        Self::from_codes(w, step, (0..matrix.rows()).map(|i| &codes[i * w..][..w]))
    }
}

/// The Lemma 1 pivot filter over whole tables: a lower bound on
/// `max_j |qd_j - row_j|` for every candidate row. One kernel runs, in code
/// space over the planar u16 columns every index stores
/// ([`PivotColumns::gaps_into`], the serving entry point), blocks of rows
/// at a time. Beside it sits one exact f64 oracle over flat row-major rows
/// ([`lower_bounds`](Self::lower_bounds): [`pivot_lower_bound`] row by
/// row), which the tests and the ruler's hand-made replica call and no
/// index scans.
///
/// # The gap
///
/// A scan's only per-row output is a u16 **gap** `g`, and the row's bound
/// is `g · step`. The kernel works on integers throughout: the query's
/// pivot distances are floored to codes once per scan, a row's
/// `m = max_j |c_j − qf_j|` is a saturating-subtract / OR / max reduction
/// in u16 lanes, and `g = (m − 1)⁺` — a row code `c` and a query code `qf`
/// put the two true distances strictly more than `(|c − qf| − 1) · step`
/// apart, whichever buckets' ends they sit at, and a saturated code on
/// either side only shrinks `m`. Integer arithmetic is exact, so every tier
/// produces **bit-identical** gaps by construction, with no slack to
/// subtract. A gap meets a radius in code space: `g · step ≤ r` is
/// `g ≤ steps_within(r, step)` ([`steps_within`]), exactly, and ordering
/// rows by `(g, slot)` is ordering them by `(g · step, slot)`; a bound is
/// never materialised as an f64 per row.
///
/// On x86-64 the code kernel dispatches once (cached, overridable via
/// `PMI_SIMD`) to explicit [`std::arch`] lanes — see [`crate::simd`] — with
/// the blocked code here as the portable fallback.
pub struct ScanKernel;

impl ScanKernel {
    /// The gap of row `r` of the slice whose column `j` is `cols[j]` — the
    /// tail every tier finishes its blocks with.
    #[inline(always)]
    pub(crate) fn row_gap(qf: &[u16], cols: &[&[u16]], r: usize) -> u16 {
        let mut m = 0u16;
        for (&q, col) in qf.iter().zip(cols) {
            m = m.max(q.abs_diff(col[r]));
        }
        m.saturating_sub(1)
    }

    /// The exact f64 oracle: the Lemma 1 bound of each of `n` contiguous
    /// rows of flat row-major storage (`rows.len() == n * qd.len()`),
    /// [`pivot_lower_bound`] row by row, written into `out` (cleared
    /// first). Zero pivots bound nothing: `n` zeros.
    pub fn lower_bounds(qd: &[f64], rows: &[f64], n: usize, out: &mut Vec<f64>) {
        let w = qd.len();
        out.clear();
        if w == 0 {
            out.resize(n, 0.0);
            return;
        }
        assert_eq!(rows.len(), n * w, "one row per bound");
        out.extend(rows.chunks_exact(w).map(|row| pivot_lower_bound(qd, row)));
    }

    /// The stored-code kernel into a slice: `out[i]` is the gap of row `i`
    /// of every column — `cols[j][i]` is row `i`'s code against pivot `j`,
    /// `qf[j]` the query's. Planar storage is what makes the narrow codes
    /// pay: every SIMD step is one contiguous load per column
    /// ([`PivotColumns`] keeps its columns in row order).
    fn fill_gaps(tier: SimdTier, qf: &[u16], cols: &[&[u16]], out: &mut [u16]) {
        /// Rows per step of the portable body: what LLVM turns into whole
        /// u16 vectors on any target.
        const BLOCK: usize = 16;
        let n = out.len();
        assert_eq!(cols.len(), qf.len(), "one column per pivot");
        assert!(cols.iter().all(|c| c.len() >= n), "one entry per row");
        match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch/pinning is gated on runtime AVX2 detection;
            // column lengths are checked above.
            SimdTier::Avx2 => unsafe { simd::x86::gaps_avx2(qf, cols, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is baseline on x86-64; lengths checked above.
            SimdTier::Sse2 => unsafe { simd::x86::gaps_sse2(qf, cols, out) },
            _ => {
                let mut i = 0;
                while i + BLOCK <= n {
                    let mut m = [0u16; BLOCK];
                    for (&q, col) in qf.iter().zip(cols) {
                        for (m, &c) in m.iter_mut().zip(&col[i..i + BLOCK]) {
                            *m = (*m).max(q.abs_diff(c));
                        }
                    }
                    for (o, &m) in out[i..i + BLOCK].iter_mut().zip(&m) {
                        *o = m.saturating_sub(1);
                    }
                    i += BLOCK;
                }
                for (r, o) in out.iter_mut().enumerate().skip(i) {
                    *o = Self::row_gap(qf, cols, r);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cow;
    use crate::datasets;
    use crate::distance::{CountingMetric, L2};
    use crate::lemmas::mbb_lower_bound;

    /// Columns over rows of distances, each stored under `step`.
    fn from_rows<R: AsRef<[f64]>>(
        width: usize,
        step: f64,
        rows: impl IntoIterator<Item = R>,
    ) -> PivotColumns {
        let codes: Vec<Vec<u16>> = (rows.into_iter())
            .map(|r| r.as_ref().iter().map(|&x| quantise(x, step)).collect())
            .collect();
        PivotColumns::from_codes(width, step, &codes)
    }

    /// Stores a row of distances under the columns' step and appends it.
    fn push_row(cols: &mut PivotColumns, row: &[f64]) -> usize {
        let codes: Vec<u16> = row.iter().map(|&x| quantise(x, cols.step())).collect();
        cols.push_codes(&codes)
    }

    /// What `x` reads back as under `step`: its bucket's lower edge.
    fn snap(x: f64, step: f64) -> f64 {
        f64::from(quantise(x, step)) * step
    }

    /// The f64 oracle of a bucket: the closed interval of true distances a
    /// stored lower edge `y` stands for, open above at the top bucket — what
    /// a box of f64 edges was widened by, row by row, before boxes held
    /// codes.
    fn stored_interval(y: f64, step: f64) -> (f64, f64) {
        let hi = if y >= f64::from(TOP) * step {
            f64::INFINITY
        } else {
            y + step
        };
        (y, hi)
    }

    #[test]
    fn compute_matches_serial_for_all_thread_counts() {
        let pts = datasets::la(500, 3);
        let pivots: Vec<Vec<f32>> = vec![pts[1].clone(), pts[99].clone(), pts[200].clone()];
        let serial = PivotMatrix::compute(&pts, &L2, &pivots, 1);
        assert_eq!(serial.rows(), 500);
        assert_eq!(serial.width(), 3);
        for threads in [0usize, 2, 4, 7, 64] {
            let par = PivotMatrix::compute(&pts, &L2, &pivots, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
        for (i, o) in pts.iter().enumerate().step_by(97) {
            for (j, p) in pivots.iter().enumerate() {
                assert_eq!(serial.row(i)[j], L2.dist(o, p));
            }
        }
    }

    #[test]
    fn compute_counts_exactly_n_times_l() {
        let pts = datasets::la(400, 5);
        let pivots: Vec<Vec<f32>> = vec![pts[0].clone(), pts[7].clone()];
        let metric = CountingMetric::new(L2);
        let _ = PivotMatrix::compute(&pts, &metric, &pivots, 4);
        assert_eq!(metric.count(), 400 * 2);
    }

    /// The coder over rows held in memory, `block` rows at a time.
    fn code_held_rows(
        block: usize,
        width: usize,
        threads: usize,
        rows: &[Vec<f64>],
    ) -> (Vec<u16>, f64) {
        code_rows_by(block, rows.len(), width, threads, |run, slots| {
            for (slot, i) in slots.chunks_mut(width.max(1)).zip(run) {
                slot.copy_from_slice(&rows[i]);
            }
        })
    }

    #[test]
    fn code_rows_shifts_a_finite_top_code_and_keeps_infinity_on_top() {
        // Block 0's own step is 1 and its maximum codes to the top beside
        // a `+∞`; block 1's is 4, the shared one, so block 0 shifts by two.
        let rows = [vec![65_535.0, f64::INFINITY], vec![262_140.0, 3.0]];
        for threads in 1..=3 {
            let (codes, step) = code_held_rows(1, 2, threads, &rows);
            assert_eq!(step, 4.0);
            assert_eq!(codes, [16_383, TOP, TOP, 0], "threads={threads}");
        }
        // The same counted through a metric: exactly `n · l` distances.
        let pts = datasets::la(9_000, 2);
        let pivots: Vec<Vec<f32>> = vec![pts[3].clone(), pts[4_500].clone()];
        let metric = CountingMetric::new(L2);
        let want = PivotMatrix::compute(&pts, &L2, &pivots, 1);
        let (codes, step) = code_rows(pts.len(), 2, 2, |run, slots| {
            for (slot, o) in slots.chunks_mut(2).zip(&pts[run]) {
                let pivots = slot.iter_mut().zip(pivots.iter().map(|p| &p[..]));
                dists_from(&metric, &o[..], pivots, |x, d| *x = d);
            }
        });
        assert_eq!(metric.count(), 9_000 * 2);
        assert_eq!((codes, step), (want.codes(want.step()), want.step()));
    }

    #[test]
    fn from_rows_lays_rows_out_flat_and_codes_them_in_place() {
        let m = PivotMatrix::from_rows(2, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.5]]);
        assert_eq!((m.rows(), m.width()), (3, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.5]);
        assert_eq!(m.codes(0.5), [2, 4, 6, 8, 10, 13]);
        assert_eq!(m.codes(2.0), [0, 1, 1, 2, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "row length must equal pivot count")]
    fn from_rows_rejects_a_ragged_row() {
        let _ = PivotMatrix::from_rows(2, [vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn zero_width_counts_rows() {
        let m = PivotMatrix::from_rows(0, [[0.0; 0]; 2]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[] as &[f64]);
        let pts = datasets::la(10, 1);
        let c = PivotMatrix::compute(&pts, &L2, &[], 4);
        assert_eq!(c.rows(), 10);
        assert_eq!(c.width(), 0);
        // Stored: rows count, nothing to scan, every gap is zero.
        let cols = PivotColumns::from(&c);
        assert_eq!((cols.rows(), cols.width(), cols.mem_bytes()), (10, 0, 0));
        let mut gaps = vec![1];
        cols.gaps_into(&[], &mut gaps);
        assert_eq!(gaps, vec![0; 10]);
        cols.gathered_gaps_into(&[], &[], &mut gaps);
        assert_eq!(gaps, vec![0; 10]);
    }

    #[test]
    #[should_panic]
    fn push_codes_rejects_wrong_width() {
        let mut m = PivotColumns::new(2, 1.0);
        m.push_codes(&[1]);
    }

    // -----------------------------------------------------------------
    // ScanKernel's f64 oracle: bit-for-bit the scalar lower bound.
    // -----------------------------------------------------------------

    #[test]
    fn the_f64_oracle_is_pivot_lower_bound_row_by_row_bit_for_bit() {
        // Widths including degenerate 0 and 1; row counts including 0.
        for w in [0usize, 1, 3, 5, 8, 21] {
            for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 130, 257] {
                // Deterministic pseudo-data with negative and repeated
                // values (no RNG needed).
                let rows: Vec<f64> = (0..n * w)
                    .map(|i| ((i * 37 % 101) as f64 - 50.0) * 0.75)
                    .collect();
                let qd: Vec<f64> = (0..w).map(|j| (j * 13 % 17) as f64 - 8.0).collect();
                let mut got = vec![1.0];
                ScanKernel::lower_bounds(&qd, &rows, n, &mut got);
                assert_eq!(got.len(), n, "w={w} n={n}");
                for (i, lb) in got.iter().enumerate() {
                    // Zero pivots: an empty row, whose bound is 0.
                    let want = pivot_lower_bound(&qd, &rows[i * w..(i + 1) * w]);
                    assert_eq!(lb.to_bits(), want.to_bits(), "w={w} n={n} row {i}");
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // PivotColumns: the stored form.
    // -----------------------------------------------------------------

    #[test]
    fn the_step_is_the_smallest_power_of_two_that_codes_the_maximum() {
        for max in [
            1e-300, 0.001, 0.75, 1.0, 31.9, 32.0, 14_143.0, 16_383.75, 16_383.76, 65_535.0,
            65_535.5, 1e9, 1e300,
        ] {
            let step = step_for(max);
            assert_eq!(step.to_bits() << 12, 0, "{step} is a power of two");
            assert!(max <= 65_535.0 * step, "{max} has no code under {step}");
            assert!(max > 65_535.0 * (step / 2.0), "{step} is not the smallest");
        }
        assert_eq!(step_for(16_383.75), 0.25);
        assert_eq!(step_for(16_383.76), 0.5);
        // Nothing to size from: 1.
        for max in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert_eq!(step_for(max), 1.0);
        }
        // A matrix sizes from its largest finite distance.
        let m = PivotMatrix::from_rows(2, [[1.0, f64::INFINITY], [f64::NAN, 100.0]]);
        assert_eq!(m.step(), step_for(100.0));
        assert_eq!(PivotMatrix::from_rows(3, [[0.0; 3]; 0]).step(), 1.0);
    }

    #[test]
    fn stored_intervals_contain_what_they_stand_for() {
        // On an edge, inside a bucket, the last bucket with an upper edge,
        // the first distance of the open top bucket, far beyond it, +∞.
        for step in [0.25, 1.0, 8.0] {
            let top = 65_535.0 * step;
            for x in [
                0.0,
                step,
                step * 0.999,
                3.3 * step,
                top - step,
                top - step / 3.0,
                top,
                top + step / 2.0,
                1e12,
                f64::INFINITY,
            ] {
                let y = snap(x, step);
                let (lo, hi) = stored_interval(y, step);
                assert!(lo <= x && x <= hi, "{x} outside [{lo}, {hi}]");
                assert_eq!(lo, y);
                assert_eq!(y % step, 0.0, "a stored value is a multiple of the step");
                if x < top {
                    assert_eq!(hi, lo + step, "one bucket, no more");
                } else {
                    assert_eq!((lo, hi), (top, f64::INFINITY), "saturated");
                }
                // A stored value stores as itself: rows move between
                // columns of one step unchanged.
                assert_eq!(snap(y, step), y);
            }
        }
        // No distance: the bottom code.
        assert_eq!(snap(f64::NAN, 0.5), 0.0);
        assert_eq!(snap(-7.0, 0.5), 0.0);
    }

    #[test]
    fn the_step_survives_every_mutation_path() {
        let mut m = PivotColumns::from(&PivotMatrix::from_rows(2, [[1.0, 8.0], [2.5, 3.0]]));
        let step = step_for(8.0);
        assert_eq!((m.rows(), m.width(), m.step()), (2, 2, step));
        assert_eq!(m.mem_bytes(), 4 * 2, "two bytes per stored distance");
        assert_eq!(m.row(0).collect::<Vec<_>>(), [1.0, 8.0]);

        // A push stores under the same step, saturating beyond the top
        // bucket; 0.3 is stored as the edge under it.
        assert_eq!(push_row(&mut m, &[0.3, 1e6]), 2);
        assert_eq!(
            m.row(2).collect::<Vec<_>>(),
            [snap(0.3, step), 65_535.0 * step]
        );
        assert!(0.3 - snap(0.3, step) < step);

        // select keeps codes and step.
        let s = m.select(&[2, 0]);
        assert_eq!((s.rows(), s.step()), (2, step));
        assert!(s.row(0).eq(m.row(2)) && s.row(1).eq(m.row(0)));

        // A push on a clone is the clone's alone.
        let mut forked = m.clone();
        push_row(&mut forked, &[4.0, 4.0]);
        assert_eq!((forked.rows(), forked.step()), (4, step));
        assert_eq!(m.rows(), 3, "the pinned side is untouched");

        // Integers above 65 535 need a step that no longer divides 1.
        let wide = PivotColumns::from(&PivotMatrix::from_rows(1, [[70_000.0]]));
        assert_eq!(wide.step(), 2.0);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn a_step_that_is_no_power_of_two_is_refused() {
        let _ = PivotColumns::new(2, 0.3);
    }

    /// Agreement of two column sets' gaps for one query.
    fn assert_same_bounds(got: &PivotColumns, want: &PivotColumns, qd: &[f64], ctx: &str) {
        let (mut g, mut w) = (Vec::new(), Vec::new());
        got.gaps_into(qd, &mut g);
        want.gaps_into(qd, &mut w);
        assert_eq!(g, w, "{ctx}");
    }

    #[test]
    fn scans_span_every_chunk_and_survive_forks_bit_for_bit() {
        // Enough rows for three chunks per column, re-pinned along the way
        // so partly filled chunks get copied. Oracle: fresh columns over
        // the same rows.
        let chunk = CowVec::<u16>::CHUNK;
        let total = 2 * chunk + 17;
        let row = |i: usize| [(i * 37 % 101) as f64, (i * 53 % 211) as f64 * 1.375];
        let qd = [3.0f64, 41.5];
        let step = 0.125;
        let flat = from_rows(2, step, (0..total).map(row));
        let mut grown = from_rows(2, step, (0..300).map(row));
        let mut pin = grown.clone();
        for i in 300..total {
            push_row(&mut grown, &row(i));
            if i % 700 == 0 {
                pin = grown.clone();
            }
        }
        assert!(pin.rows() < total && grown.cols[0].chunks().len() == 3);
        assert_same_bounds(&grown, &flat, &qd, "grown under pins");
        let pinned = from_rows(2, step, (0..pin.rows()).map(row));
        assert_same_bounds(&pin, &pinned, &qd, "the pinned clone");
        let ids: Vec<u32> = (0..total as u32).rev().step_by(3).collect();
        let selected = from_rows(2, step, ids.iter().map(|&i| row(i as usize)));
        assert_same_bounds(&grown.select(&ids), &selected, &qd, "select");
    }

    #[test]
    fn a_push_on_a_clone_copies_at_most_one_chunk_per_column() {
        let chunk = CowVec::<u16>::CHUNK;
        let rows = (0..3 * chunk + 100).map(|i| [i as f64, (i / 2) as f64]);
        let first = from_rows(2, 1.0, rows);
        let before = cow::copied_bytes();
        let mut second = first.clone();
        second.push_codes(&[7, 8]);
        // The clone copied each column's 100-value last chunk; the push
        // found it owned.
        assert_eq!(cow::copied_bytes() - before, 2 * 100 * 2);
        assert_eq!(
            (first.rows(), second.rows()),
            (3 * chunk + 100, 3 * chunk + 101)
        );
        assert_eq!(second.row(3 * chunk + 100).collect::<Vec<_>>(), [7.0, 8.0]);
        assert_eq!(second.row(99).collect::<Vec<_>>(), [99.0, 49.0]);
    }

    #[test]
    fn stored_bounds_are_admissible_on_real_data() {
        let pts = datasets::la(500, 7);
        let pivots: Vec<Vec<f32>> = vec![pts[3].clone(), pts[90].clone(), pts[222].clone()];
        let exact = PivotMatrix::compute(&pts, &L2, &pivots, 1);
        let stored = PivotColumns::from(&exact);
        let step = stored.step();
        let qd: Vec<f64> = pivots.iter().map(|p| L2.dist(&pts[42], p)).collect();
        let mut gaps = Vec::new();
        stored.gaps_into(&qd, &mut gaps);
        assert_eq!(gaps.len(), 500);
        let mut truths = Vec::new();
        ScanKernel::lower_bounds(&qd, exact.as_slice(), exact.rows(), &mut truths);
        for (i, (&g, &truth)) in gaps.iter().zip(&truths).enumerate() {
            let lb = f64::from(g) * step;
            assert!(lb <= truth, "row {i}: stored bound {lb} > true {truth}");
            // And not uselessly loose: within two buckets of the truth.
            assert!(truth - lb < 2.0 * step, "row {i} too loose");
            // The by-hand form: floors of the query and of the row, one
            // step of overlap given back.
            let m = exact
                .row(i)
                .iter()
                .zip(&qd)
                .map(|(x, q)| ((x / step).floor() - (q / step).floor()).abs())
                .fold(0.0, f64::max);
            assert_eq!(lb, (m - 1.0).max(0.0) * step, "row {i}");
            // What the row reads back as stands for the exact row.
            for (y, &x) in stored.row(i).zip(exact.row(i)) {
                let (lo, hi) = stored_interval(y, step);
                assert!(lo <= x && x <= hi, "row {i}");
            }
        }
        // A permuted selection agrees per row.
        let index: Vec<u32> = (0..500u32).map(|i| (i * 7) % 500).collect();
        let mut pgaps = Vec::new();
        stored.select(&index).gaps_into(&qd, &mut pgaps);
        for (i, &id) in index.iter().enumerate() {
            assert_eq!(pgaps[i], gaps[id as usize]);
        }
        // Entries that name their own pivots: each row's columns against
        // the pivots `ids` names are a row of the shared-pivot table over
        // the query's distances in that order.
        let ids: Vec<CowVec<u16>> = (0..3u16)
            .map(|j| (0..500).map(|i| (j + i) % 3).collect())
            .collect();
        stored.gathered_gaps_into(&qd, &ids, &mut pgaps);
        for (i, &g) in pgaps.iter().enumerate() {
            let order: Vec<f64> = ids.iter().map(|c| qd[usize::from(c[i])]).collect();
            let mut want = Vec::new();
            stored.select(&[i as u32]).gaps_into(&order, &mut want);
            assert_eq!(g, want[0], "row {i}");
        }
    }

    use proptest::prelude::*;

    /// `(cell, frac)`: the distance `(cell + frac / 1024) · step` — inside
    /// the coded range, on a bucket edge, in the top bucket or far beyond.
    fn offset() -> impl Strategy<Value = (u32, u32)> {
        prop_oneof![
            4 => (0u32..65_535, 0u32..1024),
            2 => (0u32..65_535).prop_map(|cell| (cell, 0)),
            1 => (65_535u32..65_600, 0u32..1024),
            1 => (65_600u32..10_000_000, 0u32..1024),
        ]
    }

    /// `n` rows of `width` distances for the coder, from `seed`: each row
    /// at one scale from a random range of six, 2^-1000 to 2^1000 (so a
    /// block's own step can lie 16 and more doublings below the shared
    /// one), all zero, all `+∞`, or mixed — `+∞`, NaN, negatives, zeros,
    /// exactly `65 535` times the scale (a maximum that codes to the top
    /// under its own step) and anything below twice that.
    fn coder_rows(seed: u64, n: usize, width: usize) -> Vec<Vec<f64>> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        const SCALES: [i32; 6] = [-1000, -40, -17, 0, 16, 1000];
        let mut rng = StdRng::seed_from_u64(seed);
        let lo = rng.random_range(0..SCALES.len());
        let hi = rng.random_range(lo..SCALES.len());
        let pow2 = |e: i32| f64::from_bits(((e + 1023) as u64) << 52);
        (0..n)
            .map(|_| {
                let scale = pow2(SCALES[rng.random_range(lo..=hi)]);
                let kind = rng.random_range(0..8u32);
                (0..width)
                    .map(|_| match (kind, rng.random_range(0..10u32)) {
                        (0, _) => 0.0,
                        (1, _) | (_, 0) => f64::INFINITY,
                        (_, 1) => f64::NAN,
                        (_, 2) => -0.5 - rng.random::<f64>(),
                        (_, 3) => 65_535.0 * scale,
                        (_, 4) => 0.0,
                        _ => rng.random::<f64>() * 131_070.0 * scale,
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The block coder stores exactly what the f64 matrix stores: its
        /// codes under its step, bit for bit — at widths 0 to 6, row counts
        /// of 0, below the thread count and off any multiple of the block,
        /// 1 to 3 threads, blocks of one row up to [`CODE_BLOCK`], and
        /// every edge of the shift ([`coder_rows`]): a finite maximum on
        /// the top code beside `+∞`, NaN and negatives, all-zero and
        /// all-`∞` blocks whose own step lies above the shared one, and
        /// blocks shifted by 16 and more.
        #[test]
        fn code_rows_codes_the_f64_matrix_bit_for_bit(
            seed in any::<u64>(),
            width in 0usize..=6,
            n in prop_oneof![0usize..=3, 4usize..64, 4_090usize..4_100, 8_190usize..8_200],
            threads in 1usize..=3,
            block in prop_oneof![1usize..=5, CODE_BLOCK..=CODE_BLOCK],
        ) {
            let rows = coder_rows(seed, n, width);
            let want = PivotMatrix::from_rows(width, &rows);
            let (codes, step) = code_held_rows(block, width, threads, &rows);
            prop_assert_eq!(step.to_bits(), want.step().to_bits());
            prop_assert_eq!(codes, want.codes(want.step()));
        }

        /// Random columns under a random step, rows and queries inside the
        /// coded range, in the open top bucket and far beyond it: every
        /// tier (and the gathered scan) returns the same gaps, each bound
        /// `gap · step` admissible
        /// against the exact f64 oracle over the un-bucketed rows, and —
        /// where neither side saturates — within two steps of it, so a
        /// kernel that is silently loose fails too.
        #[test]
        fn code_kernel_tiers_agree_and_bracket_the_exact_bound(
            width in 1usize..=8,
            n in 0usize..200,
            step_exp in -10i32..=4,
            cells in prop::collection::vec((0u32..70_000, 0u32..1000), 8 * 200),
            query in prop::collection::vec((0u32..140_000, 0u32..1000), 8),
        ) {
            let step = 2f64.powi(step_exp);
            let value = |&(cell, frac): &(u32, u32)| (f64::from(cell) + f64::from(frac) / 1000.0) * step;
            let rows: Vec<f64> = cells[..n * width].iter().map(value).collect();
            let qd: Vec<f64> = query[..width].iter().map(value).collect();
            let stored = from_rows(width, step, rows.chunks(width));
            let mut exact = Vec::new();
            ScanKernel::lower_bounds(&qd, &rows, n, &mut exact);
            let top = 65_535.0 * step;
            let query_coded = qd.iter().all(|&q| q < top);
            let mut want = Vec::new();
            stored.gaps_with_tier(SimdTier::Portable, &qd, &mut want);
            for (i, (&g, &truth)) in want.iter().zip(&exact).enumerate() {
                let lb = f64::from(g) * step;
                prop_assert!(lb <= truth, "row {}: {} > exact {}", i, lb, truth);
                let row_coded = rows[i * width..][..width].iter().all(|&x| x < top);
                if query_coded && row_coded {
                    prop_assert!(lb > truth - 2.0 * step, "row {}: {} loose of {}", i, lb, truth);
                }
            }
            for tier in simd::available_tiers() {
                let mut got = Vec::new();
                stored.gaps_with_tier(tier, &qd, &mut got);
                prop_assert_eq!(&got, &want, "{:?}", tier);
            }
            // Every entry naming its own column's pivot is the same scan.
            let ids: Vec<CowVec<u16>> = (0..width as u16).map(|j| vec![j; n].into()).collect();
            let mut got = Vec::new();
            stored.gathered_gaps_into(&qd, &ids, &mut got);
            prop_assert_eq!(&got, &want, "gathered");
        }

        /// A gap meets a radius in code space, exactly: for every u16 gap
        /// `g`, `g ≤ steps_within(r, step)` ⇔ `f64::from(g) · step ≤ r`,
        /// over power-of-two steps from 2⁻¹⁰²² up, and radii of 0,
        /// subnormal, exact multiples of the step and one ulp either side,
        /// from the top code `65 535 · step` up, and `+∞`.
        #[test]
        fn code_kernel_steps_within_is_exact_for_every_gap(
            step_exp in -1022i32..=1000,
            kind in 0u8..7,
            cell in 0u32..70_000,
            tiny in 1u64..1 << 52,
        ) {
            // 2^step_exp, built from its exponent bits.
            let step = f64::from_bits(((step_exp + 1023) as u64) << 52);
            let multiple = f64::from(cell) * step;
            let r = match kind {
                0 => 0.0,
                1 => f64::from_bits(tiny),
                2 => multiple,
                3 => multiple.next_up(),
                4 => multiple.next_down().max(0.0),
                5 => f64::from(65_535 + cell) * step,
                _ => f64::INFINITY,
            };
            let within = steps_within(r, step);
            for g in 0..=u16::MAX {
                prop_assert_eq!(
                    g <= within,
                    f64::from(g) * step <= r,
                    "g {} step 2^{} r {:e}", g, step_exp, r
                );
            }
        }

        /// A tree leaf's bound over points on a line: the object at 0, the
        /// pivots and the query at dyadic offsets either side of it, so
        /// every distance and difference is exact. It is never above the
        /// exact Lemma 1 bound `max_j |qd_j − d_j|`, which is never above
        /// `d(q, o)`; and where no code saturates it is at most one step
        /// below the exact bound, so a silently loose leaf filter fails too.
        /// (Exactly one step when the distance sits on its bucket's lower
        /// edge and the query lies above the bucket: the code cannot tell
        /// that distance from one just under the upper edge.)
        #[test]
        fn code_lower_bound_is_admissible_and_within_one_step(
            depth in 1usize..=8,
            step_exp in -10i32..=8,
            pivots in prop::collection::vec((0u8..2, offset()), 8),
            query in (0u8..2, offset()),
        ) {
            let step = 2f64.powi(step_exp);
            let at = |&(side, (cell, frac)): &(u8, (u32, u32))| {
                let x = (f64::from(cell) + f64::from(frac) / 1024.0) * step;
                if side == 0 { x } else { -x }
            };
            let q = at(&query);
            let pivots: Vec<f64> = pivots[..depth].iter().map(at).collect();
            let d: Vec<f64> = pivots.iter().map(|p| p.abs()).collect();
            let qd: Vec<f64> = pivots.iter().map(|p| (q - p).abs()).collect();
            let codes: Vec<u16> = d.iter().map(|&x| quantise(x, step)).collect();
            let bound = code_lower_bound(&qd, &codes, step);
            let exact = qd.iter().zip(&d).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            prop_assert!(bound >= 0.0);
            prop_assert!(bound <= exact, "{} > exact {}", bound, exact);
            prop_assert!(exact <= q.abs(), "{} > d(q, o) {}", exact, q.abs());
            if codes.iter().all(|&c| c < TOP) {
                prop_assert!(bound >= exact - step, "{} loose of {}", bound, exact);
            }
        }

        /// A box of codes against the f64 form it replaced, bit for bit:
        /// rows of codes that reach 0 and the top code, zero to four of them
        /// (none: the empty box), widths 0 to 6, power-of-two steps. Its
        /// bound is `mbb_lower_bound` over the union of the rows' f64
        /// buckets (`+∞` when empty), for a query inside, outside, beyond
        /// the top bucket or at `+∞`; each row's `code_lower_bound` is the
        /// bound of the box holding that row alone; the box is the same
        /// whatever order its rows came in; and `strictly_contains` is the
        /// f64 face test — the bucket strictly inside the edges — for the
        /// rows and for a probe row of its own.
        #[test]
        fn code_lower_bound_of_a_box_is_mbb_lower_bound_over_its_edges(
            width in 0usize..=6,
            n in 0usize..=4,
            step_exp in -8i32..=6,
            codes in prop::collection::vec(
                prop_oneof![2 => 0u16..=3, 4 => 0u16..=u16::MAX, 2 => 65_532u16..=u16::MAX],
                6 * 5,
            ),
            query in prop::collection::vec(
                prop_oneof![4 => 0.0f64..70_000.0, 1 => 65_534.0f64..65_537.0, 1 => 1e6f64..1e9],
                6,
            ),
            infinite in 0usize..12,
        ) {
            let step = 2f64.powi(step_exp);
            let rows: Vec<&[u16]> = codes.chunks(width.max(1)).take(n).map(|r| &r[..width]).collect();
            let probe = &codes[codes.len() - width..];
            let mut qd: Vec<f64> = query[..width].iter().map(|&x| x * step).collect();
            if let Some(q) = qd.get_mut(infinite) {
                *q = f64::INFINITY;
            }
            let mut b = CodeBox::empty(width);
            for row in &rows {
                b.extend(row.iter().copied());
            }
            let mut rev = CodeBox::empty(width);
            for row in rows.iter().rev() {
                rev.extend(row.iter().copied());
            }
            prop_assert_eq!(&b, &rev);
            prop_assert_eq!(b.is_empty(), n == 0 && width > 0);

            // The f64 box: per dimension the union of the rows' buckets.
            let (mut lo, mut hi) = (vec![f64::INFINITY; width], vec![f64::NEG_INFINITY; width]);
            for row in &rows {
                for (j, &c) in row.iter().enumerate() {
                    let (below, above) = stored_interval(f64::from(c) * step, step);
                    lo[j] = lo[j].min(below);
                    hi[j] = hi[j].max(above);
                }
            }
            let want = if b.is_empty() { f64::INFINITY } else { mbb_lower_bound(&qd, &lo, &hi) };
            prop_assert_eq!(b.lower_bound(&qd, step).to_bits(), want.to_bits(), "{:?} {:?}", b, qd);
            if !b.is_empty() {
                let edges: Vec<(f64, f64)> = b.edges(step).collect();
                let f64_edges: Vec<(f64, f64)> = lo.iter().copied().zip(hi.iter().copied()).collect();
                prop_assert_eq!(
                    edges.iter().map(|(l, h)| (l.to_bits(), h.to_bits())).collect::<Vec<_>>(),
                    f64_edges.iter().map(|(l, h)| (l.to_bits(), h.to_bits())).collect::<Vec<_>>()
                );
            }
            for row in rows.iter().chain([&probe]) {
                let mut one = CodeBox::empty(width);
                one.extend(row.iter().copied());
                prop_assert_eq!(
                    code_lower_bound(&qd, row, step).to_bits(),
                    one.lower_bound(&qd, step).to_bits()
                );
                let inside = row.iter().enumerate().all(|(j, &c)| {
                    let (below, above) = stored_interval(f64::from(c) * step, step);
                    lo[j] < below && above < hi[j]
                });
                prop_assert_eq!(b.strictly_contains(row.iter().copied()), inside, "{:?} in {:?}", row, b);
            }
        }
    }
}
