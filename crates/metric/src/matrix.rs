//! The pivot-distance matrix: the paper's central `n × l` object.
//!
//! Every pivot-based index is, at its core, a view over the matrix
//! `A[i][j] = d(o_i, p_j)`. Historically each index in this workspace
//! recomputed (and re-stored) its own copy as `Vec<Option<Vec<f64>>>` — one
//! heap allocation and one pointer chase per object on every Lemma 1 scan.
//! [`PivotMatrix`] stores the matrix once, flat and row-major, so that
//!
//! * it can be **built once, in parallel** ([`PivotMatrix::compute`], on the
//!   same scoped-thread worker pool as [`crate::parallel`]), clustered over
//!   by the router and then split among the shards of a sharded engine
//!   ([`PivotMatrix::select`]),
//! * Lemma 1 scanning is a branch-light sequential pass over contiguous
//!   memory ([`PivotMatrix::row`] is a plain slice), and
//! * the per-object lower-bound filter runs through a cache-blocked,
//!   auto-vectorizable [`ScanKernel`] instead of one function call per row.
//!
//! # One owner, clone shares, a writer copies what it writes
//!
//! A matrix has value semantics and exactly one owner: a standalone table,
//! or one shard of a sharded engine, which holds its members' rows in
//! local-slot order — the unit a query is routed to owns the bytes it
//! scans. The discipline:
//!
//! * **Readers never block.** A scan is a pass over plain slices behind
//!   `Arc`s: no lock, no atomic read-modify-write, no indirection.
//! * **Clone shares.** The rows present at build (or left by a compaction)
//!   are one flat allocation behind an `Arc` — the run the scan kernel
//!   streams — and every row pushed since a clone pinned that run lives in
//!   fixed-size *tail chunks*, each behind its own `Arc`. A clone (what an
//!   index fork is) bumps those `Arc`s and copies nothing.
//! * **A writer copies what it writes.** [`PivotMatrix::push_row`] extends
//!   the flat run in place while nobody else holds it; once a clone does,
//!   the row goes to the tail, and the one partly filled chunk is copied
//!   first if the clone still reads it. The other side never observes the
//!   write, and dropping an unpublished clone changes nothing.
//!
//! Removal is handled *outside* the matrix: rows of tombstoned objects stay
//! in place (ids remain row indices) and are simply never verified, because
//! liveness lives in the index's slot map ([`crate::ObjTable`]). Under
//! sustained churn those dead rows still cost lower-bound arithmetic and
//! cache space, which is what compaction (driven by the engine's
//! `CompactionPolicy`) reclaims: each shard keeps
//! [`select`](PivotMatrix::select) of its survivors — one flat run again.

use crate::cow::{self, CowVec};
use crate::distance::Metric;
use crate::simd::{self, SimdTier};
use std::sync::Arc;

/// Storage precision of the *filter* columns the scan kernel reads.
///
/// Exact distances are always f64; the column mode only controls what the
/// Lemma 1 lower-bound kernel streams through. Under [`ColumnMode::F32`]
/// a [`PivotMatrix`] keeps a **planar** (column-major) f32 mirror of its
/// rows for the kernel — half the bytes per row, twice the SIMD lanes per
/// register, one contiguous load per column and step — and
/// admissibility is preserved by subtracting a conservative rounding
/// slack from every computed bound (see [`PivotMatrix::f32_slack`]): a
/// bound can only get *smaller*, which costs an occasional extra exact
/// check but can never drop a true result, so serve results stay
/// byte-identical to the f64 engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ColumnMode {
    /// Filter columns are the exact f64 distances (the default).
    #[default]
    F64,
    /// Filter columns are a planar f32 mirror with slack-adjusted
    /// (admissible) lower bounds; exact distances stay f64.
    F32,
}

impl ColumnMode {
    /// Human-readable label (`"f64"` / `"f32"`).
    pub fn label(&self) -> &'static str {
        match self {
            ColumnMode::F64 => "f64",
            ColumnMode::F32 => "f32",
        }
    }
}

/// Safety factor applied on top of the worst-case f32 rounding error when
/// deriving the admissibility slack (see [`PivotMatrix::f32_slack`]).
pub const F32_SLACK_FACTOR: f64 = 4.0;

/// Rows per tail chunk: a write to a matrix a clone still reads copies at
/// most this many rows (10 KB at five pivots — a commit pays it once per
/// touched shard), and a scan makes one kernel call per chunk.
const TAIL_ROWS: usize = 256;

/// A row-major `n × l` pivot-distance matrix with stable row ids: one flat
/// base run plus the chunked tail of rows pushed since a clone pinned that
/// run (module docs).
///
/// Row `i` holds `(d(o_i, p_1), …, d(o_i, p_l))`. Rows are never removed —
/// indexes with tombstoned deletion keep the row and skip it via their slot
/// map — so row indices are stable slot ids for the lifetime of the index
/// (until an explicit engine-level compaction renumbers them wholesale).
///
/// Under [`ColumnMode::F32`] the matrix also keeps the representation the
/// kernel streams: a **planar** (column-major) f32 mirror of its rows, kept
/// in step by [`push_row`](Self::push_row), plus the running max magnitude
/// that sizes the admissibility slack. The f64 rows remain authoritative —
/// [`select`](Self::select) and [`set_mode`](Self::set_mode) re-derive the
/// mirror from them.
///
/// Cloning shares the base, every tail chunk and every full mirror chunk
/// (`O(rows / chunk)` handles), and a clone that is then written to copies
/// what it writes — value semantics.
#[derive(Clone, Debug, Default)]
pub struct PivotMatrix {
    /// The flat run, row-major: `base[i * width + j] = d(o_i, p_j)` for
    /// `i < base_rows`. [`push_row`](Self::push_row) grows it only while
    /// no clone shares it and no tail exists.
    base: Arc<Vec<f64>>,
    /// Rows in `base` (tracked separately so `width == 0` still counts).
    base_rows: usize,
    /// Rows `base_rows..rows`, [`TAIL_ROWS`] to a chunk (see the module
    /// docs). Cloning the matrix shares `base` and every chunk.
    tail: Vec<Arc<Vec<f64>>>,
    /// Under [`ColumnMode::F32`]: the rows as **planar** (column-major)
    /// f32 columns — `cols32[j][i]` is `row(i)[j] as f32` — so the f32
    /// kernel streams one contiguous load per column. Empty under
    /// [`ColumnMode::F64`].
    cols32: Vec<CowVec<f32>>,
    /// Running `max |d|` over every stored distance, maintained only under
    /// [`ColumnMode::F32`] (it sizes the rounding slack).
    max_abs: f64,
    /// Which representation the lower-bound kernel reads.
    mode: ColumnMode,
    /// Number of pivots `l` (row stride). A width of 0 is allowed (no
    /// pivots): the matrix then has zero-length rows.
    width: usize,
    /// Number of rows `n`, base and tail.
    rows: usize,
}

/// Row-wise equality: where a row is stored (base or tail) is not part of
/// a matrix's value.
impl PartialEq for PivotMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
            && self.rows == other.rows
            && self.mode == other.mode
            && self.max_abs == other.max_abs
            && (0..self.rows).all(|i| self.row(i) == other.row(i))
    }
}

impl PivotMatrix {
    /// An empty matrix over `width` pivots.
    pub fn new(width: usize) -> Self {
        PivotMatrix {
            width,
            ..PivotMatrix::default()
        }
    }

    /// An empty matrix with capacity reserved for `rows` rows.
    pub fn with_capacity(width: usize, rows: usize) -> Self {
        PivotMatrix {
            base: Arc::new(Vec::with_capacity(width * rows)),
            ..PivotMatrix::new(width)
        }
    }

    /// Computes the full `objects × pivots` matrix, fanning rows across
    /// `threads` scoped worker threads (1 ⇒ serial). Deterministic: the
    /// output is identical for every thread count, and with a
    /// [`CountingMetric`](crate::CountingMetric) exactly
    /// `objects.len() * pivots.len()` evaluations are counted.
    pub fn compute<O, M>(objects: &[O], metric: &M, pivots: &[O], threads: usize) -> Self
    where
        O: Sync,
        M: Metric<O> + Sync,
    {
        let width = pivots.len();
        Self::fill_with(objects, width, threads, |objs, slots| {
            for (slot, o) in slots.chunks_mut(width.max(1)).zip(objs) {
                for (x, p) in slot.iter_mut().zip(pivots) {
                    *x = metric.dist(o, p);
                }
            }
        })
    }

    /// The one chunked fill: an `objects.len() × width` matrix whose rows
    /// `fill` writes. `fill(run, slots)` gets a contiguous run of objects
    /// and their zeroed row slots (`run.len() * width` values, row-major)
    /// — the whole input on the calling thread, or one run per scoped
    /// worker when `threads > 1`. Row `i` depends on `objects[i]` alone, so
    /// the result is the same for every thread count.
    pub fn fill_with<O, F>(objects: &[O], width: usize, threads: usize, fill: F) -> Self
    where
        O: Sync,
        F: Fn(&[O], &mut [f64]) + Sync,
    {
        let rows = objects.len();
        let mut data = vec![0.0f64; width * rows];
        let threads = threads.max(1);
        if threads == 1 || rows < 2 * threads || width == 0 {
            fill(objects, &mut data);
        } else {
            let chunk = rows.div_ceil(threads);
            let fill = &fill;
            crossbeam::thread::scope(|s| {
                for (slots, run) in data.chunks_mut(chunk * width).zip(objects.chunks(chunk)) {
                    s.spawn(move |_| fill(run, slots));
                }
            })
            .expect("matrix worker thread panicked");
        }
        PivotMatrix {
            base: Arc::new(data),
            base_rows: rows,
            rows,
            ..PivotMatrix::new(width)
        }
    }

    /// Builds a matrix from per-object rows (each of length `width`).
    pub fn from_rows<R: AsRef<[f64]>>(width: usize, rows: impl IntoIterator<Item = R>) -> Self {
        let rows = rows.into_iter();
        let mut m = PivotMatrix::with_capacity(width, rows.size_hint().0);
        for r in rows {
            m.push_row(r.as_ref());
        }
        m
    }

    /// Which representation the lower-bound kernel reads.
    pub fn mode(&self) -> ColumnMode {
        self.mode
    }

    /// Switches the filter-column mode, (re)deriving the f32 mirror and the
    /// max magnitude that sizes its slack from the stored distances. Cheap
    /// on an empty matrix; `O(n·l)` otherwise.
    pub fn with_mode(mut self, mode: ColumnMode) -> Self {
        self.set_mode(mode);
        self
    }

    /// In-place form of [`with_mode`](Self::with_mode).
    pub fn set_mode(&mut self, mode: ColumnMode) {
        let (mut cols, mut max_abs) = (Vec::new(), 0.0f64);
        if mode == ColumnMode::F32 {
            cols = vec![CowVec::new(); self.width];
            for i in 0..self.rows {
                for (col, &x) in cols.iter_mut().zip(self.row(i)) {
                    // The one rounding the slack formula accounts for.
                    col.push(x as f32);
                    max_abs = max_abs.max(x.abs());
                }
            }
        }
        self.mode = mode;
        self.cols32 = cols;
        self.max_abs = max_abs;
    }

    /// Appends one row to the tail, un-sharing the last chunk first if a
    /// clone still reads it.
    fn push_tail(&mut self, row: &[f64]) {
        if (self.rows - self.base_rows).is_multiple_of(TAIL_ROWS) {
            let chunk = Vec::with_capacity(TAIL_ROWS * self.width);
            self.tail.push(Arc::new(chunk));
        }
        let last = self.tail.last_mut().expect("a chunk was just ensured");
        if Arc::get_mut(last).is_none() {
            let mut own = Vec::with_capacity(TAIL_ROWS * self.width);
            own.extend_from_slice(last);
            cow::note_copied(8 * own.len());
            *last = Arc::new(own);
        }
        Arc::get_mut(last)
            .expect("the chunk was just made uniquely owned")
            .extend_from_slice(row);
    }

    /// Number of rows `n` (including rows of tombstoned objects).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of pivots `l` (the row stride).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `id` as a contiguous slice of `l` distances.
    #[inline]
    pub fn row(&self, id: usize) -> &[f64] {
        let w = self.width;
        if id < self.base_rows {
            &self.base[id * w..(id + 1) * w]
        } else {
            let t = id - self.base_rows;
            &self.tail[t / TAIL_ROWS][t % TAIL_ROWS * w..(t % TAIL_ROWS + 1) * w]
        }
    }

    /// Appends one row, returning its row id. A sole owner that has opened
    /// no tail extends the flat base in place (amortized `O(l)`, the
    /// builder path); a matrix whose base a clone shares appends to the
    /// tail instead, copying at most the one partly filled chunk — what a
    /// forked shard pays per commit (module docs).
    pub fn push_row(&mut self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.width, "row length must equal pivot count");
        match Arc::get_mut(&mut self.base) {
            Some(base) if self.tail.is_empty() => {
                base.extend_from_slice(row);
                self.base_rows += 1;
            }
            _ => self.push_tail(row),
        }
        self.rows += 1;
        if self.mode == ColumnMode::F32 {
            for (col, &x) in self.cols32.iter_mut().zip(row) {
                col.push(x as f32);
                self.max_abs = self.max_abs.max(x.abs());
            }
        }
        self.rows - 1
    }

    /// A new matrix holding the given rows of `self`, in `ids` order, as
    /// one flat run in `self`'s mode — how a sharded build hands each shard
    /// its part of the one precomputed matrix, and the dense-survivor
    /// rebuild of a shard's compaction.
    pub fn select(&self, ids: &[u32]) -> Self {
        let mut data = Vec::with_capacity(self.width * ids.len());
        for &id in ids {
            data.extend_from_slice(self.row(id as usize));
        }
        let mut out = PivotMatrix {
            base: Arc::new(data),
            base_rows: ids.len(),
            rows: ids.len(),
            ..PivotMatrix::new(self.width)
        };
        out.set_mode(self.mode);
        out
    }

    /// The whole matrix as one flat row-major run — what every matrix
    /// that was computed, selected or built row by row by its sole owner
    /// is.
    ///
    /// # Panics
    ///
    /// If rows were pushed while a clone shared the base: they live in tail
    /// chunks, and the base alone would be a silently truncated matrix.
    pub fn as_slice(&self) -> &[f64] {
        assert!(self.tail.is_empty(), "rows were pushed past a shared base");
        &self.base
    }

    /// Running `max |d(o_i, p_j)|` over every stored distance (0 unless the
    /// mode is [`ColumnMode::F32`], where it sizes the rounding slack).
    pub fn max_abs(&self) -> f64 {
        self.max_abs
    }

    /// The admissibility slack subtracted from every f32-computed bound for
    /// a query whose pivot distances have max magnitude `qd_max_abs`.
    ///
    /// Worst-case error of the f32 bound vs the true f64 bound
    /// `max_j |qd_j − row_j|`: rounding each operand to f32 perturbs it by
    /// at most `½·ε₃₂·|operand|`, and the f32 subtraction adds at most
    /// `½·ε₃₂` of the result's magnitude (≤ the operand magnitudes' sum),
    /// so each `|qd_j − row_j|` term is off by at most about
    /// `ε₃₂·(|qd_j| + |row_j|)`; `max` never amplifies error. Subtracting
    /// `F32_SLACK_FACTOR · ε₃₂ · (max|row| + max|qd|)` therefore guarantees
    /// the adjusted bound never exceeds the true bound — with a 4× margin —
    /// and the kernel clamps at zero (degenerate inputs such as overflow to
    /// `±∞` or `NaN` produce a zero bound, i.e. a full exact scan, never an
    /// inadmissible one).
    pub fn f32_slack(&self, qd_max_abs: f64) -> f64 {
        F32_SLACK_FACTOR * (f32::EPSILON as f64) * (self.max_abs + qd_max_abs)
    }

    /// Iterates `(row id, row)` over every row (tombstoned or not).
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, &[f64])> {
        (0..self.rows).map(|i| (i, self.row(i)))
    }

    /// In-memory footprint of the matrix in bytes: the f64 rows, plus the
    /// planar f32 mirror under [`ColumnMode::F32`].
    pub fn mem_bytes(&self) -> u64 {
        let per_distance = match self.mode {
            ColumnMode::F64 => 8,
            ColumnMode::F32 => 12,
        };
        per_distance * (self.rows * self.width) as u64
    }

    /// Lemma 1 lower bounds for **all** rows at once, through the blocked
    /// [`ScanKernel`] (f64: the contiguous kernel over the base run, then
    /// over each tail chunk; f32: the planar kernel over the mirror), into
    /// a reused buffer. Rows of tombstoned slots are included — computing
    /// their bound is cheaper than branching on liveness inside the
    /// kernel; the caller's slot map skips them in the verification pass.
    pub fn lower_bounds_into(&self, qd: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(qd.len(), self.width);
        let tier = simd::tier();
        let w = self.width;
        out.clear();
        out.resize(self.rows, 0.0);
        if qd.is_empty() {
            return;
        }
        match self.mode {
            ColumnMode::F64 => {
                let (head, mut rest) = out.split_at_mut(self.base_rows);
                ScanKernel::fill(tier, qd, &self.base, head);
                for chunk in &self.tail {
                    let (now, later) = rest.split_at_mut(chunk.len() / w);
                    ScanKernel::fill(tier, qd, chunk, now);
                    rest = later;
                }
            }
            ColumnMode::F32 => {
                // Round the query's pivot distances once per scan; the
                // admissibility slack covers this rounding plus the
                // columns' (see `f32_slack`).
                let mut qmax = 0.0f64;
                let mut qstack = [0.0f32; 64];
                let qheap: Vec<f32>;
                let qd32: &[f32] = if w <= qstack.len() {
                    for (s, q) in qstack.iter_mut().zip(qd) {
                        *s = *q as f32;
                        let a = q.abs();
                        if a > qmax {
                            qmax = a;
                        }
                    }
                    &qstack[..w]
                } else {
                    qheap = qd
                        .iter()
                        .map(|q| {
                            let a = q.abs();
                            if a > qmax {
                                qmax = a;
                            }
                            *q as f32
                        })
                        .collect();
                    &qheap
                };
                let slack = self.f32_slack(qmax);
                // Every column chunks alike, so chunk `c` of each column
                // covers the same rows. Column refs sit on the stack for
                // the common pivot counts.
                let mut cstack: [&[f32]; 64] = [&[]; 64];
                let mut cheap: Vec<&[f32]> = Vec::new();
                let cols: &mut [&[f32]] = if w <= cstack.len() {
                    &mut cstack[..w]
                } else {
                    cheap.resize(w, &[]);
                    &mut cheap
                };
                let mut rest = out.as_mut_slice();
                for c in 0..self.cols32[0].chunks().len() {
                    for (s, col) in cols.iter_mut().zip(&self.cols32) {
                        *s = col.chunk(c);
                    }
                    let (now, later) = rest.split_at_mut(cols[0].len());
                    ScanKernel::fill_f32(tier, qd32, cols, slack, now);
                    rest = later;
                }
            }
        }
    }
}

/// The cache-blocked, branchless pivot-filter kernel: computes the Lemma 1
/// lower bound `max_j |qd_j - row_j|` for whole *blocks* of candidate rows
/// at once over the flat row-major storage, instead of one
/// [`pivot_lower_bound`](crate::lemmas::pivot_lower_bound) call per row.
///
/// Processing [`ScanKernel::LANES`] rows per step keeps that many
/// independent `max` dependency chains in flight (the scalar loop is a
/// single serial chain of `l` compare-selects per row) and lets LLVM
/// auto-vectorize the fixed-stride inner loop; there is no per-row slot
/// branch, no `Option` unwrap, and no enumeration overhead inside the
/// block. The arithmetic is *identical* to the scalar path — `|a − b|` and
/// `max` are exact and each row's reduction runs in the same pivot order —
/// so blocked results equal scalar results **bit for bit** (unit-tested
/// below), which is what lets every index route its filter through the
/// kernel without changing a single exact counter.
///
/// On x86-64 the public entry points dispatch once (cached, overridable via
/// `PMI_SIMD`) to explicit [`std::arch`] lanes — see [`crate::simd`] — with
/// this blocked code as the portable fallback. Every tier produces
/// bit-identical bounds: `|a − b|` is one correctly-rounded op, `abs` is
/// exact, and a `max` reduction over non-negative finite values is exact in
/// any association, so SIMD dispatch is invisible to results and counters
/// (tier-agreement is unit-tested per tier).
pub struct ScanKernel;

/// `max(x, +0.0)` with the exact semantics of `_mm_max_pd(x, 0)`: `+0.0`
/// for negative, `±0` and `NaN` inputs. Keeping one copy shared by the
/// portable f32 path and every SIMD remainder loop is load-bearing for
/// tier bit-identity.
#[inline(always)]
pub(crate) fn clamp_pos(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

/// Widens an f32 row-max to f64 and applies the admissibility slack (the
/// one adjustment formula every f32 tier shares — see
/// [`PivotMatrix::f32_slack`]).
#[inline(always)]
pub(crate) fn adjust_f32(m: f32, slack: f64) -> f64 {
    clamp_pos(m as f64 - slack)
}

impl ScanKernel {
    /// Rows processed per unrolled step (independent max-chains in flight).
    pub const LANES: usize = 4;

    #[inline(always)]
    pub(crate) fn row_max(qd: &[f64], row: &[f64]) -> f64 {
        let mut m = 0.0f64;
        for (q, x) in qd.iter().zip(row) {
            let d = (q - x).abs();
            m = if d > m { d } else { m };
        }
        m
    }

    /// The f32 per-row reduction over planar columns: row `r` of the slice
    /// whose column `j` is `cols[j]`. Pivot order (`j` ascending) and max
    /// semantics match [`row_max`](Self::row_max), which is what keeps
    /// every f32 tier bit-identical to the scalar reference.
    #[inline(always)]
    pub(crate) fn row_max_f32_planar(qd: &[f32], cols: &[&[f32]], r: usize) -> f32 {
        let mut m = 0.0f32;
        for (q, col) in qd.iter().zip(cols) {
            let d = (q - col[r]).abs();
            m = if d > m { d } else { m };
        }
        m
    }

    /// The portable tier's 4-lane reduction: four independent
    /// `max |q - x|` chains over four rows of width `qd.len()`, each in the
    /// pivot order of [`row_max`](Self::row_max) — bit-identical bounds.
    #[inline(always)]
    fn block_max(qd: &[f64], r0: &[f64], r1: &[f64], r2: &[f64], r3: &[f64]) -> [f64; 4] {
        let (mut m0, mut m1, mut m2, mut m3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for ((((q, x0), x1), x2), x3) in qd.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            let d0 = (q - x0).abs();
            let d1 = (q - x1).abs();
            let d2 = (q - x2).abs();
            let d3 = (q - x3).abs();
            m0 = if d0 > m0 { d0 } else { m0 };
            m1 = if d1 > m1 { d1 } else { m1 };
            m2 = if d2 > m2 { d2 } else { m2 };
            m3 = if d3 > m3 { d3 } else { m3 };
        }
        [m0, m1, m2, m3]
    }

    /// Lower bounds for `n` contiguous rows of flat row-major storage
    /// (`rows.len() == n * qd.len()`), written into `out` (cleared first).
    /// Dispatches once to the best available SIMD tier (`PMI_SIMD`
    /// overridable); every tier is bit-identical.
    pub fn lower_bounds(qd: &[f64], rows: &[f64], n: usize, out: &mut Vec<f64>) {
        Self::lower_bounds_with_tier(simd::tier(), qd, rows, n, out);
    }

    /// [`lower_bounds`](Self::lower_bounds) pinned to an explicit SIMD tier
    /// (tier-agreement tests and the kernel bench; serving uses the cached
    /// [`simd::tier`] dispatch).
    pub fn lower_bounds_with_tier(
        tier: SimdTier,
        qd: &[f64],
        rows: &[f64],
        n: usize,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(n, 0.0);
        Self::fill(tier, qd, rows, out);
    }

    /// The contiguous kernel into a slice: `out[i]` is the bound of row `i`
    /// of `rows` (`rows.len() == out.len() * qd.len()`). Zero pivots bound
    /// nothing: `out` is left as the caller zeroed it.
    fn fill(tier: SimdTier, qd: &[f64], rows: &[f64], out: &mut [f64]) {
        let w = qd.len();
        if w == 0 {
            return;
        }
        assert_eq!(rows.len(), out.len() * w, "one row per bound");
        match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch/pinning is gated on runtime AVX2 detection;
            // slice lengths are checked above.
            SimdTier::Avx2 => unsafe { simd::x86::lb_f64_avx2(qd, rows, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is baseline on x86-64; lengths checked above.
            SimdTier::Sse2 => unsafe { simd::x86::lb_f64_sse2(qd, rows, out) },
            _ => {
                let mut blocks = rows.chunks_exact(Self::LANES * w);
                let mut outs = out.chunks_exact_mut(Self::LANES);
                for (block, o) in (&mut blocks).zip(&mut outs) {
                    let (r0, rest) = block.split_at(w);
                    let (r1, rest) = rest.split_at(w);
                    let (r2, r3) = rest.split_at(w);
                    o.copy_from_slice(&Self::block_max(qd, r0, r1, r2, r3));
                }
                let tail = blocks.remainder().chunks_exact(w);
                for (row, o) in tail.zip(outs.into_remainder()) {
                    *o = Self::row_max(qd, row);
                }
            }
        }
    }

    /// f32 filter columns: lower bounds for `n` rows of **planar**
    /// (column-major) storage — `cols[j][i]` is row `i`'s f32 distance to
    /// pivot `j` — **slack-adjusted** into admissible f64 bounds
    /// (`clamp_pos(m − slack)`, see [`PivotMatrix::f32_slack`]) so callers
    /// compare them against f64 radii/thresholds unchanged.
    ///
    /// Planar storage is what makes the f32 mode pay: every SIMD step is
    /// one contiguous load per column (a [`PivotMatrix`] keeps its rows'
    /// columns in row order).
    pub fn lower_bounds_f32(qd: &[f32], cols: &[&[f32]], n: usize, slack: f64, out: &mut Vec<f64>) {
        Self::lower_bounds_f32_with_tier(simd::tier(), qd, cols, n, slack, out);
    }

    /// [`lower_bounds_f32`](Self::lower_bounds_f32) pinned to an explicit
    /// SIMD tier.
    pub fn lower_bounds_f32_with_tier(
        tier: SimdTier,
        qd: &[f32],
        cols: &[&[f32]],
        n: usize,
        slack: f64,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(n, 0.0);
        Self::fill_f32(tier, qd, cols, slack, out);
    }

    /// The planar f32 kernel into a slice: `out[i]` is the slack-adjusted
    /// bound of row `i` of every column.
    fn fill_f32(tier: SimdTier, qd: &[f32], cols: &[&[f32]], slack: f64, out: &mut [f64]) {
        let w = qd.len();
        if w == 0 {
            return;
        }
        let n = out.len();
        assert_eq!(cols.len(), w, "one column per pivot");
        assert!(cols.iter().all(|c| c.len() >= n), "one entry per row");
        match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch/pinning is gated on runtime AVX2 detection;
            // column lengths are checked above.
            SimdTier::Avx2 => unsafe { simd::x86::lb_f32_planar_avx2(qd, cols, slack, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is baseline on x86-64; lengths checked above.
            SimdTier::Sse2 => unsafe { simd::x86::lb_f32_planar_sse2(qd, cols, slack, out) },
            _ => {
                let mut i = 0;
                while i + Self::LANES <= n {
                    let mut m = [0.0f32; Self::LANES];
                    for (q, col) in qd.iter().zip(cols) {
                        for (m, &x) in m.iter_mut().zip(&col[i..i + Self::LANES]) {
                            let d = (q - x).abs();
                            *m = if d > *m { d } else { *m };
                        }
                    }
                    for (o, &m) in out[i..i + Self::LANES].iter_mut().zip(&m) {
                        *o = adjust_f32(m, slack);
                    }
                    i += Self::LANES;
                }
                for (r, o) in out.iter_mut().enumerate().skip(i) {
                    *o = adjust_f32(Self::row_max_f32_planar(qd, cols, r), slack);
                }
            }
        }
    }

    /// The scalar reference: one [`pivot_lower_bound`]-style reduction per
    /// row, no blocking. Exists for the bit-for-bit kernel tests and the
    /// blocked-vs-scalar throughput bench; indexes use the blocked paths.
    ///
    /// [`pivot_lower_bound`]: crate::lemmas::pivot_lower_bound
    pub fn lower_bounds_scalar(qd: &[f64], rows: &[f64], n: usize, out: &mut Vec<f64>) {
        let w = qd.len();
        out.clear();
        if w == 0 {
            out.resize(n, 0.0);
            return;
        }
        debug_assert_eq!(rows.len(), n * w);
        out.extend(rows.chunks_exact(w).map(|row| Self::row_max(qd, row)));
    }

    /// The f32 scalar reference over planar columns (slack-adjusted like
    /// every f32 path).
    pub fn lower_bounds_scalar_f32(
        qd: &[f32],
        cols: &[&[f32]],
        n: usize,
        slack: f64,
        out: &mut Vec<f64>,
    ) {
        let w = qd.len();
        out.clear();
        if w == 0 {
            out.resize(n, 0.0);
            return;
        }
        debug_assert_eq!(cols.len(), w);
        out.extend((0..n).map(|r| adjust_f32(Self::row_max_f32_planar(qd, cols, r), slack)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::distance::{CountingMetric, L2};
    use crate::lemmas::pivot_lower_bound;

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

    #[test]
    fn push_select_roundtrip() {
        let mut m = PivotMatrix::new(2);
        assert!(m.is_empty());
        assert_eq!(m.push_row(&[1.0, 2.0]), 0);
        assert_eq!(m.push_row(&[3.0, 4.0]), 1);
        assert_eq!(m.push_row(&[5.0, 6.0]), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let s = m.select(&[2, 0]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.row(0), &[5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0]);
        assert_eq!(m.as_slice().len(), 6);
        assert_eq!(m.mem_bytes(), 48);
        let rows: Vec<_> = m.iter_rows().collect();
        assert_eq!(rows[2], (2, [5.0, 6.0].as_slice()));
    }

    #[test]
    fn from_rows_matches_push() {
        let m = PivotMatrix::from_rows(2, [[1.0, 2.0], [3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn zero_width_matrix_counts_rows() {
        let mut m = PivotMatrix::new(0);
        m.push_row(&[]);
        m.push_row(&[]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[] as &[f64]);
        let pts = datasets::la(10, 1);
        let c = PivotMatrix::compute(&pts, &L2, &[], 4);
        assert_eq!(c.rows(), 10);
        assert_eq!(c.width(), 0);
    }

    #[test]
    #[should_panic]
    fn push_row_rejects_wrong_width() {
        let mut m = PivotMatrix::new(2);
        m.push_row(&[1.0]);
    }

    // -----------------------------------------------------------------
    // ScanKernel: bit-for-bit equality with the scalar lower bound.
    // -----------------------------------------------------------------

    #[test]
    fn blocked_kernel_equals_scalar_bit_for_bit() {
        // Sizes straddling the block width, including remainders; widths
        // including degenerate 0 and 1.
        for w in [0usize, 1, 3, 5, 21] {
            for n in [0usize, 1, 3, 4, 5, 63, 64, 65, 257] {
                // Deterministic pseudo-data with negative and repeated
                // values (no RNG needed).
                let rows: Vec<f64> = (0..n * w)
                    .map(|i| ((i * 37 % 101) as f64 - 50.0) * 0.75)
                    .collect();
                let qd: Vec<f64> = (0..w).map(|j| (j * 13 % 17) as f64 - 8.0).collect();
                let mut blocked = Vec::new();
                let mut scalar = Vec::new();
                ScanKernel::lower_bounds(&qd, &rows, n, &mut blocked);
                ScanKernel::lower_bounds_scalar(&qd, &rows, n, &mut scalar);
                assert_eq!(blocked.len(), n);
                for i in 0..n {
                    assert_eq!(
                        blocked[i].to_bits(),
                        scalar[i].to_bits(),
                        "w={w} n={n} row {i}: blocked != scalar"
                    );
                    if w > 0 {
                        let want = pivot_lower_bound(&qd, &rows[i * w..(i + 1) * w]);
                        assert_eq!(blocked[i].to_bits(), want.to_bits(), "vs lemmas");
                    }
                }
            }
        }
    }

    #[test]
    fn every_simd_tier_matches_the_portable_reference_bit_for_bit() {
        // f64: all tiers vs the scalar reference, across widths and block
        // remainders.
        for tier in simd::available_tiers() {
            for w in [1usize, 3, 5, 8, 21] {
                for n in [1usize, 2, 3, 7, 8, 9, 63, 64, 65, 130] {
                    let rows: Vec<f64> = (0..n * w)
                        .map(|i| ((i * 37 % 101) as f64 - 50.0) * 0.75)
                        .collect();
                    let qd: Vec<f64> = (0..w).map(|j| (j * 13 % 17) as f64 - 8.0).collect();
                    let mut want = Vec::new();
                    ScanKernel::lower_bounds_scalar(&qd, &rows, n, &mut want);
                    let mut got = Vec::new();
                    ScanKernel::lower_bounds_with_tier(tier, &qd, &rows, n, &mut got);
                    assert_eq!(got.len(), n);
                    for i in 0..n {
                        assert_eq!(
                            got[i].to_bits(),
                            want[i].to_bits(),
                            "{tier:?} w={w} n={n} row {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn f32_tiers_agree_and_stay_admissible() {
        for tier in simd::available_tiers() {
            for w in [1usize, 4, 5, 9] {
                for n in [1usize, 5, 8, 9, 16, 17, 64, 131] {
                    let rows64: Vec<f64> = (0..n * w)
                        .map(|i| ((i * 53 % 211) as f64 - 100.0) * 1.375)
                        .collect();
                    // Planar columns, rounded the same way slices round.
                    let cols_own: Vec<Vec<f32>> = (0..w)
                        .map(|j| (0..n).map(|i| rows64[i * w + j] as f32).collect())
                        .collect();
                    let cols: Vec<&[f32]> = cols_own.iter().map(|c| c.as_slice()).collect();
                    let qd64: Vec<f64> = (0..w)
                        .map(|j| ((j * 29 % 31) as f64 - 15.0) * 1.1)
                        .collect();
                    let qd32: Vec<f32> = qd64.iter().map(|&x| x as f32).collect();
                    let max_abs = rows64.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                    let qmax = qd64.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                    let slack = F32_SLACK_FACTOR * (f32::EPSILON as f64) * (max_abs + qmax);
                    let mut want = Vec::new();
                    ScanKernel::lower_bounds_scalar_f32(&qd32, &cols, n, slack, &mut want);
                    let mut got = Vec::new();
                    ScanKernel::lower_bounds_f32_with_tier(tier, &qd32, &cols, n, slack, &mut got);
                    assert_eq!(got.len(), n);
                    for i in 0..n {
                        assert_eq!(
                            got[i].to_bits(),
                            want[i].to_bits(),
                            "{tier:?} w={w} n={n} row {i}"
                        );
                        // Admissible: never above the true f64 bound.
                        let truth = ScanKernel::row_max(&qd64, &rows64[i * w..(i + 1) * w]);
                        assert!(
                            got[i] <= truth,
                            "{tier:?} w={w} n={n} row {i}: f32 bound {} > true {truth}",
                            got[i]
                        );
                        assert!(got[i] >= 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn f32_max_abs_tracks_every_mutation_path() {
        let m = PivotMatrix::from_rows(2, [[1.0, -8.0], [2.5, 3.0]]).with_mode(ColumnMode::F32);
        assert_eq!(m.mode(), ColumnMode::F32);
        assert_eq!(m.max_abs(), 8.0);
        assert_eq!(m.mem_bytes(), 4 * 12, "f64 rows plus the f32 mirror");

        // push_row extends the max.
        let mut m = m;
        m.push_row(&[-9.5, 0.25]);
        assert_eq!(m.max_abs(), 9.5);

        // select inherits the mode and recomputes the (tighter) max.
        let s = m.select(&[0, 1]);
        assert_eq!(s.mode(), ColumnMode::F32);
        assert_eq!(s.max_abs(), 8.0);

        // A push past a pinned base (the tail path) tracks too.
        let mut forked = m.clone();
        forked.push_row(&[100.0, -1.0]);
        assert_eq!(forked.max_abs(), 100.0);
        assert_eq!(m.max_abs(), 9.5, "the pinned side is untouched");

        // Dropping back to F64 resets the (unused) max and the mirror.
        let back = forked.with_mode(ColumnMode::F64);
        assert_eq!(back.max_abs(), 0.0);
        assert_eq!(back.mem_bytes(), 8 * 8);
    }

    /// Bit-for-bit agreement of two matrices' bounds for one query.
    fn assert_same_bounds(got: &PivotMatrix, want: &PivotMatrix, qd: &[f64], ctx: &str) {
        let (mut g, mut w) = (Vec::new(), Vec::new());
        got.lower_bounds_into(qd, &mut g);
        want.lower_bounds_into(qd, &mut w);
        assert_eq!(g.len(), w.len(), "{ctx}");
        for (i, (g, w)) in g.iter().zip(&w).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: row {i}");
        }
    }

    #[test]
    fn f32_planar_columns_track_matrix_mutations() {
        // Under F32 the scan reads the planar mirror; it must track a sole
        // owner's push, a push past a pinned clone, select and set_mode.
        // Equality oracle: a fresh matrix over the same rows (derives its
        // mirror from scratch).
        let qd = [3.0f64, -1.0];
        let check = |m: &PivotMatrix, ctx: &str| {
            let fresh =
                PivotMatrix::from_rows(2, m.iter_rows().map(|(_, r)| r)).with_mode(ColumnMode::F32);
            assert_same_bounds(m, &fresh, &qd, ctx);
        };
        let mut m = PivotMatrix::from_rows(2, [[0.0, 1.0], [10.0, -3.0], [4.0, 4.0], [-2.0, 7.0]])
            .with_mode(ColumnMode::F32);
        check(&m, "set_mode");
        m.push_row(&[5.0, 5.0]);
        check(&m, "sole-owner push");
        let pin = m.clone();
        m.push_row(&[-6.0, 2.0]);
        check(&m, "push past a pinned clone");
        check(&pin, "the pinned clone");
        assert_eq!((pin.rows(), m.rows()), (5, 6));
        check(&m.select(&[5, 0, 2]), "select");
    }

    #[test]
    fn f32_bounds_are_admissible_on_real_data() {
        let pts = datasets::la(500, 7);
        let pivots: Vec<Vec<f32>> = vec![pts[3].clone(), pts[90].clone(), pts[222].clone()];
        let m64 = PivotMatrix::compute(&pts, &L2, &pivots, 1);
        let m32 = m64.clone().with_mode(ColumnMode::F32);
        let qd: Vec<f64> = pivots.iter().map(|p| L2.dist(&pts[42], p)).collect();
        let mut lbs = Vec::new();
        m32.lower_bounds_into(&qd, &mut lbs);
        assert_eq!(lbs.len(), 500);
        for (i, lb) in lbs.iter().enumerate() {
            let truth = pivot_lower_bound(&qd, m64.row(i));
            assert!(*lb <= truth, "row {i}: f32 bound {lb} > true {truth}");
            assert!(*lb >= 0.0);
            // And not uselessly loose: within slack of the truth.
            let slk = m32.f32_slack(qd.iter().fold(0.0f64, |a, q| a.max(q.abs())));
            assert!(truth - *lb <= 2.0 * slk + truth * 1e-6, "row {i} too loose");
        }
        // A permuted selection (same rows, so the same slack) agrees per row.
        let index: Vec<u32> = (0..500u32).map(|i| (i * 7) % 500).collect();
        let mut plbs = Vec::new();
        m32.select(&index).lower_bounds_into(&qd, &mut plbs);
        for (i, &id) in index.iter().enumerate() {
            assert_eq!(plbs[i].to_bits(), lbs[id as usize].to_bits());
        }
    }

    #[test]
    fn lower_bounds_match_per_row_scan() {
        let pts = datasets::la(300, 11);
        let pivots: Vec<Vec<f32>> = vec![pts[0].clone(), pts[10].clone(), pts[20].clone()];
        let matrix = PivotMatrix::compute(&pts, &L2, &pivots, 1);
        let qd: Vec<f64> = pivots.iter().map(|p| L2.dist(&pts[42], p)).collect();
        let mut lbs = Vec::new();
        matrix.lower_bounds_into(&qd, &mut lbs);
        for (i, lb) in lbs.iter().enumerate() {
            assert_eq!(
                lb.to_bits(),
                pivot_lower_bound(&qd, matrix.row(i)).to_bits()
            );
        }
        // A permuted selection scans its own copy of the rows.
        let index: Vec<u32> = (0..300u32).map(|i| (i * 7) % 300).collect();
        matrix.select(&index).lower_bounds_into(&qd, &mut lbs);
        for (i, &id) in index.iter().enumerate() {
            assert_eq!(
                lbs[i].to_bits(),
                pivot_lower_bound(&qd, matrix.row(id as usize)).to_bits()
            );
        }
    }

    // -----------------------------------------------------------------
    // Clone shares, a writer copies what it writes.
    // -----------------------------------------------------------------

    #[test]
    fn a_push_past_a_pinned_clone_shares_the_base_and_copies_one_chunk() {
        let base: Vec<[f64; 2]> = (0..100).map(|i| [i as f64, -(i as f64)]).collect();
        let first = PivotMatrix::from_rows(2, &base);
        // First push under a pin: a fresh tail chunk, nothing copied.
        let before = cow::copied_bytes();
        let mut second = first.clone();
        second.push_row(&[7.0, 8.0]);
        assert_eq!(cow::copied_bytes(), before);
        assert!(Arc::ptr_eq(&second.base, &first.base));
        // Second push with `second` pinned: the partly filled chunk (one
        // row) is copied, the base is not.
        let mut third = second.clone();
        third.push_row(&[9.0, 10.0]);
        assert_eq!(cow::copied_bytes() - before, 2 * 8);
        assert!(Arc::ptr_eq(&third.base, &second.base));
        assert_eq!((first.rows(), second.rows(), third.rows()), (100, 101, 102));
        assert_eq!(second.row(100), &[7.0, 8.0]);
        assert_eq!(third.row(100), &[7.0, 8.0]);
        assert_eq!(third.row(101), &[9.0, 10.0]);
        assert_eq!(third.row(99), &[99.0, -99.0]);
        // Where a row is stored is not part of a matrix's value.
        let flat = PivotMatrix::from_rows(2, third.iter_rows().map(|(_, r)| r));
        assert_eq!(third, flat);
        assert_eq!(third.mem_bytes(), flat.mem_bytes());
    }

    #[test]
    fn scans_span_the_base_and_every_tail_chunk_bit_for_bit() {
        // 300 base rows, then enough pushed rows for three tail chunks,
        // re-pinned along the way so partly filled chunks get copied.
        let total = 300 + 2 * TAIL_ROWS + 17;
        let row = |i: usize| [(i * 37 % 101) as f64 - 50.0, (i * 53 % 211) as f64 * 1.375];
        let qd = [3.0f64, -1.5];
        for mode in [ColumnMode::F64, ColumnMode::F32] {
            let flat = PivotMatrix::from_rows(2, (0..total).map(row)).with_mode(mode);
            let mut tailed = PivotMatrix::from_rows(2, (0..300).map(row)).with_mode(mode);
            let mut pin = tailed.clone();
            for i in 300..total {
                tailed.push_row(&row(i));
                if i % 100 == 0 {
                    pin = tailed.clone();
                }
            }
            assert!(pin.rows() < total && tailed.tail.len() == 3);
            assert_eq!(tailed, flat);
            assert_same_bounds(&tailed, &flat, &qd, mode.label());
        }
    }

    #[test]
    fn sole_owner_push_appends_in_place() {
        // Nobody else holds the base, so pushes extend it without copying:
        // the data pointer is stable once capacity exists, and no tail
        // opens.
        let mut m = PivotMatrix::with_capacity(1, 16);
        m.push_row(&[0.0]);
        let at = m.as_slice().as_ptr();
        for i in 1..10 {
            assert_eq!(m.push_row(&[i as f64]), i);
            assert_eq!(m.row(i), &[i as f64]);
        }
        assert_eq!(m.as_slice().len(), 10);
        assert_eq!(m.as_slice().as_ptr(), at);
    }

    #[test]
    #[should_panic(expected = "pushed past a shared base")]
    fn as_slice_refuses_a_matrix_with_a_tail() {
        let pin = PivotMatrix::from_rows(1, [[1.0], [2.0]]);
        let mut m = pin.clone();
        m.push_row(&[3.0]);
        assert_eq!(m.rows(), 3);
        let _truncated = m.as_slice();
    }
}
