//! The shared pivot-distance matrix: the paper's central `n × l` object.
//!
//! Every pivot-based index is, at its core, a view over the matrix
//! `A[i][j] = d(o_i, p_j)`. Historically each index in this workspace
//! recomputed (and re-stored) its own copy as `Vec<Option<Vec<f64>>>` — one
//! heap allocation and one pointer chase per object on every Lemma 1 scan.
//! [`PivotMatrix`] stores the matrix once, flat and row-major, so that
//!
//! * it can be **built once, in parallel** ([`PivotMatrix::compute`], on the
//!   same scoped-thread worker pool as [`crate::parallel`]) and then shared
//!   by the router and every shard of a sharded engine,
//! * Lemma 1 scanning is a branch-light sequential pass over contiguous
//!   memory ([`PivotMatrix::row`] is a plain slice), and
//! * the per-object lower-bound filter runs through a cache-blocked,
//!   auto-vectorizable [`ScanKernel`] instead of one function call per row.
//!
//! # The snapshot publication rule
//!
//! For sharded engines the matrix lives in a [`SharedPivotMatrix`] and every
//! shard adopts a [`MatrixSlice`] — a row-index indirection plus a cached
//! [`Arc<PivotMatrix>`] **snapshot** of the shared storage. The discipline:
//!
//! * **Readers never block.** A query scan resolves rows through the
//!   slice's cached snapshot — a plain `Arc` field, no lock, no atomic
//!   read-modify-write. The old `MatrixSliceReader` guard (one
//!   `RwLock::read` per scan) is gone; there is no lock on the serve path
//!   at all, enforced at compile time by the API shape.
//! * **Writers publish on push/compact.** Mutation goes through `&mut`
//!   paths (the engine's `apply`, a standalone index's `insert`), which
//!   first *stage* rows ([`SharedPivotMatrix::stage_row`]) and then
//!   *publish* a new snapshot ([`SharedPivotMatrix::publish`]) that the
//!   affected slices re-fetch ([`MatrixSlice::refresh`]). Staging makes a
//!   batch of inserts pay one snapshot publication, not one per row.
//!   Rust's aliasing rules guarantee no query is concurrently reading the
//!   structure that publishes, so publication is a plain `Arc` swap under
//!   the writers' mutex.
//! * **A publication costs what it appends.** The rows present at build
//!   (or installed by a compaction) are one flat allocation behind an
//!   `Arc` — the run the scan kernels stream — and every row published
//!   since lives in fixed-size *tail chunks*, each behind its own `Arc`.
//!   A new snapshot shares the base and every full tail chunk with the
//!   previous one; when readers still pin the previous snapshot the
//!   publication copies at most the one partly filled chunk it appends to.
//!
//! Removal is handled *outside* the matrix: rows of tombstoned objects stay
//! in place (ids remain row indices) and are simply never verified, because
//! liveness lives in the index's slot map ([`crate::ObjTable`]). Under
//! sustained churn those dead rows still cost lower-bound arithmetic and
//! cache space, which is what [`SharedPivotMatrix::replace`]-based
//! compaction (driven by the engine's `CompactionPolicy`) reclaims: the
//! engine builds a dense matrix over the survivors, installs it as the new
//! snapshot, and remaps every slice's row ids ([`MatrixSlice::reindex`]).

use crate::cow::{self, CowVec};
use crate::distance::Metric;
use crate::simd::{self, SimdTier};
use parking_lot::Mutex;
use std::sync::Arc;

/// Storage precision of the *filter* columns the scan kernel reads.
///
/// Exact distances are always f64; the column mode only controls what the
/// Lemma 1 lower-bound kernel streams through. Under [`ColumnMode::F32`]
/// each [`MatrixSlice`] keeps **planar** (column-major) f32 copies of its
/// own rows for the kernel — half the bytes per row, twice the SIMD lanes
/// per register, and contiguous loads even for scattered shard slices —
/// and admissibility is preserved by subtracting a conservative rounding
/// slack from every computed bound (see [`PivotMatrix::f32_slack`]): a
/// bound can only get *smaller*, which costs an occasional extra exact
/// check but can never drop a true result, so serve results stay
/// byte-identical to the f64 engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ColumnMode {
    /// Filter columns are the exact f64 distances (the default).
    #[default]
    F64,
    /// Filter columns are per-slice planar f32 copies with slack-adjusted
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

/// Rows per tail chunk: a pinned publication copies at most this many rows
/// (40 KB at five pivots), and a scan makes one kernel call per chunk.
const TAIL_ROWS: usize = 1024;

/// A row-major `n × l` pivot-distance matrix with stable row ids: one flat
/// base run plus the chunked tail of rows published since (module docs).
///
/// Row `i` holds `(d(o_i, p_1), …, d(o_i, p_l))`. Rows are never removed —
/// indexes with tombstoned deletion keep the row and skip it via their slot
/// map — so row indices are stable object ids for the lifetime of the index
/// (until an explicit engine-level compaction renumbers them wholesale).
///
/// Under [`ColumnMode::F32`] the matrix itself stays f64-only — the f32
/// representation the kernel streams is **planar** (column-major) and
/// per-slice, owned by each [`MatrixSlice`] so every shard scans contiguous
/// columns regardless of how scattered its row indirection is. The matrix
/// tracks only the running max magnitude that sizes the admissibility
/// slack; the f64 rows remain authoritative — compaction, selection and
/// staging all operate on f64 and slices re-derive their columns.
///
/// Cloning shares the base and every tail chunk (`O(tail / chunk)`), and a
/// clone that is then written to copies what it writes — value semantics.
#[derive(Clone, Debug, Default)]
pub struct PivotMatrix {
    /// The rows present at construction, row-major and flat:
    /// `base[i * width + j] = d(o_i, p_j)` for `i < base_rows`. Builders
    /// ([`push_row`](Self::push_row), [`select`](Self::select)) grow it;
    /// a snapshot publication never does.
    base: Arc<Vec<f64>>,
    /// Rows in `base` (tracked separately so `width == 0` still counts).
    base_rows: usize,
    /// Rows `base_rows..rows`, [`TAIL_ROWS`] to a chunk, appended by
    /// snapshot publications (see the module docs). Cloning the matrix
    /// shares `base` and every chunk.
    tail: Vec<Arc<Vec<f64>>>,
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
        let rows = objects.len();
        let mut data = vec![0.0f64; width * rows];
        let threads = threads.max(1);
        if threads == 1 || rows < 2 * threads || width == 0 {
            for (slot, o) in data.chunks_mut(width.max(1)).zip(objects) {
                for (x, p) in slot.iter_mut().zip(pivots) {
                    *x = metric.dist(o, p);
                }
            }
        } else {
            let chunk = rows.div_ceil(threads);
            crossbeam::thread::scope(|s| {
                for (slot_chunk, obj_chunk) in
                    data.chunks_mut(chunk * width).zip(objects.chunks(chunk))
                {
                    s.spawn(move |_| {
                        for (slot, o) in slot_chunk.chunks_mut(width).zip(obj_chunk) {
                            for (x, p) in slot.iter_mut().zip(pivots) {
                                *x = metric.dist(o, p);
                            }
                        }
                    });
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
        let mut m = PivotMatrix::new(width);
        for r in rows {
            m.push_row(r.as_ref());
        }
        m
    }

    /// Which representation the lower-bound kernel reads.
    pub fn mode(&self) -> ColumnMode {
        self.mode
    }

    /// Switches the filter-column mode, (re)scanning the stored distances
    /// for the max magnitude that sizes the f32 slack. Cheap on an empty
    /// matrix; `O(n·l)` otherwise.
    pub fn with_mode(mut self, mode: ColumnMode) -> Self {
        self.set_mode(mode);
        self
    }

    /// In-place form of [`with_mode`](Self::with_mode).
    pub fn set_mode(&mut self, mode: ColumnMode) {
        self.mode = mode;
        self.max_abs = 0.0;
        if mode == ColumnMode::F32 {
            let stored = self
                .base
                .iter()
                .chain(self.tail.iter().flat_map(|c| c.iter()));
            self.max_abs = stored.fold(0.0, |mx, x| f64::max(mx, x.abs()));
        }
    }

    /// Extends the running max magnitude over newly stored distances.
    /// No-op under [`ColumnMode::F64`] (the slack is never consulted there).
    fn track_max(&mut self, appended: &[f64]) {
        if self.mode == ColumnMode::F32 {
            self.max_abs = appended
                .iter()
                .fold(self.max_abs, |mx, x| f64::max(mx, x.abs()));
        }
    }

    /// Appends one row to the tail, un-sharing the last chunk first if a
    /// pinned snapshot still reads it.
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
        self.rows += 1;
    }

    /// Appends already-flat staged rows as tail rows (the
    /// [`SharedPivotMatrix::publish`] path), keeping the max magnitude in
    /// sync, and empties `staged`.
    pub(crate) fn append_flat(&mut self, staged: &mut Vec<f64>, staged_rows: usize) {
        let w = self.width;
        for i in 0..staged_rows {
            self.push_tail(&staged[i * w..(i + 1) * w]);
        }
        self.track_max(staged);
        staged.clear();
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

    /// Appends one row, returning its row id — the builder path: while no
    /// publication has opened a tail the row extends the flat base
    /// (amortized `O(l)`; a base shared with a clone is copied first, so
    /// clones keep value semantics).
    pub fn push_row(&mut self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.width, "row length must equal pivot count");
        if self.rows == self.base_rows {
            Arc::make_mut(&mut self.base).extend_from_slice(row);
            self.base_rows += 1;
            self.rows += 1;
        } else {
            self.push_tail(row);
        }
        self.track_max(row);
        self.rows - 1
    }

    /// A new matrix holding the given rows of `self`, in `ids` order — the
    /// per-shard slice/permutation of the shared matrix used when a sharded
    /// engine hands each shard its part of the one precomputed matrix, and
    /// the dense-survivor rebuild of engine-level compaction.
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

    /// The flat row-major base run: the whole matrix for every matrix that
    /// was computed, selected or built row by row — which is what callers
    /// of this get — and the rows before the first published one otherwise.
    pub fn as_slice(&self) -> &[f64] {
        debug_assert!(self.tail.is_empty(), "rows were published since the build");
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

    /// In-memory footprint of the matrix in bytes (the f64 rows; under
    /// [`ColumnMode::F32`] the planar f32 columns live in the slices and
    /// are accounted by [`MatrixSlice::mem_bytes`]).
    pub fn mem_bytes(&self) -> u64 {
        8 * (self.rows * self.width) as u64
    }

    /// Lower bounds of the consecutive rows `first..first + out.len()`:
    /// the contiguous kernel over the base run, then over each tail chunk.
    fn bounds_of_run(&self, tier: SimdTier, qd: &[f64], first: usize, out: &mut [f64]) {
        let w = self.width;
        let in_base = self.base_rows.saturating_sub(first).min(out.len());
        let (head, mut rest) = out.split_at_mut(in_base);
        if in_base > 0 {
            ScanKernel::fill(tier, qd, &self.base[first * w..(first + in_base) * w], head);
        }
        // Rows left over start at or past the end of the base.
        let mut t = (first + in_base).saturating_sub(self.base_rows);
        while !rest.is_empty() {
            let (chunk, r) = (&self.tail[t / TAIL_ROWS], t % TAIL_ROWS);
            let take = (TAIL_ROWS - r).min(rest.len());
            let (now, later) = rest.split_at_mut(take);
            ScanKernel::fill(tier, qd, &chunk[r * w..(r + take) * w], now);
            rest = later;
            t += take;
        }
    }

    /// Lower bounds of the rows `index` names, in `index` order: the gather
    /// kernel straight over the base run while nothing has been published
    /// since the build; otherwise run by run — base rows against the base,
    /// the rows of one tail chunk re-based onto that chunk in blocks.
    fn bounds_of(&self, tier: SimdTier, qd: &[f64], index: &[u32], out: &mut [f64]) {
        if self.tail.is_empty() {
            return ScanKernel::fill_indexed(tier, qd, &self.base, index, out);
        }
        let in_base = |id: u32| (id as usize) < self.base_rows;
        let mut i = 0;
        while i < index.len() {
            if in_base(index[i]) {
                let run = index[i..]
                    .iter()
                    .position(|&id| !in_base(id))
                    .unwrap_or(index.len() - i);
                ScanKernel::fill_indexed(
                    tier,
                    qd,
                    &self.base,
                    &index[i..i + run],
                    &mut out[i..i + run],
                );
                i += run;
            } else {
                // The unchecked gather kernels trust their row ids.
                assert!((index[i] as usize) < self.rows, "row id out of range");
                let c = (index[i] as usize - self.base_rows) / TAIL_ROWS;
                let lo = self.base_rows + c * TAIL_ROWS;
                let hi = (lo + TAIL_ROWS).min(self.rows);
                let mut local = [0u32; 64];
                let mut k = 0;
                while k < local.len()
                    && i + k < index.len()
                    && (lo..hi).contains(&(index[i + k] as usize))
                {
                    local[k] = (index[i + k] as usize - lo) as u32;
                    k += 1;
                }
                ScanKernel::fill_indexed(tier, qd, &self.tail[c], &local[..k], &mut out[i..i + k]);
                i += k;
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

    /// The one 4-lane reduction both blocked entry points share: four
    /// independent `max |q - x|` chains over four rows of width `qd.len()`.
    /// Keeping a single copy is load-bearing for the exact-counter
    /// guarantee — every caller must produce bit-identical bounds.
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

    /// [`lower_bounds`](Self::lower_bounds) through a row-id indirection:
    /// entry `i` of `out` is the lower bound of `matrix` row `index[i]`.
    /// The gather variant of the kernel, used by permuted shard slices;
    /// the inner loop is still the fixed-stride blocked reduction.
    pub fn lower_bounds_indexed(
        qd: &[f64],
        matrix: &PivotMatrix,
        index: &[u32],
        out: &mut Vec<f64>,
    ) {
        Self::lower_bounds_indexed_with_tier(simd::tier(), qd, matrix, index, out);
    }

    /// [`lower_bounds_indexed`](Self::lower_bounds_indexed) pinned to an
    /// explicit SIMD tier.
    pub fn lower_bounds_indexed_with_tier(
        tier: SimdTier,
        qd: &[f64],
        matrix: &PivotMatrix,
        index: &[u32],
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(matrix.width(), qd.len());
        out.clear();
        out.resize(index.len(), 0.0);
        matrix.bounds_of(tier, qd, index, out);
    }

    /// The gather kernel into a slice, over one flat run of rows: `out[i]`
    /// is the bound of row `index[i]` of `data`. Every id must name a row
    /// of `data` (the SIMD tiers do not check).
    fn fill_indexed(tier: SimdTier, qd: &[f64], data: &[f64], index: &[u32], out: &mut [f64]) {
        let w = qd.len();
        if w == 0 {
            return;
        }
        assert_eq!(index.len(), out.len(), "one row id per bound");
        match tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: runtime AVX2 detection; every index row is in bounds
            // by the matrix's construction invariants.
            SimdTier::Avx2 => unsafe { simd::x86::lb_f64_idx_avx2(qd, data, index, out) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is baseline on x86-64.
            SimdTier::Sse2 => unsafe { simd::x86::lb_f64_idx_sse2(qd, data, index, out) },
            _ => {
                let row = |id: u32| &data[id as usize * w..id as usize * w + w];
                let mut blocks = index.chunks_exact(Self::LANES);
                let mut outs = out.chunks_exact_mut(Self::LANES);
                for (ids, o) in (&mut blocks).zip(&mut outs) {
                    let maxes =
                        Self::block_max(qd, row(ids[0]), row(ids[1]), row(ids[2]), row(ids[3]));
                    o.copy_from_slice(&maxes);
                }
                for (&id, o) in blocks.remainder().iter().zip(outs.into_remainder()) {
                    *o = Self::row_max(qd, row(id));
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
    /// one contiguous load per column, for contiguous *and* scattered
    /// slices alike — there is no f32 gather path at all (each
    /// [`MatrixSlice`] owns its rows' columns in local order).
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

/// Writer-side state of a [`SharedPivotMatrix`]: the published snapshot
/// plus rows staged since the last publication.
#[derive(Debug, Default)]
struct Shared {
    /// The currently published snapshot. Slices hold clones of this `Arc`.
    snap: Arc<PivotMatrix>,
    /// Rows staged since the last publication, row-major.
    staged: Vec<f64>,
    staged_rows: usize,
}

/// A [`PivotMatrix`] shared between the engine, the router, and every
/// shard's pivot table, with **snapshot publication** instead of a
/// read-write lock: readers hold a plain [`Arc<PivotMatrix>`] (cloned at
/// adoption/refresh time, on the write path), so a query scan performs no
/// lock acquisition and no atomic read-modify-write — see the module docs
/// for the publication rule. The internal mutex serializes *writers* only
/// (`stage_row` / `publish` / `replace`), which all sit behind `&mut`
/// engine or index borrows anyway.
///
/// Cloning shares the same matrix (the handle is an `Arc`). Rows are
/// append-only: removal tombstones live in the indexes' slot maps, so a row
/// id handed out by `stage_row`/`push_row` is valid until an engine-level
/// compaction installs a renumbered snapshot via [`replace`](Self::replace).
#[derive(Clone, Debug, Default)]
pub struct SharedPivotMatrix(Arc<Mutex<Shared>>);

impl SharedPivotMatrix {
    /// Wraps an already-computed matrix for sharing.
    pub fn new(matrix: PivotMatrix) -> Self {
        SharedPivotMatrix(Arc::new(Mutex::new(Shared {
            snap: Arc::new(matrix),
            staged: Vec::new(),
            staged_rows: 0,
        })))
    }

    /// The currently published snapshot (staged rows not yet included).
    pub fn snapshot(&self) -> Arc<PivotMatrix> {
        self.0.lock().snap.clone()
    }

    /// An owned copy of the published snapshot (tests / diagnostics); it
    /// shares storage until either side is written to.
    pub fn snapshot_owned(&self) -> PivotMatrix {
        (*self.snapshot()).clone()
    }

    /// Total rows: published plus staged.
    pub fn rows(&self) -> usize {
        let g = self.0.lock();
        g.snap.rows() + g.staged_rows
    }

    /// Number of pivots `l` (the row stride).
    pub fn width(&self) -> usize {
        self.0.lock().snap.width()
    }

    /// Whether rows have been staged but not yet published.
    pub fn has_staged(&self) -> bool {
        self.0.lock().staged_rows > 0
    }

    /// Stages one row without publishing, returning its (future) stable row
    /// id. The row becomes readable only after [`publish`](Self::publish);
    /// the engine stages a whole `apply` batch and publishes once.
    pub fn stage_row(&self, row: &[f64]) -> usize {
        let mut g = self.0.lock();
        assert_eq!(
            row.len(),
            g.snap.width(),
            "row length must equal pivot count"
        );
        g.staged.extend_from_slice(row);
        g.staged_rows += 1;
        g.snap.rows() + g.staged_rows - 1
    }

    /// Stages one row and publishes immediately — the standalone-index
    /// insert path (see [`MatrixSlice::push_adopt`], which also makes the
    /// publication in-place by dropping its own snapshot first).
    pub fn push_row(&self, row: &[f64]) -> usize {
        let id = self.stage_row(row);
        self.publish();
        id
    }

    /// Publishes a new snapshot containing every staged row, appended as
    /// tail rows. When no other snapshot holders remain (a sole-owner
    /// standalone index) the snapshot is extended in place; otherwise the
    /// new snapshot shares the base and every full tail chunk with the
    /// pinned one and copies at most the one partly filled chunk.
    pub fn publish(&self) {
        let mut g = self.0.lock();
        if g.staged_rows == 0 {
            return;
        }
        let Shared {
            snap,
            staged,
            staged_rows,
        } = &mut *g;
        Arc::make_mut(snap).append_flat(staged, *staged_rows);
        *staged_rows = 0;
    }

    /// Number of rows staged but not yet published.
    pub fn staged_rows(&self) -> usize {
        self.0.lock().staged_rows
    }

    /// Discards every staged-but-unpublished row without publishing — the
    /// abort path of the engine's crash-safe `apply` transaction. The
    /// published snapshot is untouched, and the next `stage_row` hands out
    /// the same id the first discarded row had, so an aborted batch can be
    /// re-staged verbatim.
    pub fn discard_staged(&self) {
        let mut g = self.0.lock();
        g.staged.clear();
        g.staged_rows = 0;
    }

    /// Installs `matrix` as the new published snapshot, discarding the old
    /// rows — the engine-level compaction path (the caller has already
    /// remapped every row id). Panics if rows are staged but unpublished.
    pub fn replace(&self, matrix: PivotMatrix) {
        let mut g = self.0.lock();
        assert_eq!(g.staged_rows, 0, "publish staged rows before replacing");
        g.snap = Arc::new(matrix);
    }
}

/// One shard's adopted view of a [`SharedPivotMatrix`]: local row `i` reads
/// shared row `index[i]` of the slice's cached snapshot.
///
/// The indirection makes adoption free — a partition is `O(|partition|)`
/// row *ids*, and a row pushed by the engine's mutation path is adopted by
/// appending its id ([`adopt`](Self::adopt)) — while the cached
/// [`Arc<PivotMatrix>`] snapshot makes reads free: [`row`](Self::row) and
/// [`lower_bounds_into`](Self::lower_bounds_into) touch no lock and no
/// atomic, per the module-level publication rule. The snapshot is
/// re-fetched only on the `&mut` write paths ([`refresh`](Self::refresh),
/// called by the engine after it publishes staged rows, and by
/// [`adopt`]/[`reindex`](Self::reindex) themselves when the adopted row is
/// already published).
///
/// A standalone index (no engine) wraps its own freshly computed matrix via
/// [`from_owned`](Self::from_owned), becoming the sole owner of a shared
/// handle with an identity indirection; the code paths are the same.
///
/// Cloning — what an index fork does — shares the snapshot and every chunk
/// of the indirection and of the f32 columns ([`CowVec`]); the clone copies
/// only the chunks it then appends to.
#[derive(Clone, Debug)]
pub struct MatrixSlice {
    shared: SharedPivotMatrix,
    /// Cached published snapshot; always covers every row in `index` by
    /// the publication rule (the engine refreshes after publishing).
    snap: Arc<PivotMatrix>,
    /// Local row id → shared row id.
    index: CowVec<u32>,
    /// Whether `index` is one consecutive run (`index[i] = index[0] + i`),
    /// which lets the scan kernel run over contiguous storage with no
    /// gather. True for standalone identity slices and single-shard
    /// engines; maintained incrementally on adopt/reindex.
    consecutive: bool,
    /// Under [`ColumnMode::F32`]: this slice's rows as **planar**
    /// (column-major) f32 columns in *local* order — `cols32[j][i]` is
    /// `row(i)[j] as f32` — so the f32 kernel streams contiguous loads no
    /// matter how scattered `index` is. Empty under [`ColumnMode::F64`].
    /// Shared rows are append-only and immutable, so materialized entries
    /// never go stale; growth is tracked by `cols32_rows`.
    cols32: Vec<CowVec<f32>>,
    /// How many leading local rows `cols32` has materialized. Lags
    /// `index.len()` only between adopting a still-staged row and the
    /// publication that makes it readable (no queries can run in between —
    /// the engine holds `&mut` for the whole mutation batch).
    cols32_rows: usize,
}

fn is_consecutive(index: &[u32]) -> bool {
    index.windows(2).all(|w| w[1] == w[0] + 1)
}

impl MatrixSlice {
    /// Adopts the given shared rows, in `index` order (local row `i` is
    /// shared row `index[i]`). Every row must already be published.
    pub fn new(shared: SharedPivotMatrix, index: Vec<u32>) -> Self {
        let snap = shared.snapshot();
        debug_assert!(
            index.iter().all(|&r| (r as usize) < snap.rows()),
            "every adopted row must exist in the shared matrix"
        );
        let consecutive = is_consecutive(&index);
        let mut slice = MatrixSlice {
            shared,
            snap,
            index: index.into(),
            consecutive,
            cols32: Vec::new(),
            cols32_rows: 0,
        };
        slice.rebuild_cols32();
        slice
    }

    /// Wraps an owned matrix as its own sole-owner slice (identity
    /// indirection) — the standalone-index construction path.
    pub fn from_owned(matrix: PivotMatrix) -> Self {
        let index = (0..matrix.rows() as u32).collect();
        MatrixSlice::new(SharedPivotMatrix::new(matrix), index)
    }

    /// The shared matrix this slice reads.
    pub fn shared(&self) -> &SharedPivotMatrix {
        &self.shared
    }

    /// The cached published snapshot this slice resolves rows through.
    pub fn snapshot(&self) -> &Arc<PivotMatrix> {
        &self.snap
    }

    /// Number of local rows (including rows of tombstoned slots).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the slice has adopted no rows.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of pivots `l`.
    pub fn width(&self) -> usize {
        self.snap.width()
    }

    /// The shared row id behind a local row.
    pub fn shared_row_of(&self, local: usize) -> usize {
        self.index[local] as usize
    }

    /// Local row `local` as a contiguous slice of `l` distances — resolved
    /// through the cached snapshot: no lock, no guard, the serve hot path.
    #[inline]
    pub fn row(&self, local: usize) -> &[f64] {
        self.snap.row(self.index[local] as usize)
    }

    /// Rebuilds the planar f32 columns from scratch (construction and the
    /// compaction reindex). No-op under [`ColumnMode::F64`].
    fn rebuild_cols32(&mut self) {
        self.cols32.clear();
        self.cols32_rows = 0;
        if self.snap.mode() != ColumnMode::F32 {
            return;
        }
        self.cols32 = vec![CowVec::new(); self.snap.width()];
        self.sync_cols32();
    }

    /// Extends the planar columns with every adopted row the cached
    /// snapshot can already resolve (the watermark catch-up). The rounding
    /// is the same single `as f32` the slack formula accounts for.
    fn sync_cols32(&mut self) {
        if self.snap.mode() != ColumnMode::F32 {
            return;
        }
        while self.cols32_rows < self.index.len() {
            let r = self.index[self.cols32_rows] as usize;
            if r >= self.snap.rows() {
                // Adopted but still staged; the engine publishes and
                // refreshes before any query runs.
                break;
            }
            for (col, &x) in self.cols32.iter_mut().zip(self.snap.row(r)) {
                col.push(x as f32);
            }
            self.cols32_rows += 1;
        }
    }

    /// Lemma 1 lower bounds for **all** local rows at once, through the
    /// blocked [`ScanKernel`] (f64: contiguous fast path when the
    /// indirection is one consecutive run, gather otherwise; f32: always
    /// the planar streaming path over this slice's own columns), into a
    /// reused buffer. Rows of tombstoned slots are included — computing
    /// their bound is cheaper than branching on liveness inside the
    /// kernel; the caller's slot map skips them in the verification pass.
    pub fn lower_bounds_into(&self, qd: &[f64], out: &mut Vec<f64>) {
        debug_assert_eq!(qd.len(), self.width());
        let tier = simd::tier();
        out.clear();
        out.resize(self.index.len(), 0.0);
        if qd.is_empty() {
            return;
        }
        match self.snap.mode() {
            ColumnMode::F64 => {
                if self.consecutive && !self.index.is_empty() {
                    self.snap
                        .bounds_of_run(tier, qd, self.index[0] as usize, out);
                } else {
                    let mut rest = out.as_mut_slice();
                    for ids in self.index.chunks() {
                        let (now, later) = rest.split_at_mut(ids.len());
                        self.snap.bounds_of(tier, qd, ids, now);
                        rest = later;
                    }
                }
            }
            ColumnMode::F32 => {
                let w = self.snap.width();
                debug_assert_eq!(
                    self.cols32_rows,
                    self.index.len(),
                    "planar columns out of sync with the indirection"
                );
                // Round the query's pivot distances once per scan; the
                // admissibility slack covers this rounding plus the
                // columns' (see `PivotMatrix::f32_slack`).
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
                let slack = self.snap.f32_slack(qmax);
                // Every column chunks alike, so chunk `c` of each column
                // covers the same local rows. Column refs sit on the stack
                // for the common pivot counts.
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

    /// Re-fetches the published snapshot — the engine calls this (through
    /// `MetricIndex::refresh_rows`) after publishing staged rows — and
    /// catches the planar f32 columns up to any newly readable rows.
    pub fn refresh(&mut self) {
        self.snap = self.shared.snapshot();
        self.sync_cols32();
    }

    /// Adopts one more shared row, returning its local row id. The row must
    /// exist in the shared matrix, published **or staged**: adopting a
    /// still-staged row defers the snapshot refresh to the engine's
    /// publication step (no query can run in between — the engine holds
    /// `&mut` for the whole batch); adopting a published row the cached
    /// snapshot predates refreshes immediately.
    pub fn adopt(&mut self, shared_row: usize) -> usize {
        debug_assert!(shared_row < self.shared.rows(), "adopting a missing row");
        if shared_row >= self.snap.rows() {
            let published = self.shared.snapshot();
            if shared_row < published.rows() {
                self.snap = published;
            }
        }
        self.consecutive = self.consecutive
            && (self.index.is_empty() || shared_row as u32 == self.index[self.index.len() - 1] + 1);
        self.index.push(shared_row as u32);
        self.sync_cols32();
        self.index.len() - 1
    }

    /// Computes, stages, publishes and adopts one row — the standalone
    /// insert path. Drops this slice's own snapshot first so that a
    /// sole-owner publication appends in place (amortized `O(l)`); under an
    /// engine-shared matrix the other pins make it copy the last tail chunk
    /// (engines batch through `stage_row` + `publish` instead).
    pub fn push_adopt(&mut self, row: &[f64]) -> usize {
        self.snap = Arc::new(PivotMatrix::default());
        let id = self.shared.push_row(row);
        self.snap = self.shared.snapshot();
        self.consecutive = self.consecutive
            && (self.index.is_empty() || id as u32 == self.index[self.index.len() - 1] + 1);
        self.index.push(id as u32);
        self.sync_cols32();
        self.index.len() - 1
    }

    /// Replaces the whole indirection and re-fetches the snapshot — the
    /// compaction path, after the engine installed a renumbered matrix via
    /// [`SharedPivotMatrix::replace`].
    pub fn reindex(&mut self, index: Vec<u32>) {
        self.snap = self.shared.snapshot();
        debug_assert!(
            index.iter().all(|&r| (r as usize) < self.snap.rows()),
            "every reindexed row must exist in the compacted matrix"
        );
        self.consecutive = is_consecutive(&index);
        self.index = index.into();
        self.rebuild_cols32();
    }

    /// This slice's share of the matrix footprint: its rows' distances
    /// (plus its own planar f32 columns under [`ColumnMode::F32`]) plus
    /// the indirection itself.
    pub fn mem_bytes(&self) -> u64 {
        let per_row = match self.snap.mode() {
            ColumnMode::F64 => 8 * self.width() as u64,
            ColumnMode::F32 => 12 * self.width() as u64,
        };
        (per_row + 4) * self.index.len() as u64
    }
}

impl From<PivotMatrix> for MatrixSlice {
    fn from(matrix: PivotMatrix) -> Self {
        MatrixSlice::from_owned(matrix)
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
                // The gather variant agrees too, under a permutation.
                if w > 0 {
                    let m = PivotMatrix::from_rows(w, rows.chunks(w.max(1)));
                    let index: Vec<u32> = (0..n as u32).rev().collect();
                    let mut gathered = Vec::new();
                    ScanKernel::lower_bounds_indexed(&qd, &m, &index, &mut gathered);
                    for (i, &id) in index.iter().enumerate() {
                        assert_eq!(gathered[i].to_bits(), scalar[id as usize].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn every_simd_tier_matches_the_portable_reference_bit_for_bit() {
        // f64: all tiers vs the scalar reference, contiguous and gather,
        // across widths and block remainders.
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
                    let m = PivotMatrix::from_rows(w, rows.chunks(w));
                    let index: Vec<u32> = (0..n as u32).rev().collect();
                    let mut gathered = Vec::new();
                    ScanKernel::lower_bounds_indexed_with_tier(
                        tier,
                        &qd,
                        &m,
                        &index,
                        &mut gathered,
                    );
                    for (i, &id) in index.iter().enumerate() {
                        assert_eq!(
                            gathered[i].to_bits(),
                            want[id as usize].to_bits(),
                            "{tier:?} gather w={w} n={n} row {i}"
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
        assert_eq!(m.mem_bytes(), 4 * 8);

        // push_row extends the max.
        let mut m = m;
        m.push_row(&[-9.5, 0.25]);
        assert_eq!(m.max_abs(), 9.5);

        // select inherits the mode and recomputes the (tighter) max.
        let s = m.select(&[0, 1]);
        assert_eq!(s.mode(), ColumnMode::F32);
        assert_eq!(s.max_abs(), 8.0);

        // Staged publication through the shared handle tracks too.
        let shared = SharedPivotMatrix::new(m.clone());
        shared.stage_row(&[100.0, -1.0]);
        shared.publish();
        let snap = shared.snapshot();
        assert_eq!(snap.max_abs(), 100.0);

        // Dropping back to F64 resets the (unused) max.
        let back = (*snap).clone().with_mode(ColumnMode::F64);
        assert_eq!(back.max_abs(), 0.0);
        assert_eq!(back.mem_bytes(), 8 * 8);
    }

    #[test]
    fn f32_planar_columns_track_slice_mutations() {
        // A scattered slice under F32 scans its own planar columns; bounds
        // must track adopt (published and staged), push_adopt, and the
        // compaction reindex. Equality oracle: a fresh slice with the same
        // indirection (rebuilds its columns from scratch).
        let m = PivotMatrix::from_rows(2, [[0.0, 1.0], [10.0, -3.0], [4.0, 4.0], [-2.0, 7.0]])
            .with_mode(ColumnMode::F32);
        let shared = SharedPivotMatrix::new(m);
        let mut s = MatrixSlice::new(shared.clone(), vec![2, 0]);
        let qd = [3.0f64, -1.0];
        let check = |s: &MatrixSlice| {
            let fresh = MatrixSlice::new(s.shared().clone(), s.index.to_vec());
            let (mut got, mut want) = (Vec::new(), Vec::new());
            s.lower_bounds_into(&qd, &mut got);
            fresh.lower_bounds_into(&qd, &mut want);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        };
        check(&s);

        // Adopt an already-published row.
        s.adopt(3);
        check(&s);

        // Adopt a staged row: columns lag until publish + refresh.
        let staged = shared.stage_row(&[5.0, 5.0]);
        s.adopt(staged);
        assert_eq!(s.cols32_rows, 3, "staged row not yet materialized");
        shared.publish();
        s.refresh();
        assert_eq!(s.cols32_rows, 4);
        check(&s);

        // push_adopt (stage + publish + adopt in one step).
        s.push_adopt(&[-6.0, 2.0]);
        check(&s);

        // Compaction: renumbered matrix, wholesale rebuild.
        let dense = shared.snapshot().select(&[0, 2, 4]);
        shared.replace(dense);
        s.reindex(vec![2, 1, 0]);
        check(&s);
    }

    #[test]
    fn f32_slice_bounds_are_admissible_on_real_data() {
        let pts = datasets::la(500, 7);
        let pivots: Vec<Vec<f32>> = vec![pts[3].clone(), pts[90].clone(), pts[222].clone()];
        let m64 = PivotMatrix::compute(&pts, &L2, &pivots, 1);
        let m32 = m64.clone().with_mode(ColumnMode::F32);
        let qd: Vec<f64> = pivots.iter().map(|p| L2.dist(&pts[42], p)).collect();
        let ident = MatrixSlice::from_owned(m32.clone());
        let mut lbs = Vec::new();
        ident.lower_bounds_into(&qd, &mut lbs);
        assert_eq!(lbs.len(), 500);
        for (i, lb) in lbs.iter().enumerate() {
            let truth = pivot_lower_bound(&qd, m64.row(i));
            assert!(*lb <= truth, "row {i}: f32 bound {lb} > true {truth}");
            assert!(*lb >= 0.0);
            // And not uselessly loose: within slack of the truth.
            let slk = m32.f32_slack(qd.iter().fold(0.0f64, |a, q| a.max(q.abs())));
            assert!(truth - *lb <= 2.0 * slk + truth * 1e-6, "row {i} too loose");
        }
        // Gather path agrees with the contiguous path per row.
        let shared = SharedPivotMatrix::new(m32);
        let index: Vec<u32> = (0..500u32).map(|i| (i * 7) % 500).collect();
        let slice = MatrixSlice::new(shared, index.clone());
        let mut glbs = Vec::new();
        slice.lower_bounds_into(&qd, &mut glbs);
        for (i, &id) in index.iter().enumerate() {
            assert_eq!(glbs[i].to_bits(), lbs[id as usize].to_bits());
        }
    }

    #[test]
    fn slice_lower_bounds_match_per_row_scan() {
        let pts = datasets::la(300, 11);
        let pivots: Vec<Vec<f32>> = vec![pts[0].clone(), pts[10].clone(), pts[20].clone()];
        let matrix = PivotMatrix::compute(&pts, &L2, &pivots, 1);
        let qd: Vec<f64> = pivots.iter().map(|p| L2.dist(&pts[42], p)).collect();
        // Identity (consecutive fast path).
        let ident = MatrixSlice::from_owned(matrix.clone());
        let mut lbs = Vec::new();
        ident.lower_bounds_into(&qd, &mut lbs);
        for (i, lb) in lbs.iter().enumerate() {
            assert_eq!(
                lb.to_bits(),
                pivot_lower_bound(&qd, matrix.row(i)).to_bits()
            );
        }
        // Permuted (gather path).
        let shared = SharedPivotMatrix::new(matrix.clone());
        let index: Vec<u32> = (0..300u32).map(|i| (i * 7) % 300).collect();
        let slice = MatrixSlice::new(shared, index.clone());
        slice.lower_bounds_into(&qd, &mut lbs);
        for (i, &id) in index.iter().enumerate() {
            assert_eq!(
                lbs[i].to_bits(),
                pivot_lower_bound(&qd, matrix.row(id as usize)).to_bits()
            );
        }
    }

    // -----------------------------------------------------------------
    // Snapshot publication.
    // -----------------------------------------------------------------

    #[test]
    fn shared_matrix_grows_under_adopted_slices() {
        let shared = SharedPivotMatrix::new(PivotMatrix::from_rows(
            2,
            [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]],
        ));
        // Two "shards" adopt disjoint permuted views of the same matrix.
        let mut a = MatrixSlice::new(shared.clone(), vec![3, 0]);
        let b = MatrixSlice::new(shared.clone(), vec![1, 2]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.width(), 2);
        assert_eq!(a.shared_row_of(0), 3);
        assert_eq!(a.row(0), &[6.0, 7.0]);
        assert_eq!(a.row(1), &[0.0, 1.0]);
        // The mutation path pushes one row (stage + publish) and the target
        // slice adopts it; the adopt refreshes the cached snapshot because
        // the row is already published.
        let row_id = shared.push_row(&[8.0, 9.0]);
        assert_eq!(row_id, 4);
        let local = a.adopt(row_id);
        assert_eq!(local, 2);
        assert_eq!(a.row(2), &[8.0, 9.0]);
        // The sibling slice still reads its own (older but sufficient)
        // snapshot; a refresh brings it to the latest.
        assert_eq!(b.len(), 2);
        assert_eq!(shared.rows(), 5);
        assert_eq!(b.row(1), &[4.0, 5.0]);
        let mut b = b;
        b.refresh();
        assert_eq!(b.snapshot().rows(), 5);
    }

    #[test]
    fn staged_rows_publish_in_one_step() {
        let shared = SharedPivotMatrix::new(PivotMatrix::from_rows(1, [[1.0], [2.0]]));
        let mut s = MatrixSlice::new(shared.clone(), vec![0, 1]);
        assert!(!shared.has_staged());
        let r2 = shared.stage_row(&[3.0]);
        let r3 = shared.stage_row(&[4.0]);
        assert_eq!((r2, r3), (2, 3));
        assert_eq!(shared.rows(), 4, "total counts staged rows");
        assert_eq!(shared.snapshot().rows(), 2, "snapshot does not");
        assert!(shared.has_staged());
        // Adopting a staged row defers the refresh (no queries can run
        // while the engine holds &mut); publish + refresh completes it.
        let local = s.adopt(r2);
        assert_eq!(local, 2);
        shared.publish();
        assert!(!shared.has_staged());
        s.refresh();
        assert_eq!(s.row(2), &[3.0]);
        assert_eq!(s.snapshot().rows(), 4);
    }

    #[test]
    fn pinned_publication_shares_the_base_and_copies_one_chunk() {
        let base: Vec<[f64; 2]> = (0..100).map(|i| [i as f64, -(i as f64)]).collect();
        let shared = SharedPivotMatrix::new(PivotMatrix::from_rows(2, &base));
        let pin = MatrixSlice::new(shared.clone(), (0..100).collect());
        // First publication under a pin: a fresh tail chunk, nothing copied.
        let before = cow::copied_bytes();
        shared.stage_row(&[7.0, 8.0]);
        shared.publish();
        assert_eq!(cow::copied_bytes(), before);
        let second = shared.snapshot();
        assert!(Arc::ptr_eq(&second.base, &pin.snapshot().base));
        // Second publication with `second` pinned: the partly filled chunk
        // (one row) is copied, the base is not.
        shared.stage_row(&[9.0, 10.0]);
        shared.publish();
        assert_eq!(cow::copied_bytes() - before, 2 * 8);
        let third = shared.snapshot();
        assert!(Arc::ptr_eq(&third.base, &second.base));
        assert_eq!(
            (pin.snapshot().rows(), second.rows(), third.rows()),
            (100, 101, 102)
        );
        assert_eq!(second.row(100), &[7.0, 8.0]);
        assert_eq!(third.row(100), &[7.0, 8.0]);
        assert_eq!(third.row(101), &[9.0, 10.0]);
        assert_eq!(third.row(99), &[99.0, -99.0]);
        // Where a row is stored is not part of a matrix's value.
        let flat = PivotMatrix::from_rows(2, third.iter_rows().map(|(_, r)| r));
        assert_eq!(*third, flat);
        assert_eq!(third.mem_bytes(), flat.mem_bytes());
    }

    #[test]
    fn scans_span_the_base_and_every_tail_chunk_bit_for_bit() {
        // 300 base rows, then enough published rows for three tail chunks.
        let total = 300 + 2 * TAIL_ROWS + 17;
        let row = |i: usize| [(i * 37 % 101) as f64 - 50.0, (i * 53 % 211) as f64 * 1.375];
        let qd = [3.0f64, -1.5];
        for mode in [ColumnMode::F64, ColumnMode::F32] {
            let flat = PivotMatrix::from_rows(2, (0..total).map(row)).with_mode(mode);
            let shared = SharedPivotMatrix::new(
                PivotMatrix::from_rows(2, (0..300).map(row)).with_mode(mode),
            );
            for i in 300..total {
                shared.stage_row(&row(i));
                if i % 700 == 0 {
                    shared.publish();
                }
            }
            shared.publish();
            assert_eq!(*shared.snapshot(), flat);
            // A consecutive run starting inside the base, and a scattered
            // indirection mixing base and tail ids.
            let run: Vec<u32> = (250..total as u32).collect();
            let scattered: Vec<u32> = (0..total).map(|i| (i * 7919 % total) as u32).collect();
            for index in [run, scattered] {
                let tailed = MatrixSlice::new(shared.clone(), index.clone());
                let reference = MatrixSlice::new(SharedPivotMatrix::new(flat.clone()), index);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                tailed.lower_bounds_into(&qd, &mut got);
                reference.lower_bounds_into(&qd, &mut want);
                assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{mode:?} local row {i}");
                }
            }
        }
    }

    #[test]
    fn sole_owner_publish_appends_in_place() {
        // A standalone slice's push_adopt releases its snapshot so the
        // publish mutates the sole-owner Arc without copying; observable
        // effect: the data pointer is stable across small pushes once
        // capacity exists.
        let mut s = MatrixSlice::from_owned(PivotMatrix::with_capacity(1, 16));
        for i in 0..10 {
            let local = s.push_adopt(&[i as f64]);
            assert_eq!(local, i);
            assert_eq!(s.row(i), &[i as f64]);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.shared().rows(), 10);
    }

    #[test]
    fn replace_installs_compacted_snapshot() {
        let shared =
            SharedPivotMatrix::new(PivotMatrix::from_rows(1, [[0.0], [1.0], [2.0], [3.0]]));
        let mut s = MatrixSlice::new(shared.clone(), vec![0, 1, 2, 3]);
        // "Compact away" rows 1 and 3: survivors 0, 2 renumber to 0, 1.
        let dense = shared.snapshot().select(&[0, 2]);
        shared.replace(dense);
        s.reindex(vec![0, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(0), &[0.0]);
        assert_eq!(s.row(1), &[2.0]);
        assert_eq!(shared.rows(), 2);
    }

    #[test]
    fn from_owned_is_identity_indirection() {
        let m = PivotMatrix::from_rows(1, [[1.0], [2.0], [3.0]]);
        let s: MatrixSlice = m.into();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        for i in 0..3 {
            assert_eq!(s.row(i), &[(i + 1) as f64]);
        }
        assert_eq!(s.mem_bytes(), 3 * (8 + 4));
    }
}
