//! The pivot-distance matrix — the paper's central `n × l` object — in its
//! two forms: the transient f64 [`PivotMatrix`] a build computes and
//! partitions over, and the [`PivotColumns`] every table and shard *stores*
//! and the Lemma 1 kernel scans.
//!
//! Every pivot-based index is, at its core, a view over the matrix
//! `A[i][j] = d(o_i, p_j)`.
//!
//! * [`PivotMatrix`] is that matrix flat, row-major and exact: **built
//!   once, in parallel** ([`PivotMatrix::compute`], on the same
//!   scoped-thread worker pool as [`crate::parallel`]), clustered over by
//!   the router, and dropped once every shard has taken its members' rows.
//! * [`PivotColumns`] is the only stored form: one planar f32 column per
//!   pivot, in local-slot order, quantised once on the way in
//!   ([`quantise`]). Half the bytes per distance and twice the SIMD lanes
//!   per register of f64 rows, one contiguous load per column and step, and
//!   still **exact**: the kernel subtracts a rounding slack
//!   ([`PivotColumns::slack`]) from every bound, so a bound only ever gets
//!   *smaller* — an occasional extra exact check, never a dropped result —
//!   and routing boxes cover the whole interval of distances a stored value
//!   can stand for ([`stored_interval`]).
//! * The per-object lower-bound filter runs through the cache-blocked,
//!   SIMD-dispatched [`ScanKernel`] instead of one function call per row.
//!
//! # One owner, clone shares, a writer copies what it writes
//!
//! Stored columns have value semantics and exactly one owner: a standalone
//! table, or one shard of a sharded engine — the unit a query is routed to
//! owns the bytes it scans. Each column is a [`CowVec`]: readers never
//! block (a scan is a pass over plain slices behind `Arc`s), a clone (what
//! an index fork is) shares every full chunk and copies the one partly
//! filled chunk per column — what a forked shard pays per commit — so a
//! [`PivotColumns::push_row`] on it writes only memory it owns. The other
//! side never observes the write, and dropping an unpublished clone changes
//! nothing.
//!
//! Removal is handled *outside* the columns: rows of tombstoned objects
//! stay in place (ids remain row indices) and are simply never verified,
//! because liveness lives in the index's slot map ([`crate::ObjTable`]).
//! Under sustained churn those dead rows still cost lower-bound arithmetic
//! and cache space, which is what compaction (driven by the engine's
//! `CompactionPolicy`) reclaims: each shard keeps
//! [`select`](PivotColumns::select) of its survivors.

use crate::cow::CowVec;
use crate::distance::Metric;
use crate::simd::{self, SimdTier};

/// Safety factor applied on top of the worst-case f32 rounding error when
/// deriving the admissibility slack (see [`PivotColumns::slack`]).
pub const F32_SLACK_FACTOR: f64 = 4.0;

/// The one rounding a pivot distance undergoes on its way into
/// [`PivotColumns`] (round to nearest f32). Everything derived from stored
/// values — the scan's slack, the routing boxes — accounts for exactly this.
#[inline]
pub fn quantise(x: f64) -> f32 {
    x as f32
}

/// The closed interval of true distances a stored value `y` can stand for:
/// `quantise(x) == y` implies `lo ≤ x ≤ hi` (round-to-nearest moves `x` by
/// at most half an ulp, so one whole ulp either side contains it, ties and
/// overflow to `∞` included). Routing boxes are built from these intervals,
/// which is what keeps them admissible for the exact f64 map of every
/// member while remaining a pure function of the stored columns.
#[inline]
pub fn stored_interval(y: f32) -> (f64, f64) {
    (y.next_down() as f64, y.next_up() as f64)
}

/// The transient, exact, row-major `n × l` matrix a build computes:
/// row `i` holds `(d(o_i, p_1), …, d(o_i, p_l))`. The engine partitions
/// over it and hands each shard its members' rows, which the shard stores
/// as [`PivotColumns`]; nothing keeps an f64 row after the build.
#[derive(Clone, Debug, Default, PartialEq)]
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
            data: Vec::with_capacity(width * rows),
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
        PivotMatrix { data, width, rows }
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

    /// Number of rows `n`.
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
        &self.data[id * self.width..(id + 1) * self.width]
    }

    /// Appends one row, returning its row id.
    pub fn push_row(&mut self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.width, "row length must equal pivot count");
        self.data.extend_from_slice(row);
        self.rows += 1;
        self.rows - 1
    }

    /// The whole matrix as one flat row-major run.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Iterates `(row id, row)` over every row.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, &[f64])> {
        (0..self.rows).map(|i| (i, self.row(i)))
    }
}

/// The stored form of pivot distances: one planar (column-major) f32 column
/// per pivot — `column j` holds `quantise(d(o_i, p_j))` at index `i` — plus
/// the running max magnitude that sizes the admissibility slack. Row ids are
/// stable slot ids: rows are never removed (a tombstoned slot keeps its row
/// and its index skips it) until an engine-level compaction
/// [`select`](Self::select)s the survivors.
///
/// Cloning shares every full chunk of every column and copies the partly
/// filled one (`O(rows / chunk)` handles, at most one 8 KiB chunk per
/// column), and a clone that is then written to copies what it writes —
/// value semantics (module docs).
#[derive(Clone, Debug, Default)]
pub struct PivotColumns {
    /// `cols[j][i] = quantise(d(o_i, p_j))`. Every column chunks alike, so
    /// chunk `c` of each covers the same rows.
    cols: Vec<CowVec<f32>>,
    /// Running `max |y|` over every stored value (tombstoned rows
    /// included): sizes the rounding slack.
    max_abs: f32,
    /// Number of rows (tracked separately so zero pivots still count).
    rows: usize,
}

impl PivotColumns {
    /// Empty columns over `width` pivots.
    pub fn new(width: usize) -> Self {
        PivotColumns {
            cols: vec![CowVec::new(); width],
            ..PivotColumns::default()
        }
    }

    /// Quantises per-object rows (each of length `width`), in order — how a
    /// sharded build hands each shard its members' rows of the one matrix
    /// (a standalone table stores the whole of the matrix it computed:
    /// `PivotColumns::from(&matrix)`).
    pub fn from_rows<R: AsRef<[f64]>>(width: usize, rows: impl IntoIterator<Item = R>) -> Self {
        // Rows are transposed a block at a time, so that each column takes
        // a slice instead of one push per value.
        const BLOCK: usize = 1024;
        let mut out = PivotColumns::new(width);
        let mut block = vec![0.0f32; width * BLOCK];
        let mut rows = rows.into_iter();
        loop {
            let mut n = 0;
            for row in rows.by_ref().take(BLOCK) {
                let row = row.as_ref();
                assert_eq!(row.len(), width, "row length must equal pivot count");
                for (j, &x) in row.iter().enumerate() {
                    block[j * BLOCK + n] = quantise(x);
                }
                n += 1;
            }
            for (col, ys) in out.cols.iter_mut().zip(block.chunks(BLOCK)) {
                col.extend_from_slice(&ys[..n]);
                out.max_abs = ys[..n].iter().fold(out.max_abs, |m, y| m.max(y.abs()));
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

    /// The stored values of row `id`, pivot order.
    #[inline]
    pub fn row(&self, id: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(id < self.rows, "row {id} of {}", self.rows);
        self.cols.iter().map(move |c| c[id])
    }

    /// Quantises and appends one row, returning its row id. Never copies a
    /// chunk: a clone took its own copy of each column's partly filled one
    /// (module docs).
    pub fn push_row(&mut self, row: &[f64]) -> usize {
        assert_eq!(row.len(), self.width(), "row length must equal pivot count");
        self.push_stored(row.iter().map(|&x| quantise(x)));
        self.rows - 1
    }

    fn push_stored(&mut self, row: impl Iterator<Item = f32>) {
        for (col, y) in self.cols.iter_mut().zip(row) {
            col.push(y);
            self.max_abs = self.max_abs.max(y.abs());
        }
        self.rows += 1;
    }

    /// New columns holding the given rows of `self`, in `ids` order, as
    /// stored (nothing is re-rounded; the max magnitude is the survivors'
    /// own) — the dense-survivor rebuild of a shard's compaction.
    pub fn select(&self, ids: &[u32]) -> Self {
        let mut out = PivotColumns::new(self.width());
        for &id in ids {
            out.push_stored(self.row(id as usize));
        }
        out
    }

    /// Running `max |y|` over every stored value.
    pub fn max_abs(&self) -> f64 {
        self.max_abs as f64
    }

    /// The admissibility slack subtracted from every bound for a query
    /// whose pivot distances have max magnitude `qd_max_abs`.
    ///
    /// Worst-case error of the f32 bound vs the true f64 bound
    /// `max_j |qd_j − row_j|`: rounding each operand to f32 perturbs it by
    /// at most `½·ε₃₂·|operand|`, and the f32 subtraction adds at most
    /// `½·ε₃₂` of the result's magnitude (≤ the operand magnitudes' sum),
    /// so each `|qd_j − row_j|` term is off by at most about
    /// `ε₃₂·(|qd_j| + |row_j|)`; `max` never amplifies error. Subtracting
    /// `F32_SLACK_FACTOR · ε₃₂ · (max|row| + max|qd|)` therefore guarantees
    /// the adjusted bound never exceeds the true bound — with a 4× margin,
    /// which also absorbs taking `max|row|` over the stored values — and
    /// the kernel clamps at zero (degenerate inputs such as overflow to
    /// `±∞` or `NaN` produce a zero bound, i.e. a full exact scan, never an
    /// inadmissible one).
    pub fn slack(&self, qd_max_abs: f64) -> f64 {
        F32_SLACK_FACTOR * (f32::EPSILON as f64) * (self.max_abs() + qd_max_abs)
    }

    /// In-memory footprint in bytes: 4 per stored distance.
    pub fn mem_bytes(&self) -> u64 {
        4 * (self.rows * self.width()) as u64
    }

    /// Lemma 1 lower bounds for **all** rows at once, through the blocked
    /// [`ScanKernel`] over each chunk of the columns, slack-adjusted into
    /// admissible f64 bounds, into a reused buffer. Rows of tombstoned
    /// slots are included — computing their bound is cheaper than branching
    /// on liveness inside the kernel; the caller's slot map skips them in
    /// the verification pass.
    pub fn lower_bounds_into(&self, qd: &[f64], out: &mut Vec<f64>) {
        let w = self.width();
        debug_assert_eq!(qd.len(), w);
        let tier = simd::tier();
        out.clear();
        out.resize(self.rows, 0.0);
        if qd.is_empty() {
            return;
        }
        // Round the query's pivot distances once per scan; the slack
        // covers this rounding plus the columns'.
        let mut qmax = 0.0f64;
        let mut qstack = [0.0f32; 64];
        let qheap: Vec<f32>;
        let qd32: &[f32] = if w <= qstack.len() {
            for (s, q) in qstack.iter_mut().zip(qd) {
                *s = quantise(*q);
                qmax = qmax.max(q.abs());
            }
            &qstack[..w]
        } else {
            qheap = qd
                .iter()
                .map(|q| {
                    qmax = qmax.max(q.abs());
                    quantise(*q)
                })
                .collect();
            &qheap
        };
        let slack = self.slack(qmax);
        // Column refs sit on the stack for the common pivot counts.
        let mut cstack: [&[f32]; 64] = [&[]; 64];
        let mut cheap: Vec<&[f32]> = Vec::new();
        let cols: &mut [&[f32]] = if w <= cstack.len() {
            &mut cstack[..w]
        } else {
            cheap.resize(w, &[]);
            &mut cheap
        };
        let mut rest = out.as_mut_slice();
        for c in 0..self.cols[0].chunks().len() {
            for (s, col) in cols.iter_mut().zip(&self.cols) {
                *s = col.chunk(c);
            }
            let (now, later) = rest.split_at_mut(cols[0].len());
            ScanKernel::fill_f32(tier, qd32, cols, slack, now);
            rest = later;
        }
    }
}

impl From<&PivotMatrix> for PivotColumns {
    /// Every row of `matrix`, quantised, in row order.
    fn from(matrix: &PivotMatrix) -> Self {
        Self::from_rows(matrix.width(), matrix.iter_rows().map(|(_, r)| r))
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
/// [`PivotColumns::slack`]).
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
    /// (`clamp_pos(m − slack)`, see [`PivotColumns::slack`]) so callers
    /// compare them against f64 radii/thresholds unchanged.
    ///
    /// Planar storage is what makes f32 pay: every SIMD step is one
    /// contiguous load per column ([`PivotColumns`] keeps its columns in
    /// row order).
    /// [`PivotColumns::lower_bounds_into`] is the serving entry point; this
    /// one is pinned to an explicit SIMD tier for the tier-agreement tests.
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
    use crate::cow;
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
    fn push_row_roundtrip() {
        let mut m = PivotMatrix::new(2);
        assert!(m.is_empty());
        assert_eq!(m.push_row(&[1.0, 2.0]), 0);
        assert_eq!(m.push_row(&[3.0, 4.0]), 1);
        assert_eq!(m.push_row(&[5.0, 6.0]), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.as_slice().len(), 6);
        let rows: Vec<_> = m.iter_rows().collect();
        assert_eq!(rows[2], (2, [5.0, 6.0].as_slice()));
        assert_eq!(
            m,
            PivotMatrix::from_rows(2, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        );
    }

    #[test]
    fn zero_width_counts_rows() {
        let mut m = PivotMatrix::new(0);
        m.push_row(&[]);
        m.push_row(&[]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[] as &[f64]);
        let pts = datasets::la(10, 1);
        let c = PivotMatrix::compute(&pts, &L2, &[], 4);
        assert_eq!(c.rows(), 10);
        assert_eq!(c.width(), 0);
        // Stored: rows count, nothing to scan, every bound is zero.
        let cols = PivotColumns::from(&c);
        assert_eq!((cols.rows(), cols.width(), cols.mem_bytes()), (10, 0, 0));
        let mut lbs = vec![1.0];
        cols.lower_bounds_into(&[], &mut lbs);
        assert_eq!(lbs, vec![0.0; 10]);
    }

    #[test]
    #[should_panic]
    fn push_row_rejects_wrong_width() {
        let mut m = PivotColumns::new(2);
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
                    // Planar columns, rounded the way the store rounds.
                    let cols_own: Vec<Vec<f32>> = (0..w)
                        .map(|j| (0..n).map(|i| quantise(rows64[i * w + j])).collect())
                        .collect();
                    let cols: Vec<&[f32]> = cols_own.iter().map(|c| c.as_slice()).collect();
                    let qd64: Vec<f64> = (0..w)
                        .map(|j| ((j * 29 % 31) as f64 - 15.0) * 1.1)
                        .collect();
                    let qd32: Vec<f32> = qd64.iter().map(|&x| quantise(x)).collect();
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

    // -----------------------------------------------------------------
    // PivotColumns: the stored form.
    // -----------------------------------------------------------------

    #[test]
    fn stored_intervals_contain_what_they_stand_for() {
        // Exactly representable, a round-to-even tie (2^24 + 1), just off a
        // tie on either side, subnormal, zero, overflow.
        let tie = 16_777_217.0f64;
        for x in [
            0.0,
            1.0,
            0.1,
            tie,
            tie + 1e-9,
            tie - 1e-9,
            9_000_000.5,
            1e-45,
            f32::MAX as f64,
            1e39,
        ] {
            let (lo, hi) = stored_interval(quantise(x));
            assert!(lo <= x && x <= hi, "{x} outside [{lo}, {hi}]");
            assert!(lo < hi);
        }
        // One ulp a face, no more.
        assert_eq!(
            stored_interval(1.0),
            (1.0 - 2f64.powi(-24), 1.0 + 2f64.powi(-23))
        );
    }

    #[test]
    fn max_abs_tracks_every_mutation_path() {
        let mut m = PivotColumns::from_rows(2, [[1.0, -8.0], [2.5, 3.0]]);
        assert_eq!((m.rows(), m.width()), (2, 2));
        assert_eq!(m.max_abs(), 8.0);
        assert_eq!(m.mem_bytes(), 4 * 4, "four bytes per stored distance");
        assert_eq!(m.row(0).collect::<Vec<_>>(), [1.0f32, -8.0]);

        // push_row extends the max.
        assert_eq!(m.push_row(&[-9.5, 0.25]), 2);
        assert_eq!(m.max_abs(), 9.5);

        // select keeps stored values and recomputes the (tighter) max.
        let s = m.select(&[1, 0]);
        assert_eq!(s.max_abs(), 8.0);
        assert_eq!(s.row(0).collect::<Vec<_>>(), [2.5f32, 3.0]);

        // A push on a clone is the clone's alone.
        let mut forked = m.clone();
        forked.push_row(&[100.0, -1.0]);
        assert_eq!(forked.max_abs(), 100.0);
        assert_eq!(
            (m.max_abs(), m.rows()),
            (9.5, 3),
            "the pinned side is untouched"
        );
    }

    /// Bit-for-bit agreement of two column sets' bounds for one query.
    fn assert_same_bounds(got: &PivotColumns, want: &PivotColumns, qd: &[f64], ctx: &str) {
        let (mut g, mut w) = (Vec::new(), Vec::new());
        got.lower_bounds_into(qd, &mut g);
        want.lower_bounds_into(qd, &mut w);
        assert_eq!(g.len(), w.len(), "{ctx}");
        for (i, (g, w)) in g.iter().zip(&w).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: row {i}");
        }
    }

    #[test]
    fn scans_span_every_chunk_and_survive_forks_bit_for_bit() {
        // Enough rows for three chunks per column, re-pinned along the way
        // so partly filled chunks get copied. Oracle: fresh columns over
        // the same rows.
        let chunk = CowVec::<f32>::CHUNK;
        let total = 2 * chunk + 17;
        let row = |i: usize| [(i * 37 % 101) as f64 - 50.0, (i * 53 % 211) as f64 * 1.375];
        let qd = [3.0f64, -1.5];
        let flat = PivotColumns::from_rows(2, (0..total).map(row));
        let mut grown = PivotColumns::from_rows(2, (0..300).map(row));
        let mut pin = grown.clone();
        for i in 300..total {
            grown.push_row(&row(i));
            if i % 700 == 0 {
                pin = grown.clone();
            }
        }
        assert!(pin.rows() < total && grown.cols[0].chunks().len() == 3);
        assert_same_bounds(&grown, &flat, &qd, "grown under pins");
        let pinned = PivotColumns::from_rows(2, (0..pin.rows()).map(row));
        assert_same_bounds(&pin, &pinned, &qd, "the pinned clone");
        let ids: Vec<u32> = (0..total as u32).rev().step_by(3).collect();
        let selected = PivotColumns::from_rows(2, ids.iter().map(|&i| row(i as usize)));
        assert_eq!(grown.select(&ids).max_abs(), selected.max_abs());
        assert_same_bounds(&grown.select(&ids), &selected, &qd, "select");
    }

    #[test]
    fn a_push_on_a_clone_copies_at_most_one_chunk_per_column() {
        let chunk = CowVec::<f32>::CHUNK;
        let first =
            PivotColumns::from_rows(2, (0..3 * chunk + 100).map(|i| [i as f64, -(i as f64)]));
        let before = cow::copied_bytes();
        let mut second = first.clone();
        second.push_row(&[7.0, 8.0]);
        // The clone copied each column's 100-value last chunk; the push
        // found it owned.
        assert_eq!(cow::copied_bytes() - before, 2 * 100 * 4);
        assert_eq!(
            (first.rows(), second.rows()),
            (3 * chunk + 100, 3 * chunk + 101)
        );
        assert_eq!(
            second.row(3 * chunk + 100).collect::<Vec<_>>(),
            [7.0f32, 8.0]
        );
        assert_eq!(second.row(99).collect::<Vec<_>>(), [99.0f32, -99.0]);
    }

    #[test]
    fn stored_bounds_are_admissible_on_real_data() {
        let pts = datasets::la(500, 7);
        let pivots: Vec<Vec<f32>> = vec![pts[3].clone(), pts[90].clone(), pts[222].clone()];
        let m64 = PivotMatrix::compute(&pts, &L2, &pivots, 1);
        let m32 = PivotColumns::from(&m64);
        let qd: Vec<f64> = pivots.iter().map(|p| L2.dist(&pts[42], p)).collect();
        let mut lbs = Vec::new();
        m32.lower_bounds_into(&qd, &mut lbs);
        assert_eq!(lbs.len(), 500);
        let slk = m32.slack(qd.iter().fold(0.0f64, |a, q| a.max(q.abs())));
        for (i, lb) in lbs.iter().enumerate() {
            let truth = pivot_lower_bound(&qd, m64.row(i));
            assert!(*lb <= truth, "row {i}: stored bound {lb} > true {truth}");
            assert!(*lb >= 0.0);
            // And not uselessly loose: within slack of the truth.
            assert!(truth - *lb <= 2.0 * slk + truth * 1e-6, "row {i} too loose");
            // The by-hand form of the stored-precision bound.
            let m = m32
                .row(i)
                .zip(&qd)
                .fold(0.0f32, |m, (y, &q)| m.max((quantise(q) - y).abs()));
            assert_eq!(lb.to_bits(), clamp_pos(m as f64 - slk).to_bits(), "row {i}");
        }
        // A permuted selection (same rows, so the same slack) agrees per row.
        let index: Vec<u32> = (0..500u32).map(|i| (i * 7) % 500).collect();
        let mut plbs = Vec::new();
        m32.select(&index).lower_bounds_into(&qd, &mut plbs);
        for (i, &id) in index.iter().enumerate() {
            assert_eq!(plbs[i].to_bits(), lbs[id as usize].to_bits());
        }
    }
}
