//! The pivot table itself (paper §3): `n × l` stored distances from every
//! slot to one shared pivot set, scanned with Lemma 1. LAESA and CPT are
//! this table plus a place for the objects, so its build, its range and
//! kNN bodies, its inserts and its compaction are written here once.

use pmi_metric::matrix::{code_rows, quantise};
use pmi_metric::{
    dists_from, CountingMetric, Metric, Neighbor, ObjId, ObjTable, Object, PivotColumns,
    QueryScratch,
};
use std::borrow::Borrow;

/// The instrumented metric, the shared pivots and the stored rows (planar
/// u16 bucket [`PivotColumns`], one row per slot, tombstoned slots
/// included). Cloning shares the distance counter and every full chunk of
/// the columns.
#[derive(Clone)]
pub(crate) struct PivotTable<O, M> {
    pub(crate) metric: CountingMetric<M>,
    pub(crate) pivots: Vec<O>,
    pub(crate) rows: PivotColumns,
}

impl<O, M> PivotTable<O, M>
where
    O: Object,
    M: Metric<O>,
{
    /// Computes the rows of `objects`, a block at a time ([`code_rows`]):
    /// exactly `n · l` distances.
    pub(crate) fn compute(objects: &ObjTable<O>, metric: M, pivots: Vec<O>) -> Self {
        let metric = CountingMetric::new(metric);
        let (n, width) = (objects.slots(), pivots.len());
        let (codes, step) = code_rows(n, width, 1, |run, slots| {
            for (slot, i) in slots.chunks_mut(width.max(1)).zip(run) {
                let o = objects.get(i as ObjId).expect("a fresh table is all live");
                let pivots = slot.iter_mut().zip(pivots.iter().map(|p| &**p));
                dists_from(&metric, o, pivots, |x, d| *x = d);
            }
        });
        let rows =
            PivotColumns::from_codes(width, step, (0..n).map(|i| &codes[i * width..][..width]));
        PivotTable {
            metric,
            pivots,
            rows,
        }
    }

    /// Adopts `rows` (row `i` = object `i`'s distances to `pivots`, of `n`
    /// objects): zero distances.
    pub(crate) fn adopt(n: usize, metric: M, pivots: Vec<O>, rows: PivotColumns) -> Self {
        assert_eq!(rows.rows(), n, "one matrix row per object");
        assert_eq!(rows.width(), pivots.len(), "one matrix column per pivot");
        PivotTable {
            metric: CountingMetric::new(metric),
            pivots,
            rows,
        }
    }

    /// Maps `o` (`|P|` distances, Table 6) and appends its row; returns
    /// its slot.
    pub(crate) fn push_mapped(&mut self, o: &O::Target) -> usize {
        let step = self.rows.step();
        let codes: Vec<u16> = (self.pivots.iter())
            .map(|p| quantise(self.metric.dist(o, p), step))
            .collect();
        self.rows.push_codes(&codes)
    }

    /// Keeps the rows of `keep`, in that order (the engine's compaction).
    pub(crate) fn select(&mut self, keep: &[ObjId]) {
        self.rows = self.rows.select(keep);
    }

    /// Bytes of the rows and the pivots; the objects are the caller's.
    pub(crate) fn mem_bytes(&self) -> u64 {
        let pivots: u64 = self.pivots.iter().map(|p| p.encoded_len() as u64).sum();
        self.rows.mem_bytes() + pivots
    }

    /// The range body: one kernel pass over every slot, the `live` slots
    /// whose gap admits `r` collected in slot order
    /// ([`QueryScratch::range_survivors`]), then
    /// [`QueryScratch::range_verify`] through the `point` fault hook,
    /// `get(slot)` yielding a survivor's object.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn range<B: Borrow<O::Target>>(
        &self,
        q: &O::Target,
        r: f64,
        scratch: &mut QueryScratch,
        live: impl Fn(ObjId) -> bool,
        point: &str,
        get: impl Fn(ObjId) -> B,
        out: &mut Vec<ObjId>,
    ) {
        // Malformed radii are rejected at the engine boundary
        // (`QueryError::NanRadius` / `NegativeRadius`); below it they are an
        // empty answer, never a panic. `+∞` stays a valid "match all".
        debug_assert!(!r.is_nan(), "NaN radius must be rejected upstream");
        if r.is_nan() || r < 0.0 {
            return;
        }
        scratch.note_kernel(self.rows.rows());
        scratch.map_query(&self.metric, q, &self.pivots);
        self.rows.gaps_into(&scratch.qd, &mut scratch.gaps);
        scratch.range_survivors(r, self.rows.step(), live);
        scratch.range_verify(&self.metric, q, r, point, get, out);
    }

    /// The kNN body: one kernel pass (the gaps do not depend on a
    /// radius), then [`QueryScratch::knn_verify`], nearest bound first;
    /// `get(slot)` is `None` for a tombstoned slot. The paper's LAESA
    /// verifies in storage order and notes that as suboptimal (§3.1).
    pub(crate) fn knn<B: Borrow<O::Target>>(
        &self,
        q: &O::Target,
        k: usize,
        seed: f64,
        scratch: &mut QueryScratch,
        get: impl Fn(ObjId) -> Option<B>,
        out: &mut Vec<Neighbor>,
    ) {
        if k == 0 {
            return;
        }
        scratch.note_kernel(self.rows.rows());
        scratch.map_query(&self.metric, q, &self.pivots);
        self.rows.gaps_into(&scratch.qd, &mut scratch.gaps);
        let dist = |id| get(id).map(|o| self.metric.dist(q, o.borrow()));
        scratch.knn_verify(k, seed, self.rows.step(), dist, out);
    }
}
