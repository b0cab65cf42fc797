//! Measurement plumbing: builds indexes with the paper's shared-pivot
//! setup, runs query/update batches, and reports the three §6.1 cost
//! metrics averaged per operation.

use pmi::builder::{build_index, BuildOptions, IndexKind};
use pmi::{datasets, pivots, Metric, MetricIndex, ObjId, Object};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::Instant;

/// Construction cost + storage (Table 4 row fragment).
#[derive(Clone, Copy, Debug)]
pub struct BuildStats {
    /// Page accesses during construction.
    pub pa: u64,
    /// Distance computations during construction.
    pub compdists: u64,
    /// Wall-clock construction time.
    pub secs: f64,
    /// Main-memory footprint (KB).
    pub mem_kb: u64,
    /// Disk footprint (KB).
    pub disk_kb: u64,
}

/// Per-query averages (figures 14–18 data points).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryCost {
    /// Average page accesses per query.
    pub pa: f64,
    /// Average distance computations per query.
    pub compdists: f64,
    /// Average CPU seconds per query.
    pub secs: f64,
    /// Average result-set size (sanity / selectivity check).
    pub results: f64,
}

/// Per-update averages (Table 6 row fragment).
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateCost {
    /// Average page accesses per delete+reinsert.
    pub pa: f64,
    /// Average distance computations per delete+reinsert.
    pub compdists: f64,
    /// Average CPU seconds per delete+reinsert.
    pub secs: f64,
}

/// The paper's experiment defaults (Table 3).
pub const PIVOT_COUNTS: [usize; 5] = [1, 3, 5, 7, 9];
/// Range-query selectivities of Fig. 16.
pub const SELECTIVITIES: [f64; 5] = [0.04, 0.08, 0.16, 0.32, 0.64];
/// k values of Figs. 14, 15, 17, 18.
pub const KS: [usize; 5] = [5, 10, 20, 50, 100];
/// Default |P|.
pub const DEFAULT_PIVOTS: usize = 5;
/// Default selectivity (16%).
pub const DEFAULT_SELECTIVITY: f64 = 0.16;
/// Default k.
pub const DEFAULT_K: usize = 20;

/// Builds the per-dataset [`BuildOptions`], applying the paper's special
/// cases: a 40 KB page for CPT/PM-tree on high-dimensional data (§6.1) and
/// a `maxnum` scaled to the reduced cardinality.
pub fn options_for(
    n: usize,
    d_plus: f64,
    num_pivots: usize,
    high_dimensional: bool,
    seed: u64,
) -> BuildOptions {
    BuildOptions {
        num_pivots,
        d_plus,
        inline_page_size: if high_dimensional {
            pmi::storage::LARGE_PAGE_SIZE
        } else {
            pmi::storage::DEFAULT_PAGE_SIZE
        },
        maxnum: (n / 64).max(64),
        seed,
        ..BuildOptions::default()
    }
}

/// Selects the shared HFI pivot set (§6.1) — uncounted, like the paper,
/// which charges pivot selection to neither index (EPT/EPT*/BKT pick their
/// own pivots inside their builders and *are* charged).
pub fn shared_pivots<O: Object, M: Metric<O>>(
    objects: &[O],
    metric: &M,
    l: usize,
    seed: u64,
) -> Vec<O> {
    pivots::select_hfi(objects, metric, l, seed)
        .into_iter()
        .map(|i| objects[i].clone())
        .collect()
}

/// Builds an index and measures its construction cost.
#[allow(clippy::type_complexity)]
pub fn build_measured<O, M>(
    kind: IndexKind,
    objects: &[O],
    metric: &M,
    pivots: &[O],
    opts: &BuildOptions,
) -> Option<(Box<dyn MetricIndex<O>>, BuildStats)>
where
    O: Object,
    M: Metric<O> + Clone + 'static,
{
    let start = Instant::now();
    let idx = build_index(
        kind,
        objects.to_vec(),
        metric.clone(),
        pivots.to_vec(),
        opts,
    )
    .ok()?;
    let secs = start.elapsed().as_secs_f64();
    let c = idx.counters();
    let s = idx.storage();
    let stats = BuildStats {
        pa: c.page_accesses(),
        compdists: c.compdists,
        secs,
        mem_kb: s.mem_bytes / 1024,
        disk_kb: s.disk_bytes / 1024,
    };
    Some((idx, stats))
}

/// Draws `q` query positions (dataset objects double as query objects).
pub fn query_positions(n: usize, q: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51);
    (0..q).map(|_| rng.random_range(0..n)).collect()
}

/// Runs a batch of range queries and averages the costs. The 128 KB LRU
/// cache is enabled only for kNN batches (paper §6.1), so it is cleared
/// here by resetting counters only.
pub fn run_mrq<O: Object>(
    idx: &dyn MetricIndex<O>,
    objects: &[O],
    queries: &[usize],
    r: f64,
) -> QueryCost {
    idx.reset_counters();
    let mut results = 0usize;
    let start = Instant::now();
    for &qi in queries {
        results += idx.range_query(&objects[qi], r).len();
    }
    let secs = start.elapsed().as_secs_f64();
    let c = idx.counters();
    let nq = queries.len().max(1) as f64;
    QueryCost {
        pa: c.page_accesses() as f64 / nq,
        compdists: c.compdists as f64 / nq,
        secs: secs / nq,
        results: results as f64 / nq,
    }
}

/// Runs a batch of kNN queries and averages the costs.
pub fn run_knn<O: Object>(
    idx: &dyn MetricIndex<O>,
    objects: &[O],
    queries: &[usize],
    k: usize,
) -> QueryCost {
    idx.reset_counters();
    let mut results = 0usize;
    let start = Instant::now();
    for &qi in queries {
        results += idx.knn_query(&objects[qi], k).len();
    }
    let secs = start.elapsed().as_secs_f64();
    let c = idx.counters();
    let nq = queries.len().max(1) as f64;
    QueryCost {
        pa: c.page_accesses() as f64 / nq,
        compdists: c.compdists as f64 / nq,
        secs: secs / nq,
        results: results as f64 / nq,
    }
}

/// Table 6's update operation: delete a specific object, then insert it
/// back; averaged over `ops` objects.
pub fn run_updates<O: Object>(idx: &mut dyn MetricIndex<O>, ops: usize, seed: u64) -> UpdateCost {
    let n = idx.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
    let ids: Vec<ObjId> = (0..ops.min(n))
        .map(|_| rng.random_range(0..n as u32))
        .collect();
    idx.reset_counters();
    let start = Instant::now();
    let mut done = 0usize;
    for id in ids {
        let Some(o) = idx.get(id) else { continue }; // duplicate draw
        assert!(idx.remove(id), "object {id} must be removable");
        idx.insert(o);
        done += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    let c = idx.counters();
    let nd = done.max(1) as f64;
    UpdateCost {
        pa: c.page_accesses() as f64 / nd,
        compdists: c.compdists as f64 / nd,
        secs: secs / nd,
    }
}

/// Calibrated radius for a target selectivity (the paper's `r` parameter
/// is "the percentage of objects ... that are result objects", §6.1).
pub fn radius_for<O: Object, M: Metric<O>>(
    objects: &[O],
    metric: &M,
    selectivity: f64,
    seed: u64,
) -> f64 {
    datasets::calibrate_radius(objects, metric, selectivity, seed)
}

/// Byte capacity of the paper's MkNNQ page cache (128 KB LRU, §6.1); the
/// kNN sweeps hand it to [`MetricIndex::set_page_cache`] after the build
/// (a no-op for in-memory indexes).
pub fn knn_cache_bytes() -> usize {
    pmi::storage::KNN_CACHE_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmi::L2;

    #[test]
    fn build_and_measure_roundtrip() {
        let pts = datasets::la(400, 3);
        let pv = shared_pivots(&pts, &L2, 4, 3);
        let opts = options_for(pts.len(), 14143.0, 4, false, 3);
        let (idx, stats) =
            build_measured(IndexKind::Laesa, &pts, &L2, &pv, &opts).expect("buildable");
        assert_eq!(stats.compdists, 400 * 4);
        assert!(stats.mem_kb > 0);
        assert_eq!(stats.pa, 0);

        let qs = query_positions(pts.len(), 5, 3);
        let r = radius_for(&pts, &L2, 0.16, 3);
        let mrq = run_mrq(idx.as_ref(), &pts, &qs, r);
        assert!(mrq.compdists > 0.0);
        // Selectivity should be in the right ballpark (16% ± a lot at this
        // tiny scale).
        assert!(mrq.results > 400.0 * 0.02 && mrq.results < 400.0 * 0.6);
        let knn = run_knn(idx.as_ref(), &pts, &qs, 10);
        assert!((knn.results - 10.0).abs() < 1e-9);
    }

    #[test]
    fn updates_roundtrip() {
        let pts = datasets::la(300, 5);
        let pv = shared_pivots(&pts, &L2, 3, 5);
        let opts = options_for(pts.len(), 14143.0, 3, false, 5);
        let (mut idx, _) =
            build_measured(IndexKind::OmniR, &pts, &L2, &pv, &opts).expect("buildable");
        let cost = run_updates(idx.as_mut(), 10, 5);
        assert!(cost.compdists > 0.0);
        assert!(cost.pa > 0.0);
        assert_eq!(idx.len(), 300);
    }
}
