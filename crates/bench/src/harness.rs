//! Measurement plumbing: builds indexes with the paper's shared-pivot
//! setup, runs query/update batches, and reports the three §6.1 cost
//! metrics averaged per operation.

use pmi::builder::{build_index, BuildOptions, IndexKind};
use pmi::obs::{fingerprint, JsonObj, RunLog};
use pmi::{datasets, pivots, EncodeObject, Metric, MetricIndex, ObjId};
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
pub fn shared_pivots<O: Clone, M: Metric<O>>(
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
    O: Clone + EncodeObject + Send + Sync + 'static,
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
pub fn run_mrq<O>(idx: &dyn MetricIndex<O>, objects: &[O], queries: &[usize], r: f64) -> QueryCost {
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
pub fn run_knn<O>(
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
pub fn run_updates<O: Clone>(idx: &mut dyn MetricIndex<O>, ops: usize, seed: u64) -> UpdateCost {
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
pub fn radius_for<O, M: Metric<O>>(objects: &[O], metric: &M, selectivity: f64, seed: u64) -> f64 {
    datasets::calibrate_radius(objects, metric, selectivity, seed)
}

/// Schema version stamped into every `BENCH_*.json` trajectory point —
/// bump when the shared header shape below changes.
pub const BENCH_SCHEMA: &str = "pmi-bench-v2";

/// The workspace root, where every trajectory artifact
/// (`BENCH_*.json`, `RUNLOG.jsonl`) lands.
pub fn workspace_root() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../..")
}

/// One `BENCH_*.json` trajectory point. Every emitter funnels through
/// here, so each file carries the same header: `schema` (the
/// [`BENCH_SCHEMA`] version), `bench`, `config_fingerprint` (FNV-1a over
/// the bench name and its config pairs — trajectory consumers use it to
/// tell apart points produced under different parameter sets), and the
/// config echo itself. Bench-specific measurements chain on via the
/// `field_*` builders; [`write`](Self::write) lands the file at the
/// workspace root.
pub struct TrajectoryPoint {
    bench: &'static str,
    fingerprint: u64,
    obj: JsonObj,
}

impl TrajectoryPoint {
    /// `config` pairs are `(key, raw JSON value)` — numbers as `"8000"`,
    /// strings pre-quoted as `"\"la\""`.
    pub fn new(bench: &'static str, config: &[(&str, String)]) -> Self {
        let mut parts: Vec<String> = vec![bench.to_string()];
        parts.extend(config.iter().map(|(k, v)| format!("{k}={v}")));
        let fp = fingerprint(&parts);
        let mut obj = JsonObj::new()
            .field_str("schema", BENCH_SCHEMA)
            .field_str("bench", bench)
            .field_str("config_fingerprint", &format!("{fp:#018x}"));
        for (k, v) in config {
            obj = obj.field_raw(k, v);
        }
        TrajectoryPoint {
            bench,
            fingerprint: fp,
            obj,
        }
    }

    /// The config fingerprint stamped into the header (also the key that
    /// links this point's run-log lines — see [`runlog`](Self::runlog)).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// A fresh run-log keyed to this point's bench name + fingerprint.
    pub fn runlog(&self) -> RunLog {
        RunLog::new(self.bench, self.fingerprint)
    }

    /// Appends an unsigned-integer measurement.
    pub fn field_u64(mut self, k: &str, v: u64) -> Self {
        self.obj = self.obj.field_u64(k, v);
        self
    }

    /// Appends a float measurement (non-finite values become `null`).
    pub fn field_f64(mut self, k: &str, v: f64) -> Self {
        self.obj = self.obj.field_f64(k, v);
        self
    }

    /// Appends a boolean field.
    pub fn field_bool(mut self, k: &str, v: bool) -> Self {
        self.obj = self.obj.field_bool(k, v);
        self
    }

    /// Appends pre-rendered JSON (nested objects / arrays).
    pub fn field_raw(mut self, k: &str, v: &str) -> Self {
        self.obj = self.obj.field_raw(k, v);
        self
    }

    /// Writes the point to `<workspace root>/<file>` and logs it.
    pub fn write(self, file: &str) {
        let path = format!("{}/{file}", workspace_root());
        let mut body = self.obj.finish();
        body.push('\n');
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("wrote {file}");
    }
}

/// Appends a bench's run-log lines to `<workspace root>/RUNLOG.jsonl`
/// (no-op when the log is empty, e.g. with the `obs` feature off). The
/// sink is size-capped: once the file would exceed
/// [`pmi::obs::RUNLOG_MAX_LINES`] lines it is rotated down to the newest
/// lines, so the committed trajectory never grows without bound while the
/// recent history `pmi-analyze` diffs against stays intact.
///
/// The run log is telemetry, not a result: an unwritable sink (read-only
/// checkout, full disk) must not fail the bench that produced the numbers,
/// so I/O errors are reported on stderr and otherwise ignored.
pub fn append_runlog(log: &RunLog) {
    if log.is_empty() {
        return;
    }
    let path = std::path::Path::new(workspace_root()).join("RUNLOG.jsonl");
    match log.append_to_capped(&path, pmi::obs::RUNLOG_MAX_LINES) {
        Ok(()) => println!(
            "appended {} run-log line(s) to RUNLOG.jsonl",
            log.lines().len()
        ),
        Err(e) => eprintln!("warning: could not append RUNLOG.jsonl: {e} (continuing)"),
    }
}

/// The uniform run-log trailer for the criterion figure benches: records
/// one whole-process `bench` phase and appends it. Only fires in real
/// measurement mode (`cargo bench` passes `--bench`); smoke/test
/// invocations write nothing, mirroring the `BENCH_*.json` emitters.
pub fn finish_criterion_runlog(bench: &'static str, t0: Instant) {
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let mut log = RunLog::new(bench, fingerprint(&[bench]));
    log.record("bench", 1, t0.elapsed().as_secs_f64(), &[]);
    append_runlog(&log);
}

/// Enables the paper's 128 KB MkNNQ cache on a disk-based index by probing
/// its storage handle (no-op for in-memory indexes). The trait has no disk
/// accessor, so the harness passes the flag at build time instead; this
/// helper documents the knob for external users.
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
