//! The metrics registry and phase spans.
//!
//! [`Registry`] is the shared sink: engine workers record into plain
//! per-thread buffers and the engine folds them in **once per batch**
//! (under a mutex), so nothing here sits on the serve hot path. There is
//! one mode: the registry is always compiled in and always records.
//!
//! Phases form a tree by dotted path (`serve.scan` under `serve`); each
//! accumulates a call count, wall-clock nanoseconds, and named counter
//! deltas. [`MetricsSnapshot`] is the plain-data read-out.

use crate::hist::{Hist, HistSummary};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Point-in-time read-out of a [`Registry`]: sorted by name, plain data.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram summaries, sorted by name.
    pub hists: Vec<(String, HistSummary)>,
    /// Phase tree in depth-first (lexicographic path) order.
    pub phases: Vec<PhaseSnapshot>,
}

/// One node of the phase tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseSnapshot {
    /// Dotted path, e.g. `serve.scan`.
    pub path: String,
    /// Times the phase ran.
    pub calls: u64,
    /// Cumulative wall-clock across calls.
    pub wall_secs: f64,
    /// Named counter deltas attributed to the phase, sorted by name.
    pub counters: Vec<(String, u64)>,
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3}us", s * 1e6)
    } else {
        format!("{:.0}ns", s * 1e9)
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as an indented phase tree followed by
    /// histograms, counters, and gauges — the human-facing view printed
    /// by `examples/serve_batch.rs`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.phases.is_empty() {
            out.push_str("phases:\n");
            for p in &self.phases {
                let depth = p.path.matches('.').count();
                let leaf = p.path.rsplit('.').next().unwrap_or(&p.path);
                let label = format!("{}{}", "  ".repeat(depth + 1), leaf);
                out.push_str(&format!(
                    "{label:<28} calls={:<6} wall={}",
                    p.calls,
                    fmt_secs(p.wall_secs)
                ));
                for (k, v) in &p.counters {
                    out.push_str(&format!("  {k}={v}"));
                }
                out.push('\n');
            }
        }
        if !self.hists.is_empty() {
            out.push_str("hists:\n");
            for (name, h) in &self.hists {
                out.push_str(&format!(
                    "  {name:<26} n={} mean={} p50={} p99={} p999={} max={}\n",
                    h.count,
                    fmt_secs(h.mean_secs),
                    fmt_secs(h.p50_secs),
                    fmt_secs(h.p99_secs),
                    fmt_secs(h.p999_secs),
                    fmt_secs(h.max_secs),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<26} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<26} {v}\n"));
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[derive(Default)]
struct PhaseStat {
    calls: u64,
    wall_nanos: u64,
    counters: BTreeMap<String, u64>,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
    phases: BTreeMap<String, PhaseStat>,
}

/// The shared metrics sink. Recording methods take `&self` (interior
/// mutability); callers batch their recording so the mutex is taken a
/// handful of times per engine batch, never per probe.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds to a monotonic counter.
    pub fn counter_add(&self, name: &str, v: u64) {
        if v == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        *inner.counters.entry(name.to_string()).or_default() += v;
    }

    /// Sets a gauge (last write wins).
    pub fn gauge_set(&self, name: &str, v: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.insert(name.to_string(), v);
    }

    /// Folds a per-thread histogram into a named shared one — the
    /// once-per-batch merge path.
    pub fn hist_merge(&self, name: &str, h: &Hist) {
        if h.is_empty() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        inner.hists.entry(name.to_string()).or_default().merge(h);
    }

    /// Accumulates one phase observation: `calls` invocations taking
    /// `wall_nanos` total, with named counter deltas.
    pub fn phase_add(&self, path: &str, calls: u64, wall_nanos: u64, counters: &[(&str, u64)]) {
        let mut inner = self.inner.lock().unwrap();
        let stat = inner.phases.entry(path.to_string()).or_default();
        stat.calls += calls;
        stat.wall_nanos += wall_nanos;
        for &(k, v) in counters {
            if v != 0 {
                *stat.counters.entry(k.to_string()).or_default() += v;
            }
        }
    }

    /// Point-in-time read-out (sorted, plain data).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            hists: inner
                .hists
                .iter()
                .map(|(k, h)| (k.clone(), HistSummary::of(h)))
                .collect(),
            phases: inner
                .phases
                .iter()
                .map(|(path, s)| PhaseSnapshot {
                    path: path.clone(),
                    calls: s.calls,
                    wall_secs: s.wall_nanos as f64 * 1e-9,
                    counters: s.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
                })
                .collect(),
        }
    }
}

/// A lightweight phase timer: captures the clock on `enter`, records
/// wall + counters into a [`Registry`] on `finish_with`. It holds no
/// registry reference, so it can live across `&mut self` engine
/// mutations and be finished against the engine's registry afterward.
#[must_use = "a span records nothing unless finished"]
pub struct Span {
    path: &'static str,
    start: Instant,
}

impl Span {
    /// Starts timing a phase (one clock read).
    #[inline]
    pub fn enter(path: &'static str) -> Span {
        Span {
            path,
            start: Instant::now(),
        }
    }

    /// Records the elapsed wall into the phase with no counters.
    #[inline]
    pub fn finish(self, reg: &Registry) {
        self.finish_with(reg, &[]);
    }

    /// Records the elapsed wall plus named counter deltas.
    #[inline]
    pub fn finish_with(self, reg: &Registry, counters: &[(&str, u64)]) {
        let wall = self.start.elapsed().as_nanos() as u64;
        reg.phase_add(self.path, 1, wall, counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_fold_into_sorted_snapshot() {
        let reg = Registry::new();
        reg.counter_add("b.queries", 3);
        reg.counter_add("a.rows", 10);
        reg.counter_add("a.rows", 5);
        reg.gauge_set("shards", 4);
        reg.gauge_set("shards", 8);
        let mut h = Hist::new();
        h.record(1_000);
        h.record(3_000);
        reg.hist_merge("serve.query_wall", &h);
        reg.hist_merge("serve.query_wall", &h);
        reg.phase_add("serve", 1, 5_000, &[("queries", 3)]);
        reg.phase_add("serve.scan", 1, 4_000, &[("rows", 100), ("zero", 0)]);
        reg.phase_add("serve", 1, 7_000, &[("queries", 2)]);

        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.rows".into(), 15), ("b.queries".into(), 3)]
        );
        assert_eq!(snap.gauges, vec![("shards".into(), 8)], "last write wins");
        assert_eq!(snap.hists.len(), 1);
        assert_eq!(snap.hists[0].1.count, 4);
        assert_eq!(snap.phases.len(), 2);
        assert_eq!(snap.phases[0].path, "serve");
        assert_eq!(snap.phases[0].calls, 2);
        assert!((snap.phases[0].wall_secs - 12e-6).abs() < 1e-12);
        assert_eq!(snap.phases[0].counters, vec![("queries".into(), 5)]);
        assert_eq!(snap.phases[1].path, "serve.scan");
        assert_eq!(
            snap.phases[1].counters,
            vec![("rows".into(), 100)],
            "zero deltas are dropped"
        );

        let txt = snap.render();
        assert!(txt.contains("serve"));
        assert!(txt.contains("scan"));
        assert!(txt.contains("rows=100"));

        let empty = Registry::new().snapshot();
        assert!(empty.phases.is_empty() && empty.counters.is_empty());
    }

    #[test]
    fn span_attributes_wall_to_its_path() {
        let reg = Registry::new();
        let span = Span::enter("apply.rebox");
        std::hint::black_box(0u64);
        span.finish_with(&reg, &[("moved", 7)]);
        let snap = reg.snapshot();
        assert_eq!(snap.phases.len(), 1);
        assert_eq!(snap.phases[0].path, "apply.rebox");
        assert_eq!(snap.phases[0].calls, 1);
        assert_eq!(snap.phases[0].counters, vec![("moved".into(), 7)]);
    }

    #[test]
    fn render_empty_is_explicit() {
        let snap = MetricsSnapshot::default();
        assert!(snap.render().contains("no metrics recorded"));
    }
}
