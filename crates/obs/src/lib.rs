//! `pmi-obs` — the workspace's observability layer: a metrics registry,
//! fixed-bucket log-scale latency histograms, lightweight phase spans,
//! per-query traces with an EXPLAIN renderer ([`trace`]), and a
//! small JSON writer / reader ([`json`]) for reports.
//! `docs/observability.md` in the repository root covers the whole layer
//! end-to-end.
//!
//! # Design rules
//!
//! * **No atomics on the serve hot path.** Workers record into plain
//!   per-thread buffers (histograms, counters) owned by their scratch
//!   space; the engine merges them into the shared [`Registry`] **once per
//!   batch** under a mutex. The only per-probe cost of instrumentation
//!   is one monotonic clock read and a couple of plain integer adds.
//! * **One mode.** Instrumentation is always compiled in and always on:
//!   there is no cargo feature and no runtime switch, so what a benchmark
//!   measures is the only build there is, and the engine's own metrics and
//!   a ruler's layer breakdown read the same data.
//! * **Measurement never changes answers.** Instrumentation reads clocks
//!   and adds integers; it must not reorder, skip, or add distance
//!   evaluations. `tests/counters.rs` proves a timed `serve` batch matches
//!   the same queries run one by one through the untimed `execute` path,
//!   in results and in every exact counter.
//!
//! # Phase tree
//!
//! Phases are dotted paths (`serve.scan`, `apply.rebox`, `build.matrix`):
//! each records cumulative call count, wall-clock, and named counter
//! deltas. [`MetricsSnapshot::render`] prints them as an indented tree.
//!
//! ```
//! use pmi_obs::{Registry, Span};
//!
//! let reg = Registry::new();
//! let span = Span::enter("serve.scan");
//! let rows_filtered = 4096u64; // ... do the work being measured ...
//! span.finish_with(&reg, &[("kernel_rows", rows_filtered)]);
//! let snap = reg.snapshot();
//! assert_eq!(snap.phases.len(), 1);
//! assert_eq!(snap.phases[0].path, "serve.scan");
//! ```

pub mod hist;
pub mod json;
pub mod registry;
pub mod trace;

pub use hist::{Hist, HistSummary};
pub use json::{JsonObj, JsonValue};
pub use registry::{MetricsSnapshot, PhaseSnapshot, Registry, Span};
pub use trace::{QueryTrace, TraceEvent, TraceKind, TracePolicy, TraceRing};
