//! `pmi-obs` — the workspace's observability layer: a lock-free metrics
//! registry, fixed-bucket log-scale latency histograms, lightweight phase
//! spans, per-query traces with an EXPLAIN renderer ([`trace`]), and a
//! small JSON writer / reader ([`json`]) for reports.
//! `docs/observability.md` in the repository root covers the whole layer
//! end-to-end.
//!
//! # Design rules
//!
//! * **No atomics on the serve hot path.** Workers record into plain
//!   per-thread buffers (histograms, counters) owned by their scratch
//!   space; the engine merges them into the shared [`Registry`] **once per
//!   batch** under a mutex. The only per-probe cost with instrumentation
//!   on is one monotonic clock read and a couple of plain integer adds.
//! * **Zero overhead when off.** Everything that records is gated twice:
//!   - *compile time*: with the `enabled` cargo feature off (workspace
//!     builds pass `--no-default-features`), [`Registry`] is a zero-sized
//!     type, [`Span`] carries no data, and every hook is an empty
//!     `#[inline]` function the optimizer erases — instrumented code
//!     compiles to exactly what it was before instrumentation;
//!   - *run time*: [`Registry::set_enabled`] flips an `AtomicBool` checked
//!     once per batch, which is what lets a single binary A/B its own
//!     obs-on vs obs-off throughput.
//! * **Measurement never changes answers.** Instrumentation reads clocks
//!   and adds integers; it must not reorder, skip, or add distance
//!   evaluations. `tests/counters.rs` proves serving is byte-identical in
//!   results and exact counters with the toggle on and off.
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
//! if Registry::compiled_in() {
//!     assert_eq!(snap.phases.len(), 1);
//!     assert_eq!(snap.phases[0].path, "serve.scan");
//! }
//! ```

pub mod hist;
pub mod json;
pub mod registry;
pub mod trace;

pub use hist::{Hist, HistSummary};
pub use json::{JsonObj, JsonValue};
pub use registry::{MetricsSnapshot, PhaseSnapshot, Registry, Span};
pub use trace::{QueryTrace, TraceEvent, TraceKind, TracePolicy, TraceRing};
