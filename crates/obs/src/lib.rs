//! `pmi-obs` — the workspace's observability layer: a lock-free metrics
//! registry, fixed-bucket log-scale latency histograms, lightweight phase
//! spans, per-query traces with an EXPLAIN renderer ([`trace`]), and the
//! JSONL run-metrics sink the benches write. `docs/observability.md` in
//! the repository root covers the whole layer end-to-end.
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
pub mod runlog;
pub mod trace;

pub use hist::{Hist, HistSummary};
pub use json::{JsonObj, JsonValue};
pub use registry::{MetricsSnapshot, PhaseSnapshot, Registry, Span};
pub use runlog::{rotate_runlog, validate_runlog_line, RunLog, RUNLOG_MAX_LINES, RUNLOG_SCHEMA};
pub use trace::{QueryTrace, TraceEvent, TraceKind, TracePolicy, TraceRing};

/// FNV-1a 64-bit fingerprint of a configuration, used to stamp every
/// trajectory point and run-log line so points from different configs are
/// never conflated when the `BENCH_*.json` history is queried across PRs.
/// Parts are joined with an unambiguous separator before hashing.
pub fn fingerprint<S: AsRef<str>>(parts: &[S]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for p in parts {
        for &b in p.as_ref().as_bytes() {
            eat(b);
        }
        eat(0x1f);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_separator_sensitive() {
        assert_eq!(fingerprint(&["a", "b"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["a", "b"]), fingerprint(&["ab"]));
        assert_ne!(fingerprint(&["a", "b"]), fingerprint(&["b", "a"]));
        assert_ne!(fingerprint::<&str>(&[]), fingerprint(&[""]));
    }
}
