//! Property-based tests on the observability layer: the log-scale
//! histogram's quantiles stay within one sub-bucket of the exact sorted
//! quantiles, and every object the JSON writer emits is read back
//! faithfully by the independent parser.

use pivot_metric_repro as pmr;
use pmr::obs::{Hist, JsonObj, JsonValue};
use proptest::prelude::*;

/// Exact nearest-rank quantile over the raw samples, mirroring
/// [`Hist::quantile`]'s rank rule (`ceil(q·n)` clamped into `[1, n]`).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The histogram's p50/p99/p999 must land in the same sub-bucket as
    /// the exact nearest-rank sample: never below it, and at most one
    /// bucket width (relative error `1/SUB`, ≈3%) above it.
    #[test]
    fn hist_quantiles_within_one_bucket_of_exact(
        samples in prop::collection::vec(0u64..10_000_000_000, 1..200),
    ) {
        let mut h = Hist::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.99, 0.999] {
            let exact = exact_quantile(&sorted, q) as f64;
            let approx = h.quantile(q) * 1e9;
            prop_assert!(
                approx + 0.5 >= exact,
                "q={q}: approx {approx} below exact {exact}"
            );
            prop_assert!(
                approx <= exact + exact / Hist::SUB as f64 + 1.5,
                "q={q}: approx {approx} more than one bucket above exact {exact}"
            );
        }
        // The exact side fields never suffer bucket error at all.
        prop_assert_eq!(h.min_secs(), sorted[0] as f64 * 1e-9);
        prop_assert_eq!(h.max_secs(), *sorted.last().unwrap() as f64 * 1e-9);
    }

    /// Splitting a sample stream across worker histograms and merging must
    /// be indistinguishable from recording the whole stream into one — the
    /// engine's per-worker-then-merge discipline relies on this.
    #[test]
    fn hist_merge_is_stream_order_independent(
        samples in prop::collection::vec(0u64..1_000_000_000, 2..100),
        split in 1usize..8,
    ) {
        let mut whole = Hist::new();
        let mut parts: Vec<Hist> = (0..split).map(|_| Hist::new()).collect();
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            parts[i % split].record(v);
        }
        let mut merged = Hist::new();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(merged, whole);
    }

    /// Writer ↔ parser round-trip, what `benchmark compare` rests on: any
    /// object [`JsonObj`] emits — arbitrary printable keys and strings
    /// (quotes and backslashes included, exercising the escaper), any
    /// `u64` a double holds exactly, any `f64` (non-finite ones are
    /// written as `null`), a nested object through `field_raw` — must
    /// parse, and reading it back must recover the exact fields in order.
    #[test]
    fn json_writer_parser_roundtrip(
        keys in prop::collection::vec("\\PC{1,16}", 4..5),
        text in "\\PC{0,16}",
        count in 0u64..(1 << 53),
        float in any::<u64>().prop_map(f64::from_bits),
        nested in prop::collection::vec(("\\PC{0,8}", 0u64..(1 << 53)), 0..6),
    ) {
        let inner = nested
            .iter()
            .fold(JsonObj::new(), |o, (k, v)| o.field_u64(k, *v))
            .finish();
        let line = JsonObj::new()
            .field_str(&keys[0], &text)
            .field_u64(&keys[1], count)
            .field_f64(&keys[2], float)
            .field_raw(&keys[3], &inner)
            .finish();

        let v = JsonValue::parse(&line)
            .unwrap_or_else(|e| panic!("emitted object rejected: {e}: {line}"));
        let fields = v.entries().expect("an object");
        prop_assert_eq!(fields.len(), 4);
        for (key, (read, _)) in keys.iter().zip(fields) {
            prop_assert_eq!(key, read);
        }
        prop_assert_eq!(fields[0].1.as_str(), Some(text.as_str()));
        prop_assert_eq!(fields[1].1.as_u64(), Some(count));
        if float.is_finite() {
            prop_assert_eq!(fields[2].1.as_f64(), Some(float), "{}", line);
        } else {
            prop_assert_eq!(&fields[2].1, &JsonValue::Null);
        }
        let back = fields[3].1.entries().expect("a nested object");
        prop_assert_eq!(back.len(), nested.len());
        for ((wk, wv), (rk, rv)) in nested.iter().zip(back) {
            prop_assert_eq!(wk, rk);
            prop_assert_eq!(rv.as_u64(), Some(*wv));
        }
    }
}
