//! Parallel pre-computation helpers built on crossbeam scoped threads.
//!
//! The paper's §6.2 discussion notes that index construction parallelizes
//! naturally: "since objects are independent of each other, the
//! pre-computed distances for each object can be computed in parallel".
//! The parallel pivot-distance table itself lives in
//! [`PivotMatrix::compute`](crate::PivotMatrix::compute); this module keeps
//! the remaining worker-pool helpers. The
//! [`CountingMetric`](crate::CountingMetric) counter is atomic, so
//! `compdists` accounting stays exact under parallelism.

use crate::distance::Metric;

/// Rows below which a chunk is not worth a thread of its own: a spawn costs
/// tens of microseconds, a row of a per-object pass a few nanoseconds.
const MIN_ROWS_PER_CHUNK: usize = 8192;

/// Runs a per-object pass over contiguous row ranges: splits `out` (one
/// slot per row) into at most `threads` chunks, calls `f(first_row, chunk)`
/// on each — on scoped worker threads when there is more than one — and
/// returns the chunk results **in row order**. How many chunks there are
/// depends on `threads` and the row count, so a caller whose merge is exact
/// and order-preserving (a maximum, a top-k by a total order, a
/// concatenation) gets a result independent of the thread count.
pub fn map_row_chunks<T, R, F>(out: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let rows = out.len();
    let chunks = threads.min(rows / MIN_ROWS_PER_CHUNK).max(1);
    if chunks == 1 {
        return vec![f(0, out)];
    }
    let len = rows.div_ceil(chunks);
    let f = &f;
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = out
            .chunks_mut(len)
            .enumerate()
            .map(|(c, chunk)| s.spawn(move |_| f(c * len, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("row-chunk worker panicked"))
            .collect()
    })
    .expect("row-chunk scope panicked")
}

/// Parallel pairwise-distance sampling used to estimate dataset statistics
/// on large inputs (each thread samples an independent stripe).
pub fn sample_distances<O, M>(
    objects: &[O],
    metric: &M,
    pairs_per_thread: usize,
    threads: usize,
    seed: u64,
) -> Vec<f64>
where
    O: Sync,
    M: Metric<O> + Sync,
{
    let threads = threads.max(1);
    let n = objects.len();
    assert!(n >= 2);
    let mut out: Vec<Vec<f64>> = Vec::new();
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move |_| {
                    // Small deterministic LCG per thread.
                    let mut state = seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(t as u64 + 1));
                    let mut next = move || {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33) as usize
                    };
                    let mut v = Vec::with_capacity(pairs_per_thread);
                    for _ in 0..pairs_per_thread {
                        let a = next() % n;
                        let mut b = next() % n;
                        if a == b {
                            b = (b + 1) % n;
                        }
                        v.push(metric.dist(&objects[a], &objects[b]));
                    }
                    v
                })
            })
            .collect();
        out = handles.into_iter().map(|h| h.join().unwrap()).collect();
    })
    .expect("worker thread panicked");
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;
    use crate::distance::L2;

    #[test]
    fn sampling_produces_requested_count() {
        let pts = datasets::la(300, 9);
        let d = sample_distances(&pts, &L2, 100, 3, 1);
        assert_eq!(d.len(), 300);
        assert!(d.iter().all(|x| *x >= 0.0));
        // Deterministic per seed.
        assert_eq!(sample_distances(&pts, &L2, 100, 3, 1), d);
        assert_ne!(sample_distances(&pts, &L2, 100, 3, 2), d);
    }

    #[test]
    fn row_chunks_cover_every_row_once_in_order() {
        for (rows, threads) in [
            (0, 4),
            (5, 4),
            (3 * MIN_ROWS_PER_CHUNK + 7, 1),
            (3 * MIN_ROWS_PER_CHUNK + 7, 2),
            (3 * MIN_ROWS_PER_CHUNK + 7, 9),
        ] {
            let mut out = vec![usize::MAX; rows];
            let spans = map_row_chunks(&mut out, threads, |start, chunk| {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = start + j;
                }
                (start, chunk.len())
            });
            assert!(
                out.iter().copied().eq(0..rows),
                "rows={rows} threads={threads}"
            );
            assert!(spans.len() <= threads.max(1));
            let mut next = 0;
            for (start, len) in spans {
                assert_eq!(start, next, "chunk results come back in row order");
                next += len;
            }
            assert_eq!(next, rows);
        }
    }
}
