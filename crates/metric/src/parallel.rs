//! Parallel pre-computation helpers built on crossbeam scoped threads.
//!
//! The paper's §6.2 discussion notes that index construction parallelizes
//! naturally: "since objects are independent of each other, the
//! pre-computed distances for each object can be computed in parallel".
//! The parallel pivot-distance table itself lives in
//! [`PivotMatrix::compute`](crate::PivotMatrix::compute); this module keeps
//! the row-range splitter the other per-object passes (the partitioner's,
//! HFI pivot selection's) run on. The
//! [`CountingMetric`](crate::CountingMetric) counter is atomic, so
//! `compdists` accounting stays exact under parallelism.

/// Runs a per-object pass over contiguous row ranges: splits `out` (one
/// slot per row) into at most `threads` chunks of at least `min_rows` rows,
/// calls `f(first_row, chunk)` on each — the last on the calling thread,
/// the others on scoped worker threads — and returns the chunk results
/// **in row order**. How many chunks there are depends on `threads`,
/// `min_rows` and the row count, so a caller whose merge is exact and
/// order-preserving (a maximum, a top-k by a total order, a concatenation)
/// gets a result independent of the thread count. `min_rows` is what a row
/// costs against a spawn (tens of microseconds): thousands of rows for a
/// pass of a few nanoseconds each, a few hundred where a row is a
/// `Metric::dist`.
pub fn map_row_chunks<T, R, F>(out: &mut [T], threads: usize, min_rows: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let rows = out.len();
    let chunks = threads.min(rows / min_rows.max(1)).max(1);
    if chunks == 1 {
        return vec![f(0, out)];
    }
    let len = rows.div_ceil(chunks);
    let f = &f;
    crossbeam::thread::scope(|s| {
        let mut parts = out.chunks_mut(len);
        let last = parts.next_back().expect("two chunks or more");
        let handles: Vec<_> = parts
            .enumerate()
            .map(|(c, chunk)| s.spawn(move |_| f(c * len, chunk)))
            .collect();
        let last = f(rows - last.len(), last);
        let mut results: Vec<R> = handles
            .into_iter()
            .map(|h| h.join().expect("row-chunk worker panicked"))
            .collect();
        results.push(last);
        results
    })
    .expect("row-chunk scope panicked")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_chunks_cover_every_row_once_in_order() {
        let caller = std::thread::current().id();
        for (rows, threads, min_rows) in [
            (0, 4, 1),
            (5, 4, 8),
            (9, 4, 1), // 4 chunks of 3 rows would be 3 chunks
            (3 * 8192 + 7, 1, 8192),
            (3 * 8192 + 7, 2, 8192),
            (3 * 8192 + 7, 9, 8192),
            (3 * 8192 + 7, 9, 512),
        ] {
            let mut out = vec![usize::MAX; rows];
            let spans = map_row_chunks(&mut out, threads, min_rows, |start, chunk| {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = start + j;
                }
                (start, chunk.len(), std::thread::current().id())
            });
            let case = format!("rows={rows} threads={threads} min_rows={min_rows}");
            assert!(out.iter().copied().eq(0..rows), "{case}");
            assert!(spans.len() <= threads.max(1), "{case}");
            assert!(spans.len() == 1 || spans.len() <= rows / min_rows, "{case}");
            assert_eq!(
                spans.last().unwrap().2,
                caller,
                "last chunk on the caller: {case}"
            );
            let mut next = 0;
            for (start, len, _) in spans {
                assert_eq!(start, next, "chunk results come back in row order: {case}");
                next += len;
            }
            assert_eq!(next, rows);
        }
    }
}
