//! The one place the workspace starts threads.
//!
//! The paper's §6.2 discussion notes that index construction parallelizes
//! naturally: "since objects are independent of each other, the
//! pre-computed distances for each object can be computed in parallel".
//! Every parallel step — the pivot matrix, the partitioner, HFI, the shard
//! builds, a served batch — runs through [`fan_out`], directly or via
//! [`claim_each`] or [`map_row_chunks`]. Its contract: every task but the
//! last runs on a scoped thread, the last on the calling thread (so one
//! task spawns nothing, and no call site keeps a one-thread copy of its
//! body); results come back in task order; a panic in a task reaches the
//! caller with its own payload, after every other task has returned.
//!
//! [`CountingMetric`](crate::CountingMetric) counts atomically, so
//! `compdists` stay exact; tallies kept per thread
//! (`cow::copied_bytes`, `distance::dist8_calls`) see only the caller's
//! share of a threaded pass.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Runs `f` on every task, all but the last on scoped threads and the last
/// on the caller, and returns the results in task order. If tasks panic,
/// the first one's payload (in task order) is resumed on the caller once
/// every task has returned.
pub fn fan_out<T, R, F>(mut tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let Some(last) = tasks.pop() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = tasks
            .into_iter()
            .map(|task| s.spawn(move || f(task)))
            .collect();
        let last = catch_unwind(AssertUnwindSafe(|| f(last)));
        // Every task joins before the first panic, if any, is resumed.
        let joined: Vec<_> = handles
            .into_iter()
            .map(|h| h.join())
            .chain([last])
            .collect();
        joined
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap_or_else(|payload| resume_unwind(payload))
    })
}

/// Runs `f` on every task with up to `workers` workers, the caller one of
/// them, each taking the next task left until none remain (so put the
/// costliest first), and returns the results in task order.
pub fn claim_each<T, R, F>(tasks: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = tasks.len();
    let queue = Mutex::new(tasks.into_iter().enumerate());
    // The guard drops inside `next`: no task runs under the lock.
    let next = || queue.lock().expect("no task runs under the lock").next();
    // Result buffers sized on the caller: a worker allocates nothing.
    let buffers = (0..workers.clamp(1, n.max(1))).map(|_| Vec::with_capacity(n));
    let mut done: Vec<(usize, R)> = fan_out(buffers.collect(), |mut done| {
        while let Some((i, task)) = next() {
            done.push((i, f(task)));
        }
        done
    })
    .into_iter()
    .flatten()
    .collect();
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Runs a per-object pass over contiguous row ranges: splits `out` (one
/// slot per row) into at most `threads` chunks of at least `min_rows` rows,
/// calls `f(first_row, chunk)` on each through [`fan_out`] and returns the
/// chunk results **in row order**. How many chunks there are depends on
/// `threads`, `min_rows` and the row count, so a caller whose merge is
/// exact and order-preserving (a maximum, a top-k by a total order, a
/// concatenation) gets a result independent of the thread count.
/// `min_rows` is what a row costs against a spawn (tens of microseconds):
/// thousands of rows for a pass of a few nanoseconds each, a few hundred
/// where a row is a `Metric::dist`.
pub fn map_row_chunks<T, R, F>(out: &mut [T], threads: usize, min_rows: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let rows = out.len();
    let chunks = threads.min(rows / min_rows.max(1)).max(1);
    let len = rows.div_ceil(chunks);
    let pieces: Vec<(usize, &mut [T])> = if chunks == 1 {
        vec![(0, out)]
    } else {
        out.chunks_mut(len)
            .enumerate()
            .map(|(c, chunk)| (c * len, chunk))
            .collect()
    };
    fan_out(pieces, |(start, chunk)| f(start, chunk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;
    use std::time::Duration;

    fn here() -> ThreadId {
        std::thread::current().id()
    }

    #[test]
    fn no_tasks_run_nothing() {
        let out: Vec<u32> = fan_out(Vec::<u32>::new(), |_| unreachable!("no task"));
        assert!(out.is_empty());
        for workers in [0, 1, 3] {
            let out: Vec<u32> = claim_each(Vec::<u32>::new(), workers, |_| unreachable!());
            assert!(out.is_empty());
        }
    }

    #[test]
    fn one_task_runs_on_the_caller() {
        assert_eq!(fan_out(vec![7], |x| (x * 2, here())), [(14, here())]);
    }

    #[test]
    fn results_come_back_in_task_order_and_the_caller_runs_the_last() {
        let out = fan_out((0..5).collect(), |i: usize| (i, here()));
        assert!(out.iter().map(|&(i, _)| i).eq(0..5));
        assert_eq!(out[4].1, here(), "the last task runs on the caller");
        for &(i, id) in &out[..4] {
            assert_ne!(id, here(), "task {i} runs on a thread of its own");
        }
    }

    /// Four tasks, one of which panics at once while the others finish
    /// after a pause: the caller sees that task's payload, and only once
    /// the other three have returned.
    fn panic_after_the_others(panicking: usize) {
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fan_out((0..4).collect(), |i: usize| {
                if i == panicking {
                    panic!("task {i} failed");
                }
                std::thread::sleep(Duration::from_millis(20));
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }))
        .expect_err("the panic reaches the caller");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            3,
            "every other task returned"
        );
        assert_eq!(
            caught.downcast_ref::<String>().map(String::as_str),
            Some(format!("task {panicking} failed").as_str()),
            "the task's own payload"
        );
    }

    #[test]
    fn a_panic_on_a_spawned_thread_keeps_its_payload() {
        panic_after_the_others(1);
    }

    #[test]
    fn a_panic_on_the_caller_keeps_its_payload() {
        panic_after_the_others(3);
    }

    #[test]
    fn claim_each_runs_every_task_exactly_once_in_task_order() {
        for workers in [0, 1, 2, 7] {
            let runs: Vec<AtomicUsize> = (0..9).map(|_| AtomicUsize::new(0)).collect();
            let out = claim_each((0..9).collect(), workers, |i: usize| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                i * 10
            });
            assert!(
                out.into_iter().eq((0..9).map(|i| i * 10)),
                "workers={workers}"
            );
            assert!(
                runs.iter().all(|r| r.load(Ordering::SeqCst) == 1),
                "workers={workers}"
            );
        }
    }

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
