//! Parallel experiment execution: independent `Machine` trials (bench × arm
//! grids, fig sweeps, config grids) fan out over scoped host threads.
//!
//! * **Deterministic order** — workers claim one input index at a time from
//!   a shared counter and results are reassembled by index, so the output
//!   is that of a sequential run however the OS schedules the workers.
//! * **No shared simulation state** — a trial closure receives `&T` and
//!   builds its own `Machine`; every simulation stays single-threaded
//!   internally, so parallel trials are bit-identical to sequential ones.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `f` over `items` with at most `max_workers` concurrent host threads;
/// results come back in input order.
///
/// A panicking item stops its worker; once every worker is done the
/// lowest-index panic is re-raised on the caller's thread. Indices are
/// claimed in order, so every item below a panicking one has run and
/// "lowest" does not depend on scheduling.
pub(crate) fn parallel_map<T, R, F>(items: Vec<T>, max_workers: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(max_workers >= 1, "need at least one worker");
    let n = items.len();
    // The counter only hands out indices (Relaxed: it publishes no data);
    // results travel through the join handles, which synchronize.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= n {
                return (done, None);
            }
            match catch_unwind(AssertUnwindSafe(|| f(&items[idx]))) {
                Ok(out) => done.push((idx, out)),
                Err(payload) => return (done, Some((idx, payload))),
            }
        }
    };
    let (mut done, mut panics) = (Vec::with_capacity(n), Vec::new());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..max_workers.min(n))
            .map(|_| scope.spawn(worker))
            .collect();
        for w in workers {
            // Invariant: every trial runs under catch_unwind, so a worker
            // itself never panics.
            let (outs, panic) = w.join().expect("trial panics are caught per trial");
            done.extend(outs);
            panics.extend(panic);
        }
    });
    if let Some((_, payload)) = panics.into_iter().min_by_key(|&(idx, _)| idx) {
        resume_unwind(payload);
    }
    // Every index was claimed exactly once: sorted, the list is the input.
    done.sort_unstable_by_key(|&(idx, _)| idx);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Default sweep concurrency: every available CPU. None is held back,
/// because the thread that calls [`parallel_map`] only waits on the workers.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order_with_bounded_workers() {
        // Reverse-proportional work: later items finish first unless the
        // results are reordered by index.
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(items, 8, |&x| {
            std::thread::sleep(std::time::Duration::from_micros((32 - x) * 50));
            x * x
        });
        assert_eq!(out, (0..32).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_empty_input_and_excess_workers() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), 3, |&x| x);
        assert!(out.is_empty());
        assert_eq!(parallel_map(vec![7u32], 1, |&x| x + 1), vec![8]);
        assert_eq!(parallel_map(vec![41u8], 16, |x| x + 1), vec![42]);
    }

    #[test]
    fn propagates_the_lowest_index_panic() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let got = std::panic::catch_unwind(|| {
            parallel_map((0..8u32).collect(), 4, |&x| {
                if x >= 5 {
                    panic!("bad trial {x}");
                }
                x
            })
        });
        std::panic::set_hook(hook);
        let msg = got
            .expect_err("must propagate")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "bad trial 5");
    }
}
