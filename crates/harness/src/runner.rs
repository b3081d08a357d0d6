//! Deterministic parallel trial runner: the host-side fan-out for
//! experiment sweeps and figure benches.
//!
//! Independent `Machine` trials (bench × arm grids, fig sweeps, config
//! grids) are claimed one index at a time from a shared counter by scoped
//! worker threads. Three properties make the runner safe to put in front of
//! paper artefacts:
//!
//! * **Deterministic order** — results are reassembled by input index, so
//!   the output is identical to a sequential run of the same closure no
//!   matter how the OS schedules workers.
//! * **Panic isolation** — each trial runs under `catch_unwind`; one
//!   diverging trial surfaces as an error for *that index* instead of
//!   poisoning the whole sweep (callers that want fail-fast semantics use
//!   [`crate::parallel_map`], which re-raises the first panic).
//! * **No shared simulation state** — a trial closure receives `&T` and
//!   must build its own `Machine`; every simulation stays single-threaded
//!   internally, so parallel trials are bit-identical to sequential ones.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A trial that panicked instead of returning a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialPanic {
    /// Input-order index of the failed trial.
    pub index: usize,
    /// Panic payload rendered to text (`<opaque panic>` if not a string).
    pub message: String,
}

impl std::fmt::Display for TrialPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trial #{} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TrialPanic {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<opaque panic>".to_string()
    }
}

/// Run `f` over every item on at most `max_workers` scoped host threads,
/// returning per-trial results in input order with panics isolated per
/// trial.
pub fn run_trials<T, R, F>(items: &[T], max_workers: usize, f: F) -> Vec<Result<R, TrialPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(max_workers >= 1, "need at least one worker");
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    // The counter only hands out indices (Relaxed: it publishes no data);
    // results travel through the join handles, which synchronize.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= n {
                return done;
            }
            let out = catch_unwind(AssertUnwindSafe(|| f(&items[idx]))).map_err(|p| TrialPanic {
                index: idx,
                message: panic_message(&*p),
            });
            done.push((idx, out));
        }
    };
    let mut done: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..max_workers.min(n))
            .map(|_| scope.spawn(worker))
            .collect();
        // Invariant: every trial runs under catch_unwind, so a worker
        // itself never panics.
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("trial panics are caught per trial"))
            .collect()
    });
    // Every index was claimed exactly once: sorted, the lists are the input.
    done.sort_unstable_by_key(|&(idx, _)| idx);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        // Reverse-proportional work: later items finish first unless the
        // runner reorders by index.
        let items: Vec<u64> = (0..32).collect();
        let out = run_trials(&items, 8, |&x| {
            std::thread::sleep(std::time::Duration::from_micros((32 - x) * 50));
            x * x
        });
        let vals: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, (0..32).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_trial_is_isolated() {
        let items: Vec<u32> = (0..10).collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let out = run_trials(&items, 4, |&x| {
            if x == 3 {
                panic!("boom {x}");
            }
            x + 1
        });
        std::panic::set_hook(hook);
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                let e = r.as_ref().unwrap_err();
                assert_eq!(e.index, 3);
                assert!(e.message.contains("boom 3"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32 + 1);
            }
        }
    }

    #[test]
    fn empty_input_and_excess_workers() {
        let out: Vec<Result<u8, _>> = run_trials(&[], 16, |x: &u8| *x);
        assert!(out.is_empty());
        let out = run_trials(&[41u8], 16, |x| x + 1);
        assert_eq!(out[0].as_ref().unwrap(), &42);
    }
}
