//! Bounded scoped-thread worker pool — the crate's one thread
//! executor. It runs the component solves ([`crate::decompose`]),
//! candidate enumeration, and the portfolio's members
//! ([`crate::parallel`]) with three guarantees:
//!
//! * **bounded borrowing** — workers are scoped threads, so tasks can
//!   borrow the caller's compact sub-problems instead of cloning the
//!   relation into `Arc`s;
//! * **deterministic collection** — every worker returns its
//!   `(task, result)` pairs through its join handle and results are
//!   re-ordered by task index, so the merge sees the same shape
//!   regardless of scheduling;
//! * **fail-fast without torn state** — a task that returns a fatal
//!   error sets an internal abort flag: no *further* tasks are
//!   dequeued, while tasks already in flight run to completion and
//!   publish their results (a half-cancelled component never
//!   publishes a half-built clustering).
//!
//! Panics inside a task are contained per task
//! ([`DivaError::WorkerPanicked`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::error::DivaError;
use crate::parallel::panic_message;

/// Runs `run(i, &tasks[i])` for every task on at most `n_workers`
/// scoped worker threads and returns the results in task order.
///
/// `results[i]` is `None` when task `i` was never dequeued because a
/// sibling's fatal error tripped the abort flag first; every dequeued
/// task gets `Some`. A task that panics yields
/// `Some(Err(DivaError::WorkerPanicked))`.
pub(crate) fn run_tasks<T, R, F>(
    tasks: &[T],
    n_workers: usize,
    run: F,
) -> Vec<Option<Result<R, DivaError>>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, DivaError> + Sync,
{
    let mut results: Vec<Option<Result<R, DivaError>>> = Vec::new();
    results.resize_with(tasks.len(), || None);
    if tasks.is_empty() {
        return results;
    }
    let n_workers = n_workers.clamp(1, tasks.len());
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let run = &run;
    let collected: Vec<Vec<(usize, Result<R, DivaError>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|_| {
                let cursor = &cursor;
                let abort = &abort;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks.len() {
                            break;
                        }
                        let out = catch_unwind(AssertUnwindSafe(|| run(i, &tasks[i])))
                            .unwrap_or_else(|payload| {
                                Err(DivaError::WorkerPanicked {
                                    detail: panic_message(payload.as_ref()),
                                })
                            });
                        if out.is_err() {
                            abort.store(true, Ordering::Relaxed);
                        }
                        local.push((i, out));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or_default()).collect()
    });
    for (i, r) in collected.into_iter().flatten() {
        results[i] = Some(r);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<usize> = (0..20).collect();
        let results = run_tasks(&tasks, 4, |i, &t| {
            assert_eq!(i, t);
            // Stagger completions so collection order != task order.
            std::thread::sleep(Duration::from_micros(((20 - t) * 50) as u64));
            Ok(t * 10)
        });
        assert_eq!(results.len(), 20);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.as_ref().and_then(|r| r.as_ref().ok()), Some(&(i * 10)), "slot {i}");
        }
    }

    #[test]
    fn fatal_error_stops_dequeuing_but_keeps_finished_results() {
        let started = AtomicU32::new(0);
        let tasks: Vec<usize> = (0..64).collect();
        let results = run_tasks(&tasks, 1, |_, &t| {
            started.fetch_add(1, Ordering::Relaxed);
            if t == 2 {
                return Err(DivaError::Cancelled);
            }
            Ok(t)
        });
        // Single worker: tasks 0..=2 ran, everything after was skipped.
        assert_eq!(started.load(Ordering::Relaxed), 3);
        assert!(matches!(results[0], Some(Ok(0))));
        assert!(matches!(results[1], Some(Ok(1))));
        assert!(matches!(results[2], Some(Err(DivaError::Cancelled))));
        assert!(results[3..].iter().all(Option::is_none));
    }

    #[test]
    fn panicking_task_is_contained() {
        let tasks = [1usize, 2, 3];
        let results = run_tasks(&tasks, 3, |_, &t| {
            if t == 2 {
                panic!("synthetic task bug");
            }
            Ok(t)
        });
        assert!(matches!(results[0], Some(Ok(1))));
        match &results[1] {
            Some(Err(DivaError::WorkerPanicked { detail })) => {
                assert!(detail.contains("synthetic task bug"));
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let results = run_tasks(&[] as &[usize], 4, |_, &t| Ok(t));
        assert!(results.is_empty());
    }
}
