//! A small worker pool for the finalize pipeline.
//!
//! Chunk encoding is embarrassingly parallel (every Zarr chunk and every
//! NetCDF column blob is an independent function of its input and the
//! store options), but chunk *sizes* are not uniform — the tail chunk is
//! short, constant series compress in microseconds while noisy ones cost
//! milliseconds. A fixed block split would leave workers idle behind the
//! slowest block, so workers take task indices one at a time from one
//! shared counter: a worker that finishes early takes the next index.
//!
//! Determinism: the pool only schedules *which thread* runs a task, never
//! what the task computes, and [`WorkerPool::map`] returns results in
//! task-index order — so a store driving its encoders through the pool
//! produces byte-identical output at any thread count. `threads == 1`
//! degenerates to an inline serial loop on the caller's thread, exactly
//! the pre-pool behavior.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A scoped worker pool with a fixed thread budget.
///
/// The pool is a value, not a resource: threads are spawned per
/// [`WorkerPool::map`] call (via `std::thread::scope`) and joined before
/// it returns, so there is no lifecycle to manage and borrowed task
/// inputs work naturally.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool running tasks on up to `threads` worker threads
    /// (`0` is treated as `1`).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The serial pool: every task runs inline on the caller's thread.
    pub fn serial() -> Self {
        WorkerPool::new(1)
    }

    /// Runs `f(0), f(1), ..., f(tasks - 1)` across the pool and returns
    /// the results in index order. A task's panic reaches the caller.
    ///
    /// With one thread (or at most one task) this is an inline `for`
    /// loop — no threads are spawned. Otherwise the caller's thread runs
    /// tasks beside `min(threads, tasks) - 1` spawned ones: the pool
    /// never runs more threads than it has tasks.
    pub fn map<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads <= 1 || tasks <= 1 {
            return (0..tasks).map(f).collect();
        }
        // Relaxed: the counter only hands out indices; each result comes
        // back to the caller through its worker's join.
        let next = AtomicUsize::new(0);
        let run = || {
            let mut done = Vec::new();
            loop {
                let task = next.fetch_add(1, Ordering::Relaxed);
                if task >= tasks {
                    return done;
                }
                done.push((task, f(task)));
            }
        };
        // The caller is one of the workers: it spawns one thread fewer
        // and takes tasks itself while the others run.
        let mut pairs: Vec<(usize, R)> = std::thread::scope(|s| {
            let workers: Vec<_> = (1..self.threads.min(tasks)).map(|_| s.spawn(run)).collect();
            let mut pairs = run();
            for w in workers {
                pairs.extend(w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            pairs
        });
        pairs.sort_unstable_by_key(|(i, _)| *i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }

    /// Like [`WorkerPool::map`] for fallible tasks: returns the first
    /// error by task index, or `Ok(outputs)` in index order.
    pub fn try_map<R, E, F>(&self, tasks: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(usize) -> Result<R, E> + Sync,
    {
        self.map(tasks, f).into_iter().collect()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 3, 8] {
            let pool = WorkerPool::new(threads);
            let out = pool.map(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_and_single_task_edge_cases() {
        let pool = WorkerPool::new(8);
        assert!(pool.map(0, |i| i).is_empty());
        assert_eq!(pool.map(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn zero_threads_degrades_to_serial() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads, 1);
        assert_eq!(pool.map(5, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        let runs = AtomicUsize::new(0);
        let out = pool.map(1000, |i| {
            runs.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn imbalanced_tasks_still_complete() {
        // One slow task at index 0: while its worker is busy, the other
        // workers take every later index from the shared counter.
        let pool = WorkerPool::new(4);
        let out = pool.map(64, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            i * 2
        });
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_short_circuits_to_first_error_by_index() {
        let pool = WorkerPool::new(4);
        let res: Result<Vec<usize>, String> = pool.try_map(10, |i| {
            if i % 4 == 3 {
                Err(format!("task {i} failed"))
            } else {
                Ok(i)
            }
        });
        assert_eq!(res.unwrap_err(), "task 3 failed");
        let ok: Result<Vec<usize>, String> = pool.try_map(10, Ok);
        assert_eq!(ok.unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "task 5 failed")]
    fn a_task_panic_reaches_the_caller() {
        WorkerPool::new(4).map(16, |i| {
            if i == 5 {
                panic!("task {i} failed");
            }
            i
        });
    }

    #[test]
    fn more_threads_than_tasks() {
        let pool = WorkerPool::new(16);
        assert_eq!(pool.map(3, |i| i), vec![0, 1, 2]);
    }
}
