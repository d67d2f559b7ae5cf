//! A small work-stealing worker pool for the finalize pipeline.
//!
//! Chunk encoding is embarrassingly parallel (every Zarr chunk and every
//! NetCDF column blob is an independent function of its input and the
//! store options), but chunk *sizes* are not uniform — the tail chunk is
//! short, constant series compress in microseconds while noisy ones cost
//! milliseconds. A fixed block split would leave workers idle behind the
//! slowest block, so each worker starts from a contiguous block of task
//! indices and steals from the back of the longest remaining queue once
//! its own runs dry.
//!
//! Determinism: the pool only schedules *which thread* runs a task, never
//! what the task computes, and [`WorkerPool::map`] returns results in
//! task-index order — so a store driving its encoders through the pool
//! produces byte-identical output at any thread count. `threads == 1`
//! degenerates to an inline serial loop on the caller's thread, exactly
//! the pre-pool behavior.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A scoped work-stealing pool with a fixed thread budget.
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

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), ..., f(tasks - 1)` across the pool and returns
    /// the results in index order.
    ///
    /// With one thread (or at most one task) this is an inline `for`
    /// loop — no threads are spawned and no locks are taken.
    pub fn map<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.threads <= 1 || tasks <= 1 {
            return (0..tasks).map(f).collect();
        }
        let workers = self.threads.min(tasks);

        // Each worker's deque is preloaded with a contiguous block of
        // indices so the common (balanced) case never steals.
        let queues: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for t in 0..tasks {
            queues[t * workers / tasks]
                .lock()
                .expect("pool poisoned")
                .push_back(t);
        }

        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(tasks));
        std::thread::scope(|s| {
            for w in 0..workers {
                let queues = &queues;
                let results = &results;
                let f = &f;
                s.spawn(move || loop {
                    // Popped in a statement of its own: as a `match`
                    // scrutinee the guard would live through the arms,
                    // and two thieves that each hold their own queue
                    // while locking the other's deadlock.
                    let own = queues[w].lock().expect("pool poisoned").pop_front();
                    // Tasks are never re-queued, so observing every
                    // queue empty means the remaining work is already
                    // running on other workers.
                    let Some(task) = own.or_else(|| steal(queues, w)) else {
                        break;
                    };
                    let r = f(task);
                    results.lock().expect("pool poisoned").push((task, r));
                });
            }
        });

        let mut pairs = results.into_inner().expect("pool poisoned");
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

/// Steals from the back of the longest sibling queue, retrying across
/// victims until a task is found or every queue is empty.
fn steal(queues: &[Mutex<VecDeque<usize>>], thief: usize) -> Option<usize> {
    let mut victims: Vec<(usize, usize)> = queues
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != thief)
        .map(|(i, q)| (q.lock().expect("pool poisoned").len(), i))
        .collect();
    victims.sort_unstable_by_key(|&(len, _)| std::cmp::Reverse(len));
    for (len, i) in victims {
        if len == 0 {
            break;
        }
        // Bound first: the guard is gone before the task is looked at.
        let stolen = queues[i].lock().expect("pool poisoned").pop_back();
        if stolen.is_some() {
            return stolen;
        }
    }
    None
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
        assert_eq!(pool.threads(), 1);
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
        // One slow task at index 0: the other workers must steal the
        // rest of worker 0's block instead of idling.
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
    fn more_threads_than_tasks() {
        let pool = WorkerPool::new(16);
        assert_eq!(pool.map(3, |i| i), vec![0, 1, 2]);
    }
}
