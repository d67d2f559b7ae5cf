//! A real multi-threaded data-parallel executor.
//!
//! The cost models in [`crate::comm`] predict *time*; this module
//! actually *runs* the collective, with one OS thread per simulated GPU
//! and a shared-memory ring all-reduce, so the concurrent code paths the
//! provenance collector must survive (simultaneous metric logging from
//! every rank) are exercised for real.
//!
//! The ring algorithm is the textbook two-phase form: `p−1` reduce-
//! scatter steps followed by `p−1` all-gather steps, each rank owning
//! one chunk of the gradient.

use std::sync::{Arc, Barrier, Mutex};

/// Sums `shards` element-wise across ranks with a threaded ring
/// all-reduce and returns every rank's (identical) reduced copy.
///
/// All shards must have equal length. One thread per rank is spawned;
/// ranks exchange chunks through per-rank mailboxes and synchronize with
/// a barrier per ring step, mirroring NCCL's communication structure.
///
/// # Panics
/// Panics when `shards` is empty or lengths differ.
pub fn ring_allreduce(shards: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let p = shards.len();
    assert!(p > 0, "at least one rank required");
    let n = shards[0].len();
    assert!(
        shards.iter().all(|s| s.len() == n),
        "all shards must have equal length"
    );
    if p == 1 {
        return shards;
    }
    if n == 0 {
        return shards;
    }

    // Chunk boundaries: chunk c covers [starts[c], starts[c+1]).
    let starts: Vec<usize> = (0..=p).map(|c| c * n / p).collect();

    // mailbox[r] is the chunk most recently sent *to* rank r.
    let mailboxes: Arc<Vec<Mutex<Vec<f64>>>> =
        Arc::new((0..p).map(|_| Mutex::new(Vec::new())).collect());
    let barrier = Arc::new(Barrier::new(p));
    let results: Arc<Vec<Mutex<Vec<f64>>>> =
        Arc::new((0..p).map(|_| Mutex::new(Vec::new())).collect());

    std::thread::scope(|scope| {
        for (rank, mut local) in shards.into_iter().enumerate() {
            let mailboxes = Arc::clone(&mailboxes);
            let barrier = Arc::clone(&barrier);
            let results = Arc::clone(&results);
            let starts = starts.clone();
            scope.spawn(move || {
                let next = (rank + 1) % p;

                // Phase 1: reduce-scatter. After step s, rank r has the
                // running sum of chunk (r - s - 1 + p) mod p.
                for s in 0..p - 1 {
                    let send_chunk = (rank + p - s) % p;
                    let (a, b) = (starts[send_chunk], starts[send_chunk + 1]);
                    *mailboxes[next].lock().expect("mailbox poisoned") = local[a..b].to_vec();
                    barrier.wait();
                    let incoming =
                        std::mem::take(&mut *mailboxes[rank].lock().expect("mailbox poisoned"));
                    let recv_chunk = (rank + p - s - 1) % p;
                    let (a, b) = (starts[recv_chunk], starts[recv_chunk + 1]);
                    for (dst, src) in local[a..b].iter_mut().zip(&incoming) {
                        *dst += src;
                    }
                    barrier.wait();
                }

                // Phase 2: all-gather. Rank r owns the fully reduced
                // chunk (r + 1) mod p and circulates it.
                for s in 0..p - 1 {
                    let send_chunk = (rank + 1 + p - s) % p;
                    let (a, b) = (starts[send_chunk], starts[send_chunk + 1]);
                    *mailboxes[next].lock().expect("mailbox poisoned") = local[a..b].to_vec();
                    barrier.wait();
                    let incoming =
                        std::mem::take(&mut *mailboxes[rank].lock().expect("mailbox poisoned"));
                    let recv_chunk = (rank + p - s) % p;
                    let (a, b) = (starts[recv_chunk], starts[recv_chunk + 1]);
                    local[a..b].copy_from_slice(&incoming);
                    barrier.wait();
                }

                *results[rank].lock().expect("mailbox poisoned") = local;
            });
        }
    });

    Arc::try_unwrap(results)
        .expect("threads joined")
        .into_iter()
        .map(|m| m.into_inner().expect("mailbox poisoned"))
        .collect()
}

/// Runs the ring all-reduce under injected transient failures: each of
/// the `failed_attempts` aborted collectives performs (and discards) a
/// full ring pass — modeling NCCL's abort-and-retry, where the time is
/// spent even though the result is thrown away — before the surviving
/// attempt produces the reduction. Returns the reduced shards and the
/// number of attempts actually executed (`failed_attempts + 1`).
pub fn ring_allreduce_with_retry(
    shards: Vec<Vec<f64>>,
    failed_attempts: u32,
) -> (Vec<Vec<f64>>, u32) {
    for _ in 0..failed_attempts {
        let _ = ring_allreduce(shards.clone());
    }
    (ring_allreduce(shards), failed_attempts + 1)
}

/// Reference all-reduce: sequential element-wise sum, replicated.
pub fn sequential_allreduce(shards: &[Vec<f64>]) -> Vec<Vec<f64>> {
    assert!(!shards.is_empty());
    let n = shards[0].len();
    let mut sum = vec![0.0f64; n];
    for shard in shards {
        for (dst, src) in sum.iter_mut().zip(shard) {
            *dst += src;
        }
    }
    vec![sum; shards.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(p: usize, n: usize) -> Vec<Vec<f64>> {
        (0..p)
            .map(|r| (0..n).map(|i| (r * n + i) as f64 * 0.5 + 1.0).collect())
            .collect()
    }

    /// Ring and sequential all-reduce agree (floating-point order is the
    /// ring's — compare with tolerance).
    fn assert_close(a: &[Vec<f64>], b: &[Vec<f64>]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.len(), y.len());
            for (u, v) in x.iter().zip(y) {
                assert!((u - v).abs() <= 1e-9 * (1.0 + v.abs()), "{u} vs {v}");
            }
        }
    }

    #[test]
    fn single_rank_is_identity() {
        let s = shards(1, 100);
        assert_eq!(ring_allreduce(s.clone()), s);
    }

    #[test]
    fn matches_sequential_for_various_sizes() {
        for p in [2usize, 3, 4, 7, 8] {
            for n in [1usize, 2, 5, 64, 1000, 1003] {
                let s = shards(p, n);
                let expect = sequential_allreduce(&s);
                let got = ring_allreduce(s);
                assert_close(&got, &expect);
            }
        }
    }

    #[test]
    fn all_ranks_get_identical_results() {
        let got = ring_allreduce(shards(8, 4096));
        for r in 1..got.len() {
            assert_eq!(got[0], got[r], "rank {r} differs from rank 0");
        }
    }

    #[test]
    fn empty_vectors_are_fine() {
        let s = vec![vec![]; 4];
        let got = ring_allreduce(s);
        assert!(got.iter().all(|v| v.is_empty()));
    }

    #[test]
    fn short_vectors_with_many_ranks() {
        // n < p forces empty chunks for some ranks.
        let s = shards(8, 3);
        let expect = sequential_allreduce(&s);
        assert_close(&ring_allreduce(s), &expect);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        ring_allreduce(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn retry_wrapper_matches_plain_reduce() {
        let s = shards(4, 257);
        let expect = sequential_allreduce(&s);
        let (got, attempts) = ring_allreduce_with_retry(s.clone(), 2);
        assert_eq!(attempts, 3);
        assert_close(&got, &expect);
        let (got0, attempts0) = ring_allreduce_with_retry(s, 0);
        assert_eq!(attempts0, 1);
        assert_close(&got0, &expect);
    }

    #[test]
    fn repeated_steps_are_stable() {
        // Simulates several DDP steps reusing the executor.
        let mut grads = shards(4, 257);
        for _ in 0..5 {
            let expect = sequential_allreduce(&grads);
            grads = ring_allreduce(grads);
            assert_close(&grads, &expect);
        }
    }
}
