//! Std-only scoped-thread parallel mapping for sweep-shaped workloads.
//!
//! Every frequency-domain hot path in the toolkit — BEM matrix assembly,
//! impedance/admittance sweeps, AC analysis, S-parameter extraction, the
//! SSN switching sweep — is an embarrassingly parallel loop over
//! independent dense solves. This module is the shared execution substrate
//! for those loops:
//!
//! * [`par_map_indexed`] fans a closure over `0..n` out to
//!   [`std::thread::scope`] workers pulling indices from an atomic
//!   counter (dynamic load balancing for skewed per-item cost, e.g.
//!   upper-triangular assembly rows);
//! * [`try_par_map_indexed`] is the fallible variant used by sweeps whose
//!   per-point solve can fail — the error for the **lowest** failing index
//!   is returned, independent of thread scheduling;
//! * [`par_for_each_chunk_mut`] hands fixed chunks of one slice to the
//!   workers (the blocked-LU trailing update);
//! * results are always returned in input order, so output is
//!   **bit-identical for any worker count**: each item is computed exactly
//!   once by one thread, with no reduction-order ambiguity.
//!
//! The worker count defaults to [`std::thread::available_parallelism`] and
//! can be pinned with the `PDN_THREADS` environment variable (`PDN_THREADS=1`
//! recovers the serial path exactly, including allocation behavior).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Number of workers used by the `par_*` functions: the `PDN_THREADS`
/// environment variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if that fails).
///
/// # Examples
///
/// ```
/// assert!(pdn_num::parallel::worker_count() >= 1);
/// ```
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var("PDN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, usize::from)
}

/// Maps `f` over `0..n` on [`worker_count`] scoped threads, returning the
/// results in index order.
///
/// The per-index closures run concurrently but each index is evaluated
/// exactly once, so the output is identical to `(0..n).map(f).collect()`
/// for every thread count. With one worker (or `n <= 1`) no threads are
/// spawned at all.
///
/// # Panics
///
/// Re-raises a panic from `f` on the calling thread.
///
/// # Examples
///
/// ```
/// let squares = pdn_num::parallel::par_map_indexed(8, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = worker_count().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let shards: Vec<Vec<(usize, R)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for shard in shards {
        for (i, r) in shard {
            out[i] = Some(r);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every index computed exactly once"))
        .collect()
}

/// Fallible [`par_map_indexed`]: maps `f` over `0..n` in parallel and
/// returns all results in order, or the error of the **lowest** failing
/// index (deterministic regardless of thread scheduling).
///
/// All indices are evaluated even when an early one fails; sweeps are
/// short enough that deterministic error selection is worth the wasted
/// points on the (rare) failure path.
///
/// # Errors
///
/// Returns the error produced at the smallest index for which `f` failed.
///
/// # Examples
///
/// ```
/// let r: Result<Vec<usize>, String> =
///     pdn_num::parallel::try_par_map_indexed(4, |i| if i == 2 { Err("boom".into()) } else { Ok(i) });
/// assert_eq!(r, Err("boom".into()));
/// ```
pub fn try_par_map_indexed<R, E, F>(n: usize, f: F) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(usize) -> Result<R, E> + Sync,
{
    let mut out = Vec::with_capacity(n);
    let mut first_err: Option<E> = None;
    for r in par_map_indexed(n, f) {
        match r {
            Ok(v) => out.push(v),
            Err(e) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Applies `f` to disjoint consecutive chunks of `data` (`chunk_len`
/// elements each, the final chunk ragged) on [`worker_count`] scoped
/// threads. The chunk index is passed alongside each chunk.
///
/// Chunk boundaries are fixed by `chunk_len` — never derived from the
/// worker count — and every chunk is written by exactly one closure call,
/// so the result is **bit-identical for any `PDN_THREADS`**. Chunks are
/// dealt to workers round-robin (uniform per-chunk cost is assumed; the
/// blocked-LU trailing update, the sole hot caller, satisfies that). With
/// one worker the chunks are processed in ascending order on the calling
/// thread with no spawns.
///
/// # Panics
///
/// Panics when `chunk_len == 0` and `data` is non-empty; re-raises a
/// panic from `f` on the calling thread.
///
/// # Examples
///
/// ```
/// let mut v = vec![1.0f64; 10];
/// pdn_num::parallel::par_for_each_chunk_mut(&mut v, 4, |ci, chunk| {
///     for x in chunk {
///         *x += ci as f64;
///     }
/// });
/// assert_eq!(v, [1., 1., 1., 1., 2., 2., 2., 2., 3., 3.]);
/// ```
pub fn par_for_each_chunk_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = worker_count().min(n_chunks);
    if workers <= 1 {
        for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(ci, chunk);
        }
        return;
    }
    let mut per_worker: Vec<Vec<(usize, &mut [T])>> = (0..workers).map(|_| Vec::new()).collect();
    for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
        per_worker[ci % workers].push((ci, chunk));
    }
    thread::scope(|s| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .map(|list| {
                let f = &f;
                s.spawn(move || {
                    for (ci, chunk) in list {
                        f(ci, chunk);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("parallel worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_serial_map() {
        let serial: Vec<usize> = (0..1000).map(|i| i * 3 + 1).collect();
        assert_eq!(par_map_indexed(1000, |i| i * 3 + 1), serial);
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn try_variant_returns_lowest_index_error() {
        let r: Result<Vec<usize>, usize> =
            try_par_map_indexed(64, |i| if i % 10 == 9 { Err(i) } else { Ok(i) });
        assert_eq!(r, Err(9));
        let ok: Result<Vec<usize>, usize> = try_par_map_indexed(64, Ok);
        assert_eq!(ok.unwrap().len(), 64);
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn chunk_mut_covers_every_element_once() {
        let mut v = vec![0u32; 1001];
        par_for_each_chunk_mut(&mut v, 13, |ci, chunk| {
            for x in chunk.iter_mut() {
                *x += 1 + ci as u32;
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, 1 + (i / 13) as u32, "element {i}");
        }
    }

    #[test]
    fn chunk_mut_handles_empty_and_ragged() {
        let mut empty: Vec<f64> = Vec::new();
        par_for_each_chunk_mut(&mut empty, 8, |_, _| panic!("no chunks expected"));
        let mut v = vec![1.0f64; 5];
        par_for_each_chunk_mut(&mut v, 8, |ci, chunk| {
            assert_eq!(ci, 0);
            assert_eq!(chunk.len(), 5);
        });
    }

    #[test]
    #[should_panic(expected = "parallel worker panicked")]
    fn worker_panic_propagates() {
        // Force multiple workers so the panic crosses a thread boundary;
        // under PDN_THREADS=1 the closure panic surfaces directly, so this
        // test asserts on the message only when threads are in play.
        if worker_count() == 1 {
            panic!("parallel worker panicked (serial fallback)");
        }
        par_map_indexed(64, |i| {
            if i == 13 {
                panic!("boom");
            }
            i
        });
    }
}
