//! Parallel map over an index space with dynamic load balancing.
//!
//! The workloads (independent routing trials, independent BFS runs) are
//! embarrassingly parallel but individual items can have wildly different
//! costs (a routing trial on a path takes `Θ(√n)` or `Θ(log³ n)` steps
//! depending on the scheme), so static chunking would leave threads idle.
//! A shared atomic cursor hands out small chunks dynamically.
//!
//! Determinism: item `i`'s result always lands in slot `i`, and callers
//! derive per-item RNGs from `(seed, i)` via [`crate::rng::task_rng`], so
//! outputs do not depend on scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Chunk size for the atomic work counter. Small enough to balance
/// heavy-tailed items, large enough to keep contention negligible.
const CHUNK: usize = 8;

/// Applies `f` to every index in `0..n` on `threads` workers and collects
/// results in index order.
///
/// The results buffer is pre-split into `CHUNK`-sized disjoint cells
/// (`chunks_mut`), and workers write `f(i)` straight into the cell they
/// claim from the atomic cursor — no per-worker side buffers, no final
/// scatter copy. The crate forbids `unsafe`, so each cell sits behind its
/// own `Mutex`; a cell is claimed by exactly one worker, making every lock
/// uncontended (one atomic op per `CHUNK` items, not a shared-lock
/// bottleneck).
///
/// With `threads <= 1` runs inline on the caller thread (no spawn cost),
/// which also gives a trivially deterministic reference implementation.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut results = vec![T::default(); n];
    parallel_chunks_mut(&mut results, CHUNK, threads, |c, cell| {
        let base = c * CHUNK;
        for (j, slot) in cell.iter_mut().enumerate() {
            *slot = f(base + j);
        }
    });
    results
}

/// Splits `buf` into `chunk_size`-sized consecutive cells and runs
/// `f(chunk_index, cell)` once per cell on `threads` workers (cells are
/// claimed from an atomic cursor; each lock is uncontended by
/// construction). The in-place sibling of [`parallel_map`] for callers
/// that own one large output buffer — e.g. an all-pairs matrix filled 64
/// rows at a time — avoiding per-chunk result vectors and the final
/// gather copy entirely.
///
/// With `threads <= 1` the cells are processed inline, in order.
///
/// # Panics
/// Panics if `chunk_size == 0` while `buf` is non-empty.
pub fn parallel_chunks_mut<T, F>(buf: &mut [T], chunk_size: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if buf.is_empty() {
        return;
    }
    assert!(chunk_size > 0, "chunk_size must be positive");
    // Single cell ⇒ strictly serial work: run it inline rather than
    // paying a scope + worker spawn to block on one chunk.
    if threads <= 1 || buf.len() <= chunk_size {
        for (c, chunk) in buf.chunks_mut(chunk_size).enumerate() {
            f(c, chunk);
        }
        return;
    }
    let cells: Vec<Mutex<&mut [T]>> = buf.chunks_mut(chunk_size).map(Mutex::new).collect();
    let cursor = AtomicUsize::new(0);
    let workers = threads.min(cells.len());
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            let cursor = &cursor;
            let cells = &cells;
            let f = &f;
            scope.spawn(move |_| loop {
                let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                if chunk >= cells.len() {
                    break;
                }
                let mut cell = cells[chunk].lock().expect("cell poisoned");
                f(chunk, &mut cell);
            });
        }
    })
    .expect("thread scope failed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::task_rng;
    use rand::Rng;

    #[test]
    fn map_identity_in_order() {
        let out = parallel_map(100, 4, |i| i * i);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn map_empty_and_single() {
        assert!(parallel_map(0, 4, |i| i).is_empty());
        assert_eq!(parallel_map(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn parallel_equals_sequential_with_task_rng() {
        let work = |i: usize| {
            let mut rng = task_rng(123, i as u64);
            rng.gen_range(0..1_000_000u64)
        };
        let seq = parallel_map(257, 1, work);
        let par = parallel_map(257, 8, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn chunks_mut_fills_every_slot() {
        for threads in [1, 4] {
            let mut buf = vec![0usize; 103]; // deliberately not a multiple of 10
            parallel_chunks_mut(&mut buf, 10, threads, |c, chunk| {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = c * 10 + j + 1;
                }
            });
            for (i, &v) in buf.iter().enumerate() {
                assert_eq!(v, i + 1, "threads={threads} index {i}");
            }
        }
    }

    #[test]
    fn chunks_mut_empty_buffer_is_noop() {
        let mut buf: Vec<u32> = Vec::new();
        parallel_chunks_mut(&mut buf, 0, 4, |_, _| panic!("no cells"));
        parallel_chunks_mut(&mut buf, 8, 4, |_, _| panic!("no cells"));
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map(3, 64, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn uneven_item_costs_balance() {
        // Heavy tail: item 0 does far more work; just assert correctness.
        let out = parallel_map(64, 4, |i| {
            let spins = if i == 0 { 100_000 } else { 10 };
            let mut acc = 0u64;
            for k in 0..spins {
                acc = acc.wrapping_add(k ^ i as u64);
            }
            acc
        });
        assert_eq!(out.len(), 64);
    }
}
