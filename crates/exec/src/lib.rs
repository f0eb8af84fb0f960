//! Execution layer for the EFES pipeline.
//!
//! The estimation pipeline fans out over independent units — modules in
//! the estimator, correspondences in the value detector, relationships
//! in CSG matching, columns in profiling. This crate provides the one
//! primitive they all share: an order-preserving [`parallel_map`] built
//! on `std::thread::scope`, governed by an [`ExecutionMode`] that can be
//! forced sequential (for determinism checks and timing baselines) via
//! the `EFES_THREADS` environment variable or programmatically.
//!
//! No work-stealing: units are split into contiguous chunks, one per
//! worker. Pipeline units are coarse (a whole correspondence, a whole
//! module) and few, so chunking overhead dominates only below the
//! parallelism threshold where we fall back to a plain loop anyway.
//!
//! Two modules make runs stoppable and their failure paths testable:
//! [`ctx`] carries a caller's [`CancellationToken`] and deadline into
//! the row-scale kernels as a [`RunContext`], and [`fault`] injects
//! seeded faults at named sites. The crate spawns no long-lived thread;
//! `efes-serve` runs each estimate on its own connection thread.

use std::sync::Once;
use std::thread;
use std::time::Instant;

pub mod ctx;
pub mod fault;

pub use ctx::{CancellationToken, Cancelled, Checkpoint, RunContext, CHECK_INTERVAL};

/// Environment variable forcing the thread budget: `1` means fully
/// sequential, `N > 1` caps workers at `N`. Unset falls back to the
/// machine's available parallelism; an unparsable value does the same
/// but emits a one-time warning on stderr.
pub const THREADS_ENV_VAR: &str = "EFES_THREADS";

/// How pipeline stages execute their independent units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Run every unit in the calling thread, in order.
    Sequential,
    /// Fan units out over up to this many worker threads.
    Parallel(usize),
}

impl ExecutionMode {
    /// The mode selected by `EFES_THREADS`, defaulting to one worker per
    /// available core. An unparsable value also falls back to all cores,
    /// but warns once on stderr instead of degrading silently.
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV_VAR) {
            Err(_) => ExecutionMode::Parallel(available_threads()),
            Ok(raw) => Self::parse_threads(&raw).unwrap_or_else(|| {
                static WARN_ONCE: Once = Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: {THREADS_ENV_VAR}={raw:?} is not a thread count; \
                         falling back to all {} available cores",
                        available_threads()
                    );
                });
                ExecutionMode::Parallel(available_threads())
            }),
        }
    }

    /// Parse an `EFES_THREADS` value: `0`/`1` mean sequential, `N > 1`
    /// caps workers at `N`, anything unparsable is `None`.
    pub fn parse_threads(raw: &str) -> Option<Self> {
        match raw.trim().parse::<usize>().ok()? {
            0 | 1 => Some(ExecutionMode::Sequential),
            n => Some(ExecutionMode::Parallel(n)),
        }
    }

    /// A parallel mode with an explicit worker cap; `n <= 1` collapses
    /// to sequential.
    pub fn with_threads(n: usize) -> Self {
        if n <= 1 {
            ExecutionMode::Sequential
        } else {
            ExecutionMode::Parallel(n)
        }
    }

    /// The worker budget this mode grants.
    pub fn threads(&self) -> usize {
        match self {
            ExecutionMode::Sequential => 1,
            ExecutionMode::Parallel(n) => (*n).max(1),
        }
    }

    /// Whether this mode may use more than one thread.
    pub fn is_parallel(&self) -> bool {
        self.threads() > 1
    }
}

impl Default for ExecutionMode {
    fn default() -> Self {
        ExecutionMode::from_env()
    }
}

/// A configuration-level description of how to pick an [`ExecutionMode`].
///
/// Unlike `ExecutionMode`, which is always concrete, a policy can defer
/// the decision to the environment — the right default for configuration
/// structs that are built once and shipped around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionPolicy {
    /// Resolve from `EFES_THREADS` / available parallelism at run time.
    #[default]
    FromEnv,
    /// Always run sequentially.
    Sequential,
    /// Fan out over up to this many threads (`<= 1` means sequential).
    Threads(usize),
}

impl ExecutionPolicy {
    /// Resolve this policy into a concrete mode.
    pub fn mode(&self) -> ExecutionMode {
        match self {
            ExecutionPolicy::FromEnv => ExecutionMode::from_env(),
            ExecutionPolicy::Sequential => ExecutionMode::Sequential,
            ExecutionPolicy::Threads(n) => ExecutionMode::with_threads(*n),
        }
    }
}

/// The number of hardware threads, defaulting to 1 when undetectable.
pub fn available_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Map `f` over `items`, preserving order, using up to
/// `mode.threads()` scoped worker threads.
///
/// Units are distributed as contiguous chunks, so results are
/// concatenated back in input order and the output is identical to the
/// sequential `items.into_iter().map(f).collect()` whenever `f` is a
/// pure function of its input.
pub fn parallel_map<T, U, F>(mode: ExecutionMode, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = mode.threads().min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let len = items.len();
    let chunk_size = len.div_ceil(workers);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut items = items.into_iter();
    while chunks.len() * chunk_size < len {
        chunks.push(items.by_ref().take(chunk_size).collect());
    }

    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<U>>()))
            .collect();
        let mut out = Vec::with_capacity(len);
        for handle in handles {
            out.extend(handle.join().expect("parallel_map worker panicked"));
        }
        out
    })
}

/// Map `f` over borrowed `items`, preserving order, under `mode`.
pub fn parallel_map_ref<'a, T, U, F>(mode: ExecutionMode, items: &'a [T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&'a T) -> U + Sync,
{
    parallel_map(mode, items.iter().collect(), f)
}

/// Run `f` over contiguous mutable chunks of `out` — one chunk per
/// worker — passing each chunk's global start offset, and return the
/// per-chunk results in chunk order.
///
/// This is the in-place sibling of [`parallel_map`] for fixpoint-style
/// sweeps that rewrite a flat buffer every iteration and cannot afford a
/// fresh allocation per sweep (e.g. the sparse similarity-flooding
/// solver in `efes-matching`). The returned `Vec<R>` is the only
/// allocation, sized by the worker count, so callers can fold per-chunk
/// reductions (max, residual) out of the same pass that wrote the
/// buffer. Chunking is contiguous and deterministic: as long as `f`
/// writes `chunk[i]` as a pure function of `offset + i` (and any state
/// captured immutably), the buffer contents are identical under any
/// thread budget.
pub fn parallel_chunks_mut<T, R, F>(mode: ExecutionMode, out: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let len = out.len();
    let workers = mode.threads().min(len);
    if workers <= 1 {
        return vec![f(0, out)];
    }
    let chunk_size = len.div_ceil(workers);
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = out
            .chunks_mut(chunk_size)
            .enumerate()
            .map(|(i, chunk)| scope.spawn(move || f(i * chunk_size, chunk)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("parallel_chunks_mut worker panicked"))
            .collect()
    })
}

/// Run `f`, returning its result and the elapsed wall-clock
/// milliseconds. The pipeline records these per stage so the repro
/// binary and benches can print sequential-vs-parallel tables.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64() * 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..1000).collect();
        let seq = parallel_map(ExecutionMode::Sequential, items.clone(), |x| x * x + 1);
        let par = parallel_map(ExecutionMode::Parallel(8), items, |x| x * x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn order_is_preserved_for_awkward_chunk_counts() {
        for len in [0usize, 1, 2, 3, 7, 16, 17, 100] {
            for threads in [1usize, 2, 3, 5, 32] {
                let items: Vec<usize> = (0..len).collect();
                let out = parallel_map(ExecutionMode::with_threads(threads), items, |x| x);
                assert_eq!(out, (0..len).collect::<Vec<_>>(), "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn every_item_is_visited_exactly_once() {
        let count = AtomicUsize::new(0);
        let items: Vec<usize> = (0..137).collect();
        let out = parallel_map(ExecutionMode::Parallel(4), items, |x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 137);
        assert_eq!(count.load(Ordering::Relaxed), 137);
    }

    #[test]
    fn policy_resolves_to_modes() {
        assert_eq!(ExecutionPolicy::Sequential.mode(), ExecutionMode::Sequential);
        assert_eq!(ExecutionPolicy::Threads(1).mode(), ExecutionMode::Sequential);
        assert_eq!(ExecutionPolicy::Threads(4).mode(), ExecutionMode::Parallel(4));
        assert_eq!(ExecutionPolicy::default(), ExecutionPolicy::FromEnv);
    }

    #[test]
    fn with_threads_collapses_to_sequential() {
        assert_eq!(ExecutionMode::with_threads(0), ExecutionMode::Sequential);
        assert_eq!(ExecutionMode::with_threads(1), ExecutionMode::Sequential);
        assert!(ExecutionMode::with_threads(2).is_parallel());
        assert_eq!(ExecutionMode::Sequential.threads(), 1);
        assert_eq!(ExecutionMode::Parallel(6).threads(), 6);
    }

    #[test]
    fn map_ref_borrows_without_cloning() {
        let items = vec!["alpha".to_string(), "beta".to_string()];
        let lens = parallel_map_ref(ExecutionMode::Parallel(2), &items, |s| s.len());
        assert_eq!(lens, vec![5, 4]);
    }

    #[test]
    fn parse_threads_covers_the_env_grammar() {
        assert_eq!(ExecutionMode::parse_threads("0"), Some(ExecutionMode::Sequential));
        assert_eq!(ExecutionMode::parse_threads("1"), Some(ExecutionMode::Sequential));
        assert_eq!(ExecutionMode::parse_threads(" 6 "), Some(ExecutionMode::Parallel(6)));
        assert_eq!(ExecutionMode::parse_threads("lots"), None);
        assert_eq!(ExecutionMode::parse_threads("-2"), None);
        assert_eq!(ExecutionMode::parse_threads(""), None);
    }

    #[test]
    fn chunks_mut_fills_in_place_and_reduces() {
        for threads in [1usize, 2, 3, 8, 64] {
            let mut buf = vec![0u64; 1000];
            let maxes = parallel_chunks_mut(
                ExecutionMode::with_threads(threads),
                &mut buf,
                |offset, chunk| {
                    let mut max = 0u64;
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = (offset + i) as u64 * 2;
                        max = max.max(*slot);
                    }
                    max
                },
            );
            let expect: Vec<u64> = (0..1000).map(|x| x * 2).collect();
            assert_eq!(buf, expect, "threads={threads}");
            assert_eq!(maxes.into_iter().max(), Some(1998), "threads={threads}");
        }
    }

    #[test]
    fn chunks_mut_handles_empty_and_tiny_buffers() {
        let mut empty: Vec<u8> = vec![];
        let r = parallel_chunks_mut(ExecutionMode::Parallel(4), &mut empty, |_, c| c.len());
        assert_eq!(r, vec![0]);
        let mut one = vec![7u8];
        let r = parallel_chunks_mut(ExecutionMode::Parallel(4), &mut one, |off, c| {
            c[0] += 1;
            off
        });
        assert_eq!(r, vec![0]);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn timed_reports_nonnegative_elapsed() {
        let (value, ms) = timed(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(ms >= 0.0);
    }
}
