#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `secmed-pool` — a deterministic fork-join thread pool for ciphertext
//! processing.
//!
//! The protocol hot paths (SRA double encryption, Paillier coefficient
//! encryption, per-tuple polynomial evaluation, DAS bucketization) are
//! embarrassingly data-parallel *per item*, but a mediation run must stay
//! replayable: the same scenario seed has to produce the same `RunReport`
//! byte for byte at any thread count.  This crate therefore provides only
//! structured, order-preserving parallelism:
//!
//! * [`Pool::par_map`] / [`Pool::try_par_map`] — map over a slice, results
//!   collected in input order; the fallible variant propagates the error of
//!   the smallest input index (independent of scheduling).
//! * [`Pool::par_chunks`] — map over contiguous chunks, results
//!   concatenated in input order (for nested-loop work like the DAS server
//!   join, where per-item spawning would be too fine-grained).
//!
//! Work is split into at most `threads` *contiguous* chunks executed on
//! [`std::thread::scope`] workers (the calling thread runs the first
//! chunk).  There is no work stealing and no shared mutable state: which
//! worker computes an item never affects *what* is computed, only when.
//! Callers that need randomness must give every item its own derived
//! stream (see `secmed_crypto::drbg::DrbgFamily`) — never a shared RNG,
//! whose draw order would depend on the schedule.
//!
//! With `threads <= 1` (or a single item) everything degrades to a plain
//! sequential loop on the calling thread — no threads are spawned, so the
//! sequential path is also the zero-overhead baseline the scaling bench
//! compares against.
//!
//! The crate is std-only, `forbid(unsafe_code)`, and contains no clocks,
//! sockets, or channels — the repo lint enforces that scoped threads stay
//! in here and wall-clock reads stay in `crates/obs`/`crates/bench`.
//! Workers run in the caller's run scope (`secmed_obs::run`).  Every
//! fan-out reports deterministic-class metrics (`pool.calls`,
//! `pool.items`, `pool.chunks`, `pool.chunk_items`) to the
//! `secmed_obs::metrics` registry; the counts depend only on workload
//! size and thread budget, never on scheduling.

use std::ops::Range;
use std::sync::OnceLock;

use secmed_obs::metrics::{self, Class, Counter, Histogram};

/// Deterministic-class pool instrumentation: how often the pool is
/// entered, how many items it fans out, and the chunk-size distribution.
/// Handles are interned once; the hot path pays one relaxed atomic add
/// per field.  All values are pure functions of the workload and the
/// thread budget, never of scheduling.
struct PoolMetrics {
    calls: Counter,
    items: Counter,
    chunks: Counter,
    chunk_items: Histogram,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| PoolMetrics {
        calls: metrics::counter(Class::Deterministic, "pool.calls"),
        items: metrics::counter(Class::Deterministic, "pool.items"),
        chunks: metrics::counter(Class::Deterministic, "pool.chunks"),
        chunk_items: metrics::histogram(Class::Deterministic, "pool.chunk_items"),
    })
}

fn record_fanout(len: usize, ranges: &[Range<usize>]) {
    let m = pool_metrics();
    m.calls.incr();
    m.items.add(len as u64);
    m.chunks.add(ranges.len() as u64);
    for r in ranges {
        m.chunk_items.observe((r.end - r.start) as u64);
    }
}

/// How a protocol run executes: the worker-thread budget.
///
/// This is the execution half of `RunOptions` in `secmed-core`; it is
/// defined here so the crypto and DAS layers can accept a policy without
/// depending on the protocol crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    threads: usize,
}

impl ExecPolicy {
    /// Single-threaded execution (the default).
    pub fn sequential() -> Self {
        ExecPolicy { threads: 1 }
    }

    /// Up to `threads` workers; `0` is treated as `1`.
    pub fn threads(threads: usize) -> Self {
        ExecPolicy {
            threads: threads.max(1),
        }
    }

    /// The worker budget (always at least 1).
    pub fn thread_count(&self) -> usize {
        self.threads
    }
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy::sequential()
    }
}

/// A fork-join executor with a fixed worker budget.
///
/// Creating a `Pool` allocates nothing and spawns nothing: scoped worker
/// threads exist only for the duration of each `par_*` call.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool following `policy`.
    pub fn new(policy: ExecPolicy) -> Self {
        Pool {
            threads: policy.thread_count(),
        }
    }

    /// A single-threaded pool: every `par_*` call runs sequentially.
    pub fn sequential() -> Self {
        Pool::new(ExecPolicy::sequential())
    }

    /// A pool with up to `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Pool::new(ExecPolicy::threads(threads))
    }

    /// The worker budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, preserving input order.
    ///
    /// `f` receives the item's index alongside the item so callers can
    /// derive per-item randomness streams from it.
    pub fn par_map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let mapped = self.try_par_map(items, |i, t| Ok::<U, Unreachable>(f(i, t)));
        match mapped {
            Ok(v) => v,
            Err(e) => match e {},
        }
    }

    /// Maps a fallible `f` over `items`, preserving input order and
    /// propagating the error of the *smallest* failing index.
    ///
    /// Every chunk stops at its own first error; chunks are not cancelled
    /// across workers, so which error is returned never depends on the
    /// schedule.
    pub fn try_par_map<T, U, E, F>(&self, items: &[T], f: F) -> Result<Vec<U>, E>
    where
        T: Sync,
        U: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<U, E> + Sync,
    {
        let run_range =
            |range: Range<usize>| -> Result<Vec<U>, E> { range.map(|i| f(i, &items[i])).collect() };
        let ranges = chunk_ranges(items.len(), self.threads);
        record_fanout(items.len(), &ranges);
        if ranges.len() <= 1 {
            return run_range(0..items.len());
        }
        let run = secmed_obs::run::current();
        let per_chunk: Vec<Result<Vec<U>, E>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges[1..]
                .iter()
                .map(|r| {
                    let (r, run) = (r.clone(), run.clone());
                    scope.spawn(|| secmed_obs::run::within(run, || run_range(r)))
                })
                .collect();
            // The calling thread works the first chunk while the scoped
            // workers run the rest.
            let mut results = vec![run_range(ranges[0].clone())];
            for h in handles {
                match h.join() {
                    Ok(r) => results.push(r),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            results
        });
        // Chunks are contiguous and ordered, so scanning them in order
        // yields both order-preserving concatenation and first-error
        // semantics.
        let mut out = Vec::with_capacity(items.len());
        for chunk in per_chunk {
            out.extend(chunk?);
        }
        Ok(out)
    }

    /// Maps `f` over contiguous chunks of `items` and concatenates the
    /// per-chunk outputs in input order.
    ///
    /// `f` receives the chunk's starting offset in `items`.  Use this when
    /// each item produces a variable number of outputs (e.g. a nested-loop
    /// join) or when per-item closures would be too fine-grained.
    pub fn par_chunks<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &[T]) -> Vec<U> + Sync,
    {
        let ranges = chunk_ranges(items.len(), self.threads);
        record_fanout(items.len(), &ranges);
        if ranges.len() <= 1 {
            return f(0, items);
        }
        let f = &f;
        let run = secmed_obs::run::current();
        let per_chunk: Vec<Vec<U>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges[1..]
                .iter()
                .map(|r| {
                    let (r, run) = (r.clone(), run.clone());
                    scope.spawn(move || secmed_obs::run::within(run, || f(r.start, &items[r])))
                })
                .collect();
            let first = ranges[0].clone();
            let mut results = vec![f(first.start, &items[first])];
            for h in handles {
                match h.join() {
                    Ok(r) => results.push(r),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            results
        });
        per_chunk.into_iter().flatten().collect()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::sequential()
    }
}

/// Runs `f` inside a structured thread scope and returns its result.
///
/// This is the crate's second primitive, for *long-lived* workers that
/// a fork-join `par_*` call cannot model: a server's accept loop and its
/// per-connection handlers.  Like `par_*`, it is structured — every
/// spawned worker is joined before `scope` returns, so no thread
/// outlives its borrows — and it keeps raw `std::thread` naming inside
/// this crate, where the determinism lint can audit it.  Callers must
/// not let scheduling order influence *what* is computed, only when;
/// anything feeding a `RunReport` still goes through the ordered
/// fork-join API.
pub fn scope<'env, T, F>(f: F) -> T
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
{
    std::thread::scope(f)
}

pub use std::thread::{Scope, ScopedJoinHandle};

/// An uninhabited error type: lets `par_map` reuse `try_par_map` without
/// an unwrap on a path that cannot fail.
enum Unreachable {}

/// Splits `0..len` into at most `threads` contiguous, balanced ranges
/// (the first `len % threads` ranges get one extra item).  Returns fewer
/// ranges than `threads` when there are fewer items than workers, and a
/// single range for sequential execution.
fn chunk_ranges(len: usize, threads: usize) -> Vec<Range<usize>> {
    let workers = threads.clamp(1, len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly_once_and_stay_contiguous() {
        for len in [0usize, 1, 2, 7, 8, 9, 100] {
            for threads in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, threads);
                let mut expected_start = 0;
                for r in &ranges {
                    assert_eq!(r.start, expected_start, "len={len} threads={threads}");
                    expected_start = r.end;
                }
                assert_eq!(expected_start, len, "len={len} threads={threads}");
                assert!(ranges.len() <= threads.max(1));
                // Balanced: sizes differ by at most one.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
                if let (Some(max), Some(min)) = (sizes.iter().max(), sizes.iter().min()) {
                    assert!(max - min <= 1, "unbalanced {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn par_map_preserves_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1usize, 2, 3, 8, 128] {
            let pool = Pool::with_threads(threads);
            assert_eq!(pool.par_map(&items, |_, x| x * x), expected, "{threads}");
        }
    }

    #[test]
    fn par_map_passes_matching_indices() {
        let items: Vec<u64> = (100..200).collect();
        let pool = Pool::with_threads(4);
        let idx = pool.par_map(&items, |i, x| (i as u64, *x));
        for (i, (seen, x)) in idx.iter().enumerate() {
            assert_eq!(*seen, i as u64);
            assert_eq!(*x, 100 + i as u64);
        }
    }

    #[test]
    fn try_par_map_returns_first_error_by_index() {
        let items: Vec<u64> = (0..64).collect();
        // Items 7 and 50 fail — the reported error must always be 7's,
        // even though 50 lives in a later chunk that may finish first.
        for threads in [1usize, 2, 8] {
            let pool = Pool::with_threads(threads);
            let out: Result<Vec<u64>, String> = pool.try_par_map(&items, |i, x| {
                if i == 7 || i == 50 {
                    Err(format!("bad index {i}"))
                } else {
                    Ok(*x)
                }
            });
            assert_eq!(out, Err("bad index 7".to_string()), "{threads}");
        }
    }

    #[test]
    fn try_par_map_ok_path_matches_sequential() {
        let items: Vec<u64> = (0..33).collect();
        let seq: Result<Vec<u64>, ()> = Pool::sequential().try_par_map(&items, |_, x| Ok(x + 1));
        let par: Result<Vec<u64>, ()> = Pool::with_threads(8).try_par_map(&items, |_, x| Ok(x + 1));
        assert_eq!(seq, par);
    }

    #[test]
    fn par_chunks_concatenates_in_order_with_correct_offsets() {
        let items: Vec<usize> = (0..50).collect();
        for threads in [1usize, 3, 7, 64] {
            let pool = Pool::with_threads(threads);
            let out = pool.par_chunks(&items, |offset, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(k, v)| {
                        assert_eq!(offset + k, *v, "offset must locate the chunk");
                        v * 10
                    })
                    .collect()
            });
            let expected: Vec<usize> = items.iter().map(|v| v * 10).collect();
            assert_eq!(out, expected, "{threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_never_spawn() {
        let pool = Pool::with_threads(8);
        let empty: Vec<u64> = Vec::new();
        assert!(pool.par_map(&empty, |_, x: &u64| *x).is_empty());
        assert_eq!(pool.par_map(&[42u64], |_, x| *x), vec![42]);
        assert!(pool
            .par_chunks(&empty, |_, c: &[u64]| c.to_vec())
            .is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let pool = Pool::with_threads(64);
        let items: Vec<u64> = (0..5).collect();
        assert_eq!(pool.par_map(&items, |_, x| x * 2), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn fanout_metrics_count_calls_items_and_chunks() {
        // The registry is process-global and other pool tests run
        // concurrently in this binary, so assert deltas as lower bounds.
        let before = secmed_obs::metrics::snapshot();
        let pool = Pool::with_threads(4);
        let items: Vec<u64> = (0..40).collect();
        let _ = pool.par_map(&items, |_, x| *x);
        let _ = pool.par_chunks(&items, |_, c| c.to_vec());
        let delta = secmed_obs::metrics::snapshot().since(&before);
        assert!(delta.counter("pool.calls") >= 2);
        assert!(delta.counter("pool.items") >= 80);
        assert!(delta.counter("pool.chunks") >= 8, "4 chunks per call");
        let h = delta.histogram("pool.chunk_items").expect("chunk sizes");
        assert!(h.count() >= 8);
        assert!(h.max() >= 10, "40 items over 4 workers: 10 per chunk");
    }

    #[test]
    fn workers_count_into_the_callers_run() {
        use secmed_obs::run;
        let items: Vec<u64> = (0..40).collect();
        let pool = Pool::with_threads(4);
        let caller = run::open(true, &[]);
        assert!(pool.par_map(&items, |_, _| run::bump(0)).iter().all(|&b| b));
        let bumped = pool.par_chunks(&items, |_, c| c.iter().map(|_| run::bump(1)).collect());
        assert!(bumped.iter().all(|&b| b));
        assert_eq!(caller.census()[..2], [40, 40]);
    }

    #[test]
    fn scope_joins_workers_and_returns_the_closure_result() {
        let mut counters = [0u64; 4];
        let total: u64 = scope(|s| {
            let handles: Vec<_> = counters
                .iter_mut()
                .enumerate()
                .map(|(i, c)| s.spawn(move || *c = i as u64 + 1))
                .collect();
            for h in handles {
                h.join().expect("worker");
            }
            21 + 21
        });
        assert_eq!(total, 42);
        // Every worker ran and was joined inside the scope.
        assert_eq!(counters, [1, 2, 3, 4]);
    }

    #[test]
    fn policy_clamps_zero_to_sequential() {
        assert_eq!(ExecPolicy::threads(0).thread_count(), 1);
        assert_eq!(Pool::new(ExecPolicy::threads(0)).threads(), 1);
        assert_eq!(ExecPolicy::default(), ExecPolicy::sequential());
    }
}
