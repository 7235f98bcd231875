//! The metrics registry: named counters and nothing else.
//!
//! Every entry is a count that is a pure function of the scenario seeds:
//! run accounts (frames, bytes, retries, census), pool fan-outs and
//! session events.  Each finished run's account is published here once,
//! so the totals are the same at any thread count.  Wall time is not a
//! metric: it lives only in spans ([`crate::trace`]), folded by
//! [`crate::profile`].
//!
//! Clock reads are confined to this crate (the repo's determinism lint
//! bans `Instant` elsewhere): instrumented code waits through
//! [`sleep_ns`], and components that take a [`Clock`] by parameter (the
//! server) run on a [`ManualClock`] in tests.
//!
//! Handles are interned: [`counter`] returns `Copy` handles backed by
//! leaked atomics, so hot paths pay one atomic RMW per event and can
//! cache the handle in a `OnceLock`.  Additions commute, so parallel
//! workers produce the same totals regardless of scheduling.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// A monotonically increasing count.  `Copy`: cache it, pass it around.
#[derive(Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

static REGISTRY: Mutex<BTreeMap<String, Counter>> = Mutex::new(BTreeMap::new());

fn lock_registry() -> std::sync::MutexGuard<'static, BTreeMap<String, Counter>> {
    // Registry updates never panic while holding the lock, but a poisoned
    // lock must not take the whole process down with it.
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Interns (or retrieves) the counter `name`.  A known name is looked up
/// before anything is allocated.
pub fn counter(name: &str) -> Counter {
    let mut reg = lock_registry();
    if let Some(c) = reg.get(name) {
        return *c;
    }
    let fresh = Counter(Box::leak(Box::new(AtomicU64::new(0))));
    reg.insert(name.to_string(), fresh);
    fresh
}

/// One-shot counter add (interns on first use).
pub fn incr(name: &str, by: u64) {
    counter(name).add(by);
}

// ---------------------------------------------------------------------
// Clock abstraction
// ---------------------------------------------------------------------

/// A nanosecond clock, for components that take their clock by parameter:
/// [`MonotonicClock`] reads the process monotonic clock (via
/// [`crate::trace::now_ns`], the one sanctioned `Instant` user), and tests
/// pass a [`ManualClock`] for exact timings.
pub trait Clock: Send + Sync {
    /// Current time in nanoseconds (monotonic, arbitrary epoch).
    fn now_ns(&self) -> u64;

    /// Blocks the calling thread for `ns` nanoseconds.  The default
    /// parks the OS thread; [`ManualClock`] just advances itself, so
    /// tests that drive backoff or drain loops never actually sleep.
    fn sleep_ns(&self, ns: u64) {
        std::thread::sleep(std::time::Duration::from_nanos(ns));
    }
}

/// A hand-cranked clock for tests.
#[derive(Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A clock starting at `ns`.
    pub fn at(ns: u64) -> Self {
        ManualClock(AtomicU64::new(ns))
    }

    /// Advances the clock.
    pub fn advance(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn sleep_ns(&self, ns: u64) {
        self.advance(ns);
    }
}

/// The process monotonic clock as an explicit [`Clock`] value.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonotonicClock;

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        crate::trace::now_ns()
    }
}

/// Parks the calling thread for `ns` nanoseconds of wall time: the only
/// sanctioned way instrumented code outside `crates/obs`/`crates/bench`
/// waits on the wall clock.
pub fn sleep_ns(ns: u64) {
    MonotonicClock.sleep_ns(ns);
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// A point-in-time copy of the whole registry (or a diff of two).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
}

/// Captures the current value of every registered counter.
pub fn snapshot() -> MetricsSnapshot {
    let counters = lock_registry()
        .iter()
        .map(|(name, c)| (name.clone(), c.get()))
        .collect();
    MetricsSnapshot { counters }
}

impl MetricsSnapshot {
    /// The delta `self - earlier`, zero entries dropped.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| (name, v.saturating_sub(earlier.counter(name))))
            .filter(|&(_, d)| d > 0)
            .map(|(name, d)| (name.clone(), d))
            .collect();
        MetricsSnapshot { counters }
    }

    /// A counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The snapshot as one flat JSON object, name → count.
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registered names are process-global; every test uses its own
    // prefix so parallel test threads cannot collide.

    #[test]
    fn counters_intern_and_accumulate() {
        let a = counter("t.m1.hits");
        let b = counter("t.m1.hits");
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);
        incr("t.m1.hits", 4);
        assert_eq!(b.get(), 7);
    }

    #[test]
    fn snapshot_since_drops_untouched_metrics() {
        counter("t.m5.quiet").add(3);
        let touched = counter("t.m5.touched");
        touched.add(1);
        let before = snapshot();
        touched.add(5);
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter("t.m5.quiet"), 0);
        assert!(!delta.counters.contains_key("t.m5.quiet"));
        assert_eq!(delta.counter("t.m5.touched"), 5);
    }

    #[test]
    fn snapshot_json_is_one_flat_object() {
        counter("t.m8.c").add(2);
        let j = snapshot().to_json();
        assert_eq!(j.get("t.m8.c").and_then(Json::as_u64), Some(2));
        assert!(j
            .as_object()
            .is_some_and(|m| m.iter().all(|(_, v)| v.as_u64().is_some())));
    }
}
