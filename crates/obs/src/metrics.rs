//! The metrics registry: named counters and log₂-bucketed histograms,
//! split into two classes.
//!
//! * [`Class::Deterministic`] — operation counts, frames, bytes, retries:
//!   pure functions of the scenario seed.  The engine records its
//!   per-run deterministic metrics into the `RunReport`, so the CI
//!   byte-identical-across-thread-counts assertion covers them.
//! * [`Class::Timing`] — wall-clock observations (phase latency,
//!   per-primitive timing).  These are *never* part of a `RunReport`;
//!   they export separately and are excluded from determinism diffs.
//!
//! Clock reads are confined to this crate (the repo's determinism lint
//! bans `Instant` elsewhere): instrumented code in core/pool/crypto calls
//! [`start_timer`] or [`sleep_ns`], and the read happens here.  Components
//! that take a [`Clock`] by parameter (the server) run on a
//! [`ManualClock`] in tests.
//!
//! Handles are interned: [`counter`]/[`histogram`] return
//! `Copy` handles backed by leaked atomics, so hot paths pay one atomic
//! RMW per event and can cache the handle in a `OnceLock`.  Counter and
//! histogram updates commute, so parallel workers produce the same
//! totals regardless of scheduling — which is what lets deterministic
//! metrics survive the thread-count sweep.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;

/// How a metric relates to the determinism invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A pure function of the scenario inputs: safe inside `RunReport`
    /// and inside byte-identical determinism diffs.
    Deterministic,
    /// Derived from the wall clock: exported separately, never diffed.
    Timing,
}

impl Class {
    /// Lowercase key used in JSON exports.
    pub fn key(self) -> &'static str {
        match self {
            Class::Deterministic => "deterministic",
            Class::Timing => "timing",
        }
    }
}

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `k`
/// (1..=64) holds values with bit length `k`, i.e. `[2^(k-1), 2^k - 1]`.
pub const HIST_BUCKETS: usize = 65;

/// The bucket a value lands in.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive upper bound of a bucket (what percentiles report).
fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// A plain (non-atomic) log₂ histogram: the snapshot/merge/percentile
/// arithmetic behind the atomic registry cells.
#[derive(Clone, PartialEq, Eq)]
pub struct Hist {
    buckets: [u64; HIST_BUCKETS],
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist")
            .field("count", &self.count())
            .field("p50", &self.percentile(50.0))
            .field("p90", &self.percentile(90.0))
            .field("p99", &self.percentile(99.0))
            .field("max", &self.max)
            .finish()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            max: 0,
        }
    }

    /// Records one value.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.max = self.max.max(v);
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The largest recorded value (0 for an empty histogram).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Folds another histogram into this one (bucket-wise addition;
    /// associative and commutative, so merge order never matters).
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.max = self.max.max(other.max);
    }

    /// The `p`-th percentile (0 < p ≤ 100) as the inclusive upper bound
    /// of the bucket holding that rank; the exact `max` caps the answer.
    /// An empty histogram reports 0.
    pub fn percentile(&self, p: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Convenience percentiles.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }
    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }
    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Bucket-wise difference `self - earlier` (saturating), for
    /// snapshot deltas.
    pub fn since(&self, earlier: &Hist) -> Hist {
        let mut out = Hist::new();
        for (i, (a, b)) in self.buckets.iter().zip(earlier.buckets.iter()).enumerate() {
            out.buckets[i] = a.saturating_sub(*b);
        }
        // The true max of the delta is unrecoverable from buckets alone;
        // the current max is the honest upper bound.
        out.max = if out.count() == 0 { 0 } else { self.max };
        out
    }

    /// Summary as a JSON object (`count`, `p50`, `p90`, `p99`, `max`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count())),
            ("p50", Json::UInt(self.p50())),
            ("p90", Json::UInt(self.p90())),
            ("p99", Json::UInt(self.p99())),
            ("max", Json::UInt(self.max)),
        ])
    }
}

/// The atomic cell behind a registered histogram.
struct HistCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    max: AtomicU64,
}

impl HistCell {
    fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn load(&self) -> Hist {
        let mut h = Hist::new();
        for (slot, b) in h.buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = b.load(Ordering::Relaxed);
        }
        h.max = self.max.load(Ordering::Relaxed);
        h
    }
}

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

/// A registered log₂ histogram.
#[derive(Clone, Copy)]
pub struct Histogram(&'static HistCell);

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.observe(v);
    }

    /// A plain copy of the current contents.
    pub fn load(&self) -> Hist {
        self.0.load()
    }
}

/// What kind of instrument a name is registered as.
enum Slot {
    Counter(Counter),
    Histogram(Histogram),
}

static REGISTRY: Mutex<BTreeMap<String, (Class, Slot)>> = Mutex::new(BTreeMap::new());

fn lock_registry() -> std::sync::MutexGuard<'static, BTreeMap<String, (Class, Slot)>> {
    // Registry updates never panic while holding the lock, but a poisoned
    // lock must not take the whole process down with it.
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Interns (or retrieves) the counter `name`.  If the name is already
/// registered as a different instrument kind, a detached cell is returned
/// so the call stays total — the registered instrument keeps its data.
pub fn counter(class: Class, name: &str) -> Counter {
    let mut reg = lock_registry();
    if let Some((_, Slot::Counter(c))) = reg.get(name) {
        return *c;
    }
    let fresh = Counter(Box::leak(Box::new(AtomicU64::new(0))));
    if !reg.contains_key(name) {
        reg.insert(name.to_string(), (class, Slot::Counter(fresh)));
    }
    fresh
}

/// Interns (or retrieves) the histogram `name` (same collision contract
/// as [`counter`]).
pub fn histogram(class: Class, name: &str) -> Histogram {
    let mut reg = lock_registry();
    if let Some((_, Slot::Histogram(h))) = reg.get(name) {
        return *h;
    }
    let cell = HistCell {
        buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        max: AtomicU64::new(0),
    };
    let fresh = Histogram(Box::leak(Box::new(cell)));
    if !reg.contains_key(name) {
        reg.insert(name.to_string(), (class, Slot::Histogram(fresh)));
    }
    fresh
}

/// One-shot counter add (interns on first use).
pub fn incr(class: Class, name: &str, by: u64) {
    counter(class, name).add(by);
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

/// Parks the calling thread for `ns` nanoseconds of wall time.  Like
/// [`start_timer`], this is the only sanctioned way instrumented code
/// outside `crates/obs`/`crates/bench` waits on the wall clock.
pub fn sleep_ns(ns: u64) {
    MonotonicClock.sleep_ns(ns);
}

/// A running timer; dropping it records the elapsed nanoseconds into the
/// timing-class histogram it was started against.
pub struct Timer {
    hist: Histogram,
    start: u64,
}

impl Drop for Timer {
    fn drop(&mut self) {
        self.hist
            .observe(crate::trace::now_ns().saturating_sub(self.start));
    }
}

/// Starts a timer against the timing-class histogram `name`.  This is
/// the only way instrumented code outside `crates/obs`/`crates/bench`
/// reads the wall clock — the read happens here.
pub fn start_timer(name: &str) -> Timer {
    Timer {
        hist: histogram(Class::Timing, name),
        start: crate::trace::now_ns(),
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// A point-in-time copy of the whole registry (or a diff of two).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, (Class, u64)>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, (Class, Hist)>,
}

/// Captures the current value of every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = lock_registry();
    let mut out = MetricsSnapshot::default();
    for (name, (class, slot)) in reg.iter() {
        match slot {
            Slot::Counter(c) => {
                out.counters.insert(name.clone(), (*class, c.get()));
            }
            Slot::Histogram(h) => {
                out.histograms.insert(name.clone(), (*class, h.load()));
            }
        }
    }
    out
}

impl MetricsSnapshot {
    /// The delta `self - earlier`: counters and histograms diff
    /// (zero/empty entries dropped).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for (name, (class, v)) in &self.counters {
            let base = earlier.counters.get(name).map(|(_, b)| *b).unwrap_or(0);
            let d = v.saturating_sub(base);
            if d > 0 {
                out.counters.insert(name.clone(), (*class, d));
            }
        }
        for (name, (class, h)) in &self.histograms {
            let d = match earlier.histograms.get(name) {
                Some((_, base)) => h.since(base),
                None => h.clone(),
            };
            if !d.is_empty() {
                out.histograms.insert(name.clone(), (*class, d));
            }
        }
        out
    }

    /// Only the metrics of one class.
    pub fn only(&self, class: Class) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(_, (c, _))| *c == class)
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(_, (c, _))| *c == class)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// A counter's value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map(|(_, v)| *v).unwrap_or(0)
    }

    /// A histogram's contents, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Hist> {
        self.histograms.get(name).map(|(_, h)| h)
    }

    /// Whether the snapshot carries no data at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// The snapshot as a JSON object:
    /// `{"counters":{..},"histograms":{name:{count,p50,..}}}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Object(
                    self.counters
                        .iter()
                        .map(|(k, (_, v))| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Object(
                    self.histograms
                        .iter()
                        .map(|(k, (_, h))| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Registered names are process-global; every test uses its own
    // prefix so parallel test threads cannot collide.

    #[test]
    fn counters_intern_and_accumulate() {
        let a = counter(Class::Deterministic, "t.m1.hits");
        let b = counter(Class::Deterministic, "t.m1.hits");
        a.add(2);
        b.incr();
        assert_eq!(a.get(), 3);
        incr(Class::Deterministic, "t.m1.hits", 4);
        assert_eq!(b.get(), 7);
    }

    #[test]
    fn kind_collision_returns_detached_cell_not_corruption() {
        let c = counter(Class::Deterministic, "t.m3.shared");
        c.add(5);
        // Asking for the same name as a histogram must not clobber the
        // counter; the returned histogram is detached but usable.
        let h = histogram(Class::Deterministic, "t.m3.shared");
        h.observe(1);
        assert_eq!(c.get(), 5);
        assert_eq!(counter(Class::Deterministic, "t.m3.shared").get(), 5);
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 0 is its own bucket; k >= 1 holds [2^(k-1), 2^k - 1].
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_of(1u64 << 63), 64);
        assert_eq!(bucket_of((1u64 << 63) - 1), 63);
        // Bounds are the inclusive bucket maxima.
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(63), (1u64 << 63) - 1);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Hist::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.percentile(100.0), 0);
    }

    #[test]
    fn percentiles_walk_buckets_and_cap_at_max() {
        let mut h = Hist::new();
        // 90 small values, 10 large ones.
        for _ in 0..90 {
            h.observe(3);
        }
        for _ in 0..10 {
            h.observe(1000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.p50(), 3, "median falls in the [2,3] bucket");
        assert_eq!(h.p90(), 3, "rank 90 is the last small value");
        // Rank 99 lands in 1000's bucket [512,1023]; max caps it at 1000.
        assert_eq!(h.p99(), 1000);
        assert_eq!(h.max(), 1000);
        // A single value: every percentile is its bucket bound ∧ max.
        let mut one = Hist::new();
        one.observe(5);
        assert_eq!(one.p50(), 5, "bucket bound 7 capped by max 5");
        assert_eq!(one.percentile(1.0), 5);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut h = Hist::new();
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let a = mk(&[1, 2, 3]);
        let b = mk(&[100, 200]);
        let c = mk(&[0, 7, 7, 7]);
        // (a+b)+c == a+(b+c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // a+b == b+a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 5);
        assert_eq!(ab.max(), 200);
    }

    #[test]
    fn p99_is_monotone_under_merges() {
        // Merging in more data can only move p99 upward when the new
        // data sits at or above it — never below the pre-merge floor
        // formed by the smaller distribution's p99.
        let mut base = Hist::new();
        for v in 1..=100u64 {
            base.observe(v);
        }
        let p_before = base.p99();
        let mut grown = base.clone();
        let mut tail = Hist::new();
        for _ in 0..50 {
            tail.observe(1 << 20);
        }
        grown.merge(&tail);
        assert!(
            grown.p99() >= p_before,
            "adding a high tail must not lower p99: {} < {p_before}",
            grown.p99()
        );
        // And percentiles stay internally ordered after any merge.
        assert!(grown.p50() <= grown.p90());
        assert!(grown.p90() <= grown.p99());
        assert!(grown.p99() <= grown.max());
    }

    #[test]
    fn hist_since_subtracts_buckets() {
        let mut before = Hist::new();
        before.observe(4);
        let mut after = before.clone();
        after.observe(4);
        after.observe(900);
        let d = after.since(&before);
        assert_eq!(d.count(), 2);
        assert_eq!(d.max(), 900);
        let empty = after.since(&after);
        assert!(empty.is_empty());
        assert_eq!(empty.max(), 0);
    }

    #[test]
    fn registered_histogram_snapshots_through_registry() {
        let h = histogram(Class::Deterministic, "t.m4.sizes");
        let before = snapshot();
        h.observe(10);
        h.observe(2000);
        let delta = snapshot().since(&before);
        let d = delta.histogram("t.m4.sizes").expect("recorded");
        assert_eq!(d.count(), 2);
        assert_eq!(d.max(), 2000);
        assert!(delta.counter("t.m4.sizes") == 0, "not a counter");
    }

    #[test]
    fn snapshot_since_drops_untouched_metrics() {
        counter(Class::Deterministic, "t.m5.quiet").add(3);
        let before = snapshot();
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter("t.m5.quiet"), 0);
        assert!(!delta.counters.contains_key("t.m5.quiet"));
    }

    #[test]
    fn class_filter_splits_deterministic_from_timing() {
        counter(Class::Deterministic, "t.m6.det").add(1);
        counter(Class::Timing, "t.m6.time").add(1);
        let s = snapshot();
        let det = s.only(Class::Deterministic);
        let tim = s.only(Class::Timing);
        assert!(det.counters.contains_key("t.m6.det"));
        assert!(!det.counters.contains_key("t.m6.time"));
        assert!(tim.counters.contains_key("t.m6.time"));
        assert!(!tim.counters.contains_key("t.m6.det"));
    }

    #[test]
    fn a_timer_records_one_timing_sample() {
        let before = snapshot();
        {
            let _t = start_timer("t.m7.phase_ns");
        }
        let delta = snapshot().since(&before);
        let h = delta.histogram("t.m7.phase_ns").expect("timer recorded");
        assert_eq!(h.count(), 1);
        // Timers are timing-class: a deterministic filter excludes them.
        assert!(delta
            .only(Class::Deterministic)
            .histogram("t.m7.phase_ns")
            .is_none());
    }

    #[test]
    fn snapshot_json_has_all_sections() {
        counter(Class::Deterministic, "t.m8.c").add(2);
        histogram(Class::Deterministic, "t.m8.h").observe(5);
        let j = snapshot().to_json().render();
        for needle in [
            r#""t.m8.c":2"#,
            r#""t.m8.h":{"count":"#,
            r#""counters""#,
            r#""histograms""#,
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
    }
}
