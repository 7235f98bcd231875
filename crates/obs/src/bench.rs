//! In-tree micro-benchmark harness.
//!
//! A small, dependency-free replacement for an external benchmark
//! framework: warmup, batch-size calibration (so per-sample timing swamps
//! timer overhead even for nanosecond-scale operations), a fixed number of
//! timed samples, and summary statistics (mean, median, standard deviation,
//! min, max).
//!
//! Benches are ordinary binaries (`harness = false`): build a [`Bench`]
//! per measurement, `run` it with a closure, and print the returned
//! [`BenchResult`] rows through a [`Suite`] for aligned output.
//!
//! Results intentionally report per-iteration wall-clock time only; this is
//! a comparative harness for the paper's tables, not a statistical
//! confidence apparatus.

use std::time::{Duration, Instant};

use crate::trajectory::Summary;

/// Re-export of the compiler optimization barrier used by benches.
pub use std::hint::black_box;

/// Minimum wall-clock duration of one sample: the batch size (iterations
/// per sample) is calibrated so a sample takes at least this long.
const MIN_SAMPLE: Duration = Duration::from_millis(1);

/// Configuration for one measurement.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Label shown in reports.
    pub name: String,
    /// Minimum time spent warming up before calibration.
    pub warmup: Duration,
    /// Number of timed samples to collect.
    pub samples: usize,
}

impl Bench {
    /// A measurement with the defaults: 100 ms warmup, 20 samples of at
    /// least 1 ms each.
    pub fn new(name: impl Into<String>) -> Self {
        Bench {
            name: name.into(),
            warmup: Duration::from_millis(100),
            samples: 20,
        }
    }

    /// Sets the number of timed samples.
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Sets the warmup duration.
    pub fn warmup(mut self, d: Duration) -> Self {
        self.warmup = d;
        self
    }

    /// Runs the measurement: warmup, calibration, then timed samples.
    ///
    /// `f` is the operation under test; wrap inputs and outputs in
    /// [`black_box`] to keep the optimizer honest.
    pub fn run(self, mut f: impl FnMut()) -> BenchResult {
        // Warmup: run until the warmup budget elapses (at least once), and
        // remember the slowest-warmed single-iteration estimate for
        // calibration.
        let warm_start = Instant::now();
        let mut iters_warm: u64 = 0;
        loop {
            f();
            iters_warm += 1;
            if warm_start.elapsed() >= self.warmup {
                break;
            }
        }
        let per_iter_estimate = warm_start.elapsed().as_nanos() as u64 / iters_warm.max(1);

        // Calibration: batch enough iterations that one sample meets
        // `MIN_SAMPLE`, so Instant overhead stays in the noise.
        let min_sample_ns = MIN_SAMPLE.as_nanos() as u64;
        let batch = (min_sample_ns / per_iter_estimate.max(1)).clamp(1, 1 << 24);

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            samples_ns.push(elapsed / batch as f64);
        }

        BenchResult {
            name: self.name,
            batch,
            summary: Summary::of(&samples_ns),
            samples_ns,
        }
    }
}

/// One measurement; all times are per-iteration nanoseconds.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Measurement label.
    pub name: String,
    /// Iterations per timed sample (calibrated).
    pub batch: u64,
    /// Raw per-iteration sample values.
    pub samples_ns: Vec<f64>,
    /// Statistics over `samples_ns`.
    pub summary: Summary,
}

impl BenchResult {
    /// One human-readable result line.
    pub fn render_row(&self) -> String {
        let s = &self.summary;
        format!(
            "{:<40} {:>12}  ±{:>10}  med {:>12}  [{} .. {}]",
            self.name,
            format_ns(s.mean as u64),
            format_ns(s.stddev as u64),
            format_ns(s.median as u64),
            format_ns(s.min as u64),
            format_ns(s.max as u64),
        )
    }
}

/// Formats nanoseconds with an adaptive unit.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// The first non-flag command-line argument, used by bench binaries as a
/// substring name filter — mirroring `cargo bench -- <filter>`.  Flags
/// such as the `--bench` marker cargo passes to `harness = false` targets
/// are ignored.
pub fn cli_filter() -> Option<String> {
    std::env::args().skip(1).find(|a| !a.starts_with('-'))
}

/// The worker-thread count requested on the command line, from
/// `--threads N` or `--threads=N`.  Returns 1 (sequential) when absent or
/// malformed — bench binaries record this value in their emitted reports
/// so thread counts are never ambiguous in archived measurements.
pub fn cli_threads() -> usize {
    parse_threads(std::env::args().skip(1))
}

fn parse_threads(mut args: impl Iterator<Item = String>) -> usize {
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) {
                return n.max(1);
            }
        } else if let Some(v) = a.strip_prefix("--threads=") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
    }
    1
}

/// A named group of measurements with header/footer printing.
///
/// ```no_run
/// use secmed_obs::bench::{Bench, Suite};
/// let mut suite = Suite::new("sha256");
/// suite.record(Bench::new("sha256/64B").run(|| { /* op */ }));
/// suite.finish();
/// ```
pub struct Suite {
    name: String,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Suite {
    /// Starts a suite and prints its header.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        println!("\n== bench group: {name} ==");
        Suite {
            name,
            filter: None,
            results: Vec::new(),
        }
    }

    /// Restricts [`Suite::bench`] to measurements whose full name
    /// (`group/bench-name`) contains `filter`; `None` runs everything.
    pub fn filter(mut self, filter: Option<String>) -> Self {
        self.filter = filter;
        self
    }

    /// Whether a measurement named `name` passes the suite filter.
    pub fn matches(&self, name: &str) -> bool {
        match &self.filter {
            None => true,
            Some(f) => format!("{}/{name}", self.name).contains(f.as_str()),
        }
    }

    /// Records and prints one result row.
    pub fn record(&mut self, result: BenchResult) {
        println!("{}", result.render_row());
        self.results.push(result);
    }

    /// Convenience: build, run, and record in one call.  Skipped (without
    /// running `f`) when the measurement name fails the suite filter.
    pub fn bench(&mut self, bench: Bench, f: impl FnMut()) {
        if !self.matches(&bench.name) {
            return;
        }
        self.record(bench.run(f));
    }

    /// Prints the footer and returns all results.
    pub fn finish(self) -> Vec<BenchResult> {
        println!("== {}: {} measurement(s) ==", self.name, self.results.len());
        self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(12), "12 ns");
        assert_eq!(format_ns(12_340), "12.340 µs");
        assert_eq!(format_ns(12_340_000), "12.340 ms");
        assert_eq!(format_ns(2_500_000_000), "2.500 s");
    }

    #[test]
    fn run_produces_requested_samples_and_positive_times() {
        let result = Bench::new("spin")
            .warmup(Duration::from_millis(1))
            .samples(5)
            .run(|| {
                black_box((0..100u64).sum::<u64>());
            });
        assert_eq!(result.samples_ns.len(), 5);
        assert!(result.batch >= 1);
        let s = result.summary;
        assert!(s.mean > 0.0);
        assert!(s.min <= s.median && s.median <= s.max);
        assert!(result.render_row().starts_with("spin "));
    }

    #[test]
    fn calibration_batches_fast_ops() {
        let result = Bench::new("nop")
            .warmup(Duration::from_millis(5))
            .samples(3)
            .run(|| {
                black_box(1u64);
            });
        assert!(
            result.batch > 1,
            "a no-op must be batched, got batch={}",
            result.batch
        );
    }

    #[test]
    fn suite_filter_skips_nonmatching_names() {
        let mut suite = Suite::new("grp").filter(Some("grp/keep".to_string()));
        assert!(suite.matches("keep-this"));
        assert!(!suite.matches("drop-this"));
        let mut ran = false;
        suite.bench(
            Bench::new("drop-this")
                .warmup(Duration::from_millis(1))
                .samples(1),
            || ran = true,
        );
        assert!(!ran, "filtered bench must not run its closure");
        assert!(suite.finish().is_empty());
    }

    #[test]
    fn parse_threads_accepts_both_spellings_and_defaults_to_one() {
        let parse = |args: &[&str]| parse_threads(args.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["--threads", "4"]), 4);
        assert_eq!(parse(&["--bench", "--threads=8", "pm"]), 8);
        assert_eq!(parse(&["pm"]), 1);
        assert_eq!(parse(&["--threads"]), 1);
        assert_eq!(parse(&["--threads", "zero?"]), 1);
        assert_eq!(parse(&["--threads", "0"]), 1, "zero clamps to sequential");
    }
}
