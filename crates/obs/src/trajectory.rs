//! The `BENCH_*.json` performance-trajectory file format.
//!
//! Every bench binary emits one file per suite under `target/bench/`,
//! named `BENCH_<suite>.json`; the committed file of the same name at the
//! repo root is its baseline, and [`compare`] is the one rule
//! `scripts/bench_check.sh` holds every fresh file to.  Schema (version 2):
//!
//! ```json
//! {
//!   "schema_version": 2,
//!   "suite": "core",
//!   "emitter": "report",
//!   "threads": 1,
//!   "benches": [
//!     {"name": "das/rows64", "unit": "ns",
//!      "samples": [..],
//!      "summary": {"mean": .., "median": .., "stddev": .., "min": .., "max": ..}}
//!   ],
//!   "metrics": {"pool.calls": 52, "transport.frames": 120, ..}
//! }
//! ```
//!
//! `metrics` is the [`crate::metrics::MetricsSnapshot`] JSON export, one
//! flat object of counts; the only wall-clock data are the `ns` series.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

use crate::json::{self, Json};
use crate::metrics::MetricsSnapshot;

/// Current schema version; bump when the layout changes incompatibly.
pub const SCHEMA_VERSION: u64 = 2;

/// One named measurement series inside a trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryEntry {
    /// Bench name, e.g. `"das/rows64"`.
    pub name: String,
    /// Unit of every sample, e.g. `"ns"` or `"bytes"`.
    pub unit: String,
    /// Raw samples in recording order.
    pub samples: Vec<f64>,
}

/// Summary statistics over one series' samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (average of the middle two for even counts).
    pub median: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// The statistics of `samples` (all zero when empty).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        Summary {
            mean,
            median,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }
}

impl TrajectoryEntry {
    fn to_json(&self) -> Json {
        let Summary {
            mean,
            median,
            stddev,
            min,
            max,
        } = Summary::of(&self.samples);
        Json::obj([
            ("name", Json::from(self.name.clone())),
            ("unit", Json::from(self.unit.clone())),
            (
                "samples",
                Json::arr(self.samples.iter().map(|&s| Json::Float(s))),
            ),
            (
                "summary",
                Json::obj([
                    ("mean", Json::Float(mean)),
                    ("median", Json::Float(median)),
                    ("stddev", Json::Float(stddev)),
                    ("min", Json::Float(min)),
                    ("max", Json::Float(max)),
                ]),
            ),
        ])
    }
}

/// A whole `BENCH_<suite>.json` file under construction.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryFile {
    /// Suite name; determines the file name `BENCH_<suite>.json`.
    pub suite: String,
    /// The binary that produced the file, e.g. `"report"`.
    pub emitter: String,
    /// Worker thread count the suite ran with.
    pub threads: u64,
    /// The measurement series.
    pub benches: Vec<TrajectoryEntry>,
    /// The registry's counts.
    pub metrics: MetricsSnapshot,
}

impl TrajectoryFile {
    /// An empty trajectory for `suite`.
    pub fn new(suite: &str, emitter: &str, threads: u64) -> Self {
        TrajectoryFile {
            suite: suite.to_string(),
            emitter: emitter.to_string(),
            threads,
            benches: Vec::new(),
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Appends one measurement series.
    pub fn push(&mut self, name: &str, unit: &str, samples: Vec<f64>) {
        self.benches.push(TrajectoryEntry {
            name: name.to_string(),
            unit: unit.to_string(),
            samples,
        });
    }

    /// Attaches a metrics snapshot.
    pub fn set_metrics(&mut self, snapshot: &MetricsSnapshot) {
        self.metrics = snapshot.clone();
    }

    /// The whole file as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::UInt(SCHEMA_VERSION)),
            ("suite", Json::from(self.suite.clone())),
            ("emitter", Json::from(self.emitter.clone())),
            ("threads", Json::UInt(self.threads)),
            (
                "benches",
                Json::arr(self.benches.iter().map(TrajectoryEntry::to_json)),
            ),
            ("metrics", self.metrics.to_json()),
        ])
    }

    /// The file name this suite serializes to.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.suite)
    }

    /// Writes `dir/BENCH_<suite>.json` (pretty, trailing newline),
    /// creating `dir` if needed.  Returns the written path.
    pub fn write_under(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json().render_pretty() + "\n")?;
        Ok(path)
    }
}

/// A schema violation found by [`validate`].
pub type SchemaError = String;

/// Validates a parsed `BENCH_*.json` document against schema version 2.
/// Returns every violation (empty ⇒ valid).
pub fn validate(doc: &Json) -> Vec<SchemaError> {
    let mut errors = Vec::new();
    let Some(_) = doc.as_object() else {
        return vec!["document is not an object".to_string()];
    };
    match doc.get("schema_version").and_then(Json::as_u64) {
        Some(SCHEMA_VERSION) => {}
        Some(v) => errors.push(format!("schema_version {v} != supported {SCHEMA_VERSION}")),
        None => errors.push("missing integer schema_version".to_string()),
    }
    for key in ["suite", "emitter"] {
        if doc.get(key).and_then(Json::as_str).is_none() {
            errors.push(format!("missing string {key}"));
        }
    }
    if doc.get("threads").and_then(Json::as_u64).is_none() {
        errors.push("missing integer threads".to_string());
    }
    match doc.get("benches").and_then(Json::as_array) {
        None => errors.push("missing array benches".to_string()),
        Some(benches) => {
            let mut names = BTreeSet::new();
            for (i, b) in benches.iter().enumerate() {
                let name = b.get("name").and_then(Json::as_str);
                let label = name.map_or_else(|| format!("benches[{i}]"), str::to_string);
                match name {
                    None => errors.push(format!("{label}: missing string name")),
                    Some(name) if !names.insert(name) => {
                        errors.push(format!("{label}: duplicate series name"));
                    }
                    Some(_) => {}
                }
                if b.get("unit").and_then(Json::as_str).is_none() {
                    errors.push(format!("{label}: missing string unit"));
                }
                let samples = b.get("samples").and_then(Json::as_array);
                match samples {
                    None => errors.push(format!("{label}: missing array samples")),
                    Some(s) if s.iter().any(|v| v.as_f64().is_none()) => {
                        errors.push(format!("{label}: non-numeric sample"));
                    }
                    _ => {}
                }
                match b.get("summary").and_then(Json::as_object) {
                    None => errors.push(format!("{label}: missing object summary")),
                    Some(_) => {
                        for stat in ["mean", "median", "stddev", "min", "max"] {
                            if b.get("summary")
                                .and_then(|s| s.get(stat))
                                .and_then(Json::as_f64)
                                .is_none()
                            {
                                errors.push(format!("{label}: summary missing {stat}"));
                            }
                        }
                    }
                }
            }
        }
    }
    match doc.get("metrics").and_then(Json::as_object) {
        None => errors.push("missing object metrics".to_string()),
        Some(metrics) => errors.extend(
            metrics
                .iter()
                .filter(|(_, v)| v.as_u64().is_none())
                .map(|(name, _)| format!("metrics.{name}: not a count")),
        ),
    }
    errors
}

/// Reads and validates a `BENCH_*.json` file; `Ok` carries the parsed
/// document, `Err` the list of problems (the caller names the file).
pub fn load(path: &Path) -> Result<Json, Vec<SchemaError>> {
    let text = std::fs::read_to_string(path).map_err(|e| vec![e.to_string()])?;
    let doc = json::parse(&text).map_err(|e| vec![e.to_string()])?;
    let errors = validate(&doc);
    if errors.is_empty() {
        Ok(doc)
    } else {
        Err(errors)
    }
}

/// How far a wall-clock median may exceed its baseline in [`compare`]:
/// generous because machines vary; the committed samples are the
/// fine-grained record.
pub const MAX_WALL_RATIO: f64 = 4.0;

/// Compares a fresh trajectory with its committed baseline, both already
/// [`validate`]d, and returns one line per difference, each naming the
/// series or metric (empty ⇒ the fresh file passes).
///
/// The files must carry the same series names with the same units and
/// sample counts.  A wall-clock series (unit `"ns"`) passes while its median stays within
/// [`MAX_WALL_RATIO`] × the baseline's; every other series must equal the
/// baseline sample for sample; and `metrics` must equal the baseline's,
/// count for count.  `threads` is not compared.
pub fn compare(fresh: &Json, baseline: &Json) -> Vec<String> {
    let mut diffs = Vec::new();
    let (now, then) = (series(fresh), series(baseline));
    for name in now.keys().chain(then.keys()).collect::<BTreeSet<_>>() {
        let diff = match (now.get(name), then.get(name)) {
            (None, _) => Some("series missing from the fresh file".to_string()),
            (_, None) => Some("series not in the baseline".to_string()),
            (Some(series), Some(base)) => series_diff(series, base),
        };
        diffs.extend(diff.map(|d| format!("{name}: {d}")));
    }
    let (now, then) = (counts(fresh), counts(baseline));
    let shown = |v: Option<&u64>| v.map_or("absent".to_string(), u64::to_string);
    for name in now.keys().chain(then.keys()).collect::<BTreeSet<_>>() {
        let (value, base) = (now.get(name), then.get(name));
        if value != base {
            diffs.push(format!(
                "metrics.{name}: {}, baseline {}",
                shown(value),
                shown(base)
            ));
        }
    }
    diffs
}

/// How a fresh `(unit, samples)` series differs from its baseline under
/// [`compare`]'s rule, if it does.
fn series_diff(
    (unit, samples): &(&str, Vec<f64>),
    (base_unit, base): &(&str, Vec<f64>),
) -> Option<String> {
    if unit != base_unit {
        return Some(format!("unit {unit:?}, baseline {base_unit:?}"));
    }
    if samples.len() != base.len() {
        return Some(format!(
            "{} samples, baseline {}",
            samples.len(),
            base.len()
        ));
    }
    if *unit == "ns" {
        let (median, base) = (Summary::of(samples).median, Summary::of(base).median);
        return (median > MAX_WALL_RATIO * base).then(|| {
            format!("median {median:.0} ns exceeds baseline {base:.0} ns × {MAX_WALL_RATIO}")
        });
    }
    let i = (0..samples.len()).find(|&i| samples[i] != base[i])?;
    Some(format!(
        "sample {i} is {} {unit}, baseline {}",
        samples[i], base[i]
    ))
}

/// Every series of a trajectory document: name → (unit, samples).
fn series(doc: &Json) -> BTreeMap<&str, (&str, Vec<f64>)> {
    doc.get("benches")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|b| {
            let samples = b.get("samples")?.as_array()?;
            Some((
                b.get("name")?.as_str()?,
                (
                    b.get("unit")?.as_str()?,
                    samples.iter().filter_map(Json::as_f64).collect(),
                ),
            ))
        })
        .collect()
}

/// The metrics of a trajectory document: name → count.
fn counts(doc: &Json) -> BTreeMap<&str, u64> {
    doc.get("metrics")
        .and_then(Json::as_object)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, v)| Some((name.as_str(), v.as_u64()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn sample_file() -> TrajectoryFile {
        let mut f = TrajectoryFile::new("testsuite", "unit-test", 2);
        f.push("alpha/one", "ns", vec![10.0, 30.0, 20.0]);
        f.push("beta/two", "bytes", vec![512.0]);
        f
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[10.0, 30.0, 20.0]);
        assert_eq!((s.mean, s.median, s.min, s.max), (20.0, 20.0, 10.0, 30.0));
        assert!((s.stddev - 8.164965809).abs() < 1e-6);
        // Even counts average the middle two; population stddev.
        let s = Summary::of(&[40.0, 10.0, 30.0, 20.0]);
        assert_eq!((s.mean, s.median), (25.0, 25.0));
        assert!((s.stddev - 125f64.sqrt()).abs() < 1e-9);
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn emitted_file_round_trips_and_validates() {
        let mut f = sample_file();
        metrics::counter("t.traj.frames").add(4);
        f.set_metrics(&metrics::snapshot());
        let doc = json::parse(&f.to_json().render_pretty()).expect("parse");
        assert_eq!(validate(&doc), Vec::<String>::new());
        assert_eq!(doc.get("suite").and_then(Json::as_str), Some("testsuite"));
        assert_eq!(doc.get("threads").and_then(Json::as_u64), Some(2));
        let benches = series(&doc);
        assert_eq!(
            benches.keys().copied().collect::<Vec<_>>(),
            ["alpha/one", "beta/two"]
        );
        assert_eq!(benches["alpha/one"], ("ns", vec![10.0, 30.0, 20.0]));
        assert_eq!(
            doc.get("benches")
                .and_then(|b| b.as_array()?[0].get("summary")?.get("median"))
                .and_then(Json::as_f64),
            Some(20.0)
        );
        assert!(counts(&doc).get("t.traj.frames").is_some_and(|&v| v >= 4));
    }

    /// A baseline with a wall series, a multi-sample deterministic
    /// series and a counter.
    fn baseline() -> TrajectoryFile {
        let mut f = sample_file();
        f.push("gamma/bytes", "bytes", vec![100.0, 200.0, 300.0]);
        f.metrics.counters.insert("pool.calls".into(), 48);
        f
    }

    /// `compare` over the files as written and re-read.
    fn diffs(fresh: &TrajectoryFile, baseline: &TrajectoryFile) -> Vec<String> {
        let doc = |f: &TrajectoryFile| json::parse(&f.to_json().render()).expect("parse");
        compare(&doc(fresh), &doc(baseline))
    }

    #[test]
    fn compare_passes_when_only_wall_samples_differ() {
        let mut fresh = baseline();
        // Median 20 → 80: exactly the allowed ratio.
        fresh.benches[0].samples = vec![80.0, 5.0, 800.0];
        assert_eq!(diffs(&fresh, &baseline()), Vec::<String>::new());
    }

    #[test]
    fn compare_fails_on_a_missing_series() {
        let mut fresh = baseline();
        fresh.benches.retain(|b| b.name != "beta/two");
        assert_eq!(
            diffs(&fresh, &baseline()),
            ["beta/two: series missing from the fresh file"]
        );
    }

    #[test]
    fn compare_fails_on_an_extra_series() {
        let mut fresh = baseline();
        fresh.push("delta/new", "count", vec![1.0]);
        assert_eq!(
            diffs(&fresh, &baseline()),
            ["delta/new: series not in the baseline"]
        );
    }

    #[test]
    fn compare_fails_on_a_changed_unit() {
        // Re-declaring a wall series as deterministic, or the reverse,
        // is a unit change, never a silent switch of rule.
        let mut fresh = baseline();
        fresh.benches[0].unit = "count".to_string();
        assert_eq!(
            diffs(&fresh, &baseline()),
            [r#"alpha/one: unit "count", baseline "ns""#]
        );
    }

    #[test]
    fn compare_fails_on_one_changed_sample_under_the_same_median() {
        let mut fresh = baseline();
        fresh.benches[2].samples[0] = 150.0;
        assert_eq!(
            Summary::of(&fresh.benches[2].samples).median,
            Summary::of(&baseline().benches[2].samples).median
        );
        assert_eq!(
            diffs(&fresh, &baseline()),
            ["gamma/bytes: sample 0 is 150 bytes, baseline 100"]
        );
        fresh.benches[2].samples.push(400.0);
        assert_eq!(
            diffs(&fresh, &baseline()),
            ["gamma/bytes: 4 samples, baseline 3"]
        );
    }

    #[test]
    fn compare_fails_on_a_changed_counter() {
        let mut fresh = baseline();
        fresh.metrics.counters.insert("pool.calls".into(), 44);
        fresh.metrics.counters.insert("run.result_rows".into(), 2);
        assert_eq!(
            diffs(&fresh, &baseline()),
            [
                "metrics.pool.calls: 44, baseline 48",
                "metrics.run.result_rows: 2, baseline absent",
            ]
        );
    }

    #[test]
    fn compare_fails_on_a_wall_series_that_lost_samples_under_the_same_median() {
        let mut fresh = baseline();
        fresh.benches[0].samples = vec![20.0];
        assert_eq!(
            diffs(&fresh, &baseline()),
            ["alpha/one: 1 samples, baseline 3"]
        );
    }

    #[test]
    fn compare_fails_on_a_wall_median_above_the_ratio() {
        let mut fresh = baseline();
        fresh.benches[0].samples = vec![81.0, 81.0, 81.0];
        assert_eq!(
            diffs(&fresh, &baseline()),
            ["alpha/one: median 81 ns exceeds baseline 20 ns × 4"]
        );
    }

    #[test]
    fn validate_reports_each_violation() {
        let doc = json::parse(
            r#"{"schema_version":9,"suite":"s","threads":"x",
                "benches":[{"unit":"ns","samples":[1,"bad"]}]}"#,
        )
        .expect("parse");
        let errors = validate(&doc);
        let joined = errors.join("; ");
        for needle in [
            "schema_version 9",
            "missing string emitter",
            "missing integer threads",
            "missing string name",
            "non-numeric sample",
            "missing object summary",
            "missing object metrics",
        ] {
            assert!(joined.contains(needle), "missing {needle:?} in {joined}");
        }
        assert_eq!(
            validate(&Json::Null),
            vec!["document is not an object".to_string()]
        );
    }

    #[test]
    fn validate_rejects_a_schema_1_file() {
        let doc = json::parse(
            r#"{"schema_version":1,"suite":"s","emitter":"e","threads":1,"benches":[],
                "metrics":{"deterministic":{"counters":{"pool.calls":48}},"timing":{}}}"#,
        )
        .expect("parse");
        assert_eq!(
            validate(&doc),
            [
                "schema_version 1 != supported 2",
                "metrics.deterministic: not a count",
                "metrics.timing: not a count",
            ]
        );
    }

    #[test]
    fn validate_rejects_two_series_with_one_name() {
        let mut f = baseline();
        f.push("beta/two", "bytes", vec![512.0]);
        assert_eq!(validate(&f.to_json()), ["beta/two: duplicate series name"]);
    }

    #[test]
    fn write_under_creates_named_file() {
        let dir = std::env::temp_dir().join(format!("secmed-traj-{}", std::process::id()));
        let f = sample_file();
        let path = f.write_under(&dir).expect("write");
        assert!(path.ends_with("BENCH_testsuite.json"));
        let doc = load(&path).expect("valid file");
        assert_eq!(doc.get("emitter").and_then(Json::as_str), Some("unit-test"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn load_rejects_invalid_schema() {
        let dir = std::env::temp_dir().join(format!("secmed-traj-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("BENCH_bad.json");
        std::fs::write(&path, "{\"schema_version\":1}").expect("write");
        let errors = load(&path).expect_err("schema errors");
        assert!(errors.iter().any(|e| e.contains("missing array benches")));
        assert!(load(&dir.join("BENCH_absent.json")).is_err());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
