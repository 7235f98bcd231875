//! The repository benchmark: closed-loop mediation queries through the
//! public engine, client and server APIs.
//!
//! ```text
//! perfbench --workload <das-superset|pm-matching|commutative-sessions>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: after set-up and a short
//! warm-up, every client thread runs queries back to back for `--seconds`
//! seconds, and on until at least [`MIN_SAMPLES`] queries verified (for
//! at most [`MAX_EXTENSION_NS`] more).  `--trace 1` measures the
//! per-layer metrics instead: a fixed, seeded sequence of traced queries
//! (spans kept, a timing fabric, census and registry deltas), then traced
//! and untraced queries alternating in half-second slices for `--seconds`
//! seconds for the tracing overhead, then per-call calibration of the
//! crypto layers.  Every query's result is checked against the plaintext
//! join; the last line of stdout is the JSON result.

mod calibrate;
mod fabric;
mod host;
mod workload;

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use secmed_core::cost::{divergence, observed, PredictedOps};
use secmed_core::Transport;
use secmed_crypto::metrics::{Op, Snapshot};
use secmed_obs::metrics::MetricsSnapshot;
use secmed_obs::profile::Profile;
use secmed_obs::Json;
use secmed_pool::Scope;
use secmed_wire::Frame;

use crate::host::{median, now_ns, quantile};
use crate::workload::{Lane, QueryRecord, Spec, Status};

const USAGE: &str = "usage: perfbench --workload <das-superset|pm-matching|commutative-sessions> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where runs leave their by-products: the per-seed byte ledger and the
/// traced pass's spans.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../target/perfbench");

/// Verified queries a timed loop must hold: the 95th percentile then has
/// at least ten samples above it.  A run with fewer is not correct.
const MIN_SAMPLES: usize = 200;

/// Verified queries per window for the median latency and the throughput.
const WINDOW_SAMPLES: usize = 50;

/// How much longer than `--seconds` the timed loop may run to reach
/// [`MIN_SAMPLES`].
const MAX_EXTENSION_NS: u64 = 60_000_000_000;

/// Traced and untraced queries alternate in slices this long when the
/// tracing overhead is measured, so a slow host phase hits both alike.
const OVERHEAD_SLICE_NS: u64 = 500_000_000;

/// The overhead phase runs at least this long, whatever `--seconds` is.
const MIN_OVERHEAD_NS: u64 = 2_000_000_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {}",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    run(&spec, &args);
}

/// How a lane runs one phase.
#[derive(Clone, Copy)]
enum Mode {
    Untraced,
    Traced,
    /// Traced in every other slice of this many nanoseconds.
    Alternate(u64),
}

/// When a phase stops: after `per_lane` queries on every lane, or once
/// `until_ns` has passed and `min_verified` queries verified, or in any
/// case at `deadline_ns`.
#[derive(Clone, Copy)]
struct Plan {
    per_lane: Option<usize>,
    until_ns: Option<u64>,
    min_verified: usize,
    deadline_ns: u64,
    mode: Mode,
}

impl Plan {
    fn count(per_lane: usize, mode: Mode) -> Plan {
        Plan {
            per_lane: Some(per_lane),
            until_ns: None,
            min_verified: 0,
            deadline_ns: u64::MAX,
            mode,
        }
    }

    fn until(until_ns: u64, min_verified: usize, deadline_ns: u64, mode: Mode) -> Plan {
        Plan {
            per_lane: None,
            until_ns: Some(until_ns),
            min_verified,
            deadline_ns,
            mode,
        }
    }
}

/// What one phase of the run did, with whole-phase deltas of the
/// process-global counters (never per-report deltas, which concurrent
/// sessions contaminate).
struct Phase {
    records: Vec<QueryRecord>,
    start_ns: u64,
    census_delta: Vec<(Op, u64)>,
    registry: MetricsSnapshot,
    cpu_ns: u64,
    sample: Option<Transport>,
}

impl Phase {
    fn census_of(&self, op: Op) -> u64 {
        self.census_delta
            .iter()
            .find(|(o, _)| *o == op)
            .map_or(0, |(_, n)| *n)
    }
}

/// Runs every lane on its own thread until `plan` says stop.
fn run_phase<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    spec: &'env Spec,
    lanes: &mut Vec<Lane>,
    addr: Option<SocketAddr>,
    plan: Plan,
) -> Phase {
    let census = Snapshot::capture();
    let registry = secmed_obs::metrics::snapshot();
    let cpu = host::process_cpu_ns();
    let verified = Arc::new(AtomicUsize::new(0));
    let start = now_ns();
    let handles: Vec<_> = lanes
        .drain(..)
        .map(|mut lane| {
            let verified = Arc::clone(&verified);
            scope.spawn(move || {
                let mut sample = None;
                let mut records = Vec::new();
                loop {
                    let now = now_ns();
                    let done = plan.per_lane.is_some_and(|n| records.len() >= n)
                        || plan.until_ns.is_some_and(|t| {
                            now >= t && verified.load(Ordering::Relaxed) >= plan.min_verified
                        })
                        || now >= plan.deadline_ns;
                    if done {
                        break;
                    }
                    let traced = match plan.mode {
                        Mode::Untraced => false,
                        Mode::Traced => true,
                        Mode::Alternate(slice) => (now - start) / slice % 2 == 1,
                    };
                    let record = workload::query(spec, &mut lane, addr, traced, &mut sample);
                    if record.status == Status::Verified {
                        verified.fetch_add(1, Ordering::Relaxed);
                    }
                    records.push(record);
                    if !traced {
                        // `TraceSink::Discard` cannot drop a concurrent
                        // session's spans cleanly; clear what is left.
                        secmed_obs::trace::reset();
                    }
                }
                (lane, records, sample)
            })
        })
        .collect();
    let mut records = Vec::new();
    let mut sample = None;
    for handle in handles {
        let (lane, lane_records, lane_sample) = handle.join().expect("client thread panicked");
        lanes.push(lane);
        records.extend(lane_records);
        sample = sample.or(lane_sample);
    }
    Phase {
        records,
        start_ns: start,
        census_delta: Snapshot::capture().since(&census),
        registry: secmed_obs::metrics::snapshot().since(&registry),
        cpu_ns: host::process_cpu_ns() - cpu,
        sample,
    }
}

/// Failures and correctness findings accumulated over the run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    busy: u64,
    errors: u64,
    not_clean: u64,
    mismatches: u64,
    problems: Vec<String>,
}

impl Checks {
    fn failed(&self) -> u64 {
        self.busy + self.errors + self.not_clean + self.mismatches
    }

    fn problem(&mut self, what: String) {
        eprintln!("perfbench: FAILED CHECK: {what}");
        self.problems.push(what);
    }

    /// Counts the phase's failures and checks its public-key census
    /// against the §6 prediction for the queries that ran to the end.
    fn phase(&mut self, name: &str, phase: &Phase) {
        for r in &phase.records {
            self.attempted += 1;
            match &r.status {
                Status::Verified => {}
                Status::Busy => self.busy += 1,
                Status::Error(e) => {
                    self.errors += 1;
                    eprintln!("perfbench: query {}/{} failed: {e}", r.lane, r.seq);
                }
                Status::NotClean(o) => {
                    self.not_clean += 1;
                    eprintln!("perfbench: query {}/{} not clean: {o}", r.lane, r.seq);
                }
                Status::Mismatch => {
                    self.mismatches += 1;
                    eprintln!(
                        "perfbench: query {}/{} differs from the plaintext join",
                        r.lane, r.seq
                    );
                }
            }
        }
        let predicted = phase
            .records
            .iter()
            .filter(|r| r.reported)
            .fold(PredictedOps::default(), |acc, r| {
                add_ops(&acc, &r.predicted)
            });
        let gap = divergence(&predicted, &observed(&phase.census_delta));
        if !gap.within_tolerance() {
            self.problem(format!(
                "{name}: public-key census differs from cost::predict in {:?} ({} ppm)",
                gap.mismatched, gap.max_ppm
            ));
        }
    }
}

fn add_ops(a: &PredictedOps, b: &PredictedOps) -> PredictedOps {
    PredictedOps {
        hybrid_encrypt: a.hybrid_encrypt + b.hybrid_encrypt,
        hybrid_decrypt: a.hybrid_decrypt + b.hybrid_decrypt,
        commutative_encrypt: a.commutative_encrypt + b.commutative_encrypt,
        hash_to_group: a.hash_to_group + b.hash_to_group,
        paillier_encrypt: a.paillier_encrypt + b.paillier_encrypt,
        paillier_decrypt: a.paillier_decrypt + b.paillier_decrypt,
        paillier_add: a.paillier_add + b.paillier_add,
        paillier_scale: a.paillier_scale + b.paillier_scale,
        random_mask: a.random_mask + b.random_mask,
    }
}

/// Compares the bytes and frames of every query that ran to its end with
/// the first run of this build, workload and seed in this checkout (the
/// ledger under [`OUT_DIR`]), and records queries no earlier run reached.
fn check_ledger(spec: &Spec, seed: u64, records: &[&QueryRecord], checks: &mut Checks) {
    let dir = Path::new(OUT_DIR).join("ledger");
    let path = dir.join(format!("{}-{seed}-{}.txt", spec.name, host::build_id()));
    let mut ledger: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
    for line in std::fs::read_to_string(&path).unwrap_or_default().lines() {
        let v: Vec<u64> = line.split(' ').filter_map(|f| f.parse().ok()).collect();
        if let [lane, seq, bytes, frames] = v[..] {
            ledger.insert((lane as usize, seq as usize), (bytes, frames));
        }
    }
    let mut differing = 0;
    for r in records.iter().filter(|r| r.reported) {
        let seen = *ledger.entry((r.lane, r.seq)).or_insert((r.bytes, r.frames));
        if seen != (r.bytes, r.frames) {
            differing += 1;
        }
    }
    if differing > 0 {
        checks.problem(format!(
            "{differing} queries moved other bytes or frames than the first run with seed {seed} \
             ({})",
            path.display()
        ));
    }
    let text: String = ledger
        .iter()
        .map(|((lane, seq), (bytes, frames))| format!("{lane} {seq} {bytes} {frames}\n"))
        .collect();
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// After drain: every ledger line `Completed`, no session left in the
/// table, and each session's relayed bytes and frames equal to its
/// client's transport totals.
fn reconcile_server(server: &secmed_server::Server, records: &[&QueryRecord], checks: &mut Checks) {
    let summaries = server.summaries();
    let lines: BTreeMap<u64, &secmed_server::SessionSummary> =
        summaries.iter().map(|s| (s.session, s)).collect();
    let incomplete = summaries.iter().filter(|s| !s.completed()).count();
    if incomplete > 0 {
        checks.problem(format!(
            "{incomplete} server ledger lines are not Completed"
        ));
    }
    if server.active_sessions() != 0 {
        checks.problem(format!(
            "{} sessions left in the server table after drain",
            server.active_sessions()
        ));
    }
    let unreconciled = records
        .iter()
        .filter(|r| r.reported)
        .filter(|r| {
            lines
                .get(&r.session)
                .is_none_or(|s| (s.bytes, s.frames) != (r.bytes, r.frames))
        })
        .count();
    if unreconciled > 0 {
        checks.problem(format!(
            "{unreconciled} sessions relayed other bytes or frames than their client recorded"
        ));
    }
}

/// Decodes and re-encodes a query's recorded frames through the public
/// codec; returns the median time per query in nanoseconds.
fn codec_ns(log: &Transport, checks: &mut Checks) -> f64 {
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let start = now_ns();
            let mut same = true;
            for envelope in log.log() {
                let reencoded = Frame::decode_with_session(&envelope.payload)
                    .map(|(session, frame)| frame.encode_with_session(session));
                same &= reencoded.as_deref() == Ok(&envelope.payload[..]);
            }
            let elapsed = (now_ns() - start) as f64;
            if !same {
                checks.problem("a recorded frame does not survive decode and re-encode".into());
            }
            elapsed
        })
        .collect();
    median(&times)
}

/// `(name, value, unit)` rows of one result.
type Metrics = Vec<(String, f64, &'static str)>;

fn push(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    metrics.push((name.to_string(), value, unit));
}

/// Latencies of the verified queries, sorted, in milliseconds.
fn latencies_ms<'a>(records: impl Iterator<Item = &'a QueryRecord>) -> Vec<f64> {
    let mut v: Vec<f64> = records
        .filter(|r| r.status == Status::Verified)
        .map(|r| r.latency_ns as f64 / 1e6)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// One window of the timed loop: its latencies, sorted, in milliseconds,
/// and its throughput.
struct Window {
    latencies_ms: Vec<f64>,
    queries_per_s: f64,
}

/// Cuts the verified queries, in the order they ended, into as many
/// consecutive windows as leave each at least `min_len` of them.  A
/// window's throughput is its queries over the time since the previous
/// window ended.  The timing metrics are medians over windows, so a slow
/// host phase of a few seconds moves a minority of the windows and not
/// the result; a run with fewer than `2 * min_len` queries has one window,
/// the plain statistics.
fn windows(phase: &Phase, min_len: usize) -> Vec<Window> {
    let mut verified: Vec<&QueryRecord> = phase
        .records
        .iter()
        .filter(|r| r.status == Status::Verified)
        .collect();
    verified.sort_by_key(|r| r.end_ns);
    let count = (verified.len() / min_len).max(1);
    let mut since_ns = phase.start_ns;
    (0..count)
        .map(|w| {
            let window = &verified[w * verified.len() / count..(w + 1) * verified.len() / count];
            let end_ns = window.last().map_or(since_ns, |r| r.end_ns);
            let span_s = (end_ns - since_ns).max(1) as f64 / 1e9;
            since_ns = end_ns;
            Window {
                latencies_ms: latencies_ms(window.iter().copied()),
                queries_per_s: window.len() as f64 / span_s,
            }
        })
        .collect()
}

/// The end-to-end metrics.  `query_p95_ms` goes to `notes`, which are
/// printed and recorded but are not metrics of the result: it spreads
/// wider from run to run than any bound the benchmark may set on a small
/// shared host.  Returns the number of latency windows.
fn end_to_end(
    phase: &Phase,
    checks: &mut Checks,
    setup_s: f64,
    peak_rss_mib: f64,
    metrics: &mut Metrics,
    notes: &mut Metrics,
) -> usize {
    let verified = phase
        .records
        .iter()
        .filter(|r| r.status == Status::Verified)
        .count();
    if verified < MIN_SAMPLES {
        checks.problem(format!(
            "only {verified} verified queries in the timed loop; query_p95_ms needs {MIN_SAMPLES}"
        ));
    }
    let bytes = phase
        .records
        .iter()
        .filter(|r| r.status == Status::Verified)
        .map(|r| r.bytes as f64)
        .sum::<f64>()
        / verified.max(1) as f64;
    let short = windows(phase, WINDOW_SAMPLES);
    let p50: Vec<f64> = short
        .iter()
        .map(|w| quantile(&w.latencies_ms, 0.5))
        .collect();
    let rate: Vec<f64> = short.iter().map(|w| w.queries_per_s).collect();
    let long = windows(phase, MIN_SAMPLES);
    let p95: Vec<f64> = long
        .iter()
        .map(|w| quantile(&w.latencies_ms, 0.95))
        .collect();
    let failed_frac = checks.failed() as f64 / checks.attempted.max(1) as f64;
    push(metrics, "query_p50_ms", median(&p50), "ms");
    push(metrics, "queries_per_s", median(&rate), "1/s");
    push(metrics, "verified_frac", 1.0 - failed_frac, "frac");
    push(metrics, "wire_bytes_per_query", bytes, "bytes");
    push(metrics, "setup_s", setup_s, "s");
    push(metrics, "peak_rss_mib", peak_rss_mib, "MiB");
    push(notes, "query_p95_ms", median(&p95), "ms");
    short.len()
}

/// Per-layer metrics from the traced pass, the overhead phase and the
/// calibration.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    spec: &Spec,
    pass: &Phase,
    overhead: &Phase,
    spans: &Profile,
    ledger: &[secmed_server::SessionSummary],
    costs: &calibrate::Costs,
    codec_ns: f64,
    checks: &mut Checks,
    metrics: &mut Metrics,
) {
    let q = pass.records.len().max(1) as f64;
    let mean = |f: &dyn Fn(&QueryRecord) -> u64| pass.records.iter().map(f).sum::<u64>() as f64 / q;

    push(metrics, "mpint.modpow_p512_us", costs.modpow_p512_us, "us");
    push(metrics, "mpint.modpow_n2_us", costs.modpow_n2_us, "us");

    // Census counts per query: whole-pass deltas over the fixed seeded
    // sequence, so concurrent sessions cannot count each other twice.
    // Attribution prices each count at its op's exclusive cost, so no
    // nested op is counted twice.
    let mut attributed_us = 0.0;
    for cost in &costs.leaf {
        let per_query = pass.census_of(cost.op) as f64 / q;
        attributed_us += per_query * cost.exclusive_us;
        let name = format!("crypto.{}", calibrate::stem(cost.op));
        push(metrics, &name, per_query, "count");
    }
    for cost in &costs.leaf {
        let name = format!("crypto.{}_us", calibrate::stem(cost.op));
        push(metrics, &name, cost.per_call_us, "us");
    }
    let cpu_ms = pass.cpu_ns as f64 / 1e6 / q;
    push(metrics, "crypto.attributed_ms", attributed_us / 1e3, "ms");
    push(
        metrics,
        "crypto.explained_frac",
        attributed_us / 1e3 / cpu_ms.max(f64::MIN_POSITIVE),
        "frac",
    );

    // Self time per query of each protocol phase span.
    let key = spec.protocol.key();
    let self_ms = |names: &[String]| -> f64 {
        spans
            .flatten()
            .iter()
            .filter(|(_, n)| names.contains(&n.name))
            .map(|(_, n)| n.self_ns)
            .sum::<u64>() as f64
            / 1e6
            / q
    };
    let phase = |p: &str| vec![format!("{key}.{p}")];
    push(
        metrics,
        "protocol.request_ms",
        self_ms(&phase("request")),
        "ms",
    );
    push(
        metrics,
        "protocol.encryption_ms",
        self_ms(&phase("encryption")),
        "ms",
    );
    push(
        metrics,
        "protocol.transfer_ms",
        self_ms(&phase("transfer")),
        "ms",
    );
    let matching = [format!("{key}.join"), format!("{key}.intersection")];
    push(metrics, "protocol.match_ms", self_ms(&matching), "ms");
    push(metrics, "protocol.post_ms", self_ms(&phase("post")), "ms");

    push(
        metrics,
        "engine.run_ms",
        spans.total_of("run") as f64 / 1e6 / q,
        "ms",
    );
    push(
        metrics,
        "engine.self_ms",
        self_ms(&["run".to_string()]),
        "ms",
    );
    push(metrics, "engine.cpu_ms", cpu_ms, "ms");
    push(
        metrics,
        "engine.outside_run_ms",
        self_ms(&["perfbench.query".to_string()]),
        "ms",
    );

    push(
        metrics,
        "pool.calls",
        pass.registry.counter("pool.calls") as f64 / q,
        "count",
    );
    push(
        metrics,
        "pool.items",
        pass.registry.counter("pool.items") as f64 / q,
        "count",
    );

    let carries: u64 = pass.records.iter().map(|r| r.fabric.carries).sum();
    let carry_ns: u64 = pass.records.iter().map(|r| r.fabric.carry_ns).sum();
    push(
        metrics,
        "transport.carry_us",
        carry_ns as f64 / 1e3 / carries.max(1) as f64,
        "us",
    );
    push(
        metrics,
        "transport.connect_ms",
        mean(&|r| r.connect_ns) / 1e6,
        "ms",
    );
    push(
        metrics,
        "transport.teardown_ms",
        mean(&|r| r.fabric.teardown_ns) / 1e6,
        "ms",
    );
    push(metrics, "transport.frames", mean(&|r| r.frames), "count");
    push(metrics, "transport.retries", mean(&|r| r.retries), "count");
    push(
        metrics,
        "transport.client_bytes",
        mean(&|r| r.client_bytes),
        "bytes",
    );
    push(metrics, "wire.codec_us", codec_ns / 1e3, "us");

    // The server's ledger lines for the pass's sessions.
    let sessions: Vec<u64> = pass.records.iter().map(|r| r.session).collect();
    let lines: Vec<_> = ledger
        .iter()
        .filter(|s| sessions.contains(&s.session))
        .collect();
    let completed = lines.iter().filter(|s| s.completed()).count();
    let per_line = |f: &dyn Fn(&secmed_server::SessionSummary) -> u64| {
        lines.iter().map(|s| f(s)).sum::<u64>() as f64 / lines.len().max(1) as f64
    };
    push(
        metrics,
        "server.sessions_completed",
        completed as f64,
        "count",
    );
    push(
        metrics,
        "server.sessions_failed",
        (lines.len() - completed) as f64,
        "count",
    );
    push(
        metrics,
        "server.bytes_per_session",
        per_line(&|s| s.bytes),
        "bytes",
    );
    push(
        metrics,
        "server.frames_per_session",
        per_line(&|s| s.frames),
        "count",
    );

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let total = |f: &dyn Fn(&QueryRecord) -> u64| pass.records.iter().map(f).sum::<u64>();
    push(metrics, "das.candidates", mean(&|r| r.candidates), "count");
    push(
        metrics,
        "das.useful_frac",
        ratio(
            total(&|r| r.result_rows * u64::from(r.candidates > 0)),
            total(&|r| r.candidates),
        ),
        "frac",
    );
    push(
        metrics,
        "pm.useful_frac",
        ratio(total(&|r| r.useful_payloads), total(&|r| r.evaluations)),
        "frac",
    );

    let traced = latencies_ms(overhead.records.iter().filter(|r| r.traced));
    let untraced = latencies_ms(overhead.records.iter().filter(|r| !r.traced));
    if traced.is_empty() || untraced.is_empty() {
        checks.problem(format!(
            "the overhead phase verified {} traced and {} untraced queries; it needs both",
            traced.len(),
            untraced.len()
        ));
    }
    let base = quantile(&untraced, 0.5);
    push(
        metrics,
        "obs.trace_overhead_frac",
        (quantile(&traced, 0.5) - base) / base.max(f64::MIN_POSITIVE),
        "frac",
    );
}

fn run(spec: &Spec, args: &Args) {
    let probe_start_ms = host::probe_ms();

    // Set-up is timed several times, half before the queries and half
    // after them, so that one host phase does not set `setup_s`.  The
    // first fixture serves the run, so the queries do not depend on how
    // many set-ups are timed.
    let time_setup = |repetition| {
        let start = now_ns();
        let fixture = workload::set_up(spec, args.seed, repetition);
        ((now_ns() - start) as f64 / 1e9, fixture)
    };
    let before = (spec.setup_repeats / 2).max(1);
    let (first_s, fixture) = time_setup(0);
    let mut setup_times = vec![first_s];
    setup_times.extend((1..before).map(|r| time_setup(r).0));
    let workload::Fixture { lanes, server } = fixture;

    let nanos = args.seconds * 1_000_000_000;
    let (warmup, measured) = secmed_pool::scope(|scope| {
        let handle = server.as_ref().map(|s| s.start(scope));
        let addr = handle.as_ref().map(|h| h.addr());
        let mut lanes = lanes;
        let warmup = Plan::count(spec.warmup, Mode::Untraced);
        let warmup = run_phase(scope, spec, &mut lanes, addr, warmup);
        let measured = if args.trace {
            let mark = secmed_obs::trace::checkpoint();
            let start = now_ns();
            let traced = Plan::count(spec.traced, Mode::Traced);
            let pass = run_phase(scope, spec, &mut lanes, addr, traced);
            let spans = secmed_obs::trace::take_since(mark);
            let until = (start + nanos).max(now_ns() + MIN_OVERHEAD_NS);
            let alternate = Plan::until(until, 0, u64::MAX, Mode::Alternate(OVERHEAD_SLICE_NS));
            let overhead = run_phase(scope, spec, &mut lanes, addr, alternate);
            secmed_obs::trace::reset();
            vec![(pass, Some(spans)), (overhead, None)]
        } else {
            let start = now_ns();
            let deadline = start + nanos + MAX_EXTENSION_NS;
            let timed = Plan::until(start + nanos, MIN_SAMPLES, deadline, Mode::Untraced);
            vec![(run_phase(scope, spec, &mut lanes, addr, timed), None)]
        };
        if let Some(handle) = handle {
            handle.shutdown();
        }
        (warmup, measured)
    });
    // Read before the checks and the trailing set-ups, which the queries
    // never see.
    let peak_rss_mib = host::peak_rss_mib();

    let mut checks = Checks::default();
    checks.phase("warm-up", &warmup);
    for (i, (phase, _)) in measured.iter().enumerate() {
        checks.phase(&format!("phase {}", i + 1), phase);
    }
    let all: Vec<&QueryRecord> = std::iter::once(&warmup)
        .chain(measured.iter().map(|(p, _)| p))
        .flat_map(|p| p.records.iter())
        .collect();
    check_ledger(spec, args.seed, &all, &mut checks);
    let ledger = server.as_ref().map(|s| s.summaries()).unwrap_or_default();
    if let Some(server) = &server {
        reconcile_server(server, &all, &mut checks);
    }

    let mut metrics = Metrics::new();
    let mut notes = Metrics::new();
    let mut windows = None;
    if args.trace {
        let (pass, spans) = &measured[0];
        let spans = spans.as_deref().unwrap_or_default();
        write_spans(spec, args.seed, spans);
        let codec = pass
            .sample
            .as_ref()
            .map_or(0.0, |log| codec_ns(log, &mut checks));
        let costs = calibrate::calibrate();
        per_layer(
            spec,
            pass,
            &measured[1].0,
            &secmed_obs::profile::aggregate(spans),
            &ledger,
            &costs,
            codec,
            &mut checks,
            &mut metrics,
        );
    } else {
        setup_times.extend((before..spec.setup_repeats).map(|r| time_setup(r).0));
        let setup_s = median(&setup_times);
        let phase = &measured[0].0;
        windows = Some(end_to_end(
            phase,
            &mut checks,
            setup_s,
            peak_rss_mib,
            &mut metrics,
            &mut notes,
        ));
    }
    let probe_end_ms = host::probe_ms();

    print_result(
        spec,
        args,
        &checks,
        [&metrics, &notes],
        [probe_start_ms, probe_end_ms],
        &measured[0].0,
        windows,
    );
}

/// Writes the traced pass's spans as JSON lines next to the ledger.
fn write_spans(spec: &Spec, seed: u64, spans: &[secmed_obs::trace::Record]) {
    let path = Path::new(OUT_DIR).join(format!("{}-{seed}.trace.jsonl", spec.name));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, secmed_obs::trace::export_jsonl(spans)));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

fn print_result(
    spec: &Spec,
    args: &Args,
    checks: &Checks,
    [metrics, notes]: [&Metrics; 2],
    probe_ms: [f64; 2],
    first: &Phase,
    windows: Option<usize>,
) {
    let failed_frac = checks.failed() as f64 / checks.attempted.max(1) as f64;
    println!(
        "perfbench {} seed={} seconds={} trace={} clients={} engine_threads={} nproc={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.lanes,
        spec.engine_threads,
        host::nproc()
    );
    for (name, value, unit) in metrics.iter().chain(notes) {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    println!("  {:<28} {failed_frac:>14.4} frac", "failed_frac");

    let notes = notes
        .iter()
        .map(|(name, value, _)| (name.clone(), Json::Float(*value)));
    let record = Json::obj(
        [
            ("workload", Json::from(spec.name)),
            ("seed", Json::UInt(args.seed)),
            ("seconds", Json::UInt(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("git_rev", Json::Str(host::git_rev())),
            ("nproc", Json::UInt(host::nproc() as u64)),
            ("engine_threads", Json::UInt(spec.engine_threads as u64)),
            ("clients", Json::UInt(spec.lanes as u64)),
            ("probe_start_ms", Json::Float(probe_ms[0])),
            ("probe_end_ms", Json::Float(probe_ms[1])),
            ("queries_measured", Json::UInt(first.records.len() as u64)),
            ("windows", Json::UInt(windows.unwrap_or(0) as u64)),
            ("busy", Json::UInt(checks.busy)),
            ("errors", Json::UInt(checks.errors)),
            ("not_clean", Json::UInt(checks.not_clean)),
            ("mismatches", Json::UInt(checks.mismatches)),
            ("failed_frac", Json::Float(failed_frac)),
            (
                "problems",
                Json::arr(checks.problems.iter().map(|p| Json::Str(p.clone()))),
            ),
        ]
        .map(|(key, value)| (key.to_string(), value))
        .into_iter()
        .chain(notes),
    );
    println!("perfbench-record {}", record.render());

    let result = Json::obj([
        (
            "correct",
            Json::Bool(checks.problems.is_empty() && checks.mismatches == 0),
        ),
        ("attempted", Json::UInt(checks.attempted)),
        ("failed", Json::UInt(checks.failed())),
        (
            "metrics",
            Json::Object(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            Json::obj([
                                ("value", Json::Float(*value)),
                                ("unit", Json::from(*unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
}
