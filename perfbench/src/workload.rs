//! The three workloads: their data, their set-up, and one query.

use std::cell::Cell;
use std::net::SocketAddr;

use mpint::rng::Rng;
use relalg::{Relation, Schema, Tuple, Type, Value};
use secmed_core::cost::{predict, shape_of, PredictedOps};
use secmed_core::workload::Workload;
use secmed_core::{
    CommutativeConfig, DasConfig, Engine, MedError, PartyId, PmConfig, ProtocolKind,
    ReconnectPolicy, RunOptions, Scenario, ScenarioBuilder, SocketFabric, TraceSink, Transport,
};
use secmed_crypto::drbg::HmacDrbg;
use secmed_server::Server;

use crate::fabric::{FabricTimes, TimedFabric};
use crate::host::now_ns;

/// One workload: data shape, protocol, and how load is applied.
pub struct Spec {
    pub name: &'static str,
    pub protocol: ProtocolKind,
    /// Rows per relation.
    pub rows: usize,
    /// Distinct join values per relation.
    pub domain: usize,
    /// Join values the two relations share.
    pub shared: usize,
    /// Payload attributes per relation.
    pub payload_attrs: usize,
    /// Scenarios built at set-up; the lanes take them in turn.
    pub scenarios: usize,
    /// Client threads, each a closed loop.
    pub lanes: usize,
    /// Engine pool width per query.
    pub engine_threads: usize,
    /// Queries run as `secmed-client` sessions against an in-process
    /// `secmed-server` instead of over the in-process `Transport`.
    pub over_socket: bool,
    /// Set-ups timed per run; `setup_s` is their median.  Each set-up
    /// draws fresh keys, and key generation time varies several-fold with
    /// the keys, so one-scenario workloads need many set-ups for a steady
    /// median.
    pub setup_repeats: usize,
    /// Untimed queries per lane before measuring.
    pub warmup: usize,
    /// Queries per lane in the traced pass.
    pub traced: usize,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["das-superset", "pm-matching", "commutative-sessions"];

/// The workload called `name`.
pub fn spec(name: &str) -> Option<Spec> {
    match name {
        // Hybrid (KEM) encryption at the sources and sequential client
        // decryption of a bucket superset; no Paillier work.
        "das-superset" => Some(Spec {
            name: "das-superset",
            protocol: ProtocolKind::Das(DasConfig::default()),
            rows: 32,
            domain: 16,
            shared: 8,
            payload_attrs: 2,
            scenarios: 1,
            lanes: 1,
            engine_threads: 2,
            over_socket: false,
            setup_repeats: 64,
            warmup: 3,
            traced: 24,
        }),
        // Paillier arithmetic modulo n^2; the 512-bit group only serves
        // the credential checks.
        "pm-matching" => Some(Spec {
            name: "pm-matching",
            protocol: ProtocolKind::Pm(PmConfig::default()),
            rows: 16,
            domain: 8,
            shared: 4,
            payload_attrs: 2,
            scenarios: 1,
            lanes: 1,
            engine_threads: 2,
            over_socket: false,
            setup_repeats: 64,
            warmup: 3,
            traced: 32,
        }),
        // Little crypto per query, so dialing, relay round trips and
        // teardown show; two live sessions share the process, and no two
        // consecutive queries share client keys or relations.
        "commutative-sessions" => Some(Spec {
            name: "commutative-sessions",
            protocol: ProtocolKind::Commutative(CommutativeConfig::default()),
            rows: 4,
            domain: 3,
            shared: 2,
            payload_attrs: 1,
            scenarios: 64,
            lanes: 2,
            engine_threads: 1,
            over_socket: true,
            setup_repeats: 4,
            warmup: 32,
            traced: 32,
        }),
        _ => None,
    }
}

impl Spec {
    /// Options for one query of this workload.
    pub fn options(&self, traced: bool) -> RunOptions {
        let sink = if traced {
            TraceSink::Keep
        } else {
            TraceSink::Discard
        };
        RunOptions::new(self.protocol)
            .threads(self.engine_threads)
            .trace(sink)
    }
}

/// One relation pair with its scenario and plaintext reference.
pub struct Source {
    pub scenario: Scenario,
    pub left: Relation,
    pub right: Relation,
    /// `left ⨝ right`, sorted.
    pub expected: Relation,
}

/// Builds relation `name` over `values`: every value appears
/// `rows / values.len()` times (the first `rows % values.len()` once
/// more), so the join's shape — result rows, DAS candidate pairs — is the
/// same for every seed.  The seed picks row order and payloads; payloads
/// have a fixed width so the bytes on the wire do not depend on it.
fn relation(name: &str, values: &[i64], spec: &Spec, rng: &mut HmacDrbg) -> Relation {
    let mut keys: Vec<i64> = (0..spec.rows).map(|i| values[i % values.len()]).collect();
    for i in (1..keys.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
    let payload_names: Vec<String> = (0..spec.payload_attrs)
        .map(|i| format!("{name}_p{i}"))
        .collect();
    let mut attrs = vec![("k", Type::Int)];
    attrs.extend(payload_names.iter().map(|n| (n.as_str(), Type::Str)));
    let mut rel = Relation::empty(Schema::new(&attrs));
    for k in keys {
        let mut row = vec![Value::Int(k)];
        row.extend((0..spec.payload_attrs).map(|_| Value::Str(format!("{:016x}", rng.next_u64()))));
        rel.insert(Tuple::new(row))
            .expect("generated row matches its schema");
    }
    rel
}

/// Builds scenario `index` of the run with workload seed `seed`.
pub fn build_source(spec: &Spec, seed: u64, index: usize) -> Source {
    let label = format!("perfbench/{}/{seed}/{index}", spec.name);
    let mut rng = HmacDrbg::from_label(&format!("{label}/data"));
    let left_values: Vec<i64> = (0..spec.domain as i64).collect();
    // Shared values first, then values only the right side holds.
    let right_values: Vec<i64> = (0..spec.shared as i64)
        .chain((0..(spec.domain - spec.shared) as i64).map(|i| 1_000_000 + i))
        .collect();
    let left = relation("r1", &left_values, spec, &mut rng);
    let right = relation("r2", &right_values, spec, &mut rng);
    let expected = left
        .natural_join(&right)
        .expect("generated relations share the join attribute")
        .sorted();
    let relations = Workload {
        left: left.clone(),
        right: right.clone(),
        expected_join_size: expected.len(),
    };
    let scenario = ScenarioBuilder::new(&relations).seed(&label).build();
    Source {
        scenario,
        left,
        right,
        expected,
    }
}

/// Everything set-up produces: the scenarios, dealt to the lanes, and the
/// server when the workload runs over sockets.
pub struct Fixture {
    pub lanes: Vec<Lane>,
    pub server: Option<Server>,
}

/// Builds the fixture once.  Repetition `r` uses scenario indices
/// `r * scenarios ..`, so every repetition generates fresh keys.
pub fn set_up(spec: &Spec, seed: u64, repetition: usize) -> Fixture {
    let base = repetition * spec.scenarios;
    let mut lanes: Vec<Lane> = (0..spec.lanes)
        .map(|index| Lane {
            index,
            sources: Vec::new(),
            next: 0,
        })
        .collect();
    for i in 0..spec.scenarios {
        lanes[i % spec.lanes]
            .sources
            .push(build_source(spec, seed, base + i));
    }
    let server = spec
        .over_socket
        .then(|| Server::bind().expect("bind a loopback port for the server"));
    Fixture { lanes, server }
}

/// One client thread's state: its scenarios and its position in its
/// fixed query sequence.  Query `j` of lane `l` always runs on the same
/// scenario and session id, whatever the run's mode or length.
pub struct Lane {
    pub index: usize,
    pub sources: Vec<Source>,
    pub next: usize,
}

/// How a query ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    Verified,
    Busy,
    Error(String),
    NotClean(String),
    Mismatch,
}

/// Everything recorded about one query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub lane: usize,
    pub seq: usize,
    pub session: u64,
    pub traced: bool,
    /// When the query returned.
    pub end_ns: u64,
    pub latency_ns: u64,
    pub status: Status,
    /// Whether the engine returned a report (the protocol ran to its end).
    pub reported: bool,
    pub bytes: u64,
    pub frames: u64,
    pub retries: u64,
    pub client_bytes: u64,
    pub result_rows: u64,
    pub candidates: u64,
    pub evaluations: u64,
    pub useful_payloads: u64,
    pub predicted: PredictedOps,
    pub connect_ns: u64,
    pub fabric: FabricTimes,
}

/// The report of one traced query, kept for the codec measurement.
pub type SampleLog = Transport;

/// Runs the lane's next query.  A traced query keeps its spans, runs
/// inside a bench-side `perfbench.query` span, and goes over a
/// [`TimedFabric`]; an untraced one is exactly what a user calls.
pub fn query(
    spec: &Spec,
    lane: &mut Lane,
    addr: Option<SocketAddr>,
    traced: bool,
    sample: &mut Option<SampleLog>,
) -> QueryRecord {
    let seq = lane.next;
    lane.next += 1;
    let session = (seq * spec.lanes + lane.index + 1) as u64;
    let count = lane.sources.len();
    let source = &mut lane.sources[seq % count];
    let opts = spec.options(traced);
    let times = Cell::new(FabricTimes::default());
    let mut connect_ns = 0;

    let start_ns = now_ns();
    let outcome = if traced {
        let mut span = secmed_obs::span("perfbench.query");
        span.field("query", seq);
        span.field("lane", lane.index);
        // `connect_ns` is the time to obtain the fabric: a dial over
        // sockets, a constructor in-process.
        match addr {
            None => {
                let open = now_ns();
                let fabric = Transport::new();
                connect_ns = now_ns() - open;
                Engine::run_on(
                    TimedFabric::new(fabric, &times),
                    &mut source.scenario,
                    &opts,
                )
            }
            Some(addr) => {
                let dial = now_ns();
                let fabric = SocketFabric::connect_with(
                    addr,
                    session,
                    opts.delivery,
                    ReconnectPolicy::none(),
                );
                connect_ns = now_ns() - dial;
                fabric.and_then(|f| {
                    Engine::run_on(TimedFabric::new(f, &times), &mut source.scenario, &opts)
                })
            }
        }
    } else {
        match addr {
            None => Engine::run(&mut source.scenario, &opts),
            Some(addr) => secmed_client::run_session(addr, session, &mut source.scenario, &opts),
        }
    };
    let end_ns = now_ns();

    let mut record = QueryRecord {
        lane: lane.index,
        seq,
        session,
        traced,
        end_ns,
        latency_ns: end_ns - start_ns,
        status: Status::Verified,
        reported: false,
        bytes: 0,
        frames: 0,
        retries: 0,
        client_bytes: 0,
        result_rows: 0,
        candidates: 0,
        evaluations: 0,
        useful_payloads: 0,
        predicted: PredictedOps::default(),
        connect_ns,
        fabric: times.get(),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(MedError::Busy(_)) => {
            record.status = Status::Busy;
            return record;
        }
        Err(e) => {
            record.status = Status::Error(e.to_string());
            return record;
        }
    };
    record.reported = true;
    record.bytes = report.transport.total_bytes() as u64;
    record.frames = report.transport.message_count() as u64;
    record.retries = report.transport.retries();
    record.client_bytes = report.transport.bytes_received_by(&PartyId::Client) as u64;
    record.result_rows = report.result.len() as u64;
    record.candidates = report.client_view.superset_pairs.unwrap_or(0) as u64;
    record.evaluations = report.client_view.ciphertexts_received.unwrap_or(0) as u64;
    record.useful_payloads = report.client_view.useful_payloads.unwrap_or(0) as u64;
    let server_result = report.mediator_view.server_result_size.unwrap_or(0);
    let shape = shape_of(&source.left, &source.right, "k", server_result)
        .expect("generated relations carry the join attribute");
    record.predicted = predict(&spec.protocol, &shape);
    record.status = if !report.outcome.is_clean() {
        Status::NotClean(report.outcome.to_string())
    } else if report.result.sorted() != source.expected {
        Status::Mismatch
    } else {
        Status::Verified
    };
    if traced && record.status == Status::Verified && sample.is_none() {
        *sample = Some(report.transport);
    }
    record
}
