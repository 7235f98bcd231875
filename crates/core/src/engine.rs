//! The execution engine: scenario construction and protocol execution.
//!
//! This module is the single entry point for running a mediation protocol:
//!
//! * [`ScenarioBuilder`] assembles a [`Scenario`] — certification
//!   authority, client with credentials, two allow-all datasources, and
//!   the query — from a generated [`Workload`],
//! * [`RunOptions`] selects the protocol (with its options), the thread
//!   count of the deterministic fork-join pool, and what happens to the
//!   structured trace,
//! * [`Engine::run`] executes the request phase (Listing 1) followed by
//!   the selected delivery phase and returns the full [`RunReport`].
//!
//! Determinism invariant: for a fixed scenario seed, the returned
//! [`RunReport`] is byte-for-byte identical at any thread count.  Parallel
//! stages draw their randomness from per-item DRBG streams
//! ([`secmed_crypto::drbg::DrbgFamily`]) and collect results in input
//! order, so neither ciphertexts nor message ordering depend on
//! scheduling.

use secmed_pool::Pool;

use crate::credential::{CertificationAuthority, Property};
use crate::party::{Client, DataSource, Mediator};
use crate::policy::AccessPolicy;
use crate::protocol::{
    commutative, das, pm, request_phase, CommutativeConfig, DasConfig, Delivered, PmConfig,
    ProtocolKind, RunOutcome, RunReport, Scenario,
};
use crate::transport::{DeliveryPolicy, Fabric, FaultPlan, PartyId, Transport};
use crate::workload::Workload;
use crate::MedError;

use secmed_crypto::drbg::HmacDrbg;
use secmed_crypto::group::{GroupSize, SafePrimeGroup};

/// Builds a complete mediation [`Scenario`] around a generated workload.
///
/// Defaults: seed `"scenario"`, a 512-bit safe-prime group, 512-bit
/// Paillier modulus, one `role = analyst` credential, and the paper's
/// canonical query `R1 ⨝ R2`.
///
/// ```no_run
/// # use secmed_core::engine::{Engine, RunOptions, ScenarioBuilder};
/// # use secmed_core::workload::WorkloadSpec;
/// # use secmed_core::protocol::CommutativeConfig;
/// let w = WorkloadSpec::default().generate();
/// let mut sc = ScenarioBuilder::new(&w).seed("demo").paillier_bits(768).build();
/// let report = Engine::run(&mut sc, &RunOptions::commutative(CommutativeConfig::default()))?;
/// # Ok::<(), secmed_core::MedError>(())
/// ```
pub struct ScenarioBuilder {
    left: relalg::Relation,
    right: relalg::Relation,
    seed: String,
    group_size: GroupSize,
    paillier_bits: u64,
    credentials: Vec<Property>,
    query: Option<String>,
}

impl ScenarioBuilder {
    /// Starts a builder over the workload's two relations.
    pub fn new(workload: &Workload) -> Self {
        ScenarioBuilder {
            left: workload.left.clone(),
            right: workload.right.clone(),
            seed: "scenario".to_string(),
            group_size: GroupSize::S512,
            paillier_bits: 512,
            credentials: Vec::new(),
            query: None,
        }
    }

    /// Sets the deterministic seed label for all party DRBGs.
    pub fn seed(mut self, seed: &str) -> Self {
        self.seed = seed.to_string();
        self
    }

    /// Sets the safe-prime group size for the CA, hybrid, and SRA layers.
    pub fn group_size(mut self, size: GroupSize) -> Self {
        self.group_size = size;
        self
    }

    /// Sets the Paillier modulus size in bits (private-matching protocol).
    pub fn paillier_bits(mut self, bits: u64) -> Self {
        self.paillier_bits = bits;
        self
    }

    /// Adds a property the client holds a credential for.  Without any,
    /// the builder issues the canonical `role = analyst` credential.
    pub fn credential(mut self, property: Property) -> Self {
        self.credentials.push(property);
        self
    }

    /// Overrides the SQL query (default: `select * from r1 natural join
    /// r2`, the paper's canonical `R1 ⨝ R2`).
    pub fn query(mut self, query: &str) -> Self {
        self.query = Some(query.to_string());
        self
    }

    /// Assembles the scenario: CA, client with credentials, two allow-all
    /// sources named `r1`/`r2`, and a mediator registered over both.
    pub fn build(self) -> Scenario {
        let group = SafePrimeGroup::preset(self.group_size);
        let mut rng = HmacDrbg::from_label(&format!("{}/ca", self.seed));
        let ca = CertificationAuthority::new(group.clone(), &mut rng);
        let properties = if self.credentials.is_empty() {
            vec![Property::new("role", "analyst")]
        } else {
            self.credentials
        };
        let client = Client::setup(
            &ca,
            properties,
            group,
            self.paillier_bits,
            &format!("{}/client", self.seed),
        );
        let left = DataSource::new(
            "r1",
            self.left,
            AccessPolicy::allow_all(),
            ca.public_key().clone(),
        );
        let right = DataSource::new(
            "r2",
            self.right,
            AccessPolicy::allow_all(),
            ca.public_key().clone(),
        );
        let mediator = Mediator::new(&[&left, &right]);
        Scenario {
            client,
            mediator,
            left,
            right,
            query: self
                .query
                .unwrap_or_else(|| "select * from r1 natural join r2".to_string()),
        }
    }
}

/// What happens to the structured trace a run emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceSink {
    /// Spans stay in the global trace buffer for the caller to export
    /// (via `secmed_obs::trace::take_since` / `export_jsonl`).
    #[default]
    Keep,
    /// The run records no spans or events, on its own thread or on its
    /// pool workers — for benchmark loops and tests that never read them.
    Discard,
}

/// Options for one protocol execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOptions {
    /// Which delivery-phase protocol to run, with its options.
    pub protocol: ProtocolKind,
    /// Worker threads of the deterministic fork-join pool (`0` runs
    /// sequentially, like `1`).
    pub threads: usize,
    /// Trace handling.
    pub trace: TraceSink,
    /// Bounded-retry policy for every delivery in the run.
    pub delivery: DeliveryPolicy,
    /// Optional deterministic fault plan installed on the fabric.  With a
    /// plan present, an exhausted delivery becomes a typed
    /// [`RunOutcome::Aborted`] report instead of an `Err` — chaos runs
    /// always return a report.
    pub faults: Option<FaultPlan>,
}

impl RunOptions {
    /// Sequential execution of the given protocol, trace kept, default
    /// retry policy, no fault plan.
    pub fn new(protocol: ProtocolKind) -> Self {
        RunOptions {
            protocol,
            threads: 1,
            trace: TraceSink::Keep,
            delivery: DeliveryPolicy::default(),
            faults: None,
        }
    }

    /// Convenience: the DAS protocol (Listing 2).
    pub fn das(cfg: DasConfig) -> Self {
        Self::new(ProtocolKind::Das(cfg))
    }

    /// Convenience: the commutative-encryption protocol (Listing 3).
    pub fn commutative(cfg: CommutativeConfig) -> Self {
        Self::new(ProtocolKind::Commutative(cfg))
    }

    /// Convenience: the private-matching protocol (Listing 4).
    pub fn pm(cfg: PmConfig) -> Self {
        Self::new(ProtocolKind::Pm(cfg))
    }

    /// Sets the worker-thread count (1 = sequential).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the trace sink.
    pub fn trace(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// Sets the bounded-retry policy.
    pub fn delivery(mut self, policy: DeliveryPolicy) -> Self {
        self.delivery = policy;
        self
    }

    /// Installs a deterministic fault plan on the fabric.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// The protocol executor.
pub struct Engine;

impl Engine {
    /// Runs the request phase and the selected delivery phase, returning
    /// the full report.
    ///
    /// The run is traced: a root `run` span (tagged with the protocol key)
    /// encloses a `<key>.request` span for Listing 1 and the per-phase
    /// spans the delivery functions open (`<key>.encryption`,
    /// `<key>.transfer`, `<key>.join`/`<key>.intersection`, `<key>.post`).
    pub fn run(scenario: &mut Scenario, opts: &RunOptions) -> Result<RunReport, MedError> {
        Self::run_on(Transport::new(), scenario, opts)
    }

    /// [`Engine::run`] over an explicit [`Fabric`]: the in-process
    /// recorder, a loopback [`SocketFabric`](crate::SocketFabric) session,
    /// or any other implementation.  The fabric is consumed — its recorder
    /// (with the complete log) comes back inside the report.
    ///
    /// The run counts into its own run scope (`secmed_obs::run`), which
    /// the pool hands to its workers, so the report's census is exactly
    /// this run's even while other runs share the process.  The report is
    /// the run's one account: its counts reach the process registry once,
    /// when it is assembled here, together with the run's count in
    /// `engine.runs.<key>`.  A run that returns `Err` publishes only its
    /// census.
    pub fn run_on<F: Fabric>(
        mut fabric: F,
        sc: &mut Scenario,
        opts: &RunOptions,
    ) -> Result<RunReport, MedError> {
        let run = secmed_obs::run::open(
            opts.trace == TraceSink::Keep,
            secmed_crypto::metrics::registry_counters(),
        );
        let kind = opts.protocol;
        let pool = Pool::with_threads(opts.threads);
        let mut root = secmed_obs::span("run");
        root.field("protocol", kind.key());
        fabric.set_policy(opts.delivery);
        if let Some(plan) = &opts.faults {
            fabric.install_faults(plan.clone());
        }
        let driven = Self::drive(sc, kind, &mut fabric, &pool);
        // A delay on the final message must still surface in the log.
        fabric.flush_delayed();
        // Tear the fabric down (a socket session says goodbye here) and
        // keep the recorder: the complete log of every attempted byte.
        let transport = fabric.into_recorder()?;
        let retries = transport.retries();
        let (result, useful_payloads, outcome) = match driven {
            Ok(d) if !d.degraded.is_empty() => (
                d.result,
                d.useful_payloads,
                RunOutcome::Degraded {
                    details: d.degraded,
                    retries,
                },
            ),
            Ok(d) if retries > 0 => (
                d.result,
                d.useful_payloads,
                RunOutcome::RecoveredWithRetries { retries },
            ),
            Ok(d) => (d.result, d.useful_payloads, RunOutcome::Clean),
            // Under an installed fault plan an exhausted delivery is a
            // typed outcome, not a crash: the report carries an empty
            // result, the abort reason, and the full transport log (so the
            // accounting still covers every attempted byte).
            Err(error) if opts.faults.is_some() => (
                relalg::Relation::empty(relalg::Schema::new(&[])),
                None,
                RunOutcome::Aborted { error, retries },
            ),
            Err(error) => return Err(error),
        };
        // The Table 1 views are recomputed from the recorded frames the
        // receivers accepted — the drivers report only what needs a secret
        // key (the client's useful-payload count).  Failed and duplicate
        // copies stay in the byte accounting below.
        let accepted = crate::audit::effective_frames(transport.log());
        let (mut mediator_view, mut client_view) = crate::audit::derive_views(&accepted);
        client_view.useful_payloads = useful_payloads;
        mediator_view.bytes_observed = transport.bytes_received_by(&PartyId::Mediator);
        client_view.bytes_received = transport.bytes_received_by(&PartyId::Client);
        // The run's account: the counts of its own transport log and its
        // result, published to the registry once here, then its census,
        // which the run scope publishes when it closes.  All are pure
        // functions of the scenario seed (never of wall clocks, schedules,
        // or the registry, which concurrent runs share), so the
        // determinism fingerprint covers them at every thread count.
        let mut metrics = transport.run_metrics();
        metrics.push(("run.result_rows".to_string(), result.len() as u64));
        publish(kind, &metrics);
        let primitives = secmed_crypto::metrics::census(run.census());
        for &(op, n) in &primitives {
            metrics.push((secmed_crypto::metrics::registry_name(op), n));
        }
        metrics.sort();
        root.field("messages", transport.message_count());
        root.field("bytes", transport.total_bytes());
        root.field("result_rows", result.len());
        root.field("outcome", outcome.key());
        root.field("retries", retries);
        Ok(RunReport {
            result,
            outcome,
            transport,
            mediator_view,
            client_view,
            primitives,
            metrics,
        })
    }

    /// Listing 1 followed by the selected delivery phase.
    fn drive<F: Fabric>(
        sc: &mut Scenario,
        kind: ProtocolKind,
        transport: &mut F,
        pool: &Pool,
    ) -> Result<Delivered, MedError> {
        let prepared = {
            let _s = secmed_obs::span(&format!("{}.request", kind.key()));
            request_phase(sc, transport)?
        };
        match kind {
            ProtocolKind::Das(cfg) => das::deliver(sc, prepared, cfg, transport, pool),
            ProtocolKind::Commutative(cfg) => {
                commutative::deliver(sc, prepared, cfg, transport, pool)
            }
            ProtocolKind::Pm(cfg) => pm::deliver(sc, prepared, cfg, transport, pool),
        }
    }
}

/// Adds a finished run's account to the process registry, once: the run
/// itself to `engine.runs.<key>`, then every count.  The account holds no
/// census; the run scope publishes that when it closes.
fn publish(kind: ProtocolKind, account: &[(String, u64)]) {
    use secmed_obs::metrics::incr;
    incr(&format!("engine.runs.{}", kind.key()), 1);
    for (name, n) in account {
        incr(name, *n);
    }
}
