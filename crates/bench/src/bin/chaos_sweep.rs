//! Chaos sweep: retry overhead under deterministic fault plans.
//!
//! Runs every protocol over the chaos suite's seeded fault plans and
//! reports what fault recovery *costs* on the wire: retransmissions, the
//! overhead messages and bytes they add on top of a fault-free run, and
//! how the outcomes distribute across clean / recovered / degraded /
//! aborted.  Everything is seeded, so the table reproduces exactly.

use secmed_core::{
    CommutativeConfig, DasConfig, Engine, PmConfig, ProtocolKind, RunOptions, RunOutcome,
    ScenarioBuilder, TraceSink,
};
use secmed_obs::metrics;
use secmed_obs::trajectory::TrajectoryFile;
// The chaos suite's own workload, seeds and plan generator, so the sweep
// measures exactly the plans the tests certify.
use secmed_testkit::chaos::{plan_for, workload, SEEDS};

#[derive(Default)]
struct Tally {
    outcomes: [u64; 4],
    retries: u64,
    overhead_msgs: u64,
    overhead_bytes: u64,
    total_msgs: u64,
    total_bytes: u64,
}

fn main() {
    let w = workload();
    // Everything in this sweep is seeded, so the whole trajectory is
    // deterministic — retries and overhead bytes compare exactly across
    // machines.  The engine runs its default single-worker pool here.
    let mut traj = TrajectoryFile::new("chaos", "chaos_sweep", 1);
    let kinds = [
        (
            "Database-as-a-Service",
            ProtocolKind::Das(DasConfig::default()),
        ),
        (
            "Commutative Encryption",
            ProtocolKind::Commutative(CommutativeConfig::default()),
        ),
        ("Private Matching", ProtocolKind::Pm(PmConfig::default())),
    ];

    println!("Chaos sweep: retry overhead per protocol ({SEEDS} seeded fault plans each)");
    println!(
        "(workload: |R1|={}, |R2|={}; plans drawn from testkit label \"chaos-plan\")\n",
        w.left.len(),
        w.right.len()
    );
    println!(
        "{:<24} {:>7} {:>7} {:>7} {:>7} {:>9} {:>12} {:>14} {:>9}",
        "protocol",
        "clean",
        "recov",
        "degr",
        "abort",
        "retries",
        "extra msgs",
        "extra bytes",
        "overhead"
    );

    // Every run's frames and bytes, delayed copies included, for the
    // registry check after the sweep.
    let before = metrics::snapshot();
    let (mut all_frames, mut all_bytes) = (0u64, 0u64);
    for (name, kind) in kinds {
        // The fault-free baseline the overhead is measured against.
        let mut sc = ScenarioBuilder::new(&w).seed("chaos").build();
        let clean = Engine::run(&mut sc, &RunOptions::new(kind).trace(TraceSink::Discard))
            .expect("fault-free run succeeds");
        let clean_bytes = clean.transport.total_bytes() as u64;
        all_frames += clean.transport.message_count() as u64;
        all_bytes += clean_bytes;

        let mut t = Tally::default();
        for seed in 0..SEEDS {
            let mut sc = ScenarioBuilder::new(&w).seed("chaos").build();
            let (plan, policy) = plan_for(seed);
            let opts = RunOptions::new(kind)
                .trace(TraceSink::Discard)
                .delivery(policy)
                .faults(plan);
            let report = Engine::run(&mut sc, &opts).expect("chaos runs return typed reports");
            let slot = match report.outcome {
                RunOutcome::Clean => 0,
                RunOutcome::RecoveredWithRetries { .. } => 1,
                RunOutcome::Degraded { .. } => 2,
                RunOutcome::Aborted { .. } => 3,
            };
            t.outcomes[slot] += 1;
            t.retries += report.transport.retries();
            let (msgs, bytes) = report.transport.overhead();
            t.overhead_msgs += msgs as u64;
            t.overhead_bytes += bytes as u64;
            t.total_msgs += report.transport.message_count() as u64;
            t.total_bytes += report.transport.total_bytes() as u64;
        }
        all_frames += t.total_msgs;
        all_bytes += t.total_bytes;

        let key = kind.key();
        traj.push(&format!("{key}/retries"), "count", vec![t.retries as f64]);
        traj.push(
            &format!("{key}/overhead_bytes"),
            "bytes",
            vec![t.overhead_bytes as f64],
        );
        traj.push(
            &format!("{key}/total_bytes"),
            "bytes",
            vec![t.total_bytes as f64],
        );
        traj.push(
            &format!("{key}/aborted"),
            "count",
            vec![t.outcomes[3] as f64],
        );

        // Overhead relative to what fault-free transfers would have cost.
        let pct = 100.0 * t.overhead_bytes as f64 / (clean_bytes * SEEDS) as f64;
        println!(
            "{:<24} {:>7} {:>7} {:>7} {:>7} {:>9} {:>12} {:>14} {:>8.2}%",
            name,
            t.outcomes[0],
            t.outcomes[1],
            t.outcomes[2],
            t.outcomes[3],
            t.retries,
            t.overhead_msgs,
            t.overhead_bytes,
            pct
        );
    }

    println!(
        "\nextra msgs/bytes = log entries the receiver did not accept (failed attempts,\n\
         duplicate copies); overhead% is extra bytes relative to {SEEDS} fault-free runs."
    );

    // Each finished run publishes its account once, so the registry's
    // fabric totals are exactly the sum of the runs' logs.
    let snapshot = metrics::snapshot();
    let grown = snapshot.since(&before);
    assert_eq!(
        grown.counter("transport.frames"),
        all_frames,
        "the registry's frames drifted from the runs' logs"
    );
    assert_eq!(
        grown.counter("transport.bytes"),
        all_bytes,
        "the registry's bytes drifted from the runs' logs"
    );
    traj.set_metrics(&snapshot);
    let path = traj
        .write_under(std::path::Path::new("target/bench"))
        .expect("write BENCH_chaos.json");
    println!("bench: {}", path.display());
}
