//! Experiment S6b (DESIGN.md): the full cost comparison behind the
//! paper's §6 conclusion — wall-clock per protocol across workload sizes,
//! split by what each participant pays, plus communication volume.
//!
//! "Based on these performance considerations, the commutative approach
//! seems to be the most efficient one to be employed in a secure
//! mediation system."  This binary measures that claim.
//!
//! Each of the 12 configurations runs [`REPEATS`] times, every repeat on a
//! fresh scenario with the same seed and the same bytes on the wire.  The
//! first pass prints the table, records the byte series and takes the
//! metrics snapshot; the wall series hold every pass.  Everything lands in
//! `target/bench/BENCH_core.json`.
//!
//! Accepts `--threads N` to run the engine's fork-join pool with N
//! workers; the thread count is recorded in the emitted file, so archived
//! measurements are never ambiguous about how they were taken.

use std::path::Path;
use std::time::Instant;

use secmed_core::workload::WorkloadSpec;
use secmed_core::{
    CommutativeConfig, DasConfig, Engine, PartyId, PmConfig, ProtocolKind, RunOptions,
    ScenarioBuilder,
};
use secmed_obs::bench::cli_threads;
use secmed_obs::metrics;
use secmed_obs::trajectory::TrajectoryFile;

/// Timed runs per configuration.
const REPEATS: usize = 5;

/// One configuration's measurements across the passes.
struct Config {
    key: String,
    wall_ns: Vec<f64>,
    bytes: usize,
}

fn main() {
    let threads = cli_threads();
    let mut traj = TrajectoryFile::new("core", "report", threads as u64);
    println!(
        "End-to-end protocol comparison (S6b). 512-bit groups, 512-bit Paillier, {threads} thread(s).\n"
    );
    println!(
        "{:<8} {:<24} {:>12} {:>10} {:>12} {:>14} {:>12}",
        "rows", "protocol", "time (ms)", "messages", "total bytes", "client bytes", "result"
    );

    let workloads = [16usize, 32, 64, 128].map(|rows| {
        let w = WorkloadSpec {
            left_rows: rows,
            right_rows: rows,
            left_domain: (rows / 2).max(2),
            right_domain: (rows / 2).max(2),
            shared_values: (rows / 4).max(1),
            seed: "report".to_string(),
            ..Default::default()
        }
        .generate();
        (rows, w)
    });
    let kinds: [(&str, ProtocolKind); 3] = [
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

    let runs: Vec<_> = workloads
        .iter()
        .flat_map(|(rows, w)| {
            kinds
                .iter()
                .map(move |&(name, kind)| (*rows, w, name, kind))
        })
        .collect();
    let time_run = |w, kind: ProtocolKind| {
        let mut sc = ScenarioBuilder::new(w)
            .seed("report")
            .paillier_bits(512)
            .build();
        let start = Instant::now();
        let report = Engine::run(&mut sc, &RunOptions::new(kind).threads(threads))
            .expect("protocol run succeeds");
        let elapsed = start.elapsed();
        assert_eq!(report.result.len(), w.expected_join_size);
        (elapsed, report)
    };

    // The first pass: the table, the byte series and the metrics snapshot.
    let mut configs: Vec<Config> = Vec::new();
    for (i, &(rows, w, name, kind)) in runs.iter().enumerate() {
        let (elapsed, report) = time_run(w, kind);
        let bytes = report.transport.total_bytes();
        println!(
            "{:<8} {:<24} {:>12.1} {:>10} {:>12} {:>14} {:>12}",
            rows,
            name,
            elapsed.as_secs_f64() * 1000.0,
            report.transport.message_count(),
            bytes,
            report.transport.bytes_received_by(&PartyId::Client),
            report.result.len(),
        );
        if (i + 1) % kinds.len() == 0 {
            println!();
        }
        configs.push(Config {
            key: format!("{}/rows{rows}", kind.key()),
            wall_ns: vec![elapsed.as_nanos() as f64],
            bytes,
        });
    }
    let snapshot = metrics::snapshot();

    // The remaining passes add wall samples over the same bytes.
    for pass in 1..REPEATS {
        for (c, &(_, w, _, kind)) in configs.iter_mut().zip(&runs) {
            let (elapsed, report) = time_run(w, kind);
            let bytes = report.transport.total_bytes();
            assert_eq!(bytes, c.bytes, "{}: bytes differ in pass {pass}", c.key);
            c.wall_ns.push(elapsed.as_nanos() as f64);
        }
    }

    // Trajectory rows: wall-clock is machine-local, byte volume is
    // deterministic and comparable against any baseline.
    for c in configs {
        traj.push(&c.key, "ns", c.wall_ns);
        traj.push(&format!("{}/bytes", c.key), "bytes", vec![c.bytes as f64]);
    }
    // The performance trajectory, with the process's registry counts
    // after the first pass.
    traj.set_metrics(&snapshot);
    let bench_path = traj
        .write_under(Path::new("target/bench"))
        .expect("write BENCH_core.json");
    println!("bench: {}", bench_path.display());
}
