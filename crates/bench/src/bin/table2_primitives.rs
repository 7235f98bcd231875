//! Regenerates **Table 2** of the paper — "Applied cryptographic
//! primitives" — from operation counters: runs each protocol and prints
//! the primitives that were *actually invoked*, with counts, and records
//! them as `target/bench/BENCH_table2.json`.

use std::path::Path;

use secmed_core::workload::WorkloadSpec;
use secmed_core::{
    CommutativeConfig, DasConfig, Engine, PmConfig, ProtocolKind, RunOptions, ScenarioBuilder,
};
use secmed_obs::bench::cli_threads;
use secmed_obs::metrics;
use secmed_obs::trajectory::TrajectoryFile;

fn main() {
    let threads = cli_threads();
    let mut traj = TrajectoryFile::new("table2", "table2_primitives", threads as u64);
    let w = WorkloadSpec {
        left_rows: 30,
        right_rows: 30,
        left_domain: 20,
        right_domain: 20,
        shared_values: 8,
        seed: "table2".to_string(),
        ..Default::default()
    }
    .generate();

    println!("Regenerated Table 2: applied cryptographic primitives (measured op counts)\n");

    let rows = [
        (
            "Database-as-a-Service",
            "hash function (index values) + hybrid encryption",
            ProtocolKind::Das(DasConfig::default()),
        ),
        (
            "Commutative Encryption",
            "hash function (random oracle) + commutative encryption",
            ProtocolKind::Commutative(CommutativeConfig::default()),
        ),
        (
            "Private Matching",
            "homomorphic encryption + random numbers",
            ProtocolKind::Pm(PmConfig::default()),
        ),
    ];

    for (name, paper, kind) in rows {
        let mut sc = ScenarioBuilder::new(&w)
            .seed("table2")
            .paillier_bits(768)
            .build();
        let before = metrics::snapshot();
        let report = Engine::run(&mut sc, &RunOptions::new(kind).threads(threads))
            .expect("protocol run succeeds");
        // A finished run adds its whole account to the registry once (the
        // census when its scope closes, every other count as the engine
        // assembles the report), and no other census, transport or result
        // count grew meanwhile.
        let grown = metrics::snapshot().since(&before);
        for (metric, n) in &report.metrics {
            assert_eq!(
                grown.counter(metric),
                *n,
                "{name}: the registry did not grow by the run's {metric}"
            );
        }
        for metric in grown.counters.keys() {
            if ["crypto.", "transport.", "run."]
                .iter()
                .any(|p| metric.starts_with(p))
            {
                assert!(
                    report.metrics.iter().any(|(m, _)| m == metric),
                    "{name}: the registry grew by {metric}, which the run's account lacks"
                );
            }
        }
        println!("== {name}");
        println!("   paper:    {paper}");
        print!("   measured:");
        for (op, count) in &report.primitives {
            print!(" {}×{count}", op.name());
            traj.push(
                &format!("{}/{}", kind.key(), op.name()),
                "count",
                vec![*count as f64],
            );
        }
        println!("\n");
    }

    traj.set_metrics(&metrics::snapshot());
    let bench_path = traj
        .write_under(Path::new("target/bench"))
        .expect("write BENCH_table2.json");
    println!("bench: {}", bench_path.display());
}
