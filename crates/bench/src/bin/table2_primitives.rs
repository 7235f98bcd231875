//! Regenerates **Table 2** of the paper — "Applied cryptographic
//! primitives" — from operation counters: runs each protocol and prints
//! the primitives that were *actually invoked*, with counts.

use std::fs;
use std::path::PathBuf;

use secmed_core::workload::WorkloadSpec;
use secmed_core::{
    CommutativeConfig, DasConfig, Engine, PmConfig, ProtocolKind, RunOptions, ScenarioBuilder,
};
use secmed_crypto::metrics::Snapshot;
use secmed_obs::bench::cli_threads;
use secmed_obs::json::Json;
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

    let mut jsonl = String::new();
    for (name, paper, kind) in rows {
        let mut sc = ScenarioBuilder::new(&w)
            .seed("table2")
            .paillier_bits(768)
            .build();
        let before = Snapshot::capture();
        let report = Engine::run(&mut sc, &RunOptions::new(kind).threads(threads))
            .expect("protocol run succeeds");
        // A closing run adds its census to the `crypto.<op>` registry
        // counters once, and nothing else counted meanwhile.
        assert_eq!(
            Snapshot::capture().since(&before),
            report.primitives,
            "{name}: the registry did not grow by the run's census"
        );
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
        jsonl.push_str(
            &Json::obj([
                ("experiment", Json::Str("table2-primitives".to_string())),
                ("protocol", Json::Str(kind.key().to_string())),
                ("threads", Json::UInt(threads as u64)),
                (
                    "primitives",
                    Json::obj(
                        report
                            .primitives
                            .iter()
                            .map(|(op, count)| (op.name(), Json::UInt(*count))),
                    ),
                ),
            ])
            .render(),
        );
        jsonl.push('\n');
    }

    let out_dir = PathBuf::from("target/bench");
    fs::create_dir_all(&out_dir).expect("create target/bench");
    let path = out_dir.join("table2_primitives.jsonl");
    fs::write(&path, jsonl).expect("write table2 JSONL");
    println!("jsonl: {}", path.display());

    traj.set_metrics(&metrics::snapshot());
    let bench_path = traj.write_under(&out_dir).expect("write BENCH_table2.json");
    println!("bench: {}", bench_path.display());
}
