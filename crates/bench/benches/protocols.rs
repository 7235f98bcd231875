//! Experiment S6b (DESIGN.md): end-to-end protocol cost across workload
//! sizes — the measured backing for the paper's §6 conclusion that "the
//! commutative approach seems to be the most efficient one to be employed
//! in a secure mediation system".

use std::time::Duration;

use secmed_core::workload::WorkloadSpec;
use secmed_core::{
    CommutativeConfig, DasConfig, Engine, PmConfig, ProtocolKind, RunOptions, ScenarioBuilder,
    TraceSink,
};
use secmed_obs::bench::{black_box, cli_filter, Bench, Suite};

fn workload(rows: usize, seed: &str) -> secmed_core::workload::Workload {
    WorkloadSpec {
        left_rows: rows,
        right_rows: rows,
        left_domain: (rows / 2).max(2),
        right_domain: (rows / 2).max(2),
        shared_values: (rows / 4).max(1),
        payload_attrs: 2,
        seed: seed.to_string(),
        ..Default::default()
    }
    .generate()
}

fn bench_protocols(filter: &Option<String>) {
    let mut suite = Suite::new("end_to_end").filter(filter.clone());
    for rows in [16usize, 64] {
        let w = workload(rows, "bench-e2e");
        for (name, kind) in [
            ("das", ProtocolKind::Das(DasConfig::default())),
            (
                "commutative",
                ProtocolKind::Commutative(CommutativeConfig::default()),
            ),
            ("pm", ProtocolKind::Pm(PmConfig::default())),
        ] {
            suite.bench(
                Bench::new(format!("{name}/{rows}"))
                    .samples(10)
                    .warmup(Duration::from_millis(500)),
                || {
                    let mut sc = ScenarioBuilder::new(&w)
                        .seed("bench-e2e")
                        .paillier_bits(512)
                        .build();
                    let opts = RunOptions::new(kind).trace(TraceSink::Discard);
                    black_box(Engine::run(&mut sc, &opts).unwrap());
                },
            );
        }
    }
    suite.finish();
}

fn main() {
    let filter = cli_filter();
    bench_protocols(&filter);
}
