//! Experiment X1 (DESIGN.md): the paper's footnote-1 optimization — the
//! mediator keeps the encrypted tuple sets and circulates fixed-length IDs
//! instead of echoing ciphertexts through the opposite datasource.

use std::time::Duration;

use secmed_core::workload::WorkloadSpec;
use secmed_core::{
    CommutativeConfig, CommutativeMode, Engine, RunOptions, ScenarioBuilder, TraceSink,
};
use secmed_obs::bench::{black_box, cli_filter, Bench, Suite};

fn bench_modes(filter: &Option<String>) {
    let mut suite = Suite::new("commutative_modes").filter(filter.clone());
    for rows in [32usize, 96] {
        let w = WorkloadSpec {
            left_rows: rows,
            right_rows: rows,
            left_domain: rows / 2,
            right_domain: rows / 2,
            shared_values: rows / 4,
            payload_attrs: 4,
            seed: "bench-comm-modes".to_string(),
            ..Default::default()
        }
        .generate();
        for (name, mode) in [
            ("echo-tuples", CommutativeMode::EchoTuples),
            ("id-references", CommutativeMode::IdReferences),
        ] {
            suite.bench(
                Bench::new(format!("{name}/{rows}"))
                    .samples(10)
                    .warmup(Duration::from_millis(500)),
                || {
                    let mut sc = ScenarioBuilder::new(&w)
                        .seed("bench-comm-modes")
                        .paillier_bits(512)
                        .build();
                    let opts = RunOptions::commutative(CommutativeConfig { mode })
                        .trace(TraceSink::Discard);
                    black_box(Engine::run(&mut sc, &opts).unwrap());
                },
            );
        }
    }
    suite.finish();
}

fn main() {
    let filter = cli_filter();
    bench_modes(&filter);
}
