//! Experiment X2 (DESIGN.md): the paper's footnote-2 optimization — per
//! tuple-set session keys with an ID table versus inlining tuple sets in
//! the homomorphic payload; plus the evaluation-strategy sweep at protocol
//! level.

use std::time::Duration;

use relalg::{Relation, Schema, Tuple, Type, Value};
use secmed_core::workload::Workload;
use secmed_core::{
    Engine, PmConfig, PmEval, PmPayloadMode, RunOptions, ScenarioBuilder, TraceSink,
};
use secmed_obs::bench::{black_box, cli_filter, Bench, Suite};

/// One small tuple per join value so the inline mode always fits.
fn slim_workload(values: usize, shared: usize) -> Workload {
    let schema = |n: &str| Schema::new(&[("k", Type::Int), (n, Type::Str)]);
    let mut left = Relation::empty(schema("lp"));
    let mut right = Relation::empty(schema("rp"));
    for i in 0..values as i64 {
        left.insert(Tuple::new(vec![Value::Int(i), Value::from("l")]))
            .unwrap();
    }
    let offset = (values - shared) as i64;
    for i in 0..values as i64 {
        right
            .insert(Tuple::new(vec![Value::Int(i + offset), Value::from("r")]))
            .unwrap();
    }
    Workload {
        left,
        right,
        expected_join_size: shared,
    }
}

fn slow(name: String) -> Bench {
    Bench::new(name)
        .samples(10)
        .warmup(Duration::from_millis(500))
}

fn bench_payload_modes(filter: &Option<String>) {
    let mut suite = Suite::new("pm_payload_modes").filter(filter.clone());
    for values in [16usize, 48] {
        let w = slim_workload(values, values / 4);
        for (name, payload) in [
            ("inline", PmPayloadMode::Inline),
            ("session-table", PmPayloadMode::SessionKeyTable),
        ] {
            suite.bench(slow(format!("{name}/{values}")), || {
                let mut sc = ScenarioBuilder::new(&w)
                    .seed("bench-pm-modes")
                    .paillier_bits(512)
                    .build();
                let opts = RunOptions::pm(PmConfig {
                    eval: PmEval::Horner,
                    payload,
                })
                .trace(TraceSink::Discard);
                black_box(Engine::run(&mut sc, &opts).unwrap());
            });
        }
    }
    suite.finish();
}

fn bench_eval_modes(filter: &Option<String>) {
    let mut suite = Suite::new("pm_eval_modes").filter(filter.clone());
    let w = slim_workload(48, 12);
    for (name, eval) in [
        ("naive", PmEval::Naive),
        ("horner", PmEval::Horner),
        ("bucketed-8", PmEval::Bucketed(8)),
    ] {
        suite.bench(slow(name.to_string()), || {
            let mut sc = ScenarioBuilder::new(&w)
                .seed("bench-pm-eval")
                .paillier_bits(512)
                .build();
            let opts = RunOptions::pm(PmConfig {
                eval,
                payload: PmPayloadMode::SessionKeyTable,
            })
            .trace(TraceSink::Discard);
            black_box(Engine::run(&mut sc, &opts).unwrap());
        });
    }
    suite.finish();
}

fn main() {
    let filter = cli_filter();
    bench_payload_modes(&filter);
    bench_eval_modes(&filter);
}
