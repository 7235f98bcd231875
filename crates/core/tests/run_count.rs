//! `engine.runs.<key>` counts the runs whose account reached the process
//! registry.  A run that returns `Err` publishes none of its account, so
//! it is not counted either.  The registry is process-global, so this
//! binary holds the one test that reads it.

use secmed_core::workload::WorkloadSpec;
use secmed_core::{CommutativeConfig, Engine, RunOptions, ScenarioBuilder, TraceSink};
use secmed_crypto::group::GroupSize;
use secmed_obs::metrics::snapshot;

#[test]
fn only_runs_that_publish_their_account_are_counted() {
    let w = WorkloadSpec {
        left_rows: 6,
        right_rows: 6,
        seed: "run-count".to_string(),
        ..Default::default()
    }
    .generate();
    let scenario = |query: &str| {
        ScenarioBuilder::new(&w)
            .seed("run-count")
            .group_size(GroupSize::S256)
            .query(query)
            .build()
    };
    let opts = RunOptions::commutative(CommutativeConfig::default()).trace(TraceSink::Discard);
    let counts = || {
        let s = snapshot();
        (
            s.counter("engine.runs.commutative"),
            s.counter("transport.frames"),
        )
    };

    let before = counts();
    let mut unknown_table = scenario("select * from r1 natural join r3");
    assert!(Engine::run(&mut unknown_table, &opts).is_err());
    assert_eq!(counts(), before, "a run that returns Err is not counted");

    let mut clean = scenario("select * from r1 natural join r2");
    let report = Engine::run(&mut clean, &opts).unwrap();
    let (runs, frames) = counts();
    assert_eq!(runs, before.0 + 1, "a clean run adds one");
    assert_eq!(frames, before.1 + report.transport.message_count() as u64);
}
