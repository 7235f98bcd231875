//! Run reports for all three protocols over a common synthetic workload.
//!
//! For each protocol (DAS client setting, commutative encryption with ID
//! references, private matching with Horner evaluation and session-key
//! tables) this binary:
//!
//! 1. runs the full mediation scenario under structured tracing,
//! 2. writes the raw span/event trace as JSONL to
//!    `target/obs/<protocol>.trace.jsonl`,
//! 3. folds the spans into a profile — where the run's phase wall-clock
//!    comes from — and writes its collapsed stacks to
//!    `target/obs/<protocol>.collapsed.txt`,
//! 4. writes the run's report (outcome, link frames, §6 interaction
//!    pattern, the account, the leakage audit) and the thread count as
//!    JSON to `target/obs/<protocol>.report.json`,
//! 5. prints the report as an aligned table, then the profile.

use std::fs;
use std::path::PathBuf;

use secmed_core::workload::WorkloadSpec;
use secmed_core::{
    CommutativeConfig, DasConfig, Engine, PmConfig, ProtocolKind, RunOptions, ScenarioBuilder,
};
use secmed_obs::bench::cli_threads;
use secmed_obs::json::Json;
use secmed_obs::profile;
use secmed_obs::trace;

fn main() {
    let threads = cli_threads();
    let spec = WorkloadSpec {
        left_rows: 24,
        right_rows: 24,
        left_domain: 12,
        right_domain: 12,
        shared_values: 6,
        payload_attrs: 2,
        seed: "trace-report".to_string(),
        ..Default::default()
    };
    let w = spec.generate();
    let out_dir = PathBuf::from("target/obs");
    fs::create_dir_all(&out_dir).expect("create target/obs");

    println!(
        "Workload: {} ⨝ {} rows, domains {}/{}, {} shared join values, {} payload attributes.\n",
        spec.left_rows,
        spec.right_rows,
        spec.left_domain,
        spec.right_domain,
        spec.shared_values,
        spec.payload_attrs
    );

    for kind in [
        ProtocolKind::Das(DasConfig::default()),
        ProtocolKind::Commutative(CommutativeConfig::default()),
        ProtocolKind::Pm(PmConfig::default()),
    ] {
        let mark = trace::checkpoint();
        let mut sc = ScenarioBuilder::new(&w)
            .seed("trace-report")
            .paillier_bits(512)
            .build();
        let report = Engine::run(&mut sc, &RunOptions::new(kind).threads(threads))
            .expect("protocol run succeeds");
        let records = trace::take_since(mark);
        assert_eq!(report.result.len(), w.expected_join_size);
        let prof = profile::aggregate(&records);

        let key = kind.key();
        let trace_path = out_dir.join(format!("{key}.trace.jsonl"));
        fs::write(&trace_path, trace::export_jsonl(&records)).expect("write trace JSONL");
        let collapsed_path = out_dir.join(format!("{key}.collapsed.txt"));
        fs::write(&collapsed_path, prof.collapsed()).expect("write collapsed stacks");
        let json_path = out_dir.join(format!("{key}.report.json"));
        let mut value = report.to_json();
        // Record how the run was executed alongside what it measured.
        if let Json::Object(fields) = &mut value {
            fields.push(("threads".to_string(), Json::UInt(threads as u64)));
        }
        let mut json = value.render_pretty();
        json.push('\n');
        fs::write(&json_path, json).expect("write report JSON");

        println!("=== run report: {key} ===");
        println!("{}", report.render_table());
        println!("{}", prof.render_table());
        println!("trace:   {}", trace_path.display());
        println!("report:  {}", json_path.display());
        println!("profile: {}", collapsed_path.display());
        println!();
    }
}
