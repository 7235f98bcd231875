//! Planner bench: deterministic planning series plus planning wall time.
//!
//! Plans seeded chain federations of growing width (3, 4, and 5 tables)
//! under an open leakage budget and emits
//! `target/bench/BENCH_plan.json`:
//!
//! * `plan/nodes`, `plan/cost`, `plan/est_rows` — one sample per
//!   federation width, all pure functions of the seeded inputs, so the
//!   series is byte-exact across machines and comparable against any
//!   baseline,
//! * `plan/wall` (ns) — machine-local timing of repeated planning rounds
//!   over all three widths.
//!
//! ```text
//! plan_bench [ROUNDS]
//! ```

use std::path::PathBuf;
use std::time::Instant;

use secmed_core::plan::LeakageBudget;
use secmed_obs::trajectory::TrajectoryFile;
use secmed_plan::{stats_of, Planner};
use secmed_testkit::federation::{self, FederationSpec};
use secmed_testkit::Gen;

fn main() {
    let rounds: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("ROUNDS must be a number"))
        .unwrap_or(50);
    assert!(rounds >= 1, "need at least one round");

    let widths: [usize; 3] = [3, 4, 5];
    let planner = Planner::new();
    let inputs: Vec<_> = widths
        .iter()
        .map(|&tables| {
            let fed = federation::chain(
                &mut Gen::for_case("plan-bench", tables as u64),
                &FederationSpec {
                    tables,
                    rows: 32,
                    key_domain: 10,
                    payload_domain: 200,
                },
            );
            let schemas = fed.schemas();
            let stats = stats_of(&fed.catalog);
            (fed.query(), schemas, stats)
        })
        .collect();

    let mut nodes: Vec<f64> = Vec::new();
    let mut cost: Vec<f64> = Vec::new();
    let mut est_rows: Vec<f64> = Vec::new();
    for (query, schemas, stats) in &inputs {
        let plan = planner
            .plan(query, schemas, stats, LeakageBudget::open())
            .expect("chain federations always plan");
        nodes.push(plan.nodes.len() as f64);
        cost.push(
            plan.nodes
                .iter()
                .map(|n| n.predicted.weighted_cost())
                .sum::<u64>() as f64,
        );
        est_rows.push(plan.nodes.last().expect("non-empty plan").estimated_rows as f64);
    }

    let start = Instant::now();
    for _ in 0..rounds {
        for (query, schemas, stats) in &inputs {
            planner
                .plan(query, schemas, stats, LeakageBudget::open())
                .expect("chain federations always plan");
        }
    }
    let wall = start.elapsed();
    let plans = rounds * widths.len() as u64;
    let rate = plans as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "plan_bench: {plans} plans over widths {widths:?} in {:?} ({rate:.0} plans/sec)",
        wall
    );

    let mut traj = TrajectoryFile::new("plan", "plan_bench", 1);
    traj.push("plan/nodes", "count", nodes);
    traj.push("plan/cost", "ops", cost);
    traj.push("plan/est_rows", "rows", est_rows);
    traj.push("plan/wall", "ns", vec![wall.as_nanos() as f64]);
    let path = traj
        .write_under(&PathBuf::from("target/bench"))
        .expect("write BENCH_plan.json");
    println!("bench: {}", path.display());
}
