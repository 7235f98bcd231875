//! The analytic cost model (paper §6 as closed forms) must match the
//! measured operation counters exactly — for each run on its own, and for
//! the same runs executed side by side at mixed pool widths.

use std::sync::Barrier;

use secmed_core::cost::{observed, predict, shape_of, PredictedOps};
use secmed_core::workload::small_workload;
use secmed_core::{
    CommutativeConfig, CommutativeMode, DasConfig, DasSetting, Engine, PmConfig, PmEval,
    PmPayloadMode, ProtocolKind, RunOptions, ScenarioBuilder,
};
use secmed_crypto::metrics::Op;

fn cases() -> [(ProtocolKind, &'static str); 6] {
    let pm = |eval| {
        ProtocolKind::Pm(PmConfig {
            eval,
            payload: PmPayloadMode::SessionKeyTable,
        })
    };
    [
        (
            ProtocolKind::Commutative(CommutativeConfig {
                mode: CommutativeMode::EchoTuples,
            }),
            "cost-echo",
        ),
        (
            ProtocolKind::Commutative(CommutativeConfig {
                mode: CommutativeMode::IdReferences,
            }),
            "cost-ids",
        ),
        (ProtocolKind::Das(DasConfig::default()), "cost-das"),
        (
            ProtocolKind::Das(DasConfig {
                setting: DasSetting::MediatorSetting,
                ..Default::default()
            }),
            "cost-das-med",
        ),
        (pm(PmEval::Horner), "cost-pm-h"),
        (pm(PmEval::Naive), "cost-pm-n"),
    ]
}

/// One run of `kind`, started once `start` opens: the §6 prediction for
/// its shape and its full census.
fn run(
    kind: ProtocolKind,
    seed: &str,
    threads: usize,
    start: &Barrier,
) -> (PredictedOps, Vec<(Op, u64)>) {
    let w = small_workload(seed);
    let mut sc = ScenarioBuilder::new(&w)
        .seed(seed)
        .paillier_bits(768)
        .build();
    start.wait();
    let report = Engine::run(&mut sc, &RunOptions::new(kind).threads(threads)).unwrap();
    let shape = shape_of(
        &w.left,
        &w.right,
        "k",
        report.mediator_view.server_result_size.unwrap_or(0),
    )
    .unwrap();
    (predict(&kind, &shape), report.primitives)
}

#[test]
fn cost_model_is_exact_for_every_protocol() {
    for (kind, seed) in cases() {
        let (predicted, census) = run(kind, seed, 1, &Barrier::new(1));
        assert_eq!(observed(&census), predicted, "{kind:?} on seed {seed}");
        // Table 2: DAS hashes its index values.  Every other presence and
        // absence of a Table 2 primitive is pinned by the prediction.
        if let ProtocolKind::Das(_) = kind {
            assert!(
                census.iter().any(|&(op, n)| op == Op::HashMessage && n > 0),
                "{kind:?}: no index-value hashes in {census:?}"
            );
        }
    }
}

/// The six configurations at once, one thread each, pool widths cycling
/// through 1/2/8: every run must count exactly what it counts alone.
#[test]
fn concurrent_runs_count_only_their_own_primitives() {
    let cases = cases();
    let alone: Vec<_> = cases
        .iter()
        .map(|&(kind, seed)| run(kind, seed, 1, &Barrier::new(1)).1)
        .collect();
    let start = Barrier::new(cases.len());
    let together: Vec<_> = secmed_pool::scope(|s| {
        let handles: Vec<_> = cases
            .iter()
            .enumerate()
            .map(|(i, &(kind, seed))| {
                let start = &start;
                s.spawn(move || run(kind, seed, [1, 2, 8][i % 3], start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("run thread"))
            .collect()
    });
    for (i, (kind, seed)) in cases.iter().enumerate() {
        let (predicted, census) = &together[i];
        assert_eq!(observed(census), *predicted, "{kind:?} on seed {seed}");
        assert_eq!(
            census, &alone[i],
            "{kind:?} on seed {seed}: not its lone census"
        );
    }
}
