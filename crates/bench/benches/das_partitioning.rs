//! Experiment S6c (DESIGN.md): the DAS partitioning trade-off — fewer,
//! larger partitions mean lower inference exposure but a bigger superset
//! for the client to post-process (paper §6, citing Hore et al. and
//! Ceselli et al.).  Also the equi-width vs equi-depth ablation.
//!
//! The timing here captures the mediator's server-join cost as the
//! partition count varies; the companion report binary
//! `figure_das_tradeoff` prints the exposure/superset curves.

use std::time::Duration;

use secmed_core::workload::WorkloadSpec;
use secmed_core::{DasConfig, Engine, RunOptions, ScenarioBuilder, TraceSink};
use secmed_das::PartitionScheme;
use secmed_obs::bench::{black_box, cli_filter, Bench, Suite};

fn slow(name: String) -> Bench {
    Bench::new(name)
        .samples(10)
        .warmup(Duration::from_millis(500))
}

fn bench_partition_sweep(filter: &Option<String>) {
    let w = WorkloadSpec {
        left_rows: 48,
        right_rows: 48,
        left_domain: 32,
        right_domain: 32,
        shared_values: 12,
        seed: "bench-das".to_string(),
        ..Default::default()
    }
    .generate();

    let mut suite = Suite::new("das_partitions").filter(filter.clone());
    let run_scheme = |suite: &mut Suite, name: String, scheme: PartitionScheme| {
        suite.bench(slow(name), || {
            let mut sc = ScenarioBuilder::new(&w)
                .seed("bench-das")
                .paillier_bits(512)
                .build();
            let opts = RunOptions::das(DasConfig {
                scheme,
                ..Default::default()
            })
            .trace(TraceSink::Discard);
            black_box(Engine::run(&mut sc, &opts).unwrap());
        });
    };
    for k in [1usize, 4, 16] {
        run_scheme(
            &mut suite,
            format!("equidepth/{k}"),
            PartitionScheme::EquiDepth(k),
        );
        run_scheme(
            &mut suite,
            format!("equiwidth/{k}"),
            PartitionScheme::EquiWidth(k),
        );
    }
    run_scheme(
        &mut suite,
        "pervalue".to_string(),
        PartitionScheme::PerValue,
    );
    suite.finish();
}

fn main() {
    let filter = cli_filter();
    bench_partition_sweep(&filter);
}
