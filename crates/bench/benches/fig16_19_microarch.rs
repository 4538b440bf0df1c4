//! Figs 16-19: the microarchitecture studies — effective outlier ratio
//! (16), multi-outlier probability (17), utilization breakdown (18), and
//! per-chunk cycle distribution (19).

use criterion::{criterion_group, criterion_main, Criterion};
use ola_bench::bench_prep;
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_quant::chunks::multi_outlier_probability;
use ola_sim::QuantPolicy;
use std::hint::black_box;

fn benches(c: &mut Criterion) {
    let prep = bench_prep("alexnet");
    let ws = prep.extract(&QuantPolicy::olaccel16("alexnet"));
    let sim = OlAccelSim::new(TechParams::default(), ComparisonMode::Bits16);

    c.bench_function("fig18_19_simulate_with_histograms", |b| {
        b.iter(|| black_box(sim.simulate(black_box(&ws)).total_cycles()))
    });
    c.bench_function("fig17_analytic_curves", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for lanes in [16usize, 32, 64] {
                for i in 1..=50 {
                    acc += multi_outlier_probability(lanes, i as f64 * 0.001);
                }
            }
            black_box(acc)
        })
    });

    println!("{}", ola_harness::fig16::run(true));
    println!("{}", ola_harness::fig17::run());
    println!("{}", ola_harness::fig18::run(true));
    println!("{}", ola_harness::fig19::run(true));
}

criterion_group! {
    name = figs;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(figs);
