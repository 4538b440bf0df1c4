//! Fig 14: OLAccel16 energy/cycles vs outlier ratio. The timed body is the
//! workload re-extraction + simulation at one sweep point.

use criterion::{criterion_group, criterion_main, Criterion};
use ola_bench::bench_prep;
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_sim::QuantPolicy;
use std::hint::black_box;

fn benches(c: &mut Criterion) {
    let prep = bench_prep("alexnet");
    let sim = OlAccelSim::new(TechParams::default(), ComparisonMode::Bits16);
    for ratio in [0.0, 0.035] {
        c.bench_function(&format!("fig14_ratio_{:.1}pct", ratio * 100.0), |b| {
            b.iter(|| {
                let mut policy = QuantPolicy::olaccel16("alexnet");
                policy.outlier_ratio = ratio;
                let ws = prep.extract(&policy);
                black_box(sim.simulate(&ws).total_cycles())
            })
        });
    }
    println!("{}", ola_harness::fig14::run(true));
}

criterion_group! {
    name = figs;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(figs);
