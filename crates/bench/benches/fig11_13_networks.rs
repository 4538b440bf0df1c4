//! Figs 11/12/13: the six-way accelerator comparison per network.
//! Regenerates the cycles + energy-breakdown data; the timed body is the
//! six simulations over a prepared workload.

use criterion::{criterion_group, criterion_main, Criterion};
use ola_bench::bench_prep;
use ola_energy::TechParams;
use ola_harness::fig11_13;
use ola_harness::prep::SixWay;
use std::hint::black_box;

fn bench_network(c: &mut Criterion, network: &str, fig: &str) {
    let (ws16, ws8) = bench_prep(network).paper_workloads();
    let tech = TechParams::default();
    c.bench_function(&format!("{fig}_{network}_sixway"), |b| {
        b.iter(|| {
            let six = SixWay::run(black_box(&ws16), black_box(&ws8), &tech);
            black_box(six.olaccel16.total_cycles())
        })
    });
    // Emit the figure's data once so bench runs double as regeneration.
    let six = SixWay::run(&ws16, &ws8, &tech);
    println!("{}", fig11_13::render(network, &six));
}

fn benches(c: &mut Criterion) {
    bench_network(c, "alexnet", "fig11");
    bench_network(c, "vgg16", "fig12");
    bench_network(c, "resnet18", "fig13");
}

criterion_group! {
    name = figs;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(figs);
