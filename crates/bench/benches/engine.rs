//! Benchmarks of the parallel suite engine and the preparation cache:
//! the cache's hit paths against a fresh extraction, and the engine's
//! per-suite overhead at one and two workers on the cheap analytic
//! experiments (so the numbers measure the machinery, not the figures).

use criterion::{criterion_group, criterion_main, Criterion};
use ola_harness::engine::run_suite_collect;
use ola_harness::prep::{prepared, PrepCache, DEFAULT_SEED};
use ola_sim::QuantPolicy;

fn engine_benches(c: &mut Criterion) {
    // Warm the process-wide cache once so the hit-path benches measure
    // lookups, not the initial synthesis.
    let cache = PrepCache::global();
    let policy = QuantPolicy::olaccel16("alexnet");
    let _ = cache.workloads("alexnet", 8, DEFAULT_SEED, &policy);
    let prep = prepared("alexnet", 8);

    c.bench_function("prep_cache_hit", |b| b.iter(|| prepared("alexnet", 8)));
    c.bench_function("workload_cache_hit", |b| {
        b.iter(|| cache.workloads("alexnet", 8, DEFAULT_SEED, &policy))
    });
    c.bench_function("workload_extract_uncached", |b| {
        b.iter(|| prep.extract(&policy))
    });

    let mut g = c.benchmark_group("suite_overhead");
    g.sample_size(10);
    g.bench_function("table1_fig17_jobs1", |b| {
        b.iter(|| run_suite_collect(&["table1", "fig17"], true, 1))
    });
    g.bench_function("table1_fig17_jobs2", |b| {
        b.iter(|| run_suite_collect(&["table1", "fig17"], true, 2))
    });
    g.finish();
}

criterion_group!(benches, engine_benches);
criterion_main!(benches);
