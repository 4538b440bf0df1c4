//! Workload-extraction throughput: the retained multi-pass oracle vs the
//! fused single-pass scan, at 1/2/4 worker threads.
//!
//! With the forward pass 8-9x faster since the im2col kernels landed,
//! extraction is the next preparation bottleneck: the oracle walks each
//! layer's activations several times (a full descending sort for every
//! calibration threshold, then separate chunk / zero / outlier passes),
//! while the fused path makes one chunk-major sweep per layer with an O(n)
//! threshold selection, and runs layers concurrently. Both produce
//! bit-identical `WorkloadSet`s (property-tested in `tests/`), so the
//! ratio here is pure overhead removed. On a single-core host the jobs
//! arms collapse onto jobs=1 — the oracle/fused ratio is the portable
//! number; the jobs scaling shows only on multicore.
//!
//! Networks are synthesized exactly as the experiment suite synthesizes
//! them, so ratios transfer directly to suite preparation time.

use criterion::{criterion_group, criterion_main, Criterion};
use ola_nn::synth::{synthesize_params, SynthConfig};
use ola_nn::zoo::{self, ZooConfig};
use ola_nn::{Network, Params};
use ola_sim::workload::{self, oracle};
use ola_sim::QuantPolicy;
use ola_tensor::init::uniform_tensor;
use ola_tensor::Tensor;
use std::hint::black_box;

fn build(network: &str, scale: usize) -> (Network, Params, Vec<Tensor>) {
    let net = zoo::by_name(
        network,
        &ZooConfig {
            spatial_scale: scale,
            include_classifier: true,
            batch: 1,
        },
    );
    let params = synthesize_params(&net, &SynthConfig::for_network_seeded(network, 0xBE4C));
    let input = uniform_tensor(net.input_shape(), -1.0, 1.0, 0xBE4C + scale as u64);
    let acts = net.forward(&params, &input);
    (net, params, acts)
}

fn benches(c: &mut Criterion) {
    let cases = [("alexnet_s4", "alexnet", 4), ("resnet18_s8", "resnet18", 8)];
    for (label, network, scale) in cases {
        let (net, params, acts) = build(network, scale);
        let policy = QuantPolicy::olaccel16(network);
        let mut g = c.benchmark_group(&format!("workload_extract/{label}"));
        g.sample_size(10);
        g.bench_function("oracle", |b| {
            b.iter(|| {
                black_box(oracle::extract_from_acts(
                    black_box(&net),
                    black_box(&params),
                    black_box(&acts),
                    black_box(&policy),
                ))
            })
        });
        for jobs in [1, 2, 4] {
            ola_tensor::par::set_jobs(jobs);
            g.bench_function(&format!("fused_j{jobs}"), |b| {
                b.iter(|| {
                    black_box(workload::extract_from_acts(
                        black_box(&net),
                        black_box(&params),
                        black_box(&acts),
                        black_box(&policy),
                    ))
                })
            });
        }
        g.finish();
    }
}

criterion_group!(workload_extract, benches);
criterion_main!(workload_extract);
