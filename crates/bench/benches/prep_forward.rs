//! Forward-pass throughput of the f32 reference path: naive loop-nest
//! kernels vs the tiled im2col kernels of `ola-nn::kernels`, at 1/2/4
//! worker threads.
//!
//! This is the preparation hot path — every experiment's activation
//! statistics come from one of these forward passes — so the fast/naive
//! ratio here is the headline number of DESIGN.md §11. Three workloads:
//!
//! - `alexnet_conv_s1`: the full-resolution (227x227) AlexNet feature
//!   extractor, i.e. pure conv/pool compute. This isolates the kernels
//!   being optimized and is where the >= 3x acceptance bar is measured.
//! - `alexnet_s4`: the complete fast-suite AlexNet including the
//!   classifier. Its fc7 is `RowGen`: the naive path regenerates and
//!   prunes all 16.8M weights every forward, while the fast path samples
//!   them once, on its first forward, and then multiplies only the cached
//!   survivors (DESIGN.md §11). So the fast path has two cases:
//!   `cached` times forwards after a warm-up forward has built the cache;
//!   `synth+first` times synthesis plus the first forward, because each
//!   iteration needs fresh parameters and the vendored criterion has only
//!   `iter` (no per-iteration setup outside the timing).
//! - `resnet18_s8`: the fast-suite ResNet-18, conv-dominated.
//!
//! Networks are synthesized exactly as the experiment suite synthesizes
//! them, so ratios transfer directly to suite preparation time.

use criterion::{criterion_group, criterion_main, Criterion};
use ola_nn::network::WeightStore;
use ola_nn::synth::{synthesize_params, SynthConfig};
use ola_nn::zoo::{self, ZooConfig};
use ola_nn::{Network, Params};
use ola_tensor::init::uniform_tensor;
use ola_tensor::Tensor;
use std::hint::black_box;

fn synthesize(net: &Network, network: &str) -> Params {
    synthesize_params(net, &SynthConfig::for_network_seeded(network, 0xBE4C))
}

fn build(network: &str, scale: usize, classifier: bool) -> (Network, Params, Tensor) {
    let net = zoo::by_name(
        network,
        &ZooConfig {
            spatial_scale: scale,
            include_classifier: classifier,
            batch: 1,
        },
    );
    let params = synthesize(&net, network);
    let input = uniform_tensor(net.input_shape(), -1.0, 1.0, 0xBE4C + scale as u64);
    (net, params, input)
}

fn benches(c: &mut Criterion) {
    let cases = [
        ("alexnet_conv_s1", "alexnet", 1, false),
        ("alexnet_s4", "alexnet", 4, true),
        ("resnet18_s8", "resnet18", 8, true),
    ];
    for (label, network, scale, classifier) in cases {
        let (net, params, input) = build(network, scale, classifier);
        let rowgen = (0..net.nodes().len())
            .any(|id| matches!(params.weights(id), Some(WeightStore::RowGen(_))));
        let mut g = c.benchmark_group(&format!("prep_forward/{label}"));
        g.sample_size(10);
        g.bench_function("naive", |b| {
            b.iter(|| black_box(net.forward_naive(black_box(&params), black_box(&input))))
        });
        for jobs in [1, 2, 4] {
            ola_tensor::par::set_jobs(jobs);
            if !rowgen {
                g.bench_function(&format!("fast_j{jobs}"), |b| {
                    b.iter(|| black_box(net.forward(black_box(&params), black_box(&input))))
                });
                continue;
            }
            net.forward(&params, &input);
            g.bench_function(&format!("fast_j{jobs}/cached"), |b| {
                b.iter(|| black_box(net.forward(black_box(&params), black_box(&input))))
            });
            g.bench_function(&format!("fast_j{jobs}/synth+first"), |b| {
                b.iter(|| {
                    let fresh = synthesize(&net, network);
                    black_box(net.forward(black_box(&fresh), black_box(&input)))
                })
            });
        }
        g.finish();
    }
}

criterion_group!(prep_forward, benches);
criterion_main!(prep_forward);
