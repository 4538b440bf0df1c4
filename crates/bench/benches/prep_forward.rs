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
//!   classifier. Its fc6/fc7 weights are `RowGen` (regenerated each
//!   forward from seeded streams), so single-thread time is dominated by the
//!   bit-exact sampling floor — an Amdahl limit the kernels cannot touch
//!   (see DESIGN.md §11). Row generation does parallelize across worker
//!   threads on multicore hosts.
//! - `resnet18_s8`: the fast-suite ResNet-18, conv-dominated.
//!
//! Networks are synthesized exactly as the experiment suite synthesizes
//! them, so ratios transfer directly to suite preparation time.

use criterion::{criterion_group, criterion_main, Criterion};
use ola_nn::synth::{synthesize_params, SynthConfig};
use ola_nn::zoo::{self, ZooConfig};
use ola_nn::{Network, Params};
use ola_tensor::init::uniform_tensor;
use ola_tensor::Tensor;
use std::hint::black_box;

fn build(network: &str, scale: usize, classifier: bool) -> (Network, Params, Tensor) {
    let net = zoo::by_name(
        network,
        &ZooConfig {
            spatial_scale: scale,
            include_classifier: classifier,
            batch: 1,
        },
    );
    let params = synthesize_params(&net, &SynthConfig::for_network_seeded(network, 0xBE4C));
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
        let mut g = c.benchmark_group(&format!("prep_forward/{label}"));
        g.sample_size(10);
        g.bench_function("naive", |b| {
            b.iter(|| black_box(net.forward_naive(black_box(&params), black_box(&input))))
        });
        for jobs in [1, 2, 4] {
            ola_tensor::par::set_jobs(jobs);
            g.bench_function(&format!("fast_j{jobs}"), |b| {
                b.iter(|| black_box(net.forward(black_box(&params), black_box(&input))))
            });
        }
        g.finish();
    }
}

criterion_group!(prep_forward, benches);
criterion_main!(prep_forward);
