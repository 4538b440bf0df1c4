//! Property tests of the splittable counter-based RNG seeding contract.
//!
//! Everything the synthesis pipeline generates — tensor elements, RowGen
//! rows, dataset samples, trained weights — must be a pure function of
//! `(seed, stream_id, counter)`: bit-identical in any generation order, at
//! any chunking, at any worker count, and with no collisions between
//! distinct `(seed, stream_id)` pairs on overlapping counter ranges. This
//! is the contract that lets the engine parallelize the whole prep phase
//! without perturbing a single golden byte.

use ola_nn::synth::SyntheticMatrix;
use ola_nn::synthnet::{SynthDataset, SynthNet, LAYERS};
use ola_tensor::init::{gaussian_tensor, heavy_tailed_tensor, uniform_tensor, HeavyTailed};
use ola_tensor::par::{fill_indexed, ordered_map};
use ola_tensor::Shape4;
use proptest::prelude::*;
use rand::rngs::Philox;
use rand::RngCore;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Random access at any counter matches the sequential stream: the
    /// value at draw `i` never depends on the draws before it.
    #[test]
    fn philox_random_access_matches_sequential(
        seed in 0u64..1 << 48,
        stream in 0u64..1 << 32,
        len in 1usize..64,
        probe in 0usize..64,
    ) {
        let mut sequential = Philox::new(seed, stream);
        let reference: Vec<u64> = (0..len).map(|_| sequential.next_u64()).collect();
        let probe = probe % len;
        // Each Philox block yields two u64 draws; seek to the block that
        // holds draw `probe` and discard the first word for odd indices.
        let mut jumped = Philox::new(seed, stream);
        jumped.seek((probe / 2) as u64);
        let mut draw = jumped.next_u64();
        if probe % 2 == 1 {
            draw = jumped.next_u64();
        }
        prop_assert_eq!(draw, reference[probe]);
    }

    /// Distinct (seed, stream) pairs produce disjoint draws even on fully
    /// overlapping counter ranges — the no-collision half of the contract.
    /// (Philox is a bijection per key, so matching 4-word windows across
    /// different keys/streams would be astronomically unlikely; any overlap
    /// here means broken stream separation.)
    #[test]
    fn philox_streams_never_collide_on_overlapping_counters(
        seed in 0u64..1 << 48,
        stream_a in 0u64..1 << 32,
        delta in 1u64..1 << 32,
    ) {
        let window = |seed: u64, stream: u64| -> [u64; 4] {
            let mut rng = Philox::new(seed, stream);
            [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        let a = window(seed, stream_a);
        prop_assert_ne!(a, window(seed, stream_a.wrapping_add(delta)));
        prop_assert_ne!(a, window(seed.wrapping_add(delta), stream_a));
    }

    /// Tensor fills are bit-identical at any worker count, and an element
    /// read out of a larger tensor equals the same index in a smaller one
    /// (pure function of (seed, index), not of the tensor extent).
    #[test]
    fn tensor_fills_are_order_and_width_independent(
        seed in 0u64..1 << 48,
        jobs in 2usize..6,
    ) {
        let small = Shape4::new(1, 1, 40, 50);
        let large = Shape4::new(1, 2, 40, 50);
        ola_tensor::par::set_jobs(1);
        let h1 = heavy_tailed_tensor(large, HeavyTailed::default(), seed);
        let g1 = gaussian_tensor(large, 0.5, seed);
        let u1 = uniform_tensor(large, -2.0, 2.0, seed);
        ola_tensor::par::set_jobs(jobs);
        let h2 = heavy_tailed_tensor(large, HeavyTailed::default(), seed);
        let g2 = gaussian_tensor(large, 0.5, seed);
        let u2 = uniform_tensor(large, -2.0, 2.0, seed);
        let h_small = heavy_tailed_tensor(small, HeavyTailed::default(), seed);
        prop_assert_eq!(bits(h1.as_slice()), bits(h2.as_slice()));
        prop_assert_eq!(bits(g1.as_slice()), bits(g2.as_slice()));
        prop_assert_eq!(bits(u1.as_slice()), bits(u2.as_slice()));
        // Prefix property: same (seed, i) => same value regardless of len.
        prop_assert_eq!(
            bits(&h1.as_slice()[..small.len()]),
            bits(h_small.as_slice())
        );
    }

    /// fill_indexed chunking never changes bytes: any jobs split of any
    /// length produces the serial fill.
    #[test]
    fn fill_indexed_chunking_is_invisible(
        len in 0usize..500,
        jobs in 1usize..9,
        seed in 0u64..1 << 48,
    ) {
        let f = |i: usize| {
            let mut rng = Philox::new(seed, i as u64);
            rng.next_u64()
        };
        let mut serial = vec![0u64; len];
        fill_indexed(&mut serial, 1, f);
        let mut split = vec![0u64; len];
        fill_indexed(&mut split, jobs, f);
        prop_assert_eq!(serial, split);
    }

    /// RowGen rows regenerate bit-identically in any order, from any
    /// worker, in any interleaving with other rows.
    #[test]
    fn rowgen_rows_are_pure_functions_of_index(
        seed in 0u64..1 << 48,
        rows in 2usize..12,
        cols in 1usize..80,
        jobs in 1usize..5,
        sparsity in 0.0f64..1.0,
    ) {
        let m = SyntheticMatrix::new(rows, cols, HeavyTailed::default(), sparsity, seed);
        // Reference: rows generated forward, serially.
        let forward: Vec<Vec<f32>> = (0..rows).map(|i| m.row(i)).collect();
        // Rows generated backwards...
        for i in (0..rows).rev() {
            prop_assert_eq!(bits(&m.row(i)), bits(&forward[i]));
        }
        // ...and concurrently across workers.
        let idx: Vec<usize> = (0..rows).collect();
        let parallel = ordered_map(&idx, jobs, |_, &i| m.row(i));
        for (a, b) in parallel.iter().zip(&forward) {
            prop_assert_eq!(bits(a), bits(b));
        }
    }

    /// Dataset samples are pure functions of (seed, sample index): any
    /// worker count, and any prefix length, yields identical bytes.
    #[test]
    fn dataset_generation_is_worker_count_independent(
        seed in 0u64..1 << 48,
        n in 1usize..80,
        classes in 2usize..6,
        jobs in 2usize..5,
    ) {
        ola_tensor::par::set_jobs(1);
        let serial = SynthDataset::generate(n, classes, seed);
        ola_tensor::par::set_jobs(jobs);
        let parallel = SynthDataset::generate(n, classes, seed);
        prop_assert_eq!(&serial.labels, &parallel.labels);
        for (a, b) in serial.images.iter().zip(&parallel.images) {
            prop_assert_eq!(bits(a), bits(b));
        }
    }
}

/// SynthNet training at any worker count produces byte-identical weights:
/// per-sample gradients reduce in sample order regardless of which worker
/// computed them. One deterministic case (not proptest — training is the
/// expensive path).
#[test]
fn training_is_worker_count_independent() {
    let data = SynthDataset::generate(96, 4, 0x7E57);
    let reference = {
        let mut net = SynthNet::new(4, 0x1111);
        net.train(&data, 2, 0.02, 0x2222);
        net
    };
    for jobs in [2, 4] {
        ola_tensor::par::set_jobs(jobs);
        let mut net = SynthNet::new(4, 0x1111);
        net.train(&data, 2, 0.02, 0x2222);
        for layer in LAYERS {
            assert_eq!(
                bits(reference.weights(layer)),
                bits(net.weights(layer)),
                "{layer:?} drifted at jobs={jobs}"
            );
        }
    }
}
