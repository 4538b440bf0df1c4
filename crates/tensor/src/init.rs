//! Random initializers producing trained-network-like value distributions.
//!
//! The paper's experiments run on trained ImageNet models. We do not have
//! those weights, so (per DESIGN.md §2) we synthesize parameters whose
//! *distributions* match what the paper relies on: near-Laplacian bulk with
//! heavy tails (Fig 1's outliers), and activations that become sparse and
//! non-negative after ReLU.
//!
//! # Seeding contract
//!
//! Every element is drawn from its own counter-based [`Philox`] stream,
//! `Philox::new(seed, element_index)`: the value at index `i` is a pure
//! function of `(seed, i)` and never depends on how many elements came
//! before it, which worker generated it, or in what order. That is what
//! lets the fills below run data-parallel (via [`crate::par::fill_indexed`]
//! at the thread's [`crate::par::jobs`] budget) while staying
//! bit-identical to the serial reference at any worker count.

use crate::par;
use crate::shape::Shape4;
use crate::tensor::Tensor;
use rand::distributions::Distribution;
use rand::rngs::Philox;
use rand::Rng;

/// Below this element count a parallel fill costs more in thread spawn than
/// it saves; run inline instead. Bits are identical either way.
const PAR_FILL_CUTOFF: usize = 4096;

fn fill_workers(len: usize) -> usize {
    if len < PAR_FILL_CUTOFF {
        1
    } else {
        par::jobs()
    }
}

/// A two-component scale mixture used to synthesize trained-like weights.
///
/// With probability `1 - tail_fraction` a value is drawn from a narrow
/// Gaussian (`sigma`); with probability `tail_fraction` from a wide Gaussian
/// (`sigma * tail_scale`). The wide component creates the Fig 1 outliers that
/// make plain linear quantization fail at 4 bits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeavyTailed {
    /// Standard deviation of the bulk component.
    pub sigma: f32,
    /// Fraction of samples drawn from the tail component.
    pub tail_fraction: f64,
    /// Scale factor of the tail component relative to the bulk.
    pub tail_scale: f32,
}

impl Default for HeavyTailed {
    fn default() -> Self {
        // Calibrated so that ~3% of values exceed the magnitude that a 4-bit
        // linear grid spanning the max would need to represent them well —
        // mirroring the paper's 3% outlier ratio operating point.
        HeavyTailed {
            sigma: 0.02,
            tail_fraction: 0.03,
            tail_scale: 6.0,
        }
    }
}

impl HeavyTailed {
    /// Creates a mixture with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `tail_fraction` is outside `[0, 1]` or a scale is
    /// non-positive.
    pub fn new(sigma: f32, tail_fraction: f64, tail_scale: f32) -> Self {
        assert!(
            (0.0..=1.0).contains(&tail_fraction),
            "tail_fraction must be in [0,1]"
        );
        assert!(sigma > 0.0 && tail_scale > 0.0, "scales must be positive");
        HeavyTailed {
            sigma,
            tail_fraction,
            tail_scale,
        }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        let scale = if rng.gen_bool(self.tail_fraction) {
            self.sigma * self.tail_scale
        } else {
            self.sigma
        };
        gaussian(rng) * scale
    }
}

impl Distribution<f32> for HeavyTailed {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        HeavyTailed::sample(self, rng)
    }
}

/// Standard normal via Box-Muller (avoids a rand_distr dependency).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()) as f32
}

/// Fills a new tensor with heavy-tailed synthetic weights. Element `i` is
/// a pure function of `(seed, i)`; see the module-level seeding contract.
pub fn heavy_tailed_tensor(shape: Shape4, dist: HeavyTailed, seed: u64) -> Tensor {
    let mut data = vec![0.0f32; shape.len()];
    par::fill_indexed(&mut data, fill_workers(shape.len()), |i| {
        dist.sample(&mut Philox::new(seed, i as u64))
    });
    Tensor::from_vec(shape, data)
}

/// Fills a new tensor with standard-normal values scaled by `sigma`.
/// Element `i` is a pure function of `(seed, i)`.
pub fn gaussian_tensor(shape: Shape4, sigma: f32, seed: u64) -> Tensor {
    let mut data = vec![0.0f32; shape.len()];
    par::fill_indexed(&mut data, fill_workers(shape.len()), |i| {
        gaussian(&mut Philox::new(seed, i as u64)) * sigma
    });
    Tensor::from_vec(shape, data)
}

/// Fills a new tensor with uniform values in `[lo, hi)` — used for synthetic
/// raw input images (the first layer's 8/16-bit activations). Element `i`
/// is a pure function of `(seed, i)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn uniform_tensor(shape: Shape4, lo: f32, hi: f32, seed: u64) -> Tensor {
    assert!(lo < hi, "lo must be less than hi");
    let mut data = vec![0.0f32; shape.len()];
    par::fill_indexed(&mut data, fill_workers(shape.len()), |i| {
        Philox::new(seed, i as u64).gen_range(lo..hi)
    });
    Tensor::from_vec(shape, data)
}

/// Splits the positions of `values` for magnitude pruning to `sparsity`.
///
/// Returns `k = round(len * sparsity)` and one packed key
/// `(|v| bits << 32) | index` per position, partitioned so that the first
/// `k` keys are the `k` smallest magnitudes (ties to the lower index) and
/// the rest are the survivors; each part is in no particular order. A key's
/// low 32 bits are its position.
///
/// `abs` clears the sign bit, and on sign-cleared floats the unsigned bit
/// order is `total_cmp`'s order (NaN above `+inf`, so a NaN is never pruned
/// before a finite value). The index in the low bits makes the order
/// tie-free, so the pruned set is exactly what a stable full sort by `|v|`
/// chose — found with one plain `select_nth_unstable` in O(n).
///
/// # Panics
///
/// Panics if `sparsity` is outside `[0, 1]` or `values` has more than
/// `u32::MAX` elements.
pub fn magnitude_split(values: &[f32], sparsity: f64) -> (usize, Vec<u64>) {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    assert!(
        values.len() <= u32::MAX as usize,
        "positions must fit the key's low 32 bits"
    );
    let n = values.len();
    let k = (n as f64 * sparsity).round() as usize;
    let mut keys: Vec<u64> = values
        .iter()
        .enumerate()
        .map(|(i, v)| (u64::from(v.abs().to_bits()) << 32) | i as u64)
        .collect();
    if 0 < k && k < n {
        keys.select_nth_unstable(k - 1);
    }
    (k, keys)
}

/// Magnitude-prunes `values` in place to the given sparsity (fraction of
/// zeros), zeroing the [`magnitude_split`] set: the smallest magnitudes,
/// ties to the lower index. Mirrors the Deep-Compression-style pruned
/// models the paper evaluates.
///
/// Returns the exact number of elements zeroed.
///
/// # Panics
///
/// As [`magnitude_split`].
pub fn prune_to_sparsity(values: &mut (impl AsMut<[f32]> + ?Sized), sparsity: f64) -> usize {
    let values = values.as_mut();
    let (k, keys) = magnitude_split(values, sparsity);
    for &key in &keys[..k] {
        values[key as u32 as usize] = 0.0;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_tailed_has_outliers() {
        let t = heavy_tailed_tensor(Shape4::new(1, 1, 100, 100), HeavyTailed::default(), 7);
        let max = t.abs_max();
        // Bulk sigma is 0.02; tail should push max well past 4 sigma.
        assert!(max > 0.08, "expected heavy tail, max was {max}");
        // But the bulk should stay narrow: the 50th percentile is small.
        let mut mags: Vec<f32> = t.iter().map(|x| x.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(mags[mags.len() / 2] < 0.03);
    }

    #[test]
    fn deterministic_by_seed() {
        let a = gaussian_tensor(Shape4::new(1, 1, 4, 4), 1.0, 42);
        let b = gaussian_tensor(Shape4::new(1, 1, 4, 4), 1.0, 42);
        assert_eq!(a, b);
        let c = gaussian_tensor(Shape4::new(1, 1, 4, 4), 1.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn prune_hits_requested_sparsity() {
        let mut t = gaussian_tensor(Shape4::new(1, 4, 10, 10), 1.0, 3);
        let zeroed = prune_to_sparsity(&mut t, 0.6);
        assert_eq!(zeroed, 240);
        assert!((t.zero_fraction() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn prune_removes_smallest_first() {
        let mut t = Tensor::from_vec(Shape4::new(1, 1, 1, 4), vec![0.1, -3.0, 0.2, 5.0]);
        prune_to_sparsity(&mut t, 0.5);
        assert_eq!(t.as_slice(), &[0.0, -3.0, 0.0, 5.0]);
    }

    #[test]
    fn uniform_bounds_respected() {
        let t = uniform_tensor(Shape4::new(1, 1, 8, 8), -1.0, 1.0, 11);
        assert!(t.iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn prune_zero_sparsity_is_noop() {
        let mut t = gaussian_tensor(Shape4::new(1, 1, 4, 4), 1.0, 9);
        let before = t.clone();
        assert_eq!(prune_to_sparsity(&mut t, 0.0), 0);
        assert_eq!(t, before);
    }

    #[test]
    fn prune_full_sparsity_zeros_everything() {
        let mut t = gaussian_tensor(Shape4::new(1, 1, 4, 4), 1.0, 9);
        assert_eq!(prune_to_sparsity(&mut t, 1.0), 16);
        assert_eq!(t.zero_fraction(), 1.0);
    }

    #[test]
    fn heavy_tailed_tail_fraction_observed() {
        // With tail_scale 6 and bulk sigma 0.02, values beyond ~4 bulk
        // sigmas come almost entirely from the 3% tail component.
        let t = heavy_tailed_tensor(
            Shape4::new(1, 1, 200, 200),
            HeavyTailed::new(0.02, 0.03, 6.0),
            13,
        );
        let big = t.iter().filter(|v| v.abs() > 0.08).count() as f64 / t.len() as f64;
        assert!(big > 0.005 && big < 0.04, "tail mass {big}");
    }

    #[test]
    fn prune_matches_stable_sort_reference() {
        // The selection path must zero exactly the set the old stable full
        // sort zeroed, including under duplicated magnitudes and sign ties.
        let shape = Shape4::new(1, 2, 9, 7);
        let mut t = gaussian_tensor(shape, 1.0, 77);
        {
            let data = t.as_mut_slice();
            data[5] = 0.25;
            data[17] = -0.25;
            data[40] = 0.25;
            data[41] = -0.0;
            data[42] = 0.0;
        }
        let mut reference = t.clone();
        let k = {
            let data = reference.as_mut_slice();
            let mut order: Vec<usize> = (0..data.len()).collect();
            order.sort_by(|&a, &b| {
                data[a]
                    .abs()
                    .total_cmp(&data[b].abs())
                    .then_with(|| a.cmp(&b))
            });
            let k = (data.len() as f64 * 0.45).round() as usize;
            for &i in order.iter().take(k) {
                data[i] = 0.0;
            }
            k
        };
        assert_eq!(prune_to_sparsity(&mut t, 0.45), k);
        assert_eq!(t.as_slice(), reference.as_slice());
    }

    #[test]
    fn prune_is_nan_sound() {
        // NaN compares largest under total_cmp, so it is never chosen for
        // pruning ahead of finite values — and the call must not panic.
        let mut t = Tensor::from_vec(
            Shape4::new(1, 1, 1, 5),
            vec![1.0, f32::NAN, -0.0, 0.5, -2.0],
        );
        assert_eq!(prune_to_sparsity(&mut t, 0.4), 2);
        let out = t.as_slice();
        assert_eq!(out[0], 1.0);
        assert!(out[1].is_nan(), "NaN must survive pruning");
        assert_eq!(out[2], 0.0);
        assert_eq!(out[3], 0.0, "-0.0 and 0.5 are the two smallest magnitudes");
        assert_eq!(out[4], -2.0);
    }

    #[test]
    fn fills_bit_identical_across_worker_counts() {
        // The seeding contract: element i depends only on (seed, i), so the
        // same tensor comes out at any fill width. 100x120 clears the
        // parallel cutoff.
        let shape = Shape4::new(1, 1, 100, 120);
        let serial = heavy_tailed_tensor(shape, HeavyTailed::default(), 99);
        let u_serial = uniform_tensor(shape, -1.0, 1.0, 21);
        for jobs in [3, 4] {
            crate::par::set_jobs(jobs);
            assert_eq!(
                heavy_tailed_tensor(shape, HeavyTailed::default(), 99),
                serial
            );
            assert_eq!(uniform_tensor(shape, -1.0, 1.0, 21), u_serial);
        }
    }

    #[test]
    #[should_panic(expected = "tail_fraction")]
    fn heavy_tailed_validates_fraction() {
        let _ = HeavyTailed::new(0.02, 1.5, 6.0);
    }

    #[test]
    #[should_panic(expected = "lo must be less than hi")]
    fn uniform_validates_bounds() {
        let _ = uniform_tensor(Shape4::new(1, 1, 1, 1), 1.0, -1.0, 0);
    }
}
