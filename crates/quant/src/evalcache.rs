//! Process-wide memoization of quantized-accuracy evaluations.
//!
//! The accuracy figures re-evaluate overlapping `(trained net × dataset ×
//! QuantSpec × topk)` points — fig2's ratio sweep, fig3's ablations and
//! the policy panel all quantize and run the same trained `SynthNet` over
//! the same test split (the panel's magnitude row *is* fig2's 3% point).
//! [`EvalCache`] is the report-phase analogue of the harness's `PrepCache`
//! and `ola_sim::simcache::SimCache`: a global two-level cache of
//! [`QuantAccuracy`] records keyed by a content fingerprint
//! (see [`ola_tensor::memo::Fingerprint`]) of everything that can change
//! the measured result.
//!
//! Correctness rests on the same two facts as the sim cache:
//!
//! * [`crate::accuracy::evaluate_synthnet`] is a **pure function** of its
//!   fingerprinted inputs — the trained weights (by bit pattern), the test
//!   and calibration images, every [`QuantSpec`] field (floats by bit
//!   pattern) and `topk` — so a cached record is bit-identical to a fresh
//!   evaluation at any worker count;
//! * the cache is an [`ola_tensor::memo::Stage`], whose fills run under
//!   the exactly-once protocol of [`ola_tensor::memo::fill_slot`], so
//!   concurrent figures and daemon requests coalesce onto one evaluation
//!   per key and a panicking build never poisons its slot.
//!
//! With [`EvalCache::set_store`] the cache gains a persistent [`Tier`]:
//! misses read through to it before evaluating and fresh results write
//! through after, which is what lets a warm `--cache-dir`
//! run skip the eval phase entirely. The store content-addresses records
//! by this fingerprint plus a separate `eval_version()` source fold (see
//! `ola-store`), so accelerator-model or extraction edits never discard
//! still-valid eval records — and vice versa.

use crate::accuracy::{QuantAccuracy, QuantSpec, CALIB_IMAGES};
use ola_nn::synthnet::{SynthDataset, SynthNet};
use ola_tensor::memo::{Fingerprint, Stage, Tier};
use std::sync::{Arc, OnceLock};

/// Forwards to [`ola_tensor::par::set_jobs`]; kept only because `perfbench/probe` calls it.
#[doc(hidden)]
pub fn set_eval_jobs(jobs: usize) {
    ola_tensor::par::set_jobs(jobs)
}

/// The content fingerprint an accuracy evaluation is memoized under: an
/// FNV fold of the trained net (classes, then every weight/bias matrix by
/// `to_bits`), the test dataset (classes, labels, images), the portion of
/// the calibration split the evaluation actually reads (its first
/// [`CALIB_IMAGES`] samples — the unused tail can't invalidate), every
/// [`QuantSpec`] field (floats by bit pattern, the selection rule by tag
/// plus window), and `topk`.
pub fn eval_key(
    net: &SynthNet,
    data: &SynthDataset,
    calib: &SynthDataset,
    spec: &QuantSpec,
    topk: usize,
) -> u64 {
    let mut fp = Fingerprint::new();
    fp.usize(net.classes);
    for (w, b) in [
        (&net.w1, &net.b1),
        (&net.w2, &net.b2),
        (&net.w3, &net.b3),
        (&net.w4, &net.b4),
        (&net.w5, &net.b5),
    ] {
        fp.f32s(w).f32s(b);
    }
    fold_dataset(&mut fp, data, data.images.len());
    fold_dataset(&mut fp, calib, CALIB_IMAGES);
    fold_spec(&mut fp, spec);
    fp.usize(topk);
    fp.finish()
}

/// Folds the first `take` images of a dataset (length-framed so adjacent
/// datasets can't alias) plus its labels and class count.
fn fold_dataset(fp: &mut Fingerprint, data: &SynthDataset, take: usize) {
    let n = take.min(data.images.len());
    fp.usize(data.classes).usize(n);
    for img in data.images.iter().take(n) {
        fp.f32s(img);
    }
    for &label in data.labels.iter().take(n) {
        fp.usize(label);
    }
}

/// Folds every [`QuantSpec`] field, in declaration order.
fn fold_spec(fp: &mut Fingerprint, spec: &QuantSpec) {
    fp.u8(spec.low_bits)
        .u8(spec.weight_high_bits)
        .u8(spec.act_high_bits)
        .f64(spec.outlier_ratio)
        .u8(spec.first_layer_weight_bits)
        .u8(spec.quantize_weights as u8)
        .u8(spec.quantize_acts as u8);
    spec.select.fold(fp);
}

/// A point-in-time snapshot of [`EvalCache`] hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Evaluation requests served from memory.
    pub hits: u64,
    /// Evaluation requests that ran the full quantize/calibrate/forward
    /// pipeline.
    pub misses: u64,
    /// Requests served by loading a record from the disk store (these
    /// count as neither hit nor evaluated — no computation ran).
    pub disk_hits: u64,
    /// Disk-store lookups that found nothing usable (missing file, stale
    /// eval version, or a corrupt record that forced a recompute).
    pub disk_misses: u64,
}

impl EvalStats {
    /// Formats the counters as the run-summary lines.
    pub fn render(&self) -> String {
        format!(
            "evals:             {} evaluated, {} cache hits\n\
             eval artifacts:    {} loaded, {} missed",
            self.misses, self.hits, self.disk_hits, self.disk_misses
        )
    }

    /// The counter-wise difference `self - before` (saturating), for
    /// delta-over-a-run reporting.
    pub fn since(&self, before: &EvalStats) -> EvalStats {
        EvalStats {
            hits: self.hits.saturating_sub(before.hits),
            misses: self.misses.saturating_sub(before.misses),
            disk_hits: self.disk_hits.saturating_sub(before.disk_hits),
            disk_misses: self.disk_misses.saturating_sub(before.disk_misses),
        }
    }
}

/// Process-wide memoization of accuracy evaluations, with an optional
/// persistent disk tier. See the module docs for the keying and
/// determinism argument.
#[derive(Default)]
pub struct EvalCache {
    evals: Stage<QuantAccuracy>,
}

impl EvalCache {
    /// An empty cache (tests; production code uses [`EvalCache::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache instance every accuracy evaluation routes
    /// through.
    pub fn global() -> &'static EvalCache {
        static GLOBAL: OnceLock<EvalCache> = OnceLock::new();
        GLOBAL.get_or_init(EvalCache::new)
    }

    /// Attaches (or, with `None`, detaches) the persistent tier.
    /// Already-resident entries are unaffected.
    pub fn set_store(&self, store: Option<Arc<dyn Tier<QuantAccuracy>>>) {
        self.evals.set_tier(store);
    }

    /// Fetches or computes (exactly once per key, process-wide) the
    /// accuracy record for `key`. `build` must be a pure function of the
    /// inputs folded into `key` (which [`eval_key`] guarantees for
    /// [`crate::accuracy::evaluate_synthnet`]).
    pub fn eval(&self, key: u64, build: impl FnOnce() -> QuantAccuracy) -> QuantAccuracy {
        *self.evals.get(key, build)
    }

    /// Snapshots the hit/miss counters.
    pub fn stats(&self) -> EvalStats {
        let s = self.evals.stats();
        EvalStats {
            hits: s.hits,
            misses: s.built,
            disk_hits: s.disk_hits,
            disk_misses: s.disk_misses,
        }
    }

    /// Drops every entry and zeroes the counters (test isolation; also
    /// frees the memory of a long-lived process between suites). The disk
    /// tier, if attached, stays attached.
    pub fn reset(&self) {
        self.evals.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::OutlierSelect;

    fn acc() -> QuantAccuracy {
        QuantAccuracy {
            top1: 0.9,
            topk: 0.9,
            realized_weight_ratio: 0.03,
        }
    }

    #[test]
    fn evals_compute_once_per_key() {
        let cache = EvalCache::new();
        for _ in 0..3 {
            assert_eq!(cache.eval(11, acc).top1, 0.9);
        }
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 2));
    }

    #[test]
    fn reset_clears_entries_and_counters() {
        let cache = EvalCache::new();
        let _ = cache.eval(9, acc);
        cache.reset();
        assert_eq!(cache.stats(), EvalStats::default());
        let _ = cache.eval(9, acc);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn stats_render_names_every_counter() {
        let s = EvalStats {
            hits: 1,
            misses: 2,
            disk_hits: 3,
            disk_misses: 4,
        };
        let r = s.render();
        assert!(r.contains("evals:             2 evaluated, 1 cache hits"));
        assert!(r.contains("eval artifacts:    3 loaded, 4 missed"));
    }

    #[test]
    fn eval_key_separates_every_input() {
        let net = SynthNet::new(4, 1);
        let data = SynthDataset::generate(8, 4, 2);
        let calib = SynthDataset::generate(8, 4, 3);
        let spec = QuantSpec::paper_4bit(0.03);
        let base = eval_key(&net, &data, &calib, &spec, 5);
        // Stable for identical inputs.
        assert_eq!(base, eval_key(&net, &data, &calib, &spec, 5));
        // Every input moves the key.
        assert_ne!(base, eval_key(&net, &data, &calib, &spec, 1));
        assert_ne!(
            base,
            eval_key(&net, &data, &calib, &QuantSpec::paper_4bit(0.04), 5)
        );
        assert_ne!(
            base,
            eval_key(&net, &data, &calib, &QuantSpec::weights_only(0.03), 5)
        );
        let windowed = QuantSpec {
            select: OutlierSelect::WindowedTopK { window: 16 },
            ..spec
        };
        assert_ne!(base, eval_key(&net, &data, &calib, &windowed, 5));
        let other_net = SynthNet::new(4, 9);
        assert_ne!(base, eval_key(&other_net, &data, &calib, &spec, 5));
        assert_ne!(base, eval_key(&net, &calib, &data, &spec, 5));
    }

    #[test]
    fn eval_key_ignores_calibration_tail_beyond_calib_images() {
        // Only the first CALIB_IMAGES calibration images reach the
        // evaluation; the key must not over-invalidate on the unused tail.
        let net = SynthNet::new(3, 4);
        let data = SynthDataset::generate(6, 3, 5);
        let calib_long = SynthDataset::generate(CALIB_IMAGES + 40, 3, 6);
        let calib_short = SynthDataset {
            images: calib_long.images[..CALIB_IMAGES].to_vec(),
            labels: calib_long.labels[..CALIB_IMAGES].to_vec(),
            classes: 3,
        };
        let spec = QuantSpec::paper_4bit(0.02);
        assert_eq!(
            eval_key(&net, &data, &calib_long, &spec, 5),
            eval_key(&net, &data, &calib_short, &spec, 5)
        );
    }
}
