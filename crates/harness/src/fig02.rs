//! Fig 2: accuracy versus outlier ratio at 4 bits.
//!
//! The paper measures ImageNet AlexNet; we measure a genuinely trained
//! SynthNet on the synthetic task (DESIGN.md §2). The reproduced *shape* is
//! the claim: plain 4-bit linear quantization (ratio 0) collapses accuracy;
//! a few percent of outliers restores it to near full precision.
//!
//! The trained net is one memoized, persisted stage (`TRAINED`, DESIGN.md
//! §18) keyed by its [`Recipe`]: a warm run loads the weights instead of
//! training.

use crate::report::{pct, table};
use crate::timing::{timed, Phase};
use ola_nn::synthnet::{SynthDataset, SynthNet};
use ola_quant::accuracy::{evaluate_synthnet, QuantSpec};
use ola_store::wire::{Reader, Writer};
use ola_store::{train_version, Artifact, StoreError};
use ola_tensor::memo::{Fingerprint, Stage};
use std::sync::{Arc, LazyLock};

/// Sweep points (the paper's x-axis, 0 to 5%).
pub const RATIOS: [f64; 7] = [0.0, 0.005, 0.01, 0.02, 0.03, 0.04, 0.05];

/// Every input that determines a trained SynthNet; its fold is the key of
/// the trained-net stage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recipe {
    /// Training (and calibration) split size.
    pub train_size: usize,
    /// Held-out test split size, drawn after the training split.
    pub test_size: usize,
    /// Output classes.
    pub classes: usize,
    /// Dataset seed.
    pub data_seed: u64,
    /// Weight-initialization seed.
    pub init_seed: u64,
    /// SGD epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Per-epoch shuffle seed.
    pub shuffle_seed: u64,
}

/// Largest split a stored recipe may make decoding regenerate (far above
/// either mode's, far below an absurd allocation).
const MAX_SAMPLES: usize = 1 << 14;

/// Largest class count a stored recipe may ask for.
const MAX_CLASSES: usize = 1 << 10;

impl Recipe {
    /// The figures' recipe (`fast` trims dataset size and epochs).
    pub fn of(fast: bool) -> Self {
        let (train_size, epochs) = if fast { (700, 8) } else { (2400, 16) };
        Recipe {
            train_size,
            test_size: 400,
            classes: 10,
            data_seed: 0x5EED,
            init_seed: 0xCAFE,
            epochs,
            lr: 0.02,
            shuffle_seed: 0xBEEF,
        }
    }

    /// The stage key: every recipe field, the learning rate by bit
    /// pattern.
    pub fn key(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.usize(self.train_size)
            .usize(self.test_size)
            .usize(self.classes)
            .u64(self.data_seed)
            .u64(self.init_seed)
            .usize(self.epochs)
            .f32(self.lr)
            .u64(self.shuffle_seed);
        fp.finish()
    }

    /// The train and test splits: one generated dataset, split in order.
    fn splits(&self) -> (SynthDataset, SynthDataset) {
        let mut train = SynthDataset::generate(
            self.train_size + self.test_size,
            self.classes,
            self.data_seed,
        );
        let test = SynthDataset {
            images: train.images.split_off(self.train_size),
            labels: train.labels.split_off(self.train_size),
            classes: self.classes,
        };
        (train, test)
    }

    /// Trains a fresh SynthNet to this recipe, bypassing the stage.
    ///
    /// Training runs on the caller's worker budget
    /// ([`ola_tensor::par::jobs`], DESIGN.md §10) with an order-fixed
    /// gradient reduction, so the trained weights — and every figure
    /// derived from them — are byte-identical at any `--jobs` value.
    pub fn train(&self) -> TrainedSynthNet {
        let (train, test) = timed(Phase::Synthesize, || self.splits());
        let mut net = SynthNet::new(self.classes, self.init_seed);
        timed(Phase::Train, || {
            net.train(&train, self.epochs, self.lr, self.shuffle_seed)
        });
        // One forward pass per image yields both full-precision metrics.
        let (fp_top1, fp_top5) = timed(Phase::Eval, || net.eval_with(&test, 5, |_, _| ()));
        TrainedSynthNet {
            recipe: *self,
            net,
            train,
            test,
            fp_top1,
            fp_top5,
        }
    }

    /// Fetches the SynthNet trained to this recipe from the trained-net
    /// stage: from memory, else the disk store, else [`Recipe::train`]
    /// (exactly once per process and key).
    pub fn trained(&self) -> Arc<TrainedSynthNet> {
        TRAINED.get(self.key(), || self.train())
    }
}

/// A trained SynthNet with train/test splits, shared by Figs 2/3 and the
/// policy panel.
#[derive(Clone)]
pub struct TrainedSynthNet {
    /// The recipe it was trained to.
    pub recipe: Recipe,
    /// The trained network.
    pub net: SynthNet,
    /// Training (and calibration) split.
    pub train: SynthDataset,
    /// Held-out evaluation split.
    pub test: SynthDataset,
    /// Full-precision top-1 accuracy on the test split.
    pub fp_top1: f64,
    /// Full-precision top-5 accuracy on the test split.
    pub fp_top5: f64,
}

impl TrainedSynthNet {
    /// Trains a fresh SynthNet to the figures' recipe ([`Recipe::of`]),
    /// bypassing the stage.
    pub fn train(fast: bool) -> Self {
        Recipe::of(fast).train()
    }
}

/// The process-wide trained-net stage, keyed by [`Recipe::key`].
pub(crate) static TRAINED: LazyLock<Stage<TrainedSynthNet>> = LazyLock::new(Stage::new);

/// Fetches (or trains, exactly once per process and `fast` mode) the shared
/// [`TrainedSynthNet`] — Figs 2 and 3 and the policy panel all need it, and
/// training dominates their cost. With the disk store attached, a trained
/// net persists across processes.
pub fn trained(fast: bool) -> Arc<TrainedSynthNet> {
    Recipe::of(fast).trained()
}

/// The persisted form of a trained SynthNet: its recipe, the five
/// weight/bias pairs and the full-precision metrics, all floats by bit
/// pattern. Decoding regenerates the splits from the recipe and rejects
/// any weight or bias whose length differs from `SynthNet::new`'s.
impl Artifact for TrainedSynthNet {
    const KIND: u8 = 6;
    const PREFIX: &'static str = "train";
    fn version() -> u64 {
        train_version()
    }
    fn encode(&self, w: &mut Writer) {
        let r = &self.recipe;
        for v in [r.train_size, r.test_size, r.classes] {
            w.u64(v as u64);
        }
        w.u64(r.data_seed);
        w.u64(r.init_seed);
        w.u64(r.epochs as u64);
        w.f32(r.lr);
        w.u64(r.shuffle_seed);
        let n = &self.net;
        for v in [
            &n.w1, &n.b1, &n.w2, &n.b2, &n.w3, &n.b3, &n.w4, &n.b4, &n.w5, &n.b5,
        ] {
            w.f32s(v);
        }
        w.f64(self.fp_top1);
        w.f64(self.fp_top5);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let mut size = || r.u64().map(|v| v as usize);
        let (train_size, test_size, classes) = (size()?, size()?, size()?);
        let recipe = Recipe {
            train_size,
            test_size,
            classes,
            data_seed: r.u64()?,
            init_seed: r.u64()?,
            epochs: r.u64()? as usize,
            lr: r.f32()?,
            shuffle_seed: r.u64()?,
        };
        if train_size > MAX_SAMPLES
            || test_size > MAX_SAMPLES
            || !(1..=MAX_CLASSES).contains(&classes)
        {
            return Err(StoreError::Corrupt(format!(
                "implausible training recipe {recipe:?}"
            )));
        }
        let mut net = SynthNet::new(classes, recipe.init_seed);
        let n = &mut net;
        for slot in [
            &mut n.w1, &mut n.b1, &mut n.w2, &mut n.b2, &mut n.w3, &mut n.b3, &mut n.w4, &mut n.b4,
            &mut n.w5, &mut n.b5,
        ] {
            let stored = r.f32s()?;
            if stored.len() != slot.len() {
                return Err(StoreError::Corrupt(format!(
                    "{} weights where SynthNet has {}",
                    stored.len(),
                    slot.len()
                )));
            }
            *slot = stored;
        }
        let (fp_top1, fp_top5) = (r.f64()?, r.f64()?);
        let (train, test) = recipe.splits();
        Ok(TrainedSynthNet {
            recipe,
            net,
            train,
            test,
            fp_top1,
            fp_top5,
        })
    }
}

/// Computes and formats Fig 2.
pub fn run(fast: bool) -> String {
    let t = trained(fast);
    let mut rows = Vec::new();
    for ratio in RATIOS {
        let acc = crate::timing::timed(crate::timing::Phase::Eval, || {
            evaluate_synthnet(&t.net, &t.test, &t.train, &QuantSpec::paper_4bit(ratio), 5)
        });
        rows.push(vec![
            pct(ratio),
            pct(acc.top1),
            pct(acc.topk),
            pct(acc.realized_weight_ratio),
        ]);
    }
    let body = table(
        &["outlier ratio", "top-1", "top-5", "realized w-ratio"],
        &rows,
    );
    format!(
        "=== Fig 2: SynthNet accuracy vs outlier ratio (4-bit) ===\n\
         full precision: top-1 {} / top-5 {}\n{body}\n\
         Paper (ImageNet AlexNet): 0% outliers collapses accuracy; ~3.5% is within 1%\n\
         of full precision. The synthetic-task curve reproduces that shape.\n",
        pct(t.fp_top1),
        pct(t.fp_top5),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipe_key_separates_every_input() {
        let base = Recipe::of(true);
        assert_eq!(base.key(), Recipe::of(true).key());
        assert_ne!(base.key(), Recipe::of(false).key(), "fast vs full");
        let variants = [
            Recipe {
                train_size: 701,
                ..base
            },
            Recipe {
                test_size: 401,
                ..base
            },
            Recipe {
                classes: 11,
                ..base
            },
            Recipe {
                data_seed: 1,
                ..base
            },
            Recipe {
                init_seed: 1,
                ..base
            },
            Recipe { epochs: 9, ..base },
            Recipe { lr: 0.021, ..base },
            Recipe {
                shuffle_seed: 1,
                ..base
            },
        ];
        for v in variants {
            assert_ne!(base.key(), v.key(), "{v:?} must move the key");
        }
    }

    #[test]
    fn decode_rejects_misshapen_weights_and_implausible_recipes() {
        let tiny = Recipe {
            train_size: 4,
            test_size: 2,
            classes: 3,
            epochs: 1,
            ..Recipe::of(true)
        }
        .train();
        let decode = |t: &TrainedSynthNet| {
            let mut w = Writer::new();
            t.encode(&mut w);
            let bytes = w.into_bytes();
            TrainedSynthNet::decode(&mut Reader::new(&bytes))
        };
        let back = decode(&tiny).expect("a well-formed record decodes");
        assert_eq!(back.net.w4, tiny.net.w4);
        assert_eq!(back.test.images, tiny.test.images);

        let mut short = tiny.clone();
        short.net.b3.pop();
        assert!(decode(&short).is_err(), "a short bias must be rejected");
        let mut classes = tiny.clone();
        classes.recipe.classes = 4;
        assert!(decode(&classes).is_err(), "fc2 no longer fits the classes");
        for recipe in [
            Recipe {
                classes: 0,
                ..tiny.recipe
            },
            Recipe {
                train_size: MAX_SAMPLES + 1,
                ..tiny.recipe
            },
            Recipe {
                test_size: usize::MAX,
                ..tiny.recipe
            },
        ] {
            let bad = TrainedSynthNet {
                recipe,
                ..tiny.clone()
            };
            assert!(decode(&bad).is_err(), "{recipe:?} must be rejected");
        }
    }

    #[test]
    fn curve_recovers_with_outliers() {
        let t = super::TrainedSynthNet::train(true);
        assert!(t.fp_top1 > 0.7, "training failed: {}", t.fp_top1);
        let bad = ola_quant::accuracy::evaluate_synthnet(
            &t.net,
            &t.test,
            &t.train,
            &ola_quant::accuracy::QuantSpec::paper_4bit(0.0),
            5,
        );
        let good = ola_quant::accuracy::evaluate_synthnet(
            &t.net,
            &t.test,
            &t.train,
            &ola_quant::accuracy::QuantSpec::paper_4bit(0.03),
            5,
        );
        assert!(good.top1 >= bad.top1);
        assert!(
            t.fp_top1 - good.top1 < 0.1,
            "3% outliers should nearly recover FP accuracy"
        );
    }
}
