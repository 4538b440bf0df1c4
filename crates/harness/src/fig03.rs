//! Fig 3: accuracy of the five networks at 4 bits with their per-network
//! outlier ratios (AlexNet 3.5%, VGG-16 1%, ResNet-18/101 3%, DenseNet 3%).
//!
//! Ground truth comes from the trained SynthNet (Fig 2's setup); the five
//! ImageNet networks are reported through the documented SQNR surrogate of
//! [`ola_quant::accuracy`] applied to their synthetic trained-like weights —
//! a correspondence check, not an ImageNet measurement (DESIGN.md §2).
//!
//! Each network's pair of SQNRs is one memoized, persisted stage
//! (`SURROGATE`, DESIGN.md §18): a warm run synthesizes no zoo network.

use crate::fig02::trained;
use crate::report::{pct, table};
use ola_nn::synth::{synthesize_params, weight_values, SynthConfig};
use ola_nn::zoo::{self, ZooConfig};
use ola_quant::accuracy::{evaluate_synthnet, mean_weight_sqnr_db, surrogate_top5_drop, QuantSpec};
use ola_sim::policy::default_ratio;
use ola_store::wire::{Reader, Writer};
use ola_store::{surrogate_version, Artifact, StoreError};
use ola_tensor::memo::{Fingerprint, Stage};
use std::sync::{Arc, LazyLock};

/// The surrogate's networks, in row order.
const NETWORKS: [&str; 5] = ["alexnet", "vgg16", "resnet18", "resnet101", "densenet121"];

/// The zoo spatial scale the surrogate synthesizes weights at.
const SCALE: usize = 8;

/// Published full-precision top-5 accuracies (for the drop presentation).
fn fp_top5(network: &str) -> f64 {
    match network {
        "alexnet" => 0.803,
        "vgg16" => 0.901,
        "resnet18" => 0.890,
        "resnet101" => 0.936,
        "densenet121" => 0.923,
        _ => f64::NAN,
    }
}

/// The outlier ratio `network` runs at and the quantizer spec the
/// surrogate scores it under.
fn network_spec(network: &str) -> (f64, QuantSpec) {
    let ratio = if network == "alexnet" {
        0.035
    } else {
        default_ratio(network)
    };
    let spec = QuantSpec {
        first_layer_weight_bits: if network.starts_with("resnet") { 8 } else { 4 },
        ..QuantSpec::paper_4bit(ratio)
    };
    (ratio, spec)
}

/// Per-layer weight populations of a zoo network (sampled for generators).
fn layer_weights(network: &str) -> Vec<Vec<f32>> {
    let cfg = ZooConfig {
        spatial_scale: SCALE,
        include_classifier: true,
        batch: 1,
    };
    let net = zoo::by_name(network, &cfg);
    let mut params = synthesize_params(&net, &SynthConfig::for_network(network));
    net.compute_nodes()
        .iter()
        .map(|&id| {
            let values = weight_values(&params, id);
            // Drop each layer once copied, so the network is never held
            // twice: ResNet-101's weights alone are ~180 MB, and holding
            // them twice would set the fast suite's peak RSS.
            params.take_weights(id);
            values
        })
        .collect()
}

/// One network's mean weight SQNRs (dB): under its outlier-aware spec and
/// under the plain linear baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SurrogateSqnr {
    /// Under the network's outlier-aware spec.
    pub sqnr: f64,
    /// Under plain 4-bit linear quantization.
    pub sqnr0: f64,
}

/// The stage key: the network, the zoo scale and synthesis seed its
/// weights come from, and every [`QuantSpec`] field
/// [`mean_weight_sqnr_db`] reads, for both specs.
fn surrogate_key(network: &str, scale: usize, synth_seed: u64, specs: [&QuantSpec; 2]) -> u64 {
    let mut fp = Fingerprint::new();
    fp.str(network).usize(scale).u64(synth_seed);
    for s in specs {
        fp.u8(s.low_bits)
            .u8(s.weight_high_bits)
            .u8(s.first_layer_weight_bits)
            .f64(s.outlier_ratio);
    }
    fp.finish()
}

/// The process-wide surrogate stage, keyed by [`surrogate_key`].
pub(crate) static SURROGATE: LazyLock<Stage<SurrogateSqnr>> = LazyLock::new(Stage::new);

/// Fetches `network`'s surrogate SQNRs from the stage: from memory, else
/// the disk store, else synthesized and scored (exactly once per process
/// and key). A hit synthesizes nothing.
pub fn surrogate(network: &str) -> Arc<SurrogateSqnr> {
    let (_, spec) = network_spec(network);
    // The plain 4-bit linear baseline every network is also scored under.
    let linear = QuantSpec::paper_4bit(0.0);
    let seed = SynthConfig::for_network(network).seed;
    let key = surrogate_key(network, SCALE, seed, [&spec, &linear]);
    SURROGATE.get(key, || {
        let weights = layer_weights(network);
        SurrogateSqnr {
            sqnr: mean_weight_sqnr_db(&weights, &spec),
            sqnr0: mean_weight_sqnr_db(&weights, &linear),
        }
    })
}

/// The persisted form of a surrogate result: both SQNRs by bit pattern.
impl Artifact for SurrogateSqnr {
    const KIND: u8 = 7;
    const PREFIX: &'static str = "surrogate";
    fn version() -> u64 {
        surrogate_version()
    }
    fn encode(&self, w: &mut Writer) {
        w.f64(self.sqnr);
        w.f64(self.sqnr0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(SurrogateSqnr {
            sqnr: r.f64()?,
            sqnr0: r.f64()?,
        })
    }
}

/// Computes and formats Fig 3.
pub fn run(fast: bool) -> String {
    // Measured path: SynthNet at the AlexNet operating point.
    let t = trained(fast);
    let measured = crate::timing::timed(crate::timing::Phase::Eval, || {
        evaluate_synthnet(&t.net, &t.test, &t.train, &QuantSpec::paper_4bit(0.035), 5)
    });

    // Surrogate path: the five ImageNet networks.
    let mut rows = Vec::new();
    for network in NETWORKS {
        let (ratio, _) = network_spec(network);
        let SurrogateSqnr { sqnr, sqnr0 } = *surrogate(network);
        let drop = surrogate_top5_drop(sqnr);
        let drop0 = surrogate_top5_drop(sqnr0);
        let fp = fp_top5(network);
        rows.push(vec![
            network.to_string(),
            pct(ratio),
            format!("{sqnr:.1} dB"),
            pct(fp),
            pct((fp - drop / 100.0).max(0.0)),
            pct((fp - drop0 / 100.0).max(0.0)),
        ]);
    }
    let body = table(
        &[
            "network",
            "ratio",
            "w-SQNR",
            "FP top-5",
            "est. OLA top-5",
            "est. linear-4b top-5",
        ],
        &rows,
    );
    format!(
        "=== Fig 3: 4-bit + outliers across networks ===\n\
         Measured (SynthNet proxy @3.5% outliers): top-1 {} (FP {}), top-5 {} (FP {})\n\n\
         SQNR surrogate for the ImageNet networks (documented stand-in, DESIGN.md §2):\n{body}\n\
         Paper: every network stays within ~1% of its full-precision top-5 at its ratio,\n\
         while plain 4-bit linear quantization collapses.\n",
        pct(measured.top1),
        pct(t.fp_top1),
        pct(measured.topk),
        pct(t.fp_top5),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surrogate_key_separates_every_input() {
        let (_, spec) = network_spec("alexnet");
        let linear = QuantSpec::paper_4bit(0.0);
        let key = surrogate_key;
        let base = key("alexnet", SCALE, 1, [&spec, &linear]);
        // Stable for identical inputs. The surrogate runs at one scale in
        // both modes, so fast and full share their records.
        assert_eq!(base, key("alexnet", SCALE, 1, [&spec, &linear]));
        assert_ne!(base, key("vgg16", SCALE, 1, [&spec, &linear]));
        assert_ne!(base, key("alexnet", 4, 1, [&spec, &linear]));
        assert_ne!(base, key("alexnet", SCALE, 2, [&spec, &linear]));
        assert_ne!(base, key("alexnet", SCALE, 1, [&linear, &spec]));
        let fields = [
            QuantSpec {
                low_bits: 3,
                ..spec
            },
            QuantSpec {
                weight_high_bits: 16,
                ..spec
            },
            QuantSpec {
                first_layer_weight_bits: 8,
                ..spec
            },
            QuantSpec {
                outlier_ratio: 0.03,
                ..spec
            },
        ];
        for s in &fields {
            assert_ne!(base, key("alexnet", SCALE, 1, [s, &linear]), "{s:?}");
            assert_ne!(base, key("alexnet", SCALE, 1, [&spec, s]), "{s:?}");
        }
        // Every network's own spec keys its own record.
        let mut keys: Vec<u64> = NETWORKS
            .iter()
            .map(|n| {
                let seed = SynthConfig::for_network(n).seed;
                key(n, SCALE, seed, [&network_spec(n).1, &linear])
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), NETWORKS.len());
    }

    #[test]
    fn surrogate_separates_outlier_aware_from_linear() {
        let weights = layer_weights("resnet18");
        let ola = mean_weight_sqnr_db(&weights, &QuantSpec::paper_4bit(0.03));
        let lin = mean_weight_sqnr_db(&weights, &QuantSpec::paper_4bit(0.0));
        assert!(ola > lin + 5.0, "outlier-aware {ola} dB vs linear {lin} dB");
        assert!(
            surrogate_top5_drop(ola) < 5.0,
            "drop {}",
            surrogate_top5_drop(ola)
        );
        assert!(surrogate_top5_drop(lin) > 10.0);
    }
}
