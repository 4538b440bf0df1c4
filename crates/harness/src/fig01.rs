//! Fig 1: the weight distribution of AlexNet conv2 under (a) full
//! precision, (b) 4-bit linear quantization, and (c) 4-bit outlier-aware
//! quantization — the motivating picture: linear quantization wastes its 16
//! levels spanning the outliers, outlier-aware quantization spends them on
//! the bulk.
//!
//! Only conv2 is synthesized: a layer's weights are a pure function of the
//! synthesis seed, its node id and its conv position (DESIGN.md §13), and
//! sparsity shaping touches biases alone, so these are exactly the weights
//! of the prepared AlexNet every other figure runs on.

use crate::prep::{default_scale, synth_config, zoo_config, DEFAULT_SEED};
use crate::report::{bar, num, table};
use crate::timing;
use ola_nn::synth::synthesize_node;
use ola_nn::zoo;
use ola_quant::linear::LinearQuantizer;
use ola_quant::metrics::sqnr_db;
use ola_quant::outlier::OutlierQuantizer;
use ola_tensor::stats::Histogram;

fn histogram_rows(values: &[f32], lo: f64, hi: f64, bins: usize) -> Vec<Vec<String>> {
    let mut h = Histogram::new(lo, hi, bins);
    h.extend(values.iter().copied());
    let max = h.counts().iter().copied().max().unwrap_or(1).max(1);
    (0..bins)
        .map(|i| {
            let count = h.counts()[i];
            // Log-scale bar, like the paper's log-count axis.
            let frac = if count == 0 {
                0.0
            } else {
                (count as f64).ln() / (max as f64).ln()
            };
            vec![num(h.bin_center(i)), format!("{count}"), bar(frac, 30)]
        })
        .collect()
}

/// Computes and formats Fig 1.
pub fn run(fast: bool) -> String {
    // conv2 weights (the layer the paper plots).
    let weights = timing::timed(timing::Phase::Synthesize, || {
        let net = zoo::by_name("alexnet", &zoo_config(default_scale("alexnet", fast)));
        let conv2 = net
            .nodes()
            .iter()
            .position(|n| n.name == "conv2")
            .expect("alexnet has conv2");
        let conv2 = synthesize_node(&net, conv2, &synth_config("alexnet", DEFAULT_SEED));
        let mut weights = conv2.weights.expect("conv2 has weights").into_values();
        weights.retain(|&v| v != 0.0);
        weights
    });

    let span = weights.iter().fold(0.0_f32, |m, &v| m.max(v.abs())) as f64;
    let full = histogram_rows(&weights, -span, span, 32);

    let lin = LinearQuantizer::fit_symmetric(4, &weights).expect("non-zero weights");
    let lin_vals = lin.fake_quantize(&weights);
    let lin_hist = histogram_rows(&lin_vals, -span, span, 32);

    let ola = OutlierQuantizer::fit(&weights, 0.035, 4, 8);
    let ola_vals = ola.fake_quantize(&weights);
    let ola_hist = histogram_rows(&ola_vals, -span, span, 32);

    let lin_sqnr = sqnr_db(&weights, &lin_vals);
    let ola_sqnr = sqnr_db(&weights, &ola_vals);

    format!(
        "=== Fig 1: AlexNet conv2 weight distribution (log-scale bars) ===\n\
         (a) full precision:\n{}\n(b) 4-bit linear (SQNR {:.1} dB):\n{}\n\
         (c) 4-bit outlier-aware, 3.5% outliers (SQNR {:.1} dB):\n{}\n\
         Linear quantization collapses the bulk onto a handful of coarse levels spanning\n\
         the outliers; outlier-aware keeps a fine grid for the bulk and exact outliers.\n",
        table(&["center", "count", "log count"], &full),
        lin_sqnr,
        table(&["center", "count", "log count"], &lin_hist),
        ola_sqnr,
        table(&["center", "count", "log count"], &ola_hist),
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn outlier_sqnr_beats_linear() {
        let r = super::run(true);
        assert!(r.contains("full precision"));
        // Extract the two SQNR numbers and compare.
        let lin: f64 = r
            .split("linear (SQNR ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("linear SQNR in report");
        let ola: f64 = r
            .split("outliers (SQNR ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("outlier SQNR in report");
        assert!(ola > lin + 3.0, "outlier-aware {ola} dB vs linear {lin} dB");
    }
}
