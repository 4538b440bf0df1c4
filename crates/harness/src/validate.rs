//! Cross-validation of the closed-form cycle model against the detailed
//! event-driven cluster simulation (DESIGN.md §7) on real layer workloads.
//!
//! Every compute layer of the network is simulated — the event path streams
//! its unit jobs in O(1) memory (`ola-core::event::JobStream`), so there is
//! no longer a unit-count cap sampling the layer list. Layers fan out over
//! [`ola_tensor::par::ordered_map`]'s worker threads and the report is
//! assembled in forward layer order, so stdout is byte-identical at any
//! worker count. `validate` covers AlexNet; `validate-<network>` runs the
//! same cross-check on any zoo network.

use crate::prep::{default_scale, workloads};
use crate::report::{num, table};
use ola_core::cost::GroupTuning;
use ola_core::event::{validate_layer, EventConfig};
use ola_sim::timing::{timed, Phase};
use ola_sim::QuantPolicy;
use ola_tensor::par::{jobs, ordered_map};

/// Runs the validation on AlexNet's layers and formats the comparison.
pub fn run(fast: bool) -> String {
    run_network("alexnet", fast)
}

/// Runs the validation on every compute layer of `network`.
pub fn run_network(network: &str, fast: bool) -> String {
    let policy = QuantPolicy::olaccel16(network);
    let ws = workloads(network, default_scale(network, fast), &policy);
    let tuning = GroupTuning::default();
    let cfg = EventConfig::default();

    // Model-phase work under the thread's worker budget; each validation is
    // memoized in the global `SimCache` via `ola_core::event::cluster_record`.
    let results = timed(Phase::Model, || {
        ordered_map(&ws.layers, jobs(), |_, l| validate_layer(l, &tuning, &cfg))
    });

    let mut rows = Vec::new();
    let mut worst: f64 = 0.0;
    for (l, &(event, analytic)) in ws.layers.iter().zip(&results) {
        let rel = (event as f64 - analytic as f64) / analytic.max(1) as f64;
        worst = worst.max(rel.abs());
        rows.push(vec![
            l.name.clone(),
            format!("{event}"),
            format!("{analytic}"),
            num(rel * 100.0),
        ]);
    }
    let body = table(&["layer", "event-driven", "closed-form", "error %"], &rows);
    format!(
        "=== Model validation ({network}): event-driven vs closed-form cluster cycles ===\n\
         {body}\n\
         All {} layers simulated unit-by-unit (streaming jobs, layer-parallel).\n\
         Worst per-layer disagreement: {:.2}% (dynamic dispatch makes greedy list\n\
         scheduling nearly work-conserving, which the closed form assumes).\n",
        ws.layers.len(),
        worst * 100.0
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn models_agree_on_real_layers() {
        let r = super::run(true);
        assert!(r.contains("conv2"));
        // Every AlexNet compute layer is covered — no sampling.
        assert!(r.contains("All 8 layers simulated"));
        // Worst disagreement stays small.
        let worst: f64 = r
            .split("Worst per-layer disagreement: ")
            .nth(1)
            .and_then(|s| s.split('%').next())
            .and_then(|s| s.parse().ok())
            .expect("worst line");
        assert!(worst < 3.0, "models disagree by {worst}%");
    }
}
