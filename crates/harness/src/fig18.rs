//! Fig 18: utilization breakdown (Run / Skip / Idle) of OLAccel16's PE
//! groups across AlexNet's conv layers, next to the non-zero activation
//! ratio that drives it.

use crate::prep::{default_scale, workloads};
use crate::report::{bar, pct, table};
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_sim::{LayerKind, QuantPolicy};

/// Computes and formats Fig 18.
pub fn run(fast: bool) -> String {
    let policy = QuantPolicy::olaccel16("alexnet");
    let ws = workloads("alexnet", default_scale("alexnet", fast), &policy);
    let sim = OlAccelSim::new(TechParams::default(), ComparisonMode::Bits16);
    let run = sim.simulate(&ws);

    let mut rows = Vec::new();
    for (l, r) in ws.layers.iter().zip(&run.layers) {
        if l.kind != LayerKind::Conv {
            continue;
        }
        // The decomposition is lossless (run + skip + idle accounts every
        // group-cycle — the conservation law of DESIGN.md §5), so the
        // fractions below always sum to one.
        let total = r.utilization.total().max(1) as f64;
        let runf = r.utilization.run_cycles as f64 / total;
        let skipf = r.utilization.skip_cycles as f64 / total;
        let idlef = r.utilization.idle_cycles as f64 / total;
        rows.push(vec![
            l.name.clone(),
            pct(1.0 - l.act_zero_fraction),
            pct(runf),
            pct(skipf),
            pct(idlef),
            bar(runf, 20),
        ]);
    }
    let body = table(
        &["layer", "non-zero", "run", "skip", "idle", "run bar"],
        &rows,
    );
    format!(
        "=== Fig 18: OLAccel16 utilization breakdown on AlexNet convs ===\n{body}\n\
         Paper: Run tracks the non-zero ratio; Skip grows where zeros dominate\n\
         (the 4-wide scanner burns a cycle per all-zero quad), up to ~20%.\n"
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_all_convs() {
        let r = super::run(true);
        for name in ["conv1", "conv2", "conv3", "conv4", "conv5"] {
            assert!(r.contains(name), "missing {name}");
        }
    }
}
