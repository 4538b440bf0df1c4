//! Fig 14: normalized energy and cycles of AlexNet on OLAccel16 versus
//! outlier ratio (0% to 3.5%). The paper: 3.5% outliers cost +20.6% energy
//! and +10.6% cycles over the 0% baseline while restoring accuracy.

use crate::prep::{default_scale, workloads};
use crate::report::{num, pct, table};
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_sim::QuantPolicy;

/// Sweep points (the paper's x-axis).
pub const RATIOS: [f64; 6] = [0.0, 0.005, 0.01, 0.02, 0.03, 0.035];

/// Computes and formats Fig 14.
pub fn run(fast: bool) -> String {
    let scale = default_scale("alexnet", fast);
    let sim = OlAccelSim::new(TechParams::default(), ComparisonMode::Bits16);

    let mut base: Option<(f64, f64)> = None;
    let mut rows = Vec::new();
    for ratio in RATIOS {
        let mut policy = QuantPolicy::olaccel16("alexnet");
        policy.outlier_ratio = ratio;
        let ws = workloads("alexnet", scale, &policy);
        let run = sim.simulate(&ws);
        let cycles = run.total_cycles() as f64;
        let energy = run.total_energy().total();
        let (c0, e0) = *base.get_or_insert((cycles, energy));
        rows.push(vec![
            pct(ratio),
            num(cycles / c0),
            num(energy / e0),
            pct(cycles / c0 - 1.0),
            pct(energy / e0 - 1.0),
        ]);
    }
    let body = table(
        &[
            "outlier ratio",
            "cycles (norm)",
            "energy (norm)",
            "cycle cost",
            "energy cost",
        ],
        &rows,
    );
    format!(
        "=== Fig 14: AlexNet on OLAccel16 vs outlier ratio ===\n{body}\n\
         Paper at 3.5%: +10.6% cycles, +20.6% energy vs the 0% baseline\n\
         (accuracy recovery measured separately in Fig 2).\n"
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn costs_grow_with_ratio() {
        let r = super::run(true);
        assert!(r.contains("3.5%"));
        // The last row's overheads must be positive.
        let last = r
            .lines()
            .rev()
            .find(|l| l.trim_start().starts_with("3.5%"))
            .unwrap();
        assert!(!last.contains("-"), "overheads should be positive: {last}");
    }
}
