//! Fig 15: scalability on AlexNet — speedup versus NPU count (1-16) at
//! batch sizes 1, 4, 16, for OLAccel (16-bit outliers) and ZeNA, normalized
//! to ZeNA with batch 1 on one NPU.

use crate::prep::{default_scale, workloads};
use crate::report::{num, table};
use ola_baselines::ZenaSim;
use ola_core::scale::{speedup, ScaleParams};
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_sim::QuantPolicy;

/// NPU counts on the x-axis.
pub const NPUS: [usize; 5] = [1, 2, 4, 8, 16];
/// Batch sizes.
pub const BATCHES: [usize; 3] = [1, 4, 16];

/// Computes and formats Fig 15.
pub fn run(fast: bool) -> String {
    let policy = QuantPolicy::olaccel16("alexnet");
    let ws16 = workloads("alexnet", default_scale("alexnet", fast), &policy);
    let tech = TechParams::default();
    let p = ScaleParams::default();

    let ola = OlAccelSim::new(tech, ComparisonMode::Bits16);
    let zena = ZenaSim::new(tech, ComparisonMode::Bits16);
    let ola_run = ola.simulate(&ws16);
    let zena_run = zena.simulate(&ws16);
    let ola_cycles = ola_run.total_cycles();
    let zena_cycles = zena_run.total_cycles();
    let ola_dram = ola.dram_bits(&ws16);
    let zena_dram = zena.dram_bits(&ws16);

    // The NPU×batch grid rides on the two base simulations above (cached
    // in the global `SimCache`); rows evaluate in parallel and assemble in
    // axis order, so the table is byte-identical at any worker count.
    let rows = ola_tensor::par::ordered_map(&NPUS, ola_tensor::par::jobs(), |_, &npus| {
        let mut row = vec![format!("{npus}")];
        for batch in BATCHES {
            row.push(num(speedup(
                ola_cycles,
                ola_dram,
                npus,
                batch,
                zena_cycles,
                &p,
            )));
        }
        for batch in BATCHES {
            row.push(num(speedup(
                zena_cycles,
                zena_dram,
                npus,
                batch,
                zena_cycles,
                &p,
            )));
        }
        row
    });
    let body = table(
        &[
            "NPUs", "OLA b1", "OLA b4", "OLA b16", "ZeNA b1", "ZeNA b4", "ZeNA b16",
        ],
        &rows,
    );
    format!(
        "=== Fig 15: AlexNet scalability (speedup vs ZeNA, 1 NPU, batch 1) ===\n{body}\n\
         Paper: batch 4/16 scale well; batch 1 saturates by 16 NPUs; OLAccel batch 4\n\
         edges out batch 16 (off-chip bandwidth).\n"
    )
}

#[cfg(test)]
mod tests {
    #[test]
    fn scaling_shape() {
        let r = super::run(true);
        assert!(r.contains("OLA b4"));
        assert!(r.contains("16"));
    }
}
