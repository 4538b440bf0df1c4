//! ZeNA model: zero-aware execution skipping both zero weights and zero
//! activations (Kim et al., the paper's strongest baseline).

use ola_energy::config::{AcceleratorConfig, ComparisonMode, MemoryConfig};
use ola_energy::dram::dram_energy;
use ola_energy::mac::mac_energy;
use ola_energy::sram::Sram;
use ola_energy::{EnergyBreakdown, TechParams};
use ola_sim::traffic::{buffer_traffic_bits, dense_act_bits, dense_out_bits, dense_weight_bits};
use ola_sim::{LayerRun, LayerWorkload, NetworkRun, Utilization, WorkloadSet};

/// Model calibration knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZenaTuning {
    /// Load-imbalance factor across PEs: non-zero pairs do not distribute
    /// perfectly, and work-stealing has overhead.
    pub imbalance: f64,
    /// Extra metadata bits handled per effective op (non-zero index
    /// bookkeeping).
    pub meta_bits_per_op: f64,
    /// Per-PE scratchpad capacity in bits.
    pub spad_bits: u64,
}

impl Default for ZenaTuning {
    fn default() -> Self {
        ZenaTuning {
            imbalance: 1.79,
            meta_bits_per_op: 8.0,
            spad_bits: 220 * 8,
        }
    }
}

/// The ZeNA simulator for one comparison mode.
#[derive(Clone, Debug)]
pub struct ZenaSim {
    tech: TechParams,
    config: AcceleratorConfig,
    tuning: ZenaTuning,
}

impl ZenaSim {
    /// Builds the 168-PE configuration for `mode`.
    ///
    /// # Example
    ///
    /// ```
    /// use ola_baselines::ZenaSim;
    /// use ola_energy::{ComparisonMode, TechParams};
    ///
    /// let sim = ZenaSim::new(TechParams::default(), ComparisonMode::Bits16);
    /// assert_eq!(sim.config().pe_count, 168);
    /// assert_eq!(sim.label(), "ZeNA16");
    /// ```
    pub fn new(tech: TechParams, mode: ComparisonMode) -> Self {
        ZenaSim {
            config: AcceleratorConfig::zena(&tech, mode),
            tech,
            tuning: ZenaTuning::default(),
        }
    }

    /// Overrides the tuning.
    pub fn with_tuning(mut self, tuning: ZenaTuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// The resolved configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Display label, e.g. `"ZeNA16"`.
    pub fn label(&self) -> String {
        format!("ZeNA{}", self.config.mode.bits())
    }

    /// Effective (executed) MACs of a layer: only pairs where both the
    /// weight and the activation are non-zero.
    pub fn effective_macs(&self, l: &LayerWorkload) -> f64 {
        l.macs as f64 * (1.0 - l.act_zero_fraction) * (1.0 - l.weight_zero_fraction)
    }

    /// Simulates one layer.
    pub fn simulate_layer(&self, l: &LayerWorkload, mem: &MemoryConfig) -> LayerRun {
        let pes = self.config.pe_count as f64;
        let eff = self.effective_macs(l);
        let cycles = (eff * self.tuning.imbalance / pes).ceil() as u64;

        let bits = self.config.mode.bits();
        let logic = eff * mac_energy(&self.tech, bits, bits, bits + 8)
            + eff * self.tech.control_energy_per_op;

        let spad = Sram::new(&self.tech, self.tuning.spad_bits);
        let acc = (bits + 8) as f64;
        let local_bits = eff * (2.0 * bits as f64 + 2.0 * acc + self.tuning.meta_bits_per_op);
        let local = local_bits * spad.energy_per_bit();

        // Dense full-precision tensors through DRAM once (the skip machinery
        // is on-chip; the memory system is shared with the other
        // accelerators per Table I); activations re-read per weight tile.
        let w_bits = dense_weight_bits(l, bits);
        let dram_traffic = dense_act_bits(l, bits) + w_bits + dense_out_bits(l, bits);
        let buffer_sram = Sram::new(&self.tech, mem.total_bits());
        let buffer_traffic = buffer_traffic_bits(
            dense_act_bits(l, bits),
            w_bits,
            dense_out_bits(l, bits),
            mem.weight_bits,
        );
        let buffer = buffer_sram.access_energy(buffer_traffic);
        let dram = dram_energy(&self.tech, dram_traffic);

        let run_cycles = (eff / pes).ceil() as u64;
        LayerRun {
            name: l.name.clone(),
            cycles,
            energy: EnergyBreakdown {
                dram,
                buffer,
                local,
                logic,
            },
            utilization: Utilization {
                run_cycles,
                skip_cycles: 0,
                idle_cycles: cycles.saturating_sub(run_cycles),
            },
            chunk_cycle_hist: Vec::new(),
        }
    }

    /// [`ola_sim::SimCache`] key of one layer under this simulator: the
    /// layer's content fingerprint folded with every configuration input
    /// [`ZenaSim::simulate_layer`] reads.
    fn sim_key(&self, l: &LayerWorkload, mem: &MemoryConfig) -> u64 {
        let mut fp = ola_tensor::memo::Fingerprint::new();
        fp.str("zena")
            .u32(self.config.mode.bits())
            .usize(self.config.pe_count);
        for b in self.tech.field_bits() {
            fp.u64(b);
        }
        fp.f64(self.tuning.imbalance)
            .f64(self.tuning.meta_bits_per_op)
            .u64(self.tuning.spad_bits)
            .u64(mem.act_bits)
            .u64(mem.weight_bits)
            .u64(l.fingerprint());
        fp.finish()
    }

    /// Simulates every layer of a workload set, layer-parallel under the
    /// thread's worker budget and memoized in the global
    /// [`ola_sim::SimCache`] (see `OlAccelSim::simulate` in `ola-core` for
    /// the shared determinism argument).
    pub fn simulate(&self, ws: &WorkloadSet) -> NetworkRun {
        let mem = MemoryConfig::for_network(&ws.network, self.config.mode);
        ola_sim::SimCache::global().simulate_network(
            self.label(),
            ws,
            |l| self.sim_key(l, &mem),
            |l| self.simulate_layer(l, &mem),
        )
    }

    /// DRAM traffic bits per inference.
    pub fn dram_bits(&self, ws: &WorkloadSet) -> u64 {
        let bits = self.config.mode.bits();
        ws.layers
            .iter()
            .map(|l| dense_act_bits(l, bits) + dense_weight_bits(l, bits) + dense_out_bits(l, bits))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eyeriss::EyerissSim;
    use ola_sim::workload::{LayerKind, Shape4Ser};

    fn test_layer(macs: u64, act_zero: f64, w_zero: f64) -> LayerWorkload {
        LayerWorkload {
            name: "conv".into(),
            index: 1,
            kind: LayerKind::Conv,
            in_shape: Shape4Ser {
                n: 1,
                c: 64,
                h: 16,
                w: 16,
            },
            out_shape: Shape4Ser {
                n: 1,
                c: 64,
                h: 16,
                w: 16,
            },
            kernel: 3,
            macs,
            weight_count: 64 * 64 * 9,
            weight_bits: 4,
            act_bits: 4,
            weight_zero_fraction: w_zero,
            act_zero_fraction: act_zero,
            weight_outlier_ratio: 0.03,
            act_outlier_nonzero_ratio: 0.03,
            act_effective_outlier_ratio: 0.02,
            chunk_nnz: vec![(16.0 * (1.0 - act_zero)) as u8; 256],
            chunk_zero_quads: vec![0; 256],
            wchunk_single_fraction: 0.2,
            wchunk_multi_fraction: 0.05,
            out_zero_fraction: 0.4,
        }
    }

    #[test]
    fn skipping_shortens_execution() {
        let sim = ZenaSim::new(TechParams::default(), ComparisonMode::Bits16);
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let dense = sim.simulate_layer(&test_layer(10_000_000, 0.0, 0.0), &mem);
        let sparse = sim.simulate_layer(&test_layer(10_000_000, 0.5, 0.6), &mem);
        // (1-0.5)(1-0.6) = 0.2 of the work remains.
        let ratio = sparse.cycles as f64 / dense.cycles as f64;
        assert!((ratio - 0.2).abs() < 0.02, "cycle ratio {ratio}");
    }

    #[test]
    fn zena_beats_eyeriss_on_pruned_nets() {
        // The paper quotes ZeNA's 4.4x AlexNet speedup over dense execution.
        let tech = TechParams::default();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let l = test_layer(100_000_000, 0.45, 0.60);
        let ez = ZenaSim::new(tech, ComparisonMode::Bits16).simulate_layer(&l, &mem);
        let ee = EyerissSim::new(tech, ComparisonMode::Bits16).simulate_layer(&l, &mem);
        let speedup = ee.cycles as f64 / ez.cycles as f64;
        assert!((3.0..6.0).contains(&speedup), "ZeNA speedup {speedup}");
    }

    #[test]
    fn same_cycles_both_modes() {
        let l = test_layer(50_000_000, 0.4, 0.6);
        let mem16 = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let mem8 = MemoryConfig::for_network("alexnet", ComparisonMode::Bits8);
        let c16 = ZenaSim::new(TechParams::default(), ComparisonMode::Bits16)
            .simulate_layer(&l, &mem16)
            .cycles;
        let c8 = ZenaSim::new(TechParams::default(), ComparisonMode::Bits8)
            .simulate_layer(&l, &mem8)
            .cycles;
        assert_eq!(c16, c8);
    }

    #[test]
    fn utilization_reflects_imbalance() {
        let sim = ZenaSim::new(TechParams::default(), ComparisonMode::Bits16);
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let run = sim.simulate_layer(&test_layer(10_000_000, 0.5, 0.5), &mem);
        assert!(run.utilization.idle_cycles > 0);
        assert_eq!(run.utilization.total(), run.cycles);
    }
}
