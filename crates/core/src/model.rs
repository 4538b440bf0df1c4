//! The OLAccel cycle/energy model.

use crate::cost::{layer_cost, GroupTuning};
use crate::dispatch::makespan_analytic;
use ola_energy::config::{AcceleratorConfig, ComparisonMode, MemoryConfig, GROUPS_PER_CLUSTER};
use ola_energy::dram::dram_energy;
use ola_energy::mac::mac_energy;
use ola_energy::sram::Sram;
use ola_energy::{EnergyBreakdown, TechParams};
use ola_sim::traffic::{
    buffer_traffic_bits, olaccel_act_bits, olaccel_out_bits, olaccel_weight_bits,
};
use ola_sim::{LayerRun, LayerWorkload, NetworkRun, Utilization, WorkloadSet};

/// Model calibration knobs beyond the PE-group microarchitecture.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tuning {
    /// PE-group microarchitecture.
    pub group: GroupTuning,
    /// Multiplicative overhead on dense-path cycles: cluster buffer refills,
    /// weight-chunk streaming, and control bubbles the chunk cost model does
    /// not see. Calibrated against the paper's Fig 11 cycle anchors.
    pub dispatch_overhead: f64,
    /// Pipelined accumulation drain cycles charged per layer (tri-buffer
    /// handoff between the normal and outlier accumulation units).
    pub accum_drain: u64,
    /// Group-local buffer capacity in bits (prices "local" accesses).
    pub local_buffer_bits: u64,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning {
            group: GroupTuning::default(),
            dispatch_overhead: 1.23,
            accum_drain: 32,
            local_buffer_bits: 2 * 1024 * 8,
        }
    }
}

/// The OLAccel simulator for one comparison mode.
#[derive(Clone, Debug)]
pub struct OlAccelSim {
    tech: TechParams,
    config: AcceleratorConfig,
    tuning: Tuning,
}

impl OlAccelSim {
    /// Builds the ISO-area configuration for `mode` (8 clusters / 768 MACs
    /// at 16-bit, 6 clusters / 576 MACs at 8-bit).
    ///
    /// # Example
    ///
    /// ```
    /// use ola_core::OlAccelSim;
    /// use ola_energy::{ComparisonMode, TechParams};
    ///
    /// let sim = OlAccelSim::new(TechParams::default(), ComparisonMode::Bits16);
    /// assert_eq!(sim.config().pe_count, 768);
    /// assert_eq!(sim.label(), "OLAccel16");
    /// ```
    pub fn new(tech: TechParams, mode: ComparisonMode) -> Self {
        OlAccelSim {
            config: AcceleratorConfig::olaccel(&tech, mode),
            tech,
            tuning: Tuning::default(),
        }
    }

    /// Overrides the model tuning (ablation benches).
    pub fn with_tuning(mut self, tuning: Tuning) -> Self {
        self.tuning = tuning;
        self
    }

    /// Overrides the cluster count (Fig 15 scalability sweeps build bigger
    /// swarms from the same model).
    pub fn with_clusters(mut self, clusters: usize) -> Self {
        self.config.clusters = clusters;
        self.config.pe_count = clusters * GROUPS_PER_CLUSTER * 16;
        self
    }

    /// The resolved configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Display label, e.g. `"OLAccel16"`.
    pub fn label(&self) -> String {
        format!("OLAccel{}", self.config.mode.bits())
    }

    /// Simulates one layer.
    pub fn simulate_layer(&self, l: &LayerWorkload, mem: &MemoryConfig) -> LayerRun {
        let groups = (self.config.clusters * GROUPS_PER_CLUSTER).max(1);
        let lc = layer_cost(l, &self.tuning.group);

        // ---- dense datapath cycles ----
        // The end-of-stream imbalance tail is bounded by the layer's actual
        // worst chunk (including multi-outlier second passes), the same
        // quantity the event-driven path realizes job by job.
        let dense =
            makespan_analytic(lc.total(), lc.max_chunk, groups) * self.tuning.dispatch_overhead;

        // ---- outlier datapath cycles (one outlier PE group per cluster) ----
        let outlier_broadcast_total = self.outlier_broadcasts(l);
        let outlier = outlier_broadcast_total / self.config.clusters.max(1) as f64;

        let cycles = dense.max(outlier).round() as u64 + self.tuning.accum_drain;

        // ---- utilization decomposition (dense PE groups' view) ----
        let run_cycles = (lc.run / groups as f64).round() as u64;
        let skip_cycles = (lc.skip / groups as f64).round() as u64;
        let idle_cycles = cycles.saturating_sub(run_cycles + skip_cycles);

        // ---- energy ----
        let energy = self.layer_energy(l, &lc, outlier_broadcast_total, mem);

        LayerRun {
            name: l.name.clone(),
            cycles,
            energy,
            utilization: Utilization {
                run_cycles,
                skip_cycles,
                idle_cycles,
            },
            chunk_cycle_hist: lc.chunk_hist,
        }
    }

    /// Total outlier-activation broadcasts for a layer (each feeds 16 output
    /// channels of one output-channel group at one kernel offset).
    fn outlier_broadcasts(&self, l: &LayerWorkload) -> f64 {
        if l.is_first() {
            // Raw-input layers have no outlier split: everything runs on the
            // dense (multi-pass) path.
            return 0.0;
        }
        let uses_per_act_per_group = l.macs as f64 / (l.act_count() as f64 * l.out_shape.c as f64);
        l.outlier_act_count() as f64 * uses_per_act_per_group * l.oc_groups() as f64
    }

    fn layer_energy(
        &self,
        l: &LayerWorkload,
        lc: &crate::cost::LayerCost,
        outlier_broadcasts: f64,
        mem: &MemoryConfig,
    ) -> EnergyBreakdown {
        let t = &self.tech;
        let lanes = self.tuning.group.lanes as f64;
        let mode_bits = self.config.mode.bits();

        // Logic: every broadcast drives 16 normal lanes + the outlier MAC;
        // outlier-group broadcasts drive 16 mixed-precision lanes.
        let mac4 = mac_energy(t, 4, 4, 24);
        let mac_mixed = mac_energy(t, mode_bits, 4, 24);
        let logic = lc.run * (lanes + 1.0) * mac4
            + outlier_broadcasts * lanes * mac_mixed
            + (lc.total() + outlier_broadcasts) * t.control_energy_per_op;

        // Local: per broadcast, one 80-bit weight chunk moves cluster
        // buffer -> group weight buffer -> the MAC lanes (counted twice);
        // per unit, the activation chunk moves cluster buffer -> group
        // buffer and the 16 partial sums go through the tri-buffer
        // (read+write, with the outlier accumulation unit making a second
        // pipelined pass).
        let local_sram = Sram::new(t, self.tuning.local_buffer_bits);
        let units = l.group_units() as f64;
        let act_chunk_bits = lanes * l.act_bits as f64;
        let local_bits = lc.run * 80.0
            + units * act_chunk_bits * 2.0
            + units * lanes * 24.0 * 2.0
            + outlier_broadcasts * (mode_bits as f64 + 80.0 + lanes * 24.0);
        let local = local_bits * local_sram.energy_per_bit();

        // DRAM sees each encoded tensor once; the swarm buffer re-serves the
        // activations once per weight tile (weights stream through the small
        // Table I weight buffer).
        // The traffic model reads only bit widths and the layer's *measured*
        // outlier counts from the policy; the selection rule already shaped
        // those counts during extraction, so `select` is inert here.
        let policy = ola_sim::QuantPolicy {
            mode: self.config.mode,
            low_bits: 4,
            outlier_ratio: l.act_outlier_nonzero_ratio,
            first_layer: ola_sim::FirstLayerPolicy::RawActs,
            select: ola_sim::OutlierSelect::MagnitudePercentile,
        };
        let a_bits = olaccel_act_bits(l, &policy);
        let w_bits = olaccel_weight_bits(l);
        let o_bits = olaccel_out_bits(l, &policy);
        let swarm = Sram::new(t, mem.total_bits());
        let buffer =
            swarm.access_energy(buffer_traffic_bits(a_bits, w_bits, o_bits, mem.weight_bits));
        let dram = dram_energy(t, a_bits + w_bits + o_bits);

        EnergyBreakdown {
            dram,
            buffer,
            local,
            logic,
        }
    }

    /// [`ola_sim::SimCache`] key of one layer under this simulator: the
    /// layer's content fingerprint folded with every configuration input
    /// [`OlAccelSim::simulate_layer`] reads — accelerator kind, mode,
    /// geometry, technology parameters, tuning, and the memory config.
    fn sim_key(&self, l: &LayerWorkload, mem: &MemoryConfig) -> u64 {
        let mut fp = ola_tensor::memo::Fingerprint::new();
        fp.str("olaccel")
            .u32(self.config.mode.bits())
            .usize(self.config.clusters)
            .usize(self.config.pe_count);
        for b in self.tech.field_bits() {
            fp.u64(b);
        }
        fp.usize(self.tuning.group.lanes)
            .usize(self.tuning.group.skip_width)
            .u8(self.tuning.group.outlier_mac as u8)
            .f64(self.tuning.dispatch_overhead)
            .u64(self.tuning.accum_drain)
            .u64(self.tuning.local_buffer_bits)
            .u64(mem.act_bits)
            .u64(mem.weight_bits)
            .u64(l.fingerprint());
        fp.finish()
    }

    /// Simulates every layer of a workload set, layer-parallel under the
    /// thread's worker budget ([`ola_tensor::par::jobs`]).
    ///
    /// Layers are independent given a [`WorkloadSet`], so they fan out over
    /// [`ola_tensor::par::ordered_map`]'s scoped worker threads; results come
    /// back in forward order and are byte-identical at any worker count.
    /// Per-layer results are memoized in the global [`ola_sim::SimCache`],
    /// so repeated simulations of the same layer under the same
    /// configuration (across figures, jobs, or daemon requests) are served
    /// from memory — or from the disk store on a warm `--cache-dir` run.
    pub fn simulate(&self, ws: &WorkloadSet) -> NetworkRun {
        let mem = MemoryConfig::for_network(&ws.network, self.config.mode);
        ola_sim::SimCache::global().simulate_network(
            self.label(),
            ws,
            |l| self.sim_key(l, &mem),
            |l| self.simulate_layer(l, &mem),
        )
    }

    /// Total DRAM traffic bits for one inference (Fig 15 bandwidth model).
    pub fn dram_bits(&self, ws: &WorkloadSet) -> u64 {
        ws.layers
            .iter()
            .map(|l| {
                // As in `layer_energy`: only widths and measured counts
                // matter to the bit model, so `select` is inert.
                let policy = ola_sim::QuantPolicy {
                    mode: self.config.mode,
                    low_bits: 4,
                    outlier_ratio: l.act_outlier_nonzero_ratio,
                    first_layer: ola_sim::FirstLayerPolicy::RawActs,
                    select: ola_sim::OutlierSelect::MagnitudePercentile,
                };
                olaccel_act_bits(l, &policy) + olaccel_weight_bits(l) + olaccel_out_bits(l, &policy)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ola_sim::workload::{LayerKind, Shape4Ser};

    fn dense_layer(nnz: u8, chunks: usize) -> LayerWorkload {
        LayerWorkload {
            name: "conv".into(),
            index: 1,
            kind: LayerKind::Conv,
            in_shape: Shape4Ser {
                n: 1,
                c: 16,
                h: 1,
                w: chunks,
            },
            out_shape: Shape4Ser {
                n: 1,
                c: 16,
                h: 1,
                w: chunks,
            },
            kernel: 1,
            macs: (chunks * 256) as u64,
            weight_count: 256,
            weight_bits: 4,
            act_bits: 4,
            weight_zero_fraction: 0.0,
            act_zero_fraction: 1.0 - nnz as f64 / 16.0,
            weight_outlier_ratio: 0.03,
            act_outlier_nonzero_ratio: 0.03,
            act_effective_outlier_ratio: 0.02,
            chunk_nnz: vec![nnz; chunks],
            chunk_zero_quads: vec![0; chunks],
            wchunk_single_fraction: 0.2,
            wchunk_multi_fraction: 0.0,
            out_zero_fraction: 0.4,
        }
    }

    fn sim16() -> OlAccelSim {
        OlAccelSim::new(TechParams::default(), ComparisonMode::Bits16)
    }

    #[test]
    fn config_matches_paper() {
        assert_eq!(sim16().config().pe_count, 768);
        assert_eq!(sim16().label(), "OLAccel16");
        let s8 = OlAccelSim::new(TechParams::default(), ComparisonMode::Bits8);
        assert_eq!(s8.config().pe_count, 576);
        assert_eq!(s8.label(), "OLAccel8");
    }

    #[test]
    fn sparser_activations_run_faster() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let dense = sim.simulate_layer(&dense_layer(16, 4800), &mem);
        let sparse = sim.simulate_layer(&dense_layer(4, 4800), &mem);
        assert!(
            sparse.cycles < dense.cycles / 2,
            "sparse {} vs dense {}",
            sparse.cycles,
            dense.cycles
        );
    }

    #[test]
    fn first_layer_pays_precision_passes() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let mut l = dense_layer(16, 4800);
        let base = sim.simulate_layer(&l, &mem).cycles;
        l.index = 0;
        l.act_bits = 16;
        let first = sim.simulate_layer(&l, &mem).cycles;
        assert!(
            (first as f64 / base as f64 - 4.0).abs() < 0.3,
            "16-bit acts should take ~4x: {first} vs {base}"
        );
    }

    #[test]
    fn multi_outlier_chunks_cost_extra() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let mut l = dense_layer(16, 4800);
        let base = sim.simulate_layer(&l, &mem).cycles;
        l.wchunk_multi_fraction = 0.5;
        let multi = sim.simulate_layer(&l, &mem).cycles;
        assert!(
            (multi as f64 / base as f64 - 1.5).abs() < 0.1,
            "50% multi-outlier chunks should cost ~1.5x: {multi} vs {base}"
        );
    }

    #[test]
    fn energy_buckets_all_positive() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let run = sim.simulate_layer(&dense_layer(10, 1000), &mem);
        assert!(run.energy.dram > 0.0);
        assert!(run.energy.buffer > 0.0);
        assert!(run.energy.local > 0.0);
        assert!(run.energy.logic > 0.0);
        // DRAM dominates SRAM for the same traffic (pJ/bit gap).
        assert!(run.energy.dram > run.energy.buffer);
    }

    #[test]
    fn utilization_accounts_cycles() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let run = sim.simulate_layer(&dense_layer(8, 2000), &mem);
        assert_eq!(run.utilization.total(), run.cycles);
        assert!(run.utilization.run_cycles > 0);
    }

    #[test]
    fn outlier_path_can_bound_layer_latency() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let mut l = dense_layer(2, 200);
        // Nearly every activation an outlier: the outlier PE group's serial
        // broadcast stream outlasts the (sparse) dense path.
        l.act_effective_outlier_ratio = 0.9;
        let heavy = sim.simulate_layer(&l, &mem).cycles;
        l.act_effective_outlier_ratio = 0.0;
        let light = sim.simulate_layer(&l, &mem).cycles;
        assert!(
            heavy > light,
            "outlier-dominated layer should be slower: {heavy} vs {light}"
        );
    }

    #[test]
    fn first_layer_has_no_outlier_path() {
        let sim = sim16();
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let mut l = dense_layer(16, 100);
        l.index = 0;
        l.act_bits = 16;
        l.act_effective_outlier_ratio = 0.5; // ignored on the raw-input path
        let with = sim.simulate_layer(&l, &mem).cycles;
        l.act_effective_outlier_ratio = 0.0;
        let without = sim.simulate_layer(&l, &mem).cycles;
        assert_eq!(with, without, "raw-input first layer has no outlier split");
    }

    #[test]
    fn layer_parallel_simulation_is_deterministic() {
        let sim = sim16();
        let ws = ola_sim::WorkloadSet {
            network: "alexnet".into(),
            policy: ola_sim::QuantPolicy::olaccel16("alexnet"),
            layers: (1u8..10).map(|nnz| dense_layer(nnz, 500)).collect(),
        };
        let serial = sim.simulate(&ws);
        ola_tensor::par::set_jobs(4);
        let parallel = sim.simulate(&ws);
        assert_eq!(serial.layers.len(), parallel.layers.len());
        for (a, b) in serial.layers.iter().zip(&parallel.layers) {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.utilization, b.utilization);
            assert_eq!(a.energy.total(), b.energy.total());
            assert_eq!(a.chunk_cycle_hist, b.chunk_cycle_hist);
        }
    }

    #[test]
    fn more_clusters_fewer_cycles() {
        let mem = MemoryConfig::for_network("alexnet", ComparisonMode::Bits16);
        let l = dense_layer(12, 50_000);
        let small = sim16().with_clusters(2).simulate_layer(&l, &mem).cycles;
        let big = sim16().with_clusters(8).simulate_layer(&l, &mem).cycles;
        assert!(big * 3 < small, "8 clusters {big} vs 2 clusters {small}");
    }
}
