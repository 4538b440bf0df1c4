//! Property tests for the process-wide simulation cache (`ola_sim::simcache`):
//! a cached result must be bit-identical to a fresh computation for every
//! accelerator model at any worker count, event records replayed from the
//! cache must still satisfy the cycle conservation law, and the disk tier
//! must round-trip records bit-exactly through the artifact store.

mod common;

use ola_baselines::{EyerissSim, ZenaSim};
use ola_core::event::{cluster_record, EventConfig};
use ola_core::OlAccelSim;
use ola_energy::config::MemoryConfig;
use ola_energy::{ComparisonMode, TechParams};
use ola_sim::workload::{LayerKind, LayerWorkload, Shape4Ser, WorkloadSet};
use ola_sim::{EventRecord, LayerRun, QuantPolicy, SimCache, Utilization};
use ola_store::ArtifactStore;
use ola_tensor::memo::Tier;
use proptest::prelude::*;
use std::sync::Arc;

/// A synthetic conv layer with caller-chosen chunk data and fractions —
/// the cache contract must hold for *any* workload, not just zoo output.
#[allow(clippy::too_many_arguments)]
fn layer(
    index: usize,
    chunk_nnz: Vec<u8>,
    units: u64,
    act_bits: u32,
    act_zero: f64,
    w_zero: f64,
    multi: f64,
    kernel: usize,
) -> LayerWorkload {
    let chunks = chunk_nnz.len();
    let chunk_zero_quads = chunk_nnz.iter().map(|&n| u8::from(n == 0) * 4).collect();
    LayerWorkload {
        name: format!("prop{index}"),
        index,
        kind: LayerKind::Conv,
        in_shape: Shape4Ser {
            n: 1,
            c: 16,
            h: 4,
            w: chunks.max(1),
        },
        out_shape: Shape4Ser {
            n: 1,
            c: 16,
            h: 4,
            w: chunks.max(1),
        },
        kernel,
        macs: units * 256,
        weight_count: 256 * kernel as u64 * kernel as u64,
        weight_bits: 4,
        act_bits,
        weight_zero_fraction: w_zero,
        act_zero_fraction: act_zero,
        weight_outlier_ratio: 0.03,
        act_outlier_nonzero_ratio: 0.03,
        act_effective_outlier_ratio: 0.02,
        chunk_nnz,
        chunk_zero_quads,
        wchunk_single_fraction: 0.2,
        wchunk_multi_fraction: multi,
        out_zero_fraction: 0.4,
    }
}

/// Strategy: a workload set of 1-5 random layers.
fn workload_set() -> impl Strategy<Value = WorkloadSet> {
    prop::collection::vec(
        (
            (
                prop::collection::vec(0u8..=16, 1..48),
                1u64..3000,
                0usize..3, // index into [4, 8, 16] act bits
            ),
            (
                0.0f64..0.95,
                0.0f64..0.95,
                0.0f64..0.3,
                0usize..3, // index into [1, 3, 11] kernel sizes
            ),
        ),
        1..5,
    )
    .prop_map(|specs| WorkloadSet {
        network: "alexnet".into(),
        policy: QuantPolicy::olaccel16("alexnet"),
        layers: specs
            .into_iter()
            .enumerate()
            .map(|(i, ((nnz, units, bits), (az, wz, multi, k)))| {
                layer(
                    i + 1,
                    nnz,
                    units,
                    [4u32, 8, 16][bits],
                    az,
                    wz,
                    multi,
                    [1usize, 3, 11][k],
                )
            })
            .collect(),
    })
}

/// Bitwise equality of two layer results (floats by exact bit pattern).
fn assert_runs_bitwise_eq(a: &LayerRun, b: &LayerRun) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.utilization, b.utilization);
    assert_eq!(a.energy.dram.to_bits(), b.energy.dram.to_bits());
    assert_eq!(a.energy.buffer.to_bits(), b.energy.buffer.to_bits());
    assert_eq!(a.energy.local.to_bits(), b.energy.local.to_bits());
    assert_eq!(a.energy.logic.to_bits(), b.energy.logic.to_bits());
    assert_eq!(a.chunk_cycle_hist, b.chunk_cycle_hist);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every accelerator in the six-way comparison, the cached,
    /// layer-parallel `simulate()` path is bit-identical to a fresh
    /// per-layer computation that bypasses the cache — at 1, 2 and 4
    /// workers, whether the cache is cold or warm.
    #[test]
    fn cached_simulation_matches_fresh_for_every_accelerator(ws in workload_set()) {
        let tech = TechParams::default();
        for mode in [ComparisonMode::Bits16, ComparisonMode::Bits8] {
            let mem = MemoryConfig::for_network(&ws.network, mode);
            let ola = OlAccelSim::new(tech, mode);
            let zena = ZenaSim::new(tech, mode);
            let eye = EyerissSim::new(tech, mode);
            for jobs in [1usize, 2, 4] {
                ola_tensor::par::set_jobs(jobs);
                let runs = [ola.simulate(&ws), zena.simulate(&ws), eye.simulate(&ws)];
                for (cached, fresh_fn) in runs.iter().zip([
                    &(|l: &LayerWorkload| ola.simulate_layer(l, &mem))
                        as &dyn Fn(&LayerWorkload) -> LayerRun,
                    &|l| zena.simulate_layer(l, &mem),
                    &|l| eye.simulate_layer(l, &mem),
                ]) {
                    prop_assert_eq!(cached.layers.len(), ws.layers.len());
                    for (c, l) in cached.layers.iter().zip(&ws.layers) {
                        assert_runs_bitwise_eq(c, &fresh_fn(l));
                    }
                }
            }
        }
    }

    /// Event records replayed from the cache satisfy the conservation law
    /// `run + skip + idle == cycles × groups` and are identical to the
    /// first (simulated) result.
    #[test]
    fn conservation_holds_on_event_cache_hits(
        nnz in prop::collection::vec(0u8..=16, 1..32),
        units in 1u64..2000,
        groups in 1usize..8,
        depth in 0u64..6,
    ) {
        let l = layer(1, nnz, units, 4, 0.5, 0.0, 0.1, 1);
        let tuning = ola_core::cost::GroupTuning::default();
        let cfg = EventConfig { groups, accum_pipeline_depth: depth };
        let first = cluster_record(&l, &tuning, &cfg);
        let hit = cluster_record(&l, &tuning, &cfg);
        prop_assert_eq!(first, hit);
        prop_assert!(hit.utilization.is_conserved(hit.cycles, groups as u64));
    }
}

/// A warm disk store lets a second, cold in-memory cache serve the exact
/// bytes the first cache computed — without running the build closure.
#[test]
fn disk_tier_round_trips_without_recompute() {
    let dir = common::scratch_dir("simcache-tier");
    let store = Arc::new(ArtifactStore::open(&dir).unwrap());

    let run = LayerRun {
        name: "conv1".into(),
        cycles: 123_456,
        energy: ola_energy::EnergyBreakdown {
            dram: 0.1,
            buffer: -0.0,
            local: 3.5e9,
            logic: 42.0,
        },
        utilization: Utilization {
            run_cycles: 100_000,
            skip_cycles: 3_456,
            idle_cycles: 20_000,
        },
        chunk_cycle_hist: vec![0, 5, 9, 1],
    };

    // First process: cold cache + empty store → build runs, write-through.
    let warm = SimCache::new();
    warm.set_store(Some(store.clone()));
    let first = warm.layer_run(0xFEED, || run.clone());
    assert_runs_bitwise_eq(&first, &run);
    let s = warm.stats();
    assert_eq!((s.run_misses, s.disk_hits, s.disk_misses), (1, 0, 1));

    // Second process: cold cache + warm store → record loads from disk,
    // the build closure must never run.
    let cold = SimCache::new();
    cold.set_store(Some(store));
    let replay = cold.layer_run(0xFEED, || panic!("warm store must satisfy the lookup"));
    assert_runs_bitwise_eq(&replay, &run);
    let s = cold.stats();
    assert_eq!((s.run_misses, s.disk_hits, s.disk_misses), (0, 1, 0));

    // Third request in the same process is a pure memory hit.
    let again = cold.layer_run(0xFEED, || panic!("resident entry must hit"));
    assert_runs_bitwise_eq(&again, &run);
    assert_eq!(cold.stats().run_hits, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Same round trip for event records, exercised through the accelerator-
/// level `cluster_record` keying path end to end: simulate once with a
/// store attached, then verify the record file exists and decodes to the
/// same result.
#[test]
fn event_records_persist_through_the_global_path() {
    let dir = common::scratch_dir("simcache-event");
    let artifact = Arc::new(ArtifactStore::open(&dir).unwrap());

    let cache = SimCache::new();
    cache.set_store(Some(artifact.clone()));
    let rec = EventRecord {
        cycles: 999,
        utilization: Utilization {
            run_cycles: 500,
            skip_cycles: 100,
            idle_cycles: 399,
        },
        outlier_busy: 7,
    };
    let stored = cache.event_record(0xBEEF, || rec);
    assert_eq!(stored, rec);

    // The record is on disk under its fingerprint and model version.
    assert!(artifact.path::<EventRecord>(0xBEEF).exists());
    assert_eq!(Tier::<EventRecord>::load(&*artifact, 0xBEEF), Some(rec));

    // A cold cache over the same store replays it without simulating.
    let cold = SimCache::new();
    cold.set_store(Some(artifact));
    let replay = cold.event_record(0xBEEF, || panic!("warm store must satisfy the lookup"));
    assert_eq!(replay, rec);
    assert_eq!(cold.stats().disk_hits, 1);

    let _ = std::fs::remove_dir_all(&dir);
}
