//! Decoder robustness of the artifact store, for every record kind,
//! through the one generic load path (`Tier` for `ArtifactStore` behind a
//! `Stage`). Whatever sits at a record's path — the record truncated at
//! any length, with one bit flipped in its header or payload, written
//! under another version, another key's record or another kind's — the
//! stage must count exactly one disk miss, build once, serve the fresh
//! value and overwrite the file. It must never panic or mis-decode.

mod common;

use ola_energy::EnergyBreakdown;
use ola_harness::prep::Prepared;
use ola_nn::zoo::{self, ZooConfig};
use ola_nn::Params;
use ola_quant::accuracy::QuantAccuracy;
use ola_sim::workload::{LayerKind, LayerWorkload, Shape4Ser, WorkloadSet};
use ola_sim::{EventRecord, LayerRun, QuantPolicy, Utilization};
use ola_store::wire::Writer;
use ola_store::{Artifact, ArtifactStore};
use ola_tensor::memo::{Stage, StageStats, Tier};
use ola_tensor::{Shape4, Tensor};
use proptest::prelude::*;
use proptest::test_runner::rng_for_case;
use std::sync::Arc;

/// The key every fixture record is stored under.
const KEY: u64 = 0x0123_4567_89ab_cdef;

/// Byte offset of the version field in a record header: magic (4),
/// format (4), kind (1), key (8).
const VERSION_AT: usize = 17;

/// Sampled single-bit flips per record kind.
const FLIPS: usize = 256;

/// An encoded payload — bitwise identity for every record kind.
fn payload<V: Artifact>(v: &V) -> Vec<u8> {
    let mut w = Writer::new();
    v.encode(&mut w);
    w.into_bytes()
}

/// A fresh store in a unique scratch directory.
fn store() -> Arc<ArtifactStore> {
    Arc::new(ArtifactStore::open(&common::scratch_dir("robust")).unwrap())
}

/// The file a store writes for `V`'s fixture under [`KEY`].
fn record<V: Artifact + 'static>(fresh: fn() -> V) -> Vec<u8>
where
    ArtifactStore: Tier<V>,
{
    let store = store();
    Tier::save(&*store, KEY, &fresh());
    let bytes = std::fs::read(store.path::<V>(KEY)).unwrap();
    std::fs::remove_dir_all(store.dir()).ok();
    bytes
}

/// Puts `bad` at `V`'s path for `key`; a cold stage over the store must
/// miss once, build once, serve the fresh value and leave a loadable
/// record behind.
fn recovers<V: Artifact + 'static>(
    store: &Arc<ArtifactStore>,
    key: u64,
    bad: &[u8],
    fresh: fn() -> V,
) where
    ArtifactStore: Tier<V>,
{
    std::fs::write(store.path::<V>(key), bad).unwrap();
    let stage = Stage::new();
    stage.set_tier(Some(store.clone()));
    let served = payload(&*stage.get(key, fresh));
    let want = StageStats {
        built: 1,
        disk_misses: 1,
        ..StageStats::default()
    };
    assert_eq!(stage.stats(), want);
    assert_eq!(served, payload(&fresh()), "mis-decoded");
    let reloaded = Tier::<V>::load(&**store, key).map(|v| payload(&v));
    assert_eq!(reloaded, Some(served), "the recompute must overwrite");
}

/// Every corruption of `V`'s record, plus every record of the other
/// kinds (`others`) found at its path.
fn check<V: Artifact + 'static>(fresh: fn() -> V, others: &[Vec<u8>])
where
    ArtifactStore: Tier<V>,
{
    let store = store();
    let pristine = record(fresh);
    assert_eq!(
        pristine[VERSION_AT..VERSION_AT + 8],
        V::version().to_le_bytes()
    );
    let mut cases: Vec<(String, Vec<u8>)> = (0..pristine.len())
        .map(|n| (format!("truncated to {n} bytes"), pristine[..n].to_vec()))
        .collect();
    let mut rng = rng_for_case(V::PREFIX, 0);
    for _ in 0..FLIPS {
        let bit = (0..pristine.len() * 8).sample(&mut rng);
        let mut bad = pristine.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        cases.push((format!("bit {bit} flipped"), bad));
    }
    let mut stale = pristine.clone();
    stale[VERSION_AT] ^= 1;
    cases.push(("another version".into(), stale));
    cases.extend(
        others
            .iter()
            .map(|o| ("another kind's record".into(), o.clone())),
    );
    for (what, bad) in cases {
        let run = std::panic::catch_unwind(|| recovers(&store, KEY, &bad, fresh));
        assert!(run.is_ok(), "{} record, {what}", V::PREFIX);
    }
    recovers(&store, KEY ^ 1, &pristine, fresh);
    std::fs::remove_dir_all(store.dir()).ok();
}

/// A minimal prepared network: the real AlexNet graph with empty
/// parameters and one two-element activation per node — enough to pass
/// the graph check while keeping the record small enough to truncate at
/// every length.
fn prepared() -> Prepared {
    let cfg = ZooConfig {
        spatial_scale: 8,
        include_classifier: true,
        batch: 1,
    };
    let nodes = zoo::by_name("alexnet", &cfg).nodes().len();
    let acts = (0..nodes)
        .map(|i| Tensor::from_vec(Shape4::new(1, 1, 1, 2), vec![i as f32, -0.0]))
        .collect();
    Prepared::from_parts("alexnet", 8, 7, Params::sized(nodes), acts).unwrap()
}

fn workloads() -> WorkloadSet {
    let shape = |c, h| Shape4Ser { n: 1, c, h, w: h };
    WorkloadSet {
        network: "alexnet".into(),
        policy: QuantPolicy::olaccel16("alexnet"),
        layers: vec![LayerWorkload {
            name: "conv1".into(),
            index: 0,
            kind: LayerKind::Conv,
            in_shape: shape(3, 8),
            out_shape: shape(16, 4),
            kernel: 3,
            macs: 12345,
            weight_count: 432,
            weight_bits: 4,
            act_bits: 16,
            weight_zero_fraction: 0.5,
            act_zero_fraction: 0.25,
            weight_outlier_ratio: 0.035,
            act_outlier_nonzero_ratio: 0.05,
            act_effective_outlier_ratio: 0.0375,
            chunk_nnz: vec![3, 0, 16],
            chunk_zero_quads: vec![1, 4, 0],
            wchunk_single_fraction: 0.3,
            wchunk_multi_fraction: 0.05,
            out_zero_fraction: 0.6,
        }],
    }
}

fn utilization() -> Utilization {
    Utilization {
        run_cycles: 10,
        skip_cycles: 2,
        idle_cycles: 5,
    }
}

fn layer_run() -> LayerRun {
    LayerRun {
        name: "conv3".into(),
        cycles: 4242,
        energy: EnergyBreakdown {
            dram: 1.0,
            buffer: -0.0,
            local: 3.5e9,
            logic: 4.0,
        },
        utilization: utilization(),
        chunk_cycle_hist: vec![1, 0, 9],
    }
}

fn event() -> EventRecord {
    EventRecord {
        cycles: 17,
        utilization: utilization(),
        outlier_busy: 3,
    }
}

fn accuracy() -> QuantAccuracy {
    QuantAccuracy {
        top1: 0.5,
        topk: -0.0,
        realized_weight_ratio: 0.0305,
    }
}

#[test]
fn every_record_kind_recovers_from_every_corruption() {
    let records = [
        record(prepared),
        record(workloads),
        record(layer_run),
        record(event),
        record(accuracy),
    ];
    let others = |i: usize| {
        let mut o = records.to_vec();
        o.remove(i);
        o
    };
    check(prepared, &others(0));
    check(workloads, &others(1));
    check(layer_run, &others(2));
    check(event, &others(3));
    check(accuracy, &others(4));
}
