//! The persistent artifact store observed through the cache it backs: a
//! cold process builds and writes through, a second cold process loads the
//! same bytes back without computing anything, and a corrupt artifact
//! degrades to a recompute — never to a failure.
//!
//! Each test uses its own [`ola_harness::prep::PrepCache`] instance and its
//! own store directory, so they are independent of the global cache and of
//! each other.

mod common;

use ola_harness::prep::{PrepCache, DEFAULT_SEED};
use ola_sim::QuantPolicy;

const NET: &str = "alexnet";
const SCALE: usize = 8;

#[test]
fn second_process_loads_instead_of_computing() {
    let dir = common::scratch_dir("roundtrip-warm");
    let policy = QuantPolicy::olaccel16(NET);

    // "Process" one: a fresh cache with the disk tier attached. Everything
    // misses both tiers, computes, and writes through.
    let cold = PrepCache::new();
    cold.set_disk(Some(&dir)).unwrap();
    let prep_cold = cold.prepared(NET, SCALE, DEFAULT_SEED);
    let ws_cold = cold.workloads_for(&prep_cold, &policy);
    let s = cold.stats();
    assert_eq!(s.prepared_misses, 1, "cold run must synthesize");
    assert_eq!(s.workload_misses, 1, "cold run must extract");
    assert_eq!(s.disk_hits, 0);
    assert_eq!(s.disk_misses, 2, "both lookups missed the empty store");
    let artifacts: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(artifacts.len(), 2, "write-through left {artifacts:?}");
    assert!(artifacts.iter().all(|f| f.ends_with(".olas")));

    // "Process" two: another fresh cache over the same directory. Both
    // requests must be served from disk — zero computation — and the
    // loaded artifacts must be bit-identical to the cold build.
    let warm = PrepCache::new();
    warm.set_disk(Some(&dir)).unwrap();
    let prep_warm = warm.prepared(NET, SCALE, DEFAULT_SEED);
    let ws_warm = warm.workloads_for(&prep_warm, &policy);
    let s = warm.stats();
    assert_eq!(s.disk_hits, 2, "warm run must load both artifacts");
    assert_eq!(s.disk_misses, 0);
    assert_eq!(s.prepared_misses, 0, "warm run must not synthesize");
    assert_eq!(s.workload_misses, 0, "warm run must not extract");

    assert_eq!(prep_warm.acts.len(), prep_cold.acts.len());
    for (a, b) in prep_warm.acts.iter().zip(&prep_cold.acts) {
        assert_eq!(
            a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "loaded activations must be bit-identical"
        );
    }
    assert!(
        ws_warm.bitwise_eq(&ws_cold),
        "loaded workload set must be bit-identical"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifact_warns_and_recomputes() {
    let dir = common::scratch_dir("roundtrip-corrupt");
    let policy = QuantPolicy::olaccel16(NET);

    let cold = PrepCache::new();
    cold.set_disk(Some(&dir)).unwrap();
    let prep_cold = cold.prepared(NET, SCALE, DEFAULT_SEED);
    let ws_cold = cold.workloads_for(&prep_cold, &policy);

    // Flip one payload byte in every artifact: checksums must catch it.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, bytes).unwrap();
    }

    let hurt = PrepCache::new();
    hurt.set_disk(Some(&dir)).unwrap();
    let prep = hurt.prepared(NET, SCALE, DEFAULT_SEED);
    let ws = hurt.workloads_for(&prep, &policy);
    let s = hurt.stats();
    assert_eq!(s.disk_hits, 0, "corrupt artifacts must never load");
    assert_eq!(s.disk_misses, 2);
    assert_eq!(s.prepared_misses, 1, "corruption must fall back to compute");
    assert_eq!(s.workload_misses, 1);
    assert!(ws.bitwise_eq(&ws_cold), "recompute must match the original");

    // The recompute wrote fresh artifacts back; a third cache loads again.
    let healed = PrepCache::new();
    healed.set_disk(Some(&dir)).unwrap();
    let prep = healed.prepared(NET, SCALE, DEFAULT_SEED);
    let _ = healed.workloads_for(&prep, &policy);
    assert_eq!(healed.stats().disk_hits, 2, "write-through must self-heal");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_and_alien_files_are_ignored() {
    let dir = common::scratch_dir("roundtrip-alien");
    let cold = PrepCache::new();
    cold.set_disk(Some(&dir)).unwrap();
    let _ = cold.prepared(NET, SCALE, DEFAULT_SEED);

    // Truncate the artifact to a prefix and confirm the loader shrugs.
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "olas"))
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let cache = PrepCache::new();
    cache.set_disk(Some(&dir)).unwrap();
    let _ = cache.prepared(NET, SCALE, DEFAULT_SEED);
    assert_eq!(cache.stats().disk_hits, 0);
    assert_eq!(cache.stats().prepared_misses, 1);

    std::fs::remove_dir_all(&dir).ok();
}
