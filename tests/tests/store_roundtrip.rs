//! The persistent artifact store observed through the cache it backs: a
//! cold process extracts a workload set and writes it through, a second
//! cold process loads the same bytes back without synthesizing or
//! extracting anything, and a corrupt artifact degrades to a recompute —
//! never to a failure.
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

    // "Process" one: a fresh cache with the disk tier attached. The
    // workload set misses both tiers, the preparation is synthesized in
    // memory, and only the workload set is written through.
    let cold = PrepCache::new();
    cold.set_disk(Some(&dir)).unwrap();
    let ws_cold = cold.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    let s = cold.stats();
    assert_eq!(s.prepared_misses, 1, "cold run must synthesize");
    assert_eq!(s.workload_misses, 1, "cold run must extract");
    assert_eq!(s.disk_hits, 0);
    assert_eq!(s.disk_misses, 1, "the store was empty");
    let artifacts: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(artifacts.len(), 1, "write-through left {artifacts:?}");
    assert!(artifacts[0].starts_with("ws-") && artifacts[0].ends_with(".olas"));

    // "Process" two: another fresh cache over the same directory. The
    // request must be served from disk — zero computation, no preparation
    // touched — and the loaded set must be bit-identical to the cold one.
    let warm = PrepCache::new();
    warm.set_disk(Some(&dir)).unwrap();
    let ws_warm = warm.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    let s = warm.stats();
    assert_eq!(s.disk_hits, 1, "warm run must load the workload set");
    assert_eq!(s.disk_misses, 0);
    assert_eq!(s.prepared_misses, 0, "warm run must not synthesize");
    assert_eq!(s.prepared_hits, 0, "warm run must not prepare");
    assert_eq!(s.workload_misses, 0, "warm run must not extract");
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
    let ws_cold = cold.workloads(NET, SCALE, DEFAULT_SEED, &policy);

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
    let ws = hurt.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    let s = hurt.stats();
    assert_eq!(s.disk_hits, 0, "corrupt artifacts must never load");
    assert_eq!(s.disk_misses, 1);
    assert_eq!(s.prepared_misses, 1, "corruption must fall back to compute");
    assert_eq!(s.workload_misses, 1);
    assert!(ws.bitwise_eq(&ws_cold), "recompute must match the original");

    // The recompute wrote a fresh artifact back; a third cache loads again.
    let healed = PrepCache::new();
    healed.set_disk(Some(&dir)).unwrap();
    let ws = healed.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    let s = healed.stats();
    assert_eq!((s.disk_hits, s.prepared_misses), (1, 0), "must self-heal");
    assert!(ws.bitwise_eq(&ws_cold));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_and_alien_files_are_ignored() {
    let dir = common::scratch_dir("roundtrip-alien");
    let policy = QuantPolicy::olaccel16(NET);
    let cold = PrepCache::new();
    cold.set_disk(Some(&dir)).unwrap();
    let _ = cold.workloads(NET, SCALE, DEFAULT_SEED, &policy);

    // Truncate the workload set's file to a prefix and confirm the loader
    // shrugs.
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with("ws-"))
        .unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

    let cache = PrepCache::new();
    cache.set_disk(Some(&dir)).unwrap();
    let _ = cache.workloads(NET, SCALE, DEFAULT_SEED, &policy);
    assert_eq!(cache.stats().disk_hits, 0);
    assert_eq!(cache.stats().workload_misses, 1);

    std::fs::remove_dir_all(&dir).ok();
}
