//! Process-wide cache behavior observed through real figure runs: two
//! experiments that ask for the same `(network, scale, policy)` must share
//! one synthesis and one extraction, and fig1 builds no preparation.
//!
//! This file holds a single `#[test]` on purpose — it resets and inspects
//! the global [`ola_harness::prep::PrepCache`], and other tests in the same
//! binary would race it. Integration-test binaries are separate processes,
//! so the other suites are unaffected.

use ola_harness::prep::PrepCache;

#[test]
fn two_figures_share_one_preparation() {
    let cache = PrepCache::global();
    cache.reset();

    // fig18 and fig19 both ask for AlexNet at the fast scale under the
    // standard OLAccel16 policy — the exact same cache keys.
    let r18 = ola_harness::run_experiment("fig18", true);
    let after_first = cache.stats();
    assert_eq!(
        after_first.prepared_misses, 1,
        "first figure should synthesize exactly one network"
    );
    assert_eq!(
        after_first.workload_misses, 1,
        "first figure should extract exactly one workload set"
    );

    let r19 = ola_harness::run_experiment("fig19", true);
    let after_second = cache.stats();
    assert_eq!(
        after_second.prepared_misses, 1,
        "second figure must reuse the prepared network, not rebuild it"
    );
    assert_eq!(
        after_second.prepared_hits, 0,
        "a workload-set hit must not touch the preparation"
    );
    assert_eq!(
        after_second.workload_misses, 1,
        "second figure must reuse the extracted workloads"
    );
    assert!(
        after_second.workload_hits >= 1,
        "second figure should register a workload-set cache hit"
    );

    assert!(!r18.is_empty() && !r19.is_empty());

    // fig1 synthesizes only the layer it plots, never a preparation.
    cache.reset();
    let r1 = ola_harness::run_experiment("fig1", true);
    assert_eq!(
        cache.stats().prepared_misses,
        0,
        "fig1 must not build a prepared network"
    );
    assert!(!r1.is_empty());
}
