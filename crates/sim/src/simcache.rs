//! Process-wide memoization of per-layer accelerator simulation results.
//!
//! Every figure re-simulates the same `(layer workload × accelerator ×
//! configuration)` pairs — fig11-13's six-way comparison, fig15's NPU
//! grid, fig17-19's microarchitecture sweeps and the policy panel all
//! share AlexNet's eight layers under a handful of configs. [`SimCache`]
//! is the model-phase analogue of the harness's `PrepCache`: a global
//! two-level cache of [`LayerRun`]s (analytic cycle/energy model) and
//! [`EventRecord`]s (event-driven validation backend), keyed by a content
//! fingerprint (see [`ola_tensor::memo::Fingerprint`]) of everything that
//! can change the result.
//!
//! Correctness rests on two facts:
//!
//! * every simulation is a **pure function** of its fingerprinted inputs
//!   (the event backend's randomness is derived from a fixed seed that is
//!   itself folded into the key), so a cached result is bit-identical to
//!   a fresh computation;
//! * each level is an [`ola_tensor::memo::Stage`], whose fills run under
//!   the exactly-once protocol of [`ola_tensor::memo::fill_slot`], so
//!   concurrent figures and daemon requests coalesce onto one computation
//!   per key and a panicking simulation never poisons its slot.
//!
//! With [`SimCache::set_store`] each stage gains a persistent [`Tier`]:
//! misses read through to it before simulating and fresh results write
//! through after, which is what lets a warm `--cache-dir` daemon or CLI
//! run skip the model phase entirely. Stale stores are harmless by
//! construction — the store keys records by the same content fingerprint
//! plus a model-code version, so at worst a lookup misses.

use crate::result::{LayerRun, NetworkRun, Utilization};
use crate::timing::{timed, Phase};
use crate::workload::{LayerWorkload, WorkloadSet};
use ola_tensor::memo::{Stage, Tier};
use ola_tensor::par::{jobs, ordered_map};
use std::sync::{Arc, OnceLock};

/// Forwards to [`ola_tensor::par::set_jobs`]; kept only because `perfbench/probe` calls it.
#[doc(hidden)]
pub fn set_model_jobs(jobs: usize) {
    ola_tensor::par::set_jobs(jobs)
}

/// The event-driven backend's per-cluster simulation result, in the plain
/// sim-level form the cache and the disk store persist. (`ola-core`'s
/// `EventResult` mirrors this field-for-field; it lives above this crate
/// in the dependency graph, so the cache speaks this type instead.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventRecord {
    /// Total cycles to drain the workload.
    pub cycles: u64,
    /// Aggregate run/skip/idle decomposition over all groups.
    pub utilization: Utilization,
    /// Cycles the outlier lane spent busy.
    pub outlier_busy: u64,
}

/// A point-in-time snapshot of [`SimCache`] hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Layer-simulation requests served from memory.
    pub run_hits: u64,
    /// Layer-simulation requests that ran the analytic model.
    pub run_misses: u64,
    /// Event-backend requests served from memory.
    pub event_hits: u64,
    /// Event-backend requests that ran the event simulation.
    pub event_misses: u64,
    /// Requests served by loading a sim record from the disk store (these
    /// count as neither hit nor simulated — no computation ran).
    pub disk_hits: u64,
    /// Disk-store lookups that found nothing usable (missing file, stale
    /// model version, or a corrupt record that forced a recompute).
    pub disk_misses: u64,
}

impl SimStats {
    /// Formats the counters as the run-summary lines.
    pub fn render(&self) -> String {
        format!(
            "layer sims:        {} simulated, {} cache hits\n\
             event sims:        {} simulated, {} cache hits\n\
             sim artifacts:     {} loaded, {} missed",
            self.run_misses,
            self.run_hits,
            self.event_misses,
            self.event_hits,
            self.disk_hits,
            self.disk_misses
        )
    }

    /// The counter-wise difference `self - before` (saturating), for
    /// delta-over-a-run reporting.
    pub fn since(&self, before: &SimStats) -> SimStats {
        SimStats {
            run_hits: self.run_hits.saturating_sub(before.run_hits),
            run_misses: self.run_misses.saturating_sub(before.run_misses),
            event_hits: self.event_hits.saturating_sub(before.event_hits),
            event_misses: self.event_misses.saturating_sub(before.event_misses),
            disk_hits: self.disk_hits.saturating_sub(before.disk_hits),
            disk_misses: self.disk_misses.saturating_sub(before.disk_misses),
        }
    }
}

/// Process-wide memoization of per-layer simulation results, with an
/// optional persistent disk tier. See the module docs for the keying and
/// determinism argument.
#[derive(Default)]
pub struct SimCache {
    runs: Stage<LayerRun>,
    events: Stage<EventRecord>,
}

impl SimCache {
    /// An empty cache (tests; production code uses [`SimCache::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache instance every accelerator model routes
    /// through.
    pub fn global() -> &'static SimCache {
        static GLOBAL: OnceLock<SimCache> = OnceLock::new();
        GLOBAL.get_or_init(SimCache::new)
    }

    /// Attaches (or, with `None`, detaches) the persistent tier of both
    /// stages. Already-resident entries are unaffected.
    pub fn set_store<S>(&self, store: Option<Arc<S>>)
    where
        S: Tier<LayerRun> + Tier<EventRecord> + 'static,
    {
        self.runs.set_tier(store.clone().map(|s| s as _));
        self.events.set_tier(store.map(|s| s as _));
    }

    /// Fetches or computes (exactly once per key, process-wide) the
    /// analytic simulation result for `key`. `build` must be a pure
    /// function of the inputs folded into `key`.
    pub fn layer_run(&self, key: u64, build: impl FnOnce() -> LayerRun) -> Arc<LayerRun> {
        self.runs.get(key, build)
    }

    /// Simulates every layer of `ws` through [`SimCache::layer_run`], timed
    /// as the model phase. Layers fan out over the thread's worker budget
    /// ([`ordered_map`]) and come back in forward order, so the run is
    /// byte-identical at any budget. `key` and `simulate` carry
    /// [`SimCache::layer_run`]'s purity contract per layer.
    pub fn simulate_network(
        &self,
        accelerator: String,
        ws: &WorkloadSet,
        key: impl Fn(&LayerWorkload) -> u64 + Sync,
        simulate: impl Fn(&LayerWorkload) -> LayerRun + Sync,
    ) -> NetworkRun {
        timed(Phase::Model, || NetworkRun {
            accelerator,
            network: ws.network.clone(),
            layers: ordered_map(&ws.layers, jobs(), |_, l| {
                (*self.layer_run(key(l), || simulate(l))).clone()
            }),
        })
    }

    /// Fetches or computes (exactly once per key, process-wide) the
    /// event-backend result for `key`. Same purity contract as
    /// [`SimCache::layer_run`] — the event stream's seed must be folded
    /// into the key.
    pub fn event_record(&self, key: u64, build: impl FnOnce() -> EventRecord) -> EventRecord {
        *self.events.get(key, build)
    }

    /// Snapshots the hit/miss counters.
    pub fn stats(&self) -> SimStats {
        let (runs, events) = (self.runs.stats(), self.events.stats());
        SimStats {
            run_hits: runs.hits,
            run_misses: runs.built,
            event_hits: events.hits,
            event_misses: events.built,
            disk_hits: runs.disk_hits + events.disk_hits,
            disk_misses: runs.disk_misses + events.disk_misses,
        }
    }

    /// Drops every entry and zeroes the counters (test isolation; also
    /// frees the memory of a long-lived process between suites). The disk
    /// tier, if attached, stays attached.
    pub fn reset(&self) {
        self.runs.reset();
        self.events.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> LayerRun {
        LayerRun {
            name: "l".to_string(),
            cycles: 100,
            energy: Default::default(),
            utilization: Utilization::default(),
            chunk_cycle_hist: vec![1, 2, 3],
        }
    }

    #[test]
    fn layer_runs_compute_once_per_key() {
        let cache = SimCache::new();
        for _ in 0..3 {
            assert_eq!(cache.layer_run(11, run).cycles, 100);
        }
        let s = cache.stats();
        assert_eq!((s.run_misses, s.run_hits, s.event_misses), (1, 2, 0));
    }

    #[test]
    fn event_records_compute_once_per_key() {
        let cache = SimCache::new();
        let rec = EventRecord {
            cycles: 7,
            ..EventRecord::default()
        };
        for _ in 0..2 {
            assert_eq!(cache.event_record(5, || rec), rec);
        }
        let s = cache.stats();
        assert_eq!((s.event_misses, s.event_hits, s.run_misses), (1, 1, 0));
    }

    #[test]
    fn reset_clears_entries_and_counters() {
        let cache = SimCache::new();
        let fill = || {
            cache.event_record(9, EventRecord::default);
            cache.layer_run(9, run);
        };
        fill();
        cache.reset();
        assert_eq!(cache.stats(), SimStats::default());
        fill();
        let s = cache.stats();
        assert_eq!((s.event_misses, s.run_misses), (1, 1));
    }

    #[test]
    fn stats_render_names_every_counter() {
        let s = SimStats {
            run_hits: 1,
            run_misses: 2,
            event_hits: 3,
            event_misses: 4,
            disk_hits: 5,
            disk_misses: 6,
        };
        let r = s.render();
        assert!(r.contains("layer sims:        2 simulated, 1 cache hits"));
        assert!(r.contains("event sims:        4 simulated, 3 cache hits"));
        assert!(r.contains("sim artifacts:     5 loaded, 6 missed"));
    }
}
