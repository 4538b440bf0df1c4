//! Workload preparation shared by the experiments: build a zoo network with
//! synthetic trained-like parameters, run the f32 reference once, and
//! extract per-layer workloads for each policy of interest.
//!
//! Preparation — synthesis, sparsity shaping, and the f32 forward pass — is
//! the dominant cost of a full reproduction run, and most figures ask for
//! the *same* workloads (AlexNet at the default scale). The [`PrepCache`]
//! therefore memoizes both levels of the pipeline process-wide:
//!
//! * [`WorkloadSet`]s, keyed by `(network, scale, seed, policy)` — what
//!   the figures read;
//! * [`Prepared`] networks, keyed by `(network, scale, seed)` — built only
//!   when a workload set misses, and held in memory alone.
//!
//! Every entry is computed exactly once per process — concurrent requests
//! for the same key block on a per-key slot while the first caller builds
//! it — so the parallel experiment engine (`crate::engine`) gets the
//! same bytes in every report regardless of scheduling order. All
//! randomness is derived from the explicit `seed` argument (see
//! [`Prepared::with_seed`]), never from global state, which is what makes
//! the memoization sound.
//!
//! With [`PrepCache::set_disk`] the workload sets additionally gain a
//! persistent tier: misses read through to an [`ArtifactStore`] before
//! computing, and fresh extractions write through after. The stage key is
//! a [`Fingerprint`] of `(network, scale, seed)` plus the policy's fold,
//! and the store adds the code version, so a stale store can never change
//! results — at worst it misses. A corrupt store file warns on stderr and
//! recomputes; it never fails a run. A warm workload set touches no
//! preparation at all.
//!
//! A build that *panics* does not poison its cache slot: the panic payload
//! is re-raised unchanged for the builder, waiting requesters fail with
//! the original message, and the slot is evicted so a later request can
//! retry — which is what keeps a long-lived daemon serviceable after one
//! bad request.

use crate::timing;
use ola_baselines::{EyerissSim, ZenaSim};
use ola_core::OlAccelSim;
use ola_energy::{ComparisonMode, TechParams};
use ola_nn::synth::{activation_sparsity_target, shape_activation_sparsity, SynthConfig};
use ola_nn::zoo::{self, ZooConfig};
use ola_nn::{Network, Params};
use ola_sim::workload::{extract_from_acts, WorkloadSet};
use ola_sim::{NetworkRun, QuantPolicy};
use ola_store::{ArtifactStore, StoreError};
use ola_tensor::init::uniform_tensor;
use ola_tensor::memo::{Fingerprint, Stage, StageStats};
use ola_tensor::Tensor;
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// The experiment suite's base preparation seed. Input tensors derive from
/// `seed + scale` and parameter synthesis from a seed-dependent offset, so
/// every run of every figure sees identical data for identical keys.
pub const DEFAULT_SEED: u64 = 0xDA7A;

/// Default spatial scale per network: full resolution where the naive f32
/// reference is fast enough, modestly reduced where it is not. Relative
/// accelerator comparisons are scale-invariant (all models consume the same
/// workload); EXPERIMENTS.md records the scale of every run.
pub fn default_scale(network: &str, fast: bool) -> usize {
    if fast {
        return match network {
            "alexnet" => 4,
            _ => 8,
        };
    }
    match network {
        "alexnet" => 1,
        "resnet18" => 2,
        _ => 4,
    }
}

/// A prepared network: graph, parameters, and one forward pass.
pub struct Prepared {
    /// The network graph.
    pub net: Network,
    /// Synthetic trained-like parameters.
    pub params: Params,
    /// All node outputs of the reference forward pass.
    pub acts: Vec<Tensor>,
    /// Network name.
    pub network: String,
    /// Spatial scale the network was built at.
    pub scale: usize,
    /// Preparation seed (see [`Prepared::with_seed`]).
    pub seed: u64,
}

impl Prepared {
    /// Builds and runs a zoo network at the given spatial scale with the
    /// suite's [`DEFAULT_SEED`], bypassing the cache. Prefer [`workloads`]
    /// inside experiment code so concurrent figures share one extraction.
    pub fn new(network: &str, scale: usize) -> Self {
        Self::with_seed(network, scale, DEFAULT_SEED)
    }

    /// Builds and runs a zoo network at `scale` from an explicit `seed`.
    ///
    /// The synthetic parameters are bias-shaped so each layer's post-ReLU
    /// sparsity matches the published activation sparsity of the trained
    /// model (DESIGN.md §2). The reference input derives from
    /// `seed + scale`; parameter synthesis derives from a seed-dependent
    /// offset of the synthesis base seed (so `DEFAULT_SEED` reproduces the
    /// historical streams exactly, and any other seed yields an independent
    /// but equally deterministic preparation).
    pub fn with_seed(network: &str, scale: usize, seed: u64) -> Self {
        let (net, params, input) = timing::timed(timing::Phase::Synthesize, || {
            let net = zoo::by_name(network, &zoo_config(scale));
            let mut params = ola_nn::synth::synthesize_params(&net, &synth_config(network, seed));
            let input = uniform_tensor(
                net.input_shape(),
                -1.0,
                1.0,
                seed.wrapping_add(scale as u64),
            );
            shape_activation_sparsity(
                &net,
                &mut params,
                &input,
                |li| activation_sparsity_target(network, li),
                2,
            );
            (net, params, input)
        });
        let acts = timing::timed(timing::Phase::Forward, || net.forward(&params, &input));
        Prepared {
            net,
            params,
            acts,
            network: network.to_string(),
            scale,
            seed,
        }
    }

    /// Workload extraction under `policy`, reusing the forward pass. Not
    /// memoized: experiment code fetches workload sets through
    /// [`workloads`] / [`PrepCache::workloads`].
    pub fn extract(&self, policy: &QuantPolicy) -> WorkloadSet {
        timing::timed(timing::Phase::Extract, || {
            extract_from_acts(&self.net, &self.params, &self.acts, policy)
        })
    }

    /// Workloads under the paper's standard OLAccel16 / OLAccel8 policies.
    pub fn paper_workloads(&self) -> (WorkloadSet, WorkloadSet) {
        (
            self.extract(&QuantPolicy::olaccel16(&self.network)),
            self.extract(&QuantPolicy::olaccel8(&self.network)),
        )
    }
}

/// The synthesis configuration of `network` at preparation seed `seed`:
/// parameter streams derive from a seed-dependent offset of the synthesis
/// base seed, so [`DEFAULT_SEED`] keeps the default streams.
pub(crate) fn synth_config(network: &str, seed: u64) -> SynthConfig {
    SynthConfig::for_network_seeded(network, seed ^ DEFAULT_SEED)
}

/// The zoo configuration every preparation (cold build or store reload)
/// uses for a given spatial scale.
pub(crate) fn zoo_config(scale: usize) -> ZooConfig {
    ZooConfig {
        spatial_scale: scale,
        include_classifier: true,
        batch: 1,
    }
}

/// The zoo graph of `network` at `scale`, or why there is none (an
/// unknown name, or a zero scale the zoo would panic on) — the check a
/// stored record naming a network passes before anything is built.
pub(crate) fn zoo_graph(network: &str, scale: usize) -> Result<Network, String> {
    (scale > 0)
        .then(|| zoo::try_by_name(network, &zoo_config(scale)))
        .flatten()
        .ok_or_else(|| format!("no zoo network {network:?} at scale {scale}"))
}

/// Fetches (or builds, exactly once per process) the shared [`Prepared`]
/// network for `(network, scale)` at the suite's [`DEFAULT_SEED`].
pub fn prepared(network: &str, scale: usize) -> Arc<Prepared> {
    PrepCache::global().prepared(network, scale, DEFAULT_SEED)
}

/// Fetches (or extracts, exactly once per process) the shared
/// [`WorkloadSet`] of `(network, scale)` under `policy` at the suite's
/// [`DEFAULT_SEED`].
pub fn workloads(network: &str, scale: usize, policy: &QuantPolicy) -> Arc<WorkloadSet> {
    PrepCache::global().workloads(network, scale, DEFAULT_SEED, policy)
}

/// The key fold of a preparation; workload sets extend it with the
/// policy's fold.
fn prep_key(network: &str, scale: usize, seed: u64) -> Fingerprint {
    let mut fp = Fingerprint::new();
    fp.str(network).usize(scale).u64(seed);
    fp
}

/// A point-in-time snapshot of [`PrepCache`] hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Prepared-network requests served from the cache.
    pub prepared_hits: u64,
    /// Prepared-network requests that triggered a synthesis.
    pub prepared_misses: u64,
    /// Workload-set requests served from the cache.
    pub workload_hits: u64,
    /// Workload-set requests that triggered an extraction.
    pub workload_misses: u64,
    /// Requests served by loading an artifact from the disk store (these
    /// count as neither "built" nor "extracted" — no computation ran).
    pub disk_hits: u64,
    /// Disk-store lookups that found nothing usable (missing file, stale
    /// code version, or a corrupt artifact that forced a recompute).
    pub disk_misses: u64,
}

impl CacheStats {
    /// Formats the counters as the run-summary lines.
    pub fn render(&self) -> String {
        format!(
            "prepared networks: {} built, {} cache hits\n\
             workload sets:     {} extracted, {} cache hits\n\
             disk artifacts:    {} loaded, {} missed",
            self.prepared_misses,
            self.prepared_hits,
            self.workload_misses,
            self.workload_hits,
            self.disk_hits,
            self.disk_misses
        )
    }

    /// The counter-wise difference `self - before` (saturating), for
    /// delta-over-a-run reporting.
    pub fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            prepared_hits: self.prepared_hits.saturating_sub(before.prepared_hits),
            prepared_misses: self.prepared_misses.saturating_sub(before.prepared_misses),
            workload_hits: self.workload_hits.saturating_sub(before.workload_hits),
            workload_misses: self.workload_misses.saturating_sub(before.workload_misses),
            disk_hits: self.disk_hits.saturating_sub(before.disk_hits),
            disk_misses: self.disk_misses.saturating_sub(before.disk_misses),
        }
    }
}

/// Attaches the persistent disk tier at `dir` to *every* process-wide
/// cache: the [`PrepCache`] (workload sets), the
/// model-phase [`ola_sim::SimCache`] (per-layer simulation results), the
/// eval-phase [`ola_quant::EvalCache`] (quantized-accuracy results) and
/// the figure-level stages (see [`FigureStats`]). This is what
/// `--cache-dir` wires up in the CLI and the daemon — one flag, one
/// directory, every cache level persistent.
pub fn attach_disk_store(dir: &Path) -> Result<(), StoreError> {
    PrepCache::global().set_disk(Some(dir))?;
    let store = Arc::new(ArtifactStore::open(dir)?);
    ola_sim::SimCache::global().set_store(Some(store.clone()));
    ola_quant::EvalCache::global().set_store(Some(store.clone()));
    crate::fig02::TRAINED.set_tier(Some(store.clone()));
    crate::fig03::SURROGATE.set_tier(Some(store.clone()));
    crate::fig16::RUNTIME.set_tier(Some(store));
    Ok(())
}

/// A point-in-time snapshot of the figure-level stages' counters: fig2's
/// trained SynthNet (shared with fig3 and the policy panel), fig3's
/// surrogate SQNRs and fig16's runtime counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FigureStats {
    /// The trained-SynthNet stage.
    pub trained: StageStats,
    /// The surrogate-SQNR stage.
    pub surrogate: StageStats,
    /// The runtime-count stage.
    pub runtime: StageStats,
}

impl FigureStats {
    /// Snapshots the process-wide stages.
    pub fn global() -> Self {
        FigureStats {
            trained: crate::fig02::TRAINED.stats(),
            surrogate: crate::fig03::SURROGATE.stats(),
            runtime: crate::fig16::RUNTIME.stats(),
        }
    }

    /// Formats the counters as the run-summary lines, one per stage.
    pub fn render(&self) -> String {
        let line = |label: &str, s: &StageStats| {
            format!(
                "{label:<19}{} built, {} cache hits, {} loaded, {} missed",
                s.built, s.hits, s.disk_hits, s.disk_misses
            )
        };
        [
            line("trained nets:", &self.trained),
            line("surrogate sqnrs:", &self.surrogate),
            line("runtime counts:", &self.runtime),
        ]
        .join("\n")
    }

    /// The counter-wise difference `self - before` (saturating), for
    /// delta-over-a-run reporting.
    pub fn since(&self, before: &FigureStats) -> FigureStats {
        let d = |a: &StageStats, b: &StageStats| StageStats {
            hits: a.hits.saturating_sub(b.hits),
            built: a.built.saturating_sub(b.built),
            disk_hits: a.disk_hits.saturating_sub(b.disk_hits),
            disk_misses: a.disk_misses.saturating_sub(b.disk_misses),
        };
        FigureStats {
            trained: d(&self.trained, &before.trained),
            surrogate: d(&self.surrogate, &before.surrogate),
            runtime: d(&self.runtime, &before.runtime),
        }
    }
}

/// Process-wide memoization of [`Prepared`] networks and [`WorkloadSet`]s:
/// one [`Stage`] per level, the workload sets with an optional persistent
/// disk tier. Requests for *different* keys never serialize on each
/// other's builds.
#[derive(Default)]
pub struct PrepCache {
    prepared: Stage<Prepared>,
    workloads: Stage<WorkloadSet>,
}

impl PrepCache {
    /// An empty cache (tests; production code uses [`PrepCache::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache instance.
    pub fn global() -> &'static PrepCache {
        static GLOBAL: OnceLock<PrepCache> = OnceLock::new();
        GLOBAL.get_or_init(PrepCache::new)
    }

    /// Attaches (or, with `None`, detaches) the persistent disk tier of
    /// the workload sets. Misses read through to the store before
    /// computing and fresh extractions write through after;
    /// already-resident entries are unaffected. Prepared networks stay in
    /// memory: a miss re-synthesizes them exactly (DESIGN.md §13).
    pub fn set_disk(&self, dir: Option<&Path>) -> Result<(), StoreError> {
        let store = dir.map(ArtifactStore::open).transpose()?;
        self.workloads.set_tier(store.map(|s| Arc::new(s) as _));
        Ok(())
    }

    /// Fetches or builds the [`Prepared`] network for a key. Exactly one
    /// caller per key runs the synthesis; the rest count hits.
    pub fn prepared(&self, network: &str, scale: usize, seed: u64) -> Arc<Prepared> {
        let key = prep_key(network, scale, seed).finish();
        self.prepared
            .get(key, || Prepared::with_seed(network, scale, seed))
    }

    /// Fetches or extracts the [`WorkloadSet`] of `(network, scale, seed)`
    /// under `policy`: from memory, else the disk tier, else extracted
    /// from the (memoized) preparation. Policies with equal folds (see
    /// [`QuantPolicy::fold`]) share one set.
    pub fn workloads(
        &self,
        network: &str,
        scale: usize,
        seed: u64,
        policy: &QuantPolicy,
    ) -> Arc<WorkloadSet> {
        let mut key = prep_key(network, scale, seed);
        policy.fold(&mut key);
        self.workloads.get(key.finish(), || {
            self.prepared(network, scale, seed).extract(policy)
        })
    }

    /// Snapshots the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        let (p, w) = (self.prepared.stats(), self.workloads.stats());
        CacheStats {
            prepared_hits: p.hits,
            prepared_misses: p.built,
            workload_hits: w.hits,
            workload_misses: w.built,
            disk_hits: p.disk_hits + w.disk_hits,
            disk_misses: p.disk_misses + w.disk_misses,
        }
    }

    /// Drops every entry and zeroes the counters (test isolation; also
    /// frees the memory of a long-lived process between suites). The disk
    /// tier, if attached, stays attached — its artifacts are exactly what
    /// makes the next fill cheap.
    pub fn reset(&self) {
        self.prepared.reset();
        self.workloads.reset();
    }
}

/// Results of the six-accelerator comparison of Figs 11-13.
pub struct SixWay {
    /// Eyeriss at 16 bits (the normalization reference).
    pub eyeriss16: NetworkRun,
    /// Eyeriss at 8 bits.
    pub eyeriss8: NetworkRun,
    /// ZeNA at 16 bits.
    pub zena16: NetworkRun,
    /// ZeNA at 8 bits.
    pub zena8: NetworkRun,
    /// OLAccel, 16-bit outliers (768 MACs).
    pub olaccel16: NetworkRun,
    /// OLAccel, 8-bit outliers (576 MACs).
    pub olaccel8: NetworkRun,
}

impl SixWay {
    /// Runs all six configurations on the paper's workloads: `ws16` under
    /// the OLAccel16 policy, `ws8` under OLAccel8.
    pub fn run(ws16: &WorkloadSet, ws8: &WorkloadSet, tech: &TechParams) -> SixWay {
        SixWay {
            eyeriss16: EyerissSim::new(*tech, ComparisonMode::Bits16).simulate(ws16),
            eyeriss8: EyerissSim::new(*tech, ComparisonMode::Bits8).simulate(ws8),
            zena16: ZenaSim::new(*tech, ComparisonMode::Bits16).simulate(ws16),
            zena8: ZenaSim::new(*tech, ComparisonMode::Bits8).simulate(ws8),
            olaccel16: OlAccelSim::new(*tech, ComparisonMode::Bits16).simulate(ws16),
            olaccel8: OlAccelSim::new(*tech, ComparisonMode::Bits8).simulate(ws8),
        }
    }

    /// All six runs, labeled, in the paper's plotting order.
    pub fn all(&self) -> [&NetworkRun; 6] {
        [
            &self.eyeriss16,
            &self.eyeriss8,
            &self.zena16,
            &self.zena8,
            &self.olaccel16,
            &self.olaccel8,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_and_direct_preparation_agree() {
        let cache = PrepCache::new();
        let via_cache = cache.prepared("alexnet", 8, DEFAULT_SEED);
        let direct = Prepared::new("alexnet", 8);
        assert_eq!(via_cache.network, direct.network);
        assert_eq!(via_cache.acts.len(), direct.acts.len());
        for (a, b) in via_cache.acts.iter().zip(&direct.acts) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn cache_builds_each_key_once() {
        let cache = PrepCache::new();
        let a = cache.prepared("alexnet", 8, DEFAULT_SEED);
        let b = cache.prepared("alexnet", 8, DEFAULT_SEED);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.prepared_misses, s.prepared_hits), (1, 1));

        let policy = QuantPolicy::olaccel16("alexnet");
        let w1 = cache.workloads("alexnet", 8, DEFAULT_SEED, &policy);
        let w2 = cache.workloads("alexnet", 8, DEFAULT_SEED, &policy);
        assert!(Arc::ptr_eq(&w1, &w2));
        let s = cache.stats();
        assert_eq!((s.workload_misses, s.workload_hits), (1, 1));
        assert_eq!(s.prepared_misses, 1, "extraction reuses the preparation");
    }

    #[test]
    fn equal_policies_share_a_cache_slot_despite_f64_bit_noise() {
        // -0.0 == 0.0: one policy, one slot, one extraction.
        let mut a = QuantPolicy::olaccel16("alexnet");
        let mut b = a;
        a.outlier_ratio = 0.0;
        b.outlier_ratio = -0.0;

        let cache = PrepCache::new();
        let w_a = cache.workloads("alexnet", 8, DEFAULT_SEED, &a);
        let w_b = cache.workloads("alexnet", 8, DEFAULT_SEED, &b);
        assert!(Arc::ptr_eq(&w_a, &w_b), "-0.0 and 0.0 split the cache");
        assert_eq!(cache.stats().workload_misses, 1);
        // NaN payloads fold onto one key too (`QuantPolicy::fold`'s tests).
    }

    #[test]
    fn distinct_policies_get_distinct_entries() {
        let cache = PrepCache::new();
        let ws = |p: &QuantPolicy| cache.workloads("alexnet", 8, DEFAULT_SEED, p);
        let mut p16 = QuantPolicy::olaccel16("alexnet");
        let w_a = ws(&p16);
        p16.outlier_ratio = 0.01;
        let w_b = ws(&p16);
        assert!(!Arc::ptr_eq(&w_a, &w_b));
        assert_eq!(cache.stats().workload_misses, 2);

        // The selection rule is part of the identity too: same ratio,
        // different policy, different extraction.
        p16.select = ola_sim::OutlierSelect::WindowedTopK { window: 16 };
        let w_c = ws(&p16);
        assert!(!Arc::ptr_eq(&w_b, &w_c), "select must key the cache");
        assert_eq!(cache.stats().workload_misses, 3);
    }

    #[test]
    fn seeds_change_the_preparation() {
        let a = Prepared::with_seed("alexnet", 8, DEFAULT_SEED);
        let b = Prepared::with_seed("alexnet", 8, 1234);
        let last_a = a.acts.last().unwrap().as_slice();
        let last_b = b.acts.last().unwrap().as_slice();
        assert_ne!(last_a, last_b, "different seeds must change the run");
    }

    #[test]
    fn figure_stats_render_one_line_per_stage() {
        let s = |n| StageStats {
            hits: n,
            built: n + 1,
            disk_hits: n + 2,
            disk_misses: n + 3,
        };
        let stats = FigureStats {
            trained: s(0),
            surrogate: s(10),
            runtime: s(20),
        };
        assert_eq!(
            stats.render(),
            "trained nets:      1 built, 0 cache hits, 2 loaded, 3 missed\n\
             surrogate sqnrs:   11 built, 10 cache hits, 12 loaded, 13 missed\n\
             runtime counts:    21 built, 20 cache hits, 22 loaded, 23 missed"
        );
        assert_eq!(stats.since(&stats), FigureStats::default());
        assert_eq!(stats.since(&FigureStats::default()), stats);
    }

    #[test]
    fn reset_clears_entries_and_counters() {
        let cache = PrepCache::new();
        let _ = cache.prepared("alexnet", 8, DEFAULT_SEED);
        cache.reset();
        assert_eq!(cache.stats(), CacheStats::default());
        let _ = cache.prepared("alexnet", 8, DEFAULT_SEED);
        assert_eq!(cache.stats().prepared_misses, 1);
    }
}
