//! Workload preparation shared by the experiments: build a zoo network with
//! synthetic trained-like parameters, run the f32 reference once, and
//! extract per-layer workloads for each policy of interest.
//!
//! Preparation — synthesis, sparsity shaping, and the f32 forward pass — is
//! the dominant cost of a full reproduction run, and most figures ask for
//! the *same* prepared network (AlexNet at the default scale). The
//! [`PrepCache`] therefore memoizes both levels of the pipeline
//! process-wide:
//!
//! * [`Prepared`] networks, keyed by `(network, scale, seed)`;
//! * [`WorkloadSet`]s, keyed by `(network, scale, seed, policy)`.
//!
//! Every entry is computed exactly once per process — concurrent requests
//! for the same key block on a per-key slot while the first caller builds
//! it — so the parallel experiment engine (`crate::engine`) gets the
//! same bytes in every report regardless of scheduling order. All
//! randomness is derived from the explicit `seed` argument (see
//! [`Prepared::with_seed`]), never from global state, which is what makes
//! the memoization sound.
//!
//! With [`PrepCache::set_disk`] the cache additionally gains a persistent
//! tier: misses read through to an [`ArtifactStore`] before computing, and
//! fresh builds write through after. Both levels are
//! [`ola_tensor::memo::Stage`]s keyed by a [`Fingerprint`] of `(network,
//! scale, seed)` (plus the policy's fold for workload sets), and the store
//! adds the code version, so a stale store can never change results — at
//! worst it misses. A corrupt store file warns on stderr and recomputes;
//! it never fails a run.
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
use ola_store::codec::{decode_params, decode_tensor, encode_params, encode_tensor};
use ola_store::wire::{Reader, Writer};
use ola_store::{code_version, Artifact, ArtifactStore, StoreError};
use ola_tensor::init::uniform_tensor;
use ola_tensor::memo::{Fingerprint, Stage};
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
    /// Whether this instance lives in the global cache; if so, workload
    /// extraction routes through the cache too.
    cached: bool,
}

impl Prepared {
    /// Builds and runs a zoo network at the given spatial scale with the
    /// suite's [`DEFAULT_SEED`], bypassing the cache. Prefer [`prepared`]
    /// inside experiment code so concurrent figures share one synthesis.
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
            let synth_cfg = SynthConfig::for_network_seeded(network, seed ^ DEFAULT_SEED);
            let mut params = ola_nn::synth::synthesize_params(&net, &synth_cfg);
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
            cached: false,
        }
    }

    /// Reassembles a preparation from stored parts: the graph is not
    /// stored — it is cheap and fully determined by `(network, scale)` —
    /// so it is rebuilt here and the tensors are checked against it.
    pub fn from_parts(
        network: &str,
        scale: usize,
        seed: u64,
        params: Params,
        acts: Vec<Tensor>,
    ) -> Result<Self, String> {
        let net = zoo::try_by_name(network, &zoo_config(scale))
            .filter(|_| scale > 0)
            .ok_or_else(|| format!("no zoo network {network:?} at scale {scale}"))?;
        let nodes = net.nodes().len();
        if params.len() != nodes || acts.len() != nodes {
            return Err(format!(
                "{} params / {} acts do not match the {nodes} nodes of {network} \
                 (scale {scale})",
                params.len(),
                acts.len()
            ));
        }
        Ok(Prepared {
            net,
            params,
            acts,
            network: network.to_string(),
            scale,
            seed,
            cached: false,
        })
    }

    /// Extracts a workload set under `policy`, reusing the forward pass.
    ///
    /// Cache-resident instances (from [`prepared`] / [`PrepCache`]) also
    /// memoize the extraction per policy; directly-constructed ones extract
    /// fresh each call.
    pub fn workloads(&self, policy: &QuantPolicy) -> Arc<WorkloadSet> {
        if self.cached {
            PrepCache::global().workloads_for(self, policy)
        } else {
            Arc::new(self.extract(policy))
        }
    }

    /// Uncached workload extraction under `policy`.
    pub fn extract(&self, policy: &QuantPolicy) -> WorkloadSet {
        timing::timed(timing::Phase::Extract, || {
            extract_from_acts(&self.net, &self.params, &self.acts, policy)
        })
    }

    /// Workloads under the paper's standard OLAccel16 / OLAccel8 policies.
    pub fn paper_workloads(&self) -> (Arc<WorkloadSet>, Arc<WorkloadSet>) {
        (
            self.workloads(&QuantPolicy::olaccel16(&self.network)),
            self.workloads(&QuantPolicy::olaccel8(&self.network)),
        )
    }
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

/// The persisted form of a prepared network: its key fields, then the
/// parameters and activations. A decoded record rebuilds its graph and
/// must match it (see [`Prepared::from_parts`]).
impl Artifact for Prepared {
    const KIND: u8 = 1;
    const PREFIX: &'static str = "prep";
    fn version() -> u64 {
        code_version()
    }
    fn encode(&self, w: &mut Writer) {
        w.string(&self.network);
        w.u64(self.scale as u64);
        w.u64(self.seed);
        encode_params(w, &self.params);
        w.len(self.acts.len());
        for t in &self.acts {
            encode_tensor(w, t);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let network = r.string()?;
        let scale = r.u64()? as usize;
        let seed = r.u64()?;
        let params = decode_params(r)?;
        let n = r.len(8)?;
        let acts = (0..n).map(|_| decode_tensor(r)).collect::<Result<_, _>>()?;
        let mut p = Prepared::from_parts(&network, scale, seed, params, acts)
            .map_err(StoreError::Corrupt)?;
        p.cached = true;
        Ok(p)
    }
}

/// Fetches (or builds, exactly once per process) the shared [`Prepared`]
/// network for `(network, scale)` at the suite's [`DEFAULT_SEED`].
pub fn prepared(network: &str, scale: usize) -> Arc<Prepared> {
    PrepCache::global().prepared(network, scale, DEFAULT_SEED)
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
/// cache: the [`PrepCache`] (prepared networks, workload sets), the
/// model-phase [`ola_sim::SimCache`] (per-layer simulation results) and
/// the eval-phase [`ola_quant::EvalCache`] (quantized-accuracy results).
/// This is what `--cache-dir` wires up in the CLI and the daemon — one
/// flag, one directory, every cache level persistent.
pub fn attach_disk_store(dir: &Path) -> Result<(), StoreError> {
    PrepCache::global().set_disk(Some(dir))?;
    let store = Arc::new(ArtifactStore::open(dir)?);
    ola_sim::SimCache::global().set_store(Some(store.clone()));
    ola_quant::EvalCache::global().set_store(Some(store));
    Ok(())
}

/// Process-wide memoization of [`Prepared`] networks and [`WorkloadSet`]s,
/// with an optional persistent disk tier: one [`Stage`] per level.
/// Requests for *different* keys never serialize on each other's builds.
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

    /// Attaches (or, with `None`, detaches) the persistent disk tier.
    /// Misses read through to the store before computing and fresh builds
    /// write through after; already-resident entries are unaffected.
    pub fn set_disk(&self, dir: Option<&Path>) -> Result<(), StoreError> {
        let store = dir.map(ArtifactStore::open).transpose()?.map(Arc::new);
        self.prepared.set_tier(store.clone().map(|s| s as _));
        self.workloads.set_tier(store.map(|s| s as _));
        Ok(())
    }

    /// Fetches or builds the [`Prepared`] network for a key. Exactly one
    /// caller per key runs the synthesis (or the disk load); the rest
    /// count hits.
    pub fn prepared(&self, network: &str, scale: usize, seed: u64) -> Arc<Prepared> {
        let key = prep_key(network, scale, seed).finish();
        self.prepared.get(key, || {
            let mut p = Prepared::with_seed(network, scale, seed);
            p.cached = true;
            p
        })
    }

    /// Fetches or extracts the [`WorkloadSet`] of `prep` under `policy`.
    /// Policies with equal folds (see [`QuantPolicy::fold`]) share one
    /// set.
    pub fn workloads_for(&self, prep: &Prepared, policy: &QuantPolicy) -> Arc<WorkloadSet> {
        let mut key = prep_key(&prep.network, prep.scale, prep.seed);
        policy.fold(&mut key);
        self.workloads.get(key.finish(), || prep.extract(policy))
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
    /// Runs all six configurations on the paper's workloads.
    pub fn run(prep: &Prepared, tech: &TechParams) -> SixWay {
        let (ws16, ws8) = prep.paper_workloads();
        SixWay {
            eyeriss16: EyerissSim::new(*tech, ComparisonMode::Bits16).simulate(&ws16),
            eyeriss8: EyerissSim::new(*tech, ComparisonMode::Bits8).simulate(&ws8),
            zena16: ZenaSim::new(*tech, ComparisonMode::Bits16).simulate(&ws16),
            zena8: ZenaSim::new(*tech, ComparisonMode::Bits8).simulate(&ws8),
            olaccel16: OlAccelSim::new(*tech, ComparisonMode::Bits16).simulate(&ws16),
            olaccel8: OlAccelSim::new(*tech, ComparisonMode::Bits8).simulate(&ws8),
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
        let w1 = cache.workloads_for(&a, &policy);
        let w2 = cache.workloads_for(&b, &policy);
        assert!(Arc::ptr_eq(&w1, &w2));
        let s = cache.stats();
        assert_eq!((s.workload_misses, s.workload_hits), (1, 1));
    }

    #[test]
    fn equal_policies_share_a_cache_slot_despite_f64_bit_noise() {
        // -0.0 == 0.0: one policy, one slot, one extraction.
        let mut a = QuantPolicy::olaccel16("alexnet");
        let mut b = a;
        a.outlier_ratio = 0.0;
        b.outlier_ratio = -0.0;

        let cache = PrepCache::new();
        let prep = cache.prepared("alexnet", 8, DEFAULT_SEED);
        let w_a = cache.workloads_for(&prep, &a);
        let w_b = cache.workloads_for(&prep, &b);
        assert!(Arc::ptr_eq(&w_a, &w_b), "-0.0 and 0.0 split the cache");
        assert_eq!(cache.stats().workload_misses, 1);
        // NaN payloads fold onto one key too (`QuantPolicy::fold`'s tests).
    }

    #[test]
    fn distinct_policies_get_distinct_entries() {
        let cache = PrepCache::new();
        let prep = cache.prepared("alexnet", 8, DEFAULT_SEED);
        let mut p16 = QuantPolicy::olaccel16("alexnet");
        let w_a = cache.workloads_for(&prep, &p16);
        p16.outlier_ratio = 0.01;
        let w_b = cache.workloads_for(&prep, &p16);
        assert!(!Arc::ptr_eq(&w_a, &w_b));
        assert_eq!(cache.stats().workload_misses, 2);

        // The selection rule is part of the identity too: same ratio,
        // different policy, different extraction.
        p16.select = ola_sim::OutlierSelect::WindowedTopK { window: 16 };
        let w_c = cache.workloads_for(&prep, &p16);
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
    fn reset_clears_entries_and_counters() {
        let cache = PrepCache::new();
        let _ = cache.prepared("alexnet", 8, DEFAULT_SEED);
        cache.reset();
        assert_eq!(cache.stats(), CacheStats::default());
        let _ = cache.prepared("alexnet", 8, DEFAULT_SEED);
        assert_eq!(cache.stats().prepared_misses, 1);
    }
}
