//! The code-version fingerprint that content-addresses on-disk artifacts.
//!
//! A stored artifact is only valid while the code that would recompute it
//! produces bit-identical results. Rather than asking humans to bump a
//! version number whenever extraction semantics change, the store hashes
//! the *source text* of every crate file an artifact's bytes depend on —
//! tensor initialization and scans, synthetic parameter generation, the
//! network zoo, workload extraction, quantizer calibration, the vendored
//! RNG — at compile time. Any edit to those files changes the fingerprint,
//! changes every artifact filename, and silently invalidates the old
//! cache. (`include_str!` also registers each file with cargo's rebuild
//! tracking, so the fingerprint can never go stale.)
//!
//! Conservative by design: a comment-only edit to a hashed file also
//! invalidates the cache. That trades a few spurious recomputes for never
//! serving stale bytes.

use ola_tensor::memo::{fnv1a64, Fingerprint};
use std::sync::OnceLock;

/// Bump when the *container* format (header layout, wire encoding) changes
/// incompatibly. Semantic changes to the artifact contents are covered by
/// [`code_version`] instead.
pub const FORMAT_VERSION: u32 = 2;

/// `(path, text)` for each listed source file, the text embedded with
/// `include_str!` (which also registers the file with cargo's rebuild
/// tracking). Paths are relative to `crates/store/src/`.
macro_rules! folds {
    ($($path:literal),* $(,)?) => {
        &[$(($path, include_str!($path))),*]
    };
}

/// Source files whose text determines artifact bytes.
const SOURCES: &[(&str, &str)] = folds![
    // Tensor substrate: RNG-driven init, scans and chunking feed every
    // synthesized parameter and every measured statistic.
    "../../tensor/src/tensor.rs",
    "../../tensor/src/shape.rs",
    "../../tensor/src/init.rs",
    "../../tensor/src/chunk.rs",
    "../../tensor/src/scan.rs",
    "../../tensor/src/stats.rs",
    "../../tensor/src/par.rs",
    // Network substrate: graph construction, synthetic parameters, the
    // forward pass that produces the activations workloads are measured on.
    "../../nn/src/layer.rs",
    "../../nn/src/network.rs",
    "../../nn/src/kernels.rs",
    "../../nn/src/synth.rs",
    "../../nn/src/zoo.rs",
    // Quantization: calibration and outlier selection shape the workload
    // statistics.
    "../../quant/src/calibrate.rs",
    "../../quant/src/outlier.rs",
    "../../quant/src/policy.rs",
    // Simulation: the extraction pass itself plus the policy definition.
    "../../sim/src/workload.rs",
    "../../sim/src/policy.rs",
    // The RNG every synthetic value flows through.
    "../../../vendored/rand/src/lib.rs",
    // The preparation pipeline that orchestrates all of the above (seed
    // derivation, activation-sparsity shaping). Text-only include — no
    // crate dependency cycle.
    "../../harness/src/prep.rs",
];

/// Source files whose text determines *simulation result* bytes — the
/// accelerator cycle/energy models and everything they read. Kept separate
/// from [`SOURCES`] so an edit to, say, workload extraction invalidates
/// workload sets without also discarding still-valid sim records (and
/// vice versa). Like [`SOURCES`], text-only includes — `ola-store` has no
/// crate dependency on `ola-core`/`ola-baselines`.
const MODEL_SOURCES: &[(&str, &str)] = folds![
    // OLAccel's analytic model and the event-driven validation backend.
    "../../core/src/model.rs",
    "../../core/src/cost.rs",
    "../../core/src/dispatch.rs",
    "../../core/src/event.rs",
    // Baseline accelerator models.
    "../../baselines/src/eyeriss.rs",
    "../../baselines/src/zena.rs",
    // The energy/area model every accelerator prices its cycles with.
    "../../energy/src/account.rs",
    "../../energy/src/config.rs",
    "../../energy/src/dram.rs",
    "../../energy/src/mac.rs",
    "../../energy/src/params.rs",
    "../../energy/src/sram.rs",
    // Sim-level inputs: workload statistics (and their fingerprint),
    // traffic model and the chunk formats it sizes, result records, the
    // cache keying machinery itself.
    "../../sim/src/workload.rs",
    "../../sim/src/traffic.rs",
    "../../quant/src/chunks.rs",
    "../../sim/src/result.rs",
    "../../sim/src/simcache.rs",
    "../../tensor/src/memo.rs",
    // The RNG behind the event backend's multi-outlier draws.
    "../../../vendored/rand/src/lib.rs",
];

/// Source files whose text determines *accuracy evaluation* bytes — the
/// quantized forward pass and everything that shapes a `QuantAccuracy`
/// record. Kept separate from [`SOURCES`]/[`MODEL_SOURCES`] so accelerator
/// or extraction edits don't discard still-valid eval records (and an eval
/// edit doesn't discard workload or sim artifacts). Text-only includes — no
/// crate dependency on `ola-quant` needed.
const EVAL_SOURCES: &[(&str, &str)] = folds![
    // The evaluation pipeline itself: quantize, calibrate, forward, plus
    // the cache keying machinery.
    "../../quant/src/accuracy.rs",
    "../../quant/src/evalcache.rs",
    "../../quant/src/calibrate.rs",
    "../../quant/src/linear.rs",
    "../../quant/src/outlier.rs",
    "../../quant/src/policy.rs",
    // The network the accuracy figures run on (training, forward, eval).
    "../../nn/src/synthnet.rs",
    // Shared substrate the quantizers and SynthNet lean on.
    "../../tensor/src/stats.rs",
    "../../tensor/src/par.rs",
    "../../tensor/src/memo.rs",
    // The RNG behind dataset synthesis and training shuffles.
    "../../../vendored/rand/src/lib.rs",
];

/// The harness files that each hold one figure-level record's recipe:
/// fig2's training recipe, fig3's SQNR surrogate and fig16's runtime
/// counts. Each is folded only into its own record's version, on top of
/// the fold(s) that record reads, so an edit to one of them invalidates
/// that record alone — never a ws, sim or eval record. Text-only
/// includes, like `prep.rs` in [`SOURCES`].
const RECIPES: &[(&str, &str)] = folds![
    "../../harness/src/fig02.rs",
    "../../harness/src/fig03.rs",
    "../../harness/src/fig16.rs",
];

/// Length-framed FNV-1a fold over [`FORMAT_VERSION`] and `sources` — file
/// lengths are folded in between texts so content can't slide across file
/// boundaries ("ab" + "c" vs "a" + "bc").
fn sources_version(sources: &[(&str, &str)]) -> u64 {
    let mut h = fnv1a64(&FORMAT_VERSION.to_le_bytes());
    for (_, src) in sources {
        h ^= fnv1a64(&(src.len() as u64).to_le_bytes());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= fnv1a64(src.as_bytes());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The process's code-version fingerprint: an FNV-1a fold over
/// [`FORMAT_VERSION`] and the length-framed source text of every file in
/// [`SOURCES`]. Identical across runs of the same build; different
/// whenever any artifact-relevant source file changes. Computed once per
/// process, like the other two folds.
pub fn code_version() -> u64 {
    static V: OnceLock<u64> = OnceLock::new();
    *V.get_or_init(|| sources_version(SOURCES))
}

/// The process's model-version fingerprint: same construction as
/// [`code_version`] but over [`MODEL_SOURCES`]. Content-addresses per-layer
/// simulation records (the `SimCache` disk tier) to the accelerator-model
/// code that produced them.
pub fn model_version() -> u64 {
    static V: OnceLock<u64> = OnceLock::new();
    *V.get_or_init(|| sources_version(MODEL_SOURCES))
}

/// The process's eval-version fingerprint: same construction as
/// [`code_version`] but over [`EVAL_SOURCES`]. Content-addresses persisted
/// `QuantAccuracy` records (the `EvalCache` disk tier) to the evaluation
/// code that produced them.
pub fn eval_version() -> u64 {
    static V: OnceLock<u64> = OnceLock::new();
    *V.get_or_init(|| sources_version(EVAL_SOURCES))
}

/// A figure-level record's version: the folds it reads, then the text of
/// its recipe file.
fn recipe_version(bases: &[u64], (_, text): (&str, &str)) -> u64 {
    let mut fp = Fingerprint::new();
    for &base in bases {
        fp.u64(base);
    }
    fp.str(text).finish()
}

/// The version of fig2's trained-SynthNet record: [`eval_version`] (the
/// SynthNet training and evaluation code) plus `fig02.rs` (the recipe).
pub fn train_version() -> u64 {
    static V: OnceLock<u64> = OnceLock::new();
    *V.get_or_init(|| recipe_version(&[eval_version()], RECIPES[0]))
}

/// The version of fig3's surrogate-SQNR record: [`code_version`] (zoo
/// graphs and weight synthesis) and [`eval_version`] (the quantizers and
/// the SQNR measure) plus `fig03.rs`.
pub fn surrogate_version() -> u64 {
    static V: OnceLock<u64> = OnceLock::new();
    *V.get_or_init(|| recipe_version(&[code_version(), eval_version()], RECIPES[1]))
}

/// The version of fig16's runtime-count record: [`code_version`] (the
/// prepared network, calibration and the forward pass) plus `fig16.rs`.
pub fn runtime_version() -> u64 {
    static V: OnceLock<u64> = OnceLock::new();
    *V.get_or_init(|| recipe_version(&[code_version()], RECIPES[2]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    // Why a file's text cannot change the bytes of a stored artifact.
    const DECLS: &str = "module declarations and re-exports";
    const FORMAT: &str = "container encoding, versioned by FORMAT_VERSION";
    const UNSTORED: &str = "computes values no stage stores";
    const PLUMBING: &str = "CLI, scheduling or daemon plumbing";
    const RENDERS: &str = "renders reports; its inputs reach the store only via keys";

    /// Files of the hashed crates that no fold includes, with the reason.
    /// Paths are relative to `crates/`.
    const UNFOLDED: &[(&str, &str)] = &[
        ("baselines/src/lib.rs", DECLS),
        ("core/src/lib.rs", DECLS),
        ("energy/src/lib.rs", DECLS),
        ("nn/src/lib.rs", DECLS),
        ("quant/src/lib.rs", DECLS),
        ("sim/src/lib.rs", DECLS),
        ("tensor/src/lib.rs", DECLS),
        ("tensor/src/bytes.rs", FORMAT),
        ("quant/src/metrics.rs", UNSTORED),
        ("sim/src/timing.rs", UNSTORED),
        ("core/src/datapath.rs", UNSTORED),
        ("core/src/functional.rs", UNSTORED),
        ("core/src/tribuffer.rs", UNSTORED),
        ("core/src/scale.rs", UNSTORED),
        ("harness/src/bin/olaccel_repro.rs", PLUMBING),
        ("harness/src/cli.rs", PLUMBING),
        ("harness/src/engine.rs", PLUMBING),
        ("harness/src/lib.rs", PLUMBING),
        ("harness/src/server.rs", PLUMBING),
        ("harness/src/timing.rs", PLUMBING),
        ("harness/src/report.rs", RENDERS),
        ("harness/src/summary.rs", RENDERS),
        ("harness/src/table1.rs", RENDERS),
        ("harness/src/fig01.rs", RENDERS),
        ("harness/src/fig11_13.rs", RENDERS),
        ("harness/src/fig14.rs", RENDERS),
        ("harness/src/fig15.rs", RENDERS),
        ("harness/src/fig17.rs", RENDERS),
        ("harness/src/fig18.rs", RENDERS),
        ("harness/src/fig19.rs", RENDERS),
        ("harness/src/policy_panel.rs", RENDERS),
        ("harness/src/sensitivity.rs", RENDERS),
        ("harness/src/validate.rs", RENDERS),
    ];

    fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    /// A file missing from every fold would let the store serve artifacts
    /// its edits made stale, so each file under the `src/` trees the folds
    /// draw from must be folded or exempted above.
    #[test]
    fn every_source_file_is_folded_or_exempt() {
        let crates_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let rel = |(path, _): &(&'static str, &str)| path.strip_prefix("../../").unwrap();
        let global: Vec<&str> = [SOURCES, MODEL_SOURCES, EVAL_SOURCES]
            .concat()
            .iter()
            .map(rel)
            .collect();
        // A recipe file folded into a global fold would let its edits
        // invalidate every record of that fold.
        for recipe in RECIPES.iter().map(rel) {
            assert!(!global.contains(&recipe), "{recipe} is in a global fold");
        }
        let folded: Vec<&str> = global.into_iter().chain(RECIPES.iter().map(rel)).collect();
        let mut roots: Vec<&str> = folded
            .iter()
            .map(|p| &p[..p.find("/src/").unwrap()])
            .collect();
        roots.sort_unstable();
        roots.dedup();
        let mut unlisted = Vec::new();
        for root in roots {
            let mut files = Vec::new();
            rust_files(&crates_dir.join(root).join("src"), &mut files);
            for file in files {
                let rel = file
                    .strip_prefix(&crates_dir)
                    .unwrap()
                    .display()
                    .to_string();
                if !folded.contains(&rel.as_str()) && !UNFOLDED.iter().any(|(p, _)| *p == rel) {
                    unlisted.push(rel);
                }
            }
        }
        assert!(
            unlisted.is_empty(),
            "fold or exempt (with a reason): {unlisted:?}"
        );
        for (path, _) in UNFOLDED {
            assert!(crates_dir.join(path).is_file(), "stale exemption {path}");
            assert!(!folded.contains(path), "{path} is both folded and exempt");
        }
    }

    #[test]
    fn code_version_is_stable_within_a_build() {
        assert_eq!(code_version(), code_version());
        assert_ne!(code_version(), 0);
    }

    #[test]
    fn model_version_is_stable_and_independent() {
        assert_eq!(model_version(), model_version());
        assert_ne!(model_version(), 0);
        // Different source sets must not collide (which would defeat the
        // point of invalidating them independently).
        assert_ne!(model_version(), code_version());
    }

    #[test]
    fn eval_version_is_stable_and_independent() {
        assert_eq!(eval_version(), eval_version());
        assert_ne!(eval_version(), 0);
        assert_ne!(eval_version(), code_version());
        assert_ne!(eval_version(), model_version());
    }

    #[test]
    fn recipe_versions_are_stable_and_independent() {
        let recipes = [train_version(), surrogate_version(), runtime_version()];
        assert_eq!(
            recipes,
            [train_version(), surrogate_version(), runtime_version()]
        );
        let mut all = recipes.to_vec();
        all.extend([code_version(), model_version(), eval_version()]);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 6, "every record kind needs its own version");
    }
}
