//! The committed full-mode reports under `results/` are exactly the bytes
//! `olaccel-repro all --out DIR` writes today. The full suite takes
//! minutes, so the check only runs on request:
//!
//! ```text
//! cargo test --release -p ola-integration --test results_consistency -- --ignored
//! ```

use ola_tensor::par::default_jobs;
use std::fs;
use std::path::Path;

#[test]
#[ignore = "runs the full-mode suite, which takes minutes"]
fn committed_results_match_a_full_run() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
    let names = ola_harness::EXPERIMENTS;
    let reports = ola_harness::engine::run_suite_collect(names, false, default_jobs());
    let committed = |name: &str| fs::read_to_string(results.join(format!("{name}.txt"))).ok();
    let drifted: Vec<&str> = names
        .iter()
        .zip(&reports)
        .filter(|&(name, report)| committed(name).as_ref() != Some(report))
        .map(|(name, _)| *name)
        .collect();
    assert!(drifted.is_empty(), "differs from a full run: {drifted:?}");
    let files = fs::read_dir(&results).unwrap().count();
    assert_eq!(files, names.len(), "results/ holds a stray file");
}
