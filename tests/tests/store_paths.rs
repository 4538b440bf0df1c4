//! Store file names never carry caller-supplied text: after a cold
//! `--fast` run with the disk tier attached, every file in the store is
//! `{prefix}-{key:016x}-v{version:016x}.olas` with one of the seven record
//! prefixes, and a request naming a path-like network fails without
//! touching the store.
//!
//! This file holds a single `#[test]` on purpose — it attaches the disk
//! tier to the process-wide caches, which would leak into any other test
//! in the same binary.

mod common;

use ola_harness::fig02::Recipe;
use ola_nn::synthnet::{SynthDataset, SynthNet};
use ola_quant::accuracy::{evaluate_synthnet, QuantSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};

const PREFIXES: [&str; 7] = [
    "ws",
    "simrun",
    "simev",
    "eval",
    "train",
    "surrogate",
    "runtime",
];

/// `^(ws|simrun|simev|eval|train|surrogate|runtime)-[0-9a-f]{16}-v[0-9a-f]{16}\.olas$`.
fn is_record_name(name: &str) -> bool {
    let hex16 = |s: &str| s.len() == 16 && s.bytes().all(|b| b"0123456789abcdef".contains(&b));
    let parts = name.strip_suffix(".olas").and_then(|s| s.split_once('-'));
    match parts.and_then(|(prefix, rest)| Some((prefix, rest.split_once("-v")?))) {
        Some((prefix, (key, version))) => {
            PREFIXES.contains(&prefix) && hex16(key) && hex16(version)
        }
        None => false,
    }
}

#[test]
fn cold_run_writes_only_fingerprint_named_records() {
    let dir = common::scratch_dir("store-paths");
    ola_harness::prep::attach_disk_store(&dir).unwrap();

    // Workload sets and layer sims; event sims; fig16's
    // runtime counts; one accuracy record through the global eval cache;
    // one trained net (a tiny recipe) and one surrogate network.
    for name in ["fig18", "validate", "fig16"] {
        assert!(!ola_harness::run_experiment(name, true).is_empty());
    }
    let net = SynthNet::new(4, 1);
    let data = SynthDataset::generate(8, 4, 2);
    let _ = evaluate_synthnet(&net, &data, &data, &QuantSpec::paper_4bit(0.03), 2);
    let recipe = Recipe {
        train_size: 8,
        test_size: 4,
        epochs: 1,
        ..Recipe::of(true)
    };
    let _ = recipe.trained();
    let _ = ola_harness::fig03::surrogate("alexnet");

    // A path-like network name is rejected, and reaches no file name.
    let escape = catch_unwind(AssertUnwindSafe(|| {
        ola_harness::run_experiment("compare-../escape", true)
    }));
    assert!(escape.is_err(), "an unknown network must fail the request");

    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    for prefix in PREFIXES {
        let found = names.iter().any(|n| n.starts_with(&format!("{prefix}-")));
        assert!(found, "no {prefix} record in {names:?}");
    }
    let stray: Vec<&String> = names.iter().filter(|n| !is_record_name(n)).collect();
    assert!(stray.is_empty(), "unexpected store files: {stray:?}");
    std::fs::remove_dir_all(&dir).ok();
}
