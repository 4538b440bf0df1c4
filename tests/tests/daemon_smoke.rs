//! In-process smoke test of the `serve` daemon: two concurrent identical
//! requests coalesce onto one computation and receive byte-identical
//! payloads, concurrent requests with different `--jobs` each get the
//! one-shot bytes, the protocol's small commands answer, a path-like
//! request against the disk store, an oversized line and an oversized
//! `--jobs` fail cleanly, and `shutdown` drains cleanly and removes the
//! socket.
//!
//! This file holds a single `#[test]` on purpose — the daemon runs
//! experiments through the global [`ola_harness::prep::PrepCache`] and the
//! stats assertions below would race any other test in the same binary.

#![cfg(unix)]

mod common;

use ola_harness::cli::RunOptions;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Sends one protocol line and returns `(header, payload)`.
fn roundtrip(socket: &std::path::Path, line: &str) -> (String, Vec<u8>) {
    let mut stream = UnixStream::connect(socket).expect("connect");
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut header = String::new();
    reader.read_line(&mut header).unwrap();
    let header = header.trim_end().to_string();
    let bytes = header
        .split_whitespace()
        .find_map(|w| w.strip_prefix("bytes="))
        .map(|v| v.parse::<usize>().unwrap())
        .unwrap_or(0);
    let mut payload = vec![0u8; bytes];
    reader.read_exact(&mut payload).unwrap();
    (header, payload)
}

fn header_field<'a>(header: &'a str, key: &str) -> Option<&'a str> {
    header
        .split_whitespace()
        .find_map(|w| w.strip_prefix(key).and_then(|w| w.strip_prefix('=')))
}

#[test]
fn daemon_coalesces_and_shuts_down_cleanly() {
    ola_harness::prep::PrepCache::global().reset();
    let socket = std::env::temp_dir().join(format!("ola-daemon-{}.sock", std::process::id()));
    std::fs::remove_file(&socket).ok();
    let store = common::scratch_dir("daemon-store");

    let options = RunOptions {
        fast: true,
        jobs: Some(2),
        out_dir: None,
        cache_dir: Some(store.clone()),
    };
    let server = {
        let socket = socket.clone();
        std::thread::spawn(move || ola_harness::server::serve(&socket, &options))
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "server never bound its socket");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (_, pong) = roundtrip(&socket, "ping");
    assert!(pong.is_empty());

    // Two concurrent identical requests: exactly one computes, both get the
    // same bytes.
    let results: Vec<(String, Vec<u8>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| roundtrip(&socket, "run fig14")))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        results[0].1, results[1].1,
        "payloads must be byte-identical"
    );
    assert!(!results[0].1.is_empty());
    let coalesced: Vec<_> = results
        .iter()
        .map(|(h, _)| header_field(h, "coalesced").unwrap())
        .collect();
    assert_eq!(
        coalesced.iter().filter(|c| **c == "0").count(),
        1,
        "exactly one of two identical requests computes, got {coalesced:?}"
    );
    for (h, p) in &results {
        assert_eq!(header_field(h, "name"), Some("fig14"));
        assert_eq!(
            header_field(h, "bytes").unwrap().parse::<usize>().unwrap(),
            p.len()
        );
        assert!(header_field(h, "wall_ms").is_some(), "timing missing: {h}");
    }

    // A replay is served from the memo — still the same bytes, coalesced=1.
    let (h, p) = roundtrip(&socket, "run fig14");
    assert_eq!(p, results[0].1);
    assert_eq!(header_field(&h, "coalesced"), Some("1"));

    // One fig14 run prepares exactly one network, however many clients ask.
    let (_, stats) = roundtrip(&socket, "stats");
    let stats = String::from_utf8(stats).unwrap();
    assert!(
        stats.contains("prepared networks: 1 built"),
        "coalescing failed or stats wrong:\n{stats}"
    );

    // Concurrent requests with different worker budgets: each payload is
    // the one-shot stdout (the report plus `println!`'s newline).
    let requests = [("fig17", 1), ("table1", 2)];
    std::thread::scope(|scope| {
        let socket = &socket;
        let handles = requests.map(|(name, jobs)| {
            scope.spawn(move || roundtrip(socket, &format!("run {name} --jobs {jobs}")).1)
        });
        for (handle, (name, _)) in handles.into_iter().zip(requests) {
            let one_shot = ola_harness::run_experiment(name, true) + "\n";
            assert_eq!(handle.join().unwrap(), one_shot.into_bytes(), "{name}");
        }
    });

    // A line past the cap is refused and its connection closed. The daemon
    // stops reading at the cap, so the rest of the write may fail.
    let mut stream = UnixStream::connect(&socket).expect("connect");
    let _ = stream.write_all(&vec![b'x'; 1 << 20]);
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert_eq!(reply, "err request line too long\n");

    // Bad requests answer with `err ...` and leave the daemon serviceable.
    let (h, _) = roundtrip(&socket, "run fig1 --jobs 1000000");
    assert!(h.starts_with("err "), "--jobs over the cap: {h}");
    let (h, _) = roundtrip(&socket, "run fig99");
    assert!(h.starts_with("err "), "got: {h}");
    let (h, _) = roundtrip(&socket, "run __panic");
    assert!(h.starts_with("err "), "hidden hooks must be rejected: {h}");
    let (h, _) = roundtrip(&socket, "frobnicate");
    assert!(h.starts_with("err "), "got: {h}");
    let (h, _) = roundtrip(&socket, "run compare-../escape");
    assert!(
        h.starts_with("err "),
        "path-like names must be rejected: {h}"
    );
    let (h, _) = roundtrip(&socket, "ping");
    assert_eq!(h, "ok pong", "daemon must still answer");

    let (h, _) = roundtrip(&socket, "shutdown");
    assert_eq!(h, "ok shutting-down");
    let summary = server
        .join()
        .expect("server thread must not panic")
        .expect("serve must exit cleanly");
    assert!(summary.requests >= 8, "got {summary:?}");
    assert_eq!(summary.coalesced, 2, "one racer + one replay: {summary:?}");
    assert!(!socket.exists(), "socket file must be removed on shutdown");
    std::fs::remove_dir_all(&store).ok();
}
