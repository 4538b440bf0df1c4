//! CLI entry point for regenerating the paper's tables and figures.
//!
//! Three modes: a one-shot run (the historical mode), a long-lived daemon
//! (`serve`) answering experiment requests over a Unix socket, and a thin
//! client (`request`) that sends one protocol line to a daemon. Parsing
//! lives in [`ola_harness::cli`]; the daemon in [`ola_harness::server`].
//!
//! Experiments run concurrently on a work queue; reports stream to stdout
//! in the order requested and are byte-identical at any `--jobs` value
//! (preparation is seeded and shared through a process-wide cache, with an
//! optional persistent disk tier behind `--cache-dir`). The run summary —
//! per-experiment wall time, phase breakdown, and cache hit/miss counters
//! — goes to stderr so stdout stays stable enough to diff.

use ola_harness::cli::{self, Command};
use std::fs;
use std::process::exit;

const USAGE: &str = "\
olaccel-repro [EXPERIMENT]... [--fast] [--jobs N] [--out DIR] [--cache-dir DIR]
olaccel-repro serve --socket PATH [--fast] [--jobs N] [--out DIR] [--cache-dir DIR]
olaccel-repro request --socket PATH <PROTOCOL LINE>...

EXPERIMENT  fig1 fig2 fig3 table1 fig11 fig12 fig13 fig14 fig15 fig16
            fig17 fig18 fig19 validate validate-<network> policy-panel
            extra-resnet101 extra-densenet121 compare-<network>
            all (default)
--fast      reduced spatial scale / training budget (CI-friendly)
--jobs N    worker budget (default: available parallelism; 1 = serial).
            Concurrent experiments split it evenly, and each experiment's
            share feeds its synthesis, forwards, extraction, training,
            simulations and evals; output is byte-identical at any N.
            In `serve`, the default for requests without their own --jobs
            (a request may ask for at most 1024).
--out DIR   additionally write each report to DIR/<experiment>.txt
--cache-dir DIR
            persistent artifact store: workload sets, per-layer
            simulation results and figure records are written there on
            first build and loaded (skipping synthesize/forward/extract —
            and, when warm, the model phase — entirely) on later runs.
            Artifacts are content-addressed by their inputs plus a code /
            model version fingerprint, so a stale or corrupt store never
            changes results — it only misses, with a stderr warning.

serve       run as a daemon on a Unix socket. Protocol: one request per
            line — `run <experiment> [--fast|--full] [--jobs N]`, `stats`,
            `ping`, `shutdown`. Identical in-flight requests coalesce onto
            one computation. SIGINT/SIGTERM (or `shutdown`) drains
            in-flight work and removes the socket.
request     send one protocol line to a running daemon; the response
            header goes to stderr, the report payload to stdout.
--help      print this help";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: olaccel-repro [EXPERIMENT]... [--fast] [--jobs N] [--out DIR] [--cache-dir DIR]"
    );
    eprintln!("       olaccel-repro serve --socket PATH [options]");
    eprintln!("       olaccel-repro request --socket PATH <PROTOCOL LINE>...");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Err(msg) => usage_error(&msg),
        Ok(Command::Help) => println!("{USAGE}"),
        Ok(Command::Run { names, options }) => {
            if let Some(dir) = &options.cache_dir {
                if let Err(e) = ola_harness::prep::attach_disk_store(dir) {
                    usage_error(&format!("cannot open --cache-dir {}: {e}", dir.display()));
                }
            }
            if let Some(dir) = &options.out_dir {
                fs::create_dir_all(dir).expect("create output directory");
            }
            let names = cli::resolve_names(&names);
            let jobs = options.jobs.unwrap_or_else(ola_tensor::par::default_jobs);
            let out_dir = options.out_dir.clone();
            let result = ola_harness::engine::run_suite(&names, options.fast, jobs, |outcome| {
                if let Ok(report) = &outcome.report {
                    println!("{report}");
                    if let Some(dir) = &out_dir {
                        fs::write(dir.join(format!("{}.txt", outcome.name)), report)
                            .expect("write report");
                    }
                }
            });
            eprint!("{}", result.summary());
        }
        Ok(Command::Serve { socket, options }) => {
            match ola_harness::server::serve(&socket, &options) {
                Ok(summary) => eprintln!(
                    "served {} request(s), {} coalesced",
                    summary.requests, summary.coalesced
                ),
                Err(e) => {
                    eprintln!("error: {e}");
                    exit(1);
                }
            }
        }
        Ok(Command::Request { socket, line }) => {
            if let Err(msg) = ola_harness::server::request(&socket, &line) {
                eprintln!("error: {msg}");
                exit(1);
            }
        }
    }
}
