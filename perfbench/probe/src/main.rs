//! Traced runner for the perfbench benchmark.
//!
//! Runs the fast suite (`suite`) or hosts the daemon (`serve`) inside this
//! process, so the counters the crates already expose can be read when the
//! work ends: the phase accumulators of `ola_sim::timing`, and the
//! prepared-network, simulation and evaluation cache statistics. It then
//! times the public calls that no phase covers, on the figures' own inputs:
//!
//! * `fig02::TrainedSynthNet::train(true)` (SGD throughput),
//! * `zoo::by_name` + `synthesize_params` + `mean_weight_sqnr_db` for the
//!   five networks of fig3's SQNR surrogate,
//! * `calibrate_activations` + `Network::forward` for fig16.
//!
//! Spans (name, start, end, parent) are kept in memory and written to the
//! `--spans` file when the run ends. The last stdout line is one JSON
//! object with every raw number; `perfbench/run.py` derives the metrics.
//!
//! ```text
//! perfbench-probe suite --jobs N [--cache-dir D] --out DIR --spans FILE NAME...
//! perfbench-probe serve --socket S [--cache-dir D] --spans FILE
//! ```

use ola_harness::cli::RunOptions;
use ola_harness::fig02::TrainedSynthNet;
use ola_harness::prep::{self, CacheStats, PrepCache};
use ola_harness::timing::{self, PhaseStats};
use ola_nn::synth::{synthesize_params, weight_values, SynthConfig};
use ola_nn::zoo::{self, ZooConfig};
use ola_nn::{Network, Op};
use ola_quant::accuracy::{mean_weight_sqnr_db, QuantSpec};
use ola_quant::calibrate::calibrate_activations;
use ola_quant::{EvalCache, EvalStats};
use ola_sim::policy::default_ratio;
use ola_sim::{SimCache, SimStats};
use ola_tensor::init::uniform_tensor;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

/// Epochs of fig2's fast training recipe (`TrainedSynthNet::train(true)`).
const FAST_EPOCHS: usize = 8;

/// The networks of fig3's SQNR surrogate, in the figure's row order.
const SURROGATE_NETWORKS: [&str; 5] = ["alexnet", "vgg16", "resnet18", "resnet101", "densenet121"];

struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

/// In-memory span log; written out once, when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index (for children).
    fn record(&mut self, name: &str, start: Instant, end: Instant, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
        });
        self.spans.len() - 1
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.name,
                    s.start.as_nanos(),
                    s.end.as_nanos(),
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[{}]\n", rows.join(",\n"))
    }
}

/// Wall time of the probed calls that no phase accumulator covers.
struct Probes {
    train_phase_s: f64,
    train_samples: usize,
    surrogate_s: f64,
    calibrate_s: f64,
    forward_s: f64,
    forward_macs: u64,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Pins every per-call worker knob, as the engine does for one worker.
fn pin_inner_jobs(jobs: usize) {
    ola_nn::kernels::set_forward_jobs(jobs);
    ola_sim::workload::set_extract_jobs(jobs);
    ola_sim::simcache::set_model_jobs(jobs);
    ola_quant::evalcache::set_eval_jobs(jobs);
    ola_tensor::par::set_fill_jobs(jobs);
}

/// Multiply-accumulates of one forward pass of `net` (batch 1).
fn forward_macs(net: &Network) -> u64 {
    let shapes = net.shapes();
    net.nodes()
        .iter()
        .map(|node| match node.op {
            Op::Conv(spec) => {
                let i = shapes[node.inputs[0]];
                spec.macs(i.h, i.w)
            }
            Op::Linear(spec) => spec.macs(),
            _ => 0,
        })
        .sum()
}

/// fig3's surrogate path for one network: synthesize its weights at the
/// figure's scale and score both quantizer specs the figure prints.
fn surrogate(network: &str) -> (f64, f64) {
    let cfg = ZooConfig {
        spatial_scale: 8,
        include_classifier: true,
        batch: 1,
    };
    let net = zoo::by_name(network, &cfg);
    let params = synthesize_params(&net, &SynthConfig::for_network(network));
    let weights: Vec<Vec<f32>> = net
        .compute_nodes()
        .iter()
        .map(|&id| weight_values(&params, id))
        .collect();
    let ratio = if network == "alexnet" {
        0.035
    } else {
        default_ratio(network)
    };
    let spec = QuantSpec {
        first_layer_weight_bits: if network.starts_with("resnet") { 8 } else { 4 },
        ..QuantSpec::paper_4bit(ratio)
    };
    (
        mean_weight_sqnr_db(&weights, &spec),
        mean_weight_sqnr_db(&weights, &QuantSpec::paper_4bit(0.0)),
    )
}

fn run_probes(tracer: &mut Tracer, root: usize) -> Probes {
    pin_inner_jobs(1);

    let t0 = Instant::now();
    let before = timing::snapshot();
    let trained = black_box(TrainedSynthNet::train(true));
    let train_phase = timing::snapshot().since(&before).train;
    let t1 = Instant::now();
    tracer.record("probe.train", t0, t1, Some(root));

    let parent = tracer.spans.len();
    tracer.record("probe.surrogate", t1, t1, Some(root));
    for network in SURROGATE_NETWORKS {
        let s = Instant::now();
        black_box(surrogate(network));
        tracer.record(
            &format!("probe.surrogate.{network}"),
            s,
            Instant::now(),
            Some(parent),
        );
    }
    let t2 = Instant::now();
    tracer.spans[parent].end = t2.saturating_duration_since(tracer.origin);

    // fig16's design-time calibration and runtime forward, on the prepared
    // AlexNet the suite already built (a cache hit, so not re-timed here).
    let prepared = prep::prepared("alexnet", prep::default_scale("alexnet", true));
    let samples: Vec<_> = (0..3)
        .map(|i| uniform_tensor(prepared.net.input_shape(), -1.0, 1.0, 0xCA11B + i))
        .collect();
    let runtime_input = uniform_tensor(prepared.net.input_shape(), -1.0, 1.0, 0x4217);
    let t3 = Instant::now();
    black_box(calibrate_activations(
        &prepared.net,
        &prepared.params,
        &samples,
        0.03,
    ));
    let t4 = Instant::now();
    black_box(prepared.net.forward(&prepared.params, &runtime_input));
    let t5 = Instant::now();
    let cal = tracer.record("probe.calibrate", t3, t5, Some(root));
    tracer.record("probe.calibrate.forward", t4, t5, Some(cal));

    Probes {
        train_phase_s: secs(train_phase),
        train_samples: trained.train.images.len() * FAST_EPOCHS,
        surrogate_s: secs(t2 - t1),
        calibrate_s: secs(t5 - t3),
        forward_s: secs(t5 - t4),
        forward_macs: forward_macs(&prepared.net),
    }
}

/// Counter values read from the crates after the measured work.
struct Counters {
    phases: PhaseStats,
    prep: CacheStats,
    sim: SimStats,
    eval: EvalStats,
}

impl Counters {
    fn read() -> Self {
        Counters {
            phases: timing::snapshot(),
            prep: PrepCache::global().stats(),
            sim: SimCache::global().stats(),
            eval: EvalCache::global().stats(),
        }
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters {
            phases: self.phases.since(&before.phases),
            prep: self.prep.since(&before.prep),
            sim: self.sim.since(&before.sim),
            eval: self.eval.since(&before.eval),
        }
    }

    fn to_json(&self) -> String {
        let p = &self.phases;
        format!(
            "\"phases\":{{\"synthesize\":{},\"forward\":{},\"extract\":{},\"train\":{},\"load\":{},\"model\":{},\"eval\":{}}},\
             \"prep\":{{\"prepared_hits\":{},\"prepared_misses\":{},\"workload_hits\":{},\"workload_misses\":{},\"disk_hits\":{},\"disk_misses\":{}}},\
             \"sim\":{{\"run_hits\":{},\"run_misses\":{},\"event_hits\":{},\"event_misses\":{},\"disk_hits\":{},\"disk_misses\":{}}},\
             \"eval\":{{\"hits\":{},\"misses\":{},\"disk_hits\":{},\"disk_misses\":{}}}",
            secs(p.synthesize),
            secs(p.forward),
            secs(p.extract),
            secs(p.train),
            secs(p.load),
            secs(p.model),
            secs(p.eval),
            self.prep.prepared_hits,
            self.prep.prepared_misses,
            self.prep.workload_hits,
            self.prep.workload_misses,
            self.prep.disk_hits,
            self.prep.disk_misses,
            self.sim.run_hits,
            self.sim.run_misses,
            self.sim.event_hits,
            self.sim.event_misses,
            self.sim.disk_hits,
            self.sim.disk_misses,
            self.eval.hits,
            self.eval.misses,
            self.eval.disk_hits,
            self.eval.disk_misses,
        )
    }
}

impl Probes {
    fn to_json(&self) -> String {
        format!(
            "\"probes\":{{\"train_phase_s\":{},\"train_samples\":{},\"surrogate_s\":{},\"calibrate_s\":{},\"forward_s\":{},\"forward_macs\":{}}}",
            self.train_phase_s,
            self.train_samples,
            self.surrogate_s,
            self.calibrate_s,
            self.forward_s,
            self.forward_macs,
        )
    }
}

struct Args {
    mode: String,
    jobs: usize,
    cache_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    spans: PathBuf,
    socket: Option<PathBuf>,
    names: Vec<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench-probe suite --jobs N [--cache-dir D] --out DIR --spans FILE NAME..."
    );
    eprintln!("       perfbench-probe serve --socket S [--cache-dir D] --spans FILE");
    exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let mode = it.next().unwrap_or_else(|| usage("missing mode"));
    if mode != "suite" && mode != "serve" {
        usage(&format!("unknown mode {mode}"));
    }
    let mut args = Args {
        mode,
        jobs: 1,
        cache_dir: None,
        out: None,
        spans: PathBuf::new(),
        socket: None,
        names: Vec::new(),
    };
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--jobs" => {
                args.jobs = match value().parse() {
                    Ok(n) if n > 0 => n,
                    _ => usage("--jobs needs a positive integer"),
                }
            }
            "--cache-dir" => args.cache_dir = Some(value().into()),
            "--out" => args.out = Some(value().into()),
            "--spans" => args.spans = value().into(),
            "--socket" => args.socket = Some(value().into()),
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag}")),
            name => args.names.push(name.to_string()),
        }
    }
    if args.spans.as_os_str().is_empty() {
        usage("--spans is required");
    }
    args
}

fn main() {
    let args = parse_args();
    if let Some(dir) = &args.cache_dir {
        if let Err(e) = prep::attach_disk_store(dir) {
            usage(&format!("cannot open --cache-dir {}: {e}", dir.display()));
        }
    }
    let mut tracer = Tracer::new();
    let root = tracer.record(
        &format!("probe.{}", args.mode),
        Instant::now(),
        Instant::now(),
        None,
    );
    let before = Counters::read();
    let start = Instant::now();

    let measured = if args.mode == "suite" {
        let out = args
            .out
            .clone()
            .unwrap_or_else(|| usage("suite needs --out"));
        std::fs::create_dir_all(&out).expect("create --out directory");
        let names: Vec<&str> = args.names.iter().map(String::as_str).collect();
        // Reports are emitted in request order once their prefix is done;
        // an experiment's span ends at or before its emit time, so it is
        // placed there with its exact duration.
        let mut emitted = Vec::with_capacity(names.len());
        let result = ola_harness::engine::run_suite(&names, true, args.jobs, |outcome| {
            let report = outcome.report.as_ref().expect("run_suite re-raises panics");
            std::fs::write(out.join(format!("{}.txt", outcome.name)), report)
                .expect("write report");
            emitted.push((outcome.name.clone(), outcome.wall, Instant::now()));
        });
        let end = Instant::now();
        let suite = tracer.record("engine.run_suite", start, end, Some(root));
        let mut experiments = Vec::new();
        for (name, wall, at) in emitted {
            tracer.record(&format!("exp.{name}"), at - wall, at, Some(suite));
            experiments.push(format!("\"{name}\":{}", secs(wall)));
        }
        format!(
            "\"wall_s\":{},\"busy_s\":{},\"jobs\":{},\"experiments\":{{{}}}",
            secs(result.total_wall),
            secs(result.busy()),
            result.jobs,
            experiments.join(",")
        )
    } else {
        let socket = args
            .socket
            .clone()
            .unwrap_or_else(|| usage("serve needs --socket"));
        let options = RunOptions {
            fast: true,
            jobs: None,
            out_dir: None,
            cache_dir: None,
        };
        let summary = ola_harness::server::serve(&socket, &options).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            exit(1);
        });
        tracer.record("server.serve", start, Instant::now(), Some(root));
        format!(
            "\"wall_s\":{},\"requests\":{},\"coalesced\":{}",
            secs(start.elapsed()),
            summary.requests,
            summary.coalesced
        )
    };
    let counters = Counters::read().since(&before);
    let probes = run_probes(&mut tracer, root);
    tracer.spans[root].end = tracer.origin.elapsed();
    std::fs::write(&args.spans, tracer.to_json()).expect("write --spans file");
    println!("{{{measured},{},{}}}", counters.to_json(), probes.to_json());
}
