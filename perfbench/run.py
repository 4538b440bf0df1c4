#!/usr/bin/env python3
"""perfbench: the repository's end-to-end and per-layer benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 20 --trace 0

It builds the release `olaccel-repro` binary and the in-process traced
runner (`perfbench/probe`), runs the workload, checks every report the
program produces (see gate.py), and prints each metric by name, unit and
sample count. The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`; `failed / attempted` is
the run's error rate. `--trace 0` reports the end-to-end metrics of
untraced runs; `--trace 1` makes one untraced and one traced pass and
reports the per-layer metrics. `--workload all` runs every workload in
turn and additionally checks the reports across workloads.

Workloads and the layer-to-metric map are described in perfbench/README.md.
"""

import argparse
import json
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from gate import Gate, ProtocolError, read_reply  # noqa: E402

EXPERIMENTS = (
    "fig1", "fig2", "fig3", "table1", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "validate", "summary", "sensitivity",
    "policy-panel",
)
WORKLOADS = ("suite-cold", "daemon-warm")
JOBS = 2              # worker budget of the one-shot suites (2-core host)
CONNECTIONS = 2       # closed-loop daemon clients
SETUP_REPEATS = 21    # start-ups per run; their median is the start-up time
RUN_TIMEOUT = 150     # seconds one program process may take
REPLY_TIMEOUT = 60    # seconds a daemon client waits for one reply
RUN_BUDGET = 150      # seconds after which no further iteration starts

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}

PER_LAYER = {
    "engine.busy_s": "s",
    "engine.parallel_eff": "ratio",
    "server.compute_ms": "ms",
    "server.overhead_ms_p50": "ms",
    "server.coalesced": "count",
    "server.replay_ms_p50": "ms",
    "server.slowest_request_ms": "ms",
    **{"exp.%s_s" % name: "s" for name in EXPERIMENTS},
    "prep.built": "count",
    "prep.hits": "count",
    "prep.ws_extracted": "count",
    "prep.ws_hits": "count",
    "nn.synthesize_s": "s",
    "nn.forward_s": "s",
    "nn.forward_gmac_per_s": "GMAC/s",
    "nn.train_s": "s",
    "nn.train_samples_per_s": "samples/s",
    "quant.eval_s": "s",
    "quant.evals": "count",
    "quant.eval_hits": "count",
    "quant.surrogate_s": "s",
    "quant.calibrate_s": "s",
    "sim.extract_s": "s",
    "sim.layer_sims": "count",
    "sim.layer_hits": "count",
    "sim.event_sims": "count",
    "core.model_s": "s",
    "core.layer_sims_per_s": "sims/s",
    "store.load_s": "s",
    "store.loaded": "count",
    "store.missed": "count",
    "store.hit_ratio": "ratio",
    "store.prep_bytes": "bytes",
    "store.ws_bytes": "bytes",
    "store.sim_bytes": "bytes",
    "store.eval_bytes": "bytes",
    "harness.unattributed_s": "s",
    "trace.overhead_s": "s",
}

# Store file-name prefix of each artifact kind (crates/store).
STORE_KINDS = {
    "store.prep_bytes": ("prep-",),
    "store.ws_bytes": ("ws-",),
    "store.sim_bytes": ("simrun-", "simev-"),
    "store.eval_bytes": ("eval-",),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Spans:
    """Spans of the benchmark's own calls, kept in memory and written once."""

    def __init__(self):
        self.origin = time.perf_counter_ns()
        self.rows = []

    def open(self, name, parent=None):
        self.rows.append({"name": name, "start_ns": time.perf_counter_ns() - self.origin,
                          "end_ns": None, "parent": parent})
        return len(self.rows) - 1

    def close(self, index):
        self.rows[index]["end_ns"] = time.perf_counter_ns() - self.origin

    def adopt(self, path, parent):
        """Appends the probe's spans (written to `path`) under `parent`,
        shifted so they start where `parent` starts."""
        with open(path) as f:
            probe = json.load(f)
        base, shift = len(self.rows), self.rows[parent]["start_ns"]
        for row in probe:
            row["start_ns"] += shift
            row["end_ns"] += shift
            row["parent"] = parent if row["parent"] is None else row["parent"] + base
            self.rows.append(row)


class Context:
    """Paths, binaries and the gate shared by one benchmark invocation."""

    def __init__(self, work, gate, spans, root):
        self.work = work
        self.gate = gate
        self.spans = spans
        self.root = root
        target = os.environ["CARGO_TARGET_DIR"]
        self.bin = os.path.join(target, "release", "olaccel-repro")
        self.probe = os.path.join(target, "release", "perfbench-probe")

    def path(self, *parts):
        return os.path.join(self.work, *parts)


# ---------------------------------------------------------------- processes

def spawn_timed(argv, stdout, stderr, timeout=RUN_TIMEOUT):
    """Runs `argv` to completion; returns (wall seconds, exit code, peak
    RSS in MB, user + system CPU seconds). A process still running after
    `timeout` is killed."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def summary_total(stderr_text):
    """The in-process suite wall time from the run summary `olaccel-repro`
    prints on stderr (`total  <seconds>s wall (...)`), or None."""
    match = re.search(r"^total\s+([0-9.]+)s wall", stderr_text, re.MULTILINE)
    return float(match.group(1)) if match else None


def store_bytes(store):
    sizes = {name: 0 for name in STORE_KINDS}
    if store and os.path.isdir(store):
        for entry in os.scandir(store):
            for name, prefixes in STORE_KINDS.items():
                if entry.name.startswith(prefixes):
                    sizes[name] += entry.stat().st_size
    return sizes


# ---------------------------------------------------------------- one-shot suite

def run_suite(ctx, label, names, store, traced=False):
    """One one-shot suite process (the release binary, or the traced probe).

    Returns a dict with wall (process), total (in-process suite wall),
    rss, cpu and, when traced, the probe's raw numbers; None when the
    process failed."""
    out = ctx.path(label)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    stdout, stderr = ctx.path(label + ".stdout"), ctx.path(label + ".stderr")
    if traced:
        spans_file = ctx.path(label + ".spans.json")
        argv = [ctx.probe, "suite", "--jobs", str(JOBS), "--out", out, "--spans", spans_file]
        argv += (["--cache-dir", store] if store else []) + list(names)
    else:
        argv = [ctx.bin] + list(names) + ["--fast", "--jobs", str(JOBS), "--out", out]
        argv += ["--cache-dir", store] if store else []
    wall, code, rss, cpu = spawn_timed(argv, stdout, stderr)
    if code != 0:
        ctx.gate.fail(label, "exit code %d; see %s" % (code, stderr))
        return None
    ctx.gate.ok()
    reports = {}
    for name in names:
        try:
            reports[name] = read_bytes(os.path.join(out, name + ".txt"))
        except OSError as e:
            ctx.gate.fail(label, "%s: no report (%s)" % (name, e))
            continue
        ctx.gate.check_report(label, name, reports[name])
    run = {"wall": wall, "rss": rss, "cpu": cpu}
    if traced:
        probe = json.loads(read_bytes(stdout).decode().strip().splitlines()[-1])
        run.update(probe=probe, total=probe["wall_s"], spans=spans_file)
    else:
        ctx.gate.check_stream(label, names, read_bytes(stdout), reports)
        run["total"] = summary_total(read_bytes(stderr).decode("utf-8", "replace"))
        if run["total"] is None:
            ctx.gate.fail(label, "no run summary on stderr")
            return None
    return run


# ---------------------------------------------------------------- daemon

def connect(path, timeout):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(path)
    return sock


def exchange(path, line, timeout=30):
    with connect(path, timeout) as sock:
        sock.sendall(line.encode() + b"\n")
        return read_reply(sock.makefile("rb"))


def start_daemon(ctx, label, argv, sock_path):
    """Spawns a daemon; returns (process, stdout path, seconds from spawn
    to its first `ping` reply), or None if it never answered."""
    if os.path.exists(sock_path):
        os.remove(sock_path)
    stdout, stderr = ctx.path(label + ".stdout"), ctx.path(label + ".stderr")
    out, err = open(stdout, "wb"), open(stderr, "wb")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
    DAEMONS.append(proc)
    out.close()
    err.close()
    deadline = start + 30
    while time.perf_counter() < deadline and proc.poll() is None:
        try:
            fields, _ = exchange(sock_path, "ping", timeout=5)
            return proc, stdout, time.perf_counter() - start
        except (OSError, ProtocolError):
            time.sleep(0.001)
    proc.kill()
    proc.wait()
    DAEMONS.remove(proc)
    ctx.gate.fail(label, "daemon never answered ping; see %s" % stderr)
    return None


def stop_daemon(ctx, label, proc, sock_path):
    """Sends `shutdown` and reaps the daemon; returns (peak RSS in MB,
    user + system CPU seconds), or None if it did not exit cleanly."""
    try:
        exchange(sock_path, "shutdown")
    except (OSError, ProtocolError) as e:
        ctx.gate.fail(label, "shutdown: %s" % e)
        proc.kill()
    watchdog = threading.Timer(RUN_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    DAEMONS.remove(proc)
    if proc.returncode != 0:
        ctx.gate.fail(label, "daemon exit code %d" % proc.returncode)
        return None
    ctx.gate.ok()
    return usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def client(sock_path, plan, barrier, records):
    """One closed-loop connection: each request is sent only after the
    previous reply has been read in full."""
    sock = None
    try:
        sock = connect(sock_path, REPLY_TIMEOUT)
        barrier.wait()
    except (OSError, threading.BrokenBarrierError) as e:
        barrier.abort()
        if sock is not None:
            sock.close()
        records.append({"name": plan[0][0], "error": "connect: %r" % e, "left": len(plan) - 1})
        return
    with sock:
        stream = sock.makefile("rb")
        for i, (name, jobs) in enumerate(plan):
            sent = time.perf_counter()
            try:
                sock.sendall(("run %s --jobs %d\n" % (name, jobs)).encode())
                fields, payload = read_reply(stream)
                records.append({"name": name, "sent": sent, "done": time.perf_counter(),
                                "fields": fields, "payload": payload})
            except (OSError, ProtocolError) as e:
                # The connection's framing is lost: the rest of its plan
                # counts as failed too.
                records.append({"name": name, "error": str(e), "left": len(plan) - i - 1})
                return


def check_requests(gate, label, per_conn):
    """Gates every client record (one list per connection); returns the
    timing of each well-framed reply."""
    requests = []
    for conn, recs in enumerate(per_conn):
        source = "%s conn %d" % (label, conn)
        for rec in recs:
            if "error" in rec:
                gate.fail(source, "%s: %s" % (rec["name"], rec["error"]))
                for _ in range(rec["left"]):
                    gate.fail(source, "request abandoned after a framing error")
                continue
            name = rec["fields"].get("name")
            if name != rec["name"] or rec["payload"] is None:
                gate.fail(source, "reply for %r answered request %s" % (name, rec["name"]))
                continue
            try:
                wall_ms = float(rec["fields"]["wall_ms"])
            except (KeyError, ValueError):
                gate.fail(source, "%s: reply header lacks wall_ms" % name)
                continue
            gate.check_payload(source, name, rec["payload"])
            requests.append({"name": name, "latency_ms": (rec["done"] - rec["sent"]) * 1e3,
                             "wall_ms": wall_ms, "coalesced": rec["fields"].get("coalesced") == "1",
                             "sent": rec["sent"], "done": rec["done"]})
    return requests


def daemon_session(ctx, label, argv, sock_path, plans):
    """Runs one fresh daemon through `plans` (one request list per
    connection). Returns a dict with makespan, rss, cpu and the
    per-request records; None if the daemon failed."""
    started = start_daemon(ctx, label, argv, sock_path)
    if started is None:
        return None
    proc, stdout, _ = started
    barrier = threading.Barrier(len(plans))
    per_conn = [[] for _ in plans]
    threads = [threading.Thread(target=client, args=(sock_path, plan, barrier, recs))
               for plan, recs in zip(plans, per_conn)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    usage = stop_daemon(ctx, label, proc, sock_path)
    requests = check_requests(ctx.gate, label, per_conn)
    if usage is None or not requests:
        return None
    makespan = max(r["done"] for r in requests) - min(r["sent"] for r in requests)
    run = {"wall": makespan, "rss": usage[0], "cpu": usage[1], "requests": requests}
    if argv[0] == ctx.probe:
        run["probe"] = json.loads(read_bytes(stdout).decode().strip().splitlines()[-1])
    return run


def daemon_plans(seed, unit, swap):
    """Per-connection request order and `--jobs` assignment of one daemon
    session. Every connection asks for every experiment once: the first in
    a seeded shuffle, the second in the same order reversed, and `--jobs`
    alternates between 1 and 2 on each, in opposite phases, so each
    experiment is asked for once at each value. `swap` flips both phases;
    a unit of measurement is the session pair (swap off, swap on), so an
    experiment computed at `--jobs 1` in one session is computed at 2 in
    the other. Both pairings are antithetic: they keep the makespan's
    seed-to-seed spread small."""
    rng = random.Random(seed * 1_000_003 + unit)
    order = list(EXPERIMENTS)
    rng.shuffle(order)
    phase = rng.randrange(2) ^ int(swap)
    plans = []
    for conn in range(CONNECTIONS):
        names = order if conn % 2 == 0 else order[::-1]
        plans.append([(name, 1 + (i + phase + conn) % 2) for i, name in enumerate(names)])
    return plans


def daemon_argv(ctx, label, store, traced):
    sock_path = ctx.path(label + ".sock")
    if traced:
        argv = [ctx.probe, "serve", "--socket", sock_path, "--cache-dir", store,
                "--spans", ctx.path(label + ".spans.json")]
    else:
        argv = [ctx.bin, "serve", "--socket", sock_path, "--fast", "--cache-dir", store]
    return argv, sock_path


# ---------------------------------------------------------------- workloads

def fill_store(ctx):
    """One cold `--cache-dir` suite, in the `all` order, that fills the
    artifact store. Returns (process record, store path), or None."""
    store = ctx.path("store")
    span = ctx.spans.open("setup.fill", ctx.root)
    run = run_suite(ctx, "fill", EXPERIMENTS, store)
    ctx.spans.close(span)
    return None if run is None else (run, store)


def startups(ctx, store):
    """Start-up times of the program: `--help` spawns, or (with a store)
    daemon spawns timed to their first `ping` reply."""
    times = []
    for i in range(SETUP_REPEATS):
        if store is None:
            wall, code, _, _ = spawn_timed([ctx.bin, "--help"], ctx.path("help.stdout"), ctx.path("help.stderr"))
            if code == 0:
                ctx.gate.ok()
                times.append(wall)
            else:
                ctx.gate.fail("start-up", "--help exit code %d" % code)
            continue
        argv, sock_path = daemon_argv(ctx, "startup%d" % i, store, traced=False)
        started = start_daemon(ctx, "startup%d" % i, argv, sock_path)
        if started is not None:
            times.append(started[2])
            stop_daemon(ctx, "startup%d" % i, started[0], sock_path)
    return times


def window(seconds, once):
    """Calls `once(unit)` for units 0, 1, ... until the next call would
    overrun the measuring window (at least once); returns the results."""
    start, results = time.perf_counter(), []
    while True:
        t = time.perf_counter()
        results.append(once(len(results)))
        now = time.perf_counter()
        took = now - t
        if now - start + took > seconds or now - RUN_START + took > RUN_BUDGET:
            return results


def measure(ctx, workload, seed, seconds):
    """The untraced runs of one workload. Returns (units, set-up times,
    peak RSS of every program process the run started): a unit is one
    suite process, or a pair of daemon sessions."""
    if workload == "suite-cold":
        setups, extra = startups(ctx, None), []

        def once(unit):
            return [run_suite(ctx, "suite%d" % unit, EXPERIMENTS, None)]
    else:
        filled = fill_store(ctx)
        if filled is None:
            return [], [], []
        fill, store = filled
        setups, extra = [fill["wall"] + t for t in startups(ctx, store)], [fill["rss"]]

        def once(unit):
            pair = []
            for swap in (False, True):
                label = "daemon%d%s" % (unit, "ab"[swap])
                argv, sock_path = daemon_argv(ctx, label, store, traced=False)
                pair.append(daemon_session(ctx, label, argv, sock_path, daemon_plans(seed, unit, swap)))
            return pair
    units = [unit for unit in window(seconds, once) if None not in unit]
    return units, setups, extra + [r["rss"] for unit in units for r in unit]


def end_to_end(units, setups, rss):
    """`wall_s` and `cpu_s` are the median over units of the unit's mean;
    `peak_rss_mb` is the peak over the run's program processes, set-up
    included; `setup_s` is the median set-up time. Values are (value,
    sample count)."""
    def median_of_means(key):
        return statistics.median(statistics.fmean(r[key] for r in unit) for unit in units)
    measured = sum(len(unit) for unit in units)
    return {
        "wall_s": (median_of_means("wall"), measured),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (max(rss), len(rss)),
        "cpu_s": (median_of_means("cpu"), measured),
    }


def ratio(a, b):
    return a / b if b > 0 else 0.0


def per_layer(probe, busy_s, wall_s, jobs, experiments, server, store_sizes, overhead_s):
    """Derives every per-layer metric from one traced pass: the probe's
    counters and timed calls, the experiment (or computing request) wall
    times, the daemon's reply headers and the store's file sizes."""
    ph, prep, sim, ev, pr = (probe[k] for k in ("phases", "prep", "sim", "eval", "probes"))
    loaded = prep["disk_hits"] + sim["disk_hits"] + ev["disk_hits"]
    missed = prep["disk_misses"] + sim["disk_misses"] + ev["disk_misses"]
    sims = sim["run_misses"] + sim["event_misses"]
    attributed = sum(ph.values()) + pr["surrogate_s"] + pr["calibrate_s"]
    m = {
        "engine.busy_s": busy_s if server is None else 0.0,
        "engine.parallel_eff": ratio(busy_s, wall_s * jobs) if server is None else 0.0,
        "server.compute_ms": 0.0,
        "server.overhead_ms_p50": 0.0,
        "server.coalesced": 0,
        "server.replay_ms_p50": 0.0,
        "server.slowest_request_ms": 0.0,
        **{"exp.%s_s" % n: experiments.get(n, 0.0) for n in EXPERIMENTS},
        "prep.built": prep["prepared_misses"],
        "prep.hits": prep["prepared_hits"],
        "prep.ws_extracted": prep["workload_misses"],
        "prep.ws_hits": prep["workload_hits"],
        "nn.synthesize_s": ph["synthesize"],
        "nn.forward_s": ph["forward"],
        "nn.forward_gmac_per_s": ratio(pr["forward_macs"] / 1e9, pr["forward_s"]),
        "nn.train_s": ph["train"],
        "nn.train_samples_per_s": ratio(pr["train_samples"], pr["train_phase_s"]),
        "quant.eval_s": ph["eval"],
        "quant.evals": ev["misses"],
        "quant.eval_hits": ev["hits"],
        "quant.surrogate_s": pr["surrogate_s"],
        "quant.calibrate_s": pr["calibrate_s"],
        "sim.extract_s": ph["extract"],
        "sim.layer_sims": sim["run_misses"],
        "sim.layer_hits": sim["run_hits"],
        "sim.event_sims": sim["event_misses"],
        "core.model_s": ph["model"],
        "core.layer_sims_per_s": ratio(sims, ph["model"]),
        "store.load_s": ph["load"],
        "store.loaded": loaded,
        "store.missed": missed,
        "store.hit_ratio": ratio(loaded, loaded + missed),
        **store_sizes,
        "harness.unattributed_s": busy_s - attributed,
        "trace.overhead_s": overhead_s,
    }
    if server is not None:
        m.update(server)
    return m


def server_metrics(requests):
    replays = [r["latency_ms"] for r in requests if r["coalesced"]]
    return {
        "server.compute_ms": sum(r["wall_ms"] for r in requests),
        "server.overhead_ms_p50": statistics.median(r["latency_ms"] - r["wall_ms"] for r in requests),
        "server.coalesced": len(replays),
        "server.replay_ms_p50": statistics.median(replays) if replays else 0.0,
        "server.slowest_request_ms": max(r["latency_ms"] for r in requests),
    }


def passes(ctx, run_pass):
    """Runs `run_pass(label, traced)` untraced, then traced, each under a
    span; returns (untraced, traced, traced span index)."""
    results = []
    for label, traced in (("untraced", False), ("traced", True)):
        span = ctx.spans.open(label, ctx.root)
        results.append(run_pass(label, traced))
        ctx.spans.close(span)
    return results[0], results[1], span


def trace(ctx, workload, seed):
    """One untraced and one traced pass over the same inputs. Returns the
    per-layer metrics, or None if a pass failed."""
    if workload == "suite-cold":
        plain, traced, span = passes(ctx, lambda label, t: run_suite(ctx, label, EXPERIMENTS, None, traced=t))
        if plain is None or traced is None:
            return None
        ctx.spans.adopt(traced["spans"], span)
        probe = traced["probe"]
        return per_layer(probe, probe["busy_s"], probe["wall_s"], probe["jobs"], probe["experiments"],
                         None, store_bytes(None), traced["total"] - plain["total"])

    filled = fill_store(ctx)
    if filled is None:
        return None
    store = filled[1]
    plans = daemon_plans(seed, 0, False)

    def session(label, traced):
        argv, sock_path = daemon_argv(ctx, label, store, traced)
        return daemon_session(ctx, label, argv, sock_path, plans)
    plain, traced, span = passes(ctx, session)
    if plain is None or traced is None:
        return None
    ctx.spans.adopt(ctx.path("traced.spans.json"), span)
    # The request that computed an experiment (not coalesced onto another).
    experiments = {r["name"]: r["wall_ms"] / 1e3 for r in traced["requests"] if not r["coalesced"]}
    return per_layer(traced["probe"], sum(experiments.values()), traced["wall"], CONNECTIONS, experiments,
                     server_metrics(traced["requests"]), store_bytes(store), traced["wall"] - plain["wall"])


# ---------------------------------------------------------------- entry point

def command_output(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    """Builds the release binary and the traced runner from source."""
    for argv in (["cargo", "build", "--release", "--offline", "-p", "ola-harness", "--bin", "olaccel-repro"],
                 ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/probe/Cargo.toml"]):
        if subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("error: build failed: %s" % " ".join(argv))
            sys.exit(1)


def run_workload(ctx, workload, seed, seconds, traced):
    """Returns (metrics dict name -> (value, samples)) for one workload."""
    if traced:
        metrics = trace(ctx, workload, seed)
        return {} if metrics is None else {k: (v, 1) for k, v in metrics.items()}
    units, setups, rss = measure(ctx, workload, seed, seconds)
    if not units or not setups:
        return {}
    return end_to_end(units, setups, rss)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "harness"))
            and os.path.isdir(os.path.join("tests", "golden"))):
        log("error: run from the repository root (Cargo.toml, crates/harness and tests/golden needed)")
        return 2
    # Both packages build into one target directory, inside the checkout
    # unless the caller chose another.
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    build()

    results = os.path.join(target, "perfbench", "results")
    os.makedirs(results, exist_ok=True)
    gate, spans = Gate(os.path.join("tests", "golden")), Spans()
    declared = PER_LAYER if args.trace else END_TO_END
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    context = {
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "rustc": command_output(["rustc", "--version"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]), "profile": "release",
    }
    log("perfbench: %s" % json.dumps(context))
    metrics = {}
    for workload in workloads:
        work = os.path.join(target, "perfbench", workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        ctx = Context(work, gate, spans, spans.open(workload))
        measured = run_workload(ctx, workload, args.seed, args.seconds, args.trace)
        spans.close(ctx.root)
        shutil.rmtree(ctx.path("store"), ignore_errors=True)
        if set(measured) != set(declared):
            gate.fail(workload, "no complete measurement")
            continue
        prefix = workload + "." if len(workloads) > 1 else ""
        for name, unit in declared.items():
            value, count = measured[name]
            print("%-40s %16.6f %-9s (samples: %d)" % (prefix + name, value, unit, count))
            metrics[prefix + name] = {"value": value, "unit": unit}

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        with open(os.path.join(results, tag + ".spans.json"), "w") as f:
            json.dump(spans.rows, f)
    for failure in gate.failures:
        log("FAIL %s" % failure)
    result = {"correct": gate.failed == 0, "attempted": max(gate.attempted, 1),
              "failed": gate.failed, "metrics": metrics}
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump({**context, "workload": args.workload, **result}, f, indent=1)
    print("error_rate %.6f (%d failed of %d attempted)" % (
        result["failed"] / result["attempted"], result["failed"], result["attempted"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


RUN_START = time.perf_counter()
DAEMONS = []  # daemons started and not yet reaped

if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        # An unexpected error must not leave a daemon running.
        for daemon in DAEMONS:
            daemon.kill()
            daemon.wait()
