#!/usr/bin/env python3
"""Ledger benchmark: fixed workloads over batch `discover` and `serve`.

One workload, the form BENCHMARK.json's command takes:

    python3 bench/ledger/run.py --workload d4_bu --seed 1 --seconds 10 --trace 0

Every workload in turn, printing each metric by name with its unit:

    python3 bench/ledger/run.py --seed 1 [--trace 1] [--record runs.jsonl]

Other modes:

    --quick                  all workloads at toy size, product gates on
    --compare A.jsonl B.jsonl
                             parent (A) against change (B), from --record
                             files of paired runs

Every invocation first checks BENCHMARK.json against the benchmark schema.
The runner builds the package in this directory (the library, the `tcomp`
CLI and the `tcomp_ledger` program) into .bench_build/ledger on first use;
--build-dir names another tree for this package alone.
Inputs come from `tcomp_ledger gen` with the given seed; the program under
test only ever receives the generated CSV. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See README.md here for the workloads, the metrics and the decision rule.
"""

import argparse
import hashlib
import json
import math
import os
import re
import select
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
STEP_TIMEOUT_S = 150  # any one child; the whole run stays under 180 s
# --compare does not count a setup_s rise of at most this many seconds as a
# regression: serve starts in about 2 ms, where 10% is process noise.
SETUP_FLOOR_S = 0.020

# Thresholds: D4' is the paper's synthetic set (ε20 μ4 δs10 δt10); the
# convoy and transit-burst streams use bench_perf_json's ε18 μ3 δs5 δt7.
D4_PARAMS = {"epsilon": 20, "mu": 4, "min-size": 10, "min-duration": 10}
CONVOY_PARAMS = {"epsilon": 18, "mu": 3, "min-size": 5, "min-duration": 7}


def _area(objects):
    # bench_perf_json's density rule: 170 units of side per sqrt(object).
    return 170.0 * math.sqrt(objects)


def _coherent(objects, snapshots):
    return {"objects": objects, "snapshots": snapshots,
            "area": _area(objects), "group-min": 64, "group-max": 128,
            "group-speed": 1.0, "free-speed": 1.5, "jitter": 0.8,
            "split": 0.015, "leave": 0.008}


def _burst(objects, snapshots):
    return {"objects": objects, "snapshots": snapshots,
            "area": _area(objects), "group-min": 16, "group-max": 32,
            "split": 0.10, "leave": 0.05}


# Each workload: its surface, algorithm, thresholds, generator flags (full
# and --quick size), and for serve its daemon flags and load shape. The
# reasons live in BENCHMARK.json and README.md.
WORKLOADS = {
    "d4_bu": {
        "surface": "batch", "algo": "bu", "params": D4_PARAMS,
        "gen": {"objects": 10000, "snapshots": 120},
        "quick": {"objects": 400, "snapshots": 30},
    },
    "d4_ci": {
        "surface": "batch", "algo": "ci", "params": D4_PARAMS,
        "gen": {"objects": 10000, "snapshots": 100},
        "quick": {"objects": 400, "snapshots": 30},
    },
    "coherent_sc": {
        "surface": "batch", "algo": "sc", "params": CONVOY_PARAMS,
        "gen": _coherent(10000, 120),
        "quick": _coherent(500, 30),
    },
    "d4_bu_serve": {
        "surface": "serve", "algo": "bu", "params": D4_PARAMS,
        "gen": {"objects": 10000, "snapshots": 120},
        "quick": {"objects": 400, "snapshots": 30},
        "serve": [], "rate": 0, "quick_rate": 0,
    },
    "burst_sc_paced": {
        "surface": "serve", "algo": "sc", "params": CONVOY_PARAMS,
        "gen": _burst(5000, 100),
        "quick": _burst(400, 30),
        "serve": ["--shards", "2", "--checkpoint-every", "10"],
        "checkpoint": True, "rate": 100000, "quick_rate": 20000,
    },
}

# Latency samples are per snapshot (100-120 per repetition), so the tail
# is p90: the highest percentile with at least ten samples beyond it.
TAIL_PERCENTILE = 90

# The discoverer steps the trace splits snapshot close into (Fig. 19).
SHARE_STAGES = ("maintain", "cluster", "eps_filter", "intersect", "closure")


class BenchError(Exception):
    """A run that cannot produce a result (build, input, or child failure)."""


# ---- small statistics ------------------------------------------------------


def percentile(values, p):
    """Linear-interpolated p-th percentile (0..100) of a non-empty list."""
    v = sorted(values)
    if len(v) == 1:
        return v[0]
    k = (len(v) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---- build -----------------------------------------------------------------


def build(build_dir):
    """Configures and builds the benchmark package; returns binary paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("%s is not a tcomp source tree (no CMakeLists.txt "
                         "and src/ beside bench/)" % ROOT)
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file():
        home = re.search(r"^CMAKE_HOME_DIRECTORY:INTERNAL=(.*)$",
                         cache.read_text(errors="replace"), re.M)
        if not home or Path(home.group(1)).resolve() != HERE:
            raise BenchError(
                "%s is a build tree of %s, not of this package; --build-dir "
                "takes a tree of its own (default .bench_build/ledger)" % (
                    build_dir, home.group(1) if home else "another project"))
    build_dir.mkdir(parents=True, exist_ok=True)
    if not cache.is_file():
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if cfg.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise BenchError("cmake configure failed:\n" + cfg.stdout[-4000:])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    res = subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "ledger"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        raise BenchError("build failed:\n" + res.stdout[-4000:])
    bins = {"ledger": build_dir / "tcomp_ledger",
            "tcomp": build_dir / "tcomp" / "tools" / "tcomp"}
    for path in bins.values():
        if not path.is_file():
            raise BenchError("build did not produce %s" % path)
    return bins


# ---- processes -------------------------------------------------------------


def wait_exit(proc, timeout):
    """Waits for `proc`; returns its exit code. Kills it if it outlives
    `timeout` seconds."""
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        kill(proc)
        raise BenchError("%s timed out" % Path(str(proc.args[0])).name)


def kill(proc):
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def run_child(cmd, err_path, timeout=STEP_TIMEOUT_S):
    """Runs a child to completion; raises on a non-zero exit."""
    with open(err_path, "w") as err:
        proc = subprocess.Popen([str(c) for c in cmd],
                                stdout=subprocess.DEVNULL, stderr=err)
    try:
        code = wait_exit(proc, timeout)
    finally:
        kill(proc)
    if code != 0:
        raise BenchError("%s exited %d: %s" % (
            Path(str(cmd[0])).name, code, Path(err_path).read_text()[-2000:]))


def peak_rss_mb(pid):
    """VmHWM of a live process: its peak resident set since exec. (wait4's
    ru_maxrss would report this runner's size for a small child, because
    the child is forked from it.)"""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


def params_flags(params):
    flags = []
    for key, value in params.items():
        flags += ["--" + key, str(value)]
    return flags


class Daemon:
    """One `tcomp serve` process: spawned, timed to its listening line,
    stopped and reaped."""

    def __init__(self, tcomp, args, err_path):
        start = time.perf_counter()
        self.err = open(err_path, "w")
        self.proc = subprocess.Popen([str(tcomp), "serve", "--port", "0"] + args,
                                     stdout=subprocess.PIPE, stderr=self.err,
                                     text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 30)
        line = self.proc.stdout.readline() if ready else ""
        self.setup_s = time.perf_counter() - start
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", line)
        if not m:
            self.kill()
            raise BenchError("serve did not start: %r %s" % (
                line, Path(err_path).read_text()[-2000:]))
        self.port = int(m.group(1))

    def stop(self):
        """Graceful shutdown through the text protocol's SHUTDOWN."""
        try:
            with socket.create_connection(("127.0.0.1", self.port),
                                          timeout=30) as conn:
                conn.sendall(b"SHUTDOWN\n")
                reply = conn.makefile("rb").readline()
            if not reply.startswith(b"OK"):
                raise BenchError("serve refused SHUTDOWN: %r" % reply)
            code = wait_exit(self.proc, STEP_TIMEOUT_S)
        finally:
            self.kill()
        if code != 0:
            raise BenchError("serve exited %d" % code)

    def kill(self):
        kill(self.proc)
        self.proc.stdout.close()
        self.err.close()


# ---- product gates -----------------------------------------------------------


def check_companions(text, params):
    """Every companion meets δs and δt, with sorted distinct members."""
    lines = text.splitlines()
    if not lines or lines[0] != "duration,snapshot_index,size,objects":
        return "companion CSV has no header"
    for row in lines[1:]:
        duration, _, size, objects = row.split(",")
        members = [int(x) for x in objects.split()]
        if int(size) != len(members) or members != sorted(set(members)):
            return "malformed companion: " + row[:80]
        if len(members) < params["min-size"]:
            return "companion below δs: " + row[:80]
        if float(duration) < params["min-duration"]:
            return "companion below δt: " + row[:80]
    return None


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def reference(bins, w, input_csv, build_dir, run_dir):
    """`tcomp discover --out-csv` on the workload's input, cached per
    build of the CLI, input and discovery flags."""
    flags = ["--algo", w["algo"]] + params_flags(w["params"])
    key = hashlib.sha256(" ".join(
        [file_digest(bins["tcomp"]), file_digest(input_csv)] + flags).encode())
    cache = build_dir / "refs" / (key.hexdigest()[:24] + ".csv")
    if not cache.is_file():
        cache.parent.mkdir(parents=True, exist_ok=True)
        tmp = run_dir / "ref.csv"
        run_child([bins["tcomp"], "discover", "--csv", input_csv] + flags +
                  ["--quiet", "--out-csv", tmp], run_dir / "ref.err")
        os.replace(tmp, cache)
    return cache.read_bytes()


# ---- one repetition per surface ---------------------------------------------


def batch_rep(bins, w, input_csv, run_dir, traced, trace_path):
    out = run_dir / "out.csv"
    report = run_dir / "report.json"
    cmd = [bins["ledger"], "discover", "--csv", input_csv, "--algo", w["algo"]]
    cmd += params_flags(w["params"])
    cmd += ["--out-csv", out, "--report", report]
    if traced:
        cmd += ["--trace", trace_path]
    run_child(cmd, run_dir / "discover.err")
    r = json.loads(report.read_text())
    return {"traced": traced, "rss_mb": r["peak_rss_mb"],
            "setup_s": [r["setup_s"]],
            "wall_s": r["wall_s"], "records": r["records"],
            "attempted": r["records"], "failed": 0,
            "latency_ms": r["close_ms"], "report": r,
            "product": out.read_bytes()}


def serve_rep(bins, w, input_csv, run_dir, traced, trace_path, rate):
    out = run_dir / "out.csv"
    report = run_dir / "report.json"
    stats = run_dir / "stats.txt"
    metrics = run_dir / "metrics.txt"
    args = serve_args(w, run_dir)
    daemon = Daemon(bins["tcomp"], args, run_dir / "serve.err")
    try:
        cmd = [bins["ledger"], "load", "--port", daemon.port, "--csv",
               input_csv, "--out-csv", out, "--report", report, "--rate",
               rate, "--stats-out", stats, "--metrics-out", metrics]
        if traced:
            cmd += ["--trace", trace_path]
        run_child(cmd, run_dir / "load.err")
        rss = peak_rss_mb(daemon.proc.pid)
        daemon.stop()
    finally:
        daemon.kill()
    r = json.loads(report.read_text())
    ckpt = run_dir / "state.ckpt"
    return {"traced": traced, "rss_mb": rss, "setup_s": [daemon.setup_s],
            "wall_s": r["wall_s"], "records": r["records"],
            "attempted": r["attempted"], "failed": r["failed"] + r["refused"],
            "latency_ms": r["fresh_ms"], "report": r,
            "metrics": parse_exposition(metrics.read_text()),
            "checkpoint_bytes": ckpt.stat().st_size if ckpt.exists() else 0,
            "problem": check_stats(stats.read_text(),
                                   r["records"] - r["refused"]),
            "product": out.read_bytes()}


def check_stats(text, admitted):
    """The daemon's QUERY stats after the final FLUSH must account for
    every admitted record and every emitted snapshot."""
    st = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    st = {k: int(v) for k, v in st.items()}
    if not st["records_ingested"] == st["records_processed"] == admitted:
        return "QUERY stats: %d admitted, %d ingested, %d processed" % (
            admitted, st["records_ingested"], st["records_processed"])
    if st["queue_pushed"] != (st["queue_popped"] + st["queue_shed"] +
                              st["queue_depth"]):
        return "QUERY stats: queue counters do not add up"
    if st["snapshots"] != st["snapshots_emitted"]:
        return "QUERY stats: %d snapshots emitted, %d processed" % (
            st["snapshots_emitted"], st["snapshots"])
    return None


def serve_args(w, run_dir):
    args = ["--algo", w["algo"]] + params_flags(w["params"]) + w["serve"]
    if w.get("checkpoint"):
        ckpt = run_dir / "state.ckpt"
        if ckpt.exists():
            ckpt.unlink()  # serve resumes from an existing checkpoint
        args += ["--checkpoint", str(ckpt)]
    return args


def parse_exposition(text):
    """Prometheus-style text → {series: value} (histogram _sum/_count kept)."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or "_bucket{" in line:
            continue
        name, value = line.rsplit(" ", 1)
        out[name] = float(value)
    return out


# ---- metrics -----------------------------------------------------------------


def end_to_end(reps, setups):
    """The end-to-end metrics of one run. Repetitions replay identical
    input, so sample i is the same snapshot in each; taking its best value
    over the repetitions removes interference from other work on the host
    that slowed one repetition, before the percentiles are taken over
    snapshots."""
    n = len(reps[0]["latency_ms"])
    m = len(reps[0]["report"]["cycle_rps"])
    if any(len(r["latency_ms"]) != n or len(r["report"]["cycle_rps"]) != m
           for r in reps):
        raise BenchError("repetitions disagree on the number of samples")
    latency = [min(r["latency_ms"][i] for r in reps) for i in range(n)]
    rate = [max(r["report"]["cycle_rps"][i] for r in reps) for i in range(m)]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "records_per_s": (statistics.median(rate), "1/s"),
        "latency_p50_ms": (percentile(latency, 50), "ms"),
        "latency_tail_ms": (percentile(latency, TAIL_PERCENTILE), "ms"),
        "peak_rss_mb": (statistics.median(rep["rss_mb"] for rep in reps), "MB"),
    }, n


def ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(w, traced, untraced):
    """Per-layer metrics from the traced repetitions (medians), with the
    tracing overhead against the untraced ones."""
    per_rep = [(batch_layers if w["surface"] == "batch" else serve_layers)(rep)
               for rep in traced]
    out = {}
    for name, (_, unit) in per_rep[0].items():
        out[name] = (statistics.median(m[name][0] for m in per_rep), unit)
    out["bench.tracing_overhead_s"] = (
        statistics.median(rep["wall_s"] for rep in traced) -
        statistics.median(rep["wall_s"] for rep in untraced), "s")
    return out


def _common(m):
    """Metrics every surface reports, from the discoverer's counters."""
    return {
        "core.intersections": (m["intersections"], "count"),
        "core.distance_ops": (m["distance_ops"], "count"),
        "core.candidate_objects_peak": (m["candidate_objects_peak"], "count"),
        "core.cluster_full_rebuilds": (m["cluster_full_rebuilds"], "count"),
        "util.soa_lanes": (m["soa_lanes"], "count"),
        "core.buddy_prune_ratio": (
            ratio(m["buddy_pairs_pruned"], m["buddy_pairs_checked"]), "ratio"),
        "core.buddy_unchanged_ratio": (
            ratio(m["buddies_unchanged"], m["buddies_total"]), "ratio"),
        "core.cluster_reuse_ratio": (
            ratio(m["cluster_reuse"], m["cluster_reuse"] + m["cluster_dirty"]),
            "ratio"),
    }


def _close_shares(close, stages, outside):
    """Fig. 19's split: each step's share of snapshot close, plus what no
    step reported (`outside` is time known to lie outside every step)."""
    out = {}
    for stage in SHARE_STAGES:
        out["core.%s_share" % stage] = (ratio(stages[stage], close), "ratio")
    steps = sum(stages[s] for s in SHARE_STAGES if s != "eps_filter")
    out["core.unattributed_share"] = (ratio(close - steps - outside, close),
                                      "ratio")
    return out


def batch_layers(rep):
    r = rep["report"]
    wall = r["wall_s"]
    close = r["close_s"]
    stages = {s: r["stage_" + s] for s in SHARE_STAGES}
    out = {
        "data.read_csv_s": (r["read_csv_s"], "s"),
        "core.snapshot_close_s": (close, "s"),
        "eval.write_csv_s": (r["write_csv_s"], "s"),
        "bench.unattributed_s": (
            wall - r["push_s"] - close - r["write_csv_s"], "s"),
        "stream.window_push_share": (ratio(r["push_s"], wall), "ratio"),
        "stream.fill_share": (ratio(r["fill_s"], close), "ratio"),
    }
    out.update(_close_shares(close, stages, r["fill_s"]))
    for name in ("shard.route_share", "shard.cluster_share",
                 "shard.merge_share", "service.frame_decode_share",
                 "service.ingest_admission_share", "service.conn_flush_share",
                 "service.flush_share", "service.query_share",
                 "core.checkpoint_write_share", "load.encode_share"):
        out[name] = (0.0, "ratio")
    out.update(_common(r))
    for name in ("shard.halo_objects", "core.checkpoint_bytes",
                 "service.queue_depth_peak", "load.late_frames"):
        out[name] = (0, "count")
    out["service.ack_p50_ms"] = (0.0, "ms")
    out["service.ack_p99_ms"] = (0.0, "ms")
    return out


def serve_layers(rep):
    r = rep["report"]
    m = rep["metrics"]
    wall = r["wall_s"]

    def stage(name):
        return m.get('tcomp_stage_seconds_sum{stage="%s"}' % name, 0.0)

    def series(name):
        return int(m.get(name, 0))

    close = stage("snapshot_close")
    stages = {s: stage(s) for s in SHARE_STAGES}
    out = {
        "data.read_csv_s": (r["read_csv_s"], "s"),
        "core.snapshot_close_s": (close, "s"),
        # The daemon renders the final QUERY companions body with
        # WriteCompanionsCsv; its round trip is the serve-side write.
        "eval.write_csv_s": (r["query_ms"][-1] / 1e3, "s"),
        "bench.unattributed_s": (
            wall - r["loop_encode_s"] - r["loop_send_s"] - r["loop_wait_s"] -
            r["loop_receive_s"], "s"),
        "stream.window_push_share": (0.0, "ratio"),
        "stream.fill_share": (0.0, "ratio"),
    }
    out.update(_close_shares(close, stages, 0.0))
    out.update({
        "shard.route_share": (ratio(stage("shard_route"), close), "ratio"),
        "shard.cluster_share": (ratio(stage("shard_cluster"), close), "ratio"),
        "shard.merge_share": (ratio(stage("merge_stitch"), close), "ratio"),
        "service.frame_decode_share": (ratio(stage("frame_decode"), wall),
                                       "ratio"),
        "service.ingest_admission_share": (
            ratio(stage("ingest_admission"), wall), "ratio"),
        "service.conn_flush_share": (ratio(stage("conn_flush"), wall),
                                     "ratio"),
        "service.flush_share": (ratio(sum(r["flush_ms"]) / 1e3, wall),
                                "ratio"),
        "service.query_share": (ratio(sum(r["query_ms"]) / 1e3, wall),
                                "ratio"),
        "core.checkpoint_write_share": (ratio(stage("checkpoint_write"), wall),
                                        "ratio"),
        "load.encode_share": (ratio(r["loop_encode_s"], wall), "ratio"),
    })
    out.update(_common({
        "intersections": series("tcomp_intersections_total"),
        "distance_ops": series("tcomp_distance_ops_total"),
        "candidate_objects_peak": series("tcomp_candidate_objects_peak"),
        "cluster_full_rebuilds": series("tcomp_cluster_full_rebuilds_total"),
        "soa_lanes": series("tcomp_soa_lanes_total"),
        "buddy_pairs_pruned": series("tcomp_buddy_pairs_pruned_total"),
        "buddy_pairs_checked": series("tcomp_buddy_pairs_checked_total"),
        "buddies_unchanged": series("tcomp_buddies_unchanged_total"),
        "buddies_total": series("tcomp_buddies_total"),
        "cluster_reuse": series("tcomp_cluster_reuse_total"),
        "cluster_dirty": series("tcomp_cluster_dirty_total"),
    }))
    out.update({
        "shard.halo_objects": (series("tcomp_shard_halo_objects_total"),
                               "count"),
        "core.checkpoint_bytes": (rep["checkpoint_bytes"], "count"),
        "service.queue_depth_peak": (series("tcomp_queue_depth_peak"),
                                     "count"),
        "load.late_frames": (sum(1 for x in r["late_ms"] if x > 1.0),
                             "count"),
        # Per INGEST frame, from sent (closed loop) or due (open loop) to
        # its ack: tens of microseconds of loopback round trip, which moves
        # with the host's scheduling more than with the code.
        "service.ack_p50_ms": (percentile(r["ack_ms"], 50), "ms"),
        "service.ack_p99_ms": (percentile(r["ack_ms"], 99), "ms"),
    })
    return out


# ---- one workload ------------------------------------------------------------


def run_workload(name, seed, seconds, trace, quick, build_dir, bins, log):
    """Runs one workload for about `seconds` of measurement; returns the
    result object (correct, attempted, failed, metrics)."""
    w = WORKLOADS[name]
    run_dir = build_dir / "runs" / ("%s-s%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    trace_path = build_dir / "traces" / ("%s-seed%d.json" % (name, seed))
    if trace:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        input_csv = run_dir / "input.csv"
        gen = w["quick"] if quick else w["gen"]
        run_child([bins["ledger"], "gen", "--out", input_csv, "--seed", seed]
                  + params_flags(gen), run_dir / "gen.err")
        ref = reference(bins, w, input_csv, build_dir, run_dir)
        problems = []
        bad = check_companions(ref.decode(), w["params"])
        if bad:
            problems.append("reference: " + bad)

        setups = []
        rate = w.get("quick_rate" if quick else "rate", 0)
        if w["surface"] == "serve":
            # Spawn-to-listening takes about 2 ms, close to process
            # start-up noise; twenty extra spawns steady its median.
            for _ in range(3 if quick else 20):
                setups.append(Daemon(bins["tcomp"], serve_args(w, run_dir),
                                     run_dir / "serve.err"))
                setups[-1].stop()
            setups = [d.setup_s for d in setups]

        reps = []
        # Three untraced repetitions for the repeat-minimum (two in a
        # traced run, which reports no end-to-end metric); one when quick.
        min_reps = 3 if (trace or not quick) else 1
        start = time.perf_counter()
        while True:
            traced = bool(trace) and len(reps) % 2 == 1
            if w["surface"] == "batch":
                rep = batch_rep(bins, w, input_csv, run_dir, traced, trace_path)
            else:
                rep = serve_rep(bins, w, input_csv, run_dir, traced,
                                trace_path, rate)
            if rep["product"] != ref:
                problems.append("rep %d: companions differ from tcomp "
                                "discover" % len(reps))
            if rep.get("problem"):
                problems.append("rep %d: %s" % (len(reps), rep["problem"]))
            reps.append(rep)
            setups += rep["setup_s"]
            elapsed = time.perf_counter() - start
            if (len(reps) >= min_reps and
                    elapsed * (len(reps) + 1) / len(reps) > seconds):
                break

        untraced = [r for r in reps if not r["traced"]]
        traced_reps = [r for r in reps if r["traced"]]
        e2e, samples = end_to_end(untraced, setups)
        log("%s: seed %d, %d repetitions (%d traced), %d latency samples "
            "each" % (name, seed, len(reps), len(traced_reps), samples))
        if trace:
            metrics = layer_metrics(w, traced_reps, untraced)
            if w["surface"] == "batch":
                share = ratio(metrics["bench.unattributed_s"][0],
                              statistics.median(r["wall_s"]
                                                for r in traced_reps))
                if share > 0.10:
                    problems.append("bench.unattributed_s is %.1f%% of wall "
                                    "(> 10%%): a layer is not timed" %
                                    (100 * share))
            log("%s: spans written to %s" % (name, trace_path))
        else:
            metrics = e2e
        for p in problems:
            log("%s: FAILED: %s" % (name, p))
        return {
            "correct": not problems,
            "attempted": sum(r["attempted"] for r in reps),
            "failed": sum(r["failed"] for r in reps),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# ---- BENCHMARK.json ---------------------------------------------------------

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def validate(spec):
    """Problems with BENCHMARK.json, checked against the benchmark schema
    and against what this runner emits; empty when it is sound."""
    errs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        return ["top-level keys must be exactly %s" % sorted(keys)]
    cmd = spec["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32 or
            any(not isinstance(c, str) or len(c) > 200 for c in cmd)):
        errs.append("command: 1..32 strings of at most 200 characters")
    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errs.append("paths: 1..16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not PATH_RE.match(p) or
                    p.startswith("/") or ".." in p.split("/")):
                errs.append("paths: bad entry %r" % p)
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        errs.append("run_seconds: a whole number in 1..60")
    seen = set()

    def name_ok(kind, n):
        if not isinstance(n, str) or not NAME_RE.match(n):
            errs.append("%s: bad name %r" % (kind, n))
        elif n in seen:
            errs.append("%s: name %r used twice" % (kind, n))
        seen.add(n)

    wls = spec["workloads"]
    if not isinstance(wls, list) or not 2 <= len(wls) <= 8:
        errs.append("workloads: 2..8 entries")
        wls = []
    for wl in wls:
        if not isinstance(wl, dict) or set(wl) != {"name", "why"}:
            errs.append("workloads: each has exactly name and why")
            continue
        name_ok("workload", wl["name"])
        why = wl["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or \
                "\n" in why:
            errs.append("workload %s: why must be one line of 1..200 "
                        "characters" % wl["name"])
    for section, lo, hi, bounded in (("end_to_end", 1, 16, True),
                                     ("per_layer", 1, 128, False)):
        ms = spec[section]
        if not isinstance(ms, list) or not lo <= len(ms) <= hi:
            errs.append("%s: %d..%d metrics" % (section, lo, hi))
            continue
        want = {"name", "unit", "better"} | ({"bound"} if bounded else set())
        for m in ms:
            if not isinstance(m, dict) or set(m) != want:
                errs.append("%s: each metric has exactly %s" % (
                    section, sorted(want)))
                continue
            name_ok(section, m["name"])
            if not isinstance(m["unit"], str) or not UNIT_RE.match(m["unit"]):
                errs.append("%s: bad unit %r" % (m["name"], m["unit"]))
            if m["better"] not in ("higher", "lower"):
                errs.append("%s: better must be higher or lower" % m["name"])
            if bounded:
                b = m["bound"]
                if isinstance(b, bool) or not isinstance(b, (int, float)) \
                        or not 0 < b <= 0.25:
                    errs.append("%s: bound must be in (0, 0.25]" % m["name"])
    if not errs:
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        setup = e2e.get("setup_s")
        if not setup or setup["unit"] != "s" or setup["better"] != "lower":
            errs.append("end_to_end: setup_s (s, lower) is required")
        elif setup["bound"] < max(m["bound"] for m in e2e.values()):
            errs.append("end_to_end: setup_s must have the largest bound")
        if sorted(w["name"] for w in wls) != sorted(WORKLOADS):
            errs.append("workloads differ from run.py's: %s" %
                        sorted(WORKLOADS))
    if len(json.dumps(spec)) > 64 * 1024:
        errs.append("BENCHMARK.json exceeds 64 KiB")
    return errs


def load_spec():
    spec = json.loads(BENCHMARK_JSON.read_text())
    errs = validate(spec)
    if errs:
        raise BenchError("BENCHMARK.json: " + "; ".join(errs))
    return spec


def check_emitted(spec, result, trace):
    """The result carries exactly the metrics BENCHMARK.json declares."""
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if declared != got:
        raise BenchError("emitted metrics differ from BENCHMARK.json: "
                         "missing %s, extra %s, units %s" % (
                             sorted(set(declared) - set(got)),
                             sorted(set(got) - set(declared)),
                             sorted(k for k in declared
                                    if k in got and declared[k] != got[k])))


# ---- compare -----------------------------------------------------------------


def read_records(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def compare(spec, parent_path, change_path):
    """The decision rule of the choosing-metrics guide, per workload and
    end-to-end metric, pairing the two files' runs in the order they were
    recorded: a gain needs ≥10 pairs, a win in ≥9/10 of them and
    a median difference beyond the parent's interquartile range; a
    regression is a median worse than the parent's by more than the bound
    (for setup_s, by more than the bound and SETUP_FLOOR_S); a spread wider
    than the bound is unresolved unless every change run beats every parent
    run. Returns the number of regressions."""
    parent = read_records(parent_path)
    change = read_records(change_path)
    regressions = 0
    print("%-16s %-16s %12s %12s %8s  %s" % (
        "workload", "metric", "parent", "change", "wins", "verdict"))
    for wl in sorted(set(parent) & set(change)):
        pairs = list(zip(parent[wl], change[wl]))
        if any(p["seed"] != c["seed"] for p, c in pairs):
            print("%s: the pairs ran different seeds" % wl)
        first = sum(1 for p, c in pairs if p["started"] < c["started"])
        if abs(2 * first - len(pairs)) > 1:
            print("%s: parent ran first in %d of %d pairs; alternate the "
                  "order" % (wl, first, len(pairs)))
        failed = [sum(r["result"]["failed"] for r in side) /
                  max(1, sum(r["result"]["attempted"] for r in side))
                  for side in ([p for p, _ in pairs], [c for _, c in pairs])]
        if failed[1] > failed[0]:
            regressions += 1
            print("%s: share of failed operations rose %.6f -> %.6f" % (
                wl, failed[0], failed[1]))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1 if m["better"] == "higher" else -1
            pv = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
            cv = [c["result"]["metrics"][name]["value"] for _, c in pairs]
            wins = sum(1 for a, b in zip(pv, cv) if sign * (b - a) > 0)
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            worse = -sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
            spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0,
                         (cq3 - cq1) / abs(cmed) if cmed else 0.0)
            all_better = all(sign * (b - a) > 0 for a in pv for b in cv)
            if name == "setup_s" and -sign * (cmed - pmed) <= SETUP_FLOOR_S:
                worse = min(worse, bound)
            if worse > bound:
                verdict = "REGRESSION (%.1f%% > %.0f%%)" % (100 * worse,
                                                            100 * bound)
                regressions += 1
            elif (len(pairs) >= 10 and wins * 10 >= 9 * len(pairs) and
                  sign * (cmed - pmed) > pq3 - pq1):
                verdict = "gain"
            elif spread > bound and not all_better:
                verdict = "unresolved (spread %.1f%% > bound)" % (100 * spread)
            else:
                verdict = "no change"
            print("%-16s %-16s %12.6g %12.6g %4d/%-3d  %s" % (
                wl, name, pmed, cmed, wins, len(pairs), verdict))
    return regressions


# ---- main ----------------------------------------------------------------------


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build-dir", type=Path,
                    default=ROOT / ".bench_build" / "ledger")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--record", type=Path,
                    help="append each workload's result as a JSON line")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args(argv)

    def log(msg):
        print(msg, flush=True)

    try:
        spec = load_spec()
        if args.compare:
            return 1 if compare(spec, *args.compare) else 0
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        seconds = args.seconds
        if seconds is None:
            seconds = 1.0 if args.quick else spec["run_seconds"]
        bins = build(args.build_dir.resolve())
        names = [args.workload] if args.workload else list(WORKLOADS)
        results = {}
        for name in names:
            started = time.time()
            result = run_workload(name, args.seed, seconds, args.trace,
                                  args.quick, args.build_dir.resolve(), bins,
                                  log)
            check_emitted(spec, result, args.trace)
            for k, v in result["metrics"].items():
                log("%-16s %-34s %16.6f %s" % (name, k, v["value"], v["unit"]))
            if args.record:
                with open(args.record, "a") as f:
                    f.write(json.dumps({"workload": name, "seed": args.seed,
                                        "trace": args.trace,
                                        "started": started,
                                        "result": result}) + "\n")
            results[name] = result
    except BenchError as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 2
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] and final["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
