#!/usr/bin/env python3
"""Run the perf-trajectory harness and record its JSON output.

Wraps the bench_perf_json binary: runs it with the chosen workload,
validates the result (every striped run must produce byte-identical
companions and equal distance_ops to the one-stripe baseline, and the
stage histograms must be present and consistent), annotates it with the
toolchain/commit the numbers were taken on, and writes it to
BENCH_PR<N>.json at the repo root — the repo's perf-trajectory record,
one file per PR that re-measured it (--pr selects N; --out overrides
the path entirely).

--blast (implied by --pr 10) runs the `tcomp blast` service load
generator instead of the perf harness: a saturation curve per wire
protocol (sustained records/sec, p50/p95/p99 ingest-admission latency,
shed fraction vs offered load), gated on the serve-vs-batch verify pass
reporting byte-identical products for BOTH protocols and on the binary
protocol's peak effective goodput — achieved x (1 - shed) — clearing
5x the text protocol's.

--history skips the harness entirely and reads every BENCH_PR*.json
already at the repo root, printing one cross-PR trajectory table so the
speedup story is readable in one place instead of N disconnected files.
Records from before the harness was trimmed to its sharded section
still carry micro/e2e/incremental/soa sections; the table reads them.

Usage:
    tools/bench_json.py --build-dir build --pr 7     # full workload
    tools/bench_json.py --build-dir build --quick    # CI smoke workload
    tools/bench_json.py --build-dir build --pr 10    # blast load curve
    tools/bench_json.py --history                    # cross-PR table
"""

import argparse
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import tempfile


def run_harness(binary, extra_args):
    cmd = [str(binary)] + extra_args
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def git_commit(repo_root):
    try:
        out = subprocess.run(
            ["git", "-C", str(repo_root), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def _best_speedup(entries, key):
    """Largest `key` across a section's entries, or None."""
    best = None
    for entry in entries:
        value = entry.get(key)
        if value is None:
            continue
        if best is None or value > best:
            best = value
    return best


def _entry_speedup(entries, key, **match):
    """`key` from the first entry matching every `match` field, or None."""
    for entry in entries:
        if all(entry.get(k) == v for k, v in match.items()):
            return entry.get(key)
    return None


# Offered-load points (records/sec, totals across clients). The top
# point sits far past text saturation so both protocols are measured at
# overload and the goodput ratio compares like with like.
_BLAST_CURVE = "2000,20000,200000,2000000"
_BLAST_POINT_FIELDS = (
    "offered_rps", "achieved_rps", "shed_fraction", "p50_ms", "p95_ms",
    "p99_ms", "records_sent", "records_accepted", "records_refused",
    "elapsed_seconds")


def _peak_goodput(curve):
    """Peak effective goodput over a curve: max achieved x (1 - shed)."""
    return max(p["achieved_rps"] * (1.0 - p["shed_fraction"])
               for p in curve["points"])


def validate_blast(report):
    """Schema + identity gates for a blast report. Raises SystemExit on
    any violation; returns the (text, binary) peak goodputs."""
    verify = report.get("verify", {})
    if not verify.get("ran"):
        raise SystemExit("blast ran without the verify pass — nothing "
                         "ties the load numbers to correct products; "
                         "refusing to record")
    if not (verify.get("text_identical") and verify.get("binary_identical")):
        raise SystemExit("blast verify: served products differ from batch "
                         "discover (text_identical=%s binary_identical=%s) "
                         "— refusing to record"
                         % (verify.get("text_identical"),
                            verify.get("binary_identical")))
    curves = {c.get("protocol"): c for c in report.get("curves", [])}
    for proto in ("text", "binary"):
        curve = curves.get(proto)
        if curve is None:
            raise SystemExit(f"blast report has no {proto} curve")
        points = curve.get("points", [])
        if len(points) < 4:
            raise SystemExit(
                f"{proto} curve has {len(points)} offered-load points; "
                "a saturation curve needs at least 4")
        for point in points:
            for field in _BLAST_POINT_FIELDS:
                if field not in point:
                    raise SystemExit(
                        f"{proto} point is missing '{field}'")
            if not 0.0 <= point["shed_fraction"] <= 1.0:
                raise SystemExit(
                    f"{proto} shed_fraction {point['shed_fraction']} "
                    "out of [0, 1] — torn counters; refusing to record")
            if point["achieved_rps"] < 0 or point["records_sent"] < 0:
                raise SystemExit(f"{proto} point has negative counters")
    text_peak = _peak_goodput(curves["text"])
    binary_peak = _peak_goodput(curves["binary"])
    if text_peak <= 0:
        raise SystemExit("text curve achieved no goodput at all")
    if binary_peak < 5.0 * text_peak:
        raise SystemExit(
            "binary peak effective goodput %.0f rec/s is under 5x the "
            "text protocol's %.0f rec/s — the batched binary path is "
            "not paying for itself; refusing to record"
            % (binary_peak, text_peak))
    return text_peak, binary_peak


def run_blast(args, repo_root):
    """The --pr 10 path: drive `tcomp blast`, gate, record."""
    binary = pathlib.Path(args.build_dir) / "tools" / "tcomp"
    if not binary.exists():
        raise SystemExit(
            f"{binary} not found — build first: cmake --build {args.build_dir}")
    objects = args.objects if args.objects is not None else 100
    snapshots = args.snapshots if args.snapshots is not None else 30
    seconds = 0.5 if args.quick else 2.0
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        report_path = tmp.name
    try:
        cmd = [str(binary), "blast",
               "--clients", "4",
               "--curve", _BLAST_CURVE,
               "--seconds", str(seconds),
               "--objects", str(objects),
               "--snapshots", str(snapshots),
               "--epsilon", "20", "--mu", "3",
               "--min-size", "3", "--min-duration", "2",
               "--json", report_path]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"tcomp blast exited with {proc.returncode}")
        report = json.loads(pathlib.Path(report_path).read_text())
    finally:
        try:
            os.unlink(report_path)
        except OSError:
            pass

    text_peak, binary_peak = validate_blast(report)
    report["config"] = {
        "objects": objects,
        "snapshots": snapshots,
        "clients": report.get("clients"),
        "batch_records": report.get("batch_records"),
        "seconds_per_point": report.get("seconds_per_point"),
        "quick": args.quick,
    }
    report["summary"] = {
        "text_peak_goodput_rps": text_peak,
        "binary_peak_goodput_rps": binary_peak,
        "binary_vs_text": binary_peak / text_peak,
    }
    report["provenance"] = {
        "commit": git_commit(repo_root),
        "machine": platform.machine(),
        "system": platform.system(),
        "hardware_threads": os.cpu_count(),
    }
    out_path = pathlib.Path(
        args.out if args.out is not None
        else repo_root / f"BENCH_PR{args.pr}.json")
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    print(f"  verify: {report['verify']['records']} records -> "
          f"{report['verify']['companions']} companions, both protocols "
          "byte-identical to batch discover")
    for curve in report["curves"]:
        for point in curve["points"]:
            print(f"  {curve['protocol']:>6} offered {point['offered_rps']:>9.0f}"
                  f" rec/s: achieved {point['achieved_rps']:>9.0f}, "
                  f"shed {100.0 * point['shed_fraction']:5.1f}%, "
                  f"p99 {point['p99_ms']:.3f} ms")
    print(f"  goodput: text {text_peak:.0f} rec/s, binary {binary_peak:.0f} "
          f"rec/s ({binary_peak / text_peak:.1f}x)")
    return 0


def history(repo_root):
    """Print the cross-PR speedup trajectory from every BENCH_PR*.json.

    Each column is the headline number of the PR that introduced it:
    intersect/istep (PR 4 bitset kernels), incr-cluster (PR 6 carried
    state), shard-best (PR 7 sharded C-step), soa-cluster (PR 9 SoA
    ε-filter). Older records simply lack the newer sections — those
    cells print '-', which is the point of the table: you can see when
    each axis of the trajectory came online.
    """
    records = []
    for path in repo_root.glob("BENCH_PR*.json"):
        m = re.fullmatch(r"BENCH_PR(\d+)\.json", path.name)
        if not m:
            continue
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"  (skipping {path.name}: {err})", file=sys.stderr)
            continue
        records.append((int(m.group(1)), data))
    if not records:
        print("no BENCH_PR*.json records at the repo root")
        return 1
    records.sort()

    def fmt(value):
        return f"{value:.2f}x" if value is not None else "-"

    header = (f"{'PR':>4} {'commit':>8} {'objects':>8} {'intersect':>10} "
              f"{'istep':>7} {'incr-cluster':>13} {'shard-best':>11} "
              f"{'soa-cluster':>12} {'blast-wire':>11}")
    print(header)
    print("-" * len(header))
    for pr, data in records:
        commit = data.get("provenance", {}).get("commit", "?")
        objects = data.get("config", {}).get("objects", "?")
        micro = data.get("micro", {})
        intersect = micro.get("intersect_speedup")
        istep = _entry_speedup(data.get("e2e", []), "istep_speedup",
                               algorithm="SC")
        incr = _entry_speedup(data.get("incremental", []), "cluster_speedup",
                              algorithm="SC")
        shard = _best_speedup(data.get("sharded", []), "speedup_vs_1")
        soa_entries = data.get("soa", {}).get("e2e", [])
        soa = _entry_speedup(soa_entries, "cluster_speedup",
                             scenario="coherent")
        # PR 10 blast records: binary-vs-text peak effective goodput.
        blast = data.get("summary", {}).get("binary_vs_text")
        print(f"{pr:>4} {commit:>8} {objects:>8} {fmt(intersect):>10} "
              f"{fmt(istep):>7} {fmt(incr):>13} {fmt(shard):>11} "
              f"{fmt(soa):>12} {fmt(blast):>11}")
    return 0


def main():
    repo_root = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory containing bench/")
    parser.add_argument("--pr", type=int, default=4,
                        help="PR number naming the output record "
                             "(BENCH_PR<N>.json at the repo root)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (overrides --pr naming)")
    parser.add_argument("--quick", action="store_true",
                        help="small smoke workload (CI lane)")
    parser.add_argument("--reps", type=int, default=9,
                        help="end-to-end repetitions per shard count")
    parser.add_argument("--objects", type=int, default=None,
                        help="override the e2e stream population")
    parser.add_argument("--snapshots", type=int, default=None,
                        help="override the e2e stream length")
    parser.add_argument("--history", action="store_true",
                        help="print the cross-PR speedup trajectory from "
                             "existing BENCH_PR*.json records and exit")
    parser.add_argument("--blast", action="store_true",
                        help="run the `tcomp blast` service saturation "
                             "curve instead of the perf harness "
                             "(implied by --pr 10)")
    args = parser.parse_args()

    if args.history:
        return history(repo_root)
    if args.blast or args.pr == 10:
        return run_blast(args, repo_root)

    binary = pathlib.Path(args.build_dir) / "bench" / "bench_perf_json"
    if not binary.exists():
        raise SystemExit(
            f"{binary} not found — build first: cmake --build {args.build_dir}")

    harness_args = ["--reps", str(args.reps)]
    if args.quick:
        harness_args.append("--quick")
    if args.objects is not None:
        harness_args += ["--objects", str(args.objects)]
    if args.snapshots is not None:
        harness_args += ["--snapshots", str(args.snapshots)]
    result = run_harness(binary, harness_args)

    config = result["config"]
    if config.get("warmup_iters") is None or config["warmup_iters"] < 1:
        raise SystemExit("harness ran without warm-up iterations — cold-start "
                         "numbers are not comparable; refusing to record")

    for entry in result.get("sharded", []):
        if not entry["identical_products"]:
            raise SystemExit(
                f"sharded {entry['scenario']} @ {entry['shards']} shards: "
                "companions or distance_ops differ from the one-stripe "
                "baseline — the stripes are not product-preserving; "
                "refusing to record")

    stage_metrics = result.get("stage_metrics", {})
    histograms = stage_metrics.get("histograms", {})
    if not histograms:
        raise SystemExit("harness emitted no stage histograms — the obs "
                         "instrumentation is wired out; refusing to record")
    for name, snap in histograms.items():
        if snap["count"] > 0 and sum(snap["buckets"]) != snap["count"]:
            raise SystemExit(f"{name}: bucket counts do not sum to count "
                             "— torn histogram snapshot in a single-threaded "
                             "run; refusing to record")

    result["provenance"] = {
        "commit": git_commit(repo_root),
        "machine": platform.machine(),
        "system": platform.system(),
        "hardware_threads": os.cpu_count(),
    }

    out_path = pathlib.Path(
        args.out if args.out is not None
        else repo_root / f"BENCH_PR{args.pr}.json")
    out_path.write_text(json.dumps(result, indent=2) + "\n")

    print(f"wrote {out_path}")
    for entry in result.get("sharded", []):
        print(f"  sharded {entry['scenario']} @ {entry['shards']}: "
              f"total {entry['speedup_vs_1']:.2f}x, "
              f"cluster {entry['cluster_speedup_vs_1']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
