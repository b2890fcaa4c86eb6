#!/usr/bin/env python3
"""End-to-end benchmark of the REBECA mobility simulator.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script builds perfbench_rep from ../src with CMake (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
workload and checks its outputs. It prints a table, then one JSON line:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 repeats the workload in fresh processes for --seconds and reports
the median of each end-to-end metric, except run_s: each 100 ms segment of
the measured window, and the report, at its least wall time over the
repetitions, summed. --trace 1 runs it once untraced and
once traced and reports the per-layer metrics; the spans go to
<build dir>/spans/. Any correctness failure prints "correct": false and
exits 1. README.md explains the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("publish_fanout", "roam_handoff", "location_walk")
MIN_REPS = 3
REP_TIMEOUT_S = 150

# (name, unit), in print order. failed_share is printed and gated but is
# not a ledger metric: a correct run always reads 0, and the JSON carries
# it as failed / attempted.
END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("setup_ginstr", "Ginstr"),
    ("run_ginstr", "Ginstr"),
    ("peak_rss_mb", "MB"),
    ("delivery_p50_ms", "virtual_ms"),
    ("delivery_p99_ms", "virtual_ms"),
    ("msgs_per_delivery", "msgs"),
]
MESSAGE_CLASSES = ("notification", "delivery", "subscription_admin",
                   "relocation_control", "reexpose", "replay",
                   "location_update", "client_control", "dropped")
PER_LAYER = [
    ("scenario.build_s", "s"),
    ("scenario.build_ginstr", "Ginstr"),
    ("scenario.warmup_s", "s"),
    ("scenario.warmup_ginstr", "Ginstr"),
    ("scenario.window_s", "s"),
    ("scenario.window_ginstr", "Ginstr"),
    ("scenario.window_cpi", "cycles/instr"),
    ("scenario.report_s", "s"),
    ("scenario.report_ginstr", "Ginstr"),
    *[("net.msgs." + c, "count") for c in MESSAGE_CLASSES],
    ("net.warmup_msgs", "count"),
    ("net.window_instr_per_msg", "instr/msg"),
    ("routing.forward_entries", "count"),
    ("routing.forward_tags", "count"),
    ("routing.match_entries", "count"),
    ("routing.cover_entries", "count"),
    ("routing.collect_ns", "ns"),
    ("routing.collect_instr", "instr"),
    ("routing.forward_set_us", "us"),
    ("routing.forward_set_instr", "instr"),
    ("broker.virtuals", "count"),
    ("broker.replayed", "count"),
    ("broker.replay_truncated", "count"),
    ("broker.reexposed", "count"),
    ("broker.pins", "count"),
    ("broker.pending_moveouts", "count"),
    ("broker.ld_transits", "count"),
    ("broker.warmup_exponent", "exponent"),
    ("client.delivered", "count"),
    ("client.duplicates", "count"),
    ("client.filtered", "count"),
    ("client.useful_share", "ratio"),
    ("location.concrete_filter_us", "us"),
    ("location.concrete_filter_instr", "instr"),
    ("filter.matches_ns", "ns"),
    ("filter.matches_instr", "instr"),
    ("bench.trace_overhead_ginstr", "Ginstr"),
]


class BenchError(Exception):
    """The benchmark could not produce a result (build or run failure)."""


def build_dir():
    return (Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
            / "perfbench").resolve()


def build():
    """Configures and builds perfbench_rep (incrementally); returns its path."""
    out = build_dir()
    # Compiler temporaries stay inside the build directory too.
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (out / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    _check_call(configure, "configuring", env)
    jobs = str(min(4, os.cpu_count() or 1))
    _check_call(["cmake", "--build", str(out), "-j", jobs], "building", env)
    return out / "perfbench_rep"


def _check_call(cmd, what, env):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, env=env)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        raise BenchError(f"{what} perfbench failed ({' '.join(cmd)})")


def run_rep(binary, workload, seed, trace=False, spans=None, population=1.0,
            traffic=1.0, shards=0):
    """Runs one workload once in a fresh process; returns its JSON record."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--population", str(population),
           "--traffic", str(traffic), "--shards", str(shards)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=REP_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd)} exited {p.returncode}")
    return json.loads(lines[-1])


def gate(rec, reference=None):
    """Correctness failures of one record, as messages (empty when fine)."""
    v = rec["values"]
    errors = [f"violation: {x}" for x in rec["violations"]]
    if v["failed_share"] != 0:
        errors.append(f"failed_share {v['failed_share']} "
                      f"({v['failed']:.0f} of {v['attempted']:.0f})")
    if v["attempted"] < 1:
        errors.append("no deliveries")
    if rec["workload"] == "publish_fanout" and v["window_subscription_admin"]:
        errors.append(f"{v['window_subscription_admin']:.0f} subscription_admin "
                      "messages in the window: warm-up had not settled")
    if reference is not None and rec["report_fnv1a"] != reference["report_fnv1a"]:
        errors.append(f"report bytes differ between equal-seed runs "
                      f"({rec['report_fnv1a']} vs {reference['report_fnv1a']})")
    if reference is not None and (len(rec["segments_s"])
                                  != len(reference["segments_s"])):
        errors.append("equal-seed runs split the window into different "
                      "numbers of segments")
    return errors


def measure(binary, workload, seed, seconds, **size):
    """Untraced: repeats the workload while another repetition still fits
    in `seconds`, at least MIN_REPS times; returns (records, errors)."""
    records, errors = [], []
    start = time.monotonic()
    longest = 0.0
    while (len(records) < MIN_REPS
           or time.monotonic() - start + longest <= seconds):
        rep_start = time.monotonic()
        rec = run_rep(binary, workload, seed, **size)
        longest = max(longest, time.monotonic() - rep_start)
        errors += gate(rec, records[0] if records else None)
        records.append(rec)
    return records, errors


def end_to_end(records):
    values = {name: statistics.median(r["values"][name] for r in records)
              for name, _ in END_TO_END}
    values["run_s"] = quiet_run_s(records)
    return values


def quiet_run_s(records):
    """run_s with each 100 ms segment of the window, and the report, at
    its least wall time over the repetitions, summed. Every repetition
    does the same work in each segment, so a slow spell of the host
    counts only where it slowed every repetition of that segment."""
    per_segment = zip(*(r["segments_s"] for r in records))
    return (sum(min(times) for times in per_segment)
            + min(r["values"]["scenario.report_s"] for r in records))


def traced(binary, workload, seed, **size):
    """One untraced and one traced run, plus the half-population warm-up;
    returns (per-layer values, [untraced, traced], errors, spans path)."""
    spans = build_dir() / "spans" / f"{workload}-seed{seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    plain = run_rep(binary, workload, seed, **size)
    rec = run_rep(binary, workload, seed, trace=True, spans=spans, **size)
    errors = gate(plain) + gate(rec, plain)
    half_size = dict(size, population=size.get("population", 1.0) / 2)
    half = run_rep(binary, workload, seed, **half_size)
    errors += gate(half)

    v = rec["values"]
    values = {name: v[name] for name, _ in PER_LAYER if name in v}
    values["broker.warmup_exponent"] = math.log2(
        v["scenario.warmup_ginstr"] / half["values"]["scenario.warmup_ginstr"])
    values["bench.trace_overhead_ginstr"] = (
        v["sim_ginstr"] - plain["values"]["sim_ginstr"])
    return values, [plain, rec], errors, spans


def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:32s} {value:16.6g}  {unit}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        binary = build()
        if args.trace:
            values, records, errors, spans = traced(binary, args.workload,
                                                    args.seed)
            units = PER_LAYER
            print_table(f"{args.workload} seed {args.seed}: per-layer "
                        f"(spans in {spans})",
                        [(n, values[n], u) for n, u in units])
        else:
            records, errors = measure(binary, args.workload, args.seed,
                                      args.seconds)
            values = end_to_end(records)
            units = END_TO_END
            last = records[-1]["values"]
            print_table(f"{args.workload} seed {args.seed}: end-to-end over "
                        f"{len(records)} runs (run_s: least time per "
                        f"segment, summed; others: medians)",
                        [(n, values[n], u) for n, u in units]
                        + [("failed_share", last["failed_share"], "ratio"),
                           ("latency samples", last["latency_samples"],
                            "deliveries")])
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    for e in errors:
        print(f"perfbench: CORRECTNESS: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": int(records[0]["values"]["attempted"]),
        "failed": int(max(r["values"]["failed"] for r in records)),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
