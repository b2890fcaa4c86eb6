#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny scale (a few seconds).

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that the end-to-end and per-layer metrics
carry exactly the names and units BENCHMARK.json declares, that no
end-to-end metric reads 0, that failed_share is 0 and every correctness
gate passes, that the instruction counters are live, and that the spans
file is written. It then runs one workload on a single shard of the
sharded engine, whose brokers all run on a worker thread, and checks that
its instruction counts have the same magnitude as on the default engine:
a counter that missed the worker would read a small fraction.
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

TINY = {"population": 0.25, "traffic": 0.1}
SEED = 1

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def declared(section):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def main():
    binary = bench.build()
    for workload in bench.WORKLOADS:
        records, errors = bench.measure(binary, workload, SEED, 0, **TINY)
        check(not errors, f"{workload}: correctness gates pass {errors}")
        values = bench.end_to_end(records)
        check(bench.END_TO_END == declared("end_to_end"),
              f"{workload}: end-to-end names and units match BENCHMARK.json")
        check(all(values[n] > 0 for n, _ in bench.END_TO_END),
              f"{workload}: no end-to-end metric reads 0 {values}")
        check(all(r["values"]["failed_share"] == 0 for r in records),
              f"{workload}: failed_share is 0")
        v = records[0]["values"]
        check(v["setup_ginstr"] > 0 and v["run_ginstr"] > 0
              and v["process_ginstr"] >= v["sim_ginstr"] > v["run_ginstr"],
              f"{workload}: instruction counters are live")
        check(math.isfinite(v["scenario.window_cpi"])
              and v["scenario.window_cpi"] > 0,
              f"{workload}: cycle counter is live")

        layer, _, errors, spans = bench.traced(binary, workload, SEED, **TINY)
        check(not errors, f"{workload}: traced run matches the untraced report")
        check(bench.PER_LAYER == declared("per_layer")
              and set(layer) == {n for n, _ in bench.PER_LAYER},
              f"{workload}: per-layer names and units match BENCHMARK.json")
        span_lines = spans.read_text().splitlines() if spans.exists() else []
        names = {json.loads(line)["name"] for line in span_lines}
        check({"scenario.build", "scenario.window", "routing.collect",
               "filter.matches"} <= names,
              f"{workload}: spans written to {spans}")

    workload = "roam_handoff"
    default = bench.run_rep(binary, workload, SEED, shards=0, **TINY)
    sharded = bench.run_rep(binary, workload, SEED, shards=1, **TINY)
    check(not bench.gate(sharded), f"{workload}: one-shard run is correct")
    for key in ("process_ginstr", "run_ginstr"):
        ratio = sharded["values"][key] / default["values"][key]
        check(0.5 < ratio < 2,
              f"{workload}: one shard counts {key} like the default engine "
              f"(ratio {ratio:.3f})")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
