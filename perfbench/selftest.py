#!/usr/bin/env python3
"""Small-shape self-test of the benchmark.

    python3 perfbench/selftest.py

Builds the benchmark binary (as run.py does), then for every workload runs
the small shape twice untraced and once traced with the same seed, and checks
that

  * each run passes its own correctness checks and exits 0;
  * every end-to-end metric (untraced) and every per-layer metric (traced)
    named in BENCHMARK.json is printed, with its unit, as a finite number;
  * the two untraced runs agree exactly on sim_digest and on every simulated
    metric, and the traced run reports the same sim_digest.

Exits non-zero on the first workload that fails, naming the check.
"""
import json
import math
import re
import subprocess
import sys

import run

# Host-clock metrics: everything else the binary prints is simulated and must
# repeat exactly for a given seed.
HOST_METRICS = {"host_s", "setup_s", "peak_rss_mb"}


def invoke(binary, workload, trace):
    cmd = [str(binary), "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--small"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                             f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = re.search(r"^sim_digest (\w+)$", out.stdout, re.M)
    if digest is None:
        raise AssertionError(f"{workload}: no sim_digest line")
    return result, digest.group(1)


def check_metrics(workload, result, specs):
    if not result["correct"]:
        raise AssertionError(f"{workload}: correct is false")
    if result["attempted"] < 1 or result["failed"] != 0:
        raise AssertionError(f"{workload}: attempted {result['attempted']}, "
                             f"failed {result['failed']}")
    metrics = result["metrics"]
    for spec in specs:
        m = metrics.get(spec["name"])
        if m is None or m["unit"] != spec["unit"]:
            raise AssertionError(f"{workload}: {spec['name']} missing or "
                                 f"without unit {spec['unit']}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise AssertionError(f"{workload}: {spec['name']} is not finite")
    if set(metrics) != {s["name"] for s in specs}:
        raise AssertionError(f"{workload}: unexpected metrics "
                             f"{sorted(set(metrics) - {s['name'] for s in specs})}")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    binary = run.build()
    for w in (x["name"] for x in spec["workloads"]):
        first, d1 = invoke(binary, w, 0)
        second, d2 = invoke(binary, w, 0)
        traced, d3 = invoke(binary, w, 1)
        check_metrics(w, first, spec["end_to_end"])
        check_metrics(w, second, spec["end_to_end"])
        check_metrics(w, traced, spec["per_layer"])
        if not d1 == d2 == d3:
            raise AssertionError(f"{w}: sim_digest differs: {d1} {d2} {d3}")
        for name, m in first["metrics"].items():
            if name not in HOST_METRICS and m != second["metrics"][name]:
                raise AssertionError(f"{w}: simulated metric {name} differs "
                                     f"between same-seed runs")
        print(f"{w}: ok (sim_digest {d1})")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        sys.exit(1)
