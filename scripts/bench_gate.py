#!/usr/bin/env python3
"""Bench-regression gate: diff fresh --metrics-out runs against the
committed baselines in bench/baselines/BENCH_*.json.

The simulation is deterministic, so for a given binary + seed the metrics
snapshot is a function of the code alone. The gate reruns each covered
bench, compares every counter/gauge/histogram-count against the baseline,
and fails on drift outside the tolerance band. A legitimate behaviour
change updates the baseline (with --update) and the diff is reviewed like
code.

Tolerances, not exact equality: some metrics measure scheduling-sensitive
quantities (cache hit counts, retry totals) where a harmless change — an
extra warm-up RPC, a reordered boot step — shifts values by a few units.
The bands below absorb that; anything larger is a real regression or a
real improvement, and either way a human should look.

  - Exact-match metrics (default): |new - old| == 0.
  - Noisy metrics (NOISY patterns): relative drift <= 10% (floor of 5
    absolute for small counts, where 10% of 20 would flag noise).
  - Perf metrics (PERF patterns): wall-clock measurements — one-sided.
    Pass at any value >= PERF_FLOOR_FRAC of baseline; a faster machine or
    an optimization sails through, a large throughput regression fails.
  - Metrics present on one side only: always reported; new metrics pass
    (registration is additive), vanished metrics fail (a deleted metric
    breaks downstream dashboards silently).

Usage:
  scripts/bench_gate.py [--build-dir build] [--update] [--only NAME]

Exit status: 0 clean, 1 drift found (or a bench failed to run).
"""

import argparse
import fnmatch
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_DIR = os.path.join(REPO, "bench", "baselines")

# Covered benches: name -> extra argv. Each writes its final metrics
# snapshot; fixed seeds keep the runs reproducible.
BENCHES = {
    "bench_migration_cost": [],
    "bench_forwarding": [],
    "bench_soak": ["--quick", "--seed", "1"],
    "bench_nemesis": ["--quick", "--seed", "1"],
    "bench_engine_profile": ["--quick", "--seed", "1"],
    "bench_vm_strategies": ["--quick", "--seed", "9"],
    "bench_fs_sharding": [],  # snapshot: 2 servers x 2 replicas, crash
}

# Metrics allowed to drift within the band instead of matching exactly.
# Glob patterns against "name" (the host-summed value is compared, so
# per-host scheduling shifts cancel unless the total moves).
NOISY = [
    "*.cache.*",        # hit/miss totals move with boot-order perturbations
    "rpc.client.*",     # retry/timeout totals under fault schedules
    "rpc.server.*",
    "*.latency_ms",     # histogram counts; the distribution is checked coarsely
    "workload.think.*",
]

REL_TOL = 0.10   # noisy metrics: 10% relative ...
ABS_FLOOR = 5    # ... with an absolute floor for small counts

# Wall-clock performance metrics: everything else in a snapshot is a
# function of the simulation (deterministic per seed), but these measure
# the simulator itself and move with the machine, the load, and the build.
# Gated one-sided: only a collapse below PERF_FLOOR_FRAC of the committed
# baseline fails (CI boxes are slow and shared — the band is deliberately
# wide; the headline number lives in the bench output, not the gate).
PERF = [
    "sim.engine.events_per_sec",
]

PERF_FLOOR_FRAC = 0.25


def is_perf(name):
    return any(fnmatch.fnmatch(name, pat) for pat in PERF)


class MetricsLoadError(Exception):
    """A metrics snapshot could not be read or parsed."""


def load_metrics(path):
    """Returns {(kind, name): total} summed across hosts.

    Counters and gauges contribute their value; histograms contribute their
    sample count (shape drift shows up in the separate latency columns the
    benches print, value drift in the count).
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        # A corrupt or unreadable snapshot (truncated write, stray bytes)
        # must gate as a one-line failure, not a stack trace.
        raise MetricsLoadError(f"{path}: {e}") from None
    out = {}
    for kind in ("counters", "gauges"):
        for m in doc.get(kind, []):
            key = (kind, m["name"])
            out[key] = out.get(key, 0) + m["value"]
    for m in doc.get("histograms", []):
        key = ("histograms", m["name"])
        out[key] = out.get(key, 0) + m.get("count", sum(m.get("buckets", [])))
    return out


def is_noisy(name):
    return any(fnmatch.fnmatch(name, pat) for pat in NOISY)


def within_band(name, old, new):
    if is_perf(name):
        return new >= old * PERF_FLOOR_FRAC
    if old == new:
        return True
    if not is_noisy(name):
        return False
    tol = max(ABS_FLOOR, abs(old) * REL_TOL)
    return abs(new - old) <= tol


def run_bench(build_dir, name, extra, out_path):
    binary = os.path.join(build_dir, "bench", name)
    if not os.path.exists(binary):
        print(f"FAIL {name}: binary not built at {binary}")
        return False
    cmd = [binary] + extra + ["--metrics-out", out_path]
    r = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                       stderr=subprocess.STDOUT, cwd=REPO)
    if r.returncode != 0:
        print(f"FAIL {name}: exited {r.returncode}")
        return False
    return True


def compare(name, baseline_path, fresh_path):
    try:
        old = load_metrics(baseline_path)
        new = load_metrics(fresh_path)
    except MetricsLoadError as e:
        print(f"FAIL {name}: corrupt metrics snapshot: {e}")
        return False
    drifted = []
    for key in sorted(old.keys() | new.keys()):
        kind, metric = key
        if key not in new:
            drifted.append(f"  {metric} ({kind}): vanished "
                           f"(baseline {old[key]})")
            continue
        if key not in old:
            # Additive registration: fine, the --update run picks it up.
            continue
        if not within_band(metric, old[key], new[key]):
            if is_perf(metric):
                band = f">= {int(PERF_FLOOR_FRAC * 100)}% of baseline"
            elif is_noisy(metric):
                band = f"±max({ABS_FLOOR}, {int(REL_TOL * 100)}%)"
            else:
                band = "exact"
            drifted.append(f"  {metric} ({kind}): {old[key]} -> {new[key]} "
                           f"[{band}]")
    new_names = sorted(m for k, m in new.keys() - old.keys())
    if new_names:
        print(f"note {name}: {len(new_names)} new metric(s) not in baseline "
              f"(run --update to record): {', '.join(new_names[:6])}"
              + (" ..." if len(new_names) > 6 else ""))
    if drifted:
        print(f"FAIL {name}: {len(drifted)} metric(s) drifted")
        for line in drifted:
            print(line)
        return False
    print(f"ok   {name}: {len(old)} metrics within tolerance")
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baselines from this run")
    ap.add_argument("--only", help="gate a single bench (e.g. bench_soak)")
    args = ap.parse_args()
    build_dir = os.path.join(REPO, args.build_dir) \
        if not os.path.isabs(args.build_dir) else args.build_dir

    benches = BENCHES
    if args.only:
        if args.only not in BENCHES:
            print(f"unknown bench {args.only}; covered: "
                  f"{', '.join(BENCHES)}")
            return 2
        benches = {args.only: BENCHES[args.only]}

    os.makedirs(BASELINE_DIR, exist_ok=True)
    ok = True
    for name, extra in benches.items():
        baseline = os.path.join(BASELINE_DIR,
                                f"BENCH_{name[len('bench_'):]}.json")
        if args.update:
            if run_bench(build_dir, name, extra, baseline):
                print(f"ok   {name}: baseline updated -> "
                      f"{os.path.relpath(baseline, REPO)}")
            else:
                ok = False
            continue
        if not os.path.exists(baseline):
            print(f"FAIL {name}: no baseline at {baseline} "
                  f"(run with --update to create)")
            ok = False
            continue
        with tempfile.NamedTemporaryFile(suffix=".metrics.json",
                                         delete=False) as tmp:
            fresh = tmp.name
        try:
            if not run_bench(build_dir, name, extra, fresh):
                ok = False
                continue
            if not compare(name, baseline, fresh):
                ok = False
        finally:
            os.unlink(fresh)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
