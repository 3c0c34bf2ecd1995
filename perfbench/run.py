"""The toricell benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It reads src/, inputs/ and BENCHMARK.json in the checkout that holds
this directory, and writes only under perfbench/out/.  The workloads,
metrics and bounds are registered in BENCHMARK.json; perfbench/README.md
says what each one measures.

Every measured iteration is a fresh single-threaded worker process
(worker.py) that sets up and runs one workload's library chain once: a
closed loop with one client.  Iterations repeat until S seconds of them
have passed, at least one.  Set-up, and the quivers where they are
short, are sampled in extra workers as well, and every metric is the
median over the run's samples.
With --trace 1 the run is one traced worker instead, whose spans are
written to perfbench/out/ and whose per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLES = 7
# Workloads whose quivers take a fraction of a second: a few such times
# show the machine's speed at a few moments, so their quivers are also
# sampled SAMPLES more times in quiver-only workers, half before the
# iterations and half after.
SHORT_QUIVERS = ("threefold_consistency", "mckay_exactness")
DEADLINE_S = 175  # a run ends within 180 s; leave room to report


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(job, deadline):
    """Run one worker; (seconds from spawn to end of set-up, its report)."""
    t0 = now()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        fail(f"a {job['workload']} worker did not finish before the deadline")
    if proc.returncode != 0:
        fail(f"a {job['workload']} worker exited with {proc.returncode}:\n"
             f"{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["setup_end"] - t0, report


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(job, seconds, deadline, registry):
    """Full iterations for seconds (at least one), with set-up, and the
    quivers where they are short, sampled in extra workers around them."""
    quivers_too = job["workload"] in SHORT_QUIVERS
    setups, quivers = [], []

    def sample(mode):
        setup, report = spawn(dict(job, mode=mode), deadline)
        setups.append(setup)
        return report

    def extras(rounds):
        for _ in range(rounds):
            sample("setup")
            if quivers_too:
                quivers.append(sample("quiver")["quiver_s"])

    extras(SAMPLES // 2)
    start = now()
    full, longest = [], 0.0
    # stop early rather than let one more iteration overrun the deadline
    while not full or (now() - start < seconds
                       and now() + 2 * longest < deadline):
        t0 = now()
        full.append(sample("full"))
        longest = max(longest, now() - t0)
    extras(SAMPLES - SAMPLES // 2)
    quivers.extend(r["quiver_s"] for r in full)
    values = {"setup_s": statistics.median(setups),
              "quiver_s": statistics.median(quivers)}
    for name in ("wall_s", "verdict_s", "peak_rss_mb"):
        values[name] = statistics.median(r[name] for r in full)
    return full, {name: metric(values[name], unit)
                  for name, unit in registry.items()}


def per_layer(job, deadline, registry, trace_path):
    _setup, report = spawn(dict(job, mode="full", trace=True), deadline)
    counts, selfs = report["counts"], report["self_s"]
    # a timed metric is its span's self time: "x.y_s" and "x.s" name span "x.y", "x"
    values = {name: selfs.get(name[:-2], 0.0) if unit == "s"
              else counts.get(name, 0) for name, unit in registry.items()}
    values["cones.fiber_max_s"] = report["longest_s"].get("cones.fiber", 0.0)
    requests = counts.get("cones.fiber_requests", 0)
    values["cones.fiber_cache_hit_ratio"] = (
        1 - counts.get("cones.fiber_classes", 0) / requests if requests else 0.0)
    values["fail_frac"] = report["failed"] / report["attempted"]
    values["trace.wall_s"] = report["traced_shared_wall_s"]
    values["trace.overhead_s"] = report["overhead_s"]
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as fh:
        json.dump({"workload": job["workload"], "seed": job["seed"],
                   "inputs": job["inputs"], "spans": report["spans"],
                   "counts": counts, "self_s": selfs,
                   "metrics": values}, fh)
    return [report], {name: metric(values[name], unit)
                      for name, unit in registry.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = now() + DEADLINE_S

    for need in ("BENCHMARK.json", os.path.join("src", "toricell", "__init__.py"),
                 "inputs"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found; perfbench/ must sit at the root of a "
                 "toricell checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from generate import WORKLOADS, documents

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of "
             f"{WORKLOADS}")
    entries, chosen = documents(args.workload, args.seed, ROOT)
    job = {"workload": args.workload, "seed": args.seed, "inputs": chosen,
           "entries": entries, "trace": False}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "inputs": chosen}))
    if args.trace:
        registry = {m["name"]: m["unit"] for m in spec["per_layer"]}
        trace_path = os.path.join(HERE, "out",
                                  f"trace-{args.workload}-{args.seed}.json")
        reports, metrics = per_layer(job, deadline, registry, trace_path)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
    else:
        registry = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        reports, metrics = end_to_end(job, args.seconds, deadline, registry)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for r in reports:
        for name, want, got in r["mismatches"]:
            print(f"check {name}: expected {want}, got {got}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
