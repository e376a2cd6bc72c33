#!/usr/bin/env python3
"""Self-test of the benchmark itself, on congested_alg.

1. A/A: two identical runs agree -- simulated metrics exactly, host-time
   metrics within their BENCHMARK.json bounds.
2. Planted slowdown: the perfbench program's select decorator busy-waits a
   fixed time per scheduling round (--plant-select-us, a test-only flag). The
   end-to-end pkts_per_cpu_s must drop by more than its bound and by about
   what the traced select growth predicts, and the traced run must attribute
   the added time to core.select_ns while other layers' per-call times hold.
3. The result lines carry exactly the metrics BENCHMARK.json declares.

Usage: python3 perfbench/selftest.py [--bin .bench_build/perfbench] [--seconds S]
Exits nonzero on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD = "congested_alg"
PLANT_US = 40.0


def run(binary, seconds, trace, plant_us=0.0, seed=1):
    cmd = [binary, "--workload", WORKLOAD, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace)]
    if plant_us:
        cmd += ["--plant-select-us", str(plant_us)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit("selftest: %s exited %d\n%s" % (" ".join(cmd), proc.returncode,
                                                   proc.stdout[-4000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(result["correct"] and result["failed"] == 0, "run is correct: " + " ".join(cmd))
    return {name: m["value"] for name, m in result["metrics"].items()}


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bin", default=os.path.join(ROOT, ".bench_build", "perfbench"))
    parser.add_argument("--seconds", type=float, default=4.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    a = run(args.bin, args.seconds, 0)
    a2 = run(args.bin, args.seconds, 0)
    planted = run(args.bin, args.seconds, 0, PLANT_US)
    traced = run(args.bin, args.seconds, 1)
    traced_planted = run(args.bin, args.seconds, 1, PLANT_US)

    check(sorted(a) == sorted(m["name"] for m in spec["end_to_end"]),
          "untraced result carries exactly the end_to_end metrics")
    check(sorted(traced) == sorted(m["name"] for m in spec["per_layer"]),
          "traced result carries exactly the per_layer metrics")

    for name in a:
        if name.startswith("sim_"):
            check(a[name] == a2[name] == planted[name],
                  "A/A and planted runs repeat %s exactly (%r)" % (name, a[name]))
    for name in ("pkts_per_cpu_s", "peak_rss_mib"):
        change = a2[name] / a[name] - 1
        check(abs(change) <= bounds[name],
              "A/A %s changes %+.3f, within its bound %.2f" % (name, change, bounds[name]))
    for name in ("sim.rounds", "sim.select_candidates_max", "sim.resident_peak"):
        check(traced[name] == traced_planted[name], "traced counts repeat: %s" % name)

    select_delta_ns = traced_planted["core.select_ns.p50"] - traced["core.select_ns.p50"]
    check(abs(select_delta_ns - PLANT_US * 1000) <= 0.2 * PLANT_US * 1000,
          "core.select_ns.p50 grew by %.0f ns for a planted %.0f ns"
          % (select_delta_ns, PLANT_US * 1000))
    p99_delta_ns = traced_planted["core.select_ns.p99"] - traced["core.select_ns.p99"]
    check(p99_delta_ns >= 0.8 * PLANT_US * 1000,
          "core.select_ns.p99 grew by %.0f ns" % p99_delta_ns)
    # Sub-microsecond calls drift by tens of percent between runs on a shared
    # machine; the plant is 40 us per round, so a misattributed plant would
    # move these by far more than the tolerance.
    for name in ("core.dispatch_ns.p50", "traffic.next_ns.p50", "run.sink_ns.p50"):
        change = traced_planted[name] / traced[name] - 1
        check(abs(change) <= 0.5, "%s holds under the plant (%+.3f)" % (name, change))
    check(traced_planted["core.select.share"] > traced["core.select.share"] + 0.2,
          "core.select.share rises from %.3f to %.3f"
          % (traced["core.select.share"], traced_planted["core.select.share"]))

    drop = 1 - planted["pkts_per_cpu_s"] / a["pkts_per_cpu_s"]
    check(drop > bounds["pkts_per_cpu_s"],
          "planted pkts_per_cpu_s drops %.3f, beyond its bound %.2f"
          % (drop, bounds["pkts_per_cpu_s"]))
    # The traced select share rising from s0 to s1 means the plant added
    # (s1 - s0) / (1 - s1) of the traced wall clock, i.e. that times
    # (1 + trace.overhead) of the untraced CPU: the slowdown the untraced
    # runs must show if core.select accounts for the added time. The runs
    # are minutes apart on a machine whose speed drifts, hence the factor 2.
    slow = a["pkts_per_cpu_s"] / planted["pkts_per_cpu_s"] - 1
    s0, s1 = traced["core.select.share"], traced_planted["core.select.share"]
    predicted = (s1 - s0) / (1 - s1) * (1 + traced["trace.overhead"])
    check(predicted / 2 <= slow <= predicted * 2,
          "end-to-end slowdown %.3f is within 2x of the traced select growth %.3f"
          % (slow, predicted))
    print("selftest passed")


if __name__ == "__main__":
    main()
