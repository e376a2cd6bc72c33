#!/usr/bin/env python3
"""Same-machine A/B of the repository benchmark: BASE against this checkout.

Usage, from anywhere inside the repository:

    python3 tools/perf_ab.py BASE [--workloads a,b] [--pairs N]
                             [--first-seed S] [--seconds T]

BASE is any commit-ish. Its committed files are exported (git archive)
into a temporary directory, removed on exit; the change side is this
checkout's working tree, uncommitted edits included. Each side builds its
own perfbench through perfbench/run.py under its own CARGO_TARGET_DIR in
that temporary directory.

For each seed S, S+1, ..., S+N-1 (one pair each) and each workload, both
sides run `perfbench/run.py --workload W --seed SEED --seconds T --trace 0`
back to back; the side that goes first alternates from pair to pair, so a
drift in host speed does not favour either side. N defaults to 10, the
least pairs that can label a timing metric (below), and T to
BENCHMARK.json's run_seconds.

The report lists, per workload and per end-to-end metric of BENCHMARK.json,
each side's median and quartiles over the pairs, the median ratio
(change / base) with a bootstrap 95% interval (the pairs resampled with
replacement, from a fixed seed, so a report repeats exactly), how many
pairs the change won by the metric's `better` direction (ties count for
neither side), and one label. The interval is for reading only: the
labels below do not use it.

  REGRESSION  the change's median is worse than the base's by more than
              the metric's BENCHMARK.json `bound` (a fraction of the base
              median), however many pairs ran;
  unresolved  fewer than 10 pairs, or a base interquartile range (IQR)
              wider than the bound: too few or too noisy runs to tell;
  gain, loss  at least 9 of every 10 pairs won (or lost) and the medians
              further apart than the base IQR;
  unchanged   none of the above;
  identical, DIFFERS
              sim_* metrics, which must be equal at every seed: they
              measure simulated time, which a change that only speeds the
              simulator up must not move.

Exit status: 1 when a run fails (nonzero exit, `correct` false or a failed
unit), on a REGRESSION, or when a sim_* metric DIFFERS; 2 on a usage
error; 0 otherwise.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The least pairs, and the share of them won, that can resolve a gain.
MIN_PAIRS = 10
WIN_SHARE = 0.9

# The median ratio's bootstrap: resamples, and the seed that makes the
# interval repeat from run to run.
BOOTSTRAP_SAMPLES = 2000
BOOTSTRAP_SEED = 12345


class RunFailed(Exception):
    pass


def export_commit(commit, dest):
    """Writes the committed tree of `commit` into `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % commit)


def run_side(root, target_dir, workload, seed, seconds):
    """One perfbench run; returns {metric: value} or raises RunFailed."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct") or \
            result.get("failed", 0) != 0:
        raise RunFailed("%s (exit %d):\n%s" % (" ".join(cmd), proc.returncode,
                                                proc.stdout[-4000:]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def ratio_interval(base, change):
    """Bootstrap 95% interval of median(change) / median(base): resample
    the pairs (base[i], change[i]) with replacement BOOTSTRAP_SAMPLES
    times from BOOTSTRAP_SEED and take the 2.5th and 97.5th percentiles
    of the resampled ratios."""
    rng = random.Random(BOOTSTRAP_SEED)
    n = len(base)
    ratios = []
    for _ in range(BOOTSTRAP_SAMPLES):
        picks = [rng.randrange(n) for _ in range(n)]
        b = statistics.median(base[i] for i in picks)
        c = statistics.median(change[i] for i in picks)
        ratios.append(c / b if b else float("nan"))
    ratios.sort()
    return ratios[int(0.025 * BOOTSTRAP_SAMPLES)], ratios[int(0.975 * BOOTSTRAP_SAMPLES) - 1]


def won(metric, base, change):
    """Pairs (base[i], change[i]) that the change wins by the metric's
    `better` direction; a tie is won by neither side."""
    higher = metric["better"] == "higher"
    return sum(1 for x, y in zip(base, change) if (y > x if higher else y < x))


def label(metric, base, change):
    """The verdict on one BENCHMARK.json end-to-end metric, from its values
    on each side at the same seeds (base[i] and change[i] form pair i)."""
    if metric["name"].startswith("sim_"):
        return "identical" if base == change else "DIFFERS"
    b1, bm, b3 = quartiles(base)
    cm = quartiles(change)[1]
    bound = metric["bound"]
    higher = metric["better"] == "higher"
    if (cm < bm * (1 - bound)) if higher else (cm > bm * (1 + bound)):
        return "REGRESSION"
    pairs = len(base)
    if pairs < MIN_PAIRS or b3 - b1 > bound * bm:
        return "unresolved"
    if abs(cm - bm) > b3 - b1:
        if won(metric, base, change) >= WIN_SHARE * pairs:
            return "gain"
        if won(metric, change, base) >= WIN_SHARE * pairs:
            return "loss"
    return "unchanged"


def report(workload, metrics, base, change):
    """Prints one workload's table; returns {metric name: label}."""
    seeds = sorted(base)
    print("\n%s: %d pair(s), seeds %s" % (workload, len(seeds), ", ".join(map(str, seeds))))
    print("  %-24s %-36s %-36s %7s %-16s %6s %s" % (
        "metric", "base median [q1, q3]", "change median [q1, q3]", "ratio", "95% interval",
        "wins", "label"))
    labels = {}
    for metric in metrics:
        name = metric["name"]
        a = [base[s][name] for s in seeds]
        b = [change[s][name] for s in seeds]
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        ratio = bm / am if am else float("nan")
        low, high = ratio_interval(a, b)
        labels[name] = label(metric, a, b)
        print("  %-24s %-36s %-36s %7.3f %-16s %3d/%-2d %s" % (
            name, "%.4g [%.4g, %.4g]" % (am, a1, a3), "%.4g [%.4g, %.4g]" % (bm, b1, b3),
            ratio, "[%.3f, %.3f]" % (low, high), won(metric, a, b), len(seeds),
            labels[name]))
    return labels


def verdict(metrics, results):
    """Reports every workload of `results` ({workload: {"base": {seed:
    {metric: value}}, "change": ...}}); returns the exit status."""
    failing = {"REGRESSION": [], "DIFFERS": []}
    for workload, sides in results.items():
        labels = report(workload, metrics, sides["base"], sides["change"])
        for name, tag in labels.items():
            if tag in failing:
                failing[tag].append("%s %s" % (workload, name))
    if failing["REGRESSION"]:
        print("perf_ab: worse than the BENCHMARK.json bound: %s" %
              ", ".join(failing["REGRESSION"]), file=sys.stderr)
    if failing["DIFFERS"]:
        print("perf_ab: simulated metrics differ: %s" % ", ".join(failing["DIFFERS"]),
              file=sys.stderr)
    return 1 if failing["REGRESSION"] or failing["DIFFERS"] else 0


def build_parser(spec):
    """The command line; `spec` is BENCHMARK.json's content."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="commit-ish to compare this checkout against")
    parser.add_argument("--workloads", help="comma-separated (default: all of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS,
                        help="seeds, one pair each (default %(default)s, the least that can "
                        "label a timing metric gain, loss or unchanged)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="per run (default: BENCHMARK.json's run_seconds, %(default)s)")
    return parser


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = build_parser(spec)
    args = parser.parse_args()
    if args.pairs < 1 or args.first_seed < 0 or args.seconds <= 0:
        parser.error("--pairs must be >= 1, --first-seed >= 0 and --seconds > 0")

    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error("unknown workload(s) %s; known: %s" % (", ".join(unknown), ", ".join(known)))
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", args.base + "^{commit}"],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if rev.returncode != 0:
        parser.error("not a commit: %s" % args.base)
    commit = rev.stdout.strip()

    # SIGTERM unwinds like Ctrl-C, so the temporary directory goes either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix="perf_ab-")
    try:
        export_commit(commit, os.path.join(tmp, "base"))
        sides = {"base": (os.path.join(tmp, "base"), os.path.join(tmp, "base-build")),
                 "change": (ROOT, os.path.join(tmp, "change-build"))}
        results = {w: {"base": {}, "change": {}} for w in workloads}
        seeds = range(args.first_seed, args.first_seed + args.pairs)
        for i, seed in enumerate(seeds):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in workloads:
                for side in order:
                    root, target = sides[side]
                    try:
                        values = run_side(root, target, workload, seed, args.seconds)
                    except RunFailed as failure:
                        print("perf_ab: %s run failed: %s" % (side, failure), file=sys.stderr)
                        return 1
                    results[workload][side][seed] = values
                print("perf_ab: pair %d/%d seed %d %s: pkts_per_cpu_s base %.4g, change %.4g" % (
                    i + 1, args.pairs, seed, workload,
                    results[workload]["base"][seed]["pkts_per_cpu_s"],
                    results[workload]["change"][seed]["pkts_per_cpu_s"]), file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("perf_ab: base %s vs this checkout, %g s per run" % (commit[:12], args.seconds))
    return verdict(spec["end_to_end"], results)


if __name__ == "__main__":
    sys.exit(main())
