#!/usr/bin/env bash
# Single entry point for local and CI verification:
#   configure, build, run the full ctest suite, then one smoke bench.
#
#   $ tools/check.sh [build-dir]        # full build + test + smokes
#   $ tools/check.sh lint [build-dir]   # pre-PR static pass only:
#                                       #   rdcn_lint (+ self-tests),
#                                       #   clang-format / clang-tidy over
#                                       #   changed files when installed
#   $ tools/check.sh resume [build-dir] # suite kill-and-resume smoke over
#                                       #   an existing build's rdcn_cli
#   $ tools/check.sh rows parent-build [build-dir]
#                                       # suite rows of two existing builds
#                                       #   must match byte for byte
#
# RDCN_WERROR=ON in the environment turns warnings into errors (CI does).
# Exit code is nonzero if any stage fails.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

configure() {
  cmake -B "$1" -S "$repo" -DRDCN_WERROR="${RDCN_WERROR:-OFF}" "${@:2}"
}

# wall_ms is a wall-clock measurement -- the one field two runs of the
# same cell never agree on -- so cross-run comparisons strip it; every
# actual metric must then be byte-identical.
strip_wall() { sed -E 's/"wall_ms":[0-9.eE+-]+,?//g' "$1"; }

# Suite rows with every timing stripped: wall_ms and the probe's
# phase_*_ns times are the only fields two runs of one build disagree on.
strip_timing() {
  sed -E 's/"wall_ms":[0-9.eE+-]+,?//g; s/"phase_[a-z_]+_ns":[0-9]+,?//g' "$1"
}

# Runs the rdcn_cli of build $1 with the remaining arguments and requires
# exit status 2, the CLI's usage error.
expect_usage_error() {
  local build="$1" status=0
  "$build/rdcn_cli" "${@:2}" >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "check.sh: rdcn_cli ${*:2} exited $status, not 2" >&2
    exit 1
  fi
}

# Runs every gallery suite and both all-keys documents through the
# rdcn_cli of two builds and requires identical rows; stops at the first
# suite whose rows differ.
rows_match() {
  local parent="$1" build="$2" suite name
  for suite in "$repo"/examples/suites/*.json "$repo"/tests/suites/all_keys_*.json; do
    name="$(basename "$suite" .json)"
    "$parent/rdcn_cli" suite "$suite" > "$build/rows_parent_$name.out"
    "$build/rdcn_cli" suite "$suite" > "$build/rows_$name.out"
    if ! cmp <(strip_timing "$build/rows_parent_$name.out") \
             <(strip_timing "$build/rows_$name.out"); then
      echo "check.sh: rows of $suite differ between $parent and $build" >&2
      exit 1
    fi
  done
}

# Kill-and-resume and isolate checks of the suite $build/$name.json, whose
# fault hook targets the cells matching $target: two cells (both policies
# of one axis entry) that run last. Leaves the uninterrupted reference
# run in $build/${name}_ref.out.
crash_resume_isolate() {
  local build="$1" name="$2" target="$3"
  local suite="$build/$name.json"
  # Reference: the uninterrupted run every fault-tolerant variant must match.
  "$build/rdcn_cli" suite "$suite" --threads 1 > "$build/${name}_ref.out" 2>/dev/null
  # Kill-and-resume: the injected crash SIGKILLs the process at the first
  # target cell (cells run in order under --threads 1, so the earlier cells
  # are already journaled); the resume must produce bit-identical output.
  rm -f "$build/$name.journal"
  local kill_status=0
  RDCN_SUITE_FAULT="crash@$target" "$build/rdcn_cli" suite "$suite" \
      --threads 1 --journal "$build/$name.journal" >/dev/null 2>&1 || kill_status=$?
  if [ "$kill_status" -ne 137 ]; then
    echo "check.sh: crash injection did not SIGKILL suite $name (exit $kill_status)" >&2
    exit 1
  fi
  grep -q '"rdcn_suite_journal":1' "$build/$name.journal"
  "$build/rdcn_cli" suite --resume "$build/$name.journal" \
      > "$build/${name}_merged.out" 2>/dev/null
  cmp <(strip_wall "$build/${name}_ref.out") <(strip_wall "$build/${name}_merged.out")
  # Isolate: the failing target cells become structured error rows; the
  # healthy rows stay bit-identical to the reference.
  RDCN_SUITE_FAULT="throw@$target" "$build/rdcn_cli" suite "$suite" \
      --threads 1 --isolate > "$build/${name}_isolate.out" 2>/dev/null
  test "$(grep -c '"status":"failed"' "$build/${name}_isolate.out")" -eq 2
  cmp <(strip_wall "$build/${name}_ref.out" | head -n 2) \
      <(strip_wall "$build/${name}_isolate.out" | head -n 2)
}

# Kill-and-resume smoke of the fault-tolerant suite runner over a batch
# and a stream suite, plus the batch suite's fail_fast and transient-retry
# variants. Needs only rdcn_cli in the build directory; the full run and
# CI's perf-smoke job both call it.
resume_smoke() {
  local build="$1"
  # A small two-workload suite; the fault hook targets the zipf cells.
  cat > "$build/resume_smoke.json" <<'EOF'
{
  "suite": "resume-smoke",
  "mode": "batch",
  "seeds": {"base": 1, "repetitions": 2},
  "policies": ["alg", "fifo"],
  "topologies": [
    {"name": "pod", "kind": "two_tier", "racks": 6, "lasers": 2,
     "photodetectors": 2, "density": 0.6, "max_edge_delay": 2}
  ],
  "workloads": [
    {"name": "uniform", "packets": 80, "rate": 4.0, "skew": "uniform"},
    {"name": "zipf", "packets": 80, "rate": 4.0, "skew": "zipf",
     "zipf_exponent": 1.2}
  ]
}
EOF
  crash_resume_isolate "$build" resume_smoke zipf
  # fail_fast: same injection without --isolate aborts nonzero and reports
  # the suppressed sibling ("and 1 more cell failed").
  if RDCN_SUITE_FAULT="throw@zipf" "$build/rdcn_cli" suite "$build/resume_smoke.json" \
      --threads 1 > /dev/null 2> "$build/resume_failfast.err"; then
    echo "check.sh: fail_fast suite with injected fault exited 0" >&2
    exit 1
  fi
  grep -q "more cell" "$build/resume_failfast.err"
  # Transient retry: the injection fires once per repetition, so a retry
  # budget of 2 recovers and the output is bit-identical to the reference.
  RDCN_SUITE_FAULT="transient@zipf" "$build/rdcn_cli" suite "$build/resume_smoke.json" \
      --threads 1 --attempts 2 --backoff-ms 1 > "$build/resume_retry.out" 2>/dev/null
  cmp <(strip_wall "$build/resume_smoke_ref.out") <(strip_wall "$build/resume_retry.out")
  # Stream mode: one pod at two loads; the fault hook targets the busy cells.
  cat > "$build/resume_stream.json" <<'EOF'
{
  "suite": "resume-stream",
  "mode": "stream",
  "seeds": {"base": 1, "repetitions": 2},
  "policies": ["alg", "fifo"],
  "topologies": [
    {"name": "pod", "kind": "two_tier", "racks": 6, "lasers": 2,
     "photodetectors": 2, "density": 0.6, "max_edge_delay": 2}
  ],
  "traffic": [
    {"name": "calm", "rho": 0.4},
    {"name": "busy", "rho": 0.7}
  ],
  "stream": {"warmup": 100, "measure": 600}
}
EOF
  crash_resume_isolate "$build" resume_stream busy
}

if [ "${1:-}" = "resume" ]; then
  resume_smoke "${2:-$repo/build}"
  echo "check.sh: resume passed"
  exit 0
fi

if [ "${1:-}" = "rows" ]; then
  if [ -z "${2:-}" ]; then
    echo "usage: tools/check.sh rows parent-build [build-dir]" >&2
    exit 2
  fi
  rows_match "$2" "${3:-$repo/build}"
  echo "check.sh: rows passed"
  exit 0
fi

if [ "${1:-}" = "lint" ]; then
  build="${2:-$repo/build}"
  echo "== lint: rdcn_lint =="
  configure "$build" >/dev/null
  cmake --build "$build" -j"$(nproc)" --target rdcn_lint test_lint
  ctest --test-dir "$build" --output-on-failure -R test_lint
  "$build/rdcn_lint" --root "$repo"
  # clang tools are optional locally (the CI lint job always has them);
  # when present they run over the files this branch touches.
  changed="$(git -C "$repo" diff --name-only --diff-filter=d origin/main...HEAD \
               2>/dev/null | grep -E '\.(cpp|hpp)$' | grep -v '^tests/lint_fixtures/' \
               || true)"
  if command -v clang-format >/dev/null && [ -n "$changed" ]; then
    echo "== lint: clang-format (changed files) =="
    (cd "$repo" && echo "$changed" | xargs clang-format --dry-run -Werror)
  else
    echo "== lint: clang-format skipped (not installed or no changed files) =="
  fi
  if command -v clang-tidy >/dev/null && [ -n "$changed" ]; then
    echo "== lint: clang-tidy (changed sources) =="
    configure "$build" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    sources="$(echo "$changed" | grep -E '^(src|tools|bench)/.*\.cpp$' || true)"
    if [ -n "$sources" ]; then
      (cd "$repo" && echo "$sources" | xargs clang-tidy -p "$build" --quiet)
    fi
  else
    echo "== lint: clang-tidy skipped (not installed or no changed files) =="
  fi
  echo "check.sh: lint passed"
  exit 0
fi

build="${1:-$repo/build}"

echo "== configure =="
configure "$build"

echo "== build =="
cmake --build "$build" -j"$(nproc)"

echo "== test =="
ctest --test-dir "$build" --output-on-failure -j"$(nproc)"

echo "== lint =="
# Project-specific invariants (hot-alloc, json-concat, probe-registry,
# include-hygiene); test_lint already validated the tool against its
# fixtures as part of the suite above.
"$build/rdcn_lint" --root "$repo"

echo "== smoke bench =="
if [ -x "$build/bench/bench_scalability" ]; then
  "$build/bench/bench_scalability" --benchmark_filter='BM_AlgEndToEnd/8' \
      --benchmark_min_time=0.05 >/dev/null
else
  # google-benchmark absent: any plain bench exercises the whole stack.
  "$build/bench/bench_bmatching" >/dev/null
fi

echo "== smoke hotpath =="
# The quick drains exit 3 when repetitions disagree on cost or rounds, or
# when a probe-on drain diverges from its probe-off schedule.
"$build/bench/bench_hotpath" --quick --phases >/dev/null

echo "== perf_ab verdicts =="
# The same-machine A/B's labels and exit status, on synthetic runs.
python3 "$repo/tools/test_perf_ab.py"

echo "== smoke fuzz =="
# Fixed-seed differential sweep; the random spec grids draw the whole
# topology zoo (two-tier, crossbar, oversubscribed, expander, rotor), so
# every wiring family passes through the checker on every run.
"$build/rdcn_fuzz" --seeds 15 --base 1 >/dev/null
# Staged stream specs (failure injection / mid-run rewiring): seed 17
# historically caught a telemetry served-count bug at stage boundaries.
"$build/rdcn_fuzz" --seeds 10 --base 12 --mode stream >/dev/null
# Transient-failure classification: an injected infrastructure hiccup is
# retried once (same seed) and the sweep still comes out clean.
"$build/rdcn_fuzz" --seeds 2 --base 1 --mode batch --inject-transient 1 >/dev/null

echo "== smoke cli =="
"$build/rdcn_cli" policies >/dev/null
# The instance-file subcommands on one generated pod; certify exits 1 if
# any certificate row reads FAIL.
"$build/rdcn_cli" gen "$build/smoke_gen.inst" --racks 5 --packets 60 --skew hotspot \
    --fixed-dl 7 --seed 9 >/dev/null
"$build/rdcn_cli" run "$build/smoke_gen.inst" --policy alg >/dev/null
"$build/rdcn_cli" certify "$build/smoke_gen.inst" >/dev/null
"$build/rdcn_cli" show "$build/smoke_gen.inst" --width 90 >/dev/null
"$build/rdcn_cli" info "$build/smoke_gen.inst" >/dev/null
"$build/rdcn_cli" record "$build/smoke_trace.inst" --packets 500 --rho 0.6 --seed 3 >/dev/null
"$build/rdcn_cli" stream --trace "$build/smoke_trace.inst" --warmup 0 --packets 500 >/dev/null
"$build/rdcn_cli" stream --rho 0.6 --warmup 200 --packets 2000 --seed 3 >/dev/null
# Time-staged run with failure injection, audited: kill two edges under
# requeue, then restore them; the per-stage summary rows must appear.
printf '[{"duration": 40},\n {"duration": 40, "kill_edges": [0, 1], "dead": "requeue"},\n {"duration": 0, "restore_edges": [0, 1]}]\n' \
    > "$build/smoke_stages.json"
"$build/rdcn_cli" stream --rho 0.6 --warmup 100 --packets 1500 --seed 3 \
    --stages "$build/smoke_stages.json" --audit > "$build/smoke_staged.out"
grep -q "stage 2" "$build/smoke_staged.out"
# Profile subcommand: per-phase table plus a Chrome trace; the command
# itself strict-parses the written trace (nonzero exit on invalid JSON).
"$build/rdcn_cli" profile --racks 16 --packets 500 \
    --out "$build/profile_trace.json" >/dev/null
test -s "$build/profile_trace.json"
# Malformed or out-of-range numbers are usage errors, never a fallback,
# a numeric prefix or an infinite bound.
expect_usage_error "$build" certify "$build/smoke_gen.inst" --eps 0
expect_usage_error "$build" gen "$build/smoke_bad.inst" --racks 5x

echo "== smoke suites =="
# Every gallery file must parse and expand; three of them also run.
for suite in "$repo"/examples/suites/*.json; do
  "$build/rdcn_cli" suite "$suite" --list >/dev/null
done
"$build/rdcn_cli" suite "$repo/examples/suites/paper_baseline.json" >/dev/null
"$build/rdcn_cli" suite "$repo/examples/suites/failure_sweep.json" >/dev/null
"$build/rdcn_cli" suite "$repo/examples/suites/topology_zoo.json" >/dev/null
if "$build/rdcn_cli" suite "$repo/tests/suites/unknown_key.json" >/dev/null 2>&1; then
  echo "check.sh: bad suite file was not rejected" >&2
  exit 1
fi

echo "== smoke fault tolerance & resume =="
resume_smoke "$build"

echo "check.sh: all stages passed"
