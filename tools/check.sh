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
#
# RDCN_WERROR=ON in the environment turns warnings into errors (CI does).
# Exit code is nonzero if any stage fails.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

configure() {
  cmake -B "$1" -S "$repo" -DRDCN_WERROR="${RDCN_WERROR:-OFF}" "${@:2}"
}

# Kill-and-resume smoke of the fault-tolerant suite runner, plus its
# isolate / fail_fast / transient-retry variants. Needs only rdcn_cli in
# the build directory; the full run and CI's perf-smoke job both call it.
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
  # Reference: the uninterrupted run every fault-tolerant variant must match.
  # wall_ms is a wall-clock measurement -- the one field two runs of the
  # same cell never agree on -- so cross-run comparisons strip it; every
  # actual metric must then be byte-identical.
  strip_wall() { sed -E 's/"wall_ms":[0-9.eE+-]+,?//g' "$1"; }
  "$build/rdcn_cli" suite "$build/resume_smoke.json" --threads 1 \
      > "$build/resume_ref.out" 2>/dev/null
  # Kill-and-resume: the injected crash SIGKILLs the process at the first
  # zipf cell (cells run in order under --threads 1, so the uniform cells
  # are already journaled); the resume must produce bit-identical output.
  rm -f "$build/resume_smoke.journal"
  local kill_status=0
  RDCN_SUITE_FAULT="crash@zipf" "$build/rdcn_cli" suite "$build/resume_smoke.json" \
      --threads 1 --journal "$build/resume_smoke.journal" \
      >/dev/null 2>&1 || kill_status=$?
  if [ "$kill_status" -ne 137 ]; then
    echo "check.sh: crash injection did not SIGKILL the suite (exit $kill_status)" >&2
    exit 1
  fi
  grep -q '"rdcn_suite_journal":1' "$build/resume_smoke.journal"
  "$build/rdcn_cli" suite --resume "$build/resume_smoke.journal" \
      > "$build/resume_merged.out" 2>/dev/null
  cmp <(strip_wall "$build/resume_ref.out") <(strip_wall "$build/resume_merged.out")
  # Isolate: the failing zipf cells become structured error rows; the
  # healthy uniform rows stay bit-identical to the reference.
  RDCN_SUITE_FAULT="throw@zipf" "$build/rdcn_cli" suite "$build/resume_smoke.json" \
      --threads 1 --isolate > "$build/resume_isolate.out" 2>/dev/null
  test "$(grep -c '"status":"failed"' "$build/resume_isolate.out")" -eq 2
  cmp <(strip_wall "$build/resume_ref.out" | head -n 2) \
      <(strip_wall "$build/resume_isolate.out" | head -n 2)
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
  cmp <(strip_wall "$build/resume_ref.out") <(strip_wall "$build/resume_retry.out")
}

if [ "${1:-}" = "resume" ]; then
  resume_smoke "${2:-$repo/build}"
  echo "check.sh: resume passed"
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

echo "== smoke perf diff =="
# bench_hotpath's quick subset shares row keys with the committed baseline;
# perf_diff must parse, match, and (self-compare) report zero regressions.
"$build/bench/bench_hotpath" --quick --json > "$build/hotpath_current.json"
"$build/perf_diff" "$build/hotpath_current.json" "$build/hotpath_current.json" \
    --threshold 0.01 >/dev/null
# Dev machines vary too much for a local hard gate; CI's perf-smoke job is
# the blocking diff (same baseline, same threshold, no --warn-only).
"$build/perf_diff" "$repo/BENCH_hotpath.json" "$build/hotpath_current.json" \
    --threshold 0.5 --warn-only
# The suite-level baseline: deterministic cost rows, so the match itself
# (keys + total_cost within threshold) must hold even locally.
"$build/bench/bench_suite" > "$build/suite_current.json"
"$build/perf_diff" "$repo/BENCH_suite.json" "$build/suite_current.json" \
    --threshold 0.5 --warn-only
# Per-phase rows (probe-on drains) diff warn-only against their own
# baseline: phase self-times are noisier than end-to-end medians, so they
# report rather than gate -- but the keys must still match, and the --json
# report must come out as strict JSON (perf_diff re-parses before writing).
"$build/bench/bench_hotpath" --quick --phases --json > "$build/hotpath_phases_current.json"
"$build/perf_diff" "$repo/BENCH_hotpath_phases.json" "$build/hotpath_phases_current.json" \
    --threshold 0.5 --warn-only --json "$build/hotpath_phases_diff.json"
test -s "$build/hotpath_phases_diff.json"
# Duplicate (bench, name, params) keys are an emitter bug; perf_diff must
# refuse to match them (negative smoke: exit 2, not silent last-write-wins).
head -n 1 "$build/hotpath_current.json" > "$build/dup_rows.json"
head -n 1 "$build/hotpath_current.json" >> "$build/dup_rows.json"
if "$build/perf_diff" "$build/dup_rows.json" "$build/dup_rows.json" >/dev/null 2>&1; then
  echo "check.sh: perf_diff accepted duplicate row keys" >&2
  exit 1
fi

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

echo "== smoke suites =="
"$build/rdcn_cli" suite "$repo/examples/suites/paper_baseline.json" >/dev/null
"$build/rdcn_cli" suite "$repo/examples/suites/skew_sweep.json" --list >/dev/null
"$build/rdcn_cli" suite "$repo/examples/suites/failure_sweep.json" >/dev/null
if "$build/rdcn_cli" suite "$repo/tests/suites/unknown_key.json" >/dev/null 2>&1; then
  echo "check.sh: bad suite file was not rejected" >&2
  exit 1
fi

echo "== smoke fault tolerance & resume =="
resume_smoke "$build"

echo "check.sh: all stages passed"
