// rdcn_fuzz — differential fuzz driver.
//
// Sweeps seed-derived random scenarios (batch) and stream specs through
// the check/ differential validator: every registered policy runs under
// the per-step invariant audit, batch and streaming modes are compared
// packet for packet, costs are cross-checked against the first-principles
// recomputations, the brute-force optimum, the trivial bound and ALG's
// charging / dual-witness / LP certificates. Any violation is a proven
// bug. On failure the driver shrinks the seed's workload to a minimal
// reproducer (check::minimize_seed) and prints a ready-to-paste gtest
// case for tests/test_check.cpp.
//
//   rdcn_fuzz [--seeds N] [--base S] [--mode batch|stream|both]
//             [--policies a,b,...] [--minimize 0|1] [--verbose]
//             [--inject-transient N]
//
// Failure classification (util/fault.hpp): transient infrastructure
// failures (TransientError / CancelledError) are retried once with the
// same seed before reporting -- a fuzz sweep on a flaky box should not
// burn a whole run on one hiccup -- while deterministic check failures
// (report violations, logic_error, anything else) are never retried:
// retrying a proven bug would just hide it. --inject-transient N makes
// the first N checks throw a TransientError (test hook for the retry
// path; with retry, a clean sweep stays clean).
//
// Exit status: 0 = clean sweep, 1 = violations found, 2 = usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/minimize.hpp"
#include "run/policies.hpp"
#include "util/fault.hpp"

namespace {

using namespace rdcn;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: rdcn_fuzz [--seeds N] [--base S] [--mode batch|stream|both]\n"
               "                 [--policies a,b,...] [--minimize 0|1] [--verbose]\n"
               "                 [--inject-transient N]\n");
  std::exit(2);
}

std::uint64_t parse_count(const std::string& text) {
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') {
    std::fprintf(stderr, "rdcn_fuzz: not a number: '%s'\n", text.c_str());
    usage();
  }
  return value;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    const std::string part = csv.substr(begin, comma - begin);
    if (!part.empty()) parts.push_back(part);
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return parts;
}

struct Totals {
  std::size_t scenarios = 0;
  std::size_t checks = 0;
  std::size_t skipped = 0;
  std::size_t failures = 0;
  std::size_t transient_retries = 0;
  std::size_t index_exact = 0;      ///< ALG replays whose impact index stayed exact
  std::size_t index_fell_back = 0;  ///< ... and those that fell back to the treaps

  void add(const check::DiffReport& report) {
    checks += report.checks;
    skipped += report.skipped.size();
    index_exact += report.index_exact;
    index_fell_back += report.index_fell_back;
  }
};

/// --inject-transient budget: the first N checks throw before running.
std::uint64_t inject_transient = 0;

/// Runs one differential check, retrying a transient infrastructure
/// failure once with the same seed. Deterministic failures -- check
/// violations inside the report, logic_error, any other exception --
/// are never retried; non-transient exceptions propagate and crash the
/// sweep loudly (they are bugs in the harness, not in the policies).
template <typename CheckFn>
check::DiffReport run_check(const char* kind, std::uint64_t seed, Totals& totals,
                            const CheckFn& check) {
  for (int attempt = 1;; ++attempt) {
    try {
      if (inject_transient > 0) {
        --inject_transient;
        throw TransientError("injected transient infrastructure failure");
      }
      return check();
    } catch (...) {
      const std::exception_ptr failure = std::current_exception();
      if (!is_transient_failure(failure) || attempt >= 2) throw;
      const FailureInfo info = describe_failure(failure);
      std::fprintf(stderr,
                   "rdcn_fuzz: transient failure on %s seed %llu (%s: %s); retrying\n",
                   kind, static_cast<unsigned long long>(seed), info.type.c_str(),
                   info.message.c_str());
      ++totals.transient_retries;
    }
  }
}

void report_failure(const char* kind, std::uint64_t seed, const check::DiffReport& report,
                    bool minimize, const check::DiffOptions& options) {
  std::printf("\nFAIL %s seed %llu (%zu violations):\n", kind,
              static_cast<unsigned long long>(seed), report.violations.size());
  for (const std::string& violation : report.violations) {
    std::printf("  * %s\n", violation.c_str());
  }
  if (!minimize) return;
  const check::MinimizedRepro repro =
      std::strcmp(kind, "stream") == 0 ? check::minimize_stream_seed(seed, options)
                                       : check::minimize_batch_seed(seed, options);
  if (!repro.still_failing()) {
    std::printf("  (seed no longer fails under re-derivation; flaky environment?)\n");
    return;
  }
  std::printf("  minimized: %zu -> %zu %s", repro.original_size, repro.size,
              repro.stream ? "measured packets" : "packets");
  if (!repro.failing_neighbors.empty()) {
    std::printf("; failing neighbor seeds:");
    for (const std::uint64_t neighbor : repro.failing_neighbors) {
      std::printf(" %llu", static_cast<unsigned long long>(neighbor));
    }
  }
  std::printf("\n  ready-to-paste regression test (tests/test_check.cpp):\n\n%s\n",
              repro.ctest_case.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 50;
  std::uint64_t base = 1;
  std::string mode = "both";
  bool minimize = true;
  bool verbose = false;
  check::DiffOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--seeds") {
      seeds = parse_count(next());
    } else if (arg == "--base") {
      base = parse_count(next());
    } else if (arg == "--mode") {
      mode = next();
      if (mode != "batch" && mode != "stream" && mode != "both") usage();
    } else if (arg == "--policies") {
      options.policies = split_csv(next());
      for (const std::string& name : options.policies) {
        try {
          (void)named_policy(name);
        } catch (const std::invalid_argument& error) {
          std::fprintf(stderr, "rdcn_fuzz: %s\n", error.what());
          usage();
        }
      }
    } else if (arg == "--minimize") {
      minimize = next() != "0";
    } else if (arg == "--inject-transient") {
      inject_transient = parse_count(next());
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      usage();
    }
  }

  std::printf("rdcn_fuzz: %llu seeds from %llu, mode %s, %zu policies\n",
              static_cast<unsigned long long>(seeds),
              static_cast<unsigned long long>(base), mode.c_str(),
              (options.policies.empty() ? policy_names() : options.policies).size());

  Totals totals;
  for (std::uint64_t seed = base; seed < base + seeds; ++seed) {
    if (mode != "stream") {
      const check::DiffReport report = run_check("batch", seed, totals, [&]() {
        return check::check_scenario_seed(seed, 0, options);
      });
      ++totals.scenarios;
      totals.add(report);
      if (!report.ok()) {
        ++totals.failures;
        report_failure("batch", seed, report, minimize, options);
      } else if (verbose) {
        std::printf("ok batch seed %llu (%zu checks)\n",
                    static_cast<unsigned long long>(seed), report.checks);
      }
    }
    if (mode != "batch") {
      const check::DiffReport report = run_check("stream", seed, totals, [&]() {
        return check::check_stream_seed(seed, 0, true, options);
      });
      ++totals.scenarios;
      totals.add(report);
      if (!report.ok()) {
        ++totals.failures;
        report_failure("stream", seed, report, minimize, options);
      } else if (verbose) {
        std::printf("ok stream seed %llu (%zu checks%s)\n",
                    static_cast<unsigned long long>(seed), report.checks,
                    report.skipped.empty() ? "" : ", spec skipped");
      }
    }
  }

  std::printf(
      "\nrdcn_fuzz: %zu scenarios, %zu cross-checks, %zu spec skips, %zu failures, "
      "%zu transient retries; impact index replays: %zu exact, %zu fell back\n",
      totals.scenarios, totals.checks, totals.skipped, totals.failures,
      totals.transient_retries, totals.index_exact, totals.index_fell_back);
  return totals.failures == 0 ? 0 : 1;
}
