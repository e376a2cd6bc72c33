// Self-tests for tools/rdcn_lint (ISSUE 8): every planted fixture under
// tests/lint_fixtures/ must be caught with the exact rule name, the
// sanctioned patterns (presize, allow() escapes) must pass, and -- the
// point of the whole exercise -- a run over the real tree must be clean.
//
// The binary path and source root arrive as compile definitions
// (RDCN_LINT_BIN, RDCN_SOURCE_DIR) from CMake; the tool is exercised the
// way CI and check.sh invoke it, through its real CLI.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/wait.h>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun run_lint(const std::string& args) {
  const std::string cmd =
      std::string(RDCN_LINT_BIN) + " --root " + RDCN_SOURCE_DIR + " " + args + " 2>&1";
  LintRun result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[512];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) result.output += buffer;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string fixture(const std::string& name) {
  return std::string(RDCN_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
}

TEST(RdcnLint, HotAllocCatchesNewInHotRegion) {
  const LintRun run = run_lint(fixture("hot_alloc_new.cpp"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[hot-alloc]"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("hot_alloc_new.cpp:10:"), std::string::npos) << run.output;
  // The identical `new` in the un-annotated function must not be flagged.
  EXPECT_NE(run.output.find("1 violation(s)"), std::string::npos) << run.output;
}

TEST(RdcnLint, HotAllocCatchesUnpresizedPushBack) {
  const LintRun run = run_lint(fixture("hot_alloc_push_back.cpp"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[hot-alloc]"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("grows_unbounded"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("1 violation(s)"), std::string::npos) << run.output;
}

TEST(RdcnLint, HotAllocAcceptsPresizeAndAllowEscape) {
  const LintRun run = run_lint(fixture("hot_alloc_clean.cpp"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("0 violation(s)"), std::string::npos) << run.output;
}

TEST(RdcnLint, JsonConcatCatchesHandRolledFragments) {
  const LintRun run = run_lint(fixture("json_concat.cpp"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[json-concat]"), std::string::npos) << run.output;
  // Every planted line trips: the generic fragment plus both lines of the
  // hand-rolled suite-journal manifest (the shape run/suite.cpp's writer
  // must never regress to). The quoted-word error message is not flagged.
  EXPECT_NE(run.output.find("rdcn_suite_journal"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("3 violation(s)"), std::string::npos) << run.output;
}

TEST(RdcnLint, ProbeRegistryCatchesUnregisteredPhaseKey) {
  const LintRun run = run_lint(fixture("probe_registry.cpp"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[probe-registry]"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("phase_quantum_teleport_ns"), std::string::npos)
      << run.output;
  // phase_inject_ns in the same file is registered and must pass.
  EXPECT_NE(run.output.find("1 violation(s)"), std::string::npos) << run.output;
}

TEST(RdcnLint, IncludeHygieneCatchesBothEscapeForms) {
  const LintRun run = run_lint(fixture("include_hygiene.cpp"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("[include-hygiene]"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("src/sim/probe.hpp"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("../util/json.hpp"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("2 violation(s)"), std::string::npos) << run.output;
}

TEST(RdcnLint, RealTreeIsClean) {
  // The gate itself: src/ tools/ bench/ under the current conventions.
  const LintRun run = run_lint("");
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(RdcnLint, BadFlagIsUsageError) {
  const LintRun run = run_lint("--definitely-not-a-flag");
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

TEST(RdcnLint, MissingPathIsIoError) {
  const LintRun run = run_lint("no/such/dir");
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

}  // namespace
