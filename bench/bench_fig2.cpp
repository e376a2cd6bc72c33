// EXP-F2 -- Figure 2 of the paper: realized impacts under the charging
// scheme on inputs Pi (3 packets) and Pi' (Pi + p4), and the stable-
// matching flip on p4's arrival. Paper-expected impacts: Pi -> 1, 2, 5;
// Pi' -> 1, 3, 3, 7.

#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/alg.hpp"
#include "core/charging.hpp"
#include "net/builders.hpp"

int main() {
  using namespace rdcn;
  using namespace rdcn::bench;

  // Both figure inputs run through one scenario: repetition seed 1 is Pi,
  // seed 2 is Pi' (the same instance family, one packet apart).
  ScenarioSpec spec;
  spec.name = "figure2";
  spec.make_instance = [](std::uint64_t seed) {
    return seed == 1 ? figure2_instance_pi() : figure2_instance_pi_prime();
  };
  spec.base_seed = 1;
  spec.repetitions = 2;
  ScenarioRunner runner(spec);

  struct Case {
    const char* name;
    std::uint64_t seed;
    std::vector<double> expected;
    std::vector<const char*> expected_label;
  };
  Case cases[] = {
      {"Pi", 1, {1, 2, 5}, {"w1 = 1", "w2 = 2", "w2 + w3 = 5"}},
      {"Pi'", 2, {1, 3, 3, 7}, {"w1 = 1", "w1 + w2 = 3", "w3 = 3", "w3 + w4 = 7"}},
  };

  BenchReport report("fig2");
  bool ok = true;
  for (Case& c : cases) {
    const Instance instance = runner.instance(c.seed);
    const RunResult run = runner.run_once(alg_policy(), instance);
    const ChargingAudit audit = audit_charging(instance, run);
    report.add("alg", run.total_cost, 0.0).param("input", c.name);

    Table table({"packet", "path", "weight", "measured impact", "paper expects", "match"});
    const char* paths[] = {"s1->d1", "s1->d2", "s2->d2", "s2->d3"};
    for (std::size_t i = 0; i < instance.num_packets(); ++i) {
      const bool row_ok = std::abs(audit.charge[i] - c.expected[i]) < 1e-9;
      ok = ok && row_ok;
      table.add_row({"p" + std::to_string(i + 1), paths[i],
                     Table::fmt(instance.packets()[i].weight, 0),
                     Table::fmt(audit.charge[i], 0), c.expected_label[i],
                     row_ok ? "yes" : "NO"});
    }
    table.print(std::string("Figure 2, input ") + c.name);
  }

  // The matching flip: p2 blocked on Pi (step 2), transmitted first on Pi'.
  const RunResult pi = runner.run_once(alg_policy(), 1);
  const RunResult pi_prime = runner.run_once(alg_policy(), 2);
  Table flip({"input", "step-1 matching", "paper expects"});
  auto step1 = [](const RunResult& run, std::size_t packets) {
    std::string result;
    for (std::size_t i = 0; i < packets; ++i) {
      if (!run.outcomes[i].chunk_transmit_steps.empty() &&
          run.outcomes[i].chunk_transmit_steps[0] == 1) {
        result += (result.empty() ? "p" : ", p") + std::to_string(i + 1);
      }
    }
    return result;
  };
  flip.add_row({"Pi", step1(pi, 3), "p1, p3"});
  flip.add_row({"Pi'", step1(pi_prime, 4), "p2, p4"});
  flip.print("stable matching before/after p4 arrives");

  ok = ok && step1(pi, 3) == "p1, p3" && step1(pi_prime, 4) == "p2, p4";
  std::printf("\nEXP-F2 %s\n", ok ? "REPRODUCED" : "MISMATCH");
  report.print();
  return ok ? 0 : 1;
}
