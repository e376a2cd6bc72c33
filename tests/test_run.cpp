// Tests for the run/ subsystem: the policy registry, ScenarioRunner
// determinism and metric plumbing, the bespoke-instance hook,
// BatchRunner's deterministic fan-out over the thread pool, and the
// thread pool's exception-propagation / shutdown-ordering contract.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "helpers.hpp"
#include "run/batch.hpp"
#include "run/policies.hpp"
#include "run/scenario.hpp"
#include "util/thread_pool.hpp"

namespace rdcn {
namespace {

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.name = "small";
  auto& net = spec.topology.two_tier;
  net.racks = 4;
  net.lasers_per_rack = 2;
  net.photodetectors_per_rack = 2;
  net.density = 0.8;
  net.max_edge_delay = 2;
  spec.workload.num_packets = 30;
  spec.workload.arrival_rate = 3.0;
  spec.workload.weights = WeightDist::UniformInt;
  spec.repetitions = 4;
  return spec;
}

// ------------------------------------------------------ policy registry --

TEST(PolicyRegistry, EveryNameResolvesAndRuns) {
  const ScenarioRunner runner(small_spec());
  for (const std::string& name : policy_names()) {
    const PolicyFactory policy = named_policy(name);
    EXPECT_EQ(policy.name, name);
    ASSERT_TRUE(policy.dispatcher);
    ASSERT_TRUE(policy.scheduler);
    const RunResult run = runner.run_once(policy, 1);
    EXPECT_GT(run.total_cost, 0.0) << name;
  }
}

TEST(PolicyRegistry, UnknownNameThrows) {
  EXPECT_THROW(named_policy("definitely-not-a-policy"), std::invalid_argument);
}

TEST(PolicyRegistry, GridsLeadWithAlg) {
  EXPECT_EQ(scheduler_baselines().front().name, "ALG");
  EXPECT_EQ(dispatcher_ablations().front().name, "Impact (ALG)");
}

// ------------------------------------------------------- ScenarioRunner --

TEST(ScenarioRunner, InstancesAreDeterministicPerSeed) {
  const ScenarioRunner runner(small_spec());
  const Instance a = runner.instance(7);
  const Instance b = runner.instance(7);
  EXPECT_EQ(a.to_string(), b.to_string());
  const Instance c = runner.instance(8);
  EXPECT_NE(a.to_string(), c.to_string());
}

TEST(ScenarioRunner, SeedsEnumerateRepetitions) {
  ScenarioSpec spec = small_spec();
  spec.base_seed = 10;
  spec.repetitions = 3;
  EXPECT_EQ(ScenarioRunner(spec).seeds(),
            (std::vector<std::uint64_t>{10, 11, 12}));
}

TEST(ScenarioRunner, RunAggregatesAllRepetitions) {
  const ScenarioRunner runner(small_spec());
  const ScenarioResult result = runner.run(alg_policy());
  EXPECT_EQ(result.scenario, "small");
  EXPECT_EQ(result.policy, "alg");
  ASSERT_EQ(result.repetitions.size(), 4u);
  double sum = 0.0;
  for (const RepetitionOutcome& rep : result.repetitions) {
    EXPECT_GT(rep.total_cost, 0.0);
    EXPECT_GE(rep.wall_ms, 0.0);
    EXPECT_NEAR(rep.total_cost, rep.reconfig_cost + rep.fixed_cost, 1e-9);
    sum += rep.total_cost;
  }
  EXPECT_NEAR(result.cost.mean(), sum / 4.0, 1e-9);
  // Default metric is total_cost.
  EXPECT_DOUBLE_EQ(result.metric.mean(), result.cost.mean());
}

TEST(ScenarioRunner, RunsAreReproducible) {
  const ScenarioRunner runner(small_spec());
  const ScenarioResult a = runner.run(alg_policy());
  const ScenarioResult b = runner.run(alg_policy());
  for (std::size_t i = 0; i < a.repetitions.size(); ++i) {
    EXPECT_EQ(a.repetitions[i].total_cost, b.repetitions[i].total_cost);
    EXPECT_EQ(a.repetitions[i].makespan, b.repetitions[i].makespan);
  }
}

TEST(ScenarioRunner, CustomMetricSeesInstanceAndRun) {
  const ScenarioRunner runner(small_spec());
  const ScenarioResult result =
      runner.run(alg_policy(), [](const Instance& instance, const RunResult& run) {
        return run.total_cost / instance.ideal_cost();
      });
  for (const RepetitionOutcome& rep : result.repetitions) {
    EXPECT_GE(rep.metric, 1.0 - 1e-9);  // cost >= trivial bound
  }
}

TEST(ScenarioRunner, BespokeInstanceHookBypassesGenerators) {
  ScenarioSpec spec;
  spec.name = "bespoke";
  spec.make_instance = [](std::uint64_t seed) {
    Topology g;
    g.add_sources(1);
    g.add_destinations(1);
    const NodeIndex t = g.add_transmitter(0);
    const NodeIndex r = g.add_receiver(0);
    g.add_edge(t, r, 1);
    Instance instance(std::move(g), {});
    for (std::uint64_t i = 0; i < seed; ++i) instance.add_packet(1, 1.0, 0, 0);
    return instance;
  };
  const ScenarioRunner runner(spec);
  EXPECT_EQ(runner.instance(3).num_packets(), 3u);
  // Serial drain of 3 unit packets: latencies 1 + 2 + 3.
  EXPECT_DOUBLE_EQ(runner.run_once(alg_policy(), 3).total_cost, 6.0);
}

TEST(ScenarioRunner, EngineOptionsReachTheEngine) {
  ScenarioSpec spec = small_spec();
  spec.engine.speedup_rounds = 3;
  const double fast = ScenarioRunner(spec).run(alg_policy()).cost.mean();
  spec.engine.speedup_rounds = 1;
  const double slow = ScenarioRunner(spec).run(alg_policy()).cost.mean();
  EXPECT_LE(fast, slow + 1e-9);
}

TEST(ScenarioRunner, FixedWiringSharesTopologyAcrossSeeds) {
  ScenarioSpec spec = small_spec();
  spec.topology.fixed_wiring = true;
  const ScenarioRunner runner(spec);
  const Topology a = runner.instance(1).topology();
  const Topology b = runner.instance(2).topology();
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeIndex e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).transmitter, b.edge(e).transmitter);
    EXPECT_EQ(a.edge(e).receiver, b.edge(e).receiver);
    EXPECT_EQ(a.edge(e).delay, b.edge(e).delay);
  }
}

TEST(ScenarioRunner, RejectsZeroRepetitions) {
  ScenarioSpec spec = small_spec();
  spec.repetitions = 0;
  EXPECT_THROW(ScenarioRunner{spec}, std::invalid_argument);
}

// ---------------------------------------------------------- BatchRunner --

TEST(BatchRunner, GridResultsMatchSequentialRuns) {
  const auto policies = std::vector<PolicyFactory>{alg_policy(), named_policy("fifo")};
  BatchRunner batch(2);
  batch.add_grid(small_spec(), policies);
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 2u);

  const ScenarioRunner runner(small_spec());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    EXPECT_EQ(results[p].policy, policies[p].name);
    const ScenarioResult sequential = runner.run(policies[p]);
    ASSERT_EQ(results[p].repetitions.size(), sequential.repetitions.size());
    for (std::size_t i = 0; i < sequential.repetitions.size(); ++i) {
      EXPECT_EQ(results[p].repetitions[i].seed, sequential.repetitions[i].seed);
      EXPECT_EQ(results[p].repetitions[i].total_cost, sequential.repetitions[i].total_cost);
    }
  }
}

TEST(BatchRunner, RunClearsTheQueue) {
  BatchRunner batch(1);
  batch.add(small_spec(), alg_policy());
  EXPECT_EQ(batch.cells(), 1u);
  EXPECT_EQ(batch.run().size(), 1u);
  EXPECT_EQ(batch.cells(), 0u);
  EXPECT_TRUE(batch.run().empty());
}

TEST(BatchRunner, MetricsTravelThroughThePool) {
  BatchRunner batch(2);
  batch.add(small_spec(), alg_policy(),
            [](const Instance& instance, const RunResult&) {
              return static_cast<double>(instance.num_packets());
            });
  const auto results = batch.run();
  EXPECT_DOUBLE_EQ(results.at(0).metric.mean(), 30.0);
}

// ------------------------------------------------- BatchRunner failures --

/// A spec whose repetition 2 blows up during instance construction (the
/// bespoke-instance hook runs inside the pool task).
ScenarioSpec failing_spec(const std::string& what) {
  ScenarioSpec spec = small_spec();
  spec.name = "failing";
  spec.repetitions = 3;
  spec.make_instance = [what](std::uint64_t rep_seed) -> Instance {
    if (rep_seed == 2) throw std::runtime_error(what);
    return ScenarioRunner(small_spec()).instance(rep_seed);
  };
  return spec;
}

TEST(BatchRunner, FirstFailureIsRethrownToTheCaller) {
  BatchRunner batch(2);
  batch.add(failing_spec("rep 2 exploded"), alg_policy());
  try {
    batch.run();
    FAIL() << "run() swallowed the task failure";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "rep 2 exploded");
  }
}

TEST(BatchRunner, CellsAreClearedAfterAThrowAndTheRunnerStaysUsable) {
  BatchRunner batch(2);
  batch.add(small_spec(), alg_policy());
  batch.add(failing_spec("boom"), alg_policy());
  EXPECT_EQ(batch.cells(), 2u);
  EXPECT_THROW(batch.run(), std::runtime_error);
  // The failed run consumed its queue; the runner accepts new work and
  // produces correct results afterwards.
  EXPECT_EQ(batch.cells(), 0u);
  EXPECT_TRUE(batch.run().empty());
  batch.add(small_spec(), alg_policy());
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 1u);
  const ScenarioResult expected = ScenarioRunner(small_spec()).run(alg_policy());
  EXPECT_DOUBLE_EQ(results.front().cost.mean(), expected.cost.mean());
}

TEST(BatchRunner, CellsAreClearedWhenTheCompletionCallbackThrows) {
  // SuiteRunner's callback writes the journal, which throws on I/O errors.
  BatchRunner batch(2);
  batch.add(small_spec(), alg_policy());
  EXPECT_THROW(batch.run([](std::size_t, const ScenarioResult&) {
                 throw std::runtime_error("journal write failed");
               }),
               std::runtime_error);
  EXPECT_EQ(batch.cells(), 0u);
  EXPECT_TRUE(batch.run().empty());
}

TEST(BatchRunner, StreamCellsAreClearedWhenTheCompletionCallbackThrows) {
  StreamSpec spec;
  spec.name = "replayed";
  spec.warmup_packets = 0;
  spec.measure_packets = 10;
  spec.make_trace = [](std::uint64_t seed) {
    return ScenarioRunner(small_spec()).instance(seed);
  };
  BatchRunner batch(2);
  batch.add_stream(spec, alg_policy());
  EXPECT_THROW(batch.run_streams([](std::size_t, const StreamResult&) {
                 throw std::runtime_error("journal write failed");
               }),
               std::runtime_error);
  EXPECT_EQ(batch.stream_cells(), 0u);
  EXPECT_TRUE(batch.run_streams().empty());
}

TEST(BatchRunner, FailingCellDoesNotCorruptSiblingOutcomes) {
  // A failing cell aborts the whole run() (all-or-nothing by contract);
  // re-running the surviving cells afterwards must match a fresh
  // sequential baseline exactly -- no state bleeds across the failure.
  const auto policies = std::vector<PolicyFactory>{alg_policy(), named_policy("fifo")};
  BatchRunner batch(2);
  batch.add(small_spec(), policies[0]);
  batch.add(failing_spec("middle cell"), alg_policy());
  batch.add(small_spec(), policies[1]);
  EXPECT_THROW(batch.run(), std::runtime_error);

  batch.add_grid(small_spec(), policies);
  const auto results = batch.run();
  ASSERT_EQ(results.size(), 2u);
  const ScenarioRunner runner(small_spec());
  for (std::size_t p = 0; p < policies.size(); ++p) {
    const ScenarioResult sequential = runner.run(policies[p]);
    ASSERT_EQ(results[p].repetitions.size(), sequential.repetitions.size());
    for (std::size_t i = 0; i < sequential.repetitions.size(); ++i) {
      EXPECT_EQ(results[p].repetitions[i].total_cost,
                sequential.repetitions[i].total_cost)
          << policies[p].name << " rep " << i;
    }
  }
}

TEST(BatchRunner, StreamCellFailureAlsoRethrowsAndClears) {
  StreamSpec spec;
  spec.name = "failing-stream";
  spec.warmup_packets = 0;
  spec.measure_packets = 10;
  spec.make_trace = [](std::uint64_t) -> Instance {
    throw std::runtime_error("trace construction failed");
  };
  BatchRunner batch(2);
  batch.add_stream(spec, alg_policy());
  EXPECT_THROW(batch.run_streams(), std::runtime_error);
  EXPECT_EQ(batch.stream_cells(), 0u);
  EXPECT_TRUE(batch.run_streams().empty());
}

// ----------------------------------------------------------- ThreadPool --
// Regression tests for the ISSUE 8 failure contract: before it, a task
// that threw escaped the worker's thread function (std::terminate), leaked
// in_flight_ (deadlocking wait_idle), and the destructor *ran* still-queued
// tasks during teardown -- on exception paths those closures can reference
// stack frames that are already being unwound.

TEST(ThreadPool, TaskExceptionPropagatesFromWaitIdleAndClears) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  pool.submit([] { throw std::runtime_error("task failed"); });
  for (int i = 0; i < 8; ++i) pool.submit([&completed] { ++completed; });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle swallowed the task failure";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task failed");
  }
  // All-or-nothing observation: the failure surfaces only after every
  // other in-flight task has finished.
  EXPECT_EQ(completed.load(), 8);
  // The failure was handed off exactly once; the pool stays usable.
  pool.submit([&completed] { ++completed; });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(completed.load(), 9);
}

TEST(ThreadPool, ParallelForPropagatesTheFirstBodyException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(pool, 64,
                            [&ran](std::size_t i) {
                              ++ran;
                              if (i == 3) throw std::logic_error("body blew up");
                            }),
               std::logic_error);
  EXPECT_GE(ran.load(), 1);
  // The pool survives; a clean parallel_for afterwards runs every index.
  std::atomic<int> clean{0};
  parallel_for(pool, 32, [&clean](std::size_t) { ++clean; });
  EXPECT_EQ(clean.load(), 32);
}

TEST(ThreadPool, DestructorDiscardsQueuedTasksInsteadOfRunningThem) {
  // One worker, pinned inside a blocking task while more tasks queue up
  // behind it; the destructor must join the worker after its current task
  // and discard the queue. The drain semantics this test outlaws would
  // execute all 9 tasks on every attempt; the discard semantics make
  // executed == 1 overwhelmingly likely per attempt (the destructor only
  // has to set the stop flag within 50ms), so retries de-flake the test
  // without ever accepting a drain.
  std::size_t executed_after_teardown = 0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    std::atomic<std::size_t> executed{0};
    std::atomic<bool> release{false};
    auto pool = std::make_unique<ThreadPool>(1);
    std::atomic<bool> started{false};
    pool->submit([&started, &release, &executed] {
      started = true;
      while (!release.load()) std::this_thread::yield();
      ++executed;
    });
    while (!started.load()) std::this_thread::yield();
    for (int i = 0; i < 8; ++i) {
      pool->submit([&executed] { ++executed; });
    }
    std::thread destroyer([&pool] { pool.reset(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release = true;
    destroyer.join();
    executed_after_teardown = executed.load();
    if (executed_after_teardown == 1) break;
  }
  EXPECT_EQ(executed_after_teardown, 1u);
}

TEST(ThreadPool, UncollectedFailureIsDroppedAtDestruction) {
  // A throwing task whose wait_idle never runs must not terminate or leak
  // the exception into the destructor -- teardown is noexcept.
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("never collected"); });
  // Destructor joins the worker (which has captured the failure) and
  // drops the exception; reaching the end of this scope IS the test.
}

}  // namespace
}  // namespace rdcn
