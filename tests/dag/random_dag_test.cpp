#include "mcsim/dag/random_dag.hpp"

#include <gtest/gtest.h>

#include "mcsim/dag/algorithms.hpp"
#include "mcsim/dag/cleanup.hpp"

namespace mcsim::dag {
namespace {

TEST(RandomDag, Deterministic) {
  const Workflow a = makeRandomWorkflow(1234);
  const Workflow b = makeRandomWorkflow(1234);
  ASSERT_EQ(a.taskCount(), b.taskCount());
  ASSERT_EQ(a.fileCount(), b.fileCount());
  EXPECT_DOUBLE_EQ(a.totalRuntimeSeconds(), b.totalRuntimeSeconds());
  EXPECT_DOUBLE_EQ(a.totalFileBytes().value(), b.totalFileBytes().value());
  for (TaskId t = 0; t < a.taskCount(); ++t)
    EXPECT_EQ(a.task(t).parents, b.task(t).parents);
}

TEST(RandomDag, DifferentSeedsDiffer) {
  const Workflow a = makeRandomWorkflow(1);
  const Workflow b = makeRandomWorkflow(2);
  EXPECT_TRUE(a.taskCount() != b.taskCount() ||
              a.totalRuntimeSeconds() != b.totalRuntimeSeconds());
}

TEST(RandomDag, AlwaysValidDags) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const Workflow wf = makeRandomWorkflow(seed);
    EXPECT_GT(wf.taskCount(), 0u) << "seed " << seed;
    // build() already validated acyclicity; spot-check invariants.
    const auto order = topologicalOrder(wf);
    EXPECT_EQ(order.size(), wf.taskCount()) << "seed " << seed;
    EXPECT_GT(criticalPathSeconds(wf), 0.0) << "seed " << seed;
    EXPECT_FALSE(wf.externalInputs().empty()) << "seed " << seed;
    EXPECT_FALSE(wf.workflowOutputs().empty()) << "seed " << seed;
    // Every task has at least one input and one output by construction.
    for (const Task& t : wf.tasks()) {
      EXPECT_FALSE(t.inputs.empty()) << "seed " << seed;
      EXPECT_FALSE(t.outputs.empty()) << "seed " << seed;
    }
  }
}

TEST(RandomDag, SinkConsumesTerminalLayer) {
  RandomDagOptions opt;
  opt.addSink = true;
  const Workflow wf = makeRandomWorkflow(7, opt);
  // Last task is the sink; it must have the maximum level.
  const Task& sink = wf.task(static_cast<TaskId>(wf.taskCount() - 1));
  EXPECT_EQ(sink.name, "sink");
  EXPECT_EQ(sink.level, wf.levelCount());
}

TEST(RandomDag, NoSinkOptionRespected) {
  RandomDagOptions opt;
  opt.addSink = false;
  const Workflow wf = makeRandomWorkflow(7, opt);
  for (const Task& t : wf.tasks()) EXPECT_NE(t.name, "sink");
}

TEST(RandomDag, FootprintInvariantHoldsAcrossSeeds) {
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const Workflow wf = makeRandomWorkflow(seed);
    const auto est = predictSequentialFootprint(wf, topologicalOrder(wf));
    EXPECT_LE(est.peakCleanup, est.peakRegular) << "seed " << seed;
    EXPECT_GT(est.peakCleanup.value(), 0.0) << "seed " << seed;
  }
}

TEST(RandomDag, RespectsLayerBounds) {
  RandomDagOptions opt;
  opt.minLayers = 3;
  opt.maxLayers = 3;
  opt.minWidth = 2;
  opt.maxWidth = 4;
  opt.addSink = false;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Workflow wf = makeRandomWorkflow(seed, opt);
    EXPECT_GE(wf.taskCount(), 6u);
    EXPECT_LE(wf.taskCount(), 12u);
    EXPECT_LE(wf.levelCount(), 3);
  }
}

}  // namespace
}  // namespace mcsim::dag
