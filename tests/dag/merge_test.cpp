#include "mcsim/dag/merge.hpp"

#include <gtest/gtest.h>

#include "tests/common/fixtures.hpp"
#include "mcsim/dag/algorithms.hpp"
#include "mcsim/engine/engine.hpp"

namespace mcsim::dag {
namespace {

using test::makeChainWorkflow;
using test::makeFigure3Workflow;

TEST(Merge, CountsAreSums) {
  const auto a = makeFigure3Workflow().wf;
  const auto b = makeChainWorkflow(5);
  const Workflow merged = mergeWorkflows({a, b}, "combo");
  EXPECT_EQ(merged.name(), "combo");
  EXPECT_EQ(merged.taskCount(), a.taskCount() + b.taskCount());
  EXPECT_EQ(merged.fileCount(), a.fileCount() + b.fileCount());
  EXPECT_DOUBLE_EQ(merged.totalRuntimeSeconds(),
                   a.totalRuntimeSeconds() + b.totalRuntimeSeconds());
  EXPECT_DOUBLE_EQ(merged.totalFileBytes().value(),
                   a.totalFileBytes().value() + b.totalFileBytes().value());
}

TEST(Merge, PartsStayIndependent) {
  const auto a = makeChainWorkflow(4);
  const auto b = makeChainWorkflow(6);
  const Workflow merged = mergeWorkflows({a, b});
  // Critical path is the longer chain, not the sum: no cross-edges.
  EXPECT_DOUBLE_EQ(criticalPathSeconds(merged), criticalPathSeconds(b));
  // Both chains can run concurrently.
  EXPECT_EQ(maxParallelism(merged), 2u);
}

TEST(Merge, NamesArePrefixed) {
  const auto a = makeChainWorkflow(2);
  const auto b = makeFigure3Workflow().wf;
  const Workflow merged = mergeWorkflows({a, b});
  EXPECT_EQ(merged.task(0).name, "chain-2/t0");
  // Figure3's tasks come after the chain's.
  EXPECT_EQ(merged.task(a.taskCount()).name, "figure3/t0");
}

TEST(Merge, DuplicateNamesGetPositionalPrefixes) {
  const auto a = makeChainWorkflow(3);
  const Workflow merged = mergeWorkflows({a, a});
  EXPECT_EQ(merged.task(0).name, "req0/t0");
  EXPECT_EQ(merged.task(a.taskCount()).name, "req1/t0");
}

TEST(Merge, ExplicitOutputsSurvive) {
  const auto fig = makeFigure3Workflow({'c'});
  const Workflow merged = mergeWorkflows({fig.wf});
  EXPECT_EQ(merged.workflowOutputs().size(), 3u);  // g, h, c
}

TEST(Merge, ControlDependenciesSurvive) {
  WorkflowBuilder builder("ctrl");
  const TaskId t1 = builder.addTask("a", "t", 1.0);
  const TaskId t2 = builder.addTask("b", "t", 1.0);
  builder.addControlDependency(t1, t2);
  const Workflow ctrl = builder.build();
  const Workflow merged = mergeWorkflows({ctrl, ctrl});
  EXPECT_EQ(merged.controlDependencies().size(), 2u);
  EXPECT_EQ(merged.task(1).parents, (std::vector<TaskId>{0}));
  EXPECT_EQ(merged.task(3).parents, (std::vector<TaskId>{2}));
}

TEST(Merge, EmptyInputRejected) {
  EXPECT_THROW(mergeWorkflows({}), std::invalid_argument);
}

TEST(Replicate, MakesIndependentCopies) {
  const auto wf = makeChainWorkflow(3, 10.0);
  const Workflow batch = replicateWorkflow(wf, 4);
  EXPECT_EQ(batch.taskCount(), 12u);
  EXPECT_EQ(maxParallelism(batch), 4u);
  EXPECT_DOUBLE_EQ(criticalPathSeconds(batch), 30.0);
}

TEST(Replicate, InvalidCountRejected) {
  const auto wf = makeChainWorkflow(2);
  EXPECT_THROW(replicateWorkflow(wf, 0), std::invalid_argument);
}

TEST(Replicate, BatchThroughEngineMatchesScaledSingle) {
  // k independent requests on a pool of k processors: batch makespan equals
  // a single request's makespan on one processor (plus shared stage-out
  // concurrency), and all metrics scale linearly.
  const auto wf = makeChainWorkflow(4, 10.0);
  const Workflow batch = replicateWorkflow(wf, 3);
  engine::EngineConfig one;
  one.processors = 1;
  one.linkBandwidthBytesPerSec = 1e6;
  const auto single = engine::simulateWorkflow(wf, one);
  engine::EngineConfig three = one;
  three.processors = 3;
  const auto merged = engine::simulateWorkflow(batch, three);
  EXPECT_NEAR(merged.makespanSeconds, single.makespanSeconds, 1e-9);
  EXPECT_NEAR(merged.cpuBusySeconds, 3.0 * single.cpuBusySeconds, 1e-9);
  EXPECT_NEAR(merged.bytesIn.value(), 3.0 * single.bytesIn.value(), 1e-6);
}

TEST(Replicate, ContentionStretchesMakespan) {
  // 8 requests on 2 processors: roughly 4x a single request's serial time.
  const auto wf = makeChainWorkflow(5, 10.0);
  const Workflow batch = replicateWorkflow(wf, 8);
  engine::EngineConfig cfg;
  cfg.processors = 2;
  cfg.linkBandwidthBytesPerSec = 1e9;  // transfers negligible
  const auto r = engine::simulateWorkflow(batch, cfg);
  EXPECT_NEAR(r.makespanSeconds, 8.0 * 50.0 / 2.0, 1.0);
}

}  // namespace
}  // namespace mcsim::dag
