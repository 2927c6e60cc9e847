#include "mcsim/dag/algorithms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "tests/common/fixtures.hpp"

namespace mcsim::dag {
namespace {

using test::makeChainWorkflow;
using test::makeFigure3Workflow;
using test::makeForkJoinWorkflow;

bool isTopological(const Workflow& wf, const std::vector<TaskId>& order) {
  std::unordered_set<TaskId> seen;
  for (TaskId id : order) {
    for (TaskId p : wf.task(id).parents)
      if (!seen.count(p)) return false;
    seen.insert(id);
  }
  return seen.size() == wf.taskCount();
}

TEST(Algorithms, TopologicalOrderOnFigure3) {
  const auto fig = makeFigure3Workflow();
  const auto order = topologicalOrder(fig.wf);
  ASSERT_EQ(order.size(), 7u);
  EXPECT_TRUE(isTopological(fig.wf, order));
  EXPECT_EQ(order.front(), fig.t0);
  EXPECT_EQ(order.back(), fig.t6);
}

TEST(Algorithms, TopologicalOrderDeterministicMinIdFirst) {
  const auto fig = makeFigure3Workflow();
  const auto order = topologicalOrder(fig.wf);
  // With min-id tie-breaking the order is fully determined:
  // t0, then t1 before t2, then t3/t4/t5 in id order, then t6.
  EXPECT_EQ(order, (std::vector<TaskId>{fig.t0, fig.t1, fig.t2, fig.t3,
                                        fig.t4, fig.t5, fig.t6}));
}

TEST(Algorithms, CriticalPathOfChainIsTotal) {
  const auto wf = makeChainWorkflow(8, 5.0);
  EXPECT_DOUBLE_EQ(criticalPathSeconds(wf), 40.0);
  const auto path = criticalPathTasks(wf);
  EXPECT_EQ(path.size(), 8u);
}

TEST(Algorithms, CriticalPathOfForkJoin) {
  const auto wf = makeForkJoinWorkflow(10, 7.0);
  // split + one worker + join.
  EXPECT_DOUBLE_EQ(criticalPathSeconds(wf), 21.0);
}

TEST(Algorithms, CriticalPathOfFigure3) {
  const auto fig = makeFigure3Workflow();
  // Longest chain: t0 -> t1/t2 -> stage2 -> t6 = 4 tasks x 10 s.
  EXPECT_DOUBLE_EQ(criticalPathSeconds(fig.wf), 40.0);
  const auto path = criticalPathTasks(fig.wf);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path.front(), fig.t0);
  EXPECT_EQ(path.back(), fig.t6);
}

TEST(Algorithms, CriticalPathWithUnevenRuntimes) {
  WorkflowBuilder builder("uneven");
  const FileId in = builder.addFile("in", Bytes(1.0));
  const TaskId slow = builder.addTask("slow", "t", 100.0);
  const TaskId fast = builder.addTask("fast", "t", 1.0);
  builder.addInput(slow, in);
  builder.addInput(fast, in);
  const FileId so = builder.addFile("so", Bytes(1.0));
  const FileId fo = builder.addFile("fo", Bytes(1.0));
  builder.addOutput(slow, so);
  builder.addOutput(fast, fo);
  const TaskId sink = builder.addTask("sink", "t", 2.0);
  builder.addInput(sink, so);
  builder.addInput(sink, fo);
  const FileId out = builder.addFile("out", Bytes(1.0));
  builder.addOutput(sink, out);
  const Workflow wf = builder.build();
  EXPECT_DOUBLE_EQ(criticalPathSeconds(wf), 102.0);
  const auto path = criticalPathTasks(wf);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], slow);
  EXPECT_EQ(path[1], sink);
}

TEST(Algorithms, EarliestStartTimes) {
  const auto fig = makeFigure3Workflow();
  const auto est = earliestStartTimes(fig.wf);
  EXPECT_DOUBLE_EQ(est[fig.t0], 0.0);
  EXPECT_DOUBLE_EQ(est[fig.t1], 10.0);
  EXPECT_DOUBLE_EQ(est[fig.t2], 10.0);
  EXPECT_DOUBLE_EQ(est[fig.t3], 20.0);
  EXPECT_DOUBLE_EQ(est[fig.t6], 30.0);
}

TEST(Algorithms, LevelWidthsFigure3) {
  const auto fig = makeFigure3Workflow();
  EXPECT_EQ(levelWidths(fig.wf), (std::vector<std::size_t>{1, 2, 3, 1}));
  EXPECT_EQ(maxLevelWidth(fig.wf), 3u);
}

TEST(Algorithms, MaxParallelismForkJoin) {
  EXPECT_EQ(maxParallelism(makeForkJoinWorkflow(17)), 17u);
}

TEST(Algorithms, MaxParallelismChainIsOne) {
  EXPECT_EQ(maxParallelism(makeChainWorkflow(12)), 1u);
}

TEST(Algorithms, MaxParallelismFigure3) {
  // Equal runtimes: the three stage-2 tasks run concurrently.
  EXPECT_EQ(maxParallelism(makeFigure3Workflow().wf), 3u);
}

TEST(Algorithms, MaxParallelismSeesCrossLevelOverlap) {
  // Two chains of different speeds from independent inputs: a slow task
  // overlaps the other chain's tasks even though levels differ.
  WorkflowBuilder builder("overlap");
  const FileId inA = builder.addFile("inA", Bytes(1.0));
  const FileId inB = builder.addFile("inB", Bytes(1.0));
  const TaskId slow = builder.addTask("slow", "t", 100.0);
  builder.addInput(slow, inA);
  const FileId so = builder.addFile("so", Bytes(1.0));
  builder.addOutput(slow, so);
  const TaskId b1 = builder.addTask("b1", "t", 10.0);
  builder.addInput(b1, inB);
  const FileId b1o = builder.addFile("b1o", Bytes(1.0));
  builder.addOutput(b1, b1o);
  const TaskId b2 = builder.addTask("b2", "t", 10.0);
  builder.addInput(b2, b1o);
  const FileId b2o = builder.addFile("b2o", Bytes(1.0));
  builder.addOutput(b2, b2o);
  const Workflow wf = builder.build();
  EXPECT_EQ(maxParallelism(wf), 2u);  // slow overlaps b1 then b2
  EXPECT_EQ(maxLevelWidth(wf), 2u);
}

TEST(Algorithms, BackToBackTasksNotCountedConcurrent) {
  EXPECT_EQ(maxParallelism(makeChainWorkflow(3)), 1u);
}

TEST(Algorithms, EmptyWorkflow) {
  WorkflowBuilder builder("empty");
  const Workflow wf = builder.build();
  EXPECT_TRUE(topologicalOrder(wf).empty());
  EXPECT_DOUBLE_EQ(criticalPathSeconds(wf), 0.0);
  EXPECT_EQ(maxParallelism(wf), 0u);
}

}  // namespace
}  // namespace mcsim::dag
