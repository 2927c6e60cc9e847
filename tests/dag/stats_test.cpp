#include "mcsim/dag/stats.hpp"

#include <gtest/gtest.h>

#include "tests/common/fixtures.hpp"
#include "mcsim/montage/factory.hpp"

namespace mcsim::dag {
namespace {

TEST(Distribution, TracksMinMaxMeanCount) {
  Distribution d;
  EXPECT_EQ(d.count, 0u);
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
  d.add(10.0);
  d.add(2.0);
  d.add(6.0);
  EXPECT_EQ(d.count, 3u);
  EXPECT_DOUBLE_EQ(d.minimum, 2.0);
  EXPECT_DOUBLE_EQ(d.maximum, 10.0);
  EXPECT_DOUBLE_EQ(d.mean(), 6.0);
  EXPECT_DOUBLE_EQ(d.total, 18.0);
}

TEST(Distribution, NegativeAndSingleValues) {
  Distribution d;
  d.add(-5.0);
  EXPECT_DOUBLE_EQ(d.minimum, -5.0);
  EXPECT_DOUBLE_EQ(d.maximum, -5.0);
  EXPECT_DOUBLE_EQ(d.mean(), -5.0);
}

TEST(Stats, Figure3Profile) {
  const auto fig = test::makeFigure3Workflow();
  const WorkflowStats stats = computeStats(fig.wf);
  ASSERT_EQ(stats.byType.size(), 4u);  // stage0..stage3
  EXPECT_EQ(stats.byType.at("stage1").runtimeSeconds.count, 2u);
  EXPECT_EQ(stats.byType.at("stage2").runtimeSeconds.count, 3u);
  EXPECT_DOUBLE_EQ(stats.byType.at("stage2").runtimeSeconds.total, 30.0);
  // Every task of every stage emits one 1 MB file.
  EXPECT_DOUBLE_EQ(stats.byType.at("stage0").outputBytes.mean(), 1e6);

  ASSERT_EQ(stats.byLevel.size(), 4u);
  EXPECT_EQ(stats.byLevel.at(3).tasks, 3u);
  EXPECT_DOUBLE_EQ(stats.byLevel.at(3).bytesProduced.mb(), 3.0);
  EXPECT_DOUBLE_EQ(stats.byLevel.at(1).runtimeSeconds, 10.0);

  EXPECT_EQ(stats.fileSizes.count, 8u);
  EXPECT_DOUBLE_EQ(stats.fileSizes.mean(), 1e6);
}

TEST(Stats, MontageRoutineBreakdown) {
  const auto wf = montage::buildMontageWorkflow(1.0);
  const WorkflowStats stats = computeStats(wf);
  EXPECT_EQ(stats.byType.size(), 9u);
  EXPECT_EQ(stats.byType.at("mProject").runtimeSeconds.count, 45u);
  EXPECT_EQ(stats.byType.at("mDiffFit").runtimeSeconds.count, 107u);
  // mProject dominates total CPU time.
  for (const auto& [name, type] : stats.byType) {
    if (name == "mProject") continue;
    EXPECT_GT(stats.byType.at("mProject").runtimeSeconds.total,
              type.runtimeSeconds.total)
        << name;
  }
  // Level totals reassemble the whole workflow.
  double runtime = 0.0;
  std::size_t tasks = 0;
  for (const auto& [level, stats2] : stats.byLevel) {
    runtime += stats2.runtimeSeconds;
    tasks += stats2.tasks;
  }
  EXPECT_NEAR(runtime, wf.totalRuntimeSeconds(), 1e-6);
  EXPECT_EQ(tasks, wf.taskCount());
}

TEST(Stats, EmptyWorkflow) {
  WorkflowBuilder builder("empty");
  const Workflow wf = builder.build();
  const WorkflowStats stats = computeStats(wf);
  EXPECT_TRUE(stats.byType.empty());
  EXPECT_TRUE(stats.byLevel.empty());
  EXPECT_EQ(stats.fileSizes.count, 0u);
}

}  // namespace
}  // namespace mcsim::dag
