#include "mcsim/dag/cleanup.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/common/fixtures.hpp"
#include "mcsim/dag/algorithms.hpp"

namespace mcsim::dag {
namespace {

using test::makeChainWorkflow;
using test::makeFigure3Workflow;

TEST(Cleanup, Figure3ReleaseConditions) {
  const auto fig = makeFigure3Workflow();
  const CleanupPlan plan = analyzeCleanup(fig.wf);
  // "file a would be deleted after task 0 has completed": one use.
  EXPECT_EQ(plan.remainingUses[fig.a], 1u);
  // "file b would be deleted only when task 6 has completed": three
  // consumers (t1, t2, t6) -- the last one to finish is t6.
  EXPECT_EQ(plan.remainingUses[fig.b], 3u);
  EXPECT_EQ(plan.remainingUses[fig.c], 2u);  // t4, t5
  EXPECT_EQ(plan.remainingUses[fig.d], 1u);  // t3
  EXPECT_EQ(plan.remainingUses[fig.e], 1u);
  EXPECT_EQ(plan.remainingUses[fig.f], 1u);
  // g and h are the net outputs: retained for stage-out.
  EXPECT_TRUE(plan.isOutput[fig.g]);
  EXPECT_TRUE(plan.isOutput[fig.h]);
  EXPECT_FALSE(plan.isOutput[fig.a]);
  EXPECT_FALSE(plan.isOutput[fig.b]);
}

TEST(Cleanup, UnconsumedLeafHasProducerUse) {
  const auto fig = makeFigure3Workflow();
  const CleanupPlan plan = analyzeCleanup(fig.wf);
  // h has no consumers; its single "use" is its producer finishing, but as
  // an output it is never deleted mid-run.
  EXPECT_EQ(plan.remainingUses[fig.h], 1u);
}

TEST(Footprint, ChainRegularVsCleanup) {
  // Chain of 4 tasks, 1 MB files: regular keeps all 5 files at the end
  // (peak 5 MB); cleanup holds at most 2 MB (current input + output).
  const auto wf = makeChainWorkflow(4);
  const auto est = predictSequentialFootprint(wf, topologicalOrder(wf));
  EXPECT_DOUBLE_EQ(est.peakRegular.mb(), 5.0);
  EXPECT_DOUBLE_EQ(est.peakCleanup.mb(), 2.0);
}

TEST(Footprint, Figure3CleanupBelowRegular) {
  const auto fig = makeFigure3Workflow();
  const auto est =
      predictSequentialFootprint(fig.wf, topologicalOrder(fig.wf));
  EXPECT_DOUBLE_EQ(est.peakRegular.mb(), 8.0);  // every file ever created
  EXPECT_LT(est.peakCleanup, est.peakRegular);
  // Walk the canonical order by hand: a+b(2) -> +c(3) -> +d(4) -a(3)... the
  // peak is bounded below by the largest live set, >= 4 files here.
  EXPECT_GE(est.peakCleanup.mb(), 4.0);
}

TEST(Footprint, CleanupNeverExceedsRegular) {
  for (int len : {1, 2, 3, 8, 20}) {
    const auto wf = makeChainWorkflow(len);
    const auto est = predictSequentialFootprint(wf, topologicalOrder(wf));
    EXPECT_LE(est.peakCleanup, est.peakRegular) << "chain length " << len;
  }
}

TEST(Footprint, OrderMustCoverAllTasks) {
  const auto fig = makeFigure3Workflow();
  EXPECT_THROW(predictSequentialFootprint(fig.wf, {fig.t0}),
               std::invalid_argument);
}

TEST(Footprint, NonTopologicalOrderDetected) {
  const auto wf = makeChainWorkflow(3);
  // Reverse order consumes files before producing them.
  std::vector<TaskId> order = topologicalOrder(wf);
  std::reverse(order.begin(), order.end());
  EXPECT_THROW(predictSequentialFootprint(wf, order), std::logic_error);
}

TEST(Footprint, ExplicitOutputRetainedInCleanupWalk) {
  // Chain where the middle file is flagged as a user product: the cleanup
  // peak grows because it can't be deleted.
  const auto wf = makeChainWorkflow(4);
  const auto before =
      predictSequentialFootprint(wf, topologicalOrder(wf)).peakCleanup;
  // File ids: in=0, f0=1, f1=2, f2=3, f3=4.
  const auto pinned = makeChainWorkflow(4, 10.0, Bytes::fromMB(1.0), {1});
  const auto after =
      predictSequentialFootprint(pinned, topologicalOrder(pinned)).peakCleanup;
  EXPECT_GE(after, before);
  EXPECT_DOUBLE_EQ(after.mb(), 3.0);  // f0 pinned + live pair
}

}  // namespace
}  // namespace mcsim::dag
