// Cross-module integration: DAX persistence feeding the engine, the planner
// driving real sweeps, and trace rendering on real runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "mcsim/analysis/economics.hpp"
#include "mcsim/analysis/planner.hpp"
#include "mcsim/dag/dax.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/engine/trace.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/trace.hpp"

namespace mcsim {
namespace {

const cloud::Pricing kAmazon = cloud::Pricing::amazon2008();

TEST(EndToEnd, DaxRoundTripPreservesSimulationResults) {
  const dag::Workflow original = montage::buildMontageWorkflow(1.0);
  const dag::Workflow reloaded = dag::readDax(dag::writeDax(original));

  engine::EngineConfig cfg;
  cfg.processors = 8;
  for (engine::DataMode mode :
       {engine::DataMode::RemoteIO, engine::DataMode::Regular,
        engine::DataMode::DynamicCleanup}) {
    cfg.mode = mode;
    const auto a = engine::simulateWorkflow(original, cfg);
    const auto b = engine::simulateWorkflow(reloaded, cfg);
    EXPECT_NEAR(a.makespanSeconds, b.makespanSeconds, 1e-6)
        << engine::dataModeName(mode);
    EXPECT_NEAR(a.storageByteSeconds, b.storageByteSeconds, 1.0);
    EXPECT_NEAR(a.bytesIn.value(), b.bytesIn.value(), 1.0);
    EXPECT_NEAR(a.bytesOut.value(), b.bytesOut.value(), 1.0);
  }
}

TEST(EndToEnd, DaxFileOnDiskDrivesPlanner) {
  const std::string path = ::testing::TempDir() + "/montage1.dax";
  dag::writeDaxFile(montage::buildMontageWorkflow(1.0), path);
  const dag::Workflow wf = dag::readDaxFile(path);

  analysis::PlannerGoal goal;
  goal.deadlineSeconds = 2.0 * kSecondsPerHour;
  const auto rec =
      analysis::recommendProvisioning(wf, kAmazon, goal,
                                      analysis::ProvisioningSweepConfig{.processorCounts = {1, 4, 16, 64}});
  EXPECT_TRUE(rec.feasible);
  EXPECT_LE(rec.choice.makespanSeconds, goal.deadlineSeconds);
  std::remove(path.c_str());
}

TEST(EndToEnd, TraceRenderingOnRealRun) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  obs::TraceStore store;
  obs::SpanSink spans(store);
  engine::EngineConfig cfg;
  cfg.processors = 16;
  cfg.observer = &spans;
  const auto result = engine::simulateWorkflow(wf, cfg);

  std::ostringstream levels;
  engine::printLevelSummary(levels, wf, store);
  // All nine Montage routines appear in the level summary.
  for (const char* routine :
       {"mProject", "mDiffFit", "mConcatFit", "mBgModel", "mBackground",
        "mImgtbl", "mAdd", "mShrink", "mJPEG"}) {
    EXPECT_NE(levels.str().find(routine), std::string::npos) << routine;
  }

  std::ostringstream gantt;
  engine::printGantt(gantt, wf, store, 20, 60);
  EXPECT_NE(gantt.str().find('#'), std::string::npos);

  const std::string summary = engine::summarize(wf, result);
  EXPECT_NE(summary.find("montage-1deg"), std::string::npos);
  EXPECT_NE(summary.find("16 proc"), std::string::npos);
}

TEST(EndToEnd, TraceHelpersRejectUntracedResults) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  engine::EngineConfig cfg;
  cfg.processors = 4;
  const auto result = engine::simulateWorkflow(wf, cfg);
  const obs::TraceStore untraced;
  std::ostringstream os;
  EXPECT_THROW(engine::printLevelSummary(os, wf, untraced),
               std::invalid_argument);
  EXPECT_THROW(engine::printGantt(os, wf, untraced), std::invalid_argument);
  // summarize works without tracing.
  EXPECT_FALSE(engine::summarize(wf, result).empty());
}

TEST(EndToEnd, FeeStructureFlipsDataModeRanking) {
  // The paper's conjecture (§6 Q2a): "If the storage charges were higher
  // and transfer costs were lower, it is possible that the Remote I/O mode
  // would have resulted in the least total cost of the three."
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  const auto amazonRows = analysis::dataModeComparison(
      wf, kAmazon, analysis::DataModeComparisonConfig{});
  EXPECT_GT(amazonRows[0].dataManagementCost(),
            amazonRows[2].dataManagementCost());  // remote > cleanup

  const auto flippedRows = analysis::dataModeComparison(
      wf, cloud::Pricing::storageHeavyProvider(),
      analysis::DataModeComparisonConfig{});
  EXPECT_LT(flippedRows[0].dataManagementCost(),
            flippedRows[1].dataManagementCost());  // remote < regular
}

TEST(EndToEnd, CustomWorkflowThroughWholeStack) {
  // A user-built (non-Montage) workflow runs through sweep, comparison and
  // economics without any Montage-specific assumptions.
  dag::WorkflowBuilder builder("custom-pipeline");
  const dag::FileId raw = builder.addFile("raw.dat", Bytes::fromGB(1.0));
  const dag::TaskId split = builder.addTask("split", "split", 60.0);
  builder.addInput(split, raw);
  std::vector<dag::FileId> shards;
  for (int i = 0; i < 6; ++i) {
    const dag::FileId s =
        builder.addFile("shard" + std::to_string(i), Bytes::fromMB(150.0));
    builder.addOutput(split, s);
    shards.push_back(s);
  }
  const dag::TaskId merge = builder.addTask("merge", "merge", 120.0);
  for (dag::FileId s : shards) {
    const dag::TaskId t =
        builder.addTask("proc" + std::to_string(s), "proc", 300.0);
    builder.addInput(t, s);
    const dag::FileId o =
        builder.addFile("out" + std::to_string(s), Bytes::fromMB(80.0));
    builder.addOutput(t, o);
    builder.addInput(merge, o);
  }
  const dag::FileId product = builder.addFile("product", Bytes::fromMB(200.0));
  builder.addOutput(merge, product);
  const dag::Workflow wf = builder.build();

  const auto pts = analysis::provisioningSweep(
      wf, kAmazon, {.processorCounts = {1, 2, 6}});
  EXPECT_LT(pts[2].makespanSeconds, pts[0].makespanSeconds);
  const auto rows = analysis::dataModeComparison(
      wf, kAmazon, analysis::DataModeComparisonConfig{});
  EXPECT_EQ(rows.size(), 3u);
  const auto decision = analysis::mosaicArchivalDecision(
      rows[1].cpuCost, Bytes::fromMB(200.0), kAmazon);
  EXPECT_GT(decision.breakEvenMonths, 0.0);
}

}  // namespace
}  // namespace mcsim
