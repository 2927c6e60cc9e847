#include "mcsim/montage/factory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "mcsim/dag/algorithms.hpp"
#include "mcsim/runner/memo.hpp"

namespace mcsim::montage {
namespace {

class MontagePreset
    : public ::testing::TestWithParam<std::tuple<double, int, double, double>> {
};

// (degrees, paper task count, paper CPU hours, paper CCR)
INSTANTIATE_TEST_SUITE_P(
    PaperWorkflows, MontagePreset,
    ::testing::Values(std::make_tuple(1.0, 203, 5.6, 0.053),
                      std::make_tuple(2.0, 731, 20.3, 0.053),
                      std::make_tuple(4.0, 3027, 84.0, 0.045)));

TEST_P(MontagePreset, TaskCountMatchesPaper) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const dag::Workflow wf = buildMontageWorkflow(deg);
  EXPECT_EQ(static_cast<int>(wf.taskCount()), tasks);
}

TEST_P(MontagePreset, CpuHoursCalibrated) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const dag::Workflow wf = buildMontageWorkflow(deg);
  EXPECT_NEAR(wf.totalRuntimeSeconds() / kSecondsPerHour, cpuHours, 1e-9);
}

TEST_P(MontagePreset, CcrCalibrated) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const dag::Workflow wf = buildMontageWorkflow(deg);
  EXPECT_NEAR(wf.ccr(kReferenceBandwidthBytesPerSec), ccr, 1e-9);
}

TEST_P(MontagePreset, NineMontageLevels) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const dag::Workflow wf = buildMontageWorkflow(deg);
  EXPECT_EQ(wf.levelCount(), 9);
  // Level homogeneity (paper §2: "all the tasks at a particular level are
  // invocations of the same routine").
  std::map<int, std::string> routineAtLevel;
  for (const dag::Task& t : wf.tasks()) {
    auto [it, inserted] = routineAtLevel.emplace(t.level, t.type);
    EXPECT_EQ(it->second, t.type)
        << "level " << t.level << " mixes " << it->second << " and " << t.type;
  }
}

TEST_P(MontagePreset, MosaicSizeFixed) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const MontageParams p = paramsForDegrees(deg);
  const dag::Workflow wf = buildMontageWorkflow(p);
  bool found = false;
  for (const dag::File& f : wf.files()) {
    if (f.name == "mosaic.fits") {
      found = true;
      EXPECT_DOUBLE_EQ(f.size.value(), p.mosaicBytes.value());
    }
  }
  EXPECT_TRUE(found);
}

TEST_P(MontagePreset, MosaicIsWorkflowOutput) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const dag::Workflow wf = buildMontageWorkflow(deg);
  bool mosaicOut = false, jpegOut = false;
  for (dag::FileId f : wf.workflowOutputs()) {
    if (wf.file(f).name == "mosaic.fits") mosaicOut = true;
    if (wf.file(f).name == "mosaic.jpg") jpegOut = true;
  }
  EXPECT_TRUE(mosaicOut);  // explicit output despite mShrink consuming it
  EXPECT_TRUE(jpegOut);
}

TEST_P(MontagePreset, ExternalInputsAreArchiveImagesPlusHeader) {
  const auto [deg, tasks, cpuHours, ccr] = GetParam();
  const MontageParams p = paramsForDegrees(deg);
  const dag::Workflow wf = buildMontageWorkflow(p);
  EXPECT_EQ(wf.externalInputs().size(),
            static_cast<std::size_t>(p.imageCount()) + 1);  // + region.hdr
}

TEST(MontageFactory, PresetsHavePaperTaskBreakdown) {
  // 1 degree: 45 mProject + 107 mDiffFit + 45 mBackground + 6 singletons.
  const dag::Workflow wf = buildMontageWorkflow(1.0);
  std::map<std::string, int> byType;
  for (const dag::Task& t : wf.tasks()) byType[t.type]++;
  EXPECT_EQ(byType["mProject"], 45);
  EXPECT_EQ(byType["mDiffFit"], 107);
  EXPECT_EQ(byType["mBackground"], 45);
  EXPECT_EQ(byType["mConcatFit"], 1);
  EXPECT_EQ(byType["mBgModel"], 1);
  EXPECT_EQ(byType["mImgtbl"], 1);
  EXPECT_EQ(byType["mAdd"], 1);
  EXPECT_EQ(byType["mShrink"], 1);
  EXPECT_EQ(byType["mJPEG"], 1);
}

TEST(MontageFactory, Deterministic) {
  const dag::Workflow a = buildMontageWorkflow(2.0);
  const dag::Workflow b = buildMontageWorkflow(2.0);
  ASSERT_EQ(a.taskCount(), b.taskCount());
  EXPECT_DOUBLE_EQ(a.totalFileBytes().value(), b.totalFileBytes().value());
  for (dag::TaskId t = 0; t < a.taskCount(); ++t)
    EXPECT_EQ(a.task(t).parents, b.task(t).parents);
}

TEST(MontageFactory, GenericDegreesInterpolate) {
  const dag::Workflow wf = buildMontageWorkflow(6.0);
  // ~44 images per square degree -> ~1,575 images, >3,000 tasks.
  EXPECT_GT(wf.taskCount(), 3000u);
  EXPECT_NEAR(wf.ccr(kReferenceBandwidthBytesPerSec), 0.045, 1e-9);
  // Mosaic should scale with area: 36 x 173.46 MB ~ 6.24 GB.
  Bytes mosaic;
  for (const dag::File& f : wf.files())
    if (f.name == "mosaic.fits") mosaic = f.size;
  EXPECT_NEAR(mosaic.gb(), 36 * 0.17346, 0.01);
}

TEST(MontageFactory, CriticalPathMuchShorterThanTotal) {
  // The workflow must parallelize well: the paper's 1-degree run drops from
  // 5.5 h serial to 18 min on 128 processors (~18x).  Require the critical
  // path to allow at least a 10x speedup.
  const dag::Workflow wf = buildMontageWorkflow(1.0);
  EXPECT_LT(dag::criticalPathSeconds(wf), wf.totalRuntimeSeconds() / 10.0);
}

TEST(MontageFactory, MaxParallelismCoversWideLevels) {
  const dag::Workflow wf = buildMontageWorkflow(1.0);
  // The mDiffFit level (107 tasks) is the widest.
  EXPECT_EQ(dag::maxLevelWidth(wf), 107u);
  EXPECT_GE(dag::maxParallelism(wf), 45u);
}

TEST(MontageFactory, InvalidParamsRejected) {
  MontageParams p = montage1DegreeParams();
  p.gridCols = 1;
  EXPECT_THROW(buildMontageWorkflow(p), std::invalid_argument);

  p = montage1DegreeParams();
  p.diffCount = 100000;  // more than the grid's adjacency supply
  EXPECT_THROW(buildMontageWorkflow(p), std::invalid_argument);

  p = montage1DegreeParams();
  p.targetCcr = 1e-9;  // cannot go below the fixed files
  EXPECT_THROW(buildMontageWorkflow(p), std::invalid_argument);

  p = montage1DegreeParams();
  p.targetCpuSeconds = -1.0;
  EXPECT_THROW(buildMontageWorkflow(p), std::invalid_argument);

  EXPECT_THROW(paramsForDegrees(0.0), std::invalid_argument);
  EXPECT_THROW(paramsForDegrees(-2.0), std::invalid_argument);
  // Degrees whose image grid the workflow's int counts cannot represent.
  EXPECT_THROW(paramsForDegrees(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(paramsForDegrees(20000.0), std::invalid_argument);
  EXPECT_THROW(paramsForDegrees(1e300), std::invalid_argument);
  try {
    paramsForDegrees(20000.0);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("20000"), std::string::npos)
        << e.what();
  }
}

TEST(MontageFactory, FingerprintsPinnedAtEveryBuiltDegree) {
  // fingerprintWorkflow hashes every name, edge, runtime and file size to
  // the bit, so these pins catch any change to what the factory emits at
  // the degrees the CLI, benches, examples and serve daemon build.
  const std::pair<double, std::uint64_t> pins[] = {
      {0.2, 0xbfd2608ab41ff962ull}, {0.4, 0x60ef9cdbb5e749f1ull},
      {0.5, 0xddf14d68a077b51aull}, {1.0, 0x0345931cf2727368ull},
      {2.0, 0xc820283e806bb5e7ull}, {4.0, 0x7e9cdab6e5ce4e95ull},
      {6.0, 0x19485c006e812fe5ull},
  };
  for (const auto& [degrees, fingerprint] : pins)
    EXPECT_EQ(runner::fingerprintWorkflow(buildMontageWorkflow(degrees)),
              fingerprint)
        << degrees << " degrees";
}

TEST(MontageFactory, ReferenceBandwidthIsTenMegabits) {
  EXPECT_DOUBLE_EQ(kReferenceBandwidthBytesPerSec, 1.25e6);
}

}  // namespace
}  // namespace mcsim::montage
