// Scale-tier smoke tests (`ctest -L scale`, Release only): a 10^5-task
// survey campaign must stream-build to its closed-form counts and simulate
// inside a generous wall-clock budget and RSS ceiling, and replicateWorkflow
// must grow linearly in its copy count.  The budgets are an order of
// magnitude above the measured numbers (perf_layers' BM_SurveyTier/100000:
// ~0.2 s build, ~0.1 s sim, ~100 MiB) so the tests catch complexity
// regressions — an accidental O(n^2) pass or a deep-copy cascade — not
// machine noise.
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include <algorithm>
#include <chrono>

#include "mcsim/dag/merge.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/workflows/survey.hpp"

namespace mcsim::workflows {
namespace {

std::size_t peakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

/// The 10^5-task tier: 1-degree tiles, seed 1.
SurveyConfig hundredThousandTaskCampaign() {
  constexpr std::uint64_t kTargetTasks = 100000;
  SurveyConfig cfg;
  cfg.name = "scale-smoke";
  const std::uint64_t tasksPerTile = surveyCounts(cfg).tasksPerTile;
  cfg.tiles = (kTargetTasks + tasksPerTile - 1) / tasksPerTile;
  cfg.seed = 1;
  return cfg;
}

TEST(SurveyScale, HundredThousandTaskCampaignWithinBudgets) {
#ifndef NDEBUG
  GTEST_SKIP() << "scale tier runs on Release builds only (unoptimized "
                  "builds and sanitizers blow the wall-clock budget)";
#endif
  using Clock = std::chrono::steady_clock;
  constexpr double kBuildBudgetSeconds = 20.0;
  constexpr double kSimBudgetSeconds = 20.0;
  constexpr std::size_t kRssCeilingBytes = 2ull << 30;  // 2 GiB

  const SurveyConfig cfg = hundredThousandTaskCampaign();
  const auto t0 = Clock::now();
  const dag::Workflow wf = buildSurveyCampaign(cfg);
  const double buildSeconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  ASSERT_GE(wf.taskCount(), 100000u);
  const SurveyCounts counts = surveyCounts(cfg);
  EXPECT_EQ(wf.taskCount(), counts.tasks);
  EXPECT_EQ(wf.fileCount(), counts.files);
  EXPECT_LT(buildSeconds, kBuildBudgetSeconds)
      << "streaming build of " << wf.taskCount() << " tasks too slow";

  engine::EngineConfig config;
  config.processors = 64;
  const auto t1 = Clock::now();
  const engine::ExecutionResult result = engine::simulateWorkflow(wf, config);
  const double simSeconds =
      std::chrono::duration<double>(Clock::now() - t1).count();
  EXPECT_EQ(result.tasksExecuted, wf.taskCount());
  EXPECT_TRUE(result.completed());
  EXPECT_LT(simSeconds, kSimBudgetSeconds)
      << "simulating " << wf.taskCount() << " tasks too slow";

  const std::size_t rss = peakRssBytes();
  if (rss > 0)
    EXPECT_LT(rss, kRssCeilingBytes)
        << "peak RSS " << (rss >> 20) << " MiB over the scale-tier ceiling";
}

TEST(SurveyScale, ReplicateWorkflowGrowsLinearly) {
#ifndef NDEBUG
  GTEST_SKIP() << "scale tier runs on Release builds only (unoptimized "
                  "builds and sanitizers distort the timing ratio)";
#endif
  // replicateWorkflow appends straight from its one source; doubling the
  // copy count must roughly double the wall time.  A ratio near 4 means a
  // per-copy pass over everything built so far crept back in.
  using Clock = std::chrono::steady_clock;
  constexpr double kMaxDoublingRatio = 3.0;
  const dag::Workflow tile = buildSurveyTile(hundredThousandTaskCampaign(), 0);

  // Untimed warm-up: the first 1024-copy build grows the heap, which would
  // otherwise be charged to whichever size runs first.
  { const dag::Workflow warm = dag::replicateWorkflow(tile, 1024); }
  auto bestSeconds = [&](int copies, std::size_t* tasks) {
    double best = 0.0;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      const dag::Workflow wf = dag::replicateWorkflow(tile, copies);
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      best = r == 0 ? s : std::min(best, s);
      *tasks = wf.taskCount();
    }
    return best;
  };
  std::size_t halfTasks = 0, fullTasks = 0;
  const double half = bestSeconds(512, &halfTasks);
  const double full = bestSeconds(1024, &fullTasks);
  EXPECT_EQ(halfTasks, 512 * tile.taskCount());
  EXPECT_EQ(fullTasks, 1024 * tile.taskCount());
  ASSERT_GT(half, 0.0);
  EXPECT_LE(full / half, kMaxDoublingRatio)
      << "512 copies " << half << " s, 1024 copies " << full << " s";
}

}  // namespace
}  // namespace mcsim::workflows
