// Million-span stress: SpanSink folding into the SoA TraceStore must stay
// exact (and ASan-clean) at the scale of a survey campaign.  Labeled `perf`.
#include <gtest/gtest.h>

#include "mcsim/obs/trace.hpp"

namespace mcsim::obs {
namespace {

TEST(TracePerf, MillionSpanStoreFolds) {
  constexpr std::uint32_t kTasks = 1'000'000;
  TraceStore store;
  store.reserve(kTasks + 1);

  SpanSink sink(store);
  sink.onEvent({0.0, RunStarted{kTasks, 0, 64}});

  // Synthetic saturated pipeline: waves of 64 concurrent tasks, emitted in
  // time order so every wave occupies all 64 lanes at once.
  constexpr std::uint32_t kLanes = 64;
  constexpr std::uint32_t kWaves = kTasks / kLanes;
  double finish = 0.0;
  for (std::uint32_t w = 0; w < kWaves; ++w) {
    const double start = static_cast<double>(w) * 1.25;
    finish = start + 1.0;
    for (std::uint32_t i = 0; i < kLanes; ++i) {
      const std::uint32_t t = w * kLanes + i;
      sink.onEvent({start, TaskReady{t}});
      sink.onEvent({start, TaskStarted{t}});
      sink.onEvent({start, TaskExecStarted{t}});
    }
    for (std::uint32_t i = 0; i < kLanes; ++i)
      sink.onEvent({finish, TaskFinished{w * kLanes + i, 1.0}});
  }
  sink.onEvent({finish, RunFinished{finish}});

  // Run + per-task (queue wait, task, compute).
  ASSERT_EQ(store.spanCount(), 1u + 3u * kTasks);
  EXPECT_EQ(store.laneCount(), static_cast<int>(kLanes));

  // Per task: queue wait -> task (follows-from) and task -> compute (child);
  // every task after the first wave also waited on its lane's previous
  // occupant (resource).
  EXPECT_EQ(store.edgeCount(), 3u * kTasks - kLanes);
  EXPECT_DOUBLE_EQ(store.maxTime(), finish);
}

}  // namespace
}  // namespace mcsim::obs
