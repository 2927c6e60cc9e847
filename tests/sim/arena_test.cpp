// Arena-calendar-specific coverage: in-place cancellation, slot reuse,
// FIFO tie-breaking under heavy churn, and equivalence against the oracle's
// ReferenceCalendar (priority_queue + tombstones), which must produce a
// byte-identical event stream for any schedule/cancel workload.
#include "mcsim/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "mcsim/obs/sink.hpp"
#include "mcsim/util/rng.hpp"
#include "tests/support/oracle.hpp"

namespace mcsim::sim {
namespace {

TEST(ArenaCalendar, CancelRemovesInPlace) {
  Simulator simulator;
  std::vector<int> fired;
  simulator.schedule(1.0, [&] { fired.push_back(1); });
  const EventId doomed = simulator.schedule(2.0, [&] { fired.push_back(2); });
  simulator.schedule(3.0, [&] { fired.push_back(3); });

  EXPECT_TRUE(simulator.cancel(doomed));
  EXPECT_FALSE(simulator.cancel(doomed));  // already cancelled
  simulator.run();

  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  // A cancelled event never fires, so it is not counted as processed.
  EXPECT_EQ(simulator.processedEvents(), 2u);
}

TEST(ArenaCalendar, SlotsAreReusedAcrossGenerations) {
  // Pending events never exceed 2, so the arena should stay tiny even
  // though thousands of events pass through; ids keep growing (they are
  // never recycled) while slots are.
  Simulator simulator;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5000) simulator.scheduleAfter(1.0, chain);
  };
  simulator.schedule(0.0, chain);
  simulator.run();
  EXPECT_EQ(fired, 5000);
  EXPECT_EQ(simulator.processedEvents(), 5000u);
  EXPECT_DOUBLE_EQ(simulator.now(), 4999.0);
}

TEST(ArenaCalendar, SameTimeEventsFireInScheduleOrder) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i)
    simulator.schedule(7.5, [&order, i] { order.push_back(i); });
  simulator.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(ArenaCalendar, FifoOrderSurvivesInterleavedCancellation) {
  // Cancel every third same-time event: the survivors must still fire in
  // their original schedule order, even though heap removals move slots.
  Simulator simulator;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 30; ++i)
    ids.push_back(simulator.schedule(1.0, [&order, i] { order.push_back(i); }));
  for (int i = 0; i < 30; i += 3) EXPECT_TRUE(simulator.cancel(ids[i]));
  simulator.run();
  std::vector<int> expected;
  for (int i = 0; i < 30; ++i)
    if (i % 3 != 0) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(ArenaCalendar, CancelRejectsForeignAndFiredIds) {
  Simulator simulator;
  EXPECT_FALSE(simulator.cancel(kInvalidEvent));
  EXPECT_FALSE(simulator.cancel(EventId{999999}));  // never issued
  const EventId id = simulator.schedule(1.0, [] {});
  simulator.run();
  EXPECT_FALSE(simulator.cancel(id));  // already fired
}

/// Deterministic mixed workload: schedules bursts at clustered times,
/// cancels a pseudo-random third of pending events, reschedules from
/// callbacks.  Returns the (time, sequence) trace of fired events.  Runs on
/// sim::Simulator or oracle::ReferenceCalendar.
template <class Calendar>
std::vector<std::pair<double, int>> churn(Calendar& simulator) {
  std::vector<std::pair<double, int>> trace;
  Rng rng(42);
  std::vector<EventId> pending;
  int counter = 0;
  for (int burst = 0; burst < 20; ++burst) {
    const double base = burst * 10.0;
    for (int i = 0; i < 50; ++i) {
      const double t = base + rng.uniformInt(0, 9);
      const int tag = counter++;
      pending.push_back(simulator.schedule(t, [&trace, &simulator, tag] {
        trace.emplace_back(simulator.now(), tag);
      }));
    }
    for (std::size_t k = 0; k < pending.size(); k += 3)
      simulator.cancel(pending[k]);
    simulator.runUntil(base + 5.0);
  }
  simulator.run();
  return trace;
}

TEST(ArenaCalendar, MatchesReferenceCalendarUnderChurn) {
  Simulator arena;
  oracle::ReferenceCalendar reference;
  const auto arenaTrace = churn(arena);
  const auto referenceTrace = churn(reference);
  EXPECT_EQ(arenaTrace, referenceTrace);
  EXPECT_EQ(arena.processedEvents(), reference.processedEvents());
  EXPECT_DOUBLE_EQ(arena.now(), reference.now());
}

TEST(ArenaCalendar, TelemetryStreamMatchesReference) {
  auto record = [](auto& calendar) {
    obs::CollectingSink sink;
    calendar.setObserver(&sink);
    churn(calendar);
    return sink.take();
  };
  Simulator arena;
  oracle::ReferenceCalendar reference;
  const auto arenaEvents = record(arena);
  const auto referenceEvents = record(reference);
  ASSERT_EQ(arenaEvents.size(), referenceEvents.size());
  for (std::size_t i = 0; i < arenaEvents.size(); ++i) {
    EXPECT_EQ(arenaEvents[i].time, referenceEvents[i].time) << i;
    EXPECT_EQ(arenaEvents[i].payload.index(), referenceEvents[i].payload.index())
        << i;
  }
}

TEST(EventFnSbo, LargeCallablesFallBackToHeapCorrectly) {
  // A callable bigger than the inline buffer must still move and fire.
  Simulator simulator;
  struct Big {
    double pad[16];
    std::vector<int>* out;
    void operator()() const { out->push_back(static_cast<int>(pad[0])); }
  };
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    Big big{};
    big.pad[0] = i;
    big.out = &fired;
    simulator.schedule(static_cast<double>(i), big);
  }
  simulator.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace mcsim::sim
