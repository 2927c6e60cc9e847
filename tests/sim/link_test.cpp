#include "mcsim/sim/link.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "mcsim/obs/sink.hpp"
#include "tests/support/oracle.hpp"

namespace mcsim::sim {
namespace {

class LinkTest : public ::testing::Test {
 protected:
  Simulator sim;
};

TEST_F(LinkTest, SingleTransferTakesSizeOverBandwidth) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});  // 100 B/s
  double done = -1.0;
  link.startTransfer(Bytes(500.0), [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(link.totalBytesTransferred().value(), 500.0);
  EXPECT_EQ(link.completedTransfers(), 1u);
  EXPECT_EQ(link.activeTransfers(), 0u);
}

TEST_F(LinkTest, FairShareTwoEqualTransfersFinishTogether) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0,
                            .sharing = LinkSharing::FairShare});
  std::vector<double> done;
  link.startTransfer(Bytes(500.0), [&] { done.push_back(sim.now()); });
  link.startTransfer(Bytes(500.0), [&] { done.push_back(sim.now()); });
  sim.run();
  // Each gets 50 B/s: both finish at t=10 (total bytes / full bandwidth).
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 10.0, 1e-9);
  EXPECT_NEAR(done[1], 10.0, 1e-9);
}

TEST_F(LinkTest, FairShareBatchTimeEqualsTotalOverBandwidth) {
  // The stage-in property the engine relies on: N concurrent files take
  // sum(sizes)/B regardless of how sizes are distributed.
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 1000.0});
  double lastDone = 0.0;
  double total = 0.0;
  for (double size : {100.0, 900.0, 2500.0, 1500.0}) {
    total += size;
    link.startTransfer(Bytes(size), [&] { lastDone = sim.now(); });
  }
  sim.run();
  EXPECT_NEAR(lastDone, total / 1000.0, 1e-9);
}

TEST_F(LinkTest, FairShareUnequalSizesAnalytic) {
  // 300 B and 900 B at 100 B/s sharing fairly:
  //   phase 1: both at 50 B/s; small one finishes at t = 300/50 = 6
  //   phase 2: big one has 900-300=600 left at 100 B/s: t = 6 + 6 = 12.
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double small = -1.0, big = -1.0;
  link.startTransfer(Bytes(300.0), [&] { small = sim.now(); });
  link.startTransfer(Bytes(900.0), [&] { big = sim.now(); });
  sim.run();
  EXPECT_NEAR(small, 6.0, 1e-9);
  EXPECT_NEAR(big, 12.0, 1e-9);
}

TEST_F(LinkTest, LateArrivalSharesRemaining) {
  // t=0: A(1000) alone at 100 B/s.  t=5: A has 500 left; B(500) arrives.
  // Both at 50 B/s: A finishes at 5 + 10 = 15, B at 5 + 10 = 15.
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double aDone = -1.0, bDone = -1.0;
  link.startTransfer(Bytes(1000.0), [&] { aDone = sim.now(); });
  sim.schedule(5.0, [&] {
    link.startTransfer(Bytes(500.0), [&] { bDone = sim.now(); });
  });
  sim.run();
  EXPECT_NEAR(aDone, 15.0, 1e-9);
  EXPECT_NEAR(bDone, 15.0, 1e-9);
}

TEST_F(LinkTest, DedicatedTransfersDoNotContend) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0,
                            .sharing = LinkSharing::Dedicated});
  std::vector<double> done;
  link.startTransfer(Bytes(500.0), [&] { done.push_back(sim.now()); });
  link.startTransfer(Bytes(1000.0), [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 5.0, 1e-9);
  EXPECT_NEAR(done[1], 10.0, 1e-9);
}

TEST_F(LinkTest, ZeroByteTransferCompletesImmediately) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double done = -1.0;
  link.startTransfer(Bytes(0.0), [&] { done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST_F(LinkTest, CompletionHandlerMayStartNextTransfer) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double secondDone = -1.0;
  link.startTransfer(Bytes(100.0), [&] {
    link.startTransfer(Bytes(200.0), [&] { secondDone = sim.now(); });
  });
  sim.run();
  EXPECT_NEAR(secondDone, 3.0, 1e-9);
  EXPECT_EQ(link.completedTransfers(), 2u);
}

TEST_F(LinkTest, SuspendStopsProgress) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double done = -1.0;
  link.startTransfer(Bytes(1000.0), [&] { done = sim.now(); });
  // Outage [4, 7): 3 seconds of no progress; completes at 10 + 3 = 13.
  sim.schedule(4.0, [&] { link.suspend(); });
  sim.schedule(7.0, [&] { link.resume(); });
  sim.run();
  EXPECT_NEAR(done, 13.0, 1e-9);
}

TEST_F(LinkTest, SuspendResumeIdempotent) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double done = -1.0;
  link.startTransfer(Bytes(100.0), [&] { done = sim.now(); });
  sim.schedule(0.5, [&] {
    link.suspend();
    link.suspend();  // no-op
    EXPECT_TRUE(link.suspended());
  });
  sim.schedule(1.0, [&] {
    link.resume();
    link.resume();  // no-op
    EXPECT_FALSE(link.suspended());
  });
  sim.run();
  EXPECT_NEAR(done, 1.5, 1e-9);
}

TEST_F(LinkTest, TransferStartedWhileSuspendedWaits) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double done = -1.0;
  link.suspend();
  link.startTransfer(Bytes(100.0), [&] { done = sim.now(); });
  sim.schedule(10.0, [&] { link.resume(); });
  sim.run();
  EXPECT_NEAR(done, 11.0, 1e-9);
}

TEST_F(LinkTest, InvalidArgumentsRejected) {
  EXPECT_THROW(Link(sim, LinkConfig{.bandwidthBytesPerSec = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(Link(sim, LinkConfig{.bandwidthBytesPerSec = -5.0}),
               std::invalid_argument);
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  EXPECT_THROW(link.startTransfer(Bytes(-1.0), [] {}), std::invalid_argument);
  EXPECT_THROW(link.startTransfer(Bytes(1.0), nullptr), std::invalid_argument);
}

TEST_F(LinkTest, ManyConcurrentTransfersConserveBytes) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 1.25e6});
  const int n = 200;
  int completed = 0;
  double totalBytes = 0.0;
  for (int i = 0; i < n; ++i) {
    const double size = 1000.0 * (i + 1);
    totalBytes += size;
    link.startTransfer(Bytes(size), [&] { ++completed; });
  }
  sim.run();
  EXPECT_EQ(completed, n);
  EXPECT_NEAR(link.totalBytesTransferred().value(), totalBytes, 1.0);
  EXPECT_NEAR(sim.now(), totalBytes / 1.25e6, 1e-6);
}

/// Throws once the calendar has fired `budget` events, so a link that
/// reschedules forever at one instant fails its test instead of hanging it.
struct EventBudget final : obs::Sink {
  explicit EventBudget(std::size_t budget) : left(budget) {}
  void onEvent(const obs::Event&) override {
    if (left-- == 0) throw std::runtime_error("event budget exhausted");
  }
  bool accepts(obs::EventKind kind) const override {
    return kind == obs::EventKind::SimEventFired;
  }
  std::size_t left;
};

/// Start a 2e-5 B transfer at `start` on a 1.25 MB/s link over `Calendar`
/// and return when it finished (-1 if never).
template <class Calendar, class LinkT>
double subUlpFinish(double start) {
  Calendar sim;
  EventBudget budget(1000);
  sim.setObserver(&budget);
  LinkT link(sim, LinkConfig{.bandwidthBytesPerSec = 1.25e6});
  double done = -1.0;
  sim.schedule(start, [&] {
    link.startTransfer(Bytes(2e-5), [&] { done = sim.now(); });
  });
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(link.completedTransfers(), 1u);
  return done;
}

TEST(LinkResidue, SubUlpDelayStillCompletes) {
  // At t = 2^18 s one ulp is 2^-34 s (~5.8e-11 s); 2e-5 B at 1.25 MB/s
  // needs 1.6e-11 s, under half of it, so now + delay == now.  The link
  // must fire one ulp later and finish rather than reschedule at `now`;
  // the oracle's rescan link must too.
  const double start = 262144.0;
  const double oneUlpLater =
      std::nextafter(start, std::numeric_limits<double>::infinity());
  EXPECT_EQ((subUlpFinish<Simulator, Link>(start)), oneUlpLater);
  EXPECT_EQ((subUlpFinish<oracle::ReferenceCalendar, oracle::ReferenceLink>(
                start)),
            oneUlpLater);
}

}  // namespace
}  // namespace mcsim::sim
