#include "mcsim/obs/sink.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mcsim::obs {
namespace {

Event taskReady(double t, std::uint32_t id) { return Event{t, TaskReady{id}}; }

/// Records the kinds it receives; accepts only the kinds it is given.
class RecordingSink final : public Sink {
 public:
  explicit RecordingSink(std::vector<EventKind> wanted = {})
      : wanted_(std::move(wanted)) {}

  void onEvent(const Event& event) override { seen.push_back(kind(event)); }
  bool accepts(EventKind k) const override {
    if (wanted_.empty()) return true;
    for (EventKind w : wanted_)
      if (w == k) return true;
    return false;
  }

  std::vector<EventKind> seen;

 private:
  std::vector<EventKind> wanted_;
};

TEST(Event, KindTracksPayloadAlternative) {
  EXPECT_EQ(kind(Event{0.0, SimEventScheduled{1, 2.0}}),
            EventKind::SimEventScheduled);
  EXPECT_EQ(kind(taskReady(0.0, 3)), EventKind::TaskReady);
  EXPECT_EQ(kind(Event{0.0, LogEmitted{1, "x"}}), EventKind::LogEmitted);
}

TEST(Event, NamesAreStableSnakeCase) {
  EXPECT_STREQ(eventName(EventKind::SimEventScheduled), "sim_event_scheduled");
  EXPECT_STREQ(eventName(EventKind::TransferFinished), "transfer_finished");
  EXPECT_STREQ(eventName(EventKind::BillingLineItem), "billing_line_item");
  EXPECT_STREQ(eventName(EventKind::LogEmitted), "log");
}

TEST(Event, ResourceNames) {
  EXPECT_STREQ(resourceName(Resource::Cpu), "cpu");
  EXPECT_STREQ(resourceName(Resource::Storage), "storage");
  EXPECT_STREQ(resourceName(Resource::TransferIn), "transfer_in");
  EXPECT_STREQ(resourceName(Resource::TransferOut), "transfer_out");
}

TEST(NullSink, AcceptsNothing) {
  NullSink sink;
  EXPECT_FALSE(sink.accepts(EventKind::TaskReady));
  EXPECT_FALSE(sink.accepts(EventKind::TransferProgress));
  sink.onEvent(taskReady(0.0, 1));  // still safe to call
}

TEST(FanOutSink, ForwardsToAcceptingChildrenOnly) {
  RecordingSink wantsTasks({EventKind::TaskReady});
  RecordingSink wantsAll;
  FanOutSink fan({&wantsTasks, &wantsAll});

  fan.onEvent(taskReady(0.0, 1));
  fan.onEvent(Event{0.0, TransferStarted{1, 10.0, 1}});

  ASSERT_EQ(wantsTasks.seen.size(), 1u);
  EXPECT_EQ(wantsTasks.seen[0], EventKind::TaskReady);
  EXPECT_EQ(wantsAll.seen.size(), 2u);
}

TEST(FanOutSink, AcceptsIsUnionOfChildren) {
  RecordingSink a({EventKind::TaskReady});
  RecordingSink b({EventKind::TransferProgress});
  FanOutSink fan;
  EXPECT_FALSE(fan.accepts(EventKind::TaskReady));  // no children yet
  fan.add(&a);
  fan.add(&b);
  fan.add(nullptr);  // ignored
  EXPECT_EQ(fan.childCount(), 2u);
  EXPECT_TRUE(fan.accepts(EventKind::TaskReady));
  EXPECT_TRUE(fan.accepts(EventKind::TransferProgress));
  EXPECT_FALSE(fan.accepts(EventKind::StorageFilePut));
}

TEST(RingBufferSink, FillsThenOverwritesOldest) {
  RingBufferSink ring(3);
  for (std::uint32_t i = 0; i < 5; ++i) ring.onEvent(taskReady(i, i));

  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.dropped(), 2u);

  const std::vector<Event> events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Oldest first: events 2, 3, 4 survive.
  EXPECT_EQ(std::get<TaskReady>(events[0].payload).task, 2u);
  EXPECT_EQ(std::get<TaskReady>(events[1].payload).task, 3u);
  EXPECT_EQ(std::get<TaskReady>(events[2].payload).task, 4u);
}

TEST(RingBufferSink, CountOfFiltersByPayloadType) {
  RingBufferSink ring(10);
  ring.onEvent(taskReady(0.0, 1));
  ring.onEvent(Event{1.0, TaskFinished{1, 5.0}});
  ring.onEvent(taskReady(2.0, 2));
  EXPECT_EQ(ring.countOf<TaskReady>(), 2u);
  EXPECT_EQ(ring.countOf<TaskFinished>(), 1u);
  EXPECT_EQ(ring.countOf<TransferStarted>(), 0u);
}

TEST(CollectingSink, BuffersEverythingInArrivalOrder) {
  CollectingSink sink;
  EXPECT_TRUE(sink.accepts(EventKind::TaskReady));
  for (std::uint32_t i = 0; i < 4; ++i) sink.onEvent(taskReady(i, i));
  ASSERT_EQ(sink.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i)
    EXPECT_EQ(std::get<TaskReady>(sink.events()[i].payload).task, i);
}

TEST(CollectingSink, TakeDrainsTheBuffer) {
  CollectingSink sink;
  sink.onEvent(taskReady(0.0, 7));
  const std::vector<Event> taken = sink.take();
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(std::get<TaskReady>(taken[0].payload).task, 7u);
  EXPECT_EQ(sink.size(), 0u);
}

TEST(EventStream, ChunksKeepArrivalOrderAcrossBoundaries) {
  StreamSink sink;
  const std::uint32_t n = 2 * EventStream::kChunkEvents + 3;
  for (std::uint32_t i = 0; i < n; ++i) sink.onEvent(taskReady(i, i));
  const EventStream stream = sink.take();
  EXPECT_EQ(sink.take().size(), 0u);  // take() drained the sink

  ASSERT_EQ(stream.size(), n);
  // Three chunks of 1,024 events, 64 KiB each, counted at full capacity.
  EXPECT_EQ(stream.capacityBytes(), 3 * 64 * 1024u);
  std::uint32_t next = 0;
  stream.forEach([&](const Event& e) {
    EXPECT_EQ(std::get<TaskReady>(e.payload).task, next++);
  });
  EXPECT_EQ(next, n);
  const std::vector<Event> copy = stream.toVector();
  ASSERT_EQ(copy.size(), n);
  EXPECT_EQ(std::get<TaskReady>(copy.back().payload).task, n - 1);
}

TEST(EventStream, ReusedChunksStartEmpty) {
  // A released stream's chunks go to the shared pool; the next stream draws
  // them and must see only its own events.
  for (std::uint32_t round = 0; round < 3; ++round) {
    StreamSink sink;
    for (std::uint32_t i = 0; i < EventStream::kChunkEvents + 1; ++i)
      sink.onEvent(taskReady(round, round * 10000 + i));
    EventStream stream = sink.take();
    EventStream moved = std::move(stream);
    ASSERT_EQ(moved.size(), EventStream::kChunkEvents + 1);
    EXPECT_EQ(moved.capacityBytes(), 2 * 64 * 1024u);
    std::uint32_t next = round * 10000;
    moved.forEach([&](const Event& e) {
      EXPECT_EQ(std::get<TaskReady>(e.payload).task, next++);
    });
  }
}

TEST(EventStream, OnStreamDeliversAcceptedEventsInOrder) {
  StreamSink capture;
  capture.onEvent(taskReady(0.0, 1));
  capture.onEvent(Event{0.0, TransferStarted{1, 10.0, 1}});
  capture.onEvent(taskReady(1.0, 2));
  const EventStream stream = capture.take();

  // The default batch entry point filters by accepts().
  RecordingSink wantsTasks({EventKind::TaskReady});
  wantsTasks.onStream(stream);
  EXPECT_EQ(wantsTasks.seen,
            (std::vector<EventKind>{EventKind::TaskReady, EventKind::TaskReady}));

  // Fan-out and mutex wrappers forward the whole stream.
  RecordingSink wantsAll;
  RecordingSink behindMutex;
  MutexSink guarded(behindMutex);
  FanOutSink fan({&wantsAll, &guarded});
  fan.onStream(stream);
  const std::vector<EventKind> all = {EventKind::TaskReady,
                                      EventKind::TransferStarted,
                                      EventKind::TaskReady};
  EXPECT_EQ(wantsAll.seen, all);
  EXPECT_EQ(behindMutex.seen, all);
}

}  // namespace
}  // namespace mcsim::obs
