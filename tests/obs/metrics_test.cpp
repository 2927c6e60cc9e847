#include "mcsim/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/workflows/gallery.hpp"

namespace mcsim::obs {
namespace {

TEST(Histogram, BucketsValuesByUpperBound) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (bounds are inclusive)
  h.observe(7.0);    // <= 10
  h.observe(1000.0); // +Inf
  ASSERT_EQ(h.bucketCounts().size(), 4u);
  EXPECT_EQ(h.bucketCounts()[0], 2u);
  EXPECT_EQ(h.bucketCounts()[1], 1u);
  EXPECT_EQ(h.bucketCounts()[2], 0u);
  EXPECT_EQ(h.bucketCounts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1008.5);
  EXPECT_DOUBLE_EQ(h.mean(), 1008.5 / 4.0);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({10.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, FindOrCreateReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("mcsim_x_total", "x");
  Counter& b = reg.counter("mcsim_x_total", "x");
  EXPECT_EQ(&a, &b);
  a.increment(2.0);
  EXPECT_DOUBLE_EQ(b.value(), 2.0);
  EXPECT_EQ(reg.instrumentCount(), 1u);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("mcsim_x_total", "x");
  EXPECT_THROW(reg.gauge("mcsim_x_total", "x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("mcsim_x_total", "x", {1.0}),
               std::invalid_argument);
}

TEST(MetricsRegistry, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("mcsim_runs_total", "Completed runs").increment(3.0);
  reg.gauge("mcsim_depth", "Queue depth").set(7.0);
  Histogram& h = reg.histogram("mcsim_wait_seconds", "Wait times", {1.0, 5.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);

  std::ostringstream os;
  reg.writePrometheus(os);
  const std::string out = os.str();

  EXPECT_NE(out.find("# HELP mcsim_runs_total Completed runs\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE mcsim_runs_total counter\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_runs_total 3\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE mcsim_depth gauge\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_depth 7\n"), std::string::npos);
  // Histogram buckets are cumulative and end at +Inf == count.
  EXPECT_NE(out.find("mcsim_wait_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("mcsim_wait_seconds_bucket{le=\"5\"} 2\n"),
            std::string::npos);
  EXPECT_NE(out.find("mcsim_wait_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("mcsim_wait_seconds_sum 103.5\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_wait_seconds_count 3\n"), std::string::npos);
}

TEST(MetricsSink, DerivesInstrumentsFromEvents) {
  MetricsRegistry reg;
  MetricsSink sink(reg);

  sink.onEvent(Event{0.0, SimEventScheduled{1, 5.0}});
  sink.onEvent(Event{0.0, TransferStarted{1, 2048.0, 1}});
  sink.onEvent(Event{2.0, TransferFinished{1, 2048.0, 2.0}});
  sink.onEvent(Event{2.0, TaskReady{7}});
  sink.onEvent(Event{5.0, TaskStarted{7}});   // waited 3 s
  sink.onEvent(Event{5.0, TaskExecStarted{7}});
  sink.onEvent(Event{15.0, TaskFinished{7, 10.0}});
  sink.onEvent(Event{15.0, StorageFilePut{9, 100.0, 100.0, 1}});
  sink.onEvent(Event{-1.0, LogEmitted{2, "hello"}});

  std::ostringstream os;
  reg.writePrometheus(os);
  const std::string out = os.str();

  EXPECT_NE(out.find("mcsim_sim_events_scheduled_total 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("mcsim_transfers_finished_total 1\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_transfer_bytes_total 2048\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_tasks_finished_total 1\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_storage_puts_total 1\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_storage_resident_bytes 100\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_log_messages_total 1\n"), std::string::npos);
  // Task 7 waited 3 s (ready at 2, started at 5) and executed for 10 s.
  EXPECT_NE(out.find("mcsim_task_wait_seconds_sum 3\n"), std::string::npos);
  EXPECT_NE(out.find("mcsim_task_exec_seconds_sum 10\n"), std::string::npos);
}

TEST(MetricsSink, DeclinesTransferProgress) {
  MetricsRegistry reg;
  MetricsSink sink(reg);
  EXPECT_FALSE(sink.accepts(EventKind::TransferProgress));
  EXPECT_TRUE(sink.accepts(EventKind::TransferStarted));
}

/// One scenario's event stream and its fold, recorded in one run.
struct Recorded {
  EventStream stream;
  MetricsDelta delta;
  engine::ExecutionResult result;
};

Recorded record(const dag::Workflow& wf, engine::EngineConfig cfg) {
  StreamSink stream;
  MetricsFold fold;
  FanOutSink fan({&stream, &fold});
  cfg.observer = &fan;
  Recorded r;
  r.result = engine::simulateWorkflow(wf, cfg);
  r.stream = stream.take();
  r.delta = fold.take();
  return r;
}

/// The premise that lets a fold pair task events per scenario: every
/// TaskStarted (TaskFinished) follows a TaskReady (TaskExecStarted) of its
/// own task in the same stream, and no ready or exec time is left open.
struct PairingAudit {
  std::size_t orphans = 0;
  std::size_t open = 0;
};

PairingAudit auditPairing(const EventStream& stream) {
  PairingAudit audit;
  std::unordered_set<std::uint32_t> readySeen, execSeen, openReady, openExec;
  stream.forEach([&](const Event& e) {
    switch (kind(e)) {
      case EventKind::TaskReady: {
        const std::uint32_t t = std::get<TaskReady>(e.payload).task;
        readySeen.insert(t);
        openReady.insert(t);
        break;
      }
      case EventKind::TaskStarted: {
        const std::uint32_t t = std::get<TaskStarted>(e.payload).task;
        if (readySeen.count(t) == 0) ++audit.orphans;
        openReady.erase(t);
        break;
      }
      case EventKind::TaskExecStarted: {
        const std::uint32_t t = std::get<TaskExecStarted>(e.payload).task;
        execSeen.insert(t);
        openExec.insert(t);
        break;
      }
      case EventKind::TaskFinished: {
        const std::uint32_t t = std::get<TaskFinished>(e.payload).task;
        if (execSeen.count(t) == 0) ++audit.orphans;
        openExec.erase(t);
        break;
      }
      default: break;
    }
  });
  audit.open = openReady.size() + openExec.size();
  return audit;
}

std::string exposition(const MetricsRegistry& registry) {
  std::ostringstream os;
  registry.writePrometheus(os);
  return os.str();
}

struct Case {
  std::string name;
  const dag::Workflow* workflow;
  engine::EngineConfig config;
  bool pairsClose = true;  ///< Every ready/exec time is consumed in-stream.
};

TEST(MetricsDelta, ApplyMatchesReplayBitForBit) {
  const dag::Workflow m1 = montage::buildMontageWorkflow(1.0);
  const dag::Workflow m2 = montage::buildMontageWorkflow(2.0);
  const dag::Workflow m4 = montage::buildMontageWorkflow(4.0);
  const std::vector<dag::Workflow> gallery = workflows::buildGallery();
  const dag::Workflow* montage[] = {&m1, &m2, &m4};
  const engine::DataMode modes[] = {engine::DataMode::RemoteIO,
                                    engine::DataMode::Regular,
                                    engine::DataMode::DynamicCleanup};

  std::vector<Case> cases;
  // The serve benchmark's 36 hot keys.
  for (const dag::Workflow* wf : montage)
    for (const engine::DataMode mode : modes)
      for (const int procs : {8, 16, 32, 64}) {
        engine::EngineConfig c;
        c.mode = mode;
        c.processors = procs;
        cases.push_back({wf->name() + "/" + engine::dataModeName(mode) + "/" +
                             std::to_string(procs),
                         wf, c});
      }
  // Spot-style crashes: a 10-hour MTBF over several fault seeds.
  for (const dag::Workflow* wf : montage)
    for (const engine::DataMode mode : modes)
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        engine::EngineConfig c;
        c.mode = mode;
        c.processors = 16;
        c.faults.processor.mtbfSeconds = 10.0 * 3600.0;
        c.faults.seed = seed;
        cases.push_back({wf->name() + "/" + engine::dataModeName(mode) +
                             "/mtbf/seed" + std::to_string(seed),
                         wf, c});
      }
  {
    engine::EngineConfig c;
    c.processors = 8;
    const double makespan = engine::simulateWorkflow(m2, c).makespanSeconds;
    c.faults.deadlineSeconds = makespan / 2.0;
    // The deadline cuts tasks off between their ready and finish events.
    cases.push_back({"deadline", &m2, c, /*pairsClose=*/false});
  }
  {
    // CyberShake on one processor under its 16-processor storage peak,
    // which is the lower one: dispatches block.
    engine::EngineConfig c;
    c.mode = engine::DataMode::DynamicCleanup;
    c.processors = 16;
    c.storageCapacityBytes =
        engine::simulateWorkflow(gallery.front(), c).peakStorageBytes.value();
    c.processors = 1;
    cases.push_back({"storage-capped", &gallery.front(), c});
  }
  for (const dag::Workflow& wf : gallery)
    for (const engine::DataMode mode : modes) {
      engine::EngineConfig c;
      c.mode = mode;
      c.processors = 8;
      cases.push_back({wf.name() + "/" + engine::dataModeName(mode), &wf, c});
    }

  // Both sinks start from one non-zero state whose running sums are not
  // integers: a 4-degree remote-I/O stream replayed into each.
  MetricsRegistry replayed, applied;
  MetricsSink replay(replayed), apply(applied);
  {
    engine::EngineConfig c;
    c.mode = engine::DataMode::RemoteIO;
    c.processors = 8;
    const Recorded base = record(m4, c);
    replay.onStream(base.stream);
    apply.onStream(base.stream);
  }
  ASSERT_EQ(exposition(replayed), exposition(applied));

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Recorded r = record(*c.workflow, c.config);
    if (c.name == "storage-capped") EXPECT_GT(r.result.tasksEverBlocked, 0u);
    if (c.name == "deadline") EXPECT_TRUE(r.result.deadlineExceeded);
    const PairingAudit audit = auditPairing(r.stream);
    EXPECT_EQ(audit.orphans, 0u);
    if (c.pairsClose) EXPECT_EQ(audit.open, 0u);
    replay.onStream(r.stream);
    apply.apply(r.delta);
    ASSERT_EQ(exposition(replayed), exposition(applied));
  }
}

TEST(MetricsDelta, HandFedEventsApplyLikeReplay) {
  // Non-integer addends, a gauge set and then shifted, and a second start
  // that pairs with nothing.
  MetricsRegistry a, b;
  MetricsSink replay(a), apply(b);
  MetricsFold fold;
  const std::vector<Event> events = {
      Event{0.0, TransferStarted{1, 0.1, 1}},
      Event{0.0, TransferStarted{2, 0.2, 2}},
      Event{1.0, TransferFinished{1, 0.1, 1.0}},
      Event{1.0, TransferFinished{2, 0.2, 1.0}},  // gauge: set 2, then -2
      Event{1.0, ProcessorCrashed{3, 0.3}},
      Event{2.0, TaskReady{4}},
      Event{2.5, TaskStarted{4}},
      Event{2.5, TaskStarted{4}},  // a second start pairs with nothing
      Event{3.0, TaskExecStarted{4}},
      Event{4.0, TaskFinished{4, 1.0}},
  };
  for (const Event& e : events) {
    replay.onEvent(e);
    fold.onEvent(e);
  }
  const MetricsDelta delta = fold.take();
  EXPECT_EQ(delta.events, events.size());
  apply.apply(delta);
  EXPECT_EQ(exposition(a), exposition(b));
  EXPECT_NE(exposition(a).find("mcsim_link_active_transfers 0\n"),
            std::string::npos);
  EXPECT_GT(delta.heapBytes(), 0u);
}

TEST(MetricsDelta, PairingDoesNotOutliveItsRun) {
  // A task readied but cut off before it started: its ready time must not
  // pair with a same-id start in the next scenario on a long-lived sink.
  MetricsRegistry a, b;
  MetricsSink replay(a), apply(b);
  MetricsFold fold;
  const std::vector<Event> events = {
      Event{1.0, TaskReady{7}},
      Event{2.0, RunFinished{2.0}},
      Event{5.0, TaskStarted{7}},
      Event{6.0, TaskExecStarted{8}},
      Event{7.0, RunFinished{7.0}},
      Event{9.0, TaskFinished{8, 1.0}},
  };
  for (const Event& e : events) {
    replay.onEvent(e);
    fold.onEvent(e);
  }
  apply.apply(fold.take());
  EXPECT_EQ(exposition(a), exposition(b));
  EXPECT_NE(exposition(a).find("mcsim_task_wait_seconds_count 0\n"),
            std::string::npos);
  EXPECT_NE(exposition(a).find("mcsim_task_exec_seconds_count 0\n"),
            std::string::npos);
}

TEST(MetricsSink, NeedsNoEventsButFanOutAsksItsChildren) {
  MetricsRegistry reg;
  MetricsSink metrics(reg);
  CollectingSink collecting;
  EXPECT_FALSE(metrics.needsEvents());
  MutexSink locked(metrics);
  EXPECT_FALSE(locked.needsEvents());
  FanOutSink fan({&locked});
  EXPECT_FALSE(fan.needsEvents());
  fan.add(&collecting);
  EXPECT_TRUE(fan.needsEvents());
}

}  // namespace
}  // namespace mcsim::obs
