// End-to-end instrumentation: every layer emits the right events, the
// engine's event stream is consistent with its ExecutionResult, and — the
// zero-cost contract — observing a run never changes its outcome.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "tests/common/fixtures.hpp"
#include "mcsim/analysis/explain.hpp"
#include "mcsim/cloud/storage.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/sampler.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/obs/trace.hpp"
#include "mcsim/sim/link.hpp"
#include "mcsim/sim/processor_pool.hpp"
#include "mcsim/sim/simulator.hpp"

namespace mcsim::obs {
namespace {

TEST(SimulatorEvents, ScheduleFireCancel) {
  RingBufferSink ring(64);
  sim::Simulator sim;
  sim.setObserver(&ring);

  sim.schedule(1.0, [] {});
  const sim::EventId doomed = sim.schedule(2.0, [] {});
  EXPECT_TRUE(sim.cancel(doomed));
  EXPECT_FALSE(sim.cancel(doomed));  // second cancel: gone, no event
  sim.run();

  EXPECT_EQ(ring.countOf<SimEventScheduled>(), 2u);
  EXPECT_EQ(ring.countOf<SimEventCancelled>(), 1u);
  EXPECT_EQ(ring.countOf<SimEventFired>(), 1u);
}

TEST(LinkEvents, TransfersCarryDurationAndShare) {
  RingBufferSink ring(128);
  sim::Simulator sim;
  sim::Link link(sim,
                 sim::LinkConfig{.bandwidthBytesPerSec = 1000.0,
                                 .sharing = sim::LinkSharing::FairShare});
  link.setObserver(&ring);

  link.startTransfer(Bytes(1000.0), [] {});
  link.startTransfer(Bytes(1000.0), [] {});
  sim.run();

  EXPECT_EQ(ring.countOf<TransferStarted>(), 2u);
  EXPECT_EQ(ring.countOf<TransferFinished>(), 2u);
  // Two concurrent 1000-byte transfers over a fair-shared 1000 B/s link:
  // both finish at t=2.
  for (const Event& e : ring.snapshot()) {
    if (const auto* fin = std::get_if<TransferFinished>(&e.payload)) {
      EXPECT_DOUBLE_EQ(e.time, 2.0);
      EXPECT_DOUBLE_EQ(fin->seconds, 2.0);
      EXPECT_DOUBLE_EQ(fin->bytes, 1000.0);
    }
  }
  // Share changes: 1 active (1000 each) -> 2 active (500 each) -> done.
  EXPECT_GE(ring.countOf<LinkShareChanged>(), 2u);
}

TEST(LinkEvents, ProgressOnlyWhenAccepted) {
  // A ring buffer accepts everything, so progress events flow; engine sinks
  // that decline them are exercised via the accepts() gate in Link itself.
  RingBufferSink ring(256);
  sim::Simulator sim;
  sim::Link link(sim,
                 sim::LinkConfig{.bandwidthBytesPerSec = 1000.0,
                                 .sharing = sim::LinkSharing::FairShare});
  link.setObserver(&ring);

  link.startTransfer(Bytes(500.0), [] {});
  link.startTransfer(Bytes(1500.0), [] {});  // outlives the first
  sim.run();
  EXPECT_GE(ring.countOf<TransferProgress>(), 1u);

  NullSink null;
  sim::Simulator sim2;
  sim::Link link2(sim2,
                  sim::LinkConfig{.bandwidthBytesPerSec = 1000.0,
                                  .sharing = sim::LinkSharing::FairShare});
  link2.setObserver(&null);
  link2.startTransfer(Bytes(500.0), [] {});
  sim2.run();  // must not crash; NullSink declines everything
  EXPECT_EQ(link2.completedTransfers(), 1u);
}

TEST(ProcessorPoolEvents, ClaimQueueRelease) {
  RingBufferSink ring(64);
  sim::Simulator sim;
  sim::ProcessorPool pool(sim, 1);
  pool.setObserver(&ring);

  pool.acquire([&pool] { pool.release(); });
  pool.acquire([&pool] { pool.release(); });  // must queue behind the first
  sim.run();

  EXPECT_EQ(ring.countOf<ProcessorClaimed>(), 2u);
  EXPECT_EQ(ring.countOf<ProcessorReleased>(), 2u);
  EXPECT_EQ(ring.countOf<ProcessorQueued>(), 1u);
}

TEST(StorageEvents, PutAndEraseTrackResidency) {
  RingBufferSink ring(64);
  sim::Simulator sim;
  cloud::StorageService storage(sim);
  storage.setObserver(&ring);

  storage.put(1, Bytes(100.0));
  storage.put(2, Bytes(50.0));
  storage.erase(1);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(std::get<StorageFilePut>(events[1].payload).residentBytes,
                   150.0);
  const auto& erased = std::get<StorageFileErased>(events[2].payload);
  EXPECT_EQ(erased.key, 1u);
  EXPECT_DOUBLE_EQ(erased.bytes, 100.0);
  EXPECT_DOUBLE_EQ(erased.residentBytes, 50.0);
  EXPECT_EQ(erased.objects, 1u);
}

TEST(PeriodicSampler, TicksUntilStopped) {
  sim::Simulator sim;
  int samples = 0;
  PeriodicSampler sampler(sim, 10.0, [&] { ++samples; });
  sampler.start();
  EXPECT_TRUE(sampler.running());
  sim.schedule(35.0, [&] { sampler.stop(); });
  sim.run();  // drains: the sampler no longer reschedules after stop()
  EXPECT_EQ(samples, 3);  // t = 10, 20, 30
  EXPECT_FALSE(sampler.running());
}

TEST(PeriodicSampler, RejectsNonPositivePeriod) {
  sim::Simulator sim;
  EXPECT_THROW(PeriodicSampler(sim, 0.0, [] {}), std::invalid_argument);
}

// -- engine stream ------------------------------------------------------------

engine::ExecutionResult observedRun(const dag::Workflow& wf,
                                    engine::EngineConfig cfg, Sink* sink) {
  cfg.observer = sink;
  return engine::simulateWorkflow(wf, cfg);
}

TEST(EngineEvents, LifecyclePerTaskAndRunMarkers) {
  const auto fig = test::makeFigure3Workflow();
  RingBufferSink ring(4096);
  engine::EngineConfig cfg;
  cfg.processors = 2;
  const auto result = observedRun(fig.wf, cfg, &ring);

  EXPECT_EQ(ring.countOf<RunStarted>(), 1u);
  EXPECT_EQ(ring.countOf<RunFinished>(), 1u);
  EXPECT_EQ(ring.countOf<TaskReady>(), 7u);
  EXPECT_EQ(ring.countOf<TaskStarted>(), 7u);
  EXPECT_EQ(ring.countOf<TaskExecStarted>(), 7u);
  EXPECT_EQ(ring.countOf<TaskFinished>(), 7u);

  // Stage-in of the single external input, stage-out of g and h.
  EXPECT_EQ(ring.countOf<StageInStarted>(), 1u);
  EXPECT_EQ(ring.countOf<StageInFinished>(), 1u);
  EXPECT_EQ(ring.countOf<StageOutStarted>(), 2u);
  EXPECT_EQ(ring.countOf<StageOutFinished>(), 2u);

  // The RunFinished marker carries the pre-teardown end time.
  for (const Event& e : ring.snapshot()) {
    if (const auto* fin = std::get_if<RunFinished>(&e.payload)) {
      EXPECT_DOUBLE_EQ(fin->seconds, result.makespanSeconds);
    }
  }
}

TEST(EngineEvents, PerTaskOrderingIsReadyStartExecFinish) {
  const auto fig = test::makeFigure3Workflow();
  RingBufferSink ring(4096);
  engine::EngineConfig cfg;
  cfg.processors = 1;
  observedRun(fig.wf, cfg, &ring);

  std::map<std::uint32_t, int> stage;  // 0 ready, 1 started, 2 exec, 3 done
  for (const Event& e : ring.snapshot()) {
    switch (kind(e)) {
      case EventKind::TaskReady:
        EXPECT_EQ(stage.count(std::get<TaskReady>(e.payload).task), 0u);
        stage[std::get<TaskReady>(e.payload).task] = 0;
        break;
      case EventKind::TaskStarted:
        EXPECT_EQ(stage.at(std::get<TaskStarted>(e.payload).task), 0);
        stage[std::get<TaskStarted>(e.payload).task] = 1;
        break;
      case EventKind::TaskExecStarted:
        EXPECT_EQ(stage.at(std::get<TaskExecStarted>(e.payload).task), 1);
        stage[std::get<TaskExecStarted>(e.payload).task] = 2;
        break;
      case EventKind::TaskFinished:
        EXPECT_EQ(stage.at(std::get<TaskFinished>(e.payload).task), 2);
        stage[std::get<TaskFinished>(e.payload).task] = 3;
        break;
      default: break;
    }
  }
  EXPECT_EQ(stage.size(), 7u);
  for (const auto& [task, s] : stage) EXPECT_EQ(s, 3) << "task " << task;
}

TEST(EngineEvents, CleanupDecisionsAreReported) {
  const auto fig = test::makeFigure3Workflow();
  RingBufferSink ring(4096);
  engine::EngineConfig cfg;
  cfg.processors = 2;
  cfg.mode = engine::DataMode::DynamicCleanup;
  observedRun(fig.wf, cfg, &ring);

  // a, c, d, e, f are deletable intermediates; b's last consumer is t6.
  EXPECT_EQ(ring.countOf<FileCleanupDeleted>(), 6u);
  bool bFreedByT6 = false;
  for (const Event& e : ring.snapshot())
    if (const auto* del = std::get_if<FileCleanupDeleted>(&e.payload))
      if (del->file == fig.b && del->task == fig.t6) bFreedByT6 = true;
  EXPECT_TRUE(bFreedByT6);
}

TEST(EngineEvents, SamplerEmitsStorageSamples) {
  const auto fig = test::makeFigure3Workflow();
  RingBufferSink ring(4096);
  engine::EngineConfig cfg;
  cfg.processors = 2;
  cfg.samplePeriodSeconds = 5.0;
  const auto result = observedRun(fig.wf, cfg, &ring);
  // The run lasts tens of seconds; samples every 5 s until the end.
  const std::size_t expected =
      static_cast<std::size_t>(result.makespanSeconds / 5.0);
  EXPECT_EQ(ring.countOf<StorageSampled>(), expected);
}

TEST(EngineEvents, ObservationDoesNotPerturbTheRun) {
  // The determinism contract: identical results, bit for bit, with no sink,
  // a NullSink, a full recorder and a span fold — telemetry is read-only.
  // Beside the small fixtures under faults, the 4-degree Montage cleanup run
  // on 8 processors with a fair-share link is the one BM_MontageObserved
  // times.
  struct Case {
    dag::Workflow wf;
    engine::EngineConfig cfg;
  };
  std::vector<Case> cases;
  for (dag::Workflow wf :
       {test::makeForkJoinWorkflow(6), test::makeChainWorkflow(5)}) {
    for (const auto mode :
         {engine::DataMode::Regular, engine::DataMode::DynamicCleanup,
          engine::DataMode::RemoteIO}) {
      engine::EngineConfig cfg;
      cfg.processors = 3;
      cfg.mode = mode;
      cfg.faults.legacy.probability = 0.05;
      cases.push_back({wf, cfg});
    }
  }
  engine::EngineConfig montageCfg;
  montageCfg.processors = 8;
  montageCfg.mode = engine::DataMode::DynamicCleanup;
  montageCfg.linkSharing = sim::LinkSharing::FairShare;
  cases.push_back({montage::buildMontageWorkflow(4.0), montageCfg});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.wf.name() + " " + engine::dataModeName(c.cfg.mode));
    const auto bare = engine::simulateWorkflow(c.wf, c.cfg);

    NullSink null;
    const auto nulled = observedRun(c.wf, c.cfg, &null);

    RingBufferSink ring(1 << 14);
    engine::EngineConfig sampledCfg = c.cfg;
    sampledCfg.samplePeriodSeconds = 7.0;
    const auto recorded = observedRun(c.wf, sampledCfg, &ring);

    TraceStore store;
    SpanSink spans(store, analysis::traceTopology(c.wf));
    const auto folded = observedRun(c.wf, c.cfg, &spans);
    EXPECT_GT(store.spanCount(), c.wf.taskCount());

    for (const auto& r : {nulled, recorded, folded}) {
      EXPECT_EQ(r.tasksExecuted, bare.tasksExecuted);
      EXPECT_EQ(r.makespanSeconds, bare.makespanSeconds);
      EXPECT_EQ(r.cpuBusySeconds, bare.cpuBusySeconds);
      EXPECT_EQ(r.storageByteSeconds, bare.storageByteSeconds);
      EXPECT_EQ(r.bytesIn.value(), bare.bytesIn.value());
      EXPECT_EQ(r.bytesOut.value(), bare.bytesOut.value());
      EXPECT_EQ(r.taskRetries, bare.taskRetries);
    }
  }
}

TEST(EngineEvents, TraceOptionStillWorksAlongsideObserver) {
  // A span trace is one more observer: fanned out next to another sink,
  // both see the whole run.
  const auto fig = test::makeFigure3Workflow();
  RingBufferSink ring(4096);
  TraceStore store;
  SpanSink spans(store);
  FanOutSink fan({&spans, &ring});
  engine::EngineConfig cfg;
  cfg.processors = 2;
  observedRun(fig.wf, cfg, &fan);
  const std::vector<TaskTimes> times = taskTimes(store, 7);
  for (const TaskTimes& t : times) {
    EXPECT_GE(t.start, 0.0);
    EXPECT_GT(t.finish, t.start);
  }
  EXPECT_EQ(ring.countOf<TaskFinished>(), 7u);  // observer still saw the run
}

}  // namespace
}  // namespace mcsim::obs
