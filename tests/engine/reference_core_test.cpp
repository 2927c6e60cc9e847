// Differential coverage of EngineConfig::referenceCore: whole-workflow runs
// on the reference core (lazy-deletion priority-queue calendar, O(n)-rescan
// link) must agree with the optimized core (arena heap, virtual-time link)
// — exactly on event counts and orderings, and to tight floating-point
// tolerance on times and billed quantities (the virtual-time scheduler
// accumulates shares in a different order than the per-boundary rescan).
#include "mcsim/engine/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/workflows/gallery.hpp"

namespace mcsim::engine {
namespace {

constexpr double kTol = 1e-6;  // relative

void expectClose(double a, double b, const char* what) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_LE(std::fabs(a - b), kTol * scale) << what << ": " << a << " vs " << b;
}

void expectEquivalent(const dag::Workflow& wf, EngineConfig cfg) {
  cfg.referenceCore = false;
  const ExecutionResult fast = simulateWorkflow(wf, cfg);
  cfg.referenceCore = true;
  const ExecutionResult ref = simulateWorkflow(wf, cfg);

  EXPECT_EQ(fast.completed(), ref.completed());
  expectClose(fast.makespanSeconds, ref.makespanSeconds, "makespan");
  expectClose(fast.cpuBusySeconds, ref.cpuBusySeconds, "cpuBusySeconds");
  expectClose(fast.storageByteSeconds, ref.storageByteSeconds,
              "storageByteSeconds");
  expectClose(fast.bytesIn.value(), ref.bytesIn.value(), "bytesIn");
  expectClose(fast.bytesOut.value(), ref.bytesOut.value(), "bytesOut");
  expectClose(fast.peakStorageBytes.value(), ref.peakStorageBytes.value(),
              "peakStorage");
}

TEST(ReferenceCore, AgreesOnMontageRegular) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  EngineConfig cfg;
  cfg.mode = DataMode::Regular;
  cfg.processors = 8;
  expectEquivalent(wf, cfg);
}

TEST(ReferenceCore, AgreesOnMontageCleanupFairShare) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  EngineConfig cfg;
  cfg.mode = DataMode::DynamicCleanup;
  cfg.processors = 4;
  cfg.linkSharing = sim::LinkSharing::FairShare;
  expectEquivalent(wf, cfg);
}

TEST(ReferenceCore, AgreesOnMontageRemoteIo) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  EngineConfig cfg;
  cfg.mode = DataMode::RemoteIO;
  cfg.processors = 4;
  cfg.linkSharing = sim::LinkSharing::FairShare;
  expectEquivalent(wf, cfg);
}

TEST(ReferenceCore, AgreesOnMontage4DegRemoteIoOneProcessor) {
  // Late in this 89-hour run a small file's residue asks the link for a
  // reschedule delay below half an ulp of the current time; both cores
  // must still finish, and agree.
  const dag::Workflow wf = montage::buildMontageWorkflow(4.0);
  EngineConfig cfg;
  cfg.mode = DataMode::RemoteIO;
  cfg.processors = 1;
  cfg.linkSharing = sim::LinkSharing::Dedicated;
  expectEquivalent(wf, cfg);
  EXPECT_TRUE(simulateWorkflow(wf, cfg).completed());
}

TEST(ReferenceCore, AgreesUnderFaultsAndDeadline) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  EngineConfig cfg;
  cfg.mode = DataMode::Regular;
  cfg.processors = 4;
  cfg.faults.processor.mtbfSeconds = 600.0;
  cfg.faults.retry.maxRetries = 3;
  cfg.faults.seed = 7;
  expectEquivalent(wf, cfg);
}

TEST(ReferenceCore, AgreesAcrossGalleryWorkflows) {
  for (const dag::Workflow& wf : workflows::buildGallery()) {
    EngineConfig cfg;
    cfg.mode = DataMode::Regular;
    cfg.processors = 8;
    expectEquivalent(wf, cfg);
  }
}

TEST(ReferenceCore, EventStreamsMatchKindForKind) {
  // Every telemetry event must appear in the same order with the same kind
  // on both cores; times agree to tolerance.
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  auto record = [&](bool reference) {
    obs::CollectingSink sink;
    EngineConfig cfg;
    cfg.mode = DataMode::DynamicCleanup;
    cfg.processors = 4;
    cfg.linkSharing = sim::LinkSharing::FairShare;
    cfg.referenceCore = reference;
    cfg.observer = &sink;
    simulateWorkflow(wf, cfg);
    return sink.take();
  };
  const auto fast = record(false);
  const auto ref = record(true);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].payload.index(), ref[i].payload.index()) << i;
    expectClose(fast[i].time, ref[i].time, "event time");
  }
}

}  // namespace
}  // namespace mcsim::engine
