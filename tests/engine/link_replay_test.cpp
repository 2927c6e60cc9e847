// Whole-run differential coverage of the simulation core against the test
// oracle: each case runs the engine once, records the link traffic of that
// run (transfer starts with their sizes, link suspends and resumes, and
// their times), and replays the script through sim::Simulator + sim::Link
// and through oracle::ReferenceCalendar + oracle::ReferenceLink.  The
// production replay must reproduce the run's link events exactly.  The two
// replays must start and finish the same transfers, finish each within
// 1e-6 relative (the virtual-time scheduler accumulates shares in a
// different floating-point order than the per-boundary rescan), and emit
// the link's events kind for kind in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <variant>
#include <vector>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/event.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/sim/link.hpp"
#include "mcsim/sim/simulator.hpp"
#include "mcsim/workflows/gallery.hpp"
#include "tests/support/oracle.hpp"

namespace mcsim::engine {
namespace {

std::size_t countFinished(const std::vector<obs::Event>& events) {
  std::size_t n = 0;
  for (const obs::Event& e : events)
    n += std::holds_alternative<obs::TransferFinished>(e.payload) ? 1 : 0;
  return n;
}

/// Record `wf` under `cfg`, replay the script on both cores, and return it.
oracle::LinkScript expectReplaysAgree(const dag::Workflow& wf,
                                      const EngineConfig& cfg) {
  const oracle::LinkScript script = oracle::recordLinkScript(wf, cfg);
  obs::CollectingSink core, reference;
  oracle::replayLinkScript<sim::Simulator, sim::Link>(script, &core);
  oracle::replayLinkScript<oracle::ReferenceCalendar, oracle::ReferenceLink>(
      script, &reference);

  // The production replay is the recorded run's link, event for event.
  EXPECT_EQ(core.size(), script.recorded.size()) << wf.name();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::min(core.size(), script.recorded.size()); ++i)
    mismatches += core.events()[i].payload.index() !=
                          script.recorded[i].payload.index() ||
                      core.events()[i].time != script.recorded[i].time;
  EXPECT_EQ(mismatches, 0u) << wf.name();

  std::size_t starts = 0;
  for (const oracle::LinkAction& a : script.actions)
    starts += a.kind == oracle::LinkAction::Kind::Start ? 1 : 0;
  EXPECT_GT(starts, 0u) << wf.name();
  EXPECT_EQ(countFinished(core.events()), starts) << wf.name();
  EXPECT_EQ(countFinished(reference.events()), starts) << wf.name();
  EXPECT_EQ(oracle::replayDisagreement(core.events(), reference.events()), "")
      << wf.name();
  return script;
}

TEST(ReferenceCore, AgreesOnMontageRegular) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  EngineConfig cfg;
  cfg.mode = DataMode::Regular;
  cfg.processors = 8;
  expectReplaysAgree(wf, cfg);
}

TEST(ReferenceCore, AgreesOnMontageCleanupFairShare) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  EngineConfig cfg;
  cfg.mode = DataMode::DynamicCleanup;
  cfg.processors = 4;
  cfg.linkSharing = sim::LinkSharing::FairShare;
  expectReplaysAgree(wf, cfg);
}

TEST(ReferenceCore, AgreesOnMontage4DegCleanupEightProcessors) {
  // The run BM_MontageObserved times: its whole link traffic must replay
  // identically on the production and the reference core.
  const dag::Workflow wf = montage::buildMontageWorkflow(4.0);
  EngineConfig cfg;
  cfg.mode = DataMode::DynamicCleanup;
  cfg.processors = 8;
  cfg.linkSharing = sim::LinkSharing::FairShare;
  expectReplaysAgree(wf, cfg);
}

TEST(ReferenceCore, AgreesOnMontageRemoteIo) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  EngineConfig cfg;
  cfg.mode = DataMode::RemoteIO;
  cfg.processors = 4;
  cfg.linkSharing = sim::LinkSharing::FairShare;
  expectReplaysAgree(wf, cfg);
}

TEST(ReferenceCore, AgreesOnMontage4DegRemoteIoOneProcessor) {
  // Late in this 89-hour run a small file's residue asks the link for a
  // reschedule delay below half an ulp of the current time; both links
  // must still finish every transfer, and agree.
  const dag::Workflow wf = montage::buildMontageWorkflow(4.0);
  EngineConfig cfg;
  cfg.mode = DataMode::RemoteIO;
  cfg.processors = 1;
  cfg.linkSharing = sim::LinkSharing::Dedicated;
  expectReplaysAgree(wf, cfg);
}

TEST(ReferenceCore, AgreesUnderFaultsAndDeadline) {
  // Processor crashes reshape the traffic; one link outage makes the script
  // suspend and resume the link mid-run.
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  EngineConfig cfg;
  cfg.mode = DataMode::Regular;
  cfg.processors = 4;
  cfg.faults.processor.mtbfSeconds = 600.0;
  cfg.faults.retry.maxRetries = 3;
  cfg.faults.seed = 7;
  cfg.faults.link.outages = {{.startSeconds = 30.0, .durationSeconds = 120.0}};
  const oracle::LinkScript script = expectReplaysAgree(wf, cfg);
  std::size_t suspends = 0, resumes = 0;
  for (const oracle::LinkAction& a : script.actions) {
    suspends += a.kind == oracle::LinkAction::Kind::Suspend ? 1 : 0;
    resumes += a.kind == oracle::LinkAction::Kind::Resume ? 1 : 0;
  }
  EXPECT_EQ(suspends, 1u);
  EXPECT_EQ(resumes, 1u);
}

TEST(ReferenceCore, AgreesAcrossGalleryWorkflows) {
  for (const dag::Workflow& wf : workflows::buildGallery()) {
    EngineConfig cfg;
    cfg.mode = DataMode::Regular;
    cfg.processors = 8;
    expectReplaysAgree(wf, cfg);
  }
}

TEST(ReferenceCore, EventStreamsMatchKindForKind) {
  // The configuration whole-run event streams were first compared on.
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  EngineConfig cfg;
  cfg.mode = DataMode::DynamicCleanup;
  cfg.processors = 4;
  cfg.linkSharing = sim::LinkSharing::FairShare;
  expectReplaysAgree(wf, cfg);
}

}  // namespace
}  // namespace mcsim::engine
