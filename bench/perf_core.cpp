// perf_core: wall-clock benchmark of the simulation core.
//
// Two comparisons, both before/after on identical workloads:
//
//   1. core replay — the link traffic of one 4-degree Montage run (cleanup
//      mode, fair share, 8 processors) replayed on the production core
//      (arena-heap calendar, virtual-time link) and on the test oracle's
//      reference core (lazy-deletion priority-queue calendar, O(n)-rescan
//      link).  Only the calendar and link layers run — the two layers the
//      oracle differs in — so the engine, processor pool and storage around
//      them are not in the timing.
//   2. sweep — a repeated-point provisioning ladder (the planner's access
//      pattern: the same ladder re-evaluated per goal) with the scenario
//      memo cache off vs. on.
//
// Each comparison checks results point-for-point before timing is trusted;
// wall times are best-of-N.  Writes a BENCH_core.json summary:
//
//   ./bench/perf_core [--degrees 4] [--repeat 3] [--ladder-repeat 8]
//                     [--out BENCH_core.json]
#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/runner/memo.hpp"
#include "mcsim/sim/link.hpp"
#include "mcsim/sim/simulator.hpp"
#include "tests/support/oracle.hpp"

namespace {

using namespace mcsim;
using Clock = std::chrono::steady_clock;

double argNumber(int argc, char** argv, const std::string& flag,
                 double fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (argv[i] == "--" + flag) return std::stod(argv[i + 1]);
  return fallback;
}

std::string argText(int argc, char** argv, const std::string& flag,
                    const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (argv[i] == "--" + flag) return argv[i + 1];
  return fallback;
}

bool samePoints(const std::vector<analysis::ProvisioningPoint>& a,
                const std::vector<analysis::ProvisioningPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].processors != b[i].processors ||
        a[i].makespanSeconds != b[i].makespanSeconds ||
        a[i].cpuCost != b[i].cpuCost ||
        a[i].storageCost != b[i].storageCost ||
        a[i].storageCleanupCost != b[i].storageCleanupCost ||
        a[i].transferCost != b[i].transferCost ||
        a[i].totalCost != b[i].totalCost ||
        a[i].utilization != b[i].utilization)
      return false;
  }
  return true;
}

double bestOf(int repeat, const std::function<void()>& body) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    const auto t0 = Clock::now();
    body();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const double degrees = argNumber(argc, argv, "degrees", 4.0);
  const int repeat =
      std::max(1, static_cast<int>(argNumber(argc, argv, "repeat", 3.0)));
  const int ladderRepeat = std::max(
      1, static_cast<int>(argNumber(argc, argv, "ladder-repeat", 8.0)));
  const std::string outPath = argText(argc, argv, "out", "BENCH_core.json");

  const dag::Workflow wf = montage::buildMontageWorkflow(degrees);
  const cloud::Pricing pricing = cloud::ProviderCatalog::builtin().pricing("amazon-2008");

  // -- 1. core replay: production calendar + link vs the test oracle -------
  engine::EngineConfig single;
  single.mode = engine::DataMode::DynamicCleanup;
  single.processors = 8;
  single.linkSharing = sim::LinkSharing::FairShare;
  const oracle::LinkScript script = oracle::recordLinkScript(wf, single);

  std::cout << "perf_core: core replay of " << wf.name() << " ("
            << wf.taskCount() << " tasks, " << script.actions.size()
            << " link actions), best of " << repeat << "\n";

  const double refSeconds = bestOf(repeat, [&] {
    oracle::replayLinkScript<oracle::ReferenceCalendar, oracle::ReferenceLink>(
        script, nullptr);
  });
  const double fastSeconds = bestOf(repeat, [&] {
    oracle::replayLinkScript<sim::Simulator, sim::Link>(script, nullptr);
  });
  obs::CollectingSink refEvents, fastEvents;
  oracle::replayLinkScript<oracle::ReferenceCalendar, oracle::ReferenceLink>(
      script, &refEvents);
  oracle::replayLinkScript<sim::Simulator, sim::Link>(script, &fastEvents);
  const std::string disagreement =
      oracle::replayDisagreement(fastEvents.events(), refEvents.events());
  const bool replayAgree = disagreement.empty();
  const double replaySpeedup =
      fastSeconds > 0.0 ? refSeconds / fastSeconds : 0.0;
  std::cout << "  reference " << refSeconds << " s, optimized " << fastSeconds
            << " s, speedup " << replaySpeedup << "x, agree "
            << (replayAgree ? "yes" : "NO: " + disagreement) << "\n";

  // -- 2. repeated-point sweep: memo cache off vs on ------------------------
  analysis::ProvisioningSweepConfig sweep;
  const auto ladder = analysis::defaultProcessorLadder();
  for (int r = 0; r < ladderRepeat; ++r)
    sweep.processorCounts.insert(sweep.processorCounts.end(), ladder.begin(),
                                 ladder.end());
  const std::size_t scenarios = 2 * sweep.processorCounts.size();

  // A smaller workflow keeps the cache-off baseline affordable while the
  // ladder still has 64+ scenarios (the planner's repeated-point shape).
  const dag::Workflow sweepWf = montage::buildMontageWorkflow(1.0);
  std::cout << "perf_core: sweep " << sweepWf.name() << ", " << scenarios
            << " scenarios (ladder x" << ladderRepeat << "), serial\n";

  std::vector<analysis::ProvisioningPoint> uncachedPoints, cachedPoints;
  const double uncachedSeconds = bestOf(repeat, [&] {
    uncachedPoints = analysis::provisioningSweep(sweepWf, pricing, sweep);
  });
  runner::MemoStats cacheStats;
  const double cachedSeconds = bestOf(repeat, [&] {
    runner::ScenarioMemoCache cache;  // cold per repeat: in-batch dedup only
    runner::JobQueue queue({.workers = 0, .cache = &cache});
    sweep.queue = &queue;
    cachedPoints = analysis::provisioningSweep(sweepWf, pricing, sweep);
    cacheStats = cache.stats();
  });
  sweep.queue = nullptr;
  const bool sweepIdentical = samePoints(uncachedPoints, cachedPoints);
  const double sweepSpeedup =
      cachedSeconds > 0.0 ? uncachedSeconds / cachedSeconds : 0.0;
  std::cout << "  cache-off " << uncachedSeconds << " s, cache-on "
            << cachedSeconds << " s, speedup " << sweepSpeedup
            << "x, identical " << (sweepIdentical ? "yes" : "NO") << " (hits "
            << cacheStats.hits << ", misses " << cacheStats.misses << ")\n";

  std::ofstream out(outPath);
  if (!out) {
    std::cerr << "perf_core: cannot write " << outPath << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"core_overhaul\",\n"
      << "  \"repeats\": " << repeat << ",\n"
      << "  \"core_replay\": {\n"
      << "    \"workflow\": \"" << wf.name() << "\",\n"
      << "    \"tasks\": " << wf.taskCount() << ",\n"
      << "    \"link_actions\": " << script.actions.size() << ",\n"
      << "    \"reference_seconds\": " << refSeconds << ",\n"
      << "    \"optimized_seconds\": " << fastSeconds << ",\n"
      << "    \"speedup\": " << replaySpeedup << ",\n"
      << "    \"results_agree\": " << (replayAgree ? "true" : "false")
      << "\n"
      << "  },\n"
      << "  \"memo_sweep\": {\n"
      << "    \"workflow\": \"" << sweepWf.name() << "\",\n"
      << "    \"scenarios\": " << scenarios << ",\n"
      << "    \"uncached_seconds\": " << uncachedSeconds << ",\n"
      << "    \"cached_seconds\": " << cachedSeconds << ",\n"
      << "    \"speedup\": " << sweepSpeedup << ",\n"
      << "    \"cache_hits\": " << cacheStats.hits << ",\n"
      << "    \"cache_misses\": " << cacheStats.misses << ",\n"
      << "    \"identical_results\": " << (sweepIdentical ? "true" : "false")
      << "\n"
      << "  }\n"
      << "}\n";
  out.close();

  std::cout << "wrote " << outPath << "\n";
  return (replayAgree && sweepIdentical) ? 0 : 1;
}
