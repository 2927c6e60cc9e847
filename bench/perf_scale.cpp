// perf_scale: survey-campaign scale benchmark — million-task DAG
// construction and simulation throughput, peak memory, shard-mode runner
// scaling, and a merge-path regression guard.  Writes BENCH_scale.json:
//
//   ./bench/perf_scale [--tiers 100000,1000000,10000000] [--jobs N]
//                      [--shards 16] [--procs 64] [--repeat 3]
//                      [--out BENCH_scale.json]
//
// Per tier (ascending task counts so the reported RSS is the cumulative
// peak up to and including that tier): streaming build wall time and
// tasks/sec through workflows::buildSurveyCampaign, then one engine run
// over the whole campaign.  After the tiers: a 16-shard campaign at the
// smallest tier through runner::runCampaign, serial (--jobs 0) vs the
// worker pool, asserting identical shard results; and a replicateWorkflow
// doubling probe (512 -> 1024 copies) whose wall-time ratio must stay
// near-linear — a reintroduced per-copy deep copy or reallocation cascade
// shows up as a superlinear ratio.
//
// Exit status reflects correctness only (identity checks, closed-form
// counts, the doubling ratio); throughput and speedup numbers are
// recorded as measured, never asserted — this box may have 1 core.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "mcsim/dag/merge.hpp"
#include "mcsim/runner/campaign.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/workflows/survey.hpp"

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

std::vector<std::uint64_t> parseTiers(const std::string& csv) {
  std::vector<std::uint64_t> tiers;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ','))
    if (!item.empty()) tiers.push_back(std::stoull(item));
  std::sort(tiers.begin(), tiers.end());
  return tiers;
}

double seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct TierStats {
  std::uint64_t targetTasks = 0;
  std::uint64_t tiles = 0;
  std::uint64_t tasks = 0;
  std::uint64_t files = 0;
  double buildSeconds = 0.0;
  double buildTasksPerSec = 0.0;
  double simSeconds = 0.0;
  double simTasksPerSec = 0.0;
  double makespanSeconds = 0.0;
  std::size_t peakRssBytes = 0;  // cumulative process peak after this tier
};

bool sameShardResults(const std::vector<runner::ScenarioResult>& a,
                      const std::vector<runner::ScenarioResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const engine::ExecutionResult& x = a[i].result;
    const engine::ExecutionResult& y = b[i].result;
    if (a[i].index != b[i].index ||
        x.makespanSeconds != y.makespanSeconds ||
        x.cpuBusySeconds != y.cpuBusySeconds ||
        x.tasksExecuted != y.tasksExecuted ||
        x.bytesIn.value() != y.bytesIn.value() ||
        x.bytesOut.value() != y.bytesOut.value() ||
        x.storageByteSeconds != y.storageByteSeconds)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::uint64_t> tiers = parseTiers(
      argText(argc, argv, "tiers", "100000,1000000,10000000"));
  const int jobs = static_cast<int>(
      argNumber(argc, argv, "jobs", runner::defaultJobs()));
  const std::uint32_t shards = static_cast<std::uint32_t>(
      argNumber(argc, argv, "shards", 16.0));
  const int procs =
      static_cast<int>(argNumber(argc, argv, "procs", 64.0));
  const int repeat =
      std::max(1, static_cast<int>(argNumber(argc, argv, "repeat", 3.0)));
  const std::string outPath = argText(argc, argv, "out", "BENCH_scale.json");

  bool ok = true;

  // Tiles per tier from the closed-form tasks/tile at 1 degree.
  workflows::SurveyConfig probe;
  probe.tiles = 1;
  const std::uint64_t tasksPerTile = workflows::surveyCounts(probe).tasksPerTile;

  engine::EngineConfig engineConfig;
  engineConfig.processors = procs;

  // -- tier sweep: streaming build + one engine run per campaign ------------
  std::vector<TierStats> stats;
  for (std::uint64_t target : tiers) {
    TierStats tier;
    tier.targetTasks = target;
    tier.tiles = (target + tasksPerTile - 1) / tasksPerTile;

    workflows::SurveyConfig cfg;
    cfg.name = "scale-" + std::to_string(target);
    cfg.tiles = tier.tiles;
    cfg.seed = 1;

    const auto t0 = Clock::now();
    const dag::Workflow wf = workflows::buildSurveyCampaign(cfg);
    tier.buildSeconds = seconds(t0);
    tier.tasks = wf.taskCount();
    tier.files = wf.fileCount();
    tier.buildTasksPerSec =
        tier.buildSeconds > 0.0
            ? static_cast<double>(tier.tasks) / tier.buildSeconds
            : 0.0;

    const workflows::SurveyCounts counts = workflows::surveyCounts(cfg);
    if (tier.tasks != counts.tasks || tier.files != counts.files) {
      std::cerr << "perf_scale: tier " << target
                << ": built counts diverge from the closed form\n";
      ok = false;
    }

    const auto t1 = Clock::now();
    const engine::ExecutionResult result =
        engine::simulateWorkflow(wf, engineConfig);
    tier.simSeconds = seconds(t1);
    tier.simTasksPerSec =
        tier.simSeconds > 0.0
            ? static_cast<double>(result.tasksExecuted) / tier.simSeconds
            : 0.0;
    tier.makespanSeconds = result.makespanSeconds;
    if (result.tasksExecuted != tier.tasks) {
      std::cerr << "perf_scale: tier " << target << ": engine executed "
                << result.tasksExecuted << " of " << tier.tasks
                << " tasks\n";
      ok = false;
    }

    tier.peakRssBytes = bench::peakRssBytes();
    std::cout << "tier " << target << ": " << tier.tiles << " tiles, "
              << tier.tasks << " tasks; build " << tier.buildSeconds
              << " s (" << tier.buildTasksPerSec << " tasks/s), sim "
              << tier.simSeconds << " s (" << tier.simTasksPerSec
              << " tasks/s), peak RSS "
              << static_cast<double>(tier.peakRssBytes) / (1024.0 * 1024.0)
              << " MiB\n";
    stats.push_back(tier);
  }

  // -- shard-mode runner scaling at the smallest tier -----------------------
  const std::uint64_t shardTiles =
      std::max<std::uint64_t>(shards, stats.empty() ? shards
                                                    : stats.front().tiles);
  workflows::SurveyConfig shardCfg;
  shardCfg.name = "scale-shards";
  shardCfg.tiles = shardTiles;
  shardCfg.seed = 1;
  const std::vector<dag::Workflow> shardWorkflows =
      workflows::buildSurveyShards(shardCfg, shards);

  runner::CampaignOptions serialOptions;
  serialOptions.engine = engineConfig;
  runner::JobQueue pool({.workers = jobs});
  runner::CampaignOptions parallelOptions = serialOptions;
  parallelOptions.queue = &pool;

  runner::CampaignResult serialCampaign, parallelCampaign;
  double serialBest = 0.0, parallelBest = 0.0;
  for (int r = 0; r < repeat; ++r) {
    auto t0 = Clock::now();
    serialCampaign = runner::runCampaign(shardWorkflows, serialOptions);
    const double serial = seconds(t0);
    t0 = Clock::now();
    parallelCampaign = runner::runCampaign(shardWorkflows, parallelOptions);
    const double parallel = seconds(t0);
    if (r == 0 || serial < serialBest) serialBest = serial;
    if (r == 0 || parallel < parallelBest) parallelBest = parallel;
  }
  const bool shardsIdentical = sameShardResults(
      serialCampaign.shardResults, parallelCampaign.shardResults);
  if (!shardsIdentical) {
    std::cerr << "perf_scale: serial and parallel shard results diverge\n";
    ok = false;
  }
  const double shardSpeedup =
      parallelBest > 0.0 ? serialBest / parallelBest : 0.0;
  std::cout << "shards: " << shards << " x "
            << (shardTiles / std::max<std::uint64_t>(1, shards))
            << "+ tiles; serial " << serialBest << " s, jobs=" << jobs << " "
            << parallelBest << " s, speedup " << shardSpeedup
            << "x, identical " << (shardsIdentical ? "yes" : "NO") << "\n";

  // -- merge-path regression guard ------------------------------------------
  // replicateWorkflow appends straight from the single source part; its
  // wall time must grow linearly in the copy count.  A doubling ratio
  // near 2 is linear; near 4 means someone reintroduced per-copy deep
  // copies or an unreserved reallocation cascade.
  const dag::Workflow tile = workflows::buildSurveyTile(shardCfg, 0);
  // Untimed warm-up: the first 1024-copy build grows the heap; without it
  // a single-repeat run conflates allocator growth with merge cost.
  { const dag::Workflow warm = dag::replicateWorkflow(tile, 1024); }
  double half = 0.0, full = 0.0;
  std::size_t fullTasks = 0;
  for (int r = 0; r < repeat; ++r) {
    auto t0 = Clock::now();
    const dag::Workflow a = dag::replicateWorkflow(tile, 512);
    const double tHalf = seconds(t0);
    t0 = Clock::now();
    const dag::Workflow b = dag::replicateWorkflow(tile, 1024);
    const double tFull = seconds(t0);
    if (r == 0 || tHalf < half) half = tHalf;
    if (r == 0 || tFull < full) full = tFull;
    fullTasks = b.taskCount();
  }
  const double doublingRatio = half > 0.0 ? full / half : 0.0;
  if (fullTasks != 1024 * tile.taskCount()) {
    std::cerr << "perf_scale: replicateWorkflow dropped tasks\n";
    ok = false;
  }
  if (doublingRatio > 3.0) {
    std::cerr << "perf_scale: replicateWorkflow doubling ratio "
              << doublingRatio << " is superlinear (expected ~2)\n";
    ok = false;
  }
  std::cout << "replicate: 512 copies " << half << " s, 1024 copies " << full
            << " s, doubling ratio " << doublingRatio << "\n";

  // -- BENCH_scale.json ------------------------------------------------------
  std::ofstream out(outPath);
  if (!out) {
    std::cerr << "perf_scale: cannot write " << outPath << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"survey_scale\",\n"
      << "  \"tile_degrees\": 1,\n"
      << "  \"tasks_per_tile\": " << tasksPerTile << ",\n"
      << "  \"processors\": " << procs << ",\n"
      << "  \"repeats\": " << repeat << ",\n"
      << "  \"hardware_concurrency\": " << runner::defaultJobs() << ",\n"
      << "  \"tiers\": [\n";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const TierStats& t = stats[i];
    out << "    {\n"
        << "      \"target_tasks\": " << t.targetTasks << ",\n"
        << "      \"tiles\": " << t.tiles << ",\n"
        << "      \"tasks\": " << t.tasks << ",\n"
        << "      \"files\": " << t.files << ",\n"
        << "      \"build_seconds\": " << t.buildSeconds << ",\n"
        << "      \"build_tasks_per_sec\": " << t.buildTasksPerSec << ",\n"
        << "      \"sim_seconds\": " << t.simSeconds << ",\n"
        << "      \"sim_tasks_per_sec\": " << t.simTasksPerSec << ",\n"
        << "      \"makespan_seconds\": " << t.makespanSeconds << ",\n"
        << "      \"peak_rss_bytes\": " << t.peakRssBytes << "\n"
        << "    }" << (i + 1 < stats.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"shard_mode\": {\n"
      << "    \"shards\": " << shards << ",\n"
      << "    \"tiles\": " << shardTiles << ",\n"
      << "    \"jobs\": " << jobs << ",\n"
      << "    \"serial_seconds\": " << serialBest << ",\n"
      << "    \"parallel_seconds\": " << parallelBest << ",\n"
      << "    \"speedup\": " << shardSpeedup << ",\n"
      << "    \"identical_results\": " << (shardsIdentical ? "true" : "false")
      << "\n"
      << "  },\n"
      << "  \"replicate_doubling\": {\n"
      << "    \"copies\": [512, 1024],\n"
      << "    \"seconds\": [" << half << ", " << full << "],\n"
      << "    \"ratio\": " << doublingRatio << "\n"
      << "  },\n"
      << "  \"correct\": " << (ok ? "true" : "false") << "\n"
      << "}\n";
  out.close();

  std::cout << (ok ? "OK" : "FAILED") << "; wrote " << outPath << "\n";
  return ok ? 0 : 1;
}
