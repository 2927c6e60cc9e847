// perf_runner: wall-clock benchmark of the mcsim::runner thread pool.
//
// Runs the Question-1 provisioning sweep on the calling thread (no queue)
// and on a JobQueue of --jobs workers, checks the two point sets are
// identical, and writes a BENCH_runner.json summary:
//
//   ./bench/perf_runner [--degrees 1] [--jobs N] [--repeat 3]
//                       [--ladder-repeat 4] [--out BENCH_runner.json]
//
// --ladder-repeat concatenates the processor ladder with itself to give the
// pool enough scenarios per sweep; the best-of-N repeat wall times keep
// machine noise out of the committed numbers.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

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

}  // namespace

int main(int argc, char** argv) {
  const double degrees = argNumber(argc, argv, "degrees", 1.0);
  const int jobs = static_cast<int>(
      argNumber(argc, argv, "jobs", runner::defaultJobs()));
  const int repeat =
      std::max(1, static_cast<int>(argNumber(argc, argv, "repeat", 3.0)));
  const int ladderRepeat = std::max(
      1, static_cast<int>(argNumber(argc, argv, "ladder-repeat", 4.0)));
  const std::string outPath =
      argText(argc, argv, "out", "BENCH_runner.json");

  const dag::Workflow wf = montage::buildMontageWorkflow(degrees);
  const cloud::Pricing pricing = cloud::ProviderCatalog::builtin().pricing("amazon-2008");

  analysis::ProvisioningSweepConfig config;
  const auto ladder = analysis::defaultProcessorLadder();
  for (int r = 0; r < ladderRepeat; ++r)
    config.processorCounts.insert(config.processorCounts.end(),
                                  ladder.begin(), ladder.end());

  // Two engine runs (regular + cleanup) per ladder entry.
  const std::size_t scenarios = 2 * config.processorCounts.size();
  std::cout << "perf_runner: " << wf.name() << ", " << scenarios
            << " scenarios, jobs=" << jobs << ", best of " << repeat
            << " repeats\n";

  std::vector<analysis::ProvisioningPoint> serialPoints;
  std::vector<analysis::ProvisioningPoint> parallelPoints;
  double serialBest = 0.0;
  double parallelBest = 0.0;
  runner::JobQueue pool({.workers = jobs});
  for (int r = 0; r < repeat; ++r) {
    config.queue = nullptr;
    auto t0 = Clock::now();
    serialPoints = analysis::provisioningSweep(wf, pricing, config);
    const double serial = std::chrono::duration<double>(Clock::now() - t0)
                              .count();

    config.queue = &pool;
    t0 = Clock::now();
    parallelPoints = analysis::provisioningSweep(wf, pricing, config);
    const double parallel = std::chrono::duration<double>(Clock::now() - t0)
                                .count();

    if (r == 0 || serial < serialBest) serialBest = serial;
    if (r == 0 || parallel < parallelBest) parallelBest = parallel;
    std::cout << "  repeat " << r << ": serial " << serial << " s, jobs="
              << jobs << " " << parallel << " s\n";
  }

  const bool identical = samePoints(serialPoints, parallelPoints);
  const double speedup = parallelBest > 0.0 ? serialBest / parallelBest : 0.0;

  std::ofstream out(outPath);
  if (!out) {
    std::cerr << "perf_runner: cannot write " << outPath << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"benchmark\": \"runner_provisioning_sweep\",\n"
      << "  \"workflow\": \"" << wf.name() << "\",\n"
      << "  \"scenarios\": " << scenarios << ",\n"
      << "  \"repeats\": " << repeat << ",\n"
      << "  \"jobs\": " << jobs << ",\n"
      << "  \"hardware_concurrency\": " << runner::defaultJobs() << ",\n"
      << "  \"serial_seconds\": " << serialBest << ",\n"
      << "  \"parallel_seconds\": " << parallelBest << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"serial_points_per_sec\": "
      << (serialBest > 0.0 ? scenarios / serialBest : 0.0) << ",\n"
      << "  \"parallel_points_per_sec\": "
      << (parallelBest > 0.0 ? scenarios / parallelBest : 0.0) << ",\n"
      << "  \"identical_results\": " << (identical ? "true" : "false") << "\n"
      << "}\n";
  out.close();

  std::cout << "serial " << serialBest << " s, parallel " << parallelBest
            << " s, speedup " << speedup << "x, identical "
            << (identical ? "yes" : "NO") << "; wrote " << outPath << "\n";
  return identical ? 0 : 1;
}
