#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <thread>

#include "mcsim/util/json.hpp"
#include "mcsim/version.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"scenarios_per_s", "scenarios/s"},
    {"tasks_per_s", "tasks/s"},
    {"req_per_s", "req/s"},
    {"req_p50_ms", "ms"},
    {"req_p99_ms", "ms"},
    {"peak_rss_mb", "MiB"},
    {"ok_frac", "fraction"},
};

const std::vector<MetricDef> kPerLayerMetrics = {
    {"engine.simulate_remote-io_ms", "ms"},
    {"engine.simulate_regular_ms", "ms"},
    {"engine.simulate_cleanup_ms", "ms"},
    {"engine.tasks_per_s", "tasks/s"},
    {"runner.parallel_efficiency", "fraction"},
    {"runner.memo_hits", "count"},
    {"runner.memo_misses", "count"},
    {"runner.memo_evictions", "count"},
    {"runner.memo_hit_ratio", "fraction"},
    {"faults.crashes", "count"},
    {"faults.wasted_cpu_s", "sim-s"},
    {"cloud.cost_us", "us"},
    {"montage.build_4deg_ms", "ms"},
    {"runner.fingerprint_4deg_ms", "ms"},
    {"runner.queue_rtt_us", "us"},
    {"util.json_parse_us", "us"},
    {"util.json_dump_us", "us"},
    {"serve.ping_rtt_us", "us"},
    {"serve.hit4_p50_ms", "ms"},
    {"serve.miss4_p50_ms", "ms"},
    {"serve.refusals", "count"},
    {"workflows.build_s", "s"},
    {"engine.simulate_s", "s"},
    {"dag.rss_bytes_per_task", "B/task"},
    {"engine.rss_growth_mb", "MiB"},
    {"trace.overhead_frac", "fraction"},
};

void Result::wrong(const std::string& what) {
  constexpr std::size_t kMaxNotes = 20;
  if (correct || notes.size() < kMaxNotes)
    notes.push_back("wrong output: " + what);
  correct = false;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::size_t countAbove(const std::vector<double>& values, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [threshold](double v) { return v > threshold; }));
}

void setSetupMetric(Result& result, const std::vector<double>& seconds) {
  const std::size_t n = seconds.size();
  std::vector<double> blockMeans;
  for (std::size_t b = 0; b < kRateBlocks && n >= kRateBlocks; ++b) {
    const auto begin = seconds.begin() + b * n / kRateBlocks;
    const auto end = seconds.begin() + (b + 1) * n / kRateBlocks;
    blockMeans.push_back(std::accumulate(begin, end, 0.0) /
                         static_cast<double>(end - begin));
  }
  result.metrics["setup_s"] = median(blockMeans);
  std::vector<double> us;
  for (double q : {0.0, 0.1, 0.5, 0.9, 1.0})
    us.push_back(quantile(seconds, q) * 1e6);
  result.notes.push_back(joinNumbers(
      "set-up: n=" + std::to_string(n) + ", min p10 p50 p90 max (us):", us));
  for (double& s : blockMeans) s *= 1e6;
  result.notes.push_back(joinNumbers("set-up block means (us):", blockMeans));
}

void setLatencyMetrics(Result& result, const std::vector<double>& latenciesMs,
                       const std::string& requestKind) {
  const double p50 = median(latenciesMs);
  const double p99 = quantile(latenciesMs, 0.99);
  result.metrics["req_p50_ms"] = p50;
  result.metrics["req_p99_ms"] = p99;
  result.notes.push_back("latency: request = " + requestKind + "; n=" +
                         std::to_string(latenciesMs.size()) + ", " +
                         std::to_string(countAbove(latenciesMs, p99)) +
                         " samples beyond p99");
  std::vector<double> tail;
  for (double q : {0.9, 0.95, 0.99, 0.999, 1.0})
    tail.push_back(quantile(latenciesMs, q) * 1e3);
  result.notes.push_back(joinNumbers("latency p90 p95 p99 p99.9 max (us):", tail));
}

double traceOverhead(const std::vector<double>& work,
                     const std::vector<double>& seconds) {
  double rate[2][2] = {{0.0, 0.0}, {0.0, 0.0}};  // [traced][work, seconds]
  for (std::size_t i = 0; i < work.size() && i < seconds.size(); ++i) {
    rate[i % 2][0] += work[i];
    rate[i % 2][1] += seconds[i];
  }
  return (rate[0][0] / rate[0][1]) / (rate[1][0] / rate[1][1]) - 1.0;
}

std::vector<double> blockRates(
    std::vector<std::pair<double, double>> completions) {
  std::sort(completions.begin(), completions.end());
  std::vector<double> rates;
  const std::size_t n = completions.size();
  double blockStart = 0.0;
  std::size_t next = 0;
  for (std::size_t b = 1; b <= kRateBlocks && n >= kRateBlocks; ++b) {
    const std::size_t end = b * n / kRateBlocks;
    double work = 0.0;
    for (; next < end; ++next) work += completions[next].second;
    const double blockEnd = completions[end - 1].first;
    if (blockEnd > blockStart) rates.push_back(work / (blockEnd - blockStart));
    blockStart = blockEnd;
  }
  return rates;
}

std::string joinNumbers(const std::string& label,
                        const std::vector<double>& values) {
  std::string line = label;
  for (double v : values) {
    line += ' ';
    line += std::to_string(std::llround(v));
  }
  return line;
}

std::size_t currentRssBytes() {
  std::ifstream in("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  if (!(in >> pages >> resident)) return 0;
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

std::size_t peakRssBytes() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

double processCpuSeconds() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

std::string compilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string hostJson() {
  mcsim::json::JsonObject host;
  host["nproc"] = std::thread::hardware_concurrency();
  host["cpu_model"] = cpuModel();
  host["compiler"] = compilerName();
  host["build_type"] = std::string(mcsim::kBuildType);
  host["git_sha"] = std::string(mcsim::kGitSha);
  mcsim::json::JsonObject o;
  o["host"] = mcsim::json::JsonValue(std::move(host));
  return mcsim::json::dumpJson(mcsim::json::JsonValue(std::move(o)));
}

}  // namespace perfbench
