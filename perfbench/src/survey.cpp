// The `survey` workload: one 10^6-task survey campaign of 1-degree Montage
// tiles, built with workflows::buildSurveyCampaign and simulated once with
// engine::simulateWorkflow on 64 processors in regular mode.  The seed sets
// the campaign seed and the runtime jitter.  The campaign is rebuilt and
// re-simulated until the window closes; each pass is one operation and the
// workflow is released before the next, so the peak RSS is one campaign's.
//
// Checks: task and file counts equal workflows::surveyCounts, every task
// executes, and every pass gives the same makespan.  The warm-up pass and
// the first two timed passes are the checked set.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/serve/service.hpp"
#include "mcsim/util/rng.hpp"
#include "mcsim/workflows/survey.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace engine = mcsim::engine;
namespace workflows = mcsim::workflows;

constexpr std::uint64_t kTargetTasks = 1000000;
constexpr int kProcessors = 64;
/// Tiles in the set-up warm-up campaign (about 1% of the full campaign).
constexpr std::uint64_t kWarmupTiles = 50;
/// Passes of the traced run that measure memory, after the timed ones.
constexpr std::size_t kMemoryPasses = 2;

workflows::SurveyConfig campaignConfig(std::uint64_t seed) {
  workflows::SurveyConfig probe;
  const std::uint64_t perTile = workflows::surveyCounts(probe).tasksPerTile;
  workflows::SurveyConfig config;
  config.name = "survey";
  config.tileDegrees = 1.0;
  config.tiles = (kTargetTasks + perTile - 1) / perTile;
  config.seed = seed;
  mcsim::Rng rng(seed);
  config.runtimeJitterFraction = rng.uniformReal(0.05, 0.3);
  return config;
}

engine::EngineConfig engineConfig() {
  engine::EngineConfig config;
  config.mode = engine::DataMode::Regular;
  config.processors = kProcessors;
  return config;
}

/// Samples the resident set size every millisecond while alive; peak()
/// is the largest reading.
class RssSampler {
 public:
  RssSampler() : thread_([this] { loop(); }) {}
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  ~RssSampler() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  std::size_t peak() const { return peak_.load(); }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(1),
                         [this] { return stop_; }))
      peak_.store(std::max(peak_.load(), currentRssBytes()));
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::size_t> peak_{0};
  std::thread thread_;  ///< Declared last: starts after the members it uses.
};

struct Pass {
  double buildSeconds = 0.0;
  double simulateSeconds = 0.0;
  std::size_t tasks = 0;
  std::size_t files = 0;
  std::size_t tasksExecuted = 0;
  bool completed = false;
  double makespan = 0.0;
  double rssBytesPerTask = 0.0;
  double rssGrowthMb = 0.0;
};

/// Build and simulate one campaign.  With `measureMemory`, also the RSS
/// growth across the build and the peak growth across the simulation.
Pass runPass(const workflows::SurveyConfig& config, std::uint64_t requestId,
             bool measureMemory) {
  Pass p;
  // Hand freed heap back to the kernel first, so the RSS growth below is
  // what the campaign holds, not heap reused from the previous pass.
  if (measureMemory) ::malloc_trim(0);
  const Span root("survey.campaign", "", requestId);
  const std::size_t rssBefore = measureMemory ? currentRssBytes() : 0;
  auto t0 = Clock::now();
  const mcsim::dag::Workflow workflow = [&] {
    const Span span("workflows.build");
    return workflows::buildSurveyCampaign(config);
  }();
  p.buildSeconds = secondsSince(t0);
  const std::size_t rssBuilt = measureMemory ? currentRssBytes() : 0;

  engine::ExecutionResult r;
  t0 = Clock::now();
  if (measureMemory) {
    const RssSampler sampler;
    const Span span("engine.simulate", "regular");
    r = engine::simulateWorkflow(workflow, engineConfig());
    const std::size_t peak = std::max(sampler.peak(), currentRssBytes());
    p.rssGrowthMb =
        (static_cast<double>(peak) - static_cast<double>(rssBuilt)) /
        (1 << 20);
  } else {
    const Span span("engine.simulate", "regular");
    r = engine::simulateWorkflow(workflow, engineConfig());
  }
  p.simulateSeconds = secondsSince(t0);
  {
    const auto prices = mcsim::serve::ServiceOptions{}.pricing;
    const Span span("cloud.compute_cost");
    for (int k = 0; k < kCostRepeats; ++k)
      (void)engine::computeCost(r, prices, mcsim::cloud::CpuBillingMode::Usage);
  }
  p.tasks = workflow.taskCount();
  p.files = workflow.fileCount();
  p.tasksExecuted = r.tasksExecuted;
  p.completed = r.completed();
  p.makespan = r.makespanSeconds;
  if (measureMemory)
    p.rssBytesPerTask =
        (static_cast<double>(rssBuilt) - static_cast<double>(rssBefore)) /
        static_cast<double>(p.tasks);
  return p;
}

/// The check every pass goes through: counts equal the closed form, every
/// task executes, and the makespan is the warm-up pass's to the bit.
/// Returns what is wrong, or an empty string.
std::string passFault(const Pass& pass, const Pass& warmup,
                      const workflows::SurveyCounts& counts) {
  if (pass.tasks != counts.tasks || pass.files != counts.files)
    return "campaign counts differ from workflows::surveyCounts";
  if (pass.tasksExecuted != counts.tasks || !pass.completed)
    return "campaign executed " + std::to_string(pass.tasksExecuted) +
           " of " + std::to_string(counts.tasks) + " tasks";
  if (pass.makespan != warmup.makespan)
    return "campaign makespan changed between passes";
  return {};
}

/// passFault must pass a real pass and catch it corrupted: the makespan
/// moved by one ulp, or one task left unexecuted.
void selfTest(const Pass& real, const Pass& warmup,
              const workflows::SurveyCounts& counts, Result& result) {
  Pass makespan = real;
  makespan.makespan = std::nextafter(real.makespan, 0.0);
  Pass unexecuted = real;
  unexecuted.tasksExecuted -= 1;
  if (!passFault(real, warmup, counts).empty() ||
      passFault(makespan, warmup, counts).empty() ||
      passFault(unexecuted, warmup, counts).empty())
    result.wrong("self-test: the survey check passed a corrupted pass or "
                 "failed a real one");
  else
    result.notes.push_back("self-test: corrupted survey passes caught");
}

}  // namespace

Result runSurvey(const Options& options) {
  Result result;
  const workflows::SurveyConfig config = campaignConfig(options.seed);

  // Set-up: validate, resolve the closed-form counts, and warm the builder
  // and engine on a small campaign of the same shape.
  workflows::SurveyCounts counts;
  const std::vector<double> setupSeconds = timeSetUps(
      [&] {
        const std::string invalid = workflows::validateSurveyConfig(config);
        if (!invalid.empty()) throw std::invalid_argument("survey: " + invalid);
        workflows::SurveyConfig warm = config;
        warm.tiles = kWarmupTiles;
        const mcsim::dag::Workflow small = workflows::buildSurveyCampaign(warm);
        (void)engine::simulateWorkflow(small, engineConfig());
        counts = workflows::surveyCounts(config);
      },
      [] {});

  // An untimed warm-up pass first: the first full-size pass pays for
  // faulting in fresh memory.  The traced run then alternates untraced
  // (even) and traced (odd) passes, and ends with untraced passes that
  // measure memory, left out of the overhead comparison.
  const Pass warmup = runPass(config, 0, false);
  std::vector<Pass> passes;
  const std::size_t minPasses = options.trace ? 4 : 2;
  const auto t0 = Clock::now();
  while (passes.size() < minPasses || secondsSince(t0) < options.seconds) {
    setTracing(options.trace && passes.size() % 2 == 1);
    passes.push_back(runPass(config, passes.size() + 1, false));
  }
  setTracing(false);
  std::vector<Pass> memoryPasses;
  for (std::size_t i = 0; options.trace && i < kMemoryPasses; ++i)
    memoryPasses.push_back(
        runPass(config, passes.size() + memoryPasses.size() + 1, true));

  // The warm-up and the first two timed passes are the checked set.
  std::ostringstream times;
  times << "survey passes after warm-up (build + simulate s):";
  std::size_t checked = 0;
  for (const auto* group : {&passes, &memoryPasses})
    for (const Pass& p : *group) {
      const std::string fault = passFault(p, warmup, counts);
      if (!fault.empty()) result.wrong(fault);
      const std::uint64_t failures = fault.empty() ? 0 : 1;
      if (checked++ < 2)
        result.checkedOps(1, failures);
      else
        result.ops(1, failures);
      times << ' ' << p.buildSeconds << '+' << p.simulateSeconds;
    }
  {
    const std::string fault = passFault(warmup, warmup, counts);
    if (!fault.empty()) result.wrong("warm-up pass: " + fault);
    result.checkedOps(1, fault.empty() ? 0 : 1);
  }
  result.notes.push_back(times.str());
  selfTest(passes.front(), warmup, counts, result);

  auto& m = result.metrics;
  if (!options.trace) {
    // Rates per pass, not passes per window: a window holds only about
    // ten passes, so counting whole passes would quantize the rate.
    std::vector<double> latencies;
    std::vector<double> rates;
    for (const Pass& p : passes) {
      latencies.push_back((p.buildSeconds + p.simulateSeconds) * 1e3);
      rates.push_back(p.tasks / (p.buildSeconds + p.simulateSeconds));
    }
    setSetupMetric(result, setupSeconds);
    m["scenarios_per_s"] = 1e3 / median(latencies);
    m["tasks_per_s"] = median(rates);
    m["req_per_s"] = 1e3 / median(latencies);
    setLatencyMetrics(result, latencies, "one campaign (build + simulate)");
  } else {
    std::vector<double> work, seconds, bytesPerTask, growth;
    double tasks = 0.0;
    for (std::size_t i = 0; i < passes.size(); ++i) {
      const Pass& p = passes[i];
      work.push_back(static_cast<double>(p.tasks));
      seconds.push_back(p.buildSeconds + p.simulateSeconds);
      if (i % 2 == 1) tasks += static_cast<double>(p.tasks);
    }
    for (const Pass& p : memoryPasses) {
      bytesPerTask.push_back(p.rssBytesPerTask);
      growth.push_back(p.rssGrowthMb);
    }
    const std::vector<SpanRecord> spans = collectSpans();
    const std::vector<double> simulate = spanMs(spans, "engine.simulate");
    double simulateSeconds = 0.0;
    for (double ms : simulate) simulateSeconds += ms / 1e3;
    m["workflows.build_s"] = spanMedianMs(spans, "workflows.build") / 1e3;
    m["engine.simulate_s"] = median(simulate) / 1e3;
    m["engine.simulate_regular_ms"] = median(simulate);
    m["engine.tasks_per_s"] = tasks / simulateSeconds;
    m["cloud.cost_us"] =
        spanMedianMs(spans, "cloud.compute_cost") * 1e3 / kCostRepeats;
    m["dag.rss_bytes_per_task"] = median(bytesPerTask);
    m["engine.rss_growth_mb"] = median(growth);
    m["trace.overhead_frac"] = traceOverhead(work, seconds);
  }
  std::ostringstream note;
  note.precision(17);
  note << "survey: " << config.tiles << " tiles, " << counts.tasks
       << " tasks, jitter " << config.runtimeJitterFraction << ", makespan "
       << warmup.makespan << " s";
  result.notes.push_back(note.str());
  return result;
}

}  // namespace perfbench
