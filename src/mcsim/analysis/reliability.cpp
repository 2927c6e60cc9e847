#include "mcsim/analysis/reliability.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "mcsim/analysis/report.hpp"
#include "mcsim/dag/algorithms.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/runner/runner.hpp"

namespace mcsim::analysis {
namespace {

ReliabilityPoint toPoint(const engine::ExecutionResult& r,
                         const cloud::Pricing& pricing, double mtbf) {
  const cloud::CostBreakdown cost =
      engine::computeCost(r, pricing, cloud::CpuBillingMode::Usage);

  ReliabilityPoint pt;
  pt.mode = r.mode;
  pt.mtbfSeconds = mtbf;
  pt.makespanSeconds = r.makespanSeconds;
  pt.processorCrashes = r.processorCrashes;
  pt.taskRetries = r.taskRetries;
  pt.tasksFailed = r.tasksFailed;
  pt.tasksAbandoned = r.tasksAbandoned;
  pt.wastedCpuSeconds = r.wastedCpuSeconds;
  pt.completed = r.completed();
  pt.cpuCost = cost.cpu;
  pt.storageCost = cost.storage;
  pt.transferCost = cost.transfer();
  pt.totalCost = cost.total();
  return pt;
}

}  // namespace

std::vector<ReliabilityPoint> reliabilitySweep(
    const dag::Workflow& wf, const cloud::Pricing& pricing,
    const ReliabilityConfig& config) {
  for (double mtbf : config.mtbfSeconds)
    if (mtbf <= 0.0)
      throw std::invalid_argument("reliabilitySweep: MTBF must be positive");
  config.retry.validate();

  const int processors =
      config.processorOverride > 0
          ? config.processorOverride
          : static_cast<int>(std::max<std::size_t>(1, dag::maxParallelism(wf)));

  // Scenario order mirrors the legacy nested loops: per mode, the fault-free
  // baseline first (the denominator of every overhead figure), then one
  // scenario per MTBF.
  std::vector<runner::ScenarioSpec> specs;
  specs.reserve(3 * (config.mtbfSeconds.size() + 1));
  for (engine::DataMode mode :
       {engine::DataMode::RemoteIO, engine::DataMode::Regular,
        engine::DataMode::DynamicCleanup}) {
    runner::ScenarioSpec spec;
    spec.workflow = &wf;
    spec.config = config.base;
    spec.config.mode = mode;
    spec.config.processors = processors;

    spec.config.faults = {};
    spec.label = std::string("reliability/") + engine::dataModeName(mode) +
                 "/baseline";
    specs.push_back(spec);

    for (double mtbf : config.mtbfSeconds) {
      spec.config.faults = config.base.faults;
      spec.config.faults.processor.mtbfSeconds = mtbf;
      spec.config.faults.retry = config.retry;
      spec.config.faults.seed = config.faultSeed;
      spec.label = std::string("reliability/") + engine::dataModeName(mode) +
                   "/mtbf=" + std::to_string(mtbf);
      specs.push_back(spec);
    }
  }

  const auto results = runner::runOnQueue(
      config.queue, specs, {.jobs = 0, .observer = config.observer});

  const std::size_t perMode = config.mtbfSeconds.size() + 1;
  std::vector<ReliabilityPoint> points;
  points.reserve(results.size());
  for (std::size_t m = 0; m < 3; ++m) {
    ReliabilityPoint baseline =
        toPoint(results[m * perMode].result, pricing, 0.0);
    baseline.faultFreeTotal = baseline.totalCost;
    points.push_back(baseline);

    for (std::size_t j = 0; j < config.mtbfSeconds.size(); ++j) {
      ReliabilityPoint pt = toPoint(results[m * perMode + 1 + j].result,
                                    pricing, config.mtbfSeconds[j]);
      pt.faultFreeTotal = baseline.totalCost;
      points.push_back(pt);
    }
  }
  return points;
}

Table reliabilityTable(const std::vector<ReliabilityPoint>& points) {
  Table t({"mode", "MTBF", "makespan", "crashes", "retries", "failed",
           "wasted cpu", "cpu $", "storage $", "transfer $", "total $",
           "overhead"});
  for (const ReliabilityPoint& p : points) {
    char overhead[32];
    std::snprintf(overhead, sizeof overhead, "%+.1f%%",
                  p.costOverheadFraction() * 100.0);
    std::string failed = std::to_string(p.tasksFailed);
    if (p.tasksAbandoned > 0)
      failed += "+" + std::to_string(p.tasksAbandoned);
    t.addRow({engine::dataModeName(p.mode),
              p.mtbfSeconds > 0.0 ? formatDuration(p.mtbfSeconds) : "-",
              formatDuration(p.makespanSeconds),
              std::to_string(p.processorCrashes),
              std::to_string(p.taskRetries), failed,
              formatDuration(p.wastedCpuSeconds), moneyCell(p.cpuCost),
              moneyCell(p.storageCost), moneyCell(p.transferCost),
              moneyCell(p.totalCost),
              p.mtbfSeconds > 0.0 ? overhead : "-"});
  }
  return t;
}

}  // namespace mcsim::analysis
