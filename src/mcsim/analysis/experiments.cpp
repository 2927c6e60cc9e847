#include "mcsim/analysis/experiments.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "mcsim/dag/algorithms.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/montage/ccr.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/runner/runner.hpp"

namespace mcsim::analysis {
namespace {

runner::ScenarioSpec makeSpec(const dag::Workflow& wf,
                              const engine::EngineConfig& base,
                              engine::DataMode mode, int processors,
                              std::string label) {
  runner::ScenarioSpec spec;
  spec.workflow = &wf;
  spec.config = base;
  spec.config.mode = mode;
  spec.config.processors = processors;
  spec.label = std::move(label);
  return spec;
}

}  // namespace

std::vector<int> defaultProcessorLadder() {
  return {1, 2, 4, 8, 16, 32, 64, 128};
}

std::vector<ProvisioningPoint> provisioningSweep(
    const dag::Workflow& wf, const cloud::Pricing& pricing,
    const ProvisioningSweepConfig& config) {
  const std::vector<int> counts = config.processorCounts.empty()
                                      ? defaultProcessorLadder()
                                      : config.processorCounts;

  std::vector<runner::ScenarioSpec> specs;
  specs.reserve(counts.size() * 2);
  for (int p : counts) {
    const std::string prefix = "provisioning/p=" + std::to_string(p);
    specs.push_back(makeSpec(wf, config.base, engine::DataMode::Regular, p,
                             prefix + "/regular"));
    specs.push_back(makeSpec(wf, config.base, engine::DataMode::DynamicCleanup,
                             p, prefix + "/cleanup"));
  }
  const auto results = runner::runOnQueue(
      config.queue, specs,
      {.jobs = 0, .observer = config.observer});

  std::vector<ProvisioningPoint> points;
  points.reserve(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const engine::ExecutionResult& regular = results[2 * i].result;
    const engine::ExecutionResult& cleanup = results[2 * i + 1].result;
    const cloud::CostBreakdown cost =
        engine::computeCost(regular, pricing, cloud::CpuBillingMode::Provisioned,
                            config.granularity);

    ProvisioningPoint pt;
    pt.processors = counts[i];
    pt.makespanSeconds = regular.makespanSeconds;
    pt.cpuCost = cost.cpu;
    pt.storageCost = cost.storage;
    pt.storageCleanupCost = pricing.storageCost(cleanup.storageByteSeconds);
    pt.transferCost = cost.transfer();
    pt.totalCost = cost.total();
    pt.utilization = regular.utilization();
    points.push_back(pt);
  }
  return points;
}

std::vector<DataModeMetrics> dataModeComparison(
    const dag::Workflow& wf, const cloud::Pricing& pricing,
    const DataModeComparisonConfig& config) {
  const int processors =
      config.processorOverride > 0
          ? config.processorOverride
          : static_cast<int>(std::max<std::size_t>(1, dag::maxParallelism(wf)));

  std::vector<runner::ScenarioSpec> specs;
  specs.reserve(3);
  for (engine::DataMode mode :
       {engine::DataMode::RemoteIO, engine::DataMode::Regular,
        engine::DataMode::DynamicCleanup}) {
    specs.push_back(makeSpec(wf, config.base, mode, processors,
                             std::string("modes/") +
                                 engine::dataModeName(mode)));
  }
  const auto results = runner::runOnQueue(
      config.queue, specs,
      {.jobs = 0, .observer = config.observer});

  std::vector<DataModeMetrics> rows;
  rows.reserve(results.size());
  for (const runner::ScenarioResult& scenario : results) {
    const engine::ExecutionResult& r = scenario.result;
    const cloud::CostBreakdown cost =
        engine::computeCost(r, pricing, cloud::CpuBillingMode::Usage);

    DataModeMetrics row;
    row.mode = r.mode;
    row.makespanSeconds = r.makespanSeconds;
    row.storageGBHours = r.storageGBHours();
    row.bytesIn = r.bytesIn;
    row.bytesOut = r.bytesOut;
    row.storageCost = cost.storage;
    row.transferInCost = cost.transferIn;
    row.transferOutCost = cost.transferOut;
    row.cpuCost = cost.cpu;
    rows.push_back(row);
  }
  return rows;
}

std::vector<CcrPoint> ccrSweep(const dag::Workflow& wf,
                               const cloud::Pricing& pricing,
                               const CcrSweepConfig& config) {
  if (config.processors < 1)
    throw std::invalid_argument("ccrSweep: processors must be >= 1");

  // Rescaled copies must outlive the batch; reserve keeps them stable.
  std::vector<dag::Workflow> scaled;
  scaled.reserve(config.ccrTargets.size());
  for (double target : config.ccrTargets) {
    dag::Workflow copy = wf;
    montage::rescaleToCcr(copy, target, config.base.linkBandwidthBytesPerSec);
    scaled.push_back(std::move(copy));
  }

  std::vector<runner::ScenarioSpec> specs;
  specs.reserve(scaled.size() * 2);
  for (std::size_t i = 0; i < scaled.size(); ++i) {
    const std::string prefix =
        "ccr/target=" + std::to_string(config.ccrTargets[i]);
    specs.push_back(makeSpec(scaled[i], config.base,
                             engine::DataMode::Regular, config.processors,
                             prefix + "/regular"));
    specs.push_back(makeSpec(scaled[i], config.base,
                             engine::DataMode::DynamicCleanup,
                             config.processors, prefix + "/cleanup"));
  }
  const auto results = runner::runOnQueue(
      config.queue, specs,
      {.jobs = 0, .observer = config.observer});

  std::vector<CcrPoint> points;
  points.reserve(config.ccrTargets.size());
  for (std::size_t i = 0; i < config.ccrTargets.size(); ++i) {
    const engine::ExecutionResult& regular = results[2 * i].result;
    const engine::ExecutionResult& cleanup = results[2 * i + 1].result;
    const cloud::CostBreakdown cost = engine::computeCost(
        regular, pricing, cloud::CpuBillingMode::Provisioned);

    CcrPoint pt;
    pt.ccr = config.ccrTargets[i];
    pt.makespanSeconds = regular.makespanSeconds;
    pt.cpuCost = cost.cpu;
    pt.storageCost = cost.storage;
    pt.storageCleanupCost = pricing.storageCost(cleanup.storageByteSeconds);
    pt.transferCost = cost.transfer();
    pt.totalCost = cost.total();
    points.push_back(pt);
  }
  return points;
}

}  // namespace mcsim::analysis
