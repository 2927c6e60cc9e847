// Experiment drivers for every figure and table in the paper's evaluation.
//
// Each driver returns typed rows so the bench harness, the tests and the
// examples share one implementation of each experiment:
//   * provisioningSweep      — Figs 4, 5, 6 (Question 1)
//   * dataModeComparison     — Figs 7, 8, 9 (Question 2a)
//   * cpuVsDataManagement    — Fig 10
//   * ccrSweep               — Fig 11 (+ the CCR table via Workflow::ccr)
//
// Every sweep takes one designated-initializer-friendly config struct (the
// shape ReliabilityConfig established) and runs its scenarios through
// mcsim::runner: on a borrowed JobQueue, which owns the worker threads and
// the memo cache, or on the caller's thread without one.  Every worker
// count produces byte-identical points, and a merged telemetry `observer`
// sees the same stream (see DESIGN.md "Concurrency model").
#pragma once

#include <vector>

#include "mcsim/cloud/pricing.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/engine.hpp"

namespace mcsim::obs {
class Sink;
}

namespace mcsim::runner {
class JobQueue;
}

namespace mcsim::analysis {

/// One point of the Question-1 sweep: P processors provisioned for the
/// whole run, Regular-mode execution, storage shown with and without
/// cleanup (the paired DynamicCleanup run).
struct ProvisioningPoint {
  int processors = 0;
  double makespanSeconds = 0.0;
  Money cpuCost;             ///< processors x makespan x rate.
  Money storageCost;         ///< Without cleanup.
  Money storageCleanupCost;  ///< With cleanup.
  Money transferCost;        ///< In + out; independent of processors.
  /// Paper's plotted total: CPU + transfer + storage *without* cleanup.
  Money totalCost;
  double utilization = 0.0;
};

/// The paper's geometric progression 1..128.
std::vector<int> defaultProcessorLadder();

struct ProvisioningSweepConfig {
  /// Processor counts to sweep; empty = defaultProcessorLadder().
  std::vector<int> processorCounts;
  /// Every engine knob except mode and processors.
  engine::EngineConfig base;
  cloud::BillingGranularity granularity = cloud::BillingGranularity::PerSecond;
  /// Observes every scenario; streams merge deterministically in sweep
  /// order regardless of the worker count.  Borrowed; may be nullptr.
  obs::Sink* observer = nullptr;
  /// Runs the scenarios on this queue's workers, serving repeated points
  /// from its memo cache when it has one.  nullptr = the caller's thread,
  /// uncached.  Borrowed.
  runner::JobQueue* queue = nullptr;
};

/// Run the Question-1 sweep described by `config`.
std::vector<ProvisioningPoint> provisioningSweep(
    const dag::Workflow& wf, const cloud::Pricing& pricing,
    const ProvisioningSweepConfig& config = {});

/// One Question-2a row: metrics of a single data-management mode with
/// resources billed by usage and enough processors for full parallelism.
struct DataModeMetrics {
  engine::DataMode mode = engine::DataMode::Regular;
  double makespanSeconds = 0.0;
  double storageGBHours = 0.0;
  Bytes bytesIn;
  Bytes bytesOut;
  Money storageCost;
  Money transferInCost;
  Money transferOutCost;
  Money cpuCost;  ///< Usage-billed; invariant across modes (Fig 10).

  Money dataManagementCost() const {
    return storageCost + transferInCost + transferOutCost;
  }
  Money totalCost() const { return dataManagementCost() + cpuCost; }
};

struct DataModeComparisonConfig {
  /// Every engine knob except mode and processors.
  engine::EngineConfig base;
  /// > 0 forces a processor count; 0 = the workflow's max parallelism
  /// ("the requests can run at their full level of parallelism", §4 Q2).
  int processorOverride = 0;
  obs::Sink* observer = nullptr;
  /// See ProvisioningSweepConfig::queue.
  runner::JobQueue* queue = nullptr;
};

/// Run all three modes (RemoteIO, Regular, DynamicCleanup, in that order).
std::vector<DataModeMetrics> dataModeComparison(
    const dag::Workflow& wf, const cloud::Pricing& pricing,
    const DataModeComparisonConfig& config = {});

/// One Fig-11 point: the 1-degree workflow rescaled to `ccr`, run on a
/// fixed provisioned processor count (the paper uses 8).
struct CcrPoint {
  double ccr = 0.0;
  double makespanSeconds = 0.0;
  Money cpuCost;             ///< Provisioned (8 procs x makespan).
  Money storageCost;         ///< Without cleanup.
  Money storageCleanupCost;  ///< With cleanup.
  Money transferCost;
  Money totalCost;           ///< CPU + transfer + storage without cleanup.
};

struct CcrSweepConfig {
  std::vector<double> ccrTargets;
  int processors = 8;  ///< Provisioned count; the paper's compromise.
  /// Every engine knob except mode and processors.
  engine::EngineConfig base;
  obs::Sink* observer = nullptr;
  /// See ProvisioningSweepConfig::queue.
  runner::JobQueue* queue = nullptr;
};

std::vector<CcrPoint> ccrSweep(const dag::Workflow& wf,
                               const cloud::Pricing& pricing,
                               const CcrSweepConfig& config);

}  // namespace mcsim::analysis
