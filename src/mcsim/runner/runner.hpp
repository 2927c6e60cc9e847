// Parallel scenario runner: executes many independent, single-threaded,
// deterministic simulations concurrently on a fixed worker pool.
//
// The design follows the GridSim/CloudSim lineage of discrete-event cloud
// simulators: parallelism lives *between* whole experiments, never inside
// one event loop.  Every evaluation figure in the paper is a sweep of
// independent runs, so this is exactly the granularity at which the
// hardware can be saturated without giving up bit-reproducibility.
//
// The batch types live here; every batch runs on runner::JobQueue
// (runner/jobs.hpp), either a persistent one or the transient queue that
// runScenarios builds.
//
// Guarantees (see DESIGN.md "Concurrency model"):
//  * Results are returned in spec order and are identical for any worker
//    count, including 0 — a scenario's outcome is a pure function of its
//    spec, never of scheduling.
//  * Telemetry: each scenario is observed by a private in-memory sink;
//    at join the per-scenario streams are replayed into
//    RunnerOptions::observer in ascending scenario index, so the merged
//    stream is byte-identical to a serial instrumented sweep.
//  * Seeds: with RunnerOptions::baseSeed != 0 each scenario's fault seed is
//    deriveSeed(baseSeed, index) — a pure hash, so adding, removing or
//    reordering workers never changes any scenario's randomness.
//  * Errors: the first scenario failure cancels the batch (workers stop
//    picking up new scenarios; in-flight simulations finish) and the call
//    rethrows the failure with the smallest scenario index observed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mcsim/engine/engine.hpp"
#include "mcsim/obs/event.hpp"

namespace mcsim::dag {
class Workflow;
}

namespace mcsim::runner {

class ScenarioMemoCache;

/// The worker-pool default: one job per hardware thread (never 0).
int defaultJobs();

/// Pure 64-bit mix (splitmix64) of a base seed and a scenario index.
/// Distinct indices give statistically independent seeds, and the result
/// depends only on (baseSeed, scenarioIndex) — not on worker assignment or
/// completion order.
std::uint64_t deriveSeed(std::uint64_t baseSeed, std::uint64_t scenarioIndex);

/// One independent simulation: a workflow reference plus the full platform
/// configuration (data mode, processors, link, faults, seed...).  The
/// workflow is borrowed and must outlive the run; `config.observer` must be
/// nullptr — per-scenario observation is managed by the runner (a sink
/// shared across concurrent scenarios would race).
struct ScenarioSpec {
  const dag::Workflow* workflow = nullptr;
  engine::EngineConfig config;
  std::string label;  ///< Optional; carried through to the result.
  /// fingerprintWorkflow(*workflow) when the caller already knows it (the
  /// serve daemon's workflow store computes it once per workflow); 0 means
  /// the memo cache computes it.
  std::uint64_t workflowFingerprint = 0;
};

/// The outcome of one scenario, at its spec's index.
struct ScenarioResult {
  std::size_t index = 0;
  std::string label;
  engine::ExecutionResult result;
  /// The scenario's full event stream, retained only when
  /// RunnerOptions::keepEvents is set.
  std::vector<obs::Event> events;
  /// True if this scenario was served without simulating — from a
  /// RunnerOptions::cache entry or by deduplicating against an identical
  /// scenario earlier in the same batch.  Always false without a cache.
  bool fromCache = false;
};

struct RunnerOptions {
  /// Worker threads of the transient queue.  0 = every scenario runs in
  /// the caller's thread, in spec order.
  int jobs = defaultJobs();
  /// != 0: overwrite each scenario's `config.faults.seed` with
  /// deriveSeed(baseSeed, index).  0 (default) leaves spec seeds untouched.
  std::uint64_t baseSeed = 0;
  /// Receives every scenario's events, merged deterministically at join in
  /// ascending scenario index.  Borrowed; may be nullptr.
  obs::Sink* observer = nullptr;
  /// Retain each scenario's event stream in ScenarioResult::events.
  bool keepEvents = false;
  /// Optional scenario memo cache (see runner/memo.hpp).  When set, each
  /// scenario is fingerprinted over its workflow content and effective
  /// engine config (base-seed override applied, capture shape included)
  /// before anything runs; scenarios whose fingerprint is already cached —
  /// or repeated within the batch — are served by replaying the stored
  /// result and event stream, byte-identical to a fresh run.  Newly
  /// simulated scenarios are inserted.  Borrowed; may be shared across
  /// queues and concurrent calls.  When `observer` is also set, one
  /// obs::ScenarioCacheStats event is appended after the merged streams.
  ScenarioMemoCache* cache = nullptr;
  /// Emit runner self-profiling events (one obs::WorkerProfile per worker,
  /// then one obs::RunnerBatchProfile) to `observer` after the merged
  /// streams and cache stats.  Off by default: the profile events carry
  /// host wall-clock, so they are appended *after* the deterministic merged
  /// stream and never captured, memoized, or kept in ScenarioResult::events.
  /// Scenario configs always run with EngineConfig::profile forced off for
  /// the same reason.
  bool profile = false;
};

/// Execute every scenario on a transient JobQueue of `options.jobs`
/// workers and return the results in spec order.  Throws
/// std::invalid_argument on malformed specs or options; rethrows the
/// lowest-index scenario failure after cancelling the batch.
std::vector<ScenarioResult> runScenarios(const std::vector<ScenarioSpec>& specs,
                                         const RunnerOptions& options = {});

}  // namespace mcsim::runner
