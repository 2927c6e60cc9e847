// Scenario memo cache: serve repeated sweep points without re-simulation.
//
// Sweeps frequently re-evaluate identical (workflow, platform, mode, seed)
// points — the planner re-runs the provisioning ladder per goal, reliability
// sweeps share their fault-free baseline, CCR ladders revisit scale 1.0.
// Simulation is deterministic, so a scenario's outcome is a pure function
// of its content; the cache keys an entry by a 64-bit FNV-1a fingerprint of
// the canonical workflow bytes plus the full effective engine configuration
// (including the derived fault seed and the entry's capture shape), and a
// hit hands back the stored ExecutionResult and what the scenario recorded
// for its observer — byte-identical to a fresh run by construction, and
// enforced by the determinism replay harness.
//
// Capture shape: an entry holds nothing beyond the result (no observer), a
// folded obs::MetricsDelta (an observer that needs no events, such as the
// serve daemon's shared metrics sink), or the full event stream (keepEvents,
// or an observer that reads every event).  The shape is part of the key, so
// an entry of one shape never serves a caller of another.  A delta is
// 40–55× smaller than the stream it replaces, and applying it costs the
// number of instruments plus its floating-point addends, not the number of
// events.
//
// Entries are shared and immutable: the cache holds a
// std::shared_ptr<const Entry>, and lookup/peek hand out that same pointer.
// A hit copies only the ExecutionResult and applies the delta or replays
// the stream straight from the shared entry; a miss moves its recording
// into the new entry.  An entry evicted while a job still holds it stays
// valid until the job lets go.  Streams are obs::EventStream chunks, so an
// entry never holds a multi-megabyte contiguous buffer.
//
// Capacity: a default-constructed cache is unbounded (the batch-sweep
// behavior since PR 4).  A server cache is constructed with
// MemoCacheOptions bounds — max resident entries and/or approximate max
// resident bytes — and evicts least-recently-used entries on insert until
// both bounds hold again.  lookup/peek refresh recency; eviction and
// resident-byte counters surface through MemoStats and the
// scenario_cache_stats obs event.
//
// Hit/miss accounting is deterministic: the runner classifies every
// scenario serially before any simulation starts, so counts never depend on
// worker scheduling.  Thread safety: all members are mutex-guarded, so one
// cache may be shared across concurrent batches and server jobs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "mcsim/engine/engine.hpp"
#include "mcsim/obs/metrics.hpp"
#include "mcsim/obs/sink.hpp"

namespace mcsim::dag {
class Workflow;
}

namespace mcsim::runner {

/// FNV-1a fingerprint of a workflow's canonical content: name, tasks
/// (name, type, runtime, release time, input/output file lists), files
/// (name, size, producer, explicit-output flag) and control edges.
/// Derived fields (parents, children, levels) are excluded — they are a
/// function of the above.
std::uint64_t fingerprintWorkflow(const dag::Workflow& workflow);

/// What the runner records of a scenario for its job's observer, and so
/// what a cache entry holds.  The value is the key's capture byte.
enum class Capture : std::uint8_t {
  None = 0,     ///< No observer: the result alone.
  Stream = 1,   ///< keepEvents, or an observer that needs events.
  Metrics = 2,  ///< An observer that needs no events: a MetricsDelta.
};

/// FNV-1a fingerprint of every behavior-affecting EngineConfig field (the
/// observer pointer is excluded; `capture` stands in for what the runner
/// records of the scenario, which changes what a cache entry must hold).
std::uint64_t fingerprintConfig(const engine::EngineConfig& config,
                                Capture capture);

/// Combined scenario fingerprint — the cache key.
std::uint64_t fingerprintScenario(const dag::Workflow& workflow,
                                  const engine::EngineConfig& config,
                                  Capture capture);

/// fingerprintScenario from precomputed parts, for callers that amortize
/// fingerprintWorkflow across many scenarios sharing one workflow.
std::uint64_t combineFingerprints(std::uint64_t workflowFingerprint,
                                  std::uint64_t configFingerprint);

/// Capacity bounds for a server-grade cache.  0 means unbounded (the
/// default, matching the historical per-sweep cache).
struct MemoCacheOptions {
  std::size_t maxEntries = 0;  ///< Max resident entries; 0 = unbounded.
  std::size_t maxBytes = 0;    ///< Approx. max resident bytes; 0 = unbounded.
};

/// Cumulative cache statistics.
struct MemoStats {
  std::size_t hits = 0;       ///< Scenarios served without simulation.
  std::size_t misses = 0;     ///< Scenarios that had to simulate.
  std::size_t entries = 0;    ///< Resident cached scenarios.
  std::size_t evictions = 0;  ///< Entries dropped to hold the capacity bound.
  std::size_t bytes = 0;      ///< Approximate resident bytes.

  /// hits / (hits + misses); 0 before any lookup.
  double hitRate() const {
    const std::size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// What a scenario recorded for its job's observer.  Which member is
/// filled follows the Capture shape; both are empty for Capture::None.
struct Recording {
  obs::EventStream events;  ///< Capture::Stream: the whole stream.
  /// Capture::Metrics: the folded metrics; null for the other shapes.
  std::unique_ptr<const obs::MetricsDelta> metrics;
};

class ScenarioMemoCache {
 public:
  /// A scenario's recording and its result.
  struct Entry : Recording {
    engine::ExecutionResult result;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  ScenarioMemoCache() = default;
  explicit ScenarioMemoCache(MemoCacheOptions options) : options_(options) {}

  const MemoCacheOptions& options() const { return options_; }

  /// The shared entry for `key`, or null.  Counts a hit or miss and
  /// refreshes the entry's recency.
  EntryPtr lookup(std::uint64_t key) const;
  /// Like lookup but never touches the hit/miss counters.  Still refreshes
  /// recency.
  EntryPtr peek(std::uint64_t key) const;
  /// True if `key` is resident, without touching counters or recency.
  bool contains(std::uint64_t key) const;
  /// Insert or overwrite the entry for `key`, then evict least-recently-
  /// used entries until the configured bounds hold.  Returns the stored
  /// entry, which stays valid even when a bounded cache evicts it at once
  /// (it alone exceeds maxBytes).
  EntryPtr insert(std::uint64_t key, Entry entry);
  /// Count `n` scenarios served from in-batch deduplication as hits.
  void recordBatchHits(std::size_t n);

  MemoStats stats() const;
  std::size_t size() const;
  void clear();

 private:
  struct Node {
    EntryPtr entry;
    std::size_t bytes = 0;
    /// Position in lru_; std::list splice never invalidates iterators.
    std::list<std::uint64_t>::iterator recency;
  };

  void touch(const Node& node) const;
  void evictOverCapacityLocked();

  MemoCacheOptions options_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Node> entries_;
  /// Keys, most recently used first.  Mutable: lookups refresh recency.
  mutable std::list<std::uint64_t> lru_;
  std::size_t bytes_ = 0;
  std::size_t evictions_ = 0;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

}  // namespace mcsim::runner
