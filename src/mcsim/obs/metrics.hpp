// Metrics registry: counters, gauges and fixed-bucket histograms with a
// Prometheus-style text exposition, plus a MetricsSink that derives the
// standard mcsim_* instrument set from the event stream.  The same event
// interpretation folds a scenario's events into a MetricsDelta
// (MetricsFold), which a MetricsSink applies in place of the events.
//
// The simulator is single-threaded, so instruments are plain doubles — no
// atomics.  Instruments are owned by the registry and referenced by pointer;
// registering the same name twice returns the existing instrument (so
// multiple sinks can share a registry), registering it as a different type
// throws.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcsim/obs/selfprofile.hpp"
#include "mcsim/obs/sink.hpp"

namespace mcsim::obs {

class Counter {
 public:
  void increment(double amount = 1.0) { value_ += amount; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed upper-bound buckets (ascending; an implicit +Inf bucket catches the
/// rest), plus sum and count — enough to recover means and coarse quantiles
/// of e.g. transfer sizes and task wait times.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upperBounds);

  void observe(double value);
  /// Add per-bucket counts and the observed values in arrival order: what
  /// observing each value would do, with its bucket already found.
  void merge(const std::vector<std::uint64_t>& bucketCounts,
             const std::vector<double>& values);

  const std::vector<double>& upperBounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; index bounds_.size() is +Inf.
  const std::vector<std::uint64_t>& bucketCounts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> upperBounds);

  std::size_t instrumentCount() const { return entries_.size(); }

  /// Prometheus text exposition format v0.0.4, instruments in registration
  /// order (deterministic output for diffing runs).
  void writePrometheus(std::ostream& os) const;

 private:
  enum class Type { Counter, Gauge, Histogram };
  struct Entry {
    std::string name;
    std::string help;
    Type type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& findOrCreate(const std::string& name, const std::string& help,
                      Type type);

  std::vector<Entry> entries_;
  std::unordered_map<std::string, std::size_t> byName_;
};

/// The standard instrument set, one id per instrument and one enum per type
/// (self-phase counters are the kSimPhaseCount ids from SelfPhase on).
enum class CounterId : std::uint8_t {
  EventsScheduled, EventsFired, EventsCancelled, TransfersStarted,
  TransfersFinished, TransferBytes, TasksReady, TasksStarted, TasksFinished,
  TasksRetried, TasksBlocked, StoragePuts, StorageErases, CleanupDeletes,
  LogMessages, ProcessorCrashes, TasksFailed, TasksAbandoned,
  WastedCpuSeconds, CacheHits, CacheMisses, WorkerBusySeconds,
  WorkerScenarios, RunnerBatches, RunnerBatchSeconds, RunnerCachedScenarios,
  ShardsCompleted, CampaignsCompleted, CampaignTasks, JobsSubmitted,
  JobsCompleted, JobsFailed, JobsCancelled, JobScenarios, SelfPhase,
};
enum class GaugeId : std::uint8_t {
  ActiveTransfers, BusyProcessors, QueueDepth, ResidentBytes, StorageObjects,
  CacheEntries, CacheEvictions, CacheBytes, RunnerJobs, JobsQueued,
};
enum class HistogramId : std::uint8_t { TransferSize, TaskWait, TaskExec };

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(CounterId::SelfPhase) + kSimPhaseCount;
inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(GaugeId::JobsQueued) + 1;
inline constexpr std::size_t kHistogramCount =
    static_cast<std::size_t>(HistogramId::TaskExec) + 1;

/// One scenario's effect on the standard instrument set, stored as data: a
/// MetricsSink that applies it ends bit-for-bit where replaying the
/// scenario's events through onEvent would, from any state.  Integer
/// changes are summed; every floating-point accumulation keeps its addends
/// in arrival order, because a pre-summed double rounds differently.
struct MetricsDelta {
  /// A gauge's end state: the last `set` (if any), then the sum of the
  /// integer `add`s that came after it.
  struct GaugeChange {
    bool set = false;
    double value = 0.0;
    std::int64_t shift = 0;
  };
  /// Per-bucket counts (empty: no observation) and the observed values in
  /// arrival order, which are the addends of `_sum`.
  struct HistogramChange {
    std::vector<std::uint64_t> buckets;
    std::vector<double> values;
  };

  std::size_t events = 0;  ///< Events folded in.
  std::array<std::uint64_t, kCounterCount> counts{};  ///< Integer increments.
  std::array<std::vector<double>, kCounterCount> addends;  ///< Float ones.
  std::array<GaugeChange, kGaugeCount> gauges{};
  std::array<HistogramChange, kHistogramCount> histograms;

  /// Heap bytes held by the addend and bucket vectors (their capacity).
  std::size_t heapBytes() const;
};

/// TaskReady / TaskExecStarted times awaiting their TaskStarted /
/// TaskFinished, keyed by task id.  Cleared on RunFinished: pairs never
/// span scenarios.
struct TaskPairing {
  std::unordered_map<std::uint32_t, double> readyAt;
  std::unordered_map<std::uint32_t, double> execAt;
};

/// Translates the event stream into the standard instrument set:
/// counters (events, transfers, bytes, task lifecycle, retries, storage
/// churn), gauges (active transfers, busy processors, queue depth, resident
/// bytes) and histograms (transfer sizes, task wait and execution times).
/// It needs no events: the runner hands it each scenario as one folded
/// MetricsDelta through apply().
class MetricsSink final : public Sink {
 public:
  explicit MetricsSink(MetricsRegistry& registry);

  void onEvent(const Event& event) override;
  /// Everything except per-credit transfer progress, which would only bump
  /// a counter nobody has asked for yet.
  bool accepts(EventKind kind) const override {
    return kind != EventKind::TransferProgress;
  }
  bool needsEvents() const override { return false; }
  /// Add one folded scenario to the instruments.  Costs the number of
  /// instruments plus the number of floating-point addends.
  void apply(const MetricsDelta& delta) override;

 private:
  /// The instruments by id: the live target of the event fold.
  struct Instruments {
    std::array<Counter*, kCounterCount> counters{};
    std::array<Gauge*, kGaugeCount> gauges{};
    std::array<Histogram*, kHistogramCount> histograms{};

    void count(CounterId id, std::uint64_t n = 1);
    void add(CounterId id, double amount);
    void set(GaugeId id, double value);
    void shift(GaugeId id, std::int64_t amount);
    void observe(HistogramId id, double value);
  };

  Instruments instruments_;
  TaskPairing pairing_;
};

/// Folds the events it receives into a MetricsDelta through the same event
/// interpretation as MetricsSink::onEvent, pairing task events within its
/// own stream — the runner's per-scenario recorder when the job's observer
/// needs no events.
class MetricsFold final : public Sink {
 public:
  void onEvent(const Event& event) override;
  bool accepts(EventKind kind) const override {
    return kind != EventKind::TransferProgress;
  }
  /// Move the delta out, its vectors shrunk to fit.
  MetricsDelta take();

 private:
  MetricsDelta delta_;
  TaskPairing pairing_;
};

}  // namespace mcsim::obs
