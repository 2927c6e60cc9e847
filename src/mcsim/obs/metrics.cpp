#include "mcsim/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace mcsim::obs {
namespace {

/// Prometheus renders values as Go's %g; shortest-ish round-trip is fine.
std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::vector<double> powersOfTen(double lo, double hi) {
  std::vector<double> out;
  for (double b = lo; b <= hi * 1.0000001; b *= 10.0) out.push_back(b);
  return out;
}

/// Index of the first bucket whose upper bound is >= value (bounds.size()
/// is +Inf).
std::size_t bucketOf(const std::vector<double>& bounds, double value) {
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
}

}  // namespace

Histogram::Histogram(std::vector<double> upperBounds)
    : bounds_(std::move(upperBounds)), counts_(bounds_.size() + 1, 0) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: need at least one bucket bound");
  if (std::adjacent_find(bounds_.begin(), bounds_.end(),
                         [](double a, double b) { return a >= b; }) !=
      bounds_.end())
    throw std::invalid_argument("Histogram: bounds must be strictly ascending");
}

void Histogram::observe(double value) {
  ++counts_[bucketOf(bounds_, value)];
  ++count_;
  sum_ += value;
}

void Histogram::merge(const std::vector<std::uint64_t>& bucketCounts,
                      const std::vector<double>& values) {
  if (bucketCounts.size() != counts_.size())
    throw std::invalid_argument("Histogram: merged bucket count mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += bucketCounts[i];
  count_ += values.size();
  for (const double v : values) sum_ += v;
}

MetricsRegistry::Entry& MetricsRegistry::findOrCreate(const std::string& name,
                                                      const std::string& help,
                                                      Type type) {
  if (const auto it = byName_.find(name); it != byName_.end()) {
    Entry& entry = entries_[it->second];
    if (entry.type != type)
      throw std::invalid_argument("MetricsRegistry: '" + name +
                                  "' already registered as another type");
    return entry;
  }
  byName_.emplace(name, entries_.size());
  entries_.push_back(Entry{name, help, type, nullptr, nullptr, nullptr});
  return entries_.back();
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& help) {
  Entry& e = findOrCreate(name, help, Type::Counter);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& help) {
  Entry& e = findOrCreate(name, help, Type::Gauge);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& help,
                                      std::vector<double> upperBounds) {
  Entry& e = findOrCreate(name, help, Type::Histogram);
  if (!e.histogram)
    e.histogram = std::make_unique<Histogram>(std::move(upperBounds));
  return *e.histogram;
}

void MetricsRegistry::writePrometheus(std::ostream& os) const {
  for (const Entry& e : entries_) {
    os << "# HELP " << e.name << ' ' << e.help << '\n';
    switch (e.type) {
      case Type::Counter:
        os << "# TYPE " << e.name << " counter\n";
        os << e.name << ' ' << num(e.counter->value()) << '\n';
        break;
      case Type::Gauge:
        os << "# TYPE " << e.name << " gauge\n";
        os << e.name << ' ' << num(e.gauge->value()) << '\n';
        break;
      case Type::Histogram: {
        os << "# TYPE " << e.name << " histogram\n";
        const Histogram& h = *e.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.upperBounds().size(); ++i) {
          cumulative += h.bucketCounts()[i];
          os << e.name << "_bucket{le=\"" << num(h.upperBounds()[i]) << "\"} "
             << cumulative << '\n';
        }
        os << e.name << "_bucket{le=\"+Inf\"} " << h.count() << '\n';
        os << e.name << "_sum " << num(h.sum()) << '\n';
        os << e.name << "_count " << h.count() << '\n';
        break;
      }
    }
  }
}

namespace {

template <class Id>
constexpr std::size_t idx(Id id) {
  return static_cast<std::size_t>(id);
}

/// Bucket bounds of the standard histograms, by HistogramId.
const std::vector<double>& standardBounds(HistogramId id) {
  static const std::array<std::vector<double>, kHistogramCount> bounds = {
      powersOfTen(1e3, 1e10),
      std::vector<double>{0.1, 1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0,
                          43200.0},
      std::vector<double>{0.1, 1.0, 10.0, 60.0, 300.0, 1800.0, 7200.0,
                          43200.0}};
  return bounds[idx(id)];
}

/// The one interpretation of events as instrument changes.  `t` is either
/// the live instruments (MetricsSink::onEvent) or a delta under
/// construction (MetricsFold); `pairing` holds that fold's open task
/// ready/exec times.
template <class Target>
void foldEvent(const Event& event, Target& t, TaskPairing& pairing) {
  switch (kind(event)) {
    case EventKind::SimEventScheduled: t.count(CounterId::EventsScheduled); break;
    case EventKind::SimEventFired: t.count(CounterId::EventsFired); break;
    case EventKind::SimEventCancelled: t.count(CounterId::EventsCancelled); break;
    case EventKind::TransferStarted: {
      const auto& p = std::get<TransferStarted>(event.payload);
      t.count(CounterId::TransfersStarted);
      t.observe(HistogramId::TransferSize, p.bytes);
      t.set(GaugeId::ActiveTransfers, static_cast<double>(p.active));
      break;
    }
    case EventKind::TransferFinished: {
      const auto& p = std::get<TransferFinished>(event.payload);
      t.count(CounterId::TransfersFinished);
      t.add(CounterId::TransferBytes, p.bytes);
      t.shift(GaugeId::ActiveTransfers, -1);
      break;
    }
    case EventKind::LinkShareChanged:
      t.set(GaugeId::ActiveTransfers,
            static_cast<double>(
                std::get<LinkShareChanged>(event.payload).active));
      break;
    case EventKind::ProcessorClaimed: {
      const auto& p = std::get<ProcessorClaimed>(event.payload);
      t.set(GaugeId::BusyProcessors, p.busy);
      t.set(GaugeId::QueueDepth, static_cast<double>(p.queued));
      break;
    }
    case EventKind::ProcessorReleased: {
      const auto& p = std::get<ProcessorReleased>(event.payload);
      t.set(GaugeId::BusyProcessors, p.busy);
      t.set(GaugeId::QueueDepth, static_cast<double>(p.queued));
      break;
    }
    case EventKind::ProcessorQueued:
      t.set(GaugeId::QueueDepth,
            static_cast<double>(
                std::get<ProcessorQueued>(event.payload).queued));
      break;
    case EventKind::StorageFilePut: {
      const auto& p = std::get<StorageFilePut>(event.payload);
      t.count(CounterId::StoragePuts);
      t.set(GaugeId::ResidentBytes, p.residentBytes);
      t.set(GaugeId::StorageObjects, static_cast<double>(p.objects));
      break;
    }
    case EventKind::StorageFileErased: {
      const auto& p = std::get<StorageFileErased>(event.payload);
      t.count(CounterId::StorageErases);
      t.set(GaugeId::ResidentBytes, p.residentBytes);
      t.set(GaugeId::StorageObjects, static_cast<double>(p.objects));
      break;
    }
    case EventKind::StorageSampled: {
      const auto& p = std::get<StorageSampled>(event.payload);
      t.set(GaugeId::ResidentBytes, p.residentBytes);
      t.set(GaugeId::StorageObjects, static_cast<double>(p.objects));
      break;
    }
    case EventKind::TaskReady:
      t.count(CounterId::TasksReady);
      pairing.readyAt[std::get<TaskReady>(event.payload).task] = event.time;
      break;
    case EventKind::TaskStarted: {
      const auto& p = std::get<TaskStarted>(event.payload);
      t.count(CounterId::TasksStarted);
      if (const auto it = pairing.readyAt.find(p.task);
          it != pairing.readyAt.end()) {
        t.observe(HistogramId::TaskWait, event.time - it->second);
        pairing.readyAt.erase(it);
      }
      break;
    }
    case EventKind::TaskExecStarted:
      pairing.execAt[std::get<TaskExecStarted>(event.payload).task] =
          event.time;
      break;
    case EventKind::TaskFinished: {
      const auto& p = std::get<TaskFinished>(event.payload);
      t.count(CounterId::TasksFinished);
      if (const auto it = pairing.execAt.find(p.task);
          it != pairing.execAt.end()) {
        t.observe(HistogramId::TaskExec, event.time - it->second);
        pairing.execAt.erase(it);
      }
      break;
    }
    case EventKind::TaskRetried: t.count(CounterId::TasksRetried); break;
    case EventKind::TaskBlocked: t.count(CounterId::TasksBlocked); break;
    case EventKind::ProcessorCrashed:
      t.count(CounterId::ProcessorCrashes);
      t.add(CounterId::WastedCpuSeconds,
            std::get<ProcessorCrashed>(event.payload).wastedSeconds);
      break;
    case EventKind::TaskFailed: t.count(CounterId::TasksFailed); break;
    case EventKind::TaskAbandoned: t.count(CounterId::TasksAbandoned); break;
    case EventKind::FileCleanupDeleted: t.count(CounterId::CleanupDeletes); break;
    case EventKind::LogEmitted: t.count(CounterId::LogMessages); break;
    case EventKind::ScenarioCacheStats: {
      const auto& p = std::get<ScenarioCacheStats>(event.payload);
      t.count(CounterId::CacheHits, p.hits);
      t.count(CounterId::CacheMisses, p.misses);
      t.set(GaugeId::CacheEntries, static_cast<double>(p.entries));
      t.set(GaugeId::CacheEvictions, static_cast<double>(p.evictions));
      t.set(GaugeId::CacheBytes, static_cast<double>(p.bytes));
      break;
    }
    case EventKind::PhaseProfile: {
      const auto& p = std::get<PhaseProfile>(event.payload);
      if (p.phase < kSimPhaseCount)
        t.add(static_cast<CounterId>(idx(CounterId::SelfPhase) + p.phase),
              p.wallSeconds);
      break;
    }
    case EventKind::WorkerProfile: {
      const auto& p = std::get<WorkerProfile>(event.payload);
      t.add(CounterId::WorkerBusySeconds, p.busySeconds);
      t.count(CounterId::WorkerScenarios, p.scenarios);
      break;
    }
    case EventKind::RunnerBatchProfile: {
      const auto& p = std::get<RunnerBatchProfile>(event.payload);
      t.set(GaugeId::RunnerJobs, p.jobs);
      t.count(CounterId::RunnerBatches);
      t.add(CounterId::RunnerBatchSeconds, p.wallSeconds);
      t.count(CounterId::RunnerCachedScenarios, p.cached);
      break;
    }
    case EventKind::ShardCompleted: t.count(CounterId::ShardsCompleted); break;
    case EventKind::CampaignCompleted: {
      const auto& p = std::get<CampaignCompleted>(event.payload);
      t.count(CounterId::CampaignsCompleted);
      t.count(CounterId::CampaignTasks, p.tasks);
      break;
    }
    case EventKind::JobSubmitted: {
      const auto& p = std::get<JobSubmitted>(event.payload);
      t.count(CounterId::JobsSubmitted);
      t.set(GaugeId::JobsQueued, static_cast<double>(p.queued));
      break;
    }
    case EventKind::JobFinished: {
      const auto& p = std::get<JobFinished>(event.payload);
      switch (p.outcome) {
        case 2: t.count(CounterId::JobsCompleted); break;  // JobState::Completed
        case 3: t.count(CounterId::JobsFailed); break;     // JobState::Failed
        case 4: t.count(CounterId::JobsCancelled); break;  // JobState::Cancelled
        default: break;
      }
      t.count(CounterId::JobScenarios, p.scenarios);
      break;
    }
    case EventKind::RunFinished:
      // A scenario's unpaired ready/exec times (deadline cut-offs, tasks
      // abandoned after their retries) never pair: drop them with the run.
      pairing = {};
      break;
    default: break;  // progress, suspend/resume, run start, line items
  }
}

/// The fold target that records instrument changes into a MetricsDelta.
struct DeltaTarget {
  MetricsDelta& d;

  void count(CounterId id, std::uint64_t n = 1) { d.counts[idx(id)] += n; }
  void add(CounterId id, double amount) {
    d.addends[idx(id)].push_back(amount);
  }
  void set(GaugeId id, double value) {
    d.gauges[idx(id)] = {true, value, 0};
  }
  void shift(GaugeId id, std::int64_t amount) {
    d.gauges[idx(id)].shift += amount;
  }
  void observe(HistogramId id, double value) {
    MetricsDelta::HistogramChange& h = d.histograms[idx(id)];
    const std::vector<double>& bounds = standardBounds(id);
    if (h.buckets.empty()) h.buckets.assign(bounds.size() + 1, 0);
    ++h.buckets[bucketOf(bounds, value)];
    h.values.push_back(value);
  }
};

}  // namespace

std::size_t MetricsDelta::heapBytes() const {
  std::size_t bytes = 0;
  for (const std::vector<double>& a : addends)
    bytes += a.capacity() * sizeof(double);
  for (const HistogramChange& h : histograms)
    bytes += h.buckets.capacity() * sizeof(std::uint64_t) +
             h.values.capacity() * sizeof(double);
  return bytes;
}

void MetricsSink::Instruments::count(CounterId id, std::uint64_t n) {
  counters[idx(id)]->increment(static_cast<double>(n));
}

void MetricsSink::Instruments::add(CounterId id, double amount) {
  counters[idx(id)]->increment(amount);
}

void MetricsSink::Instruments::set(GaugeId id, double value) {
  gauges[idx(id)]->set(value);
}

void MetricsSink::Instruments::shift(GaugeId id, std::int64_t amount) {
  gauges[idx(id)]->add(static_cast<double>(amount));
}

void MetricsSink::Instruments::observe(HistogramId id, double value) {
  histograms[idx(id)]->observe(value);
}

MetricsSink::MetricsSink(MetricsRegistry& registry) {
  const auto counter = [&](CounterId id, const std::string& name,
                           const std::string& help) {
    instruments_.counters[idx(id)] = &registry.counter(name, help);
  };
  const auto gauge = [&](GaugeId id, const char* name, const char* help) {
    instruments_.gauges[idx(id)] = &registry.gauge(name, help);
  };
  const auto histogram = [&](HistogramId id, const char* name,
                             const char* help) {
    instruments_.histograms[idx(id)] =
        &registry.histogram(name, help, standardBounds(id));
  };
  // Registration order is exposition order.
  counter(CounterId::EventsScheduled, "mcsim_sim_events_scheduled_total",
          "Calendar events scheduled");
  counter(CounterId::EventsFired, "mcsim_sim_events_fired_total",
          "Calendar events executed");
  counter(CounterId::EventsCancelled, "mcsim_sim_events_cancelled_total",
          "Calendar events cancelled");
  counter(CounterId::TransfersStarted, "mcsim_transfers_started_total",
          "Link transfers begun");
  counter(CounterId::TransfersFinished, "mcsim_transfers_finished_total",
          "Link transfers completed");
  counter(CounterId::TransferBytes, "mcsim_transfer_bytes_total",
          "Bytes moved over the link");
  counter(CounterId::TasksReady, "mcsim_tasks_ready_total",
          "Tasks whose dependencies were satisfied");
  counter(CounterId::TasksStarted, "mcsim_tasks_started_total",
          "Tasks dispatched to a processor");
  counter(CounterId::TasksFinished, "mcsim_tasks_finished_total",
          "Tasks completed successfully");
  counter(CounterId::TasksRetried, "mcsim_tasks_retried_total",
          "Failure-injected re-executions");
  counter(CounterId::TasksBlocked, "mcsim_tasks_blocked_total",
          "Dispatches deferred on storage space");
  counter(CounterId::StoragePuts, "mcsim_storage_puts_total",
          "Objects created on cloud storage");
  counter(CounterId::StorageErases, "mcsim_storage_erases_total",
          "Objects removed from cloud storage");
  counter(CounterId::CleanupDeletes, "mcsim_cleanup_deletes_total",
          "Files removed by dynamic cleanup");
  counter(CounterId::LogMessages, "mcsim_log_messages_total",
          "Log records routed through the bus");
  counter(CounterId::ProcessorCrashes, "mcsim_processor_crashes_total",
          "Spot-style mid-task processor losses");
  counter(CounterId::TasksFailed, "mcsim_tasks_failed_total",
          "Tasks that exhausted their retry budget");
  counter(CounterId::TasksAbandoned, "mcsim_tasks_abandoned_total",
          "Tasks skipped because an ancestor permanently failed");
  counter(CounterId::WastedCpuSeconds, "mcsim_wasted_cpu_seconds_total",
          "Billed compute lost to crashes and deadline preemption");
  gauge(GaugeId::ActiveTransfers, "mcsim_link_active_transfers",
        "Transfers currently sharing the link");
  gauge(GaugeId::BusyProcessors, "mcsim_processors_busy",
        "Claimed processors");
  gauge(GaugeId::QueueDepth, "mcsim_processor_queue_depth",
        "Requests waiting for a processor");
  gauge(GaugeId::ResidentBytes, "mcsim_storage_resident_bytes",
        "Bytes currently on cloud storage");
  gauge(GaugeId::StorageObjects, "mcsim_storage_objects",
        "Objects currently on cloud storage");
  histogram(HistogramId::TransferSize, "mcsim_transfer_size_bytes",
            "Distribution of transfer sizes");
  histogram(HistogramId::TaskWait, "mcsim_task_wait_seconds",
            "Ready-to-dispatch wait per task");
  histogram(HistogramId::TaskExec, "mcsim_task_exec_seconds",
            "Computation time per task");
  // Self-profiling and runner instruments.
  counter(CounterId::CacheHits, "mcsim_cache_hits",
          "Scenarios served from the memo cache");
  counter(CounterId::CacheMisses, "mcsim_cache_misses",
          "Scenarios that had to be simulated");
  gauge(GaugeId::CacheEntries, "mcsim_cache_entries",
        "Memo-cache population after the batch");
  // Server-cache instruments.  Evictions and bytes are
  // cumulative/instantaneous in the event, so both are gauges.
  gauge(GaugeId::CacheEvictions, "mcsim_cache_evictions",
        "Cumulative LRU evictions over the cache lifetime");
  gauge(GaugeId::CacheBytes, "mcsim_cache_bytes",
        "Approximate resident memo-cache bytes");
  counter(CounterId::WorkerBusySeconds,
          "mcsim_runner_worker_busy_seconds_total",
          "Wall-clock runner workers spent simulating scenarios");
  counter(CounterId::WorkerScenarios, "mcsim_runner_worker_scenarios_total",
          "Scenarios executed by runner workers");
  gauge(GaugeId::RunnerJobs, "mcsim_runner_jobs",
        "Configured runner parallelism");
  counter(CounterId::RunnerBatches, "mcsim_runner_batches_total",
          "Runner batches executed");
  counter(CounterId::RunnerBatchSeconds, "mcsim_runner_batch_seconds_total",
          "End-to-end wall-clock across runner batches");
  counter(CounterId::RunnerCachedScenarios,
          "mcsim_runner_cached_scenarios_total",
          "Scenarios satisfied without simulation across batches");
  // Survey campaign instruments.
  counter(CounterId::ShardsCompleted, "mcsim_campaign_shards_completed_total",
          "Survey campaign shards simulated to completion");
  counter(CounterId::CampaignsCompleted, "mcsim_campaigns_completed_total",
          "Survey campaigns simulated to completion");
  counter(CounterId::CampaignTasks, "mcsim_campaign_tasks_total",
          "Tasks across completed survey campaigns");
  // Job-queue lifecycle instruments.
  counter(CounterId::JobsSubmitted, "mcsim_jobs_submitted_total",
          "Jobs admitted to the queue");
  counter(CounterId::JobsCompleted, "mcsim_jobs_completed_total",
          "Jobs that ran every scenario");
  counter(CounterId::JobsFailed, "mcsim_jobs_failed_total",
          "Jobs terminated by a scenario failure");
  counter(CounterId::JobsCancelled, "mcsim_jobs_cancelled_total",
          "Jobs cancelled before completion");
  counter(CounterId::JobScenarios, "mcsim_job_scenarios_total",
          "Scenarios across terminally resolved jobs");
  gauge(GaugeId::JobsQueued, "mcsim_jobs_queued", "Jobs waiting for a worker");
  // Simulator wall-clock per internal phase, indexed by obs::SimPhase.
  for (std::size_t i = 0; i < kSimPhaseCount; ++i) {
    const std::string phase = simPhaseName(static_cast<SimPhase>(i));
    counter(static_cast<CounterId>(idx(CounterId::SelfPhase) + i),
            "mcsim_self_" + phase + "_seconds_total",
            "Simulator wall-clock spent in the " + phase + " phase");
  }
}

void MetricsSink::onEvent(const Event& event) {
  foldEvent(event, instruments_, pairing_);
}

void MetricsSink::apply(const MetricsDelta& delta) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    Counter& c = *instruments_.counters[i];
    if (delta.counts[i] != 0)
      c.increment(static_cast<double>(delta.counts[i]));
    for (const double a : delta.addends[i]) c.increment(a);
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    const MetricsDelta::GaugeChange& g = delta.gauges[i];
    if (g.set) instruments_.gauges[i]->set(g.value);
    if (g.shift != 0) instruments_.gauges[i]->add(static_cast<double>(g.shift));
  }
  for (std::size_t i = 0; i < kHistogramCount; ++i) {
    const MetricsDelta::HistogramChange& h = delta.histograms[i];
    if (!h.values.empty())
      instruments_.histograms[i]->merge(h.buckets, h.values);
  }
}

void MetricsFold::onEvent(const Event& event) {
  ++delta_.events;
  DeltaTarget target{delta_};
  foldEvent(event, target, pairing_);
}

MetricsDelta MetricsFold::take() {
  for (std::vector<double>& a : delta_.addends) a.shrink_to_fit();
  for (MetricsDelta::HistogramChange& h : delta_.histograms)
    h.values.shrink_to_fit();
  pairing_ = {};
  return std::exchange(delta_, {});
}

}  // namespace mcsim::obs
