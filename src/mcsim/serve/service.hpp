// SimulationService: the transport-independent core of `mcsim serve`.
//
// One service owns the whole server-side stack — a WorkflowStore that
// interns generator-spec workflows with their fingerprints, a
// capacity-bounded ScenarioMemoCache shared across requests, a persistent
// runner::JobQueue, and a MetricsRegistry fed by a mutex-wrapped
// MetricsSink that observes both the queue's lifecycle events and every
// job's merged scenario stream.
// handle() maps one protocol request (see protocol.hpp) to one response;
// the daemon, the CLI client loopback tests and the unit tests all talk to
// this same object, so the socket layer stays a dumb byte pump.
//
// Isolation: each submit gets a private telemetry session — its merged
// event stream is captured per job (JSONL, returned with the result when
// the submit asked for "events":true) and never interleaves with another
// request's stream.  The shared metrics sink sits behind obs::MutexSink,
// so the Prometheus exposition aggregates all requests while each job's
// own stream stays byte-deterministic.  Each scenario reaches it in one
// call under one lock, so the MetricsSink's per-task wait/exec pairing
// never sees two scenarios interleaved.
//
// The session's fan-out needs events only when the submit asked for them.
// Otherwise the runner folds each scenario into an obs::MetricsDelta and
// the memo cache keeps the delta, not the stream: a cache hit costs a
// store lookup, a cache lookup, a copy of the ExecutionResult and one
// application of the shared entry's delta — no workflow build, no
// fingerprint, no event replay.  An "events":true submit captures, caches
// and replays the stream, and leaves the same exposition.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "mcsim/cloud/pricing.hpp"
#include "mcsim/cloud/provider.hpp"
#include "mcsim/obs/metrics.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/runner/memo.hpp"
#include "mcsim/serve/protocol.hpp"
#include "mcsim/util/json.hpp"

namespace mcsim::serve {

struct ServiceOptions {
  /// Worker threads in the persistent pool; 0 runs jobs inline in the
  /// connection thread (useful for tests and tiny deployments).
  int workers = runner::defaultJobs();
  /// Backpressure bound: submits beyond this many queued jobs are refused
  /// with {"ok":false,"error":"queue full","retryable":true}.
  std::size_t maxQueuedJobs = 64;
  /// Server memo cache bounds; the defaults keep a warm working set while
  /// holding a long-lived daemon to a predictable footprint.
  runner::MemoCacheOptions cache{/*maxEntries=*/256,
                                 /*maxBytes=*/256u << 20};
  /// Pricing used for the cost block of every result.
  cloud::Pricing pricing = cloud::ProviderCatalog::builtin().pricing("amazon-2008");
};

class SimulationService {
 public:
  explicit SimulationService(ServiceOptions options = {});
  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;
  ~SimulationService();

  /// Handle one protocol request.  Never throws: malformed or failing
  /// requests come back as {"ok":false,"error":...}.  Thread-safe; the
  /// "result" verb blocks its calling thread until the job is terminal.
  json::JsonValue handle(const json::JsonValue& request);

  /// The Prometheus text exposition, refreshed with the cache's
  /// instantaneous entries/bytes/evictions at scrape time.
  std::string metricsText();

  const ServiceOptions& options() const { return options_; }
  runner::JobQueue& queue() { return queue_; }
  const runner::ScenarioMemoCache& cache() const { return cache_; }
  const WorkflowStore& workflows() const { return workflows_; }

 private:
  /// Per-job telemetry session: the job's private merged stream, captured
  /// as JSONL when the submit asked for events, always teed into the shared
  /// (mutex-guarded) metrics sink — as folded deltas when nothing else in
  /// the session needs events.
  struct Session;

  json::JsonValue handleSubmit(const json::JsonValue& request);
  json::JsonValue handleStatus(const json::JsonValue& request);
  json::JsonValue handleResult(const json::JsonValue& request);
  json::JsonValue handleCancel(const json::JsonValue& request);
  static runner::JobId parseJobId(const json::JsonValue& request);

  ServiceOptions options_;
  WorkflowStore workflows_;
  runner::ScenarioMemoCache cache_;
  obs::MetricsRegistry registry_;
  obs::MetricsSink metricsSink_;
  obs::MutexSink sharedMetrics_;  ///< Serializes all registry writes.

  std::mutex sessionsMutex_;
  std::map<runner::JobId, std::unique_ptr<Session>> sessions_;

  /// Declared last: the queue's destructor joins workers that may still be
  /// merging job streams into the sessions above.
  runner::JobQueue queue_;
};

}  // namespace mcsim::serve
