#include "mcsim/serve/service.hpp"

#include <exception>
#include <optional>
#include <sstream>
#include <utility>

#include "mcsim/obs/jsonl.hpp"
#include "mcsim/serve/protocol.hpp"
#include "mcsim/version.hpp"

namespace mcsim::serve {
namespace {

json::JsonValue errorResponse(const json::JsonValue& request,
                              const std::string& what,
                              bool retryable = false) {
  json::JsonObject o;
  o["ok"] = false;
  o["error"] = what;
  if (retryable) o["retryable"] = true;
  if (request.has("id")) o["id"] = request.at("id");
  return json::JsonValue(std::move(o));
}

json::JsonObject okResponse(const json::JsonValue& request) {
  json::JsonObject o;
  o["ok"] = true;
  if (request.has("id")) o["id"] = request.at("id");
  return o;
}

}  // namespace

struct SimulationService::Session {
  std::ostringstream os;
  std::optional<obs::JsonlSink> jsonl;  ///< Engaged when events requested.
  obs::FanOutSink fan;                  ///< jsonl (maybe) + shared metrics.
};

SimulationService::SimulationService(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache),
      metricsSink_(registry_),
      sharedMetrics_(metricsSink_),
      queue_([this] {
        runner::JobQueueOptions qo;
        qo.workers = options_.workers;
        qo.maxQueuedJobs = options_.maxQueuedJobs;
        qo.cache = &cache_;
        qo.observer = &sharedMetrics_;
        return qo;
      }()) {}

SimulationService::~SimulationService() = default;

runner::JobId SimulationService::parseJobId(const json::JsonValue& request) {
  if (!request.has("job") || !request.at("job").isNumber())
    throw std::runtime_error("serve: verb needs a numeric 'job' field");
  const double id = request.at("job").asNumber();
  if (id < 1) throw std::runtime_error("serve: 'job' must be >= 1");
  return static_cast<runner::JobId>(id);
}

json::JsonValue SimulationService::handle(const json::JsonValue& request) {
  try {
    if (!request.isObject() || !request.has("verb") ||
        !request.at("verb").isString())
      return errorResponse(request, "request needs a string 'verb'");
    const std::string& verb = request.at("verb").asString();
    if (verb == "submit") return handleSubmit(request);
    if (verb == "status") return handleStatus(request);
    if (verb == "result") return handleResult(request);
    if (verb == "cancel") return handleCancel(request);
    if (verb == "metrics") {
      json::JsonObject o = okResponse(request);
      o["metrics"] = metricsText();
      return json::JsonValue(std::move(o));
    }
    if (verb == "ping") {
      json::JsonObject o = okResponse(request);
      o["service"] = std::string("mcsim-serve");
      o["version"] = versionString();
      o["workers"] = options_.workers;
      o["queued_jobs"] = queue_.queuedJobs();
      o["live_jobs"] = queue_.liveJobs();
      return json::JsonValue(std::move(o));
    }
    if (verb == "shutdown") {
      // The transport layer owns the actual stop; acknowledging here keeps
      // the service transport-independent.
      json::JsonObject o = okResponse(request);
      o["shutting_down"] = true;
      return json::JsonValue(std::move(o));
    }
    return errorResponse(request, "unknown verb '" + verb + "'");
  } catch (const std::exception& e) {
    return errorResponse(request, e.what());
  }
}

json::JsonValue SimulationService::handleSubmit(
    const json::JsonValue& request) {
  if (!request.has("request"))
    return errorResponse(request, "submit needs a 'request' object");
  SubmitRequest sub = parseSubmitRequest(request.at("request"), &workflows_);

  auto session = std::make_unique<Session>();
  if (sub.events) session->jsonl.emplace(session->os);
  if (session->jsonl) session->fan.add(&*session->jsonl);
  session->fan.add(&sharedMetrics_);

  runner::JobRequest job;
  job.scenarios = std::move(sub.scenarios);
  job.options.baseSeed = sub.baseSeed;
  job.options.observer = &session->fan;
  job.label = std::move(sub.label);
  job.keepAlive = std::move(sub.workflows);
  const std::size_t total = job.scenarios.size();

  const std::optional<runner::JobId> id = queue_.trySubmit(std::move(job));
  if (!id) return errorResponse(request, "queue full", /*retryable=*/true);
  {
    const std::lock_guard<std::mutex> lock(sessionsMutex_);
    sessions_.emplace(*id, std::move(session));
  }

  json::JsonObject o = okResponse(request);
  o["job"] = *id;
  o["scenarios"] = total;
  o["queued_jobs"] = queue_.queuedJobs();
  return json::JsonValue(std::move(o));
}

json::JsonValue SimulationService::handleStatus(
    const json::JsonValue& request) {
  const runner::JobStatus status = queue_.status(parseJobId(request));
  json::JsonObject o = okResponse(request);
  o["job"] = status.id;
  o["state"] = std::string(runner::jobStateName(status.state));
  o["completed_scenarios"] = status.completedScenarios;
  o["total_scenarios"] = status.totalScenarios;
  o["label"] = status.label;
  return json::JsonValue(std::move(o));
}

json::JsonValue SimulationService::handleResult(
    const json::JsonValue& request) {
  const runner::JobId id = parseJobId(request);
  const runner::JobOutcome outcome = queue_.wait(id);

  std::unique_ptr<Session> session;
  {
    const std::lock_guard<std::mutex> lock(sessionsMutex_);
    if (const auto it = sessions_.find(id); it != sessions_.end()) {
      session = std::move(it->second);
      sessions_.erase(it);
    }
  }

  json::JsonObject o = okResponse(request);
  o["job"] = outcome.id;
  o["state"] = std::string(runner::jobStateName(outcome.state));
  o["label"] = outcome.label;
  o["cached_scenarios"] = outcome.cachedScenarios;
  if (outcome.state == runner::JobState::Completed)
    o["results"] = scenarioResultsToJson(outcome.results, options_.pricing);
  if (!outcome.error.empty()) o["error"] = outcome.error;
  if (session && session->jsonl) o["events_jsonl"] = session->os.str();
  return json::JsonValue(std::move(o));
}

json::JsonValue SimulationService::handleCancel(
    const json::JsonValue& request) {
  const runner::JobId id = parseJobId(request);
  json::JsonObject o = okResponse(request);
  o["job"] = id;
  o["cancelled"] = queue_.cancel(id);
  return json::JsonValue(std::move(o));
}

std::string SimulationService::metricsText() {
  // Read the cache and queue before taking the metrics lock: the queue emits
  // lifecycle events into that lock while holding its own mutex, so taking
  // them in the other order here could deadlock a scrape against a submit.
  const runner::MemoStats stats = cache_.stats();
  const std::size_t queued = queue_.queuedJobs();
  const std::lock_guard<std::mutex> lock(sharedMetrics_.mutex());
  // Event-driven instruments are only as fresh as the last finalized job;
  // refresh the instantaneous ones at scrape time.  Names and help strings
  // mirror the MetricsSink registrations, so these resolve to the same
  // instruments the event path updates.
  registry_
      .gauge("mcsim_cache_entries", "Memo-cache population after the batch")
      .set(static_cast<double>(stats.entries));
  registry_
      .gauge("mcsim_cache_bytes", "Approximate resident memo-cache bytes")
      .set(static_cast<double>(stats.bytes));
  registry_
      .gauge("mcsim_cache_evictions",
             "Cumulative LRU evictions over the cache lifetime")
      .set(static_cast<double>(stats.evictions));
  registry_.gauge("mcsim_jobs_queued", "Jobs waiting for a worker")
      .set(static_cast<double>(queued));
  std::ostringstream os;
  registry_.writePrometheus(os);
  return os.str();
}

}  // namespace mcsim::serve
