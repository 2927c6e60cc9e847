#include "mcsim/serve/protocol.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mcsim/dag/dax.hpp"
#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/runner/memo.hpp"
#include "mcsim/workflows/gallery.hpp"

namespace mcsim::serve {
namespace {

engine::DataMode parseDataMode(const std::string& name) {
  if (name == "remote-io" || name == "remote_io")
    return engine::DataMode::RemoteIO;
  if (name == "regular") return engine::DataMode::Regular;
  if (name == "cleanup" || name == "dynamic-cleanup" ||
      name == "dynamic_cleanup")
    return engine::DataMode::DynamicCleanup;
  throw std::runtime_error("serve: unknown mode '" + name +
                           "' (want remote-io|regular|cleanup)");
}

std::uint64_t asUint(const json::JsonValue& v, const char* what) {
  const double d = v.asNumber();
  if (d < 0) throw std::runtime_error(std::string("serve: ") + what +
                                      " must be >= 0");
  return static_cast<std::uint64_t>(d);
}

/// Specs whose workflow is built by code, not read from a file.
bool isGeneratorSpec(const std::string& spec) {
  return spec.rfind("montage:", 0) == 0 || spec == "cybershake" ||
         spec == "epigenomics" || spec == "inspiral" || spec == "sipht";
}

}  // namespace

dag::Workflow loadWorkflowSpec(const std::string& spec) {
  if (spec.rfind("montage:", 0) == 0)
    return montage::buildMontageWorkflow(std::stod(spec.substr(8)));
  if (spec == "cybershake") return workflows::buildCyberShake();
  if (spec == "epigenomics") return workflows::buildEpigenomics();
  if (spec == "inspiral") return workflows::buildInspiral();
  if (spec == "sipht") return workflows::buildSipht();
  return dag::readDaxFile(spec);
}

std::list<WorkflowStore::Interned>::iterator WorkflowStore::findLocked(
    const std::string& spec) {
  return std::find_if(lru_.begin(), lru_.end(),
                      [&](const Interned& e) { return e.spec == spec; });
}

ResolvedWorkflow WorkflowStore::resolve(const std::string& spec) {
  if (!isGeneratorSpec(spec))
    return {std::make_shared<const dag::Workflow>(loadWorkflowSpec(spec)), 0};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = findLocked(spec); it != lru_.end()) {
      lru_.splice(lru_.begin(), lru_, it);
      return it->resolved;
    }
  }
  auto workflow = std::make_shared<const dag::Workflow>(loadWorkflowSpec(spec));
  const std::size_t tasks = workflow->taskCount();
  if (tasks > kMaxTasks) return {std::move(workflow), 0};
  ResolvedWorkflow built{workflow, runner::fingerprintWorkflow(*workflow)};

  const std::lock_guard<std::mutex> lock(mutex_);
  // Another request may have interned the same spec while this one built.
  if (const auto it = findLocked(spec); it != lru_.end()) {
    lru_.splice(lru_.begin(), lru_, it);
    return it->resolved;
  }
  lru_.push_front({spec, built});
  tasks_ += tasks;
  while (lru_.size() > kMaxWorkflows || tasks_ > kMaxTasks) {
    tasks_ -= lru_.back().resolved.workflow->taskCount();
    lru_.pop_back();
  }
  return built;
}

std::size_t WorkflowStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::size_t WorkflowStore::residentTasks() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tasks_;
}

SubmitRequest parseSubmitRequest(const json::JsonValue& request,
                                 WorkflowStore* store) {
  if (!request.isObject())
    throw std::runtime_error("serve: submit 'request' must be an object");
  if (!request.has("workflow") || !request.at("workflow").isString())
    throw std::runtime_error("serve: submit needs a 'workflow' spec string");

  SubmitRequest out;
  const std::string& workflowSpec = request.at("workflow").asString();
  ResolvedWorkflow resolved =
      store != nullptr
          ? store->resolve(workflowSpec)
          : ResolvedWorkflow{std::make_shared<const dag::Workflow>(
                                 loadWorkflowSpec(workflowSpec)),
                             0};
  out.workflows.push_back(std::move(resolved.workflow));
  const dag::Workflow& wf = *out.workflows.back();

  if (!request.has("scenarios") || !request.at("scenarios").isArray() ||
      request.at("scenarios").asArray().empty())
    throw std::runtime_error(
        "serve: submit needs a non-empty 'scenarios' array");

  for (const json::JsonValue& s : request.at("scenarios").asArray()) {
    if (!s.isObject())
      throw std::runtime_error("serve: each scenario must be an object");
    runner::ScenarioSpec spec;
    spec.workflow = &wf;
    spec.workflowFingerprint = resolved.fingerprint;
    if (s.has("mode")) spec.config.mode = parseDataMode(s.at("mode").asString());
    if (s.has("processors")) {
      const double p = s.at("processors").asNumber();
      if (p < 1) throw std::runtime_error("serve: processors must be >= 1");
      spec.config.processors = static_cast<int>(p);
    }
    if (s.has("bandwidth_mbps"))
      spec.config.linkBandwidthBytesPerSec =
          s.at("bandwidth_mbps").asNumber() * 1e6 / 8.0;
    if (s.has("mtbf_seconds"))
      spec.config.faults.processor.mtbfSeconds =
          s.at("mtbf_seconds").asNumber();
    if (s.has("fault_seed"))
      spec.config.faults.seed = asUint(s.at("fault_seed"), "fault_seed");
    if (s.has("label")) spec.label = s.at("label").asString();
    out.scenarios.push_back(std::move(spec));
  }

  if (request.has("base_seed"))
    out.baseSeed = asUint(request.at("base_seed"), "base_seed");
  if (request.has("label")) out.label = request.at("label").asString();
  if (request.has("events")) out.events = request.at("events").asBool();
  return out;
}

json::JsonValue scenarioResultToJson(const runner::ScenarioResult& scenario,
                                     const cloud::Pricing& pricing) {
  const engine::ExecutionResult& r = scenario.result;
  const cloud::CostBreakdown cost =
      engine::computeCost(r, pricing, cloud::CpuBillingMode::Usage);

  json::JsonObject cost_obj;
  cost_obj["cpu_usd"] = cost.cpu.value();
  cost_obj["storage_usd"] = cost.storage.value();
  cost_obj["transfer_in_usd"] = cost.transferIn.value();
  cost_obj["transfer_out_usd"] = cost.transferOut.value();
  cost_obj["total_usd"] = cost.total().value();

  json::JsonObject o;
  o["index"] = scenario.index;
  o["label"] = scenario.label;
  o["from_cache"] = scenario.fromCache;
  o["mode"] = std::string(engine::dataModeName(r.mode));
  o["processors"] = r.processors;
  o["makespan_seconds"] = r.makespanSeconds;
  o["cpu_busy_seconds"] = r.cpuBusySeconds;
  o["bytes_in"] = r.bytesIn.value();
  o["bytes_out"] = r.bytesOut.value();
  o["storage_byte_seconds"] = r.storageByteSeconds;
  o["peak_storage_bytes"] = r.peakStorageBytes.value();
  o["tasks_executed"] = r.tasksExecuted;
  o["task_retries"] = r.taskRetries;
  o["tasks_failed"] = r.tasksFailed;
  o["completed"] = r.completed();
  o["cost"] = std::move(cost_obj);
  return json::JsonValue(std::move(o));
}

json::JsonValue scenarioResultsToJson(
    const std::vector<runner::ScenarioResult>& results,
    const cloud::Pricing& pricing) {
  json::JsonArray arr;
  arr.reserve(results.size());
  for (const runner::ScenarioResult& r : results)
    arr.push_back(scenarioResultToJson(r, pricing));
  return json::JsonValue(std::move(arr));
}

}  // namespace mcsim::serve
