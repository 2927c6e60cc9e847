// SimulationService: the transport-independent server core.  The headline
// contracts under test: per-request results byte-identical to an equivalent
// runScenarios batch (including with >= 8 concurrent in-flight requests),
// backpressure as a retryable refusal, per-request event isolation, and a
// live Prometheus exposition.
#include "mcsim/serve/service.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mcsim/dag/dax.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/serve/protocol.hpp"

namespace mcsim::serve {
namespace {

json::JsonValue submitVerb(const std::string& workflow,
                           const std::vector<int>& procs,
                           bool events = false) {
  json::JsonArray scenarios;
  for (int p : procs) {
    json::JsonObject s;
    s["mode"] = std::string("regular");
    s["processors"] = p;
    scenarios.push_back(json::JsonValue(std::move(s)));
  }
  json::JsonObject request;
  request["workflow"] = workflow;
  request["scenarios"] = std::move(scenarios);
  if (events) request["events"] = true;
  json::JsonObject verb;
  verb["verb"] = std::string("submit");
  verb["request"] = std::move(request);
  return json::JsonValue(std::move(verb));
}

json::JsonValue jobVerb(const std::string& verb, double job) {
  json::JsonObject o;
  o["verb"] = verb;
  o["job"] = job;
  return json::JsonValue(std::move(o));
}

/// Strip the `from_cache` provenance flag from a results array: whether a
/// request was served from the shared server cache depends on how warm it
/// was, but every simulated value must stay byte-identical regardless.
json::JsonValue scrubProvenance(const json::JsonValue& results) {
  json::JsonArray scrubbed;
  for (const json::JsonValue& r : results.asArray()) {
    json::JsonObject o = r.asObject();
    o.erase("from_cache");
    scrubbed.push_back(json::JsonValue(std::move(o)));
  }
  return json::JsonValue(std::move(scrubbed));
}

/// The batch-mode golden for a submit of `procs` against `workflow`.
std::string batchGolden(const std::string& workflow,
                        const std::vector<int>& procs,
                        const cloud::Pricing& pricing) {
  const dag::Workflow wf = loadWorkflowSpec(workflow);
  std::vector<runner::ScenarioSpec> specs;
  for (int p : procs) {
    runner::ScenarioSpec spec;
    spec.workflow = &wf;
    spec.config.processors = p;
    specs.push_back(spec);
  }
  return json::dumpJson(scrubProvenance(
      scenarioResultsToJson(runner::runScenarios(specs), pricing)));
}

TEST(SimulationService, PingAndUnknownVerb) {
  SimulationService service({.workers = 0});
  json::JsonObject ping;
  ping["verb"] = std::string("ping");
  ping["id"] = 7;
  const json::JsonValue pong = service.handle(json::JsonValue(ping));
  EXPECT_TRUE(pong.at("ok").asBool());
  EXPECT_EQ(pong.at("id").asNumber(), 7.0);
  EXPECT_EQ(pong.at("service").asString(), "mcsim-serve");

  json::JsonObject bogus;
  bogus["verb"] = std::string("frobnicate");
  const json::JsonValue err = service.handle(json::JsonValue(bogus));
  EXPECT_FALSE(err.at("ok").asBool());
  EXPECT_NE(err.at("error").asString().find("unknown verb"),
            std::string::npos);
  // handle() never throws, even on non-object requests.
  EXPECT_FALSE(service.handle(json::JsonValue(3.0)).at("ok").asBool());
}

TEST(SimulationService, SubmitResultMatchesBatchGolden) {
  SimulationService service({.workers = 2});
  const std::vector<int> procs = {1, 4};
  const json::JsonValue submitted =
      service.handle(submitVerb("montage:0.2", procs));
  ASSERT_TRUE(submitted.at("ok").asBool());
  EXPECT_EQ(submitted.at("scenarios").asNumber(), 2.0);

  const json::JsonValue reply =
      service.handle(jobVerb("result", submitted.at("job").asNumber()));
  ASSERT_TRUE(reply.at("ok").asBool());
  EXPECT_EQ(reply.at("state").asString(), "completed");
  EXPECT_EQ(json::dumpJson(scrubProvenance(reply.at("results"))),
            batchGolden("montage:0.2", procs, service.options().pricing));
}

TEST(SimulationService, EightConcurrentRequestsStayByteIdentical) {
  SimulationService service({.workers = 4, .maxQueuedJobs = 32});
  const std::vector<int> procs = {1, 2, 4};
  const std::string golden =
      batchGolden("montage:0.2", procs, service.options().pricing);

  constexpr int kRequests = 8;
  std::vector<double> jobs(kRequests, 0.0);
  for (int i = 0; i < kRequests; ++i) {
    const json::JsonValue submitted =
        service.handle(submitVerb("montage:0.2", procs));
    ASSERT_TRUE(submitted.at("ok").asBool()) << "request " << i;
    jobs[i] = submitted.at("job").asNumber();
  }
  // All eight are in flight before the first result is claimed; claim them
  // from concurrent threads like eight independent clients would.
  std::vector<std::string> rendered(kRequests);
  std::vector<std::thread> clients;
  for (int i = 0; i < kRequests; ++i) {
    clients.emplace_back([&, i] {
      const json::JsonValue reply =
          service.handle(jobVerb("result", jobs[i]));
      if (reply.at("ok").asBool() &&
          reply.at("state").asString() == "completed")
        rendered[i] = json::dumpJson(scrubProvenance(reply.at("results")));
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(rendered[i], golden);
  }
}

/// An observer that parks the worker merging its job's events until the
/// test opens it.  Only that one worker calls onEvent.
struct GateSink final : obs::Sink {
  void onEvent(const obs::Event&) override {
    if (std::exchange(first, false)) entered.set_value();
    opened.wait();
  }
  bool first = true;
  std::promise<void> entered;
  std::promise<void> open;
  std::shared_future<void> opened = open.get_future().share();
};

TEST(SimulationService, BackpressureIsRetryable) {
  // One worker and a depth-1 admission queue.  Hold the worker inside a job
  // whose observer blocks, fill the one admission slot, and the next submit
  // must come back as a retryable refusal.
  SimulationService service({.workers = 1, .maxQueuedJobs = 1});
  const dag::Workflow wf = loadWorkflowSpec("montage:0.2");
  GateSink gate;
  runner::JobRequest held;
  held.scenarios.push_back({&wf, {}, "held"});
  held.options.observer = &gate;
  const runner::JobId heldId = service.queue().submit(std::move(held));
  gate.entered.get_future().wait();

  const json::JsonValue queued =
      service.handle(submitVerb("montage:0.2", {1}));
  ASSERT_TRUE(queued.at("ok").asBool());
  const json::JsonValue refused =
      service.handle(submitVerb("montage:0.2", {2}));
  EXPECT_FALSE(refused.at("ok").asBool());
  EXPECT_EQ(refused.at("error").asString(), "queue full");
  EXPECT_TRUE(refused.at("retryable").asBool());

  // Every accepted job still finishes.
  gate.open.set_value();
  EXPECT_EQ(service.queue().wait(heldId).state, runner::JobState::Completed);
  const json::JsonValue reply =
      service.handle(jobVerb("result", queued.at("job").asNumber()));
  EXPECT_TRUE(reply.at("ok").asBool());
  EXPECT_EQ(reply.at("state").asString(), "completed");
}

TEST(SimulationService, EventsComeBackIsolatedPerRequest) {
  SimulationService service({.workers = 2});
  const json::JsonValue with =
      service.handle(submitVerb("montage:0.2", {1}, /*events=*/true));
  const json::JsonValue without =
      service.handle(submitVerb("montage:0.2", {2}, /*events=*/false));
  ASSERT_TRUE(with.at("ok").asBool());
  ASSERT_TRUE(without.at("ok").asBool());

  const json::JsonValue withReply =
      service.handle(jobVerb("result", with.at("job").asNumber()));
  const json::JsonValue withoutReply =
      service.handle(jobVerb("result", without.at("job").asNumber()));
  ASSERT_TRUE(withReply.at("ok").asBool());
  // Only the events:true request carries a stream, and it is non-empty
  // JSONL (every line is an event object).
  ASSERT_TRUE(withReply.has("events_jsonl"));
  const std::string& jsonl = withReply.at("events_jsonl").asString();
  EXPECT_FALSE(jsonl.empty());
  EXPECT_EQ(jsonl.front(), '{');
  EXPECT_FALSE(withoutReply.has("events_jsonl"));
}

TEST(SimulationService, StatusAndCancelVerbs) {
  SimulationService service({.workers = 1, .maxQueuedJobs = 8});
  const json::JsonValue a = service.handle(submitVerb("montage:0.2", {1, 2}));
  const json::JsonValue b = service.handle(submitVerb("montage:0.2", {1, 2}));
  ASSERT_TRUE(a.at("ok").asBool());
  ASSERT_TRUE(b.at("ok").asBool());

  const json::JsonValue status =
      service.handle(jobVerb("status", b.at("job").asNumber()));
  ASSERT_TRUE(status.at("ok").asBool());
  EXPECT_EQ(status.at("total_scenarios").asNumber(), 2.0);

  service.handle(jobVerb("cancel", b.at("job").asNumber()));
  const json::JsonValue bReply =
      service.handle(jobVerb("result", b.at("job").asNumber()));
  ASSERT_TRUE(bReply.at("ok").asBool());
  // b was either cancelled in time or had already completed; both are
  // legitimate, but nothing in between.
  const std::string& state = bReply.at("state").asString();
  EXPECT_TRUE(state == "cancelled" || state == "completed") << state;

  EXPECT_EQ(service
                .handle(jobVerb("result", a.at("job").asNumber()))
                .at("state")
                .asString(),
            "completed");

  // result on a retired id is an error reply, not a crash.
  EXPECT_FALSE(service.handle(jobVerb("result", a.at("job").asNumber()))
                   .at("ok")
                   .asBool());
  EXPECT_FALSE(service.handle(jobVerb("status", 0)).at("ok").asBool());
}

TEST(SimulationService, MetricsExposeCacheAndJobInstruments) {
  SimulationService service(
      {.workers = 2, .cache = runner::MemoCacheOptions{4, 0}});
  // Two identical submits: the second is served from the bounded cache.
  for (int i = 0; i < 2; ++i) {
    const json::JsonValue submitted =
        service.handle(submitVerb("montage:0.2", {1, 2}));
    ASSERT_TRUE(submitted.at("ok").asBool());
    service.handle(jobVerb("result", submitted.at("job").asNumber()));
  }
  const std::string text = service.metricsText();
  EXPECT_NE(text.find("mcsim_cache_hits 2"), std::string::npos) << text;
  EXPECT_NE(text.find("mcsim_cache_misses 2"), std::string::npos) << text;
  EXPECT_NE(text.find("mcsim_cache_entries 2"), std::string::npos) << text;
  EXPECT_NE(text.find("mcsim_cache_evictions"), std::string::npos);
  EXPECT_NE(text.find("mcsim_cache_bytes"), std::string::npos);
  EXPECT_NE(text.find("mcsim_jobs_submitted_total 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mcsim_jobs_completed_total 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mcsim_job_scenarios_total 4"), std::string::npos)
      << text;
  EXPECT_NE(text.find("mcsim_jobs_queued 0"), std::string::npos) << text;
}

TEST(SimulationService, MetricsScrapeReadsQueueAndCacheOutsideItsLock) {
  // Scrapes race submits: the scrape must not hold the metrics lock while
  // it waits for the queue, which emits lifecycle events into that lock.
  SimulationService service({.workers = 2});
  std::thread scraper([&] {
    for (int i = 0; i < 200; ++i) (void)service.metricsText();
  });
  for (int i = 0; i < 20; ++i) {
    const json::JsonValue submitted =
        service.handle(submitVerb("montage:0.2", {1 + i % 4}));
    ASSERT_TRUE(submitted.at("ok").asBool());
    service.handle(jobVerb("result", submitted.at("job").asNumber()));
  }
  scraper.join();
  EXPECT_NE(service.metricsText().find("mcsim_jobs_completed_total 20"),
            std::string::npos);
}

/// The value of the sample `name` in a Prometheus exposition.
double sample(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const std::size_t at = text.find(key);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no sample " << name;
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::stod(text.substr(at + key.size()));
}

/// A one-scenario montage:1 submit with its own fault seed: no faults, but
/// a distinct cache key, so every job simulates.
json::JsonValue seededSubmit(std::uint64_t faultSeed) {
  json::JsonObject scenario;
  scenario["mode"] = std::string("regular");
  scenario["processors"] = 8;
  scenario["fault_seed"] = faultSeed;
  json::JsonObject request;
  request["workflow"] = std::string("montage:1");
  request["scenarios"] = json::JsonArray{json::JsonValue(std::move(scenario))};
  json::JsonObject verb;
  verb["verb"] = std::string("submit");
  verb["request"] = std::move(request);
  return json::JsonValue(std::move(verb));
}

TEST(SimulationService, ConcurrentJobsKeepTaskHistogramsExact) {
  // The metrics sink pairs each task's ready/start and exec/finish events by
  // task id.  Jobs finishing at once must not interleave their streams in
  // it, or observations pair across scenarios and go missing.
  constexpr int kThreads = 3;
  constexpr int kJobsPerThread = 60;
  const auto exposition = [&](int workers) {
    SimulationService service({.workers = workers});
    const auto client = [&](int t) {
      for (int j = 0; j < kJobsPerThread; ++j) {
        const json::JsonValue submitted = service.handle(
            seededSubmit(static_cast<std::uint64_t>(t * kJobsPerThread + j + 1)));
        ASSERT_TRUE(submitted.at("ok").asBool());
        const json::JsonValue reply =
            service.handle(jobVerb("result", submitted.at("job").asNumber()));
        ASSERT_EQ(reply.at("state").asString(), "completed");
      }
    };
    if (workers == 0) {
      for (int t = 0; t < kThreads; ++t) client(t);
    } else {
      std::vector<std::thread> clients;
      for (int t = 0; t < kThreads; ++t) clients.emplace_back(client, t);
      for (std::thread& c : clients) c.join();
    }
    return service.metricsText();
  };

  const std::string pooled = exposition(4);
  const std::string serial = exposition(0);
  EXPECT_EQ(sample(pooled, "mcsim_task_wait_seconds_count"),
            sample(pooled, "mcsim_tasks_started_total"));
  EXPECT_EQ(sample(pooled, "mcsim_task_exec_seconds_count"),
            sample(pooled, "mcsim_tasks_finished_total"));
  EXPECT_EQ(sample(pooled, "mcsim_tasks_started_total"),
            sample(serial, "mcsim_tasks_started_total"));
  for (const char* sum :
       {"mcsim_task_wait_seconds_sum", "mcsim_task_exec_seconds_sum"}) {
    SCOPED_TRACE(sum);
    const double expected = sample(serial, sum);
    EXPECT_GT(expected, 0.0);
    EXPECT_NEAR(sample(pooled, sum), expected, 1e-9 * expected);
  }
}

/// A submit of `workflow` in `mode` on each of `procs`; a non-zero
/// `faultSeed` adds a 10-hour processor MTBF with that seed.
json::JsonValue scriptSubmit(const std::string& workflow,
                             const std::string& mode,
                             const std::vector<int>& procs,
                             std::uint64_t faultSeed, bool events) {
  json::JsonArray scenarios;
  for (int p : procs) {
    json::JsonObject s;
    s["mode"] = mode;
    s["processors"] = p;
    if (faultSeed != 0) {
      s["mtbf_seconds"] = 10.0 * 3600.0;
      s["fault_seed"] = faultSeed;
    }
    scenarios.push_back(json::JsonValue(std::move(s)));
  }
  json::JsonObject request;
  request["workflow"] = workflow;
  request["scenarios"] = std::move(scenarios);
  if (events) request["events"] = true;
  json::JsonObject verb;
  verb["verb"] = std::string("submit");
  verb["request"] = std::move(request);
  return json::JsonValue(std::move(verb));
}

/// The exposition without its mcsim_cache_bytes sample, which measures
/// what the entries hold rather than what the requests did.
std::string withoutCacheBytes(const std::string& text) {
  std::istringstream in(text);
  std::string out, line;
  while (std::getline(in, line))
    if (line.rfind("mcsim_cache_bytes ", 0) != 0) out += line + "\n";
  return out;
}

TEST(SimulationService, FoldedMetricsMatchEventReplay) {
  // Plain submits fold each scenario into a metrics delta; "events":true
  // submits capture and replay the stream.  One fixed script of misses,
  // hits, in-batch duplicates, faulted scenarios and gallery workflows must
  // leave the same exposition either way.
  struct Step {
    const char* workflow;
    const char* mode;
    std::vector<int> procs;
    std::uint64_t faultSeed;
  };
  const std::vector<Step> script = {
      {"montage:1", "regular", {8, 16, 8}, 0},
      {"montage:1", "regular", {8}, 0},
      {"montage:2", "remote-io", {16}, 7},
      {"sipht", "cleanup", {4}, 0},
      {"cybershake", "regular", {8, 8}, 0},
      {"montage:2", "remote-io", {16}, 7},
      {"epigenomics", "remote-io", {4}, 0},
      {"montage:1", "cleanup", {32, 16}, 3},
      {"inspiral", "regular", {4, 8}, 0},
      {"montage:1", "regular", {16}, 0},
  };
  const auto exposition = [&](int workers, bool events) {
    SimulationService service({.workers = workers});
    for (const Step& step : script) {
      const json::JsonValue submitted = service.handle(scriptSubmit(
          step.workflow, step.mode, step.procs, step.faultSeed, events));
      EXPECT_TRUE(submitted.at("ok").asBool());
      const json::JsonValue reply =
          service.handle(jobVerb("result", submitted.at("job").asNumber()));
      EXPECT_EQ(reply.at("state").asString(), "completed");
      EXPECT_EQ(reply.has("events_jsonl"), events);
    }
    return service.metricsText();
  };
  for (const int workers : {0, 4}) {
    SCOPED_TRACE(workers);
    const std::string folded = exposition(workers, false);
    const std::string replayed = exposition(workers, true);
    EXPECT_GT(sample(folded, "mcsim_cache_hits"), 0.0);
    EXPECT_GT(sample(folded, "mcsim_processor_crashes_total"), 0.0);
    EXPECT_EQ(withoutCacheBytes(folded), withoutCacheBytes(replayed));
  }
}

TEST(SimulationService, RewrittenDaxFileGivesTheNewResult) {
  // DAX paths are read for every request, never interned: the file may
  // change between two submits.
  const std::string path =
      (std::filesystem::temp_directory_path() / "mcsim_service_rewrite.dax")
          .string();
  SimulationService service({.workers = 1});
  std::vector<std::string> rendered;
  for (double degrees : {0.2, 0.4}) {
    dag::writeDaxFile(montage::buildMontageWorkflow(degrees), path);
    const json::JsonValue submitted = service.handle(submitVerb(path, {4}));
    ASSERT_TRUE(submitted.at("ok").asBool());
    const json::JsonValue reply =
        service.handle(jobVerb("result", submitted.at("job").asNumber()));
    ASSERT_TRUE(reply.at("ok").asBool());
    rendered.push_back(json::dumpJson(scrubProvenance(reply.at("results"))));
    EXPECT_EQ(rendered.back(),
              batchGolden(path, {4}, service.options().pricing));
  }
  EXPECT_NE(rendered[0], rendered[1]);
  EXPECT_EQ(service.workflows().size(), 0u);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace mcsim::serve
