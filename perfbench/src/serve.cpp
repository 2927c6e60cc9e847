// The `serve` workload: a closed loop of nproc / 2 clients against an
// in-process serve::ServeDaemon with default ServiceOptions, each client on
// its own AF_UNIX connection through serve::ServeClient, sending `submit`
// then `result` and waiting for the reply before the next request.
//
// 80% of requests come from a hot set of 36 keys that fits the memo cache:
// montage:{1,2,4} x {remote-io, regular, cleanup} x processors {8, 16, 32,
// 64}.  The rest are one-off misses: a key drawn from the same shape plus a
// 10-hour processor MTBF and a fresh fault seed.  The mix never sends the
// 4-degree remote-io 1-processor cell: that request never finishes and
// takes the daemon down with it.
//
// Every `result` reply must say "ok":true and carry results byte-identical
// to serve::scenarioResultsToJson over a batch run (runner::runScenarios at
// 0 workers) of the same submit payload, with `from_cache` taken from the
// reply's own `cached_scenarios`.  A request that is refused or left
// unanswered is a wrong output.  After the timed windows a fixed deck of 72
// requests, one per hot key and one miss per key shape, is the checked set.
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "common.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/runner/memo.hpp"
#include "mcsim/serve/client.hpp"
#include "mcsim/serve/daemon.hpp"
#include "mcsim/serve/protocol.hpp"
#include "mcsim/util/json.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace engine = mcsim::engine;
namespace json = mcsim::json;
namespace runner = mcsim::runner;
namespace serve = mcsim::serve;

const char* const kDegreeNames[] = {"1", "2", "4"};
const char* const kModeNames[] = {"remote-io", "regular", "cleanup"};
constexpr int kProcessors[] = {8, 16, 32, 64};
constexpr std::size_t kHotKeys = 3 * 3 * 4;
/// Hot cards per miss card in a deck: an 80/20 mix.
constexpr std::size_t kHotCopies = 4;
constexpr double kMissMtbfSeconds = 10.0 * 3600.0;
constexpr std::uint64_t kMaxFaultSeed = 999999999999;
constexpr double kWarmupSeconds = 2.0;
/// Times the traced run sends the hot set straight through the engine.
constexpr int kEngineProbeReps = 2;

struct Key {
  std::size_t degree = 0;
  std::size_t mode = 0;
  std::size_t processors = 0;

  std::size_t hotIndex() const { return (degree * 3 + mode) * 4 + processors; }
  static Key fromHotIndex(std::size_t i) {
    return {i / 12, (i / 4) % 3, i % 4};
  }
};

/// faultSeed 0 = a hot-set request (no faults).  The protocol writes
/// numbers with 12 significant digits, so fault seeds stay below 10^12 to
/// reach the daemon unchanged.
json::JsonValue submitLine(std::uint64_t id, const Key& key,
                           std::uint64_t faultSeed) {
  json::JsonObject scenario;
  scenario["mode"] = kModeNames[key.mode];
  scenario["processors"] = kProcessors[key.processors];
  if (faultSeed != 0) {
    scenario["mtbf_seconds"] = kMissMtbfSeconds;
    scenario["fault_seed"] = faultSeed;
  }
  json::JsonObject request;
  request["workflow"] = std::string("montage:") + kDegreeNames[key.degree];
  request["scenarios"] = json::JsonArray{json::JsonValue(std::move(scenario))};
  json::JsonObject o;
  o["verb"] = "submit";
  o["id"] = id;
  o["request"] = json::JsonValue(std::move(request));
  return json::JsonValue(std::move(o));
}

json::JsonValue resultLine(const json::JsonValue& accepted) {
  json::JsonObject o;
  o["verb"] = "result";
  o["job"] = accepted.at("job");
  return json::JsonValue(std::move(o));
}

bool okReply(const json::JsonValue& reply) {
  return reply.has("ok") && reply.at("ok").isBool() && reply.at("ok").asBool();
}

bool cachedReply(const json::JsonValue& reply) {
  return reply.has("cached_scenarios") &&
         reply.at("cached_scenarios").asNumber() > 0;
}

/// The batch run of the submit line as it went over the wire.
std::vector<runner::ScenarioResult> batchRun(const json::JsonValue& submit) {
  const json::JsonValue sent = json::parseJson(json::dumpJson(submit));
  const serve::SubmitRequest sub =
      serve::parseSubmitRequest(sent.at("request"));
  runner::RunnerOptions options;
  options.jobs = 0;
  options.baseSeed = sub.baseSeed;
  return runner::runScenarios(sub.scenarios, options);
}

/// The reply must carry the batch run's results, rendered with the reply's
/// own cache flag.
bool replyMatches(const json::JsonValue& reply,
                  std::vector<runner::ScenarioResult> expected,
                  const mcsim::cloud::Pricing& prices) {
  if (!okReply(reply) || !reply.has("results")) return false;
  const bool cached = cachedReply(reply);
  for (runner::ScenarioResult& r : expected) r.fromCache = cached;
  return json::dumpJson(reply.at("results")) ==
         json::dumpJson(serve::scenarioResultsToJson(expected, prices));
}

struct Request {
  Key key;
  std::uint64_t faultSeed = 0;  ///< 0 for hot-set requests.
  double latencyMs = 0.0;
  Clock::time_point done;
  bool answered = false;  ///< Both verbs came back ok.
  bool refused = false;   ///< The submit was refused as "queue full".
  bool hungUp = false;    ///< The connection failed mid-exchange.
  json::JsonValue submit;
  json::JsonValue reply;  ///< The `result` reply.
  std::string error;
};

/// Send one request (submit, then result) and time it.
Request exchange(serve::ServeClient& client, Request q,
                 std::uint64_t requestId) {
  Span root("serve.request", "", requestId);
  const auto start = Clock::now();
  try {
    json::JsonValue accepted;
    {
      const Span span("serve.submit");
      accepted = client.call(q.submit);
    }
    if (!okReply(accepted)) {
      q.error = accepted.has("error") ? accepted.at("error").asString() : "?";
      q.refused = q.error == "queue full";
    } else {
      const Span span("serve.result");
      q.reply = client.call(resultLine(accepted));
      q.answered = okReply(q.reply);
      if (!q.answered) q.error = "result reply not ok";
    }
  } catch (const std::exception& e) {
    q.error = e.what();
    q.hungUp = true;
  }
  q.done = Clock::now();
  q.latencyMs =
      std::chrono::duration<double, std::milli>(q.done - start).count();
  const bool hit = q.answered && cachedReply(q.reply);
  root.setAttr(std::string(hit ? "hit" : "miss") + kDegreeNames[q.key.degree]);
  return q;
}

/// One deck holds each hot key kHotCopies times and each key shape once as
/// a miss (cards from kHotKeys * kHotCopies on), shuffled.  Clients deal
/// from their own decks, so every window sends the 80/20 mix exactly, up to
/// the last partly dealt deck.
std::vector<std::size_t> shuffledDeck(std::mt19937_64& rng) {
  std::vector<std::size_t> deck(kHotKeys * (kHotCopies + 1));
  for (std::size_t i = 0; i < deck.size(); ++i) deck[i] = i;
  std::shuffle(deck.begin(), deck.end(), rng);
  return deck;
}

/// Daemon plus connected clients; clients close before the daemon stops.
struct Deployment {
  std::unique_ptr<serve::ServeDaemon> daemon;
  std::vector<std::unique_ptr<serve::ServeClient>> clients;
};

struct Window {
  std::vector<Request> requests;
  Clock::time_point start;
  double wallSeconds = 0.0;
  std::size_t answered() const {
    return static_cast<std::size_t>(std::count_if(
        requests.begin(), requests.end(),
        [](const Request& q) { return q.answered; }));
  }
};

Window runWindow(Deployment& d, std::uint64_t seed, double seconds,
                 std::uint64_t& salt) {
  Window window;
  std::mutex mutex;
  const auto t0 = Clock::now();
  window.start = t0;
  const auto deadline = t0 + secondsDuration(seconds);
  const std::uint64_t windowSalt = ++salt;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < d.clients.size(); ++c)
    threads.emplace_back([&, c] {
      const std::uint64_t stream = (windowSalt << 8) | c;
      const std::uint64_t streamSeed = runner::deriveSeed(seed, stream);
      std::mt19937_64 shuffler(streamSeed);
      std::vector<std::size_t> deck;
      std::vector<Request> mine;
      for (std::uint64_t n = 1; Clock::now() < deadline; ++n) {
        if (deck.empty()) deck = shuffledDeck(shuffler);
        const std::size_t card = deck.back();
        deck.pop_back();
        Request q;
        q.key = Key::fromHotIndex(card % kHotKeys);
        if (card >= kHotKeys * kHotCopies)
          q.faultSeed = runner::deriveSeed(streamSeed, n) % kMaxFaultSeed + 1;
        q.submit = submitLine(n, q.key, q.faultSeed);
        mine.push_back(
            exchange(*d.clients[c], std::move(q), (stream << 32) | n));
        if (mine.back().hungUp) break;
      }
      const std::lock_guard<std::mutex> lock(mutex);
      for (Request& q : mine) window.requests.push_back(std::move(q));
    });
  for (std::thread& t : threads) t.join();
  window.wallSeconds = secondsSince(t0);
  return window;
}

/// The check every request goes through: it must be answered, and its
/// reply must match the batch run.  Returns what is wrong, or an empty
/// string.
std::string requestFault(
    const Request& q,
    const std::vector<std::vector<runner::ScenarioResult>>& hot,
    const mcsim::cloud::Pricing& prices) {
  if (!q.answered)
    return (q.refused ? "refused: " : "unanswered: ") + q.error;
  const auto expected =
      q.faultSeed == 0 ? hot[q.key.hotIndex()] : batchRun(q.submit);
  if (!replyMatches(q.reply, expected, prices))
    return "reply differs from the batch run of " + json::dumpJson(q.submit);
  return {};
}

/// Check and count every request of a window.
void checkWindow(const Window& window,
                 const std::vector<std::vector<runner::ScenarioResult>>& hot,
                 const mcsim::cloud::Pricing& prices, Result& result) {
  for (const Request& q : window.requests) {
    const std::string fault = requestFault(q, hot, prices);
    if (!fault.empty()) result.wrong("serve request: " + fault);
    result.ops(1, fault.empty() ? 0 : 1);
  }
}

/// The checked set: each hot key once, then each key shape once as a miss
/// with a fault seed drawn from the run's seed, sent one at a time.
void checkDeck(Deployment& d, std::uint64_t seed,
               const std::vector<std::vector<runner::ScenarioResult>>& hot,
               const mcsim::cloud::Pricing& prices, Result& result) {
  serve::ServeClient& client = *d.clients.front();
  for (std::size_t card = 0; card < 2 * kHotKeys; ++card) {
    Request q;
    q.key = Key::fromHotIndex(card % kHotKeys);
    if (card >= kHotKeys)
      q.faultSeed = runner::deriveSeed(seed, card) % kMaxFaultSeed + 1;
    q.submit = submitLine(card + 1, q.key, q.faultSeed);
    q = exchange(client, std::move(q), 0);
    const std::string fault = requestFault(q, hot, prices);
    if (!fault.empty()) result.wrong("checked serve request: " + fault);
    result.checkedOps(1, fault.empty() ? 0 : 1);
  }
}

/// requestFault must pass a real hot-set request and catch its reply with
/// the first makespan changed by one part in 10^9, which the wire's 12
/// significant digits still carry.
void selfTest(const Window& window,
              const std::vector<std::vector<runner::ScenarioResult>>& hot,
              const mcsim::cloud::Pricing& prices, Result& result) {
  for (const Request& q : window.requests) {
    if (!q.answered || q.faultSeed != 0) continue;
    json::JsonObject reply = q.reply.asObject();
    json::JsonArray results = reply.at("results").asArray();
    json::JsonObject first = results.at(0).asObject();
    first["makespan_seconds"] =
        first.at("makespan_seconds").asNumber() * (1.0 + 1e-9);
    results[0] = json::JsonValue(std::move(first));
    reply["results"] = json::JsonValue(std::move(results));
    Request corrupted = q;
    corrupted.reply = json::JsonValue(std::move(reply));
    if (!requestFault(q, hot, prices).empty() ||
        requestFault(corrupted, hot, prices).empty())
      result.wrong("self-test: the serve check passed a corrupted reply or "
                   "failed a real one");
    else
      result.notes.push_back("self-test: corrupted serve reply caught");
    return;
  }
  result.wrong("self-test: no answered hot-set request");
}

/// Start the daemon, connect the clients and send each hot key once, so
/// the cache holds the hot set before timing starts.
Deployment setUp(const std::string& socketPath, std::size_t clients,
                 const std::vector<json::JsonValue>& hotSubmits,
                 const std::vector<std::vector<runner::ScenarioResult>>& hot,
                 const mcsim::cloud::Pricing& prices, Result& result) {
  Deployment d;
  serve::DaemonOptions options;
  options.socketPath = socketPath;
  d.daemon = std::make_unique<serve::ServeDaemon>(options);
  d.daemon->start();
  for (std::size_t c = 0; c < clients; ++c)
    d.clients.push_back(std::make_unique<serve::ServeClient>(socketPath));
  for (std::size_t i = 0; i < hotSubmits.size(); ++i) {
    Request q;
    q.key = Key::fromHotIndex(i);
    q.submit = hotSubmits[i];
    q = exchange(*d.clients.front(), std::move(q), 0);
    const std::string fault = requestFault(q, hot, prices);
    if (!fault.empty()) result.wrong("warm-up request: " + fault);
    result.ops(1, fault.empty() ? 0 : 1);
  }
  return d;
}

/// The traced run's layer probes, after the timed windows.
void probeLayers(Deployment& d,
                 const std::vector<json::JsonValue>& hotSubmits,
                 const mcsim::cloud::Pricing& prices, Result& result) {
  serve::ServeClient& client = *d.clients.front();
  json::JsonObject pingObject;
  pingObject["verb"] = "ping";
  const json::JsonValue ping(std::move(pingObject));
  for (int i = 0; i < 1000; ++i) {
    const Span span("serve.ping");
    (void)client.call(ping);
  }

  // JSON per request: its two request lines and two reply lines.
  for (int rep = 0; rep < 5; ++rep)
    for (const json::JsonValue& submit : hotSubmits) {
      const json::JsonValue accepted = client.call(submit);
      const json::JsonValue fetch = resultLine(accepted);
      const json::JsonValue reply = client.call(fetch);
      std::string lines[4];
      {
        const Span span("util.json_dump");
        lines[0] = json::dumpJson(submit);
        lines[1] = json::dumpJson(accepted);
        lines[2] = json::dumpJson(fetch);
        lines[3] = json::dumpJson(reply);
      }
      const Span span("util.json_parse");
      for (const std::string& line : lines) (void)json::parseJson(line);
    }

  // The daemon's own queue: submit-to-wait of one cached hot-set scenario.
  const mcsim::dag::Workflow montage1 = serve::loadWorkflowSpec("montage:1");
  runner::JobRequest one;
  runner::ScenarioSpec spec;
  spec.workflow = &montage1;
  spec.config.mode = engine::DataMode::Regular;
  spec.config.processors = 8;
  one.scenarios = {spec};
  runner::JobQueue& queue = d.daemon->service().queue();
  (void)queue.wait(queue.submit(one));
  std::size_t uncached = 0;
  for (int i = 0; i < 300; ++i) {
    runner::JobOutcome outcome;
    {
      const Span span("runner.queue_rtt");
      outcome = queue.wait(queue.submit(one));
    }
    if (outcome.results.empty() || !outcome.results.front().fromCache)
      ++uncached;
  }
  if (uncached != 0)
    result.notes.push_back("queue_rtt: " + std::to_string(uncached) +
                           " probes missed the cache");

  mcsim::dag::Workflow montage4 = serve::loadWorkflowSpec("montage:4");
  for (int i = 0; i < 15; ++i) {
    const Span span("montage.build", "4");
    montage4 = serve::loadWorkflowSpec("montage:4");
  }
  for (int i = 0; i < 15; ++i) {
    const Span span("runner.fingerprint", "4");
    (void)runner::fingerprintWorkflow(montage4);
  }

  // What a hit skips: the hot set straight through the engine.
  const mcsim::dag::Workflow workflows[] = {
      montage1, serve::loadWorkflowSpec("montage:2"), montage4};
  for (int rep = 0; rep < kEngineProbeReps; ++rep)
    for (std::size_t i = 0; i < kHotKeys; ++i) {
      const Key key = Key::fromHotIndex(i);
      engine::EngineConfig config;
      config.mode = key.mode == 0   ? engine::DataMode::RemoteIO
                    : key.mode == 1 ? engine::DataMode::Regular
                                    : engine::DataMode::DynamicCleanup;
      config.processors = kProcessors[key.processors];
      engine::ExecutionResult r;
      {
        const Span span("engine.simulate", kModeNames[key.mode]);
        r = engine::simulateWorkflow(workflows[key.degree], config);
      }
      const Span span("cloud.compute_cost");
      for (int k = 0; k < kCostRepeats; ++k)
        (void)engine::computeCost(r, prices,
                                  mcsim::cloud::CpuBillingMode::Usage);
    }
}

}  // namespace

Result runServe(const Options& options) {
  Result result;
  const auto prices = serve::ServiceOptions{}.pricing;
  const std::size_t clients =
      std::max<std::size_t>(1, std::thread::hardware_concurrency() / 2);
  const std::string socketPath =
      options.socketDir + "/perfbench-" + std::to_string(::getpid()) + ".sock";

  // Expected replies for the hot set, from batch runs.
  std::vector<json::JsonValue> hotSubmits;
  std::vector<std::vector<runner::ScenarioResult>> hot;
  for (std::size_t i = 0; i < kHotKeys; ++i) {
    hotSubmits.push_back(submitLine(i + 1, Key::fromHotIndex(i), 0));
    hot.push_back(batchRun(hotSubmits.back()));
  }

  Deployment d;
  const std::vector<double> setupSeconds = timeSetUps(
      [&] { d = setUp(socketPath, clients, hotSubmits, hot, prices, result); },
      [&] {
        d.clients.clear();
        d.daemon.reset();
      });

  // Untimed warm-up: long enough for the cache to reach its byte bound
  // and for idle cores to come up to speed.
  std::uint64_t salt = 0;
  std::vector<Window> windows;
  windows.push_back(runWindow(d, options.seed, kWarmupSeconds, salt));
  const std::size_t warmups = windows.size();
  const int slices = options.trace ? kTraceSlices : 1;
  for (int i = 0; i < slices; ++i) {
    setTracing(options.trace && i % 2 == 1);
    windows.push_back(
        runWindow(d, options.seed, options.seconds / slices, salt));
  }
  setTracing(false);
  const runner::MemoStats stats = d.daemon->service().cache().stats();
  checkDeck(d, options.seed, hot, prices, result);
  setTracing(options.trace);

  std::size_t refusals = 0;
  for (const Window& w : windows) {
    checkWindow(w, hot, prices, result);
    for (const Request& q : w.requests) refusals += q.refused ? 1 : 0;
  }
  selfTest(windows.front(), hot, prices, result);

  auto& m = result.metrics;
  if (!options.trace) {
    const Window& w = windows.back();
    std::vector<double> latencies;
    std::vector<std::pair<double, double>> answered, tasks;
    for (const Request& q : w.requests) {
      latencies.push_back(q.latencyMs);
      if (!q.answered) continue;
      const double at = std::chrono::duration<double>(q.done - w.start).count();
      answered.emplace_back(at, 1.0);
      tasks.emplace_back(at, q.reply.at("results").asArray().at(0)
                                 .at("tasks_executed").asNumber());
    }
    const std::vector<double> requestRates = blockRates(answered);
    setSetupMetric(result, setupSeconds);
    m["scenarios_per_s"] = median(requestRates);
    m["tasks_per_s"] = median(blockRates(tasks));
    m["req_per_s"] = median(requestRates);
    setLatencyMetrics(result, latencies, "submit + result of one scenario");
    result.notes.push_back(joinNumbers("requests/s by block:", requestRates));
  } else {
    probeLayers(d, hotSubmits, prices, result);
    const std::vector<SpanRecord> spans = collectSpans();
    double simulateMs = 0.0;
    for (double ms : spanMs(spans, "engine.simulate")) simulateMs += ms;
    double tasks = 0.0;
    for (const auto& r : hot)
      tasks += static_cast<double>(r.at(0).result.tasksExecuted);
    setSimulateMetrics(result, spans);
    m["engine.tasks_per_s"] = kEngineProbeReps * tasks / (simulateMs / 1e3);
    m["runner.memo_hits"] = static_cast<double>(stats.hits);
    m["runner.memo_misses"] = static_cast<double>(stats.misses);
    m["runner.memo_evictions"] = static_cast<double>(stats.evictions);
    m["runner.memo_hit_ratio"] = stats.hitRate();
    m["cloud.cost_us"] =
        spanMedianMs(spans, "cloud.compute_cost") * 1e3 / kCostRepeats;
    m["montage.build_4deg_ms"] = spanMedianMs(spans, "montage.build", "4");
    m["runner.fingerprint_4deg_ms"] =
        spanMedianMs(spans, "runner.fingerprint", "4");
    m["runner.queue_rtt_us"] = spanMedianMs(spans, "runner.queue_rtt") * 1e3;
    m["util.json_parse_us"] = spanMedianMs(spans, "util.json_parse") * 1e3;
    m["util.json_dump_us"] = spanMedianMs(spans, "util.json_dump") * 1e3;
    m["serve.ping_rtt_us"] = spanMedianMs(spans, "serve.ping") * 1e3;
    m["serve.hit4_p50_ms"] = spanMedianMs(spans, "serve.request", "hit4");
    m["serve.miss4_p50_ms"] = spanMedianMs(spans, "serve.request", "miss4");
    m["serve.refusals"] = static_cast<double>(refusals);
    std::vector<double> work, seconds;
    for (std::size_t i = warmups; i < windows.size(); ++i) {
      work.push_back(static_cast<double>(windows[i].answered()));
      seconds.push_back(windows[i].wallSeconds);
    }
    m["trace.overhead_frac"] = traceOverhead(work, seconds);
    result.notes.push_back(
        "serve: traced 4deg requests hit n=" +
        std::to_string(spanMs(spans, "serve.request", "hit4").size()) +
        ", miss n=" +
        std::to_string(spanMs(spans, "serve.request", "miss4").size()));
  }
  result.notes.push_back(
      "serve cache: " + std::to_string(stats.entries) + " entries, " +
      std::to_string(stats.bytes) + " bytes, " + std::to_string(stats.hits) +
      " hits, " + std::to_string(stats.misses) + " misses, " +
      std::to_string(stats.evictions) + " evictions");
  std::size_t requests = 0;
  for (const Window& w : windows) requests += w.requests.size();
  result.notes.push_back("serve: " + std::to_string(requests) +
                         " requests from " + std::to_string(clients) +
                         " clients");
  return result;
}

}  // namespace perfbench
