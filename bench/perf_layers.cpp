// P1: the layer benchmark — google-benchmark cases timing each layer of the
// simulator and the batch paths built on it: event calendar, link fair
// share, workflow construction, single runs with and without observers, the
// provisioning sweep on the job queue and through the memo cache, the survey
// scale tiers and shard mode, the provider codec and the placement
// optimizer.  Correctness gates live in ctest, not here; this binary only
// measures.  Run it with the usual google-benchmark flags, e.g.
//
//   ./bench/perf_layers --benchmark_filter=-BM_SurveyTier/10000000
//                       --benchmark_out=perf_layers.json
//
// The JSON context block records the host (name, CPUs, MHz, caches) and the
// "mcsim" entry the build (version, git SHA, build type).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "mcsim/analysis/explain.hpp"
#include "mcsim/analysis/placement.hpp"
#include "mcsim/dag/merge.hpp"
#include "mcsim/dag/random_dag.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/obs/trace.hpp"
#include "mcsim/runner/campaign.hpp"
#include "mcsim/runner/memo.hpp"
#include "mcsim/sim/link.hpp"
#include "mcsim/sim/simulator.hpp"
#include "mcsim/util/json.hpp"
#include "mcsim/version.hpp"
#include "mcsim/workflows/survey.hpp"

namespace {

using namespace mcsim;

const cloud::Pricing kAmazon =
    cloud::ProviderCatalog::builtin().pricing("amazon-2008");

/// Per-iteration average of a quantity summed over the run.
benchmark::Counter perIteration(double total) {
  return benchmark::Counter(total, benchmark::Counter::kAvgIterations);
}

/// The process's peak RSS so far.  It is a high-water mark over every case
/// run before, so run a case alone (--benchmark_filter) to read its own.
double peakRssMiB() {
  return static_cast<double>(bench::peakRssBytes()) / (1024.0 * 1024.0);
}

// -- calendar, link, construction, single runs --------------------------------

void BM_EventQueueThroughput(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    long counter = 0;
    for (int i = 0; i < events; ++i)
      simulator.schedule((i * 37) % 1000, [&counter] { ++counter; });
    simulator.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

void BM_FairShareLink(benchmark::State& state) {
  const int transfers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    sim::Link link(simulator, sim::LinkConfig{.bandwidthBytesPerSec = 1.25e6});
    int done = 0;
    for (int i = 0; i < transfers; ++i)
      link.startTransfer(Bytes(1000.0 + i), [&done] { ++done; });
    simulator.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * transfers);
}
BENCHMARK(BM_FairShareLink)->Arg(100)->Arg(1000);

void BM_MontageSimulation(benchmark::State& state) {
  const double degrees = static_cast<double>(state.range(0));
  const dag::Workflow wf = montage::buildMontageWorkflow(degrees);
  engine::EngineConfig cfg;
  cfg.processors = 16;
  for (auto _ : state) {
    const auto r = engine::simulateWorkflow(wf, cfg);
    benchmark::DoNotOptimize(r.makespanSeconds);
  }
  state.SetLabel(wf.name() + " (" + std::to_string(wf.taskCount()) + " tasks)");
}
BENCHMARK(BM_MontageSimulation)->Arg(1)->Arg(2)->Arg(4);

enum class Observer { None, Null, Ring, Spans };

// One 4-degree Montage run (dynamic cleanup, 8 processors, fair-share link)
// with no observer, a NullSink (attached but rejecting every event), a
// flight recorder, and a SpanSink folding the whole stream.  The ratio of a
// row to the `none` row is that observer's overhead.
void BM_MontageObserved(benchmark::State& state, Observer observer) {
  const dag::Workflow wf = montage::buildMontageWorkflow(4.0);
  const obs::TraceTopology topo = analysis::traceTopology(wf);
  engine::EngineConfig cfg;
  cfg.mode = engine::DataMode::DynamicCleanup;
  cfg.processors = 8;
  cfg.linkSharing = sim::LinkSharing::FairShare;
  auto run = [&](obs::Sink* sink) {
    cfg.observer = sink;
    benchmark::DoNotOptimize(engine::simulateWorkflow(wf, cfg).makespanSeconds);
  };
  obs::NullSink null;
  double spans = 0.0;
  for (auto _ : state) {
    switch (observer) {
      case Observer::None: run(nullptr); break;
      case Observer::Null: run(&null); break;
      case Observer::Ring: {
        obs::RingBufferSink ring(1 << 14);
        run(&ring);
        break;
      }
      case Observer::Spans: {
        obs::TraceStore store;
        obs::SpanSink spanSink(store, topo);
        run(&spanSink);
        spans += static_cast<double>(store.spanCount());
        break;
      }
    }
  }
  if (observer == Observer::Spans)
    state.counters["spans_per_s"] =
        benchmark::Counter(spans, benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_MontageObserved, none, Observer::None);
BENCHMARK_CAPTURE(BM_MontageObserved, null_sink, Observer::Null);
BENCHMARK_CAPTURE(BM_MontageObserved, ring_buffer, Observer::Ring);
BENCHMARK_CAPTURE(BM_MontageObserved, span_sink, Observer::Spans);

void BM_EventQueueThroughputObserved(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    obs::RingBufferSink ring(1 << 12);
    sim::Simulator simulator;
    simulator.setObserver(&ring);
    long counter = 0;
    for (int i = 0; i < events; ++i)
      simulator.schedule((i * 37) % 1000, [&counter] { ++counter; });
    simulator.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueThroughputObserved)->Arg(1000)->Arg(100000);

void BM_MontageRemoteIoSimulation(benchmark::State& state) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  engine::EngineConfig cfg;
  cfg.processors = 16;
  cfg.mode = engine::DataMode::RemoteIO;
  for (auto _ : state) {
    const auto r = engine::simulateWorkflow(wf, cfg);
    benchmark::DoNotOptimize(r.bytesIn);
  }
}
BENCHMARK(BM_MontageRemoteIoSimulation);

void BM_WorkflowGeneration(benchmark::State& state) {
  const double degrees = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const dag::Workflow wf = montage::buildMontageWorkflow(degrees);
    benchmark::DoNotOptimize(wf.taskCount());
  }
}
BENCHMARK(BM_WorkflowGeneration)->Arg(1)->Arg(4);

void BM_RandomDagSimulation(benchmark::State& state) {
  std::uint64_t seed = 0;
  engine::EngineConfig cfg;
  cfg.processors = 8;
  for (auto _ : state) {
    const dag::Workflow wf = dag::makeRandomWorkflow(seed++);
    const auto r = engine::simulateWorkflow(wf, cfg);
    benchmark::DoNotOptimize(r.makespanSeconds);
  }
}
BENCHMARK(BM_RandomDagSimulation);

// -- provisioning sweeps --------------------------------------------------------

/// The Question-1 processor ladder concatenated with itself `times` times:
/// the planner's repeated-point access pattern, two scenarios (regular and
/// cleanup) per entry.
analysis::ProvisioningSweepConfig repeatedLadder(int times) {
  analysis::ProvisioningSweepConfig config;
  const std::vector<int> ladder = analysis::defaultProcessorLadder();
  for (int i = 0; i < times; ++i)
    config.processorCounts.insert(config.processorCounts.end(), ladder.begin(),
                                  ladder.end());
  return config;
}

// Montage 1 degree, ladder x4 (64 scenarios) on a queue of range(0) workers
// (0 = the calling thread).  Items are scenarios; the ratio of the two rows'
// times is the queue's speedup.
void BM_ProvisioningSweep(benchmark::State& state) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  runner::JobQueue queue({.workers = static_cast<int>(state.range(0))});
  analysis::ProvisioningSweepConfig config = repeatedLadder(4);
  config.queue = &queue;
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::provisioningSweep(wf, kAmazon, config));
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(config.processorCounts.size()));
}
BENCHMARK(BM_ProvisioningSweep)
    ->Arg(0)
    ->Arg(runner::defaultJobs())
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

enum class Memo { Off, Cold, Warm };

// Montage 1 degree, ladder x8 (128 scenarios) on the calling thread with no
// memo cache, a cache cleared before every sweep (in-batch deduplication
// only), and a cache kept warm across sweeps (every scenario a hit).
void BM_ProvisioningSweepMemo(benchmark::State& state, Memo memo) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  runner::ScenarioMemoCache cache;
  runner::JobQueue queue(
      {.workers = 0, .cache = memo == Memo::Off ? nullptr : &cache});
  analysis::ProvisioningSweepConfig config = repeatedLadder(8);
  config.queue = &queue;
  if (memo == Memo::Warm) analysis::provisioningSweep(wf, kAmazon, config);
  const runner::MemoStats before = cache.stats();
  double hits = 0.0, misses = 0.0;
  for (auto _ : state) {
    if (memo == Memo::Cold) cache.clear();
    benchmark::DoNotOptimize(analysis::provisioningSweep(wf, kAmazon, config));
    if (memo == Memo::Cold) {
      hits += static_cast<double>(cache.stats().hits);
      misses += static_cast<double>(cache.stats().misses);
    }
  }
  if (memo == Memo::Warm) {
    hits = static_cast<double>(cache.stats().hits - before.hits);
    misses = static_cast<double>(cache.stats().misses - before.misses);
  }
  if (memo != Memo::Off) {
    state.counters["hits"] = perIteration(hits);
    state.counters["misses"] = perIteration(misses);
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(config.processorCounts.size()));
}
BENCHMARK_CAPTURE(BM_ProvisioningSweepMemo, off, Memo::Off)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ProvisioningSweepMemo, cold, Memo::Cold)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ProvisioningSweepMemo, warm, Memo::Warm)
    ->Unit(benchmark::kMillisecond);

// -- survey scale ----------------------------------------------------------------

/// A campaign of 1-degree tiles, seed 1, with at least `targetTasks` tasks.
workflows::SurveyConfig surveyTier(std::uint64_t targetTasks) {
  workflows::SurveyConfig cfg;
  cfg.name = "scale-" + std::to_string(targetTasks);
  cfg.seed = 1;
  cfg.tiles = 1;
  const std::uint64_t perTile = workflows::surveyCounts(cfg).tasksPerTile;
  cfg.tiles = (targetTasks + perTile - 1) / perTile;
  return cfg;
}

// Stream-build a campaign of range(0) tasks and simulate it on 64
// processors.  The tiers are registered in ascending order, so peak RSS (the
// process high-water mark) is cumulative up to and including each tier.
void BM_SurveyTier(benchmark::State& state) {
  const workflows::SurveyConfig cfg =
      surveyTier(static_cast<std::uint64_t>(state.range(0)));
  engine::EngineConfig engineConfig;
  engineConfig.processors = 64;
  using Clock = std::chrono::steady_clock;
  double buildSeconds = 0.0, simSeconds = 0.0, tasks = 0.0, makespan = 0.0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    const dag::Workflow wf = workflows::buildSurveyCampaign(cfg);
    const auto t1 = Clock::now();
    const engine::ExecutionResult r = engine::simulateWorkflow(wf, engineConfig);
    const auto t2 = Clock::now();
    buildSeconds += std::chrono::duration<double>(t1 - t0).count();
    simSeconds += std::chrono::duration<double>(t2 - t1).count();
    tasks = static_cast<double>(r.tasksExecuted);
    makespan = r.makespanSeconds;
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["tasks"] = tasks;
  state.counters["build_s"] = buildSeconds / n;
  state.counters["build_tasks_per_s"] = tasks * n / buildSeconds;
  state.counters["simulate_s"] = simSeconds / n;
  state.counters["simulate_tasks_per_s"] = tasks * n / simSeconds;
  state.counters["makespan_s"] = makespan;
  state.counters["peak_rss_mib"] = peakRssMiB();
}
BENCHMARK(BM_SurveyTier)->Arg(100000)->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SurveyTier)
    ->Arg(1000000)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SurveyTier)
    ->Arg(10000000)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The 10^5-task campaign split into 16 shards and run through
// runner::runCampaign on a queue of range(0) workers (0 = the calling
// thread).  The ratio of the two rows' times is the shard-mode speedup.
void BM_SurveyShards(benchmark::State& state) {
  const std::vector<dag::Workflow> shards =
      workflows::buildSurveyShards(surveyTier(100000), 16);
  runner::JobQueue queue({.workers = static_cast<int>(state.range(0))});
  runner::CampaignOptions options;
  options.engine.processors = 64;
  options.queue = &queue;
  for (auto _ : state)
    benchmark::DoNotOptimize(runner::runCampaign(shards, options).tasks);
}
BENCHMARK(BM_SurveyShards)
    ->Arg(0)
    ->Arg(runner::defaultJobs())
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// range(0) copies of one survey tile; 1024 copies should take about twice
// as long as 512 (SurveyScale.ReplicateWorkflowGrowsLinearly gates it).
void BM_ReplicateWorkflow(benchmark::State& state) {
  const dag::Workflow tile =
      workflows::buildSurveyTile(surveyTier(100000), 0);
  const int copies = static_cast<int>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(dag::replicateWorkflow(tile, copies).taskCount());
  state.SetItemsProcessed(state.iterations() * copies *
                          static_cast<std::int64_t>(tile.taskCount()));
}
BENCHMARK(BM_ReplicateWorkflow)->Arg(512)->Arg(1024)->Unit(benchmark::kMillisecond);

// -- providers -------------------------------------------------------------------

// Parse and decode every builtin provider profile's JSON encoding.  Items
// are profiles.
void BM_ProviderCodec(benchmark::State& state) {
  std::vector<std::string> encoded;
  for (const auto& [name, profile] :
       cloud::ProviderCatalog::builtin().profiles())
    encoded.push_back(json::dumpJson(cloud::providerToJson(profile)));
  for (auto _ : state) {
    for (const std::string& text : encoded) {
      const auto profile = cloud::providerFromJson(json::parseJson(text));
      if (!profile) {
        state.SkipWithError(profile.error().c_str());
        return;
      }
      benchmark::DoNotOptimize(profile);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(encoded.size()));
}
BENCHMARK(BM_ProviderCodec);

// The placement optimizer on Montage 1 degree over the full catalog with
// spot and archive hosting, on a queue of every hardware thread whose memo
// cache is cleared before every run (cold) or kept warm (every simulation a
// cache hit).
void BM_OptimizePlacement(benchmark::State& state, bool warm) {
  const dag::Workflow wf = montage::buildMontageWorkflow(1.0);
  const cloud::ProviderCatalog& catalog = cloud::ProviderCatalog::builtin();
  runner::ScenarioMemoCache cache;
  runner::JobQueue queue({.workers = runner::defaultJobs(), .cache = &cache});
  analysis::OptimizeConfig config;
  config.useSpot = true;
  config.sweepArchiveHosting = true;
  config.queue = &queue;
  analysis::OptimizeResult result;
  if (warm) result = analysis::optimizePlacement(wf, catalog, config);
  for (auto _ : state) {
    if (!warm) cache.clear();
    result = analysis::optimizePlacement(wf, catalog, config);
  }
  state.counters["candidates"] = static_cast<double>(result.candidates);
  state.counters["simulations"] = static_cast<double>(result.simulations);
  state.counters["peak_rss_mib"] = peakRssMiB();
}
BENCHMARK_CAPTURE(BM_OptimizePlacement, cold, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OptimizePlacement, warm, true)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("mcsim", mcsim::versionString());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
