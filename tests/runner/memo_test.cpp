// Scenario memo cache: fingerprint discrimination, byte-identical cache
// hits (results AND event streams), deterministic hit/miss accounting
// surfaced through obs, and jobs-independence with a cache attached.  This
// file backs the `perf`-labeled ctest smoke test guarding the memo-cache
// identity contract.
#include "mcsim/runner/memo.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/jsonl.hpp"
#include "mcsim/obs/metrics.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/runner/runner.hpp"

namespace mcsim::runner {
namespace {

/// Serialize an event stream to JSONL — the byte-identity yardstick.
std::string toJsonl(const std::vector<obs::Event>& events) {
  std::ostringstream os;
  for (const obs::Event& e : events) {
    obs::writeEventJson(os, e);
    os << '\n';
  }
  return os.str();
}

std::vector<ScenarioSpec> montageBatch(const dag::Workflow& wf, int copies) {
  std::vector<ScenarioSpec> specs;
  for (int c = 0; c < copies; ++c)
    for (int procs : {2, 4}) {
      ScenarioSpec spec;
      spec.workflow = &wf;
      spec.config.processors = procs;
      spec.config.mode = engine::DataMode::DynamicCleanup;
      spec.label = "p=" + std::to_string(procs);
      specs.push_back(spec);
    }
  return specs;
}

TEST(ScenarioFingerprint, DiscriminatesEveryConfigKnob) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  engine::EngineConfig base;
  const std::uint64_t key = fingerprintScenario(wf, base, Capture::None);
  EXPECT_EQ(key, fingerprintScenario(wf, base, Capture::None));  // stable

  engine::EngineConfig c = base;
  c.processors = 9;
  EXPECT_NE(fingerprintScenario(wf, c, Capture::None), key);
  c = base;
  c.mode = engine::DataMode::RemoteIO;
  EXPECT_NE(fingerprintScenario(wf, c, Capture::None), key);
  c = base;
  c.linkBandwidthBytesPerSec *= 2;
  EXPECT_NE(fingerprintScenario(wf, c, Capture::None), key);
  c = base;
  c.faults.seed = 99;
  EXPECT_NE(fingerprintScenario(wf, c, Capture::None), key);
  // The capture shape is part of the key: an entry of one shape must never
  // serve a caller of another.
  const std::uint64_t stream = fingerprintScenario(wf, base, Capture::Stream);
  const std::uint64_t metrics = fingerprintScenario(wf, base, Capture::Metrics);
  EXPECT_NE(stream, key);
  EXPECT_NE(metrics, key);
  EXPECT_NE(metrics, stream);
}

TEST(ScenarioFingerprint, DiscriminatesWorkflowContent) {
  const dag::Workflow small = montage::buildMontageWorkflow(0.4);
  const dag::Workflow large = montage::buildMontageWorkflow(1.0);
  EXPECT_NE(fingerprintWorkflow(small), fingerprintWorkflow(large));
  // Two independent builds of the same degree hash identically: the
  // fingerprint is content, not identity.
  const dag::Workflow again = montage::buildMontageWorkflow(0.4);
  EXPECT_EQ(fingerprintWorkflow(small), fingerprintWorkflow(again));
}

TEST(ScenarioMemoCacheTest, WarmRunIsByteIdenticalToCold) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  const auto specs = montageBatch(wf, 1);

  ScenarioMemoCache cache;
  RunnerOptions options;
  options.jobs = 0;
  options.keepEvents = true;
  options.cache = &cache;

  const auto cold = runScenarios(specs, options);
  const MemoStats coldStats = cache.stats();
  EXPECT_EQ(coldStats.hits, 0u);
  EXPECT_EQ(coldStats.misses, specs.size());
  EXPECT_EQ(coldStats.entries, specs.size());

  const auto warm = runScenarios(specs, options);
  const MemoStats warmStats = cache.stats();
  EXPECT_EQ(warmStats.hits, specs.size());
  EXPECT_EQ(warmStats.misses, specs.size());  // unchanged

  // Reference: the same batch with no cache at all.
  RunnerOptions plain;
  plain.jobs = 0;
  plain.keepEvents = true;
  const auto fresh = runScenarios(specs, plain);

  ASSERT_EQ(warm.size(), fresh.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_FALSE(cold[i].fromCache);
    EXPECT_TRUE(warm[i].fromCache);
    EXPECT_EQ(warm[i].label, fresh[i].label);
    EXPECT_EQ(warm[i].result.makespanSeconds, fresh[i].result.makespanSeconds);
    EXPECT_EQ(warm[i].result.storageByteSeconds,
              fresh[i].result.storageByteSeconds);
    EXPECT_EQ(warm[i].result.cpuBusySeconds, fresh[i].result.cpuBusySeconds);
    // Byte-identical event streams — the memo contract.
    EXPECT_EQ(toJsonl(warm[i].events), toJsonl(fresh[i].events)) << i;
  }
}

TEST(ScenarioMemoCacheTest, MetricsEntryIsTenTimesSmallerThanStreamEntry) {
  // An observer that needs no events gets a folded metrics delta cached in
  // place of the whole stream.
  const dag::Workflow wf = montage::buildMontageWorkflow(4.0);
  ScenarioSpec spec;
  spec.workflow = &wf;
  spec.config.mode = engine::DataMode::RemoteIO;
  spec.config.processors = 16;

  const auto cachedBytes = [&](obs::Sink& observer) {
    ScenarioMemoCache cache;
    RunnerOptions options;
    options.jobs = 0;
    options.cache = &cache;
    options.observer = &observer;
    runScenarios({spec}, options);
    return cache.stats().bytes;
  };
  obs::MetricsRegistry registry;
  obs::MetricsSink metrics(registry);
  obs::CollectingSink collecting;
  const std::size_t metricsBytes = cachedBytes(metrics);
  const std::size_t streamBytes = cachedBytes(collecting);
  EXPECT_GE(streamBytes, 10 * metricsBytes)
      << "metrics entry " << metricsBytes << " B, stream entry "
      << streamBytes << " B";
}

TEST(ScenarioMemoCacheTest, InBatchDuplicatesAreServedOnce) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  const auto specs = montageBatch(wf, 3);  // each point repeated 3x

  ScenarioMemoCache cache;
  RunnerOptions options;
  options.jobs = 0;
  options.keepEvents = true;
  options.cache = &cache;
  const auto results = runScenarios(specs, options);

  const MemoStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);               // two distinct points
  EXPECT_EQ(stats.hits, specs.size() - 2u);  // everything else deduplicated
  EXPECT_EQ(stats.entries, 2u);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::size_t rep = i % 2;  // batch alternates p=2, p=4
    EXPECT_EQ(results[i].fromCache, i >= 2);
    EXPECT_EQ(toJsonl(results[i].events), toJsonl(results[rep].events)) << i;
  }
}

TEST(ScenarioMemoCacheTest, StatsAreEmittedThroughObs) {
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  const auto specs = montageBatch(wf, 2);

  ScenarioMemoCache cache;
  obs::CollectingSink sink;
  RunnerOptions options;
  options.jobs = 0;
  options.observer = &sink;
  options.cache = &cache;
  runScenarios(specs, options);

  const auto events = sink.take();
  ASSERT_FALSE(events.empty());
  // The cache-stats event is appended after every merged scenario stream.
  const auto* stats =
      std::get_if<obs::ScenarioCacheStats>(&events.back().payload);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->misses, 2u);
  EXPECT_EQ(stats->hits, 2u);
  EXPECT_EQ(stats->entries, 2u);
}

TEST(ScenarioMemoCacheTest, MergedStreamMatchesCachelessRunExactly) {
  // With the stats event stripped, a cached run's merged observer stream
  // must be byte-identical to the cache-less serial stream.
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  const auto specs = montageBatch(wf, 2);

  auto capture = [&](ScenarioMemoCache* cache, int jobs) {
    obs::CollectingSink sink;
    RunnerOptions options;
    options.jobs = jobs;
    options.observer = &sink;
    options.cache = cache;
    runScenarios(specs, options);
    auto events = sink.take();
    if (cache != nullptr) {
      EXPECT_TRUE(std::holds_alternative<obs::ScenarioCacheStats>(
          events.back().payload));
      events.pop_back();
    }
    return toJsonl(events);
  };

  const std::string plain = capture(nullptr, 0);
  ScenarioMemoCache cacheSerial;
  EXPECT_EQ(capture(&cacheSerial, 0), plain);
  ScenarioMemoCache cacheParallel;
  EXPECT_EQ(capture(&cacheParallel, 4), plain);
  // Warm re-run over a populated cache: still the same bytes.
  EXPECT_EQ(capture(&cacheParallel, 4), plain);
}

TEST(ScenarioMemoCacheTest, BaseSeedKeepsFaultScenariosDistinct) {
  // With faults on and a base seed, every index gets its own derived seed,
  // so superficially identical specs must NOT collapse into one entry.
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  std::vector<ScenarioSpec> specs(3);
  for (auto& spec : specs) {
    spec.workflow = &wf;
    spec.config.processors = 4;
    spec.config.faults.processor.mtbfSeconds = 300.0;
    spec.config.faults.retry.maxRetries = 5;
  }

  ScenarioMemoCache cache;
  RunnerOptions options;
  options.jobs = 0;
  options.baseSeed = 1234;
  options.cache = &cache;
  runScenarios(specs, options);

  const MemoStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 3u);
}

TEST(ScenarioMemoCacheTest, LookupsShareOneImmutableEntry) {
  ScenarioMemoCache cache(MemoCacheOptions{/*maxEntries=*/1, 0});
  ScenarioMemoCache::Entry entry;
  entry.result.makespanSeconds = 42.0;
  entry.events.push(obs::Event{1.0, obs::TaskReady{3}});
  const ScenarioMemoCache::EntryPtr stored = cache.insert(1, std::move(entry));

  const ScenarioMemoCache::EntryPtr a = cache.lookup(1);
  const ScenarioMemoCache::EntryPtr b = cache.lookup(1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a.get(), stored.get());
  EXPECT_EQ(cache.peek(1).get(), a.get());

  // Evicted while held: the cache lets go, the holder still reads it.
  cache.insert(2, {});
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(a->result.makespanSeconds, 42.0);
  ASSERT_EQ(a->events.size(), 1u);
  a->events.forEach([](const obs::Event& e) {
    EXPECT_EQ(std::get<obs::TaskReady>(e.payload).task, 3u);
  });
}

TEST(ScenarioMemoCacheTest, InBatchDuplicatesOutliveEvictionOfTheirEntry) {
  // A one-entry cache evicts the first representative as soon as the second
  // is inserted; its in-batch duplicates replay from the entry the job holds.
  const dag::Workflow wf = montage::buildMontageWorkflow(0.4);
  const auto specs = montageBatch(wf, 2);

  ScenarioMemoCache cache(MemoCacheOptions{/*maxEntries=*/1, 0});
  RunnerOptions options;
  options.jobs = 0;
  options.keepEvents = true;
  options.cache = &cache;
  const auto results = runScenarios(specs, options);
  EXPECT_EQ(cache.stats().evictions, 1u);

  RunnerOptions plain;
  plain.jobs = 0;
  plain.keepEvents = true;
  const auto fresh = runScenarios(specs, plain);
  ASSERT_EQ(results.size(), fresh.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].fromCache, i >= 2);
    EXPECT_EQ(results[i].result.makespanSeconds,
              fresh[i].result.makespanSeconds);
    EXPECT_EQ(toJsonl(results[i].events), toJsonl(fresh[i].events)) << i;
  }
}

TEST(ScenarioMemoCacheTest, ClearResetsEverything) {
  ScenarioMemoCache cache;
  cache.insert(1, {});
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.lookup(2), nullptr);
  cache.clear();
  const MemoStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_FALSE(cache.contains(1));
}

}  // namespace
}  // namespace mcsim::runner
