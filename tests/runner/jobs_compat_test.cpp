// One batch, any queue: runScenarios runs on a transient JobQueue, and a
// persistent JobQueue must produce byte-identical results and merged
// telemetry to it — for any worker count, with and without cache and
// seeds, and while other jobs share the pool.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "mcsim/montage/factory.hpp"
#include "mcsim/obs/jsonl.hpp"
#include "mcsim/obs/sink.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/runner/memo.hpp"
#include "mcsim/runner/runner.hpp"

namespace mcsim::runner {
namespace {

dag::Workflow smallWorkflow() { return montage::buildMontageWorkflow(0.2); }

std::vector<ScenarioSpec> mixedBatch(const dag::Workflow& wf) {
  std::vector<ScenarioSpec> specs;
  for (int p : {1, 2, 4, 8}) {
    for (engine::DataMode mode :
         {engine::DataMode::Regular, engine::DataMode::DynamicCleanup}) {
      ScenarioSpec spec;
      spec.workflow = &wf;
      spec.config.processors = p;
      spec.config.mode = mode;
      spec.label = "compat/p=" + std::to_string(p);
      specs.push_back(spec);
    }
  }
  return specs;
}

std::string serialize(const std::vector<obs::Event>& events) {
  std::ostringstream os;
  for (const obs::Event& e : events) {
    obs::writeEventJson(os, e);
    os << '\n';
  }
  return os.str();
}

/// Execution results must match field-for-field, not just approximately.
void expectIdentical(const std::vector<ScenarioResult>& a,
                     const std::vector<ScenarioResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].result.makespanSeconds, b[i].result.makespanSeconds);
    EXPECT_EQ(a[i].result.cpuBusySeconds, b[i].result.cpuBusySeconds);
    EXPECT_EQ(a[i].result.bytesIn.value(), b[i].result.bytesIn.value());
    EXPECT_EQ(a[i].result.bytesOut.value(), b[i].result.bytesOut.value());
    EXPECT_EQ(a[i].result.storageByteSeconds, b[i].result.storageByteSeconds);
    EXPECT_EQ(a[i].result.tasksExecuted, b[i].result.tasksExecuted);
    EXPECT_EQ(a[i].result.taskRetries, b[i].result.taskRetries);
  }
}

TEST(JobsCompat, BatchWrapperMatchesJobQueueAcrossWorkerCounts) {
  const dag::Workflow wf = smallWorkflow();
  const std::vector<ScenarioSpec> specs = mixedBatch(wf);

  obs::CollectingSink batchEvents;
  RunnerOptions batch;
  batch.jobs = 0;  // every scenario on this thread
  batch.observer = &batchEvents;
  const auto reference = runScenarios(specs, batch);
  const std::string referenceStream = serialize(batchEvents.events());

  for (int workers : {0, 1, 2, 4, 8}) {
    JobQueueOptions qo;
    qo.workers = workers;
    JobQueue queue(qo);

    obs::CollectingSink events;
    JobOptions jobOptions;
    jobOptions.observer = &events;
    const auto results = queue.run(specs, jobOptions);

    SCOPED_TRACE("workers=" + std::to_string(workers));
    expectIdentical(reference, results);
    EXPECT_EQ(referenceStream, serialize(events.events()));
  }
}

TEST(JobsCompat, BaseSeedDerivationMatches) {
  const dag::Workflow wf = smallWorkflow();
  std::vector<ScenarioSpec> specs = mixedBatch(wf);
  for (ScenarioSpec& spec : specs)
    spec.config.faults.processor.mtbfSeconds = 4000.0;

  RunnerOptions batch;
  batch.jobs = 0;
  batch.baseSeed = 0xfeedface;
  const auto reference = runScenarios(specs, batch);

  JobQueue queue({.workers = 4});
  JobOptions jobOptions;
  jobOptions.baseSeed = 0xfeedface;
  expectIdentical(reference, queue.run(specs, jobOptions));
}

TEST(JobsCompat, ConcurrentJobsDoNotPerturbEachOther) {
  const dag::Workflow wf = smallWorkflow();
  const std::vector<ScenarioSpec> specs = mixedBatch(wf);

  obs::CollectingSink referenceEvents;
  RunnerOptions batch;
  batch.jobs = 0;
  batch.observer = &referenceEvents;
  const auto reference = runScenarios(specs, batch);
  const std::string referenceStream = serialize(referenceEvents.events());

  // Submit the same batch many times to one pool; every job must come back
  // byte-identical to the serial reference even while its neighbours run.
  JobQueue queue({.workers = 4});
  constexpr int kJobs = 6;
  std::vector<obs::CollectingSink> streams(kJobs);
  std::vector<JobId> ids;
  for (int j = 0; j < kJobs; ++j) {
    JobRequest request;
    request.scenarios = specs;
    request.options.observer = &streams[j];
    ids.push_back(queue.submit(std::move(request)));
  }
  for (int j = 0; j < kJobs; ++j) {
    const JobOutcome outcome = queue.wait(ids[j]);
    SCOPED_TRACE("job=" + std::to_string(j));
    EXPECT_EQ(outcome.state, JobState::Completed);
    expectIdentical(reference, outcome.results);
    EXPECT_EQ(referenceStream, serialize(streams[j].events()));
  }
}

TEST(JobsCompat, CacheStatsStreamMatchesLegacy) {
  const dag::Workflow wf = smallWorkflow();
  const std::vector<ScenarioSpec> specs = mixedBatch(wf);

  ScenarioMemoCache batchCache;
  obs::CollectingSink batchEvents;
  RunnerOptions batch;
  batch.jobs = 0;
  batch.cache = &batchCache;
  batch.observer = &batchEvents;
  runScenarios(specs, batch);
  runScenarios(specs, batch);  // warm pass emits hit-heavy stats

  ScenarioMemoCache cache;
  JobQueueOptions qo;
  qo.workers = 3;
  qo.cache = &cache;
  JobQueue queue(qo);
  obs::CollectingSink events;
  JobOptions jobOptions;
  jobOptions.observer = &events;
  queue.run(specs, jobOptions);
  queue.run(specs, jobOptions);

  EXPECT_EQ(serialize(batchEvents.events()), serialize(events.events()));
}

// Acceptance: a 128-scenario repeated-submit ladder against a bounded
// server cache must stay within the capacity bound while reporting a >50%
// hit rate — the long-lived daemon's steady state.
TEST(JobsCompat, BoundedCacheLadderHoldsCapacityWithMajorityHits) {
  const dag::Workflow wf = smallWorkflow();
  std::vector<ScenarioSpec> specs;
  for (int i = 0; i < 32; ++i) {
    ScenarioSpec spec;
    spec.workflow = &wf;
    spec.config.processors = 1 + (i % 8);
    spec.label = "ladder/" + std::to_string(i % 8);
    specs.push_back(spec);
  }

  constexpr std::size_t kMaxEntries = 16;
  ScenarioMemoCache cache(MemoCacheOptions{kMaxEntries, 0});
  JobQueueOptions qo;
  qo.workers = 4;
  qo.cache = &cache;
  JobQueue queue(qo);

  std::size_t total = 0;
  std::size_t cached = 0;
  for (int round = 0; round < 4; ++round) {  // 4 x 32 = 128 scenarios
    JobRequest request;
    request.scenarios = specs;
    const JobOutcome outcome = queue.wait(queue.submit(std::move(request)));
    ASSERT_EQ(outcome.state, JobState::Completed);
    total += outcome.results.size();
    cached += outcome.cachedScenarios;
    EXPECT_LE(cache.stats().entries, kMaxEntries);
  }
  EXPECT_EQ(total, 128u);
  // 8 distinct scenarios, 128 submitted: everything after the first fills
  // is a duplicate or a warm lookup.
  EXPECT_GT(static_cast<double>(cached) / static_cast<double>(total), 0.5);
  EXPECT_GT(cache.stats().hitRate(), 0.5);
}

}  // namespace
}  // namespace mcsim::runner
