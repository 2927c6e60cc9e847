// Job-oriented runner API: a persistent worker pool with submit / status /
// wait / cancel semantics and a backpressured bounded admission queue.
//
// Workers outlive any one request, requests arrive concurrently, and
// callers poll or block on their own job without fencing anyone else.
// Every batch runs here: `runScenarios` submits one job to a transient
// queue and waits, and a 0-worker queue runs each job on the submitting
// thread through the same per-scenario loop the pool workers run.
//
// Determinism contract (see DESIGN.md "Concurrency model"):
//  * A job's results and its observer's merged event stream are
//    byte-identical for any worker count, including 0 and while other jobs
//    run concurrently — each job gets private per-scenario capture sinks
//    and a private merge, and per-job cache accounting is computed from the
//    serial admission-time classification, never from racy global counters.
//  * Seeds: JobOptions::baseSeed derives per-scenario seeds exactly like
//    RunnerOptions::baseSeed.
//  * Errors: the lowest-index scenario failure wins, the job's remaining
//    scenarios are cancelled, and wait() surfaces the stored exception.  A
//    failed job merges nothing into its observer and caches nothing.
//  * Cancel: a queued job cancels immediately; a running job stops claiming
//    new scenarios, drains its in-flight ones, and resolves Cancelled with
//    no results.  Other jobs are unaffected — their bytes do not change.
//
// Merging: finalization hands each scenario to the job's observer in one
// call, in ascending index.  What a scenario records follows the observer
// (runner::Capture): for keepEvents, or an observer whose needsEvents() is
// true, a chunked obs::EventStream delivered through obs::Sink::onStream;
// for an observer that needs no events (a MetricsSink), an
// obs::MetricsDelta folded while the scenario runs and delivered through
// obs::Sink::apply, at a cost set by the instruments and addends, not the
// events; with no observer, nothing.  With a cache, a fresh recording moves
// into its shared, immutable memo entry and hits are served from the
// entry; the job holds every entry it serves until finalization, so
// eviction cannot pull one away.  Streams are copied only for keepEvents.
//
// The queue emits control-plane lifecycle events (obs::JobSubmitted /
// JobStarted / JobFinished, time < 0) to its own observer — never into a
// job's per-request stream.  Attach metrics or JSONL sinks through
// obs::MutexSink: finalization runs on whichever worker finishes last, and
// MutexSink delivers each scenario's stream or delta under one lock, so
// concurrent jobs never interleave inside the shared sink.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mcsim/runner/runner.hpp"

namespace mcsim::dag {
class Workflow;
}

namespace mcsim::obs {
class Sink;
}

namespace mcsim::runner {

class ScenarioMemoCache;

/// Monotonic per-queue job handle; 0 is never issued.
using JobId = std::uint64_t;

/// Job lifecycle: Queued -> Running -> {Completed, Failed, Cancelled};
/// Queued -> Cancelled directly when cancelled before activation.  The
/// integer values are part of the obs::JobFinished wire contract.
enum class JobState : std::uint8_t {
  Queued = 0,
  Running = 1,
  Completed = 2,
  Failed = 3,
  Cancelled = 4,
};

/// Stable snake_case name (serve protocol + logs).
const char* jobStateName(JobState state);

/// Per-job execution options — the request-scoped half of RunnerOptions.
/// Worker count and cache are queue-scoped (JobQueueOptions).
struct JobOptions {
  /// != 0: overwrite each scenario's fault seed with deriveSeed(baseSeed, i).
  std::uint64_t baseSeed = 0;
  /// Receives this job's events, merged deterministically in ascending
  /// scenario index at completion — per-request telemetry isolation.  An
  /// observer whose needsEvents() is false gets one folded
  /// obs::MetricsDelta per scenario instead (see "Merging" above).
  /// Borrowed; must outlive the job; never shared with a concurrent job
  /// unless externally synchronized.
  obs::Sink* observer = nullptr;
  /// Retain each scenario's event stream in ScenarioResult::events.
  bool keepEvents = false;
  /// Append runner self-profiling events after the merged stream.
  bool profile = false;
};

/// One unit of admission: a batch of scenarios plus its options.
struct JobRequest {
  std::vector<ScenarioSpec> scenarios;
  JobOptions options;
  std::string label;  ///< Optional; echoed through status and outcome.
  /// Optional ownership anchor: workflows referenced by `scenarios` that
  /// must outlive the job (the serve daemon parses workflows per request
  /// and walks away after submit).  Released when the job is retired.
  std::vector<std::shared_ptr<const dag::Workflow>> keepAlive;
};

/// Snapshot of a job's progress.
struct JobStatus {
  JobId id = 0;
  JobState state = JobState::Queued;
  std::size_t completedScenarios = 0;  ///< Resolved (simulated or cached).
  std::size_t totalScenarios = 0;
  std::string label;
};

/// Terminal result of a job, surrendered exactly once by wait().
struct JobOutcome {
  JobId id = 0;
  JobState state = JobState::Completed;
  std::string label;
  /// Scenario results in spec order; empty unless state == Completed.
  std::vector<ScenarioResult> results;
  /// Scenarios served from the memo cache (Completed jobs).
  std::size_t cachedScenarios = 0;
  /// what() of the failure; empty unless state == Failed.
  std::string error;
  /// The stored failure, rethrowable; null unless state == Failed.
  std::exception_ptr exception;
};

struct JobQueueOptions {
  /// Persistent worker threads.  0 = inline mode: submit() executes the job
  /// synchronously in the caller's thread.
  int workers = defaultJobs();
  /// Backpressure bound on jobs admitted but not yet activated; submit()
  /// blocks (trySubmit() refuses) while the admission queue is full.
  std::size_t maxQueuedJobs = 64;
  /// Optional cross-job scenario memo cache (bound it with MemoCacheOptions
  /// for server use).  Borrowed; shared by every job on this queue.
  ScenarioMemoCache* cache = nullptr;
  /// Control-plane observer for job lifecycle events (JobSubmitted /
  /// JobStarted / JobFinished, time < 0).  Called from worker and submitter
  /// threads — wrap single-threaded sinks in obs::MutexSink.  Borrowed.
  obs::Sink* observer = nullptr;
};

class JobQueue {
 public:
  explicit JobQueue(JobQueueOptions options = {});
  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;
  /// Cancels queued jobs, drains in-flight scenarios, joins the pool.
  /// Unclaimed outcomes are discarded.
  ~JobQueue();

  const JobQueueOptions& options() const { return options_; }

  /// Admit a job; blocks while the admission queue is full.  Throws
  /// std::invalid_argument on malformed specs (same contract as
  /// runScenarios).  In inline mode the job executes before returning.
  JobId submit(JobRequest request);
  /// Like submit but never blocks: nullopt when the queue is full.
  std::optional<JobId> trySubmit(JobRequest request);

  /// Progress snapshot.  Throws std::invalid_argument for ids never issued
  /// or already retired by wait().
  JobStatus status(JobId id) const;
  /// Block until the job is terminal, then surrender its outcome and retire
  /// the id.  Does not throw on job failure — inspect JobOutcome::state.
  JobOutcome wait(JobId id);
  /// Request cancellation.  True if the job was still cancellable (queued
  /// or running); false for terminal, retired or unknown ids.
  bool cancel(JobId id);

  /// submit + wait + rethrow-on-failure: the drop-in replacement for
  /// runScenarios(specs, ...) over a persistent pool.
  std::vector<ScenarioResult> run(const std::vector<ScenarioSpec>& specs,
                                  const JobOptions& options = {});

  /// Jobs admitted but not yet activated (the backpressure quantity).
  std::size_t queuedJobs() const;
  /// Jobs issued and not yet retired by wait(), any state.
  std::size_t liveJobs() const;

 private:
  struct Job;

  JobId submitLocked(std::unique_ptr<Job> job, std::unique_lock<std::mutex>& lock);
  void workerLoop(int worker);
  void activate(Job& job, std::unique_lock<std::mutex>& lock);
  /// Run the job's next scenario, or finalize it once it is exhausted and
  /// idle.  False when another worker still has a scenario in flight.
  bool step(Job& job, int worker, std::unique_lock<std::mutex>& lock);
  void executeItem(Job& job, int worker, std::unique_lock<std::mutex>& lock);
  void finalize(Job& job, std::unique_lock<std::mutex>& lock);

  JobQueueOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable workCv_;   ///< Workers: new items / activations.
  std::condition_variable stateCv_;  ///< Submitters and waiters.
  std::map<JobId, std::unique_ptr<Job>> jobs_;
  std::deque<JobId> pending_;
  JobId nextId_ = 1;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// The sweep drivers' entry point: run `specs` on `queue` when one is
/// provided (request-scoped options lifted from `fallback`; the queue's own
/// workers and cache win over the fallback's), else the one-shot
/// runScenarios(specs, fallback).
std::vector<ScenarioResult> runOnQueue(JobQueue* queue,
                                       const std::vector<ScenarioSpec>& specs,
                                       const RunnerOptions& fallback);

}  // namespace mcsim::runner
