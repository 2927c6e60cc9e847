// The `sweep` workload: a fault-seeded Monte-Carlo version of the paper's
// Q1/Q2a study on one runner::JobQueue.
//
// The grid is Montage 1, 2 and 4 degrees x {remote-io, regular, cleanup} x
// processors {1, 2, ..., 128}: 72 cells.  Copy 0 of the grid is fault-free;
// copy c >= 1 adds processor crashes with a 10-hour MTBF and fault seed
// deriveSeed(seed, c).  Job j is degree j % 3 of copy j / 3: one workflow x
// 3 modes x 8 processor counts.  That is how mcsim's own sweep drivers
// submit (analysis::provisioningSweep, analysis::reliabilitySweep): each
// hands one workflow's scenario list to runner::runOnQueue and blocks on
// it.  Two more such callers than workers run at once, so the queue always
// holds another job when one finishes and no worker waits on a caller
// waking up.  Copies keep coming with fresh seeds, so every memo lookup
// misses.
//
// The 4-degree remote-io 1-processor cell never finishes on the current
// engine (it allocates without bound).  It stays in the grid: for the
// checked copies 0..2 it runs in a child process under an address-space and
// wall-clock limit and counts as a failed operation when it does not
// complete.  In later copies it is not run.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <exception>
#include <iterator>
#include <memory>
#include <mutex>
#include <new>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/montage/factory.hpp"
#include "mcsim/runner/jobs.hpp"
#include "mcsim/runner/memo.hpp"
#include "mcsim/serve/service.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace engine = mcsim::engine;
namespace runner = mcsim::runner;
using engine::DataMode;

constexpr double kDegrees[] = {1.0, 2.0, 4.0};
constexpr std::size_t kJobsPerCopy = std::size(kDegrees);
/// Paper Fig 10: usage-billed CPU cost per mosaic, in every mode.
constexpr double kPaperCpuUsd[] = {0.56, 2.03, 8.40};
constexpr DataMode kModes[] = {DataMode::RemoteIO, DataMode::Regular,
                               DataMode::DynamicCleanup};
constexpr int kProcessors[] = {1, 2, 4, 8, 16, 32, 64, 128};
constexpr double kMtbfSeconds = 10.0 * 3600.0;
/// Callers blocked in runner::runOnQueue at once, beyond one per worker.
/// With two, the workers stay busy (about 98% of their CPU time); more
/// only lengthen the queue.  On a 4-core VM, two callers per worker raised
/// the p99 job latency from 30 to 42 ms and gave no more throughput.
constexpr int kSpareCallers = 2;
/// Copies whose results are re-run at 0 workers and compared by digest,
/// and whose known-defect cell runs in a child process.  With the defect
/// cells they are the fixed set that ok_frac is computed over.
constexpr std::size_t kCheckedCopies = 3;
/// Copies the traced run's layer probes use: the fault-free grid and four
/// fault seeds, 355 scenarios, enough to make the bounded cache evict.
constexpr std::size_t kProbeCopies = 5;
constexpr rlim_t kCellAddressSpaceBytes = rlim_t{256} << 20;
constexpr double kCellWallSeconds = 10.0;
constexpr rlim_t kCellCpuSeconds = 10;
constexpr double kWarmupSeconds = 1.0;

const char* degreeName(std::size_t degree) {
  static const char* const kNames[] = {"1", "2", "4"};
  return kNames[degree];
}

bool knownDefect(std::size_t degree, DataMode mode, int processors) {
  return degree == 2 && mode == DataMode::RemoteIO && processors == 1;
}

engine::EngineConfig cellConfig(DataMode mode, int processors,
                                std::uint64_t seed, std::size_t copy) {
  engine::EngineConfig config;
  config.mode = mode;
  config.processors = processors;
  if (copy > 0) {
    config.faults.processor.mtbfSeconds = kMtbfSeconds;
    config.faults.seed = runner::deriveSeed(seed, copy);
  }
  return config;
}

std::vector<runner::ScenarioSpec> jobSpecs(
    const std::vector<mcsim::dag::Workflow>& workflows, std::uint64_t seed,
    std::size_t job) {
  const std::size_t copy = job / kJobsPerCopy;
  const std::size_t degree = job % kJobsPerCopy;
  std::vector<runner::ScenarioSpec> specs;
  for (DataMode mode : kModes)
    for (int processors : kProcessors) {
      if (knownDefect(degree, mode, processors)) continue;
      runner::ScenarioSpec spec;
      spec.workflow = &workflows[degree];
      spec.config = cellConfig(mode, processors, seed, copy);
      specs.push_back(std::move(spec));
    }
  return specs;
}

mcsim::cloud::Pricing pricing() {
  return mcsim::serve::ServiceOptions{}.pricing;
}

double usageCpuUsd(const engine::ExecutionResult& result,
                   const mcsim::cloud::Pricing& prices) {
  return engine::computeCost(result, prices,
                             mcsim::cloud::CpuBillingMode::Usage)
      .cpu.value();
}

bool matchesPaperCpu(const engine::ExecutionResult& result, std::size_t degree,
                     const mcsim::cloud::Pricing& prices) {
  return std::abs(usageCpuUsd(result, prices) - kPaperCpuUsd[degree]) <= 1e-6;
}

/// Every scalar of the result, bit for bit: a change of one ulp in any
/// of them changes the digest.
std::uint64_t resultDigest(const engine::ExecutionResult& r) {
  Digest d;
  d.add(static_cast<std::uint64_t>(r.mode))
      .add(static_cast<std::uint64_t>(r.processors))
      .add(r.makespanSeconds)
      .add(r.cpuBusySeconds)
      .add(r.processorBusySeconds)
      .add(r.bytesIn.value())
      .add(r.bytesOut.value())
      .add(r.storageByteSeconds)
      .add(r.peakStorageBytes.value())
      .add(r.tasksExecuted)
      .add(r.transfersIn)
      .add(r.transfersOut)
      .add(r.taskRetries)
      .add(r.tasksEverBlocked)
      .add(r.tasksFailed)
      .add(r.tasksAbandoned)
      .add(r.processorCrashes)
      .add(r.wastedCpuSeconds)
      .add(static_cast<std::uint64_t>(r.deadlineExceeded));
  return d.value();
}

/// The check each scenario of a checked copy goes through: the result on
/// the pool must have the digest of the same scenario at 0 workers, and
/// the fault-free copy must bill the paper's CPU cost.  Returns what is
/// wrong, or an empty string.
std::string scenarioFault(const engine::ExecutionResult& pooled,
                          const engine::ExecutionResult& serial,
                          std::size_t degree, std::size_t copy,
                          const mcsim::cloud::Pricing& prices) {
  if (resultDigest(pooled) != resultDigest(serial))
    return "digest differs at 0 workers";
  if (copy == 0 && !matchesPaperCpu(pooled, degree, prices))
    return "usage CPU cost is not the paper's";
  return {};
}

/// Set-up: the three workflows, a cache bounded like the serve daemon's,
/// and the queue.  Members are destroyed queue first.
struct Setup {
  std::vector<mcsim::dag::Workflow> workflows;
  std::unique_ptr<runner::ScenarioMemoCache> cache;
  std::unique_ptr<runner::JobQueue> queue;
};

Setup setUp(int workers) {
  const Span span("sweep.setup");
  Setup s;
  for (std::size_t d = 0; d < 3; ++d) {
    const Span build("montage.build", degreeName(d));
    s.workflows.push_back(mcsim::montage::buildMontageWorkflow(kDegrees[d]));
  }
  s.cache = std::make_unique<runner::ScenarioMemoCache>(
      mcsim::serve::ServiceOptions{}.cache);
  runner::JobQueueOptions options;
  options.workers = workers;
  options.cache = s.cache.get();
  s.queue = std::make_unique<runner::JobQueue>(options);
  return s;
}

struct Job {
  std::size_t index = 0;
  double latencyMs = 0.0;
  double doneSeconds = 0.0;  ///< Since the window opened.
  std::size_t scenarios = 0;
  std::size_t tasks = 0;
  bool completed = false;
  std::string error;
  /// Kept for the checked copies only.
  std::vector<runner::ScenarioResult> results;
};

struct Window {
  std::vector<Job> jobs;
  double wallSeconds = 0.0;
  double cpuSeconds = 0.0;
  std::size_t scenarios = 0;
  std::size_t tasks = 0;
};

Window runWindow(Setup& s, std::uint64_t seed, double seconds, int callers,
                 std::atomic<std::size_t>& nextJob) {
  Window window;
  std::mutex mutex;
  const double cpu0 = processCpuSeconds();
  const auto t0 = Clock::now();
  const auto deadline = t0 + secondsDuration(seconds);
  std::vector<std::thread> threads;
  for (int i = 0; i < callers; ++i)
    threads.emplace_back([&] {
      std::vector<Job> mine;
      while (Clock::now() < deadline) {
        Job job;
        job.index = nextJob.fetch_add(1);
        const std::vector<runner::ScenarioSpec> specs =
            jobSpecs(s.workflows, seed, job.index);
        job.scenarios = specs.size();
        const Span root("sweep.job", degreeName(job.index % kJobsPerCopy),
                        job.index + 1);
        const auto start = Clock::now();
        try {
          std::vector<runner::ScenarioResult> results;
          {
            const Span span("runner.run_on_queue");
            results = runner::runOnQueue(s.queue.get(), specs, {});
          }
          job.completed = results.size() == specs.size();
          for (const runner::ScenarioResult& r : results)
            job.tasks += r.result.tasksExecuted;
          if (job.index / kJobsPerCopy < kCheckedCopies)
            job.results = std::move(results);
        } catch (const std::exception& e) {
          job.error = e.what();
        }
        job.latencyMs = secondsSince(start) * 1e3;
        job.doneSeconds = secondsSince(t0);
        mine.push_back(std::move(job));
      }
      const std::lock_guard<std::mutex> lock(mutex);
      for (Job& job : mine) window.jobs.push_back(std::move(job));
    });
  for (std::thread& t : threads) t.join();
  window.wallSeconds = secondsSince(t0);
  window.cpuSeconds = processCpuSeconds() - cpu0;
  for (const Job& job : window.jobs) {
    window.scenarios += job.scenarios;
    window.tasks += job.tasks;
  }
  return window;
}

/// Count every scenario of every job.  A job that does not complete is a
/// wrong output.  The jobs of the checked copies run again on a 0-worker
/// queue with no cache, and each scenario goes through scenarioFault.
void checkJobs(const std::vector<Window>& windows, const Setup& s,
               std::uint64_t seed, Result& result) {
  const auto prices = pricing();
  runner::JobQueueOptions serialOptions;
  serialOptions.workers = 0;
  runner::JobQueue serial(serialOptions);
  std::size_t checkedJobs = 0;
  for (const Window& window : windows)
    for (const Job& job : window.jobs) {
      const std::size_t copy = job.index / kJobsPerCopy;
      const bool checked = copy < kCheckedCopies;
      checkedJobs += checked ? 1 : 0;
      if (!job.completed) {
        result.wrong("job " + std::to_string(job.index) +
                     " did not complete: " + job.error);
        if (checked)
          result.checkedOps(job.scenarios, job.scenarios);
        else
          result.ops(job.scenarios, job.scenarios);
        continue;
      }
      if (!checked) {
        result.ops(job.scenarios);
        continue;
      }
      const std::size_t degree = job.index % kJobsPerCopy;
      std::vector<runner::ScenarioResult> again;
      try {
        again = serial.run(jobSpecs(s.workflows, seed, job.index));
      } catch (const std::exception& e) {
        result.wrong("job " + std::to_string(job.index) +
                     " failed at 0 workers: " + e.what());
      }
      std::uint64_t failures = 0;
      for (std::size_t i = 0; i < job.results.size(); ++i) {
        const std::string fault =
            i < again.size() ? scenarioFault(job.results[i].result,
                                             again[i].result, degree, copy,
                                             prices)
                             : "no result at 0 workers";
        if (fault.empty()) continue;
        result.wrong("job " + std::to_string(job.index) + " scenario " +
                     std::to_string(i) + ": " + fault);
        ++failures;
      }
      result.checkedOps(job.scenarios, failures);
    }
  if (checkedJobs != kCheckedCopies * kJobsPerCopy)
    result.wrong("the checked copies ran " + std::to_string(checkedJobs) +
                 " jobs, not " + std::to_string(kCheckedCopies * kJobsPerCopy));
}

/// scenarioFault must pass a real result and catch it corrupted: the
/// makespan moved by one ulp, and the CPU time of a fault-free run changed
/// on both sides of the comparison.
void selfTest(const Window& window, Result& result) {
  const auto prices = pricing();
  for (const Job& job : window.jobs) {
    if (job.index != 0 || job.results.empty()) continue;
    const engine::ExecutionResult& real = job.results.front().result;
    engine::ExecutionResult makespan = real;
    makespan.makespanSeconds = std::nextafter(real.makespanSeconds, 0.0);
    engine::ExecutionResult cpu = real;
    cpu.cpuBusySeconds *= 1.01;
    const bool passes = scenarioFault(real, real, 0, 0, prices).empty();
    const bool digestCaught =
        !scenarioFault(makespan, real, 0, 0, prices).empty();
    const bool costCaught = !scenarioFault(cpu, cpu, 0, 0, prices).empty();
    if (!passes || !digestCaught || !costCaught)
      result.wrong("self-test: the sweep check passed a corrupted result or "
                   "failed a real one");
    else
      result.notes.push_back("self-test: corrupted sweep results caught");
    return;
  }
  result.wrong("self-test: job 0 missing");
}

/// Fork and exec this program in --cell mode under the cell limits.
std::string runDefectCell(const Options& options, std::size_t copy,
                          bool& ok) {
  const engine::EngineConfig config =
      cellConfig(DataMode::RemoteIO, 1, options.seed, copy);
  std::vector<std::string> args = {
      options.selfPath,
      "--cell",
      "4",
      "remote-io",
      "1",
      std::to_string(config.faults.processor.mtbfSeconds),
      std::to_string(config.faults.seed),
      copy == 0 ? std::to_string(kPaperCpuUsd[2]) : "0"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  ok = false;
  const auto start = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) return "fork failed";
  if (pid == 0) {
    // The CPU limit also ends the cell if this process dies first.
    const rlimit memory{kCellAddressSpaceBytes, kCellAddressSpaceBytes};
    const rlimit cpu{kCellCpuSeconds, kCellCpuSeconds};
    ::setrlimit(RLIMIT_AS, &memory);
    ::setrlimit(RLIMIT_CPU, &cpu);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  int status = 0;
  for (;;) {
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid) break;
    if (done < 0) return "waitpid failed";
    if (secondsSince(start) > kCellWallSeconds) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return "killed at the wall-clock limit";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::ostringstream how;
  if (WIFEXITED(status)) {
    switch (WEXITSTATUS(status)) {
      case 0: ok = true; how << "completed"; break;
      case 2: how << "ran out of memory (std::bad_alloc)"; break;
      case 4: how << "completed with the wrong CPU cost"; break;
      case 5: how << "did not complete every task"; break;
      default: how << "exited with code " << WEXITSTATUS(status);
    }
  } else if (WIFSIGNALED(status)) {
    how << "killed by signal " << WTERMSIG(status);
  }
  how << " after " << secondsSince(start) << " s";
  return how.str();
}

void runDefectCells(const Options& options, Result& result) {
  for (std::size_t copy = 0; copy < kCheckedCopies; ++copy) {
    bool ok = false;
    const std::string how = runDefectCell(options, copy, ok);
    result.checkedOps(1, ok ? 0 : 1);
    result.notes.push_back(
        "known defect, montage 4deg remote-io 1 proc, copy " +
        std::to_string(copy) + ": " + how);
  }
}

/// The traced run's layer probes over the first kProbeCopies copies.
void probeLayers(Setup& s, const Options& options, int workers,
                 Result& result) {
  const auto prices = pricing();
  const std::size_t jobs = kProbeCopies * kJobsPerCopy;

  // Each scenario on the calling thread, straight into the engine.
  double crashes = 0.0;
  double wastedCpu = 0.0;
  double tasks = 0.0;
  for (std::size_t j = 0; j < jobs; ++j)
    for (const runner::ScenarioSpec& spec :
         jobSpecs(s.workflows, options.seed, j)) {
      engine::ExecutionResult r;
      {
        const Span span("engine.simulate",
                        engine::dataModeName(spec.config.mode));
        r = engine::simulateWorkflow(*spec.workflow, spec.config);
      }
      {
        const Span span("cloud.compute_cost");
        for (int k = 0; k < kCostRepeats; ++k)
          (void)engine::computeCost(r, prices,
                                    mcsim::cloud::CpuBillingMode::Usage);
      }
      crashes += static_cast<double>(r.processorCrashes);
      wastedCpu += r.wastedCpuSeconds;
      tasks += static_cast<double>(r.tasksExecuted);
    }

  // The same jobs at once on a fresh queue and cache, five times.
  runner::MemoStats firstStats;
  std::unique_ptr<runner::ScenarioMemoCache> cache;
  std::unique_ptr<runner::JobQueue> queue;
  for (int rep = 0; rep < 5; ++rep) {
    queue.reset();
    cache = std::make_unique<runner::ScenarioMemoCache>(
        mcsim::serve::ServiceOptions{}.cache);
    runner::JobQueueOptions qo;
    qo.workers = workers;
    qo.cache = cache.get();
    queue = std::make_unique<runner::JobQueue>(qo);
    const Span round("runner.probe_round");
    std::vector<runner::JobId> ids;
    for (std::size_t j = 0; j < jobs; ++j) {
      runner::JobRequest request;
      request.scenarios = jobSpecs(s.workflows, options.seed, j);
      ids.push_back(queue->submit(std::move(request)));
    }
    for (runner::JobId id : ids) (void)queue->wait(id);
    if (rep == 0) firstStats = cache->stats();
  }

  // Submit-to-wait of one cached scenario.
  runner::JobRequest one;
  one.scenarios.resize(1);
  one.scenarios[0].workflow = &s.workflows[0];
  one.scenarios[0].config = cellConfig(DataMode::Regular, 16, options.seed, 0);
  (void)queue->run(one.scenarios);
  std::size_t uncached = 0;
  for (int i = 0; i < 300; ++i) {
    runner::JobOutcome outcome;
    {
      const Span span("runner.queue_rtt");
      outcome = queue->wait(queue->submit(one));
    }
    if (outcome.results.empty() || !outcome.results.front().fromCache)
      ++uncached;
  }
  if (uncached != 0)
    result.notes.push_back("queue_rtt: " + std::to_string(uncached) +
                           " probes missed the cache");

  for (int i = 0; i < 15; ++i) {
    const Span span("montage.build", "4");
    (void)mcsim::montage::buildMontageWorkflow(4.0);
  }
  for (int i = 0; i < 15; ++i) {
    const Span span("runner.fingerprint", "4");
    (void)runner::fingerprintWorkflow(s.workflows[2]);
  }

  const std::vector<SpanRecord> spans = collectSpans();
  double simulateMs = 0.0;
  for (double ms : spanMs(spans, "engine.simulate")) simulateMs += ms;
  const std::vector<double> rounds = spanMs(spans, "runner.probe_round");

  auto& m = result.metrics;
  setSimulateMetrics(result, spans);
  m["engine.tasks_per_s"] = tasks / (simulateMs / 1e3);
  m["runner.parallel_efficiency"] = simulateMs / (workers * median(rounds));
  m["runner.memo_hits"] = static_cast<double>(firstStats.hits);
  m["runner.memo_misses"] = static_cast<double>(firstStats.misses);
  m["runner.memo_evictions"] = static_cast<double>(firstStats.evictions);
  m["runner.memo_hit_ratio"] = firstStats.hitRate();
  m["faults.crashes"] = crashes;
  m["faults.wasted_cpu_s"] = wastedCpu;
  m["cloud.cost_us"] =
      spanMedianMs(spans, "cloud.compute_cost") * 1e3 / kCostRepeats;
  m["montage.build_4deg_ms"] = spanMedianMs(spans, "montage.build", "4");
  m["runner.fingerprint_4deg_ms"] =
      spanMedianMs(spans, "runner.fingerprint", "4");
  m["runner.queue_rtt_us"] = spanMedianMs(spans, "runner.queue_rtt") * 1e3;
  result.notes.push_back(
      "probe: " + std::to_string(spanMs(spans, "engine.simulate").size()) +
      " scenarios of copies 0.." + std::to_string(kProbeCopies - 1) +
      " direct and on the queue; memo base " +
      std::to_string(firstStats.hits + firstStats.misses) + " lookups");
}

}  // namespace

Result runSweep(const Options& options) {
  Result result;
  const int workers = runner::defaultJobs();

  // Before any thread exists: fork is only safe then.
  runDefectCells(options, result);

  Setup s;
  const std::vector<double> setupSeconds = timeSetUps(
      [&] { s = setUp(workers); },
      [&] {
        s.queue.reset();
        s = Setup{};
      });

  // An untimed warm-up window first: the cache fills to its bound and the
  // pool comes up to speed.  Its jobs, which hold the checked copies, are
  // checked like the others.
  const int callers = workers + kSpareCallers;
  std::atomic<std::size_t> nextJob{0};
  std::vector<Window> windows;
  windows.push_back(
      runWindow(s, options.seed, kWarmupSeconds, callers, nextJob));
  const int slices = options.trace ? kTraceSlices : 1;
  for (int i = 0; i < slices; ++i) {
    setTracing(options.trace && i % 2 == 1);
    windows.push_back(runWindow(s, options.seed, options.seconds / slices,
                                callers, nextJob));
  }
  setTracing(options.trace);

  checkJobs(windows, s, options.seed, result);
  selfTest(windows.front(), result);

  auto& m = result.metrics;
  if (!options.trace) {
    const Window& w = windows.back();
    std::vector<double> latencies;
    std::vector<std::pair<double, double>> scenarios, tasks, jobs;
    for (const Job& job : w.jobs) {
      latencies.push_back(job.latencyMs);
      scenarios.emplace_back(job.doneSeconds, job.scenarios);
      tasks.emplace_back(job.doneSeconds, job.tasks);
      jobs.emplace_back(job.doneSeconds, 1.0);
    }
    const std::vector<double> scenarioRates = blockRates(scenarios);
    setSetupMetric(result, setupSeconds);
    m["scenarios_per_s"] = median(scenarioRates);
    m["tasks_per_s"] = median(blockRates(tasks));
    m["req_per_s"] = median(blockRates(jobs));
    setLatencyMetrics(result, latencies,
                      "one runOnQueue call (one degree of a grid copy)");
    result.notes.push_back(joinNumbers("scenarios/s by block:", scenarioRates));
    std::ostringstream cpu;
    cpu << "window: " << w.cpuSeconds << " CPU s in " << w.wallSeconds
        << " s on " << workers << " workers, "
        << w.cpuSeconds / w.scenarios * 1e6 << " CPU us per scenario";
    result.notes.push_back(cpu.str());
  } else {
    probeLayers(s, options, workers, result);
    std::vector<double> work, seconds;
    for (std::size_t i = 1; i < windows.size(); ++i) {
      work.push_back(static_cast<double>(windows[i].scenarios));
      seconds.push_back(windows[i].wallSeconds);
    }
    m["trace.overhead_frac"] = traceOverhead(work, seconds);
  }
  const runner::MemoStats cacheStats = s.cache->stats();
  result.notes.push_back("sweep cache: " + std::to_string(cacheStats.entries) +
                         " entries, " + std::to_string(cacheStats.bytes) +
                         " bytes, " + std::to_string(cacheStats.evictions) +
                         " evictions");
  std::size_t scenarios = 0;
  for (const Window& w : windows) scenarios += w.scenarios;
  result.notes.push_back("sweep: " + std::to_string(scenarios) +
                         " scenarios in " + std::to_string(nextJob.load()) +
                         " jobs from " + std::to_string(callers) +
                         " callers on " + std::to_string(workers) + " workers");
  return result;
}

int runCell(double degrees, const std::string& mode, int processors,
            double mtbfSeconds, std::uint64_t faultSeed, double expectCpuUsd) {
  try {
    const mcsim::dag::Workflow workflow =
        mcsim::montage::buildMontageWorkflow(degrees);
    engine::EngineConfig config;
    config.mode = mode == "remote-io" ? DataMode::RemoteIO
                  : mode == "regular" ? DataMode::Regular
                                      : DataMode::DynamicCleanup;
    config.processors = processors;
    config.faults.processor.mtbfSeconds = mtbfSeconds;
    if (mtbfSeconds > 0.0) config.faults.seed = faultSeed;
    const engine::ExecutionResult r =
        engine::simulateWorkflow(workflow, config);
    if (expectCpuUsd > 0.0 &&
        std::abs(usageCpuUsd(r, pricing()) - expectCpuUsd) > 1e-6)
      return 4;
    if (mtbfSeconds <= 0.0 && !r.completed()) return 5;
    return 0;
  } catch (const std::bad_alloc&) {
    return 2;
  } catch (...) {
    return 3;
  }
}

}  // namespace perfbench
