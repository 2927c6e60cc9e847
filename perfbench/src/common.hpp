// Shared pieces of the perfbench program: options, the result record every
// workload fills, the metric catalog, sample statistics, memory readings and
// the host block.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline Clock::duration secondsDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string traceOut;
  /// Directory for the serve workload's AF_UNIX socket.  Keep it short:
  /// socket paths are limited to about 100 bytes.
  std::string socketDir = ".";
  /// This program's own path, re-executed to run the known-defect cell.
  std::string selfPath;
};

/// One workload run: operations attempted and failed, whether every output
/// check passed, and the metrics by name.  Notes are printed, one line
/// each, before the result line.
///
/// A fixed, seed-determined subset of the operations is the checked set:
/// ok_frac is 1 - checkedFailed / checkedAttempted, and the result line's
/// "attempted" and "failed" are these two counts.  So they do not scale
/// with throughput, two runs of the same code and seed report the same
/// counts, and one more failure in the set moves ok_frac by a whole share.
/// A failure outside the set is always also a wrong output.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t checkedAttempted = 0;
  std::uint64_t checkedFailed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;

  /// Count `n` operations, `failures` of them failed.
  void ops(std::uint64_t n, std::uint64_t failures = 0) {
    attempted += n;
    failed += failures;
  }
  /// Count `n` operations of the checked set, `failures` of them failed.
  void checkedOps(std::uint64_t n, std::uint64_t failures = 0) {
    ops(n, failures);
    checkedAttempted += n;
    checkedFailed += failures;
  }
  /// Record a wrong output: clears `correct` and notes why (the first few
  /// only).  The operation that produced it is counted failed by the caller.
  void wrong(const std::string& what);
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0, by every workload.
extern const std::vector<MetricDef> kEndToEndMetrics;
/// Printed with --trace 1, by every workload.  A layer the workload does not
/// call has no spans and reads 0.
extern const std::vector<MetricDef> kPerLayerMetrics;

/// Quantile with linear interpolation between order statistics (q in
/// [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/// Samples strictly greater than `threshold`.
std::size_t countAbove(const std::vector<double>& values, double threshold);

/// Untimed set-ups run for this long before the timed ones, so the CPU and
/// caches are warm: the first milliseconds after a process starts run up to
/// 1.5x slower on the shared host.
constexpr double kSetupWarmupSeconds = 0.5;
/// Timed set-ups run for at least this long (see timeSetUps).
constexpr double kSetupTimedSeconds = 1.0;

/// Set setup_s from the set-up times in the order they ran: the median of
/// the mean times of kRateBlocks consecutive blocks.  A set-up takes
/// milliseconds, and the shared host slows down for spells of about 100 ms,
/// so single set-up times fall in a fast and a slow group, and a plain
/// median jumps between the two as the share of slow spells changes.  A
/// block of set-ups spans about 100 ms, so its mean moves with that share
/// smoothly.
void setSetupMetric(Result& result, const std::vector<double>& seconds);

/// Set req_p50_ms and req_p99_ms from per-request latencies and note the
/// sample count and how many samples lie beyond the p99.
void setLatencyMetrics(Result& result, const std::vector<double>& latenciesMs,
                       const std::string& requestKind);

/// The traced run splits its window into slices that alternate untraced
/// (even) and traced (odd), so drift over the run does not bias the
/// comparison.
constexpr int kTraceSlices = 4;

/// Untraced rate over traced rate, minus 1, from per-slice work and wall
/// seconds laid out as above.
double traceOverhead(const std::vector<double>& work,
                     const std::vector<double>& seconds);

/// engine::computeCost takes tens of nanoseconds, near the clock's
/// resolution; its span covers this many calls.
constexpr int kCostRepeats = 100;

/// Throughput of a window in kRateBlocks consecutive blocks, from
/// (seconds since the window opened, work) completions: each block holds an
/// equal share of the completions, and its rate is the work it completed
/// over the time since the previous block ended.  The median of these rates
/// is the window's rate, so a stall of a few seconds does not move it.
constexpr std::size_t kRateBlocks = 10;
std::vector<double> blockRates(
    std::vector<std::pair<double, double>> completions);

/// Call setUp() untimed for kSetupWarmupSeconds, then timed for at least
/// kSetupTimedSeconds and kRateBlocks times, calling tearDown() between
/// calls; the last set-up stays in place.  Returns the timed set-ups'
/// seconds in the order they ran.
template <typename SetUp, typename TearDown>
std::vector<double> timeSetUps(SetUp&& setUp, TearDown&& tearDown) {
  std::vector<double> seconds;
  const auto start = Clock::now();
  auto timedStart = start;
  for (;;) {
    const bool warm = secondsSince(start) >= kSetupWarmupSeconds;
    if (warm && seconds.empty()) timedStart = Clock::now();
    const auto t0 = Clock::now();
    setUp();
    if (warm) seconds.push_back(secondsSince(t0));
    if (seconds.size() >= kRateBlocks &&
        secondsSince(timedStart) >= kSetupTimedSeconds)
      return seconds;
    tearDown();
  }
}

/// "<label> v1 v2 ...", each value rounded to an integer, for a note.
std::string joinNumbers(const std::string& label,
                        const std::vector<double>& values);

/// 64-bit FNV-1a over the exact bits of the values added, so two results
/// that differ by one ulp in any value have different digests.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 1099511628211ull;
    }
    return *this;
  }
  Digest& add(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// Resident set size now, from /proc/self/statm; 0 if unreadable.
std::size_t currentRssBytes();
/// Peak resident set size of this process (getrusage).
std::size_t peakRssBytes();
/// User plus system CPU time of this process so far, in seconds.
double processCpuSeconds();

/// Host block stamped on every result: nproc, CPU model, compiler, build
/// type and the git SHA from the generated mcsim/version.hpp.  One JSON
/// object on one line.
std::string hostJson();

/// The workload entry points.  Each fills end-to-end metrics, or per-layer
/// metrics when options.trace is set.
Result runSweep(const Options& options);
Result runServe(const Options& options);
Result runSurvey(const Options& options);

/// Child-process mode for the sweep's known-defect cell: simulate one
/// Montage scenario.  Returns the exit code: 0 if it completes with the
/// expected usage CPU cost (`expectCpuUsd` <= 0 skips that check), 2 on
/// std::bad_alloc, 3 on any other failure, 4 on a wrong CPU cost, 5 if a
/// fault-free run leaves tasks unfinished.
int runCell(double degrees, const std::string& mode, int processors,
            double mtbfSeconds, std::uint64_t faultSeed, double expectCpuUsd);

}  // namespace perfbench
