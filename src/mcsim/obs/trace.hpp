// Causal span tracing: folds the typed event stream into typed spans with
// parent/child and causal edges — the layer `mcsim explain` (critical-path
// cost attribution) and the Perfetto/Chrome trace exporters stand on.
//
// Design:
//  * `TraceStore` is a flat structure-of-arrays: one std::vector column per
//    span attribute (kind, begin, end, task, file, bytes, lane, flags), plus
//    edge and counter-sample columns.  Million-task runs produce a few
//    million spans; SoA keeps that at tens of bytes per span with zero
//    per-span allocation.
//  * `SpanSink` is an ordinary obs::Sink: it consumes the engine's event
//    stream and opens/closes spans.  Folding is purely event-driven, so the
//    sink works on live runs, replayed runner captures, and JSONL re-reads
//    alike.  Tracing off = sink absent = zero cost (the engine's null
//    observer check).
//  * Causality is explicit: Child edges tie sub-spans (compute, stage-in/out,
//    retry wait) to their Task span; FollowsFrom edges record *why a span
//    could start* (parent task finished, external input landed, queue wait
//    ended); Resource edges record contention (the previous occupant of the
//    processor lane a task had to wait for).  analysis/explain walks these
//    edges backward to extract the simulated critical path.
//
// Like every obs header, this sits below sim/cloud/engine/dag and speaks raw
// integer ids only.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "mcsim/obs/sink.hpp"

namespace mcsim::obs {

/// What a span measures.  Values are stable.
enum class SpanKind : std::uint8_t {
  Run,          ///< RunStarted .. RunFinished (excludes VM startup/teardown).
  QueueWait,    ///< TaskReady .. TaskStarted (deps met, waiting to dispatch).
  Task,         ///< TaskStarted .. TaskFinished/TaskFailed (whole occupancy).
  Compute,      ///< TaskExecStarted .. attempt end (finish, crash, or first
                ///< stage-out in remote I/O, which marks exec end there).
  StageIn,      ///< StageInStarted .. StageInFinished (one file transfer).
  StageOut,     ///< StageOutStarted .. StageOutFinished.
  RetryWait,    ///< TaskRetryScheduled's delay window before the re-attempt.
  OutageStall,  ///< LinkSuspended .. LinkResumed (outage stalling transfers).
};
inline constexpr std::size_t kSpanKindCount = 8;

/// Stable snake_case name (Perfetto categories, explain buckets, JSON).
const char* spanKindName(SpanKind kind);

/// How two spans relate.  Values are stable.
enum class EdgeKind : std::uint8_t {
  Child,        ///< `to` is a sub-span of `from` (same task, nested in time).
  FollowsFrom,  ///< `from` ending is why `to` could begin (causality).
  Resource,     ///< `from` freeing a processor lane is why `to` could end.
};

const char* edgeKindName(EdgeKind kind);

inline constexpr std::uint32_t kNoSpan = 0xffffffffu;
/// Mirrors dag-level "no file" for spans not tied to a file.
inline constexpr std::uint32_t kNoFile = 0xffffffffu;
/// Lane of spans that occupy no schedulable resource (Run, QueueWait).
inline constexpr std::int32_t kLaneNone = -2;
/// The shared user<->storage link lane (transfers, outage stalls).
inline constexpr std::int32_t kLaneLink = -1;

/// Span flag bits (column `spanFlags`).
inline constexpr std::uint8_t kSpanFlagFailed = 1u << 0;

/// Flat structure-of-arrays span storage.  Spans are identified by their
/// index; an open span has end < 0 until endSpan() closes it.  Columns are
/// exposed by const reference so exporters and analysis iterate without
/// copies.
class TraceStore {
 public:
  /// Pre-size the columns so the emit hot path never reallocates mid-run.
  void reserve(std::size_t spans, std::size_t edges = 0,
               std::size_t counters = 0);

  std::uint32_t beginSpan(SpanKind kind, double begin, std::uint32_t task,
                          std::uint32_t file, double bytes, std::int32_t lane);
  void endSpan(std::uint32_t span, double end);
  void markFailed(std::uint32_t span);
  void addEdge(std::uint32_t from, std::uint32_t to, EdgeKind kind);
  /// Storage-occupancy counter track (resident bytes / object count).
  void addCounterSample(double time, double residentBytes, double objects);

  std::size_t spanCount() const { return spanKind_.size(); }
  std::size_t edgeCount() const { return edgeFrom_.size(); }
  std::size_t counterCount() const { return counterTime_.size(); }

  SpanKind kind(std::uint32_t span) const {
    return static_cast<SpanKind>(spanKind_[span]);
  }
  double begin(std::uint32_t span) const { return spanBegin_[span]; }
  double end(std::uint32_t span) const { return spanEnd_[span]; }
  bool isOpen(std::uint32_t span) const { return spanEnd_[span] < 0.0; }
  bool isFailed(std::uint32_t span) const {
    return (spanFlags_[span] & kSpanFlagFailed) != 0;
  }
  std::uint32_t task(std::uint32_t span) const { return spanTask_[span]; }
  std::uint32_t file(std::uint32_t span) const { return spanFile_[span]; }
  double bytes(std::uint32_t span) const { return spanBytes_[span]; }
  std::int32_t lane(std::uint32_t span) const { return spanLane_[span]; }

  // Raw columns (exporters, tests).
  const std::vector<double>& spanBegins() const { return spanBegin_; }
  const std::vector<std::uint32_t>& edgeFroms() const { return edgeFrom_; }
  const std::vector<std::uint32_t>& edgeTos() const { return edgeTo_; }
  const std::vector<std::uint8_t>& edgeKinds() const { return edgeKind_; }
  const std::vector<double>& counterTimes() const { return counterTime_; }
  const std::vector<double>& counterBytes() const { return counterBytes_; }
  const std::vector<double>& counterObjects() const { return counterObjects_; }

  /// Number of processor lanes touched (max processor lane + 1).
  int laneCount() const { return laneCount_; }
  /// Latest time seen across span begins/ends and counter samples — the
  /// clip point exporters use for still-open spans.
  double maxTime() const { return maxTime_; }

 private:
  void note(double t) {
    if (t > maxTime_) maxTime_ = t;
  }

  std::vector<std::uint8_t> spanKind_;
  std::vector<std::uint8_t> spanFlags_;
  std::vector<double> spanBegin_;
  std::vector<double> spanEnd_;
  std::vector<std::uint32_t> spanTask_;
  std::vector<std::uint32_t> spanFile_;
  std::vector<double> spanBytes_;
  std::vector<std::int32_t> spanLane_;

  std::vector<std::uint32_t> edgeFrom_;
  std::vector<std::uint32_t> edgeTo_;
  std::vector<std::uint8_t> edgeKind_;

  std::vector<double> counterTime_;
  std::vector<double> counterBytes_;
  std::vector<double> counterObjects_;

  int laneCount_ = 0;
  double maxTime_ = 0.0;
};

/// One task's occupancy as its spans record it: `start` is the begin of the
/// task's first Task span, `finish` the end of a Task span that closed
/// without failing.  -1 where the trace holds no such span (a task that
/// never started, or failed for good).
struct TaskTimes {
  double start = -1.0;
  double finish = -1.0;
};

/// Per-task start and finish, indexed by task id; spans of tasks at or
/// beyond `taskCount` (and task-less spans) are ignored.
std::vector<TaskTimes> taskTimes(const TraceStore& store,
                                 std::size_t taskCount);

/// Static task-graph context for causal edges, in obs-layer terms (raw ids;
/// build one from a dag::Workflow with analysis::traceTopology).  CSR layout:
/// task t's parents are parents[parentOffsets[t] .. parentOffsets[t+1]), its
/// external-input files likewise.  An empty topology is valid: spans still
/// fold correctly, only dependency FollowsFrom edges are omitted.
struct TraceTopology {
  std::vector<std::uint32_t> parentOffsets;
  std::vector<std::uint32_t> parents;
  std::vector<std::uint32_t> extInputOffsets;
  std::vector<std::uint32_t> extInputs;

  bool empty() const { return parentOffsets.size() < 2; }
};

/// Folds the event stream into spans.  Stateless across runs is NOT
/// guaranteed — use one SpanSink per run, like the engine's other sinks.
///
/// Folding rules (documented in DESIGN.md "Span model"):
///  * RunStarted/RunFinished bound the Run span.
///  * TaskReady opens QueueWait; FollowsFrom edges arrive from each parent's
///    closed Task span and (regular modes) each external input's stage-in.
///  * TaskStarted closes QueueWait, claims the lowest free processor lane
///    (mirroring the engine's dispatch order) and opens the Task span; the
///    lane's previous occupant gets a Resource edge to the QueueWait.
///  * TaskExecStarted opens a Compute child span; it closes at TaskFinished,
///    at ProcessorCrashed (marked failed), or at the task's first
///    StageOutStarted (remote I/O defines exec end that way).
///  * Stage events open/close StageIn/StageOut spans on the link lane,
///    children of their task's span when task-attributed.
///  * TaskRetryScheduled records the delay window as a closed RetryWait
///    child span.
///  * TaskFinished/TaskFailed close the Task span (failed marks it) and free
///    the lane; the last closed Task span feeds FollowsFrom edges into the
///    workflow-level stage-out spans.
///  * LinkSuspended/Resumed bound OutageStall spans on the link lane;
///    storage put/erase/sample events feed the counter track.
class SpanSink final : public Sink {
 public:
  explicit SpanSink(TraceStore& store, TraceTopology topology = {});

  void onEvent(const Event& event) override;
  bool accepts(EventKind kind) const override;

  const TraceStore& store() const { return store_; }

 private:
  void ensureTask(std::uint32_t task);
  void onTaskReady(double t, std::uint32_t task);
  void onTaskStarted(double t, std::uint32_t task);
  void onTaskExecStarted(double t, std::uint32_t task);
  void closeCompute(double t, std::uint32_t task, bool failed);
  void onTaskDone(double t, std::uint32_t task, bool failed);
  void onStageStarted(SpanKind kind, double t, std::uint32_t file,
                      std::uint32_t task, double bytes);
  void onStageFinished(double t, std::uint32_t file, std::uint32_t task);
  std::int32_t claimLane(std::uint32_t queueSpan);
  void freeLane(std::int32_t lane);

  TraceStore& store_;
  TraceTopology topo_;

  std::uint32_t runSpan_ = kNoSpan;
  std::uint32_t outageSpan_ = kNoSpan;
  std::uint32_t lastClosedTask_ = kNoSpan;

  // Task-indexed state (grown on demand; RunStarted pre-sizes).
  std::vector<std::uint32_t> queueSpan_;
  std::vector<std::uint32_t> taskSpan_;
  std::vector<std::uint32_t> computeSpan_;
  std::vector<std::uint32_t> closedTaskSpan_;
  std::vector<std::int32_t> taskLane_;

  // File-indexed: the closed workflow-level stage-in span per external file.
  std::vector<std::uint32_t> extStageSpan_;

  // Lane bookkeeping: free lanes (lowest first) and each lane's previous
  // occupant Task span, for Resource contention edges.
  std::vector<std::int32_t> freeLanes_;  ///< Kept sorted descending.
  std::int32_t nextLane_ = 0;
  std::vector<std::uint32_t> lanePrev_;

  /// Open stage spans keyed by (task << 32 | file).  Looked up only, never
  /// iterated, so hash order cannot reach any output.
  std::unordered_map<std::uint64_t, std::uint32_t> openStage_;
};

/// Optional display names for the exporters (index = task/file id).  Build
/// from a workflow with analysis::traceNames.
struct TraceNames {
  std::vector<std::string> taskNames;
  std::vector<std::string> taskTypes;
  std::vector<std::string> fileNames;
};

/// Chrome trace-event JSON (object form, loads in Perfetto and
/// chrome://tracing).  One lane ("thread") per processor with task spans and
/// their nested compute/stage sub-spans; the shared link and queue waits get
/// their own processes with greedily packed sub-lanes; the storage counter
/// track renders as a "C" series.  Timestamps are microseconds.  Open spans
/// are clipped at store.maxTime().
void writePerfettoTrace(std::ostream& os, const TraceStore& store,
                        const TraceNames* names = nullptr);

}  // namespace mcsim::obs
