// Workflow DAG model: tasks, files, and the data dependencies between them.
//
// Matches the paper's abstraction (§2): vertices are tasks, edges are data
// dependencies; every file has at most one producer task and any number of
// consumers; files with no producer are the workflow's external inputs
// (initially "co-located with the application", §5) and files with no
// consumer are the net outputs staged back to the user.  Task levels follow
// the paper's definition: tasks with no parents are level 1; any other
// task's level is one plus the maximum level of its parents.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mcsim/util/units.hpp"

namespace mcsim::dag {

using TaskId = std::uint32_t;
using FileId = std::uint32_t;

inline constexpr TaskId kNoTask = std::numeric_limits<TaskId>::max();

/// A logical file flowing through the workflow.
struct File {
  FileId id = 0;
  std::string name;
  Bytes size;
  TaskId producer = kNoTask;     ///< kNoTask: external input.
  std::vector<TaskId> consumers; ///< Tasks that read this file.
  /// True if the file must be delivered to the user at workflow end.  By
  /// default every file without consumers is an output; producers of
  /// consumed files can additionally be flagged (e.g. a preview JPEG that a
  /// later task also reads).
  bool explicitOutput = false;
};

/// One executable task (a vertex of the DAG).
struct Task {
  TaskId id = 0;
  std::string name;        ///< Unique instance name, e.g. "mProject_0017".
  std::string type;        ///< Routine name, e.g. "mProject" (paper: all
                           ///< tasks at a level invoke the same routine).
  double runtimeSeconds = 0.0;  ///< On the reference CPU (paper's r(v)).
  std::vector<FileId> inputs;
  std::vector<FileId> outputs;
  /// Earliest time (seconds from run start) this task may begin — models a
  /// request arriving at a running service.  0 = available immediately.
  double earliestStartSeconds = 0.0;
  // Derived by WorkflowBuilder::build():
  std::vector<TaskId> parents;
  std::vector<TaskId> children;
  int level = 0;  ///< Paper's level; 1-based.
};

/// A complete workflow: the task graph with every derived field filled in.
/// WorkflowBuilder::build() is the only way to make one, so every Workflow
/// is acyclic and has its parents, children and levels derived.  Its
/// structure is fixed; file sizes, runtimes and release times may still be
/// rescaled or set (CCR experiments change only sizes).
class Workflow {
 public:
  // -- attribute mutation -----------------------------------------------------
  /// Multiply every file size by `factor` (> 0) — the paper's CCR knob.
  void scaleAllFileSizes(double factor);
  /// Multiply every task runtime by `factor` (> 0) — used by workload
  /// calibration.  Structure (and levels) are unaffected.
  void scaleAllRuntimes(double factor);
  /// Set a task's release time (>= 0).
  void setEarliestStart(TaskId task, double seconds);

  // -- accessors -------------------------------------------------------------
  const std::string& name() const { return name_; }
  std::size_t taskCount() const { return tasks_.size(); }
  std::size_t fileCount() const { return files_.size(); }
  const Task& task(TaskId id) const { return tasks_.at(id); }
  const File& file(FileId id) const { return files_.at(id); }
  const std::vector<Task>& tasks() const { return tasks_; }
  const std::vector<File>& files() const { return files_; }

  /// Files with no producer: staged in from the user/archive.
  std::vector<FileId> externalInputs() const;
  /// Files delivered to the user: no consumers, or explicitly flagged.
  std::vector<FileId> workflowOutputs() const;

  /// Σ r(v) over all tasks, in seconds.
  double totalRuntimeSeconds() const;
  /// Σ s(f) over all files (the paper's CCR numerator before dividing by B).
  Bytes totalFileBytes() const;
  Bytes externalInputBytes() const;
  Bytes workflowOutputBytes() const;

  /// The paper's communication-to-computation ratio:
  ///   CCR = (Σ s(f) / B) / Σ r(v)   with B in bytes/second.
  double ccr(double bandwidthBytesPerSecond) const;

  /// Highest level value (the number of levels).
  int levelCount() const;

  /// Explicit control-only edges as added (for serialization).
  const std::vector<std::pair<TaskId, TaskId>>& controlDependencies() const {
    return controlEdges_;
  }

 private:
  friend class WorkflowBuilder;

  explicit Workflow(std::string name);

  std::string name_;
  std::vector<Task> tasks_;
  std::vector<File> files_;
  std::vector<std::pair<TaskId, TaskId>> controlEdges_;
};

/// The one way to construct a Workflow, from a 7-task test fixture to a
/// 10⁷-task survey campaign.
///
/// Calls may come in any order a generator finds natural, as long as a task
/// or file exists before it is referenced: inputs and outputs may bind to
/// any earlier task (CyberShake's zip tasks come first and collect their
/// inputs as the producers appear), a file's producer may be declared after
/// its consumers, and a control edge may point from a higher task id to a
/// lower one.  The builder stages the calls
/// in flat columns — one shared name arena, an interned type table, and the
/// (task, file) bindings in call order — and build() derives the graph in
/// one pass:
///
///   * bindings are grouped by task with a stable sort (skipped when they
///     already are), so each task keeps its inputs and outputs in call
///     order;
///   * each file's consumers come out in ascending task order;
///   * parents are the producers of a task's inputs plus its control
///     parents, sorted and deduplicated; children come out sorted;
///   * one Kahn pass computes the paper's levels and rejects cycles.
class WorkflowBuilder {
 public:
  explicit WorkflowBuilder(std::string name);

  /// Pre-size every column.  `nameBytes` is the expected total length of all
  /// task+file names; pass 0 to let the arena grow geometrically.
  void reserve(std::size_t tasks, std::size_t files, std::size_t inputEdges,
               std::size_t outputEdges, std::size_t nameBytes = 0);

  /// A negative runtime throws std::invalid_argument.
  TaskId addTask(std::string_view name, std::string_view type,
                 double runtimeSeconds);
  /// A negative size throws std::invalid_argument.
  FileId addFile(std::string_view name, Bytes size);
  /// Bind `file` as an input of `task`.  Binding a file twice to one task,
  /// or to the task that produces it, makes build() throw
  /// std::invalid_argument.
  void addInput(TaskId task, FileId file);
  /// Declare `task` as the producer of `file`.  A file has at most one
  /// producer: a second throws std::invalid_argument.
  void addOutput(TaskId task, FileId file);
  /// Control-only edge: `parent` must finish before `child` starts.
  void addControlDependency(TaskId parent, TaskId child);
  /// Flag a consumed file as nonetheless being a user-visible output.
  void markExplicitOutput(FileId file);
  void setEarliestStart(TaskId task, double seconds);
  // Every id argument above must name an existing task or file; an unknown
  // id throws std::out_of_range.

  std::size_t taskCount() const { return taskRuntime_.size(); }
  std::size_t fileCount() const { return fileSize_.size(); }
  const std::string& name() const { return name_; }

  /// Derive the task graph and materialize the Workflow.  Throws
  /// std::logic_error if the graph has a cycle.  The builder is left empty
  /// and may be reused; an empty builder builds an empty workflow.
  Workflow build();

 private:
  struct NameRef {
    std::uint64_t offset;
    std::uint32_t length;
  };
  /// One (task, file) binding.
  using Binding = std::pair<TaskId, FileId>;

  std::string_view nameAt(NameRef ref) const {
    return std::string_view(nameArena_).substr(ref.offset, ref.length);
  }
  NameRef internName(std::string_view name);
  std::uint32_t internType(std::string_view type);
  void requireTask(TaskId task) const;
  void requireFile(FileId file) const;
  void clear();

  std::string name_;

  // One arena for every task and file name; NameRefs index into it.
  std::string nameArena_;

  // -- task columns -----------------------------------------------------------
  std::vector<NameRef> taskName_;
  std::vector<std::uint32_t> taskType_;  ///< Index into typeTable_.
  std::vector<double> taskRuntime_;
  std::vector<double> taskEarliestStart_;

  // -- bindings, in call order -----------------------------------------------
  std::vector<Binding> inputs_;
  std::vector<Binding> outputs_;

  // -- file columns -----------------------------------------------------------
  std::vector<NameRef> fileName_;
  std::vector<Bytes> fileSize_;
  std::vector<TaskId> fileProducer_;
  std::vector<std::uint32_t> fileConsumers_;  ///< Count only; lists derived.
  std::vector<bool> fileExplicitOutput_;

  std::vector<std::string> typeTable_;  ///< Few distinct routine names.
  std::vector<std::pair<TaskId, TaskId>> controlEdges_;
};

}  // namespace mcsim::dag
