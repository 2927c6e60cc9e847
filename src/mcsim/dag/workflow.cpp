#include "mcsim/dag/workflow.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace mcsim::dag {

Workflow::Workflow(std::string name) : name_(std::move(name)) {}

void Workflow::scaleAllFileSizes(double factor) {
  if (!(factor > 0.0))
    throw std::invalid_argument("Workflow::scaleAllFileSizes: factor must be > 0");
  for (File& f : files_) f.size *= factor;
}

void Workflow::setEarliestStart(TaskId task, double seconds) {
  if (task >= tasks_.size())
    throw std::out_of_range("Workflow: invalid task id " +
                            std::to_string(task));
  if (seconds < 0.0)
    throw std::invalid_argument("Workflow::setEarliestStart: negative time");
  tasks_[task].earliestStartSeconds = seconds;
}

void Workflow::scaleAllRuntimes(double factor) {
  if (!(factor > 0.0))
    throw std::invalid_argument("Workflow::scaleAllRuntimes: factor must be > 0");
  for (Task& t : tasks_) t.runtimeSeconds *= factor;
}

std::vector<FileId> Workflow::externalInputs() const {
  std::vector<FileId> out;
  for (const File& f : files_)
    if (f.producer == kNoTask) out.push_back(f.id);
  return out;
}

std::vector<FileId> Workflow::workflowOutputs() const {
  std::vector<FileId> out;
  for (const File& f : files_)
    if (f.explicitOutput || (f.consumers.empty() && f.producer != kNoTask))
      out.push_back(f.id);
  return out;
}

double Workflow::totalRuntimeSeconds() const {
  double total = 0.0;
  for (const Task& t : tasks_) total += t.runtimeSeconds;
  return total;
}

Bytes Workflow::totalFileBytes() const {
  Bytes total;
  for (const File& f : files_) total += f.size;
  return total;
}

Bytes Workflow::externalInputBytes() const {
  Bytes total;
  for (const File& f : files_)
    if (f.producer == kNoTask) total += f.size;
  return total;
}

Bytes Workflow::workflowOutputBytes() const {
  Bytes total;
  for (FileId id : workflowOutputs()) total += files_[id].size;
  return total;
}

double Workflow::ccr(double bandwidthBytesPerSecond) const {
  if (!(bandwidthBytesPerSecond > 0.0))
    throw std::invalid_argument("Workflow::ccr: bandwidth must be positive");
  const double compute = totalRuntimeSeconds();
  // Guards a division; only an exactly-zero total divides to infinity.
  // mcsim-lint: allow(float-equality)
  if (compute == 0.0)
    throw std::logic_error("Workflow::ccr: zero total runtime");
  return (totalFileBytes().value() / bandwidthBytesPerSecond) / compute;
}

int Workflow::levelCount() const {
  int maxLevel = 0;
  for (const Task& t : tasks_) maxLevel = std::max(maxLevel, t.level);
  return maxLevel;
}

// ---------------------------------------------------------------------------
// WorkflowBuilder
// ---------------------------------------------------------------------------

WorkflowBuilder::WorkflowBuilder(std::string name) : name_(std::move(name)) {}

void WorkflowBuilder::reserve(std::size_t tasks, std::size_t files,
                              std::size_t inputEdges, std::size_t outputEdges,
                              std::size_t nameBytes) {
  taskName_.reserve(tasks);
  taskType_.reserve(tasks);
  taskRuntime_.reserve(tasks);
  taskEarliestStart_.reserve(tasks);
  inputs_.reserve(inputEdges);
  outputs_.reserve(outputEdges);
  fileName_.reserve(files);
  fileSize_.reserve(files);
  fileProducer_.reserve(files);
  fileConsumers_.reserve(files);
  fileExplicitOutput_.reserve(files);
  if (nameBytes > 0) nameArena_.reserve(nameBytes);
}

WorkflowBuilder::NameRef WorkflowBuilder::internName(std::string_view name) {
  NameRef ref;
  ref.offset = nameArena_.size();
  ref.length = static_cast<std::uint32_t>(name.size());
  nameArena_.append(name);
  return ref;
}

std::uint32_t WorkflowBuilder::internType(std::string_view type) {
  // A workflow has a handful of routine names (Montage: 9); linear scan
  // beats a hash map at that cardinality.
  for (std::size_t i = 0; i < typeTable_.size(); ++i)
    if (typeTable_[i] == type) return static_cast<std::uint32_t>(i);
  typeTable_.emplace_back(type);
  return static_cast<std::uint32_t>(typeTable_.size() - 1);
}

void WorkflowBuilder::requireTask(TaskId task) const {
  if (task >= taskRuntime_.size())
    throw std::out_of_range("WorkflowBuilder: invalid task id " +
                            std::to_string(task));
}

void WorkflowBuilder::requireFile(FileId file) const {
  if (file >= fileSize_.size())
    throw std::out_of_range("WorkflowBuilder: invalid file id " +
                            std::to_string(file));
}

TaskId WorkflowBuilder::addTask(std::string_view name, std::string_view type,
                                double runtimeSeconds) {
  if (runtimeSeconds < 0.0)
    throw std::invalid_argument("WorkflowBuilder::addTask: negative runtime");
  const TaskId id = static_cast<TaskId>(taskRuntime_.size());
  taskName_.push_back(internName(name));
  taskType_.push_back(internType(type));
  taskRuntime_.push_back(runtimeSeconds);
  taskEarliestStart_.push_back(0.0);
  return id;
}

FileId WorkflowBuilder::addFile(std::string_view name, Bytes size) {
  if (size.value() < 0.0)
    throw std::invalid_argument("WorkflowBuilder::addFile: negative size");
  const FileId id = static_cast<FileId>(fileSize_.size());
  fileName_.push_back(internName(name));
  fileSize_.push_back(size);
  fileProducer_.push_back(kNoTask);
  fileConsumers_.push_back(0);
  fileExplicitOutput_.push_back(false);
  return id;
}

void WorkflowBuilder::addInput(TaskId task, FileId file) {
  requireTask(task);
  requireFile(file);
  inputs_.emplace_back(task, file);
  ++fileConsumers_[file];
}

void WorkflowBuilder::addOutput(TaskId task, FileId file) {
  requireTask(task);
  requireFile(file);
  if (fileProducer_[file] != kNoTask)
    throw std::invalid_argument("WorkflowBuilder::addOutput: file '" +
                                std::string(nameAt(fileName_[file])) +
                                "' already has a producer");
  fileProducer_[file] = task;
  outputs_.emplace_back(task, file);
}

void WorkflowBuilder::addControlDependency(TaskId parent, TaskId child) {
  requireTask(parent);
  requireTask(child);
  if (parent == child)
    throw std::invalid_argument(
        "WorkflowBuilder::addControlDependency: self control dependency");
  controlEdges_.emplace_back(parent, child);
}

void WorkflowBuilder::markExplicitOutput(FileId file) {
  requireFile(file);
  fileExplicitOutput_[file] = true;
}

void WorkflowBuilder::setEarliestStart(TaskId task, double seconds) {
  requireTask(task);
  if (seconds < 0.0)
    throw std::invalid_argument(
        "WorkflowBuilder::setEarliestStart: negative time");
  taskEarliestStart_[task] = seconds;
}

void WorkflowBuilder::clear() {
  nameArena_.clear();
  taskName_.clear();
  taskType_.clear();
  taskRuntime_.clear();
  taskEarliestStart_.clear();
  inputs_.clear();
  outputs_.clear();
  fileName_.clear();
  fileSize_.clear();
  fileProducer_.clear();
  fileConsumers_.clear();
  fileExplicitOutput_.clear();
  typeTable_.clear();
  controlEdges_.clear();
}

Workflow WorkflowBuilder::build() {
  const std::size_t taskCount = taskRuntime_.size();
  const std::size_t fileCount = fileSize_.size();

  // Group the bindings by task, keeping each task's call order.  A
  // generator that binds only its newest task (the survey, Montage) has
  // them grouped already and pays one scan.
  auto byTask = [](const Binding& a, const Binding& b) {
    return a.first < b.first;
  };
  for (std::vector<Binding>* bindings : {&inputs_, &outputs_})
    if (!std::is_sorted(bindings->begin(), bindings->end(), byTask))
      std::stable_sort(bindings->begin(), bindings->end(), byTask);

  Workflow wf(name_);
  wf.tasks_.resize(taskCount);
  wf.files_.resize(fileCount);

  for (std::size_t i = 0; i < fileCount; ++i) {
    File& f = wf.files_[i];
    f.id = static_cast<FileId>(i);
    f.name = std::string(nameAt(fileName_[i]));
    f.size = fileSize_[i];
    f.producer = fileProducer_[i];
    f.consumers.reserve(fileConsumers_[i]);
    f.explicitOutput = fileExplicitOutput_[i];
  }

  // Materialize tasks in id order, so every consumer list fills in
  // ascending task order and `consumers.back() == id` asks whether the
  // task being built already reads the file.
  std::size_t in = 0;
  std::size_t out = 0;
  for (std::size_t i = 0; i < taskCount; ++i) {
    Task& t = wf.tasks_[i];
    const TaskId id = static_cast<TaskId>(i);
    t.id = id;
    t.name = std::string(nameAt(taskName_[i]));
    t.type = typeTable_[taskType_[i]];
    t.runtimeSeconds = taskRuntime_[i];
    t.earliestStartSeconds = taskEarliestStart_[i];

    const std::size_t inBegin = in;
    while (in < inputs_.size() && inputs_[in].first == id) ++in;
    t.inputs.reserve(in - inBegin);
    for (std::size_t k = inBegin; k < in; ++k) {
      const FileId file = inputs_[k].second;
      std::vector<TaskId>& consumers = wf.files_[file].consumers;
      if (!consumers.empty() && consumers.back() == id)
        throw std::invalid_argument("WorkflowBuilder: task '" + t.name +
                                    "' binds input '" + wf.files_[file].name +
                                    "' twice");
      consumers.push_back(id);
      t.inputs.push_back(file);
      if (fileProducer_[file] != kNoTask)
        t.parents.push_back(fileProducer_[file]);
    }

    const std::size_t outBegin = out;
    while (out < outputs_.size() && outputs_[out].first == id) ++out;
    t.outputs.reserve(out - outBegin);
    for (std::size_t k = outBegin; k < out; ++k) {
      const FileId file = outputs_[k].second;
      const std::vector<TaskId>& consumers = wf.files_[file].consumers;
      if (!consumers.empty() && consumers.back() == id)
        throw std::invalid_argument("WorkflowBuilder: task '" + t.name +
                                    "' both produces and consumes '" +
                                    wf.files_[file].name + "'");
      t.outputs.push_back(file);
    }
  }
  for (const auto& [parent, child] : controlEdges_)
    wf.tasks_[child].parents.push_back(parent);

  // Kahn's algorithm yields the paper's levels (sources are level 1, any
  // other task 1 + the highest level among its parents) and rejects cycles.
  // Parents are deduplicated and children pushed in one ascending loop, so
  // children come out sorted.
  std::vector<std::uint32_t> pendingParents(taskCount);
  std::vector<TaskId> ready;
  ready.reserve(taskCount);
  for (std::size_t i = 0; i < taskCount; ++i) {
    Task& t = wf.tasks_[i];
    std::sort(t.parents.begin(), t.parents.end());
    t.parents.erase(std::unique(t.parents.begin(), t.parents.end()),
                    t.parents.end());
    for (TaskId p : t.parents) wf.tasks_[p].children.push_back(t.id);
    pendingParents[i] = static_cast<std::uint32_t>(t.parents.size());
    t.level = 1;
    if (t.parents.empty()) ready.push_back(t.id);
  }
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const Task& t = wf.tasks_[ready[head]];
    for (TaskId c : t.children) {
      Task& child = wf.tasks_[c];
      child.level = std::max(child.level, t.level + 1);
      if (--pendingParents[c] == 0) ready.push_back(c);
    }
  }
  if (ready.size() != taskCount)
    throw std::logic_error("Workflow '" + name_ + "' contains a cycle");

  wf.controlEdges_ = std::move(controlEdges_);
  clear();
  return wf;
}

}  // namespace mcsim::dag
