#include "mcsim/dag/merge.hpp"

#include <set>
#include <stdexcept>

namespace mcsim::dag {

namespace {

/// Append one part into `merged`, every name prefixed with `prefix`.  A
/// release time > 0 replaces the release time of the part's source tasks.
/// `taskMap`/`fileMap` are caller-owned scratch so the per-part id tables
/// are allocated once per batch, not once per part.
void appendPart(WorkflowBuilder& merged, const Workflow& part,
                const std::string& prefix, double releaseSeconds,
                std::vector<TaskId>& taskMap, std::vector<FileId>& fileMap,
                std::string& nameScratch) {
  auto prefixed = [&](const std::string& name) -> const std::string& {
    nameScratch.assign(prefix);
    nameScratch.append(name);
    return nameScratch;
  };

  fileMap.resize(part.fileCount());
  for (const File& f : part.files()) {
    fileMap[f.id] = merged.addFile(prefixed(f.name), f.size);
    if (f.explicitOutput) merged.markExplicitOutput(fileMap[f.id]);
  }
  taskMap.resize(part.taskCount());
  for (const Task& t : part.tasks()) {
    const TaskId id =
        merged.addTask(prefixed(t.name), t.type, t.runtimeSeconds);
    taskMap[t.id] = id;
    for (FileId in : t.inputs) merged.addInput(id, fileMap[in]);
    for (FileId out : t.outputs) merged.addOutput(id, fileMap[out]);
    const double release = releaseSeconds > 0.0 && t.parents.empty()
                               ? releaseSeconds
                               : t.earliestStartSeconds;
    if (release > 0.0) merged.setEarliestStart(id, release);
  }
  for (const auto& [parent, child] : part.controlDependencies())
    merged.addControlDependency(taskMap[parent], taskMap[child]);
}

}  // namespace

Workflow mergeWorkflows(const std::vector<Workflow>& parts,
                        const std::string& name) {
  return mergeWorkflowsStaggered(parts, std::vector<double>(parts.size(), 0.0),
                                 name);
}

Workflow mergeWorkflowsStaggered(const std::vector<Workflow>& parts,
                                 const std::vector<double>& releaseSeconds,
                                 const std::string& name) {
  if (releaseSeconds.size() != parts.size())
    throw std::invalid_argument(
        "mergeWorkflowsStaggered: one release time per part required");
  for (double release : releaseSeconds)
    if (release < 0.0)
      throw std::invalid_argument(
          "mergeWorkflowsStaggered: negative release time");
  if (parts.empty())
    throw std::invalid_argument("mergeWorkflows: no parts");

  // Choose prefixes: part names when unique, positional otherwise.
  std::vector<std::string> prefixes;
  {
    std::set<std::string> seen;
    bool unique = true;
    for (const Workflow& part : parts)
      unique = seen.insert(part.name()).second && unique;
    prefixes.reserve(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i)
      prefixes.push_back((unique ? parts[i].name()
                                 : "req" + std::to_string(i)) +
                         "/");
  }

  // Reserve the whole batch up front: at 10³+ parts the doubling cascade on
  // the task/file columns used to dominate build time.
  std::size_t totalTasks = 0;
  std::size_t totalFiles = 0;
  for (const Workflow& part : parts) {
    totalTasks += part.taskCount();
    totalFiles += part.fileCount();
  }

  WorkflowBuilder merged(name);
  merged.reserve(totalTasks, totalFiles, 0, 0);
  std::vector<TaskId> taskMap;
  std::vector<FileId> fileMap;
  std::string nameScratch;
  for (std::size_t i = 0; i < parts.size(); ++i)
    appendPart(merged, parts[i], prefixes[i], releaseSeconds[i], taskMap,
               fileMap, nameScratch);
  return merged.build();
}

std::vector<TaskId> partTaskOffsets(const std::vector<Workflow>& parts) {
  std::vector<TaskId> offsets;
  offsets.reserve(parts.size() + 1);
  TaskId cursor = 0;
  for (const Workflow& part : parts) {
    offsets.push_back(cursor);
    cursor += static_cast<TaskId>(part.taskCount());
  }
  offsets.push_back(cursor);
  return offsets;
}

Workflow replicateWorkflow(const Workflow& wf, int count,
                           const std::string& name) {
  if (count < 1)
    throw std::invalid_argument("replicateWorkflow: count must be >= 1");
  // Append straight from the single source `count` times — the previous
  // implementation materialized `count` deep copies of `wf` first, which is
  // quadratic-feeling memory pressure at survey scale.  Prefixes stay
  // positional ("req<i>/"), matching the non-unique-name path of
  // mergeWorkflows byte for byte.
  WorkflowBuilder merged(name);
  merged.reserve(static_cast<std::size_t>(count) * wf.taskCount(),
                 static_cast<std::size_t>(count) * wf.fileCount(), 0, 0);
  std::vector<TaskId> taskMap;
  std::vector<FileId> fileMap;
  std::string nameScratch;
  for (int i = 0; i < count; ++i)
    appendPart(merged, wf, "req" + std::to_string(i) + "/", 0.0, taskMap,
               fileMap, nameScratch);
  return merged.build();
}

}  // namespace mcsim::dag
