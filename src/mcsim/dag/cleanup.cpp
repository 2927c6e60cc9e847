#include "mcsim/dag/cleanup.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcsim::dag {

CleanupPlan analyzeCleanup(const Workflow& wf) {
  CleanupPlan plan;
  plan.remainingUses.resize(wf.fileCount(), 0);
  plan.isOutput.resize(wf.fileCount(), false);
  for (FileId id : wf.workflowOutputs()) plan.isOutput[id] = true;
  for (const File& f : wf.files()) {
    if (!f.consumers.empty())
      plan.remainingUses[f.id] = f.consumers.size();
    else
      plan.remainingUses[f.id] = f.producer == kNoTask ? 0 : 1;
  }
  return plan;
}

FootprintEstimate predictSequentialFootprint(
    const Workflow& wf, const std::vector<TaskId>& order) {
  if (order.size() != wf.taskCount())
    throw std::invalid_argument(
        "predictSequentialFootprint: order must cover every task");
  const CleanupPlan plan = analyzeCleanup(wf);

  // Regular: level rises as files are created and never falls until the end,
  // so the peak is simply total bytes ever resident (inputs + everything
  // produced).
  Bytes resident;  // shared running level for the cleanup walk
  for (FileId id : wf.externalInputs()) resident += wf.file(id).size;
  Bytes peakRegular = wf.totalFileBytes();

  // Cleanup walk: replay the order, creating outputs at task completion and
  // releasing files whose remaining uses hit zero.
  std::vector<std::size_t> uses = plan.remainingUses;
  std::vector<bool> created(wf.fileCount(), false);
  for (FileId id : wf.externalInputs()) created[id] = true;
  Bytes peakCleanup = resident;
  for (TaskId tid : order) {
    const Task& t = wf.task(tid);
    for (FileId in : t.inputs) {
      if (!created[in])
        throw std::logic_error(
            "predictSequentialFootprint: order is not topological (task '" +
            t.name + "' consumes '" + wf.file(in).name +
            "' before it is produced)");
    }
    for (FileId out : t.outputs) {
      resident += wf.file(out).size;
      created[out] = true;
    }
    peakCleanup = std::max(peakCleanup, resident);
    for (FileId in : t.inputs) {
      if (uses[in] == 0)
        throw std::logic_error(
            "predictSequentialFootprint: file use-count underflow");
      if (--uses[in] == 0 && !plan.isOutput[in]) resident -= wf.file(in).size;
    }
  }
  return FootprintEstimate{peakRegular, peakCleanup};
}

}  // namespace mcsim::dag
