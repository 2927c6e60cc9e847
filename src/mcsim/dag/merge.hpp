// Batch composition: merge several workflows into one so a single simulated
// run models a service executing many requests on one provisioned pool —
// the operating scenario of the paper's Question 2 ("the application
// provisions a certain amount of resources over a period of time to sustain
// the expected computational load").
#pragma once

#include <string>
#include <vector>

#include "mcsim/dag/workflow.hpp"

namespace mcsim::dag {

/// Concatenate `parts` into one workflow.  Each part's task and
/// file names are prefixed with "<partName>/" (or "req<i>/" when names
/// repeat) so merged identities stay unique; the parts remain mutually
/// independent — no edges are added between them.  Sizes, runtimes,
/// explicit-output flags and control edges are preserved.
Workflow mergeWorkflows(const std::vector<Workflow>& parts,
                        const std::string& name = "batch");

/// `count` independent copies of `wf` merged into one batch.
Workflow replicateWorkflow(const Workflow& wf, int count,
                           const std::string& name = "batch");

/// Merge with per-part release times: part i's source tasks (tasks without
/// parents) may not start before `releaseSeconds[i]` — a request stream
/// arriving at a running service.  `releaseSeconds` must match `parts` in
/// length; values must be >= 0.
Workflow mergeWorkflowsStaggered(const std::vector<Workflow>& parts,
                                 const std::vector<double>& releaseSeconds,
                                 const std::string& name = "stream");

/// Task-id offset of each part inside a merged workflow (parts are
/// appended contiguously): part i owns ids [offsets[i], offsets[i+1]).
/// The final entry is the total task count.
std::vector<TaskId> partTaskOffsets(const std::vector<Workflow>& parts);

}  // namespace mcsim::dag
