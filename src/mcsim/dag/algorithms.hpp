// Graph algorithms over workflows: orderings, critical path,
// parallelism profile.  These are the structural quantities the paper
// reports (levels, maximum parallelism) and the analytic bounds the tests
// check the simulator against (makespan >= critical path, etc.).
#pragma once

#include <vector>

#include "mcsim/dag/workflow.hpp"

namespace mcsim::dag {

/// A deterministic topological order (Kahn's algorithm with a min-id ready
/// set).
std::vector<TaskId> topologicalOrder(const Workflow& wf);

/// Length of the longest runtime-weighted path, in seconds: the makespan
/// lower bound with unlimited processors and free data movement.
double criticalPathSeconds(const Workflow& wf);

/// Tasks on one longest path, in execution order.
std::vector<TaskId> criticalPathTasks(const Workflow& wf);

/// Number of tasks at each level; index 0 is level 1.
std::vector<std::size_t> levelWidths(const Workflow& wf);

/// Widest level (a cheap upper bound on useful parallelism).
std::size_t maxLevelWidth(const Workflow& wf);

/// Peak number of concurrently *running* tasks when every task starts as
/// early as its parents allow on unlimited processors (data movement free).
/// This is the operational "maximum parallelism of the workflow" (§6,
/// Question 2a): provisioning this many processors lets every request run at
/// full parallelism.
std::size_t maxParallelism(const Workflow& wf);

/// Earliest start time of each task on unlimited processors with free data
/// movement (indexed by TaskId).
std::vector<double> earliestStartTimes(const Workflow& wf);

}  // namespace mcsim::dag
