// Workflow statistics: per-routine and per-level distributions of runtimes
// and data volumes.  This is the profile the paper's §5 says was fed to the
// simulator ("the sizes of these data files and the runtime of the tasks
// were taken from real runs") — exposed so users can characterize their own
// workloads the same way.
#pragma once

#include <map>
#include <string>

#include "mcsim/dag/workflow.hpp"

namespace mcsim::dag {

struct Distribution {
  std::size_t count = 0;
  double total = 0.0;
  double minimum = 0.0;
  double maximum = 0.0;

  double mean() const { return count ? total / static_cast<double>(count) : 0.0; }
  void add(double value);
};

struct TypeStats {
  Distribution runtimeSeconds;
  Distribution outputBytes;  ///< Bytes produced per task of this type.
};

struct LevelStats {
  std::size_t tasks = 0;
  double runtimeSeconds = 0.0;  ///< Σ runtimes at this level.
  Bytes bytesProduced;          ///< Σ output sizes at this level.
};

struct WorkflowStats {
  std::map<std::string, TypeStats> byType;
  std::map<int, LevelStats> byLevel;
  Distribution fileSizes;  ///< Over all files.
};

/// Compute the full profile of a workflow.
WorkflowStats computeStats(const Workflow& wf);

}  // namespace mcsim::dag
