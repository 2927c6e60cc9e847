// Seeded random layered-DAG generator for property-based tests.
//
// Generates workflows with the same gross anatomy as scientific workflows
// (layers of tasks, files flowing between adjacent layers, a fan-in sink)
// but with randomized shape, runtimes and file sizes, so invariants like
// "cleanup footprint <= regular footprint" and "transfer bytes are
// mode-ordered" can be checked over thousands of structurally distinct
// graphs instead of one hand-built example.
#pragma once

#include <cstdint>

#include "mcsim/dag/workflow.hpp"

namespace mcsim::dag {

struct RandomDagOptions {
  int minLayers = 2;
  int maxLayers = 6;
  int minWidth = 1;
  int maxWidth = 12;
  double minRuntimeSeconds = 1.0;
  double maxRuntimeSeconds = 500.0;
  double minFileMB = 0.1;
  double maxFileMB = 64.0;
  /// Probability that a task consumes any given file from the previous
  /// layer (each task always gets at least one input).
  double extraInputProbability = 0.25;
  /// Probability a task emits a second output file.
  double secondOutputProbability = 0.3;
  /// Whether to append a single sink task consuming every terminal file
  /// (Montage-like fan-in producing one final product).
  bool addSink = true;
};

/// Build a random workflow from `seed`.  The same seed and options
/// always produce the same workflow.
Workflow makeRandomWorkflow(std::uint64_t seed,
                            const RandomDagOptions& options = {});

}  // namespace mcsim::dag
