#include "mcsim/dag/stats.hpp"

#include <algorithm>

namespace mcsim::dag {

void Distribution::add(double value) {
  if (count == 0) {
    minimum = value;
    maximum = value;
  } else {
    minimum = std::min(minimum, value);
    maximum = std::max(maximum, value);
  }
  total += value;
  ++count;
}

WorkflowStats computeStats(const Workflow& wf) {
  WorkflowStats stats;
  for (const Task& t : wf.tasks()) {
    TypeStats& type = stats.byType[t.type];
    type.runtimeSeconds.add(t.runtimeSeconds);
    double produced = 0.0;
    for (FileId f : t.outputs) produced += wf.file(f).size.value();
    type.outputBytes.add(produced);

    LevelStats& level = stats.byLevel[t.level];
    ++level.tasks;
    level.runtimeSeconds += t.runtimeSeconds;
    level.bytesProduced += Bytes(produced);
  }
  for (const File& f : wf.files()) stats.fileSizes.add(f.size.value());
  return stats;
}

}  // namespace mcsim::dag
