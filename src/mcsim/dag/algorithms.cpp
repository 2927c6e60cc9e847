#include "mcsim/dag/algorithms.hpp"

#include <algorithm>
#include <queue>

namespace mcsim::dag {

std::vector<TaskId> topologicalOrder(const Workflow& wf) {
  std::vector<std::size_t> pending(wf.taskCount());
  std::priority_queue<TaskId, std::vector<TaskId>, std::greater<>> ready;
  for (const Task& t : wf.tasks()) {
    pending[t.id] = t.parents.size();
    if (t.parents.empty()) ready.push(t.id);
  }
  std::vector<TaskId> order;
  order.reserve(wf.taskCount());
  while (!ready.empty()) {
    const TaskId id = ready.top();
    ready.pop();
    order.push_back(id);
    for (TaskId c : wf.task(id).children)
      if (--pending[c] == 0) ready.push(c);
  }
  return order;
}

std::vector<double> earliestStartTimes(const Workflow& wf) {
  std::vector<double> est(wf.taskCount(), 0.0);
  for (TaskId id : topologicalOrder(wf)) {
    const Task& t = wf.task(id);
    for (TaskId c : t.children)
      est[c] = std::max(est[c], est[id] + t.runtimeSeconds);
  }
  return est;
}

double criticalPathSeconds(const Workflow& wf) {
  const auto est = earliestStartTimes(wf);
  double makespan = 0.0;
  for (const Task& t : wf.tasks())
    makespan = std::max(makespan, est[t.id] + t.runtimeSeconds);
  return makespan;
}

std::vector<TaskId> criticalPathTasks(const Workflow& wf) {
  const auto est = earliestStartTimes(wf);
  // Find the sink with the latest finish, then walk back through the parent
  // that determined each start time.
  TaskId cursor = kNoTask;
  double best = -1.0;
  for (const Task& t : wf.tasks()) {
    const double finish = est[t.id] + t.runtimeSeconds;
    if (finish > best) {
      best = finish;
      cursor = t.id;
    }
  }
  std::vector<TaskId> path;
  while (cursor != kNoTask) {
    path.push_back(cursor);
    const Task& t = wf.task(cursor);
    TaskId pick = kNoTask;
    for (TaskId p : t.parents) {
      const Task& parent = wf.task(p);
      if (est[p] + parent.runtimeSeconds == est[cursor] &&
          (pick == kNoTask || est[p] + parent.runtimeSeconds >
                                  est[pick] + wf.task(pick).runtimeSeconds)) {
        pick = p;
      }
    }
    // If no parent finishes exactly at our start (start forced to 0 as a
    // source, or float slack), stop at the chain's head.
    // 0.0 is the exact unset-EST sentinel assigned at initialization, never
    // a computed value.  mcsim-lint: allow(float-equality)
    if (pick == kNoTask || est[cursor] == 0.0) {
      if (!t.parents.empty() && pick != kNoTask && est[cursor] > 0.0)
        cursor = pick;
      else
        cursor = kNoTask;
    } else {
      cursor = pick;
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::size_t> levelWidths(const Workflow& wf) {
  std::vector<std::size_t> widths(static_cast<std::size_t>(wf.levelCount()), 0);
  for (const Task& t : wf.tasks()) widths[static_cast<std::size_t>(t.level - 1)]++;
  return widths;
}

std::size_t maxLevelWidth(const Workflow& wf) {
  std::size_t best = 0;
  for (std::size_t w : levelWidths(wf)) best = std::max(best, w);
  return best;
}

std::size_t maxParallelism(const Workflow& wf) {
  const auto est = earliestStartTimes(wf);
  // Sweep task (start, end) intervals; zero-runtime tasks still count at
  // their instant (start event precedes end event at equal times).
  struct Edge {
    double time;
    int delta;
  };
  std::vector<Edge> edges;
  edges.reserve(wf.taskCount() * 2);
  for (const Task& t : wf.tasks()) {
    edges.push_back({est[t.id], +1});
    edges.push_back({est[t.id] + t.runtimeSeconds, -1});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.delta < b.delta;  // ends before starts: back-to-back tasks on
                               // one chain are not concurrent
  });
  std::size_t best = 0;
  long current = 0;
  for (const Edge& e : edges) {
    current += e.delta;
    best = std::max(best, static_cast<std::size_t>(std::max(0L, current)));
  }
  return best;
}

}  // namespace mcsim::dag
