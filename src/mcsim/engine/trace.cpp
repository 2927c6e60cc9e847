#include "mcsim/engine/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "mcsim/util/table.hpp"

namespace mcsim::engine {
namespace {

/// The per-task times of a non-empty trace.
std::vector<obs::TaskTimes> tracedTimes(const dag::Workflow& wf,
                                        const obs::TraceStore& trace,
                                        const char* fn) {
  if (trace.spanCount() == 0)
    throw std::invalid_argument(std::string(fn) +
                                ": the trace is empty (attach an obs::SpanSink)");
  return obs::taskTimes(trace, wf.taskCount());
}

std::string fixed1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

}  // namespace

void printLevelSummary(std::ostream& os, const dag::Workflow& wf,
                       const obs::TraceStore& trace) {
  const std::vector<obs::TaskTimes> times =
      tracedTimes(wf, trace, "printLevelSummary");
  struct LevelStats {
    std::size_t tasks = 0;
    double firstStart = 1e300;
    double lastFinish = 0.0;
    double cpuSeconds = 0.0;
    std::string routine;
  };
  std::map<int, LevelStats> levels;
  for (const dag::Task& t : wf.tasks()) {
    LevelStats& s = levels[t.level];
    const obs::TaskTimes& r = times[t.id];
    ++s.tasks;
    s.firstStart = std::min(s.firstStart, r.start);
    s.lastFinish = std::max(s.lastFinish, r.finish);
    s.cpuSeconds += t.runtimeSeconds;
    if (s.routine.empty()) s.routine = t.type;
    else if (s.routine != t.type) s.routine = "(mixed)";
  }
  Table table({"level", "routine", "tasks", "first start", "last finish",
               "cpu time"});
  for (const auto& [level, s] : levels) {
    table.addRow({std::to_string(level), s.routine, std::to_string(s.tasks),
                  formatDuration(s.firstStart), formatDuration(s.lastFinish),
                  formatDuration(s.cpuSeconds)});
  }
  table.print(os);
}

void printGantt(std::ostream& os, const dag::Workflow& wf,
                const obs::TraceStore& trace, std::size_t maxRows,
                std::size_t width) {
  const std::vector<obs::TaskTimes> times =
      tracedTimes(wf, trace, "printGantt");
  if (width < 8) width = 8;
  const double span = std::max(trace.maxTime(), 1e-9);
  std::vector<dag::TaskId> byStart(wf.taskCount());
  for (std::size_t i = 0; i < byStart.size(); ++i)
    byStart[i] = static_cast<dag::TaskId>(i);
  std::sort(byStart.begin(), byStart.end(), [&](dag::TaskId a, dag::TaskId b) {
    return times[a].start < times[b].start;
  });
  const std::size_t rows = std::min(maxRows, byStart.size());
  const std::size_t step = std::max<std::size_t>(1, byStart.size() / rows);
  os << "gantt (" << rows << " of " << byStart.size() << " tasks, span "
     << formatDuration(span) << ")\n";
  for (std::size_t i = 0; i < byStart.size(); i += step) {
    const dag::TaskId id = byStart[i];
    const obs::TaskTimes& r = times[id];
    std::string row(width, '.');
    auto col = [&](double t) {
      return std::min(width - 1,
                      static_cast<std::size_t>(t / span * (width - 1)));
    };
    const std::size_t a = col(std::max(0.0, r.start));
    const std::size_t b = col(std::max(0.0, r.finish));
    for (std::size_t c = a; c <= b; ++c) row[c] = '#';
    os << row << "  " << wf.task(id).name << '\n';
  }
}

std::string summarize(const dag::Workflow& wf, const ExecutionResult& result) {
  std::ostringstream os;
  os << wf.name() << " [" << dataModeName(result.mode) << ", "
     << result.processors << " proc]: makespan "
     << formatDuration(result.makespanSeconds) << ", cpu "
     << formatDuration(result.cpuBusySeconds) << ", in "
     << formatBytes(result.bytesIn) << ", out " << formatBytes(result.bytesOut)
     << ", storage " << fixed1(result.storageGBHours()) << " GB-h, peak "
     << formatBytes(result.peakStorageBytes) << ", utilization "
     << fixed1(result.utilization() * 100.0) << "%";
  return os.str();
}

}  // namespace mcsim::engine
