// Human-readable rendering of a traced execution: a per-level summary and a
// text Gantt chart, both read from the span trace an obs::SpanSink folded
// while observing the run.  Used by the CLI, the examples and by
// failure-diagnosis in tests.
#pragma once

#include <ostream>
#include <string>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/metrics.hpp"
#include "mcsim/obs/trace.hpp"

namespace mcsim::engine {

/// Per-level timing/throughput summary.  Throws std::invalid_argument when
/// `trace` holds no spans.
void printLevelSummary(std::ostream& os, const dag::Workflow& wf,
                       const obs::TraceStore& trace);

/// A coarse text Gantt chart: one row per task (capped at `maxRows`),
/// `width` columns spanning the trace.  Throws std::invalid_argument when
/// `trace` holds no spans.
void printGantt(std::ostream& os, const dag::Workflow& wf,
                const obs::TraceStore& trace, std::size_t maxRows = 40,
                std::size_t width = 72);

/// One-paragraph summary of a run (works without tracing).
std::string summarize(const dag::Workflow& wf, const ExecutionResult& result);

}  // namespace mcsim::engine
