// Benchmark-side spans: one around each call the benchmark makes into an
// mcsim module's public functions.  Spans are kept in memory, one buffer
// per thread, and written out as JSON lines when the run ends.  With
// tracing disabled a Span costs one relaxed load and records nothing.
//
// Each span has an id, a parent (the span open on the same thread when it
// began, 0 at the root), a request id (given to a root span, inherited by
// its children), a name ("<layer>.<call>"), an optional attribute string,
// and start/end times in nanoseconds on the steady clock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Result;

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t requestId = 0;
  const char* name = "";
  std::string attr;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;

  double ms() const { return static_cast<double>(endNs - startNs) / 1e6; }
};

/// Switch recording on or off for every thread.
void setTracing(bool on);
bool tracing();

/// Every span recorded so far, from all threads, ordered by start time.
std::vector<SpanRecord> collectSpans();

/// Durations in ms of the collected spans named `name` and, unless `attr`
/// is empty, with that attribute.
std::vector<double> spanMs(const std::vector<SpanRecord>& spans,
                           const std::string& name,
                           const std::string& attr = "");

/// Median of spanMs(spans, name, attr); 0 when there are no such spans.
double spanMedianMs(const std::vector<SpanRecord>& spans,
                    const std::string& name, const std::string& attr = "");

/// Set engine.simulate_<mode>_ms to the median "engine.simulate" span of
/// each data mode.
void setSimulateMetrics(Result& result, const std::vector<SpanRecord>& spans);

/// Write the host line, then one JSON object per span.  Returns false if the
/// file cannot be written.
bool writeSpans(const std::string& path, const std::string& hostLine,
                const std::vector<SpanRecord>& spans);

class Span {
 public:
  /// `requestId` 0 inherits the enclosing span's request id.
  explicit Span(const char* name, std::string attr = {},
                std::uint64_t requestId = 0);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  /// Replace the attribute, for spans classified only once the call returns.
  void setAttr(std::string attr) {
    if (active_) record_.attr = std::move(attr);
  }

 private:
  bool active_ = false;
  SpanRecord record_;
  std::uint64_t savedCurrent_ = 0;
  std::uint64_t savedRequest_ = 0;
};

}  // namespace perfbench
