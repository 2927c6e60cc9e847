#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

#include "common.hpp"
#include "mcsim/util/json.hpp"

namespace perfbench {
namespace {

std::atomic<bool> gTracing{false};
std::atomic<std::uint64_t> gNextSpanId{1};

/// One thread's spans.  Owned by the registry, so buffers outlive the
/// threads that filled them; the mutex is uncontended except during
/// collectSpans().
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<SpanRecord> spans;
};

std::mutex gRegistryMutex;
std::vector<std::unique_ptr<ThreadBuffer>> gRegistry;

ThreadBuffer& threadBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    const std::lock_guard<std::mutex> lock(gRegistryMutex);
    gRegistry.push_back(std::make_unique<ThreadBuffer>());
    return gRegistry.back().get();
  }();
  return *buffer;
}

thread_local std::uint64_t tCurrentSpan = 0;
thread_local std::uint64_t tCurrentRequest = 0;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void setTracing(bool on) { gTracing.store(on, std::memory_order_relaxed); }
bool tracing() { return gTracing.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::string attr, std::uint64_t requestId) {
  if (!tracing()) return;
  active_ = true;
  record_.id = gNextSpanId.fetch_add(1, std::memory_order_relaxed);
  record_.parent = tCurrentSpan;
  record_.requestId = requestId != 0 ? requestId : tCurrentRequest;
  record_.name = name;
  record_.attr = std::move(attr);
  savedCurrent_ = tCurrentSpan;
  savedRequest_ = tCurrentRequest;
  tCurrentSpan = record_.id;
  tCurrentRequest = record_.requestId;
  record_.startNs = nowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.endNs = nowNs();
  tCurrentSpan = savedCurrent_;
  tCurrentRequest = savedRequest_;
  ThreadBuffer& buffer = threadBuffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.spans.push_back(std::move(record_));
}

std::vector<SpanRecord> collectSpans() {
  std::vector<SpanRecord> all;
  const std::lock_guard<std::mutex> registryLock(gRegistryMutex);
  for (const auto& buffer : gRegistry) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.startNs != b.startNs ? a.startNs < b.startNs
                                            : a.id < b.id;
            });
  return all;
}

std::vector<double> spanMs(const std::vector<SpanRecord>& spans,
                           const std::string& name, const std::string& attr) {
  std::vector<double> out;
  for (const SpanRecord& s : spans)
    if (name == s.name && (attr.empty() || attr == s.attr))
      out.push_back(s.ms());
  return out;
}

double spanMedianMs(const std::vector<SpanRecord>& spans,
                    const std::string& name, const std::string& attr) {
  return median(spanMs(spans, name, attr));
}

void setSimulateMetrics(Result& result, const std::vector<SpanRecord>& spans) {
  for (const char* mode : {"remote-io", "regular", "cleanup"})
    result.metrics[std::string("engine.simulate_") + mode + "_ms"] =
        spanMedianMs(spans, "engine.simulate", mode);
}

bool writeSpans(const std::string& path, const std::string& hostLine,
                const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << hostLine << '\n';
  for (const SpanRecord& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.requestId << ",\"name\":";
    mcsim::json::writeJsonString(out, s.name);
    out << ",\"attr\":";
    mcsim::json::writeJsonString(out, s.attr);
    out << ",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
