// The event bus: a Sink receives every Event an instrumented component
// emits.  Components hold a `Sink*` that defaults to nullptr, so disabled
// telemetry costs exactly one pointer test per potential emission ("null
// sink check") and never formats a string.
//
// `accepts()` is a cheap pre-filter: emitters of high-volume kinds (per-byte
// transfer progress, billing attribution bookkeeping) ask before building
// the payload, so a sink that only wants task lifecycle events does not tax
// the hot paths.  accepts() must be stable for the lifetime of a run.
//
// onStream() is the batch entry point: the runner replays one scenario's
// whole captured EventStream in a single call, so a sink shared across
// threads (MutexSink) takes its lock once per scenario and never sees two
// scenarios' events interleaved.
//
// needsEvents() lets a sink decline the events themselves.  The runner
// then folds each scenario into a MetricsDelta while it runs (see
// obs/metrics.hpp) and hands it over in one apply() call instead of
// capturing and replaying the stream.
#pragma once

#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "mcsim/obs/event.hpp"

namespace mcsim::obs {

struct MetricsDelta;

/// An append-only event stream stored in fixed-size chunks of kChunkEvents
/// events (64 KiB).  Appending never moves or copies recorded events.  A
/// destroyed stream hands its chunks to a process-wide pool that the next
/// stream on any thread draws from, so captured streams do not fragment
/// the per-thread malloc arenas.  Move-only: a captured stream is handed
/// on, never duplicated by accident.
class EventStream {
 public:
  static constexpr std::size_t kChunkEvents = 1024;

  EventStream() = default;
  EventStream(EventStream&& other) noexcept;
  EventStream& operator=(EventStream&& other) noexcept;
  EventStream(const EventStream&) = delete;
  EventStream& operator=(const EventStream&) = delete;
  ~EventStream();

  void push(const Event& event);
  std::size_t size() const { return size_; }
  /// Bytes held by the chunks: their capacity, not just the events used.
  std::size_t capacityBytes() const {
    return chunks_.size() * kChunkEvents * sizeof(Event);
  }
  /// Call `f(event)` for every event, in order.
  template <class F>
  void forEach(F&& f) const {
    for (const std::vector<Event>& chunk : chunks_)
      for (const Event& e : chunk) f(e);
  }
  /// A contiguous copy of the events.
  std::vector<Event> toVector() const;

 private:
  void release();

  std::vector<std::vector<Event>> chunks_;  ///< Each reserved to kChunkEvents.
  std::size_t size_ = 0;
};

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void onEvent(const Event& event) = 0;
  /// Deliver a whole captured stream.  Default: onEvent for each event
  /// this sink accepts(), in order.
  virtual void onStream(const EventStream& stream);
  /// Would this sink do anything with events of `kind`?  Default: yes.
  virtual bool accepts(EventKind kind) const {
    (void)kind;
    return true;
  }
  /// Does this sink need a scenario's events, or only their effect on the
  /// standard metrics?  Like accepts(), stable for the sink's lifetime.
  /// Default: it needs the events.
  virtual bool needsEvents() const { return true; }
  /// Take one scenario's folded metrics.  The runner calls it only on a
  /// sink whose needsEvents() is false, in place of onStream().  Default:
  /// ignore it.
  virtual void apply(const MetricsDelta& delta) { (void)delta; }
};

/// Swallows everything.  Useful as an explicit "telemetry off" terminal and
/// for measuring the enabled-but-ignored overhead in benchmarks.
class NullSink final : public Sink {
 public:
  void onEvent(const Event&) override {}
  bool accepts(EventKind) const override { return false; }
};

/// Forwards each event to every child that accepts its kind.  Children are
/// not owned; nullptr children are ignored at add() time.
class FanOutSink final : public Sink {
 public:
  FanOutSink() = default;
  explicit FanOutSink(std::vector<Sink*> sinks);

  void add(Sink* sink);
  std::size_t childCount() const { return sinks_.size(); }

  void onEvent(const Event& event) override;
  /// Forwards the whole stream to each child in turn.
  void onStream(const EventStream& stream) override;
  bool accepts(EventKind kind) const override;
  /// True if any child needs events.
  bool needsEvents() const override;
  /// Forwards the delta to each child in turn.
  void apply(const MetricsDelta& delta) override;

 private:
  std::vector<Sink*> sinks_;
};

/// Records every event into an EventStream — the runner's per-scenario
/// capture buffer when the job's observer needs events, replayed into it
/// at join.
class StreamSink final : public Sink {
 public:
  void onEvent(const Event& event) override { stream_.push(event); }
  /// Move the stream out, leaving the sink empty.
  EventStream take() { return std::exchange(stream_, {}); }

 private:
  EventStream stream_;
};

/// Appends every event to an unbounded in-memory vector — a convenient
/// test double.  Prefer RingBufferSink when only the tail of a long run
/// matters.
class CollectingSink final : public Sink {
 public:
  void onEvent(const Event& event) override;

  std::size_t size() const { return events_.size(); }
  const std::vector<Event>& events() const { return events_; }
  /// Move the buffer out, leaving the sink empty.
  std::vector<Event> take();

 private:
  std::vector<Event> events_;
};

/// Serializes delivery to a single-threaded inner sink.  The simulator
/// itself is single-threaded, but the runner's JobQueue finalizes jobs on
/// whichever worker finishes last — a MetricsSink or JSONL writer shared
/// across jobs must sit behind one of these.  The inner sink is borrowed.
class MutexSink final : public Sink {
 public:
  explicit MutexSink(Sink& inner);

  void onEvent(const Event& event) override;
  /// Delivers the whole stream under one acquisition of the lock.
  void onStream(const EventStream& stream) override;
  bool accepts(EventKind kind) const override;
  bool needsEvents() const override;
  /// Delivers the delta under one acquisition of the lock.
  void apply(const MetricsDelta& delta) override;

  /// The serializing mutex, for callers that must read the *inner* sink's
  /// state coherently while events keep arriving — e.g. scraping a metrics
  /// registry that a MetricsSink behind this wrapper is still updating.
  std::mutex& mutex() { return mutex_; }

 private:
  Sink& inner_;
  std::mutex mutex_;
};

/// Keeps the most recent `capacity` events in memory — the flight recorder
/// for tests and post-mortem inspection of a run's tail.
class RingBufferSink final : public Sink {
 public:
  explicit RingBufferSink(std::size_t capacity);

  void onEvent(const Event& event) override;

  std::size_t size() const { return buffer_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Events evicted because the buffer was full.
  std::size_t dropped() const { return dropped_; }
  /// Retained events, oldest first.
  std::vector<Event> snapshot() const;

  /// Number of retained events holding payload type T.
  template <class T>
  std::size_t countOf() const {
    std::size_t n = 0;
    for (const Event& e : buffer_)
      if (std::holds_alternative<T>(e.payload)) ++n;
    return n;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< Index of the oldest event once full.
  std::size_t dropped_ = 0;
  std::vector<Event> buffer_;
};

}  // namespace mcsim::obs
