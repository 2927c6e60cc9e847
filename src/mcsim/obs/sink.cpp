#include "mcsim/obs/sink.hpp"

#include <mutex>
#include <stdexcept>
#include <utility>

namespace mcsim::obs {

const char* resourceName(Resource resource) {
  switch (resource) {
    case Resource::Cpu: return "cpu";
    case Resource::Storage: return "storage";
    case Resource::TransferIn: return "transfer_in";
    case Resource::TransferOut: return "transfer_out";
  }
  return "unknown";
}

const char* eventName(EventKind kind) {
  switch (kind) {
    case EventKind::SimEventScheduled: return "sim_event_scheduled";
    case EventKind::SimEventFired: return "sim_event_fired";
    case EventKind::SimEventCancelled: return "sim_event_cancelled";
    case EventKind::TransferStarted: return "transfer_started";
    case EventKind::TransferProgress: return "transfer_progress";
    case EventKind::TransferFinished: return "transfer_finished";
    case EventKind::LinkShareChanged: return "link_share_changed";
    case EventKind::LinkSuspended: return "link_suspended";
    case EventKind::LinkResumed: return "link_resumed";
    case EventKind::ProcessorClaimed: return "processor_claimed";
    case EventKind::ProcessorReleased: return "processor_released";
    case EventKind::ProcessorQueued: return "processor_queued";
    case EventKind::StorageFilePut: return "storage_file_put";
    case EventKind::StorageFileErased: return "storage_file_erased";
    case EventKind::StorageSampled: return "storage_sampled";
    case EventKind::RunStarted: return "run_started";
    case EventKind::RunFinished: return "run_finished";
    case EventKind::TaskReady: return "task_ready";
    case EventKind::TaskStarted: return "task_started";
    case EventKind::TaskExecStarted: return "task_exec_started";
    case EventKind::TaskFinished: return "task_finished";
    case EventKind::TaskRetried: return "task_retried";
    case EventKind::TaskBlocked: return "task_blocked";
    case EventKind::StageInStarted: return "stage_in_started";
    case EventKind::StageInFinished: return "stage_in_finished";
    case EventKind::StageOutStarted: return "stage_out_started";
    case EventKind::StageOutFinished: return "stage_out_finished";
    case EventKind::FileCleanupDeleted: return "file_cleanup_deleted";
    case EventKind::BillingLineItem: return "billing_line_item";
    case EventKind::LogEmitted: return "log";
    case EventKind::ProcessorCrashed: return "processor_crashed";
    case EventKind::TaskRetryScheduled: return "task_retry_scheduled";
    case EventKind::TaskFailed: return "task_failed";
    case EventKind::TaskAbandoned: return "task_abandoned";
    case EventKind::StorageOutageStarted: return "storage_outage_started";
    case EventKind::StorageOutageEnded: return "storage_outage_ended";
    case EventKind::DeadlineExceeded: return "deadline_exceeded";
    case EventKind::ScenarioCacheStats: return "scenario_cache_stats";
    case EventKind::PhaseProfile: return "phase_profile";
    case EventKind::WorkerProfile: return "worker_profile";
    case EventKind::RunnerBatchProfile: return "runner_batch_profile";
    case EventKind::ShardCompleted: return "shard_completed";
    case EventKind::CampaignCompleted: return "campaign_completed";
    case EventKind::JobSubmitted: return "job_submitted";
    case EventKind::JobStarted: return "job_started";
    case EventKind::JobFinished: return "job_finished";
  }
  return "unknown";
}

namespace {

/// Empty chunks released by finished streams, reused by the next stream on
/// any thread.  glibc gives each worker thread its own malloc arena, and a
/// block freed into one arena serves only that arena's later allocations;
/// the runner captures a stream on one worker and a cache eviction frees it
/// on another, so without this every worker's arena would grow to its own
/// peak.  Holds at most kMaxPooled chunks (64 MiB); the rest go back to
/// malloc.
class ChunkPool {
 public:
  static constexpr std::size_t kMaxPooled = 1024;

  std::vector<Event> take() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        std::vector<Event> chunk = std::move(free_.back());
        free_.pop_back();
        return chunk;
      }
    }
    std::vector<Event> chunk;
    chunk.reserve(EventStream::kChunkEvents);
    return chunk;
  }

  /// Takes the (already cleared) chunks it has room for.
  void give(std::vector<std::vector<Event>>& chunks) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::vector<Event>& chunk : chunks) {
      if (free_.size() == kMaxPooled) break;
      free_.push_back(std::move(chunk));
    }
  }

 private:
  std::mutex mutex_;
  std::vector<std::vector<Event>> free_;
};

/// Never destroyed: streams owned by static objects (a process-wide job
/// queue's memo cache) may release their chunks during static destruction.
ChunkPool& chunkPool() {
  static ChunkPool* const pool = new ChunkPool;
  return *pool;
}

}  // namespace

EventStream::EventStream(EventStream&& other) noexcept
    : chunks_(std::move(other.chunks_)),
      size_(std::exchange(other.size_, 0)) {}

EventStream& EventStream::operator=(EventStream&& other) noexcept {
  if (this != &other) {
    release();
    chunks_ = std::move(other.chunks_);
    other.chunks_.clear();
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

EventStream::~EventStream() { release(); }

void EventStream::release() {
  if (chunks_.empty()) return;
  for (std::vector<Event>& chunk : chunks_) chunk.clear();
  chunkPool().give(chunks_);
  chunks_.clear();
  size_ = 0;
}

void EventStream::push(const Event& event) {
  if (chunks_.empty() || chunks_.back().size() == kChunkEvents)
    chunks_.push_back(chunkPool().take());
  chunks_.back().push_back(event);
  ++size_;
}

std::vector<Event> EventStream::toVector() const {
  std::vector<Event> out;
  out.reserve(size_);
  forEach([&](const Event& e) { out.push_back(e); });
  return out;
}

void Sink::onStream(const EventStream& stream) {
  stream.forEach([this](const Event& e) {
    if (accepts(kind(e))) onEvent(e);
  });
}

FanOutSink::FanOutSink(std::vector<Sink*> sinks) {
  for (Sink* s : sinks) add(s);
}

void FanOutSink::add(Sink* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
}

void FanOutSink::onEvent(const Event& event) {
  const EventKind k = kind(event);
  for (Sink* s : sinks_)
    if (s->accepts(k)) s->onEvent(event);
}

void FanOutSink::onStream(const EventStream& stream) {
  for (Sink* s : sinks_) s->onStream(stream);
}

bool FanOutSink::accepts(EventKind kind) const {
  for (const Sink* s : sinks_)
    if (s->accepts(kind)) return true;
  return false;
}

bool FanOutSink::needsEvents() const {
  for (const Sink* s : sinks_)
    if (s->needsEvents()) return true;
  return false;
}

void FanOutSink::apply(const MetricsDelta& delta) {
  for (Sink* s : sinks_) s->apply(delta);
}

void CollectingSink::onEvent(const Event& event) { events_.push_back(event); }

std::vector<Event> CollectingSink::take() {
  return std::exchange(events_, {});
}

MutexSink::MutexSink(Sink& inner) : inner_(inner) {}

void MutexSink::onEvent(const Event& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  inner_.onEvent(event);
}

void MutexSink::onStream(const EventStream& stream) {
  std::lock_guard<std::mutex> lock(mutex_);
  inner_.onStream(stream);
}

bool MutexSink::accepts(EventKind kind) const {
  // accepts() must be stable for a run, so the inner sink's verdict can be
  // read without the lock.
  return inner_.accepts(kind);
}

bool MutexSink::needsEvents() const { return inner_.needsEvents(); }

void MutexSink::apply(const MetricsDelta& delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  inner_.apply(delta);
}

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0)
    throw std::invalid_argument("RingBufferSink: capacity must be positive");
  buffer_.reserve(capacity);
}

void RingBufferSink::onEvent(const Event& event) {
  if (buffer_.size() < capacity_) {
    buffer_.push_back(event);
    return;
  }
  buffer_[head_] = event;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<Event> RingBufferSink::snapshot() const {
  std::vector<Event> out;
  out.reserve(buffer_.size());
  for (std::size_t i = 0; i < buffer_.size(); ++i)
    out.push_back(buffer_[(head_ + i) % buffer_.size()]);
  return out;
}

}  // namespace mcsim::obs
