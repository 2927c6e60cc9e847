#include "tests/support/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "mcsim/dag/merge.hpp"
#include "mcsim/obs/sink.hpp"

namespace mcsim::oracle {

// -- ReferenceCalendar --------------------------------------------------------

sim::EventId ReferenceCalendar::schedule(double time, sim::Callback cb) {
  if (time < now_)
    throw std::invalid_argument("ReferenceCalendar::schedule: time " +
                                std::to_string(time) + " is in the past (now " +
                                std::to_string(now_) + ")");
  if (!cb)
    throw std::invalid_argument("ReferenceCalendar::schedule: empty callback");
  const sim::EventId id = nextId_++;
  queue_.push(Event{time, nextSequence_++, id,
                    std::make_shared<sim::EventFn>(std::move(cb))});
  liveIds_.insert(id);
  if (observer_ && observer_->accepts(obs::EventKind::SimEventScheduled))
    observer_->onEvent(obs::Event{now_, obs::SimEventScheduled{id, time}});
  return id;
}

sim::EventId ReferenceCalendar::scheduleAfter(double delay, sim::Callback cb) {
  if (delay < 0.0)
    throw std::invalid_argument("ReferenceCalendar::scheduleAfter: negative delay");
  return schedule(now_ + delay, std::move(cb));
}

bool ReferenceCalendar::cancel(sim::EventId id) {
  if (liveIds_.erase(id) == 0) return false;  // fired, cancelled or unknown
  if (observer_ && observer_->accepts(obs::EventKind::SimEventCancelled))
    observer_->onEvent(obs::Event{now_, obs::SimEventCancelled{id}});
  return true;
}

void ReferenceCalendar::step() {
  while (!queue_.empty()) {
    Event ev = queue_.top();
    queue_.pop();
    if (liveIds_.erase(ev.id) == 0) continue;  // was cancelled; drop lazily
    now_ = ev.time;
    ++processed_;
    if (observer_ && observer_->accepts(obs::EventKind::SimEventFired))
      observer_->onEvent(obs::Event{now_, obs::SimEventFired{ev.id}});
    (*ev.callback)();
    return;
  }
}

void ReferenceCalendar::run() {
  while (!liveIds_.empty()) step();
}

void ReferenceCalendar::runUntil(double horizon) {
  while (!liveIds_.empty()) {
    // Skim cancelled events off the top so queue_.top() is live.
    while (!queue_.empty() && liveIds_.count(queue_.top().id) == 0)
      queue_.pop();
    if (queue_.empty()) break;
    if (queue_.top().time > horizon) {
      now_ = horizon;
      return;
    }
    step();
  }
}

// -- ReferenceLink ------------------------------------------------------------

namespace {
/// sim::Link's completion threshold: residual byte counts below it are done.
constexpr double kEpsilonBytes = 1e-6;
constexpr double kRelativeEpsilon = 1e-9;

double completionThreshold(double totalBytes) {
  return std::max(kEpsilonBytes, kRelativeEpsilon * totalBytes);
}
}  // namespace

ReferenceLink::ReferenceLink(ReferenceCalendar& calendar,
                             const sim::LinkConfig& config)
    : calendar_(calendar),
      bandwidth_(config.bandwidthBytesPerSec),
      sharing_(config.sharing) {
  if (!(config.bandwidthBytesPerSec > 0.0))
    throw std::invalid_argument("ReferenceLink: bandwidth must be positive");
}

double ReferenceLink::perTransferRate() const {
  if (suspended_ || active_.empty()) return 0.0;
  if (sharing_ == sim::LinkSharing::Dedicated) return bandwidth_;
  return bandwidth_ / static_cast<double>(active_.size());
}

ReferenceLink::TransferId ReferenceLink::startTransfer(
    Bytes size, CompletionHandler onComplete) {
  if (size.value() < 0.0)
    throw std::invalid_argument("ReferenceLink::startTransfer: negative size");
  if (!onComplete)
    throw std::invalid_argument(
        "ReferenceLink::startTransfer: empty completion handler");
  accrueProgress();
  const TransferId id = nextId_++;
  const double bytes = size.value();
  active_.emplace(id,
                  Transfer{bytes, bytes, calendar_.now(), std::move(onComplete)});
  if (observer_ && observer_->accepts(obs::EventKind::TransferStarted))
    observer_->onEvent(obs::Event{calendar_.now(),
                                  obs::TransferStarted{id, bytes, active_.size()}});
  reschedule();
  return id;
}

void ReferenceLink::suspend() {
  if (suspended_) return;
  accrueProgress();
  suspended_ = true;
  if (observer_)
    observer_->onEvent(obs::Event{calendar_.now(), obs::LinkSuspended{}});
  reschedule();
}

void ReferenceLink::resume() {
  if (!suspended_) return;
  // No progress accrued while down; just restart the clock from now.
  lastUpdate_ = calendar_.now();
  suspended_ = false;
  if (observer_)
    observer_->onEvent(obs::Event{calendar_.now(), obs::LinkResumed{}});
  reschedule();
}

void ReferenceLink::emitShareChange(double rate) {
  if (observer_ && rate != lastEmittedRate_ &&
      observer_->accepts(obs::EventKind::LinkShareChanged)) {
    observer_->onEvent(obs::Event{calendar_.now(),
                                  obs::LinkShareChanged{active_.size(), rate}});
    lastEmittedRate_ = rate;
  }
}

void ReferenceLink::onLinkEvent() {
  pendingEvent_ = sim::kInvalidEvent;
  accrueProgress();
  completeFinished();
  reschedule();
}

void ReferenceLink::accrueProgress() {
  const double now = calendar_.now();
  const double rate = perTransferRate();
  if (rate > 0.0 && now > lastUpdate_) {
    const double credit = rate * (now - lastUpdate_);
    for (auto& [id, t] : active_) t.remainingBytes -= credit;
    if (observer_ && observer_->accepts(obs::EventKind::TransferProgress))
      for (const auto& [id, t] : active_)
        observer_->onEvent(
            obs::Event{now, obs::TransferProgress{id, t.remainingBytes}});
  }
  lastUpdate_ = now;
}

void ReferenceLink::completeFinished() {
  // Collect handlers first: a completion handler may start new transfers on
  // this link, which mutates active_.
  std::vector<CompletionHandler> done;
  for (auto it = active_.begin(); it != active_.end();) {
    if (it->second.remainingBytes <= completionThreshold(it->second.totalBytes)) {
      if (observer_ && observer_->accepts(obs::EventKind::TransferFinished))
        observer_->onEvent(obs::Event{
            calendar_.now(),
            obs::TransferFinished{it->first, it->second.totalBytes,
                                  calendar_.now() - it->second.startTime}});
      done.push_back(std::move(it->second.onComplete));
      it = active_.erase(it);
      ++completedCount_;
    } else {
      ++it;
    }
  }
  for (auto& handler : done) handler();
}

void ReferenceLink::reschedule() {
  if (pendingEvent_ != sim::kInvalidEvent) {
    calendar_.cancel(pendingEvent_);
    pendingEvent_ = sim::kInvalidEvent;
  }
  if (suspended_ || active_.empty()) return;

  // Every active transfer progresses at the same rate (fair share or
  // dedicated), so the next completion is the one with the least remaining.
  const double rate = perTransferRate();
  double minRemaining = std::numeric_limits<double>::infinity();
  bool anyComplete = false;
  for (const auto& [id, t] : active_) {
    minRemaining = std::min(minRemaining, t.remainingBytes);
    anyComplete =
        anyComplete || t.remainingBytes <= completionThreshold(t.totalBytes);
  }
  emitShareChange(rate);
  const double delay = anyComplete ? 0.0 : minRemaining / rate;

  const double now = calendar_.now();
  double at = now + delay;
  // The one-ulp guard: a residue whose delay is below half an ulp of `now`
  // would fire at `now`, credit nothing and reschedule forever.
  if (delay > 0.0 && at == now)
    at = std::nextafter(now, std::numeric_limits<double>::infinity());
  pendingEvent_ = calendar_.schedule(at, [this] { onLinkEvent(); });
}

// -- Link scripts -------------------------------------------------------------

LinkScript recordLinkScript(const dag::Workflow& workflow,
                            engine::EngineConfig config) {
  obs::CollectingSink sink;
  config.observer = &sink;
  engine::simulateWorkflow(workflow, config);

  LinkScript script;
  script.link = {.bandwidthBytesPerSec = config.linkBandwidthBytesPerSec,
                 .sharing = config.linkSharing};
  std::size_t finished = 0;
  bool inCompletion = false;  // a transfer finished in the current event
  for (const obs::Event& event : sink.events()) {
    if (isLinkEvent(event)) script.recorded.push_back(event);
    LinkAction action{.time = event.time,
                      .finishedBefore = finished,
                      .inCompletion = inCompletion};
    if (const auto* started = std::get_if<obs::TransferStarted>(&event.payload)) {
      action.kind = LinkAction::Kind::Start;
      action.bytes = started->bytes;
    } else if (std::holds_alternative<obs::LinkSuspended>(event.payload)) {
      action.kind = LinkAction::Kind::Suspend;
    } else if (std::holds_alternative<obs::LinkResumed>(event.payload)) {
      action.kind = LinkAction::Kind::Resume;
    } else {
      if (std::holds_alternative<obs::TransferFinished>(event.payload)) {
        ++finished;
        inCompletion = true;
      } else if (std::holds_alternative<obs::SimEventFired>(event.payload)) {
        inCompletion = false;
      }
      continue;
    }
    script.actions.push_back(action);
  }
  return script;
}

bool isLinkEvent(const obs::Event& event) {
  switch (obs::kind(event)) {
    case obs::EventKind::TransferStarted:
    case obs::EventKind::TransferProgress:
    case obs::EventKind::TransferFinished:
    case obs::EventKind::LinkShareChanged:
    case obs::EventKind::LinkSuspended:
    case obs::EventKind::LinkResumed:
      return true;
    default:
      return false;
  }
}

namespace {
/// Finish time per started transfer (index id - 1); NaN where it never
/// finished, so a stranded transfer reads as a disagreement.
std::vector<double> finishTimes(const std::vector<obs::Event>& events) {
  std::vector<double> times;
  for (const obs::Event& event : events) {
    if (std::holds_alternative<obs::TransferStarted>(event.payload))
      times.push_back(std::numeric_limits<double>::quiet_NaN());
    else if (const auto* f = std::get_if<obs::TransferFinished>(&event.payload))
      times.at(f->transfer - 1) = event.time;
  }
  return times;
}
}  // namespace

std::string replayDisagreement(const std::vector<obs::Event>& core,
                               const std::vector<obs::Event>& reference,
                               double relativeTolerance) {
  const std::vector<double> a = finishTimes(core);
  const std::vector<double> b = finishTimes(reference);
  if (a.size() != b.size())
    return "transfer counts differ: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({1.0, std::fabs(a[i]), std::fabs(b[i])});
    if (!(std::fabs(a[i] - b[i]) <= relativeTolerance * scale))
      return "transfer " + std::to_string(i + 1) + " finishes at " +
             std::to_string(a[i]) + " vs " + std::to_string(b[i]);
  }

  const auto linkKinds = [](const std::vector<obs::Event>& events) {
    std::vector<obs::EventKind> kinds;
    for (const obs::Event& e : events)
      if (isLinkEvent(e)) kinds.push_back(obs::kind(e));
    return kinds;
  };
  const std::vector<obs::EventKind> kindsA = linkKinds(core);
  const std::vector<obs::EventKind> kindsB = linkKinds(reference);
  const std::size_t n = std::min(kindsA.size(), kindsB.size());
  for (std::size_t i = 0; i < n; ++i)
    if (kindsA[i] != kindsB[i])
      return "link event " + std::to_string(i) + " is " +
             obs::eventName(kindsA[i]) + " vs " + obs::eventName(kindsB[i]);
  if (kindsA.size() != kindsB.size())
    return "link event counts differ: " + std::to_string(kindsA.size()) +
           " vs " + std::to_string(kindsB.size());
  return "";
}

// -- Survey composition -------------------------------------------------------

dag::Workflow buildSurveyCampaignReference(
    const workflows::SurveyConfig& config) {
  const workflows::SurveyCounts counts = workflows::surveyCounts(config);
  if (counts.sharedRawsPerEdge != 0)
    throw std::invalid_argument(
        "survey: the reference (merge-based) path cannot express overlap "
        "sharing; use overlapFraction = 0");

  std::vector<dag::Workflow> parts;
  parts.reserve(config.tiles);
  for (std::uint64_t t = 0; t < config.tiles; ++t)
    parts.push_back(workflows::buildSurveyTile(config, t));

  if (config.releaseIntervalSeconds > 0.0) {
    std::vector<double> releases(config.tiles);
    for (std::uint64_t t = 0; t < config.tiles; ++t)
      releases[t] = static_cast<double>(t) * config.releaseIntervalSeconds;
    return dag::mergeWorkflowsStaggered(parts, releases, config.name);
  }
  return dag::mergeWorkflows(parts, config.name);
}

}  // namespace mcsim::oracle
