// Test oracles: the simulation core's original reference implementations,
// kept outside the production library so the differential tests can hold
// the production core to them.
//
//   * ReferenceCalendar — the std::priority_queue + lazy-deletion
//     tombstone-set event calendar.  Same contract and the same SimEvent*
//     telemetry as sim::Simulator's arena heap.
//   * ReferenceLink — the O(n)-per-event rescan link scheduler (credit
//     rate·dt to every active transfer, scan for the least remaining),
//     running on a ReferenceCalendar.  Same contract and telemetry as
//     sim::Link's virtual-time scheduler.
//   * replayLinkScript — one function template that drives either
//     calendar + link pair through the link traffic recorded from an
//     engine run, so both cores see the same whole-run workload without
//     the engine ever running on the oracle.
//   * buildSurveyCampaignReference — the merge-based survey composition the
//     streaming campaign builder is held to.
//
// Production code never includes this header.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "mcsim/dag/workflow.hpp"
#include "mcsim/engine/engine.hpp"
#include "mcsim/obs/event.hpp"
#include "mcsim/sim/link.hpp"
#include "mcsim/sim/simulator.hpp"
#include "mcsim/util/units.hpp"
#include "mcsim/workflows/survey.hpp"

namespace mcsim::obs {
class Sink;
}

namespace mcsim::oracle {

/// The reference event calendar: a std::priority_queue of (time, sequence)
/// ordered events, one heap-allocated callback per event, and cancellation
/// by tombstone (a cancelled event stays queued and is dropped when it
/// surfaces).  Event ids, firing order and SimEvent* telemetry match
/// sim::Simulator exactly.
class ReferenceCalendar {
 public:
  ReferenceCalendar() = default;
  ReferenceCalendar(const ReferenceCalendar&) = delete;
  ReferenceCalendar& operator=(const ReferenceCalendar&) = delete;

  double now() const { return now_; }
  sim::EventId schedule(double time, sim::Callback cb);
  sim::EventId scheduleAfter(double delay, sim::Callback cb);
  bool cancel(sim::EventId id);
  void run();
  void runUntil(double horizon);
  bool hasPending() const { return !liveIds_.empty(); }
  std::size_t processedEvents() const { return processed_; }
  void setObserver(obs::Sink* observer) { observer_ = observer; }

 private:
  struct Event {
    double time;
    std::uint64_t sequence;
    sim::EventId id;
    std::shared_ptr<sim::EventFn> callback;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };
  void step();

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<sim::EventId> liveIds_;
  double now_ = 0.0;
  std::uint64_t nextSequence_ = 0;
  sim::EventId nextId_ = 1;
  std::size_t processed_ = 0;
  obs::Sink* observer_ = nullptr;
};

/// The reference link scheduler: every boundary (start, suspend, resume,
/// completion) credits rate·dt to each active transfer and rescans the set
/// for the least remaining bytes.  It keeps sim::Link's size-relative
/// completion threshold and its one-ulp reschedule guard; without the guard
/// a sub-ulp residue reschedules at `now` forever.
class ReferenceLink {
 public:
  using TransferId = sim::Link::TransferId;
  using CompletionHandler = sim::Link::CompletionHandler;

  ReferenceLink(ReferenceCalendar& calendar, const sim::LinkConfig& config);
  ReferenceLink(const ReferenceLink&) = delete;
  ReferenceLink& operator=(const ReferenceLink&) = delete;

  TransferId startTransfer(Bytes size, CompletionHandler onComplete);
  void suspend();
  void resume();
  void setObserver(obs::Sink* observer) { observer_ = observer; }
  std::size_t completedTransfers() const { return completedCount_; }

 private:
  struct Transfer {
    double totalBytes;
    double remainingBytes;
    double startTime;
    CompletionHandler onComplete;
  };

  double perTransferRate() const;
  /// Credit progress for [lastUpdate_, now] to all active transfers.
  void accrueProgress();
  /// Fire completions for all transfers that have (numerically) finished.
  void completeFinished();
  void reschedule();
  void emitShareChange(double rate);
  void onLinkEvent();

  ReferenceCalendar& calendar_;
  double bandwidth_;
  sim::LinkSharing sharing_;
  bool suspended_ = false;
  std::map<TransferId, Transfer> active_;  ///< Ordered: deterministic scans.
  TransferId nextId_ = 1;
  double lastUpdate_ = 0.0;
  sim::EventId pendingEvent_ = sim::kInvalidEvent;
  std::size_t completedCount_ = 0;
  obs::Sink* observer_ = nullptr;
  double lastEmittedRate_ = -1.0;
};

/// One link operation recorded from an engine run.
struct LinkAction {
  enum class Kind : std::uint8_t { Start, Suspend, Resume };
  Kind kind = Kind::Start;
  double time = 0.0;
  double bytes = 0.0;  ///< Start only.
  /// Transfers that had finished before this operation in the recorded
  /// event stream.  A replay holds the operation back until as many have
  /// finished, so a start the engine issued from a completion handler
  /// follows that completion in the replay too.
  std::size_t finishedBefore = 0;
  /// Issued by a completion handler, inside the link event that finished a
  /// transfer, rather than from a later calendar event.  The two differ:
  /// the link reschedules (and rewinds an idle virtual clock) only after
  /// its handlers return.
  bool inCompletion = false;
};

/// The link traffic of one engine run: the link it ran on and its
/// TransferStarted, LinkSuspended and LinkResumed events, in order.
struct LinkScript {
  sim::LinkConfig link;
  std::vector<LinkAction> actions;
  /// Every link event of the recorded run.  A replay on sim::Simulator +
  /// sim::Link reproduces it exactly: the script is the run's traffic, not
  /// an approximation of it.
  std::vector<obs::Event> recorded;
};

/// Run the engine once on `workflow` under `config` with a recording sink
/// (any observer in `config` is replaced) and extract its link script.
LinkScript recordLinkScript(const dag::Workflow& workflow,
                            engine::EngineConfig config);

/// Drive a fresh `Calendar` and a `LinkT` built on it through `script`,
/// with `observer` (may be null) installed on the link only.  An action is
/// issued once the clock reaches its recorded time and its finishedBefore
/// completions have happened: from the completion handler if it was
/// recorded there, else from a calendar event of its own, as the engine
/// issued it.  Throws std::logic_error if the replay drains with actions
/// left.
template <class Calendar, class LinkT>
void replayLinkScript(const LinkScript& script, obs::Sink* observer) {
  struct Replay {
    const std::vector<LinkAction>& actions;
    Calendar calendar;
    LinkT link;
    std::size_t next = 0;
    double wakeAt = std::numeric_limits<double>::infinity();

    Replay(const LinkScript& s, obs::Sink* observer)
        : actions(s.actions), link(calendar, s.link) {
      link.setObserver(observer);
    }

    void wake(double at) {
      if (wakeAt <= at) return;  // an earlier wake is already pending
      wakeAt = at;
      calendar.schedule(at, [this, at] {
        if (wakeAt == at) wakeAt = std::numeric_limits<double>::infinity();
        pump(false);
      });
    }

    void pump(bool inCompletion) {
      while (next < actions.size()) {
        const LinkAction& action = actions[next];
        // The completion handler that brings the count up pumps again.
        if (link.completedTransfers() < action.finishedBefore) return;
        const double now = calendar.now();
        if (action.time > now || (inCompletion && !action.inCompletion)) {
          wake(std::max(action.time, now));
          return;
        }
        ++next;
        switch (action.kind) {
          case LinkAction::Kind::Start:
            link.startTransfer(Bytes(action.bytes), [this] { pump(true); });
            break;
          case LinkAction::Kind::Suspend:
            link.suspend();
            break;
          case LinkAction::Kind::Resume:
            link.resume();
            break;
        }
      }
    }
  } replay(script, observer);
  replay.pump(false);
  replay.calendar.run();
  if (replay.next != replay.actions.size())
    throw std::logic_error("replayLinkScript: stalled after " +
                           std::to_string(replay.next) + " of " +
                           std::to_string(replay.actions.size()) + " actions");
}

/// True for the event kinds a link emits: transfer start, progress and
/// finish, share changes, suspend and resume.
bool isLinkEvent(const obs::Event& event);

/// Where two replays' link event streams disagree, or "" if they agree:
/// the same transfers started and finished, each transfer id's finish time
/// within `relativeTolerance`, and the same link event kinds in the same
/// order.
std::string replayDisagreement(const std::vector<obs::Event>& core,
                               const std::vector<obs::Event>& reference,
                               double relativeTolerance = 1e-6);

/// Reference composition path for survey campaigns: every tile built
/// standalone, then merged with dag::mergeWorkflows /
/// mergeWorkflowsStaggered.  Requires overlapFraction == 0 (file sharing
/// cannot be expressed as a merge of independent parts); throws
/// std::invalid_argument otherwise.  Memory scales with tiles * tile size.
dag::Workflow buildSurveyCampaignReference(
    const workflows::SurveyConfig& config);

}  // namespace mcsim::oracle
