#pragma once
// Trackeru,lvl — the VINESTALK cluster process (paper Figure 2).
//
// One Tracker runs for every cluster, hosted at the VSA of the cluster's
// head region. Per tracked target it keeps the four pointers of Figure 2
// (child c, parent p, secondary pointers nbrptup / nbrptdown) and the
// single shared grow/shrink timer; per outstanding find it keeps the
// finding flag and the nbrtimeout timer. A find's entry is dropped once
// the find leaves the cluster, so the per-find state held at any moment
// is bounded by the finds in progress, not by every find ever served.
//
// Faithfulness notes (see DESIGN.md §3 for the full list):
//  * sends are immediate where Figure 2 queues into sendq — the TIOA model
//    fires enabled outputs without time passing, so this is equivalent;
//  * find bookkeeping is keyed by FindId and tracking state by TargetId so
//    concurrent finds/targets do not clobber each other (a documented
//    generalisation; with one find and one target this is exactly
//    Figure 2);
//  * if a find's neighbour-query timeout fires at the root while the root
//    is transiently off the path (c = ⊥ mid-move), the query is reissued
//    instead of forwarding to a nonexistent parent — a liveness completion
//    for executions outside the paper's atomic-find assumption.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/ids.hpp"
#include "obs/op.hpp"
#include "obs/profile/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"
#include "tracking/config.hpp"
#include "tracking/snapshot.hpp"
#include "vsa/cgcast.hpp"
#include "vsa/messages.hpp"

namespace vs::tracking {

class Tracker {
 public:
  /// Notification that some target's pointer state changed at this tracker
  /// (used by invariant monitors).
  using StateChangeHook = std::function<void(ClusterId, TargetId)>;

  Tracker(sim::Scheduler& sched, const hier::ClusterHierarchy& hierarchy,
          vsa::CGcast& cgcast, const TrackerConfig& config, ClusterId clust);

  Tracker(const Tracker&) = delete;
  Tracker& operator=(const Tracker&) = delete;
  ~Tracker();

  /// cTOBrcv: dispatches on message type.
  void on_message(const vsa::Message& m);

  /// VSA failure: wipe all state back to the initial state (pointers ⊥,
  /// timers ∞, no finds).
  void reset();

  /// Fault injection for self-stabilization experiments: overwrite the
  /// pointer state for `target` with arbitrary values and disarm the
  /// timer (an "adversarial start" in the self-stabilization sense).
  /// Never used by the protocol itself.
  void corrupt_state(TargetId target, const TrackerSnapshot& forced);

  [[nodiscard]] ClusterId cluster() const { return clust_; }
  [[nodiscard]] Level level() const { return lvl_; }

  /// Pointer state for a target (⊥-initialised view if never touched).
  [[nodiscard]] TrackerSnapshot state(TargetId target) const;
  /// True if the shared grow/shrink timer is armed for `target`.
  [[nodiscard]] bool timer_armed(TargetId target) const;
  /// Heartbeat repair hook (ext::Stabilizer): re-evaluates the timer-expiry
  /// outputs when the timer was lost to a VSA reset. No-op while the timer
  /// is armed — firing a pending shrink early would break inequality (1).
  /// `op` charges the repair traffic to the stabilizer's repair operation.
  void nudge_timer(TargetId target, obs::OpId op = obs::kBackgroundOp);
  /// Targets with any non-⊥ pointer or an armed timer.
  [[nodiscard]] std::vector<TargetId> active_targets() const;
  /// True if the tracker currently holds `find` in its search phase.
  [[nodiscard]] bool finding(FindId find) const;
  /// Per-find entries held (outstanding finds plus finds whose expired
  /// neighbour-query timeout has yet to fire).
  [[nodiscard]] std::size_t find_entries() const { return finds_.size(); }
  /// The find completed: drop its entry here once the find has left,
  /// root retries spent or not (no receipt after completion needs them).
  void forget_find(FindId find);

  void set_state_change_hook(StateChangeHook hook) {
    state_hook_ = std::move(hook);
  }

  /// Attach the world's trace recorder (nullptr detaches); not owned.
  /// Records the local, non-message actions — timer expiries and find
  /// timeouts — that message records alone cannot reconstruct.
  void set_trace_recorder(obs::TraceRecorder* trace) { trace_ = trace; }

  /// Attach the world's wall-clock profiler (nullptr detaches); not owned.
  /// Handlers run under per-family scopes (grow/shrink/find/timer) nested
  /// inside C-gcast's kDeliver, so the flamegraph splits delivery time by
  /// the Figure 2 handler that consumed it.
  void set_profiler(obs::Profiler* prof) { prof_ = prof; }

 private:
  struct PerTarget {
    ClusterId c{};
    ClusterId p{};
    ClusterId nbrptup{};
    ClusterId nbrptdown{};
    std::unique_ptr<sim::Timer> timer;  // shared grow/shrink timer
    /// Operation that armed the timer: the cascade a timer expiry emits is
    /// still part of the move step whose grow/shrink armed it.
    obs::OpId op = obs::kBackgroundOp;
  };
  struct PerFind {
    bool finding = false;
    TargetId target{};
    bool queried = false;  // findquery performed for this find receipt
    int root_retries = 0;  // bounded re-queries at a transiently-bare root
    /// Pending nbrtimeout expiry (invalid = ∞). A plain scheduler event
    /// rather than a sim::Timer, so the expiry handler may drop the entry.
    sim::EventId nbrtimeout{};
  };

  /// Re-query attempts at a root with no pointers before the find goes
  /// quiet (it resumes via try_advance_find when state changes).
  static constexpr int kMaxRootRetries = 8;

  PerTarget& target_state(TargetId t);
  /// The find left this cluster (forwarded, answered, or found here).
  void stop_finding(FindId f);
  /// Drops the entry once it carries nothing a later receipt of the same
  /// find could observe: not finding, no nbrtimeout pending (its expiry
  /// must still fire, as a no-op, exactly when it would have), and no
  /// root retries spent (the retry cap spans every receipt of a find at
  /// the root; such entries arise only while the root is off the path,
  /// and forget_find drops them when the find completes).
  void release_find(std::map<FindId, PerFind>::iterator it);
  void arm_nbrtimeout(FindId f, PerFind& pf, sim::Duration delay);
  void disarm_nbrtimeout(PerFind& pf);

  /// on_message body: dispatch under the incoming message's op.
  void dispatch(const vsa::Message& m);

  // Figure 2 handlers.
  void on_grow(const vsa::Message& m);
  void on_grow_par(const vsa::Message& m);
  void on_grow_nbr(const vsa::Message& m);
  void on_shrink(const vsa::Message& m);
  void on_shrink_upd(const vsa::Message& m);
  void on_find(const vsa::Message& m);
  void on_find_query(const vsa::Message& m);
  void on_find_ack(const vsa::Message& m);
  void on_found(const vsa::Message& m);

  /// The timer-expiry outputs: grow-send when c≠⊥ ∧ p=⊥, shrink-send when
  /// c=⊥ ∧ p≠⊥.
  void on_timer(TargetId t);

  /// Evaluates the enabled find outputs (trace / secondary-pointer follow /
  /// neighbour query / found) for one outstanding find.
  void try_advance_find(FindId f);
  /// Re-evaluates every outstanding find for a target after its pointer
  /// state changed.
  void advance_finds_of(TargetId t);
  void on_nbrtimeout(FindId f);
  void issue_find_query(FindId f, PerFind& pf, PerTarget& ts);
  void emit_found(FindId f, TargetId t);

  void send(ClusterId to, vsa::MsgType type, TargetId target,
            FindId find = FindId{}, ClusterId ack_pointer = ClusterId{});
  void notify_state_change(TargetId t);
  void record(obs::TraceKind kind, TargetId target, FindId find,
              std::int32_t arg);

  sim::Scheduler* sched_;
  const hier::ClusterHierarchy* hier_;
  vsa::CGcast* cgcast_;
  const TrackerConfig* config_;
  ClusterId clust_;
  Level lvl_;

  std::map<TargetId, PerTarget> targets_;
  std::map<FindId, PerFind> finds_;
  StateChangeHook state_hook_;
  obs::TraceRecorder* trace_ = nullptr;
  obs::Profiler* prof_ = nullptr;
  /// Operation the currently-executing handler is charged to; every send()
  /// stamps it onto the outgoing message. Saved/restored per handler so
  /// nesting (advance_finds_of inside a grow) keeps each action's op.
  obs::OpId current_op_ = obs::kBackgroundOp;
};

}  // namespace vs::tracking
