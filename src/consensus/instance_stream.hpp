// The instance-stream core shared by the consensus layers.
//
// A consensus layer multiplexes a stream of instances (keyed by cid) over
// one process. Everything about that stream except the round state machine
// is protocol-independent and lives here, once: the instance map and its GC
// sweep, epoch pinning and member-scoped sends, the durable write-ahead log
// and its replay, decide and DECIDE dissemination, the decided-instance
// answer to REPLAYQ, the decision accessors and the audit ledgers.
// CtConsensus and MrConsensus derive from InstanceStream<Self, Round>
// (CRTP) and supply only their round logic, through static (non-virtual)
// hooks: the per-message path pays no indirect call beyond
// Layer::on_message itself.
//
// `Round` is the per-instance round state (a template parameter because a
// CRTP base cannot name Derived's nested types at class scope). It defines
//   enum class Phase           with a kDone value (set on decide and replay);
//   Phase phase;
//   static constexpr Phase kAwaitsCoordinator
//                              the phase in which a suspicion of the current
//                              round's coordinator must move the instance.
//
// `Derived` defines these hooks (private, with `friend InstanceStream`):
//   static bool is_round_kind(MsgKind)
//       the round traffic it consumes (DECIDE and REPLAYQ are handled here);
//   void advance_round(std::int32_t cid, Instance&)
//       enter the next round (propose enters round 1 through it);
//   void on_round_message(Instance&, const Message&)
//       round traffic for an instance neither decided nor decide-pending;
//   void coordinator_suspected(std::int32_t cid, Instance&)
//       a started, undecided instance in kAwaitsCoordinator whose current
//       round's coordinator just became suspected;
//   static void record_round(DurableLog::InstanceState&, const Instance&)
//       fold the round-specific fields into the instance's log record;
//   void resume_round(std::int32_t cid, Instance&, const DurableLog::InstanceState&)
//       re-enter a logged round on replay;
//   void answer_replay_query(Instance&, const Message&)
//       re-send the round traffic a restarted peer missed (undecided only).
//
// on_restart with the log enabled walks the log in cid order. Each record
// restores started, epoch and estimate. A decided record is restored
// silently (no report, no re-broadcast). A started undecided one either
// enters round 1 through advance_round (the crash hit inside the propose
// append) or gets `round` and `replay_round` from the record and is handed
// to resume_round. If it is still undecided afterwards, a REPLAYQ for its
// round goes to every member of its epoch.
//
// on_reset (Cluster::reset) moves every instance's map node into a spare
// map instead of freeing it; a recycled node is re-keyed and cleared in
// place (Instance::recycle, Round::clear), so a reset layer runs the same
// instances again without allocating. Round additionally defines
//   void clear()              back to a default-constructed round state,
//                             keeping the capacity of its containers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "consensus/durable_log.hpp"
#include "consensus/instance_gc.hpp"
#include "consensus/layer_audit.hpp"
#include "consensus/membership.hpp"
#include "consensus/payload.hpp"
#include "fd/failure_detector.hpp"
#include "runtime/process.hpp"

namespace sanperf::consensus {

using fd::FailureDetector;
using runtime::HostId;
using runtime::Message;
using runtime::MsgKind;

struct DecisionEvent {
  std::int32_t cid = 0;
  std::int64_t value = 0;       ///< first decided value (scalar view)
  std::int32_t round = 0;       ///< round in which the decision was reached
  des::TimePoint at;
  HostId by = 0;
  /// Full decided batch; one entry per client value the instance carried
  /// (a single entry for unbatched proposals).
  std::vector<std::int64_t> values;
};

template <typename Derived, typename Round>
class InstanceStream : public runtime::Layer {
 public:
  /// `fd` must outlive the layer; its suspicions drive the round logic.
  explicit InstanceStream(FailureDetector& fd) : fd_{&fd} {}

  void on_start() override {
    fd_->add_listener([this](HostId peer, bool suspected) { on_suspicion(peer, suspected); });
  }
  void on_message(const Message& m) override;
  void on_crash() override;
  /// Forgets every instance, the log's records and the GC watermark;
  /// settings (callback, relay, rotation, log configuration, GC, view)
  /// stay. Instance storage is recycled, not freed.
  void on_reset() override;
  /// Warm restart. Without a durable log, consensus state is volatile: a
  /// rebooted process forgets every in-flight instance and rejoins
  /// passively -- it takes part in instances proposed after the restart,
  /// and learns old decisions only through DECIDE messages (never
  /// re-reporting them). With the log enabled, the logged suffix is
  /// replayed instead: each undecided in-flight instance re-enters its
  /// logged round and broadcasts a REPLAYQ so peers re-send the round
  /// traffic missed while down.
  void on_restart() override;

  /// Starts instance `cid` with this process's initial value.
  void propose(std::int32_t cid, std::int64_t value) { propose(cid, detail::Payload{&value, 1}); }
  /// Batched form: the instance carries a whole vector of client values
  /// (one Batcher batch); agreement is on the vector as a unit.
  void propose(std::int32_t cid, detail::Payload values);

  /// Round-robins the *round-1* coordinator across instances (`cid % n`)
  /// instead of always host 0, so a single host crash stalls only 1/n of a
  /// streamed workload instead of every instance. Off by default: the
  /// paper's experiments pin host 0 (Section 2.1 rotates only across
  /// rounds), and the goldens depend on that.
  void set_rotate_coordinators(bool on) { rotate_coordinators_ = on; }

  /// Enables the stable-storage write-ahead log: per-instance state is
  /// recorded before every externally visible protocol step (each record
  /// charging the configured persistence latency on a serialized device
  /// tail), and on_restart replays it so the process rejoins in-flight
  /// instances. Disabled (the default) the layer is bit-exact with the
  /// volatile warm-restart model.
  void set_durable_log(const DurableLogConfig& cfg) { log_.configure(cfg); }
  [[nodiscard]] const DurableLog& durable_log() const { return log_; }

  /// Attaches the cluster's dynamic membership view (nullptr = fixed
  /// membership over all n hosts, bit-exact with the static code paths).
  /// Instances capture the epoch current at first touch and resolve
  /// coordinator rotation, majority size and broadcast fan-out against
  /// that epoch's member set for their whole life. `view` must outlive
  /// the layer.
  void set_membership(const MembershipView* view) { view_ = view; }

  [[nodiscard]] bool has_decided(std::int32_t cid) const {
    if (gc_.collected(cid)) return true;
    const auto it = instances_.find(cid);
    return it != instances_.end() && it->second.decided;
  }
  [[nodiscard]] std::int64_t decision(std::int32_t cid) const {
    const std::vector<std::int64_t>& values = decision_values(cid);
    return values.empty() ? 0 : values.front();
  }
  [[nodiscard]] const std::vector<std::int64_t>& decision_values(std::int32_t cid) const {
    const auto it = instances_.find(cid);
    if (it == instances_.end() || !it->second.decided) {
      throw std::logic_error{"consensus: no decision yet"};
    }
    return it->second.decision;
  }
  [[nodiscard]] std::int32_t rounds_used(std::int32_t cid) const {
    const auto it = instances_.find(cid);
    if (it == instances_.end()) return 0;
    return it->second.decided ? it->second.decision_round : it->second.round;
  }

  /// Called on every local decision (first delivery per instance).
  void set_decide_callback(std::function<void(const DecisionEvent&)> cb) {
    on_decide_ = std::move(cb);
  }

  /// When true, a process that learns a decision re-broadcasts it once
  /// (full reliable-broadcast behaviour). Off by default: the coordinator's
  /// own broadcast suffices in crash-free tails and the paper's latency
  /// metric stops at the first decision anyway.
  void set_relay_decide(bool relay) { relay_decide_ = relay; }

  /// When enabled, an instance's state is discarded once this process has
  /// decided it (and handled the decide broadcast), so a long stream of
  /// instances runs in O(in-flight) memory instead of O(stream length).
  /// Late messages for a collected instance are ignored exactly as they
  /// were for a decided one; has_decided stays true for collected cids, but
  /// decision()/rounds_used() no longer answer for them -- workloads that
  /// query decisions after the run keep it off (the default).
  void set_gc_decided(bool on) { gc_.enable(on); }
  /// Instances currently holding state (streams with GC keep this bounded
  /// by the in-flight window).
  [[nodiscard]] std::size_t active_instances() const { return instances_.size(); }
  /// High-water mark of active_instances over the layer's lifetime.
  [[nodiscard]] std::size_t peak_active_instances() const { return peak_active_; }
  [[nodiscard]] std::uint64_t instances_collected() const { return gc_.collected_count(); }

#if SANPERF_AUDIT_ENABLED
  /// Test-only corruption backdoor: forgets that `cid` decided (the decided
  /// flag, the pending flag and the broadcast marker), so a re-delivered
  /// DECIDE re-drives the decide path and the no-double-decide audit trips.
  void audit_corrupt_clear_decided(std::int32_t cid) {
    const auto it = instances_.find(cid);
    if (it == instances_.end()) return;
    it->second.decided = false;
    it->second.decide_pending = false;
    it->second.decide_broadcast = true;  // the corrupted re-decide must not re-flood
  }
  /// Test-only: mutable log access for corrupting records between a crash
  /// and its replay (the replay-matches-precrash audit must notice).
  [[nodiscard]] DurableLog& audit_mutable_log() { return log_; }
#endif

 protected:
  struct Instance : Round {
    bool started = false;
    bool decided = false;
    bool decide_pending = false;  ///< decision record still persisting
    bool decide_broadcast = false;
    /// Membership epoch the instance runs under, captured at first touch
    /// (locally from the view at launch, remotely from Message::view_epoch)
    /// and fixed for the instance's life -- quorum size never changes
    /// mid-flight.
    std::uint32_t epoch = 0;
    bool epoch_set = false;
    std::vector<std::int64_t> decision;
    std::int32_t decision_round = 0;
    std::int32_t round = 0;  ///< current round, 1-based; 0 before start
    std::vector<std::int64_t> estimate;
    /// Replay dedup (durable recovery only): the round on_restart restored
    /// and the peers whose round vote was already tallied for it. A peer's
    /// normal send can race its REPLAYQ re-send; the count-based tallies
    /// must count each peer once. -1 = not a restored round.
    std::int32_t replay_round = -1;
    std::set<HostId> replay_seen;

    /// Back to a default-constructed instance, keeping vector capacity.
    void recycle() {
      Round::clear();
      started = false;
      decided = false;
      decide_pending = false;
      decide_broadcast = false;
      epoch = 0;
      epoch_set = false;
      decision.clear();
      decision_round = 0;
      round = 0;
      estimate.clear();
      replay_round = -1;
      replay_seen.clear();
    }
  };

  /// A consensus message of `kind` for instance `cid`, round `round`.
  static Message make_message(MsgKind kind, std::int32_t cid, std::int32_t round,
                              detail::Payload payload = {}) {
    Message m;
    m.kind = kind;
    m.cid = cid;
    m.round = round;
    detail::set_payload(m, payload);
    return m;
  }
  [[nodiscard]] HostId coordinator_of(std::int32_t cid, const Instance& inst,
                                      std::int32_t round) const;
  [[nodiscard]] std::int32_t majority(const Instance& inst) const {
    const std::size_t group =
        view_ == nullptr ? process().n() : view_->members_at(inst.epoch).size();
    return static_cast<std::int32_t>(group / 2 + 1);
  }
  /// Stamp the epoch and send within its member set (plain
  /// Process::send/broadcast under fixed membership -- identical order).
  void ucast(const Instance& inst, Message m, HostId dst) {
    m.view_epoch = inst.epoch;
    process().send(std::move(m), dst);
  }
  void bcast(std::uint32_t epoch, Message m);
  /// Runs `fn` after one durable append completes: inline when the log is
  /// disabled or the latency is 0, else after the charged delay (the timer
  /// is epoch-guarded, so a crash mid-write kills the step -- replay
  /// re-drives it). `fn` is invoked or moved into the timer event
  /// directly, so a disabled log costs no closure allocation.
  template <typename Fn>
  void durable_apply(Fn&& fn) {
    if (!log_.enabled()) {
      fn();
      return;
    }
    const double delay = log_.charge_ms(process().now().to_ms());
    if (!(delay > 0)) {
      fn();
      return;
    }
    process().set_timer(des::Duration::from_ms(delay), std::forward<Fn>(fn));
  }
  /// Folds the instance's replayable state into its log record (no charge;
  /// charges happen at the write-ahead points that defer a visible step).
  void record_state(std::int32_t cid, const Instance& inst) {
    if (!log_.enabled()) return;
    DurableLog::InstanceState& rec = log_.state(cid);
    rec.started = inst.started;
    rec.estimate = inst.estimate;
    rec.round = inst.round;
    rec.epoch = inst.epoch;
    Derived::record_round(rec, inst);
  }
  void decide(std::int32_t cid, Instance& inst, detail::Payload value, std::int32_t round);

  FailureDetector* fd_;
  DurableLog log_;

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }
  /// The state of `cid`, created (from a recycled node when one is spare)
  /// on first touch.
  Instance& instance(std::int32_t cid) {
    auto it = instances_.lower_bound(cid);
    if (it != instances_.end() && it->first == cid) return it->second;
    if (spare_.empty()) {
      it = instances_.emplace_hint(it, cid, Instance{});
    } else {
      auto node = spare_.extract(spare_.begin());
      node.key() = cid;
      node.mapped().recycle();
      it = instances_.insert(it, std::move(node));
    }
    if (instances_.size() > peak_active_) peak_active_ = instances_.size();
    return it->second;
  }
  static void touch_epoch(Instance& inst, std::uint32_t epoch) {
    if (!inst.epoch_set) {
      inst.epoch_set = true;
      inst.epoch = epoch;
    }
  }
  void report_decision(std::int32_t cid, const Instance& inst) {
    if (!on_decide_) return;
    const std::int64_t head = inst.decision.empty() ? 0 : inst.decision.front();
    if (reporting_) {
      // A callback that proposes can decide (and report) re-entrantly; the
      // outer report still reads `event_`, so this one gets its own event.
      on_decide_({cid, head, inst.decision_round, process().now(), process().id(),
                  inst.decision});
      return;
    }
    // The common, outermost report reuses one event: its values vector
    // keeps its capacity across decisions.
    event_.cid = cid;
    event_.value = head;
    event_.round = inst.decision_round;
    event_.at = process().now();
    event_.by = process().id();
    event_.values = inst.decision;
    reporting_ = true;
    struct Unmark {
      bool* flag;
      ~Unmark() { *flag = false; }
    } unmark{&reporting_};
    on_decide_(event_);
  }
  void finish_decide(std::int32_t cid, Instance& inst);
  void handle_replay_query(const Message& m);
  void on_suspicion(HostId peer, bool suspected);
#if SANPERF_AUDIT_ENABLED
  void audit_check_sender(const Instance& inst, const Message& m) const;
  void audit_check_replay();
#endif

  const MembershipView* view_ = nullptr;
  std::map<std::int32_t, Instance> instances_;
  /// Nodes recycled by on_reset (distinct placeholder keys), taken by
  /// instance() before it allocates. Moving a node between maps allocates
  /// nothing.
  std::map<std::int32_t, Instance> spare_;
  detail::InstanceGc gc_;
  std::size_t peak_active_ = 0;
  std::function<void(const DecisionEvent&)> on_decide_;
  DecisionEvent event_;     ///< reused by the outermost report_decision
  bool reporting_ = false;  ///< a report_decision is on the stack
  bool relay_decide_ = false;
  bool rotate_coordinators_ = false;
  SANPERF_AUDIT_ONLY(detail::LayerAudit audit_;)
};

template <typename Derived, typename Round>
HostId InstanceStream<Derived, Round>::coordinator_of(std::int32_t cid, const Instance& inst,
                                                      std::int32_t round) const {
  // Rounds are 1-based; p_i coordinates rounds kn + i (Section 2.1). With
  // rotation on, the cycle is offset per instance so round 1 of instance
  // cid starts at p_{cid mod n} rather than always p_0. Under dynamic
  // membership the rotation runs over the instance's epoch member set.
  if (view_ == nullptr) {
    const auto n = static_cast<std::int32_t>(process().n());
    const std::int32_t offset = rotate_coordinators_ ? cid % n : 0;
    return static_cast<HostId>((offset + round - 1) % n);
  }
  const std::vector<MemberId>& members = view_->members_at(inst.epoch);
  const auto m = static_cast<std::int32_t>(members.size());
  const std::int32_t offset = rotate_coordinators_ ? cid % m : 0;
  return static_cast<HostId>(members[static_cast<std::size_t>((offset + round - 1) % m)]);
}

template <typename Derived, typename Round>
void InstanceStream<Derived, Round>::bcast(std::uint32_t epoch, Message m) {
  m.view_epoch = epoch;
  if (view_ == nullptr) {
    process().broadcast(std::move(m));
    return;
  }
  // Member-wise n-1 unicasts in ascending id order -- the same fan-out
  // Process::broadcast produces when the epoch covers every host, so that
  // case takes the pooled single-frame broadcast instead.
  const std::vector<MemberId>& members = view_->members_at(epoch);
  if (covers_all_hosts(members, process().n())) {
    process().broadcast(std::move(m));
    return;
  }
  for (const MemberId peer : members) {
    if (static_cast<HostId>(peer) == process().id()) continue;
    process().send(m, static_cast<HostId>(peer));
  }
}

template <typename Derived, typename Round>
void InstanceStream<Derived, Round>::propose(std::int32_t cid, detail::Payload values) {
  gc_.sweep(instances_);
  if (log_.enabled()) log_.compact(gc_.floor());  // log tracks the GC watermark
  if (gc_.collected(cid)) return;  // decided before we proposed, state gone
  Instance& inst = instance(cid);
  if (inst.started) throw std::logic_error{"consensus: instance already proposed"};
  inst.started = true;
  touch_epoch(inst, view_ != nullptr ? view_->epoch() : 0);
  if (inst.decided) {
    // A decision arrived before we proposed (possible with very skewed
    // starts): report it now.
    report_decision(cid, inst);
    return;
  }
  if (inst.decide_pending) return;  // finish_decide reports once the record lands
  inst.estimate.assign(values.begin(), values.end());
  if (!log_.enabled()) {
    derived().advance_round(cid, inst);
    return;
  }
  // Write-ahead: the proposal record must be durable before any message for
  // the instance leaves this host, so round entry waits for the append.
  record_state(cid, inst);
  const auto enter_round = [this, cid] {
    const auto it = instances_.find(cid);
    if (it == instances_.end() || gc_.collected(cid)) return;
    Instance& i = it->second;
    if (i.round == 0 && !i.decided && !i.decide_pending) derived().advance_round(cid, i);
  };
  static_assert(runtime::Process::timer_fits_inline_v<decltype(enter_round)>);
  durable_apply(enter_round);
}

template <typename Derived, typename Round>
void InstanceStream<Derived, Round>::decide(std::int32_t cid, Instance& inst,
                                            detail::Payload value, std::int32_t round) {
  if (inst.decided || inst.decide_pending) return;
  inst.decision.assign(value.begin(), value.end());
  inst.decision_round = round;
  inst.phase = Round::Phase::kDone;
  if (!log_.enabled()) {
    finish_decide(cid, inst);
    return;
  }
  // Write-ahead: the decision record persists before it is delivered to the
  // application or disseminated. decide_pending parks the instance while
  // the append is in flight; a crash in the window kills the deferred step
  // (epoch-guarded timer) and replay restores the decision silently.
  inst.decide_pending = true;
  record_state(cid, inst);
  DurableLog::InstanceState& rec = log_.state(cid);
  rec.decided = true;
  rec.decision = inst.decision;
  rec.decision_round = round;
  const auto finish = [this, cid] {
    const auto it = instances_.find(cid);
    if (it == instances_.end() || !it->second.decide_pending) return;
    finish_decide(cid, it->second);
  };
  static_assert(runtime::Process::timer_fits_inline_v<decltype(finish)>);
  durable_apply(finish);
}

template <typename Derived, typename Round>
void InstanceStream<Derived, Round>::finish_decide(std::int32_t cid, Instance& inst) {
#if SANPERF_AUDIT_ENABLED
  // One decision per instance per incarnation: a second pass through here
  // means a decided guard was lost somewhere upstream.
  SANPERF_AUDIT_CHECK(
      "consensus.no_double_decide",
      audit_.decided.emplace(cid, detail::LayerAudit::hash_values(inst.decision)).second,
      "instance " + std::to_string(cid) + " decided twice on host " +
          std::to_string(process().id()));
#endif
  inst.decided = true;
  inst.decide_pending = false;
  if (inst.started) report_decision(cid, inst);
  if (!inst.decide_broadcast) {
    inst.decide_broadcast = true;
    bcast(inst.epoch, make_message(MsgKind::kDecide, cid, inst.decision_round, inst.decision));
  }
  gc_.mark(cid);  // terminal: collected at the next entry-point sweep
}

template <typename Derived, typename Round>
void InstanceStream<Derived, Round>::on_message(const Message& m) {
  if (m.kind != MsgKind::kDecide && m.kind != MsgKind::kReplayQuery &&
      !Derived::is_round_kind(m.kind)) {
    return;  // not a consensus message
  }
  gc_.sweep(instances_);
  if (gc_.collected(m.cid)) return;  // stale traffic for a collected instance
  if (m.kind == MsgKind::kReplayQuery) {
    handle_replay_query(m);  // find, never create
    return;
  }
  Instance& inst = instance(m.cid);
  touch_epoch(inst, m.view_epoch);
#if SANPERF_AUDIT_ENABLED
  audit_check_sender(inst, m);
  if (m.kind == MsgKind::kDecide && inst.decided) {
    // Agreement: every DECIDE for an instance must carry the value this
    // host already decided.
    SANPERF_AUDIT_CHECK("consensus.decision_agreement",
                        inst.decision.empty() ||
                            std::ranges::equal(detail::payload_of(m), inst.decision),
                        "conflicting DECIDE for instance " + std::to_string(m.cid) +
                            " from host " + std::to_string(m.from));
  }
#endif
  if (inst.decided || inst.decide_pending) return;
  if (m.kind == MsgKind::kDecide) {
    inst.decide_broadcast = !relay_decide_;  // suppress re-broadcast unless relaying
    decide(m.cid, inst, detail::payload_of(m), m.round);
    return;
  }
  derived().on_round_message(inst, m);
}

template <typename Derived, typename Round>
void InstanceStream<Derived, Round>::handle_replay_query(const Message& m) {
  const auto it = instances_.find(m.cid);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  if (inst.decide_pending) return;  // our own record is still landing
  if (inst.decided) {
    ucast(inst, make_message(MsgKind::kDecide, m.cid, inst.decision_round, inst.decision),
          m.from);
    return;
  }
  derived().answer_replay_query(inst, m);
}

template <typename Derived, typename Round>
void InstanceStream<Derived, Round>::on_suspicion(HostId peer, bool suspected) {
  if (!suspected) return;
  // A fresh suspicion matters to every instance currently waiting on the
  // round coordinator `peer`.
  for (auto& [cid, inst] : instances_) {
    if (inst.started && !inst.decided && inst.phase == Round::kAwaitsCoordinator &&
        coordinator_of(cid, inst, inst.round) == peer) {
      derived().coordinator_suspected(cid, inst);
    }
  }
}

template <typename Derived, typename Round>
void InstanceStream<Derived, Round>::on_crash() {
#if SANPERF_AUDIT_ENABLED
  // Snapshot what a durable replay must reproduce. Only instances the log
  // can know about qualify: started ones (propose records before anything
  // leaves) and decided/pending ones (the decision record is durable before
  // the decide path defers). Passive tally-only instances have no record
  // and legitimately vanish.
  audit_.precrash.clear();
  for (const auto& [cid, inst] : instances_) {
    if (!inst.started && !inst.decided && !inst.decide_pending) continue;
    detail::LayerAudit::Snapshot snap;
    snap.round = inst.round;
    snap.decided = inst.decided || inst.decide_pending;
    snap.decision_hash = detail::LayerAudit::hash_values(inst.decision);
    audit_.precrash.emplace(cid, snap);
  }
#endif
}

template <typename Derived, typename Round>
void InstanceStream<Derived, Round>::on_reset() {
  while (!instances_.empty()) {
    auto node = instances_.extract(instances_.begin());
    node.key() = spare_.empty() ? 0 : std::prev(spare_.end())->first + 1;
    spare_.insert(spare_.end(), std::move(node));
  }
  gc_.reset();
  log_.reset();
  peak_active_ = 0;
  SANPERF_AUDIT_ONLY(audit_.decided.clear(); audit_.precrash.clear();)
}

template <typename Derived, typename Round>
void InstanceStream<Derived, Round>::on_restart() {
  instances_.clear();
  if (!log_.enabled()) {
    // Volatile restart: a fresh incarnation may legitimately re-learn and
    // re-report old decisions, so the audit ledgers reset with the state.
    SANPERF_AUDIT_ONLY(audit_.decided.clear(); audit_.precrash.clear();)
    return;
  }
  log_.compact(gc_.floor());
  std::uint64_t replayed = 0;
  // Iterate a snapshot: replay re-records state (in-place log writes) and a
  // decision callback could reach back into propose(), which sweeps the
  // instance map mid-walk.
  const auto entries = log_.entries();
  for (const auto& [cid, rec] : entries) {
    if (gc_.collected(cid)) continue;
    Instance& inst = instance(cid);
    inst.started = rec.started;
    inst.epoch = rec.epoch;
    inst.epoch_set = true;
    inst.estimate = rec.estimate;
    if (rec.decided) {
      // Restore silently: never re-report (the pre-crash delivery may have
      // happened) and never re-broadcast.
      inst.decided = true;
      inst.decision = rec.decision;
      inst.decision_round = rec.decision_round;
      inst.phase = Round::Phase::kDone;
      inst.decide_broadcast = true;
      gc_.mark(cid);
      continue;
    }
    if (!rec.started) continue;
    ++replayed;
    if (rec.round < 1) {
      derived().advance_round(cid, inst);  // crashed inside the propose append
    } else {
      inst.round = rec.round;
      inst.replay_round = rec.round;
      derived().resume_round(cid, inst, rec);
    }
    if (inst.decided || inst.decide_pending) continue;  // n = 1 corner
    bcast(inst.epoch, make_message(MsgKind::kReplayQuery, cid, inst.round));
  }
  log_.note_replayed(replayed);
  SANPERF_AUDIT_ONLY(audit_check_replay();)
}

#if SANPERF_AUDIT_ENABLED
template <typename Derived, typename Round>
void InstanceStream<Derived, Round>::audit_check_sender(const Instance& inst,
                                                        const Message& m) const {
  // Quorum membership: traffic for an instance must come from the member
  // set of the epoch it runs under (Message::view_epoch pins the epoch at
  // first touch), so no quorum can be assembled across epoch boundaries.
  if (view_ == nullptr) {
    SANPERF_AUDIT_CHECK("consensus.quorum_in_epoch",
                        m.from < static_cast<HostId>(process().n()),
                        "sender " + std::to_string(m.from) + " outside the fixed group");
    return;
  }
  SANPERF_AUDIT_CHECK("consensus.quorum_in_epoch",
                      inst.epoch <= view_->epoch() &&
                          view_->is_member_at(inst.epoch, static_cast<MemberId>(m.from)),
                      "sender " + std::to_string(m.from) + " not a member of epoch " +
                          std::to_string(inst.epoch) + " (instance " + std::to_string(m.cid) +
                          ")");
}

template <typename Derived, typename Round>
void InstanceStream<Derived, Round>::audit_check_replay() {
  // Durable replay must reproduce the pre-crash trajectory: every decided
  // instance comes back with the same value, every started in-flight one
  // re-enters a round no earlier than the one it crashed in.
  for (const auto& [cid, snap] : audit_.precrash) {
    if (gc_.collected(cid)) continue;
    const auto it = instances_.find(cid);
    if (it == instances_.end()) {
      SANPERF_AUDIT_CHECK("consensus.replay_matches_precrash", false,
                          "instance " + std::to_string(cid) + " lost across replay");
      continue;
    }
    const Instance& inst = it->second;
    if (snap.decided) {
      SANPERF_AUDIT_CHECK(
          "consensus.replay_matches_precrash",
          inst.decided && detail::LayerAudit::hash_values(inst.decision) == snap.decision_hash,
          "instance " + std::to_string(cid) + " decision changed across replay");
    } else {
      SANPERF_AUDIT_CHECK("consensus.replay_matches_precrash", inst.round >= snap.round,
                          "instance " + std::to_string(cid) + " replayed into round " +
                              std::to_string(inst.round) + " behind pre-crash round " +
                              std::to_string(snap.round));
    }
  }
  audit_.precrash.clear();
}
#endif

}  // namespace sanperf::consensus
