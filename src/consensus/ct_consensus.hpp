// The Chandra-Toueg consensus algorithm for the <>S failure detector
// (Chandra & Toueg, JACM 1996), as analysed by the paper.
//
// Rotating coordinator, asynchronous rounds, four phases per round:
//   1. every process sends its (estimate, ts) to the round's coordinator;
//   2. the coordinator waits for a majority of estimates, picks the one
//      with the largest timestamp and broadcasts it as the proposal;
//   3. every process waits for the proposal -- on reception it adopts the
//      value (ts := round) and acks; if instead its failure detector
//      suspects the coordinator it nacks -- and then moves to the next
//      round immediately;
//   4. the coordinator waits for replies: a single nack sends it to the
//      next round (the paper's formulation); a majority of acks lets it
//      decide and broadcast the decision.
//
// The coordinator handles its own estimate/proposal/ack locally (no
// network traffic). Requires a majority of correct processes. This file
// holds only the round logic; the instance stream around it (GC, durable
// log, decide/DECIDE, accessors, audits) is consensus::InstanceStream.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/instance_stream.hpp"
#include "consensus/payload.hpp"
#include "consensus/round_map.hpp"

namespace sanperf::consensus {

namespace detail {

/// Chandra-Toueg's per-instance round state.
struct CtRound {
  enum class Phase : std::uint8_t {
    kIdle,            ///< not started
    kCoordWaitEst,    ///< phase 2 (self is coordinator)
    kWaitProp,        ///< phase 3 (participant waiting for the proposal)
    kCoordWaitReply,  ///< phase 4 (self is coordinator)
    kDone,
  };
  static constexpr Phase kAwaitsCoordinator = Phase::kWaitProp;

  struct EstimateSet {
    std::int32_t count = 0;   ///< estimates received (including the local one)
    std::vector<std::int64_t> best_value;
    std::int32_t best_ts = -1;

    void add(Payload value, std::int32_t ts) {
      ++count;
      if (ts > best_ts) {
        best_ts = ts;
        best_value.assign(value.begin(), value.end());
      }
    }
  };

  Phase phase = Phase::kIdle;
  std::int32_t ts = 0;  ///< round in which the estimate was last adopted
  RoundMap<EstimateSet> ests;                // per round
  RoundMap<std::int32_t> acks;               // per round (incl. own)
  RoundMap<std::int32_t> nacks;              // per round
  RoundMap<runtime::Message> buffered_props; // proposals for future rounds

  void clear() {
    phase = Phase::kIdle;
    ts = 0;
    ests.clear();
    acks.clear();
    nacks.clear();
    buffered_props.clear();
  }
};

}  // namespace detail

class CtConsensus : public InstanceStream<CtConsensus, detail::CtRound> {
 public:
  /// `fd` must outlive the layer; its suspicions drive phase-3 nacks.
  explicit CtConsensus(FailureDetector& fd) : InstanceStream{fd} {}

  /// Aggregate protocol counters across all instances (diagnostics).
  struct Stats {
    std::uint64_t rounds_entered = 0;
    std::uint64_t estimates_sent = 0;
    std::uint64_t proposals_sent = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t nacks_sent = 0;
    std::uint64_t rounds_aborted = 0;  ///< as coordinator, on a nack
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  void on_reset() override {
    InstanceStream::on_reset();
    stats_ = {};
  }

 private:
  friend InstanceStream;
  using Phase = detail::CtRound::Phase;

  static bool is_round_kind(MsgKind kind) {
    return kind == MsgKind::kEstimate || kind == MsgKind::kPropose || kind == MsgKind::kAck ||
           kind == MsgKind::kNack;
  }
  static void record_round(DurableLog::InstanceState& rec, const Instance& inst) {
    rec.ts = inst.ts;
  }
  void advance_round(std::int32_t cid, Instance& inst);
  void on_round_message(Instance& inst, const Message& m);
  void coordinator_suspected(std::int32_t cid, Instance& inst) { send_nack(cid, inst); }
  void resume_round(std::int32_t cid, Instance& inst, const DurableLog::InstanceState& rec);
  void answer_replay_query(Instance& inst, const Message& m);

  void record_estimate(std::int32_t cid, Instance& inst, std::int32_t round,
                       detail::Payload value, std::int32_t ts);
  void maybe_propose(std::int32_t cid, Instance& inst);
  void handle_proposal(std::int32_t cid, Instance& inst, const Message& m);
  void maybe_conclude_round(std::int32_t cid, Instance& inst);
  void send_nack(std::int32_t cid, Instance& inst);
  void send_estimate(std::int32_t cid, const Instance& inst, HostId to);

  Stats stats_;
};

extern template class InstanceStream<CtConsensus, detail::CtRound>;

}  // namespace sanperf::consensus
