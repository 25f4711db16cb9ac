// The Mostefaoui-Raynal consensus algorithm for the <>S failure detector
// (Mostefaoui & Raynal, DISC 1999) -- the "alternative protocol" the
// paper's Section 6 plans to compare against.
//
// Rotating coordinator, two communication steps per round:
//   1. the round's coordinator broadcasts its estimate;
//   2. every process waits for that estimate OR a suspicion of the
//      coordinator, then broadcasts AUX = the estimate or bottom to all;
//   3. on a majority of AUX values for the round:
//        all equal to v (no bottom)  -> decide v,
//        some v present              -> adopt v, next round,
//        all bottom                  -> next round.
//
// Compared with Chandra-Toueg: one fewer communication step on the decision
// path (coordinator bcast + all-to-all vs estimate + proposal + ack), but
// Theta(n^2) messages per round instead of Theta(n). Failure-free, the
// shorter path wins. Under a coordinator crash MR pays a full all-to-all
// round of bottoms before rotating, whereas CT processes that already
// suspect the coordinator advance after cheap nacks -- so CT recovers
// faster, increasingly so with n. The ext_algorithms bench quantifies both
// regimes. Like CtConsensus, this file holds only the round logic over
// consensus::InstanceStream.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/instance_stream.hpp"
#include "consensus/payload.hpp"
#include "consensus/round_map.hpp"

namespace sanperf::consensus {

namespace detail {

/// Mostefaoui-Raynal's per-instance round state.
struct MrRound {
  enum class Phase : std::uint8_t {
    kIdle,
    kWaitCoord,  ///< waiting for the coordinator's estimate (or suspicion)
    kWaitAux,    ///< AUX sent, collecting a majority of AUX values
    kDone,
  };
  static constexpr Phase kAwaitsCoordinator = Phase::kWaitCoord;

  struct AuxSet {
    std::int32_t value_count = 0;   ///< AUX carrying the coordinator value
    std::int32_t bottom_count = 0;  ///< AUX carrying bottom
    std::vector<std::int64_t> value;  ///< the (unique) non-bottom value seen

    void add(bool bottom, Payload v) {
      if (bottom) {
        ++bottom_count;
      } else {
        ++value_count;
        value.assign(v.begin(), v.end());
      }
    }
  };

  Phase phase = Phase::kIdle;
  RoundMap<std::vector<std::int64_t>> coord_ests;  ///< buffered per round
  RoundMap<AuxSet> aux;                            ///< per round
  /// Our own AUX per round, kept (durable mode only) so a REPLAYQ from a
  /// restarted peer can be answered even after we moved past its round.
  RoundMap<runtime::Message> sent_aux;

  void clear() {
    phase = Phase::kIdle;
    coord_ests.clear();
    aux.clear();
    sent_aux.clear();
  }
};

}  // namespace detail

class MrConsensus : public InstanceStream<MrConsensus, detail::MrRound> {
 public:
  explicit MrConsensus(FailureDetector& fd) : InstanceStream{fd} {}

  struct Stats {
    std::uint64_t rounds_entered = 0;
    std::uint64_t coord_broadcasts = 0;
    std::uint64_t aux_broadcasts = 0;
    std::uint64_t bottom_aux = 0;  ///< AUX messages carrying bottom
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  void on_reset() override {
    InstanceStream::on_reset();
    stats_ = {};
  }

 private:
  friend InstanceStream;
  using Phase = detail::MrRound::Phase;

  static bool is_round_kind(MsgKind kind) {
    return kind == MsgKind::kCoordEst || kind == MsgKind::kAux;
  }
  /// The round's vote is re-armed on every round record; send_aux logs it.
  static void record_round(DurableLog::InstanceState& rec, const Instance&) {
    rec.aux_sent = false;
  }
  void advance_round(std::int32_t cid, Instance& inst);
  void on_round_message(Instance& inst, const Message& m);
  void coordinator_suspected(std::int32_t cid, Instance& inst) {
    send_aux(cid, inst, /*bottom=*/true, {});
  }
  void resume_round(std::int32_t cid, Instance& inst, const DurableLog::InstanceState& rec);
  void answer_replay_query(Instance& inst, const Message& m);

  void send_aux(std::int32_t cid, Instance& inst, bool bottom, detail::Payload value);
  void maybe_conclude(std::int32_t cid, Instance& inst);

  Stats stats_;
};

extern template class InstanceStream<MrConsensus, detail::MrRound>;

}  // namespace sanperf::consensus
