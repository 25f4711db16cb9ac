#include "consensus/mr_consensus.hpp"

#include <utility>

#include "consensus/payload.hpp"

namespace sanperf::consensus {

template class InstanceStream<MrConsensus, detail::MrRound>;

void MrConsensus::advance_round(std::int32_t cid, Instance& inst) {
  ++inst.round;
  ++stats_.rounds_entered;
  const std::int32_t r = inst.round;
  record_state(cid, inst);  // round entry is replayable state
  const HostId coord = coordinator_of(cid, inst, r);

  if (coord == process().id()) {
    // Phase 1: broadcast the coordinator's estimate; it reaches ourselves
    // instantly (we ARE the coordinator).
    bcast(inst.epoch, make_message(MsgKind::kCoordEst, cid, r, inst.estimate));
    ++stats_.coord_broadcasts;
    send_aux(cid, inst, /*bottom=*/false, inst.estimate);
    return;
  }

  // Phase 2: wait for the coordinator's value -- unless it already arrived
  // (we lag behind) or the coordinator is suspected right away.
  if (const std::vector<std::int64_t>* buffered = inst.coord_ests.find(r)) {
    send_aux(cid, inst, /*bottom=*/false, *buffered);
    return;
  }
  if (fd_->is_suspected(coord)) {
    send_aux(cid, inst, /*bottom=*/true, {});
    return;
  }
  inst.phase = Phase::kWaitCoord;
}

void MrConsensus::send_aux(std::int32_t cid, Instance& inst, bool bottom,
                           detail::Payload value) {
  const std::int32_t r = inst.round;
  Message aux = make_message(MsgKind::kAux, cid, r, value);
  aux.ts = bottom ? 1 : 0;  // ts doubles as the bottom flag
  if (log_.enabled()) {
    // Persist the vote before it leaves: replay must rebuild exactly this
    // AUX (never re-send it -- the peers' tallies are count-based), and a
    // REPLAYQ may ask for it long after we moved past round r.
    DurableLog::InstanceState& rec = log_.state(cid);
    rec.aux_sent = true;
    rec.aux_bottom = bottom;
    rec.aux_value.assign(value.begin(), value.end());
    auto [sent, inserted] = inst.sent_aux.emplace(r);
    if (inserted) sent = aux;
  }
  durable_apply([this, epoch = inst.epoch, aux = std::move(aux)]() mutable {
    bcast(epoch, std::move(aux));
  });
  ++stats_.aux_broadcasts;
  if (bottom) ++stats_.bottom_aux;

  inst.aux[r].add(bottom, value);  // a process counts its own AUX
  inst.phase = Phase::kWaitAux;
  maybe_conclude(cid, inst);
}

void MrConsensus::maybe_conclude(std::int32_t cid, Instance& inst) {
  if (inst.phase != Phase::kWaitAux) return;
  const std::int32_t r = inst.round;
  detail::MrRound::AuxSet& set = inst.aux[r];
  if (set.value_count + set.bottom_count < majority(inst)) return;

  // Phase 3 on the first majority of AUX values.
  if (set.bottom_count == 0) {
    decide(cid, inst, set.value, r);
    return;
  }
  if (set.value_count > 0) inst.estimate = set.value;
  advance_round(cid, inst);
}

void MrConsensus::on_round_message(Instance& inst, const Message& m) {
  if (m.kind == MsgKind::kCoordEst) {
    const detail::Payload estimate = detail::payload_of(m);
    auto [buffered, inserted] = inst.coord_ests.emplace(m.round);
    if (inserted) buffered.assign(estimate.begin(), estimate.end());
    if (inst.phase == Phase::kWaitCoord && m.round == inst.round) {
      send_aux(m.cid, inst, /*bottom=*/false, detail::payload_of(m));
    }
    return;
  }
  // AUX. Restored-round dedup: drop a REPLAYQ re-send racing the original.
  if (m.round == inst.replay_round && !inst.replay_seen.insert(m.from).second) return;
  inst.aux[m.round].add(m.ts != 0, detail::payload_of(m));
  if (m.round == inst.round) maybe_conclude(m.cid, inst);
}

void MrConsensus::resume_round(std::int32_t cid, Instance& inst,
                               const DurableLog::InstanceState& rec) {
  if (!rec.aux_sent) {
    inst.phase = Phase::kWaitCoord;
    return;
  }
  // Rebuild exactly our logged vote for the round: peers already counted
  // the broadcast, so only the local tally is restored; their votes come
  // back via REPLAYQ.
  inst.aux[inst.round].add(rec.aux_bottom, rec.aux_value);
  if (!rec.aux_bottom && coordinator_of(cid, inst, inst.round) == process().id()) {
    // We coordinate the restored round and voted our own estimate. Peers
    // whose copy of it died with the crash wait in kWaitCoord, and a static
    // detector never suspects us: re-broadcast it. Peers that already have
    // it drop the copy (coord_ests keeps the first, and they left
    // kWaitCoord when they voted).
    bcast(inst.epoch, make_message(MsgKind::kCoordEst, cid, inst.round, rec.aux_value));
    ++stats_.coord_broadcasts;
  }
  inst.phase = Phase::kWaitAux;
  maybe_conclude(cid, inst);  // n = 1 corner
}

void MrConsensus::answer_replay_query(Instance& inst, const Message& m) {
  // If we coordinated the querier's round, re-send the estimate broadcast it
  // missed while down (a querier parked in kWaitCoord can only resume on a
  // COORDEST or a suspicion). coord_ests buffering dedups on its side.
  const Message* sent = inst.sent_aux.find(m.round);
  if (sent == nullptr) return;
  if (coordinator_of(m.cid, inst, m.round) == process().id() && sent->ts == 0) {
    ucast(inst, make_message(MsgKind::kCoordEst, m.cid, m.round, detail::payload_of(*sent)),
          m.from);
    ++stats_.coord_broadcasts;
  }
  // Re-send our recorded AUX for the querier's round -- valid even after we
  // moved past it. The querier's tally restarted from just its own vote, so
  // each peer is counted exactly once.
  ucast(inst, *sent, m.from);
  ++stats_.aux_broadcasts;
}

}  // namespace sanperf::consensus
