#include "consensus/ct_consensus.hpp"

#include <utility>

#include "consensus/payload.hpp"

namespace sanperf::consensus {

template class InstanceStream<CtConsensus, detail::CtRound>;

void CtConsensus::advance_round(std::int32_t cid, Instance& inst) {
  ++inst.round;
  ++stats_.rounds_entered;
  const std::int32_t r = inst.round;
  record_state(cid, inst);  // round entry is replayable state
  const HostId coord = coordinator_of(cid, inst, r);

  if (coord == process().id()) {
    // Phase 2: collect a majority of estimates (including our own).
    record_estimate(cid, inst, r, inst.estimate, inst.ts);
    inst.phase = Phase::kCoordWaitEst;
    maybe_propose(cid, inst);
    return;
  }

  // Phase 1: send the estimate to the coordinator -- unconditionally, even
  // to a suspected one. This is load-bearing for liveness: because every
  // process always contributes its estimate, every round reaches a majority
  // of estimates and produces a proposal, so no process can wait forever in
  // phase 3 on a proposal that never comes.
  send_estimate(cid, inst, coord);

  if (fd_->is_suspected(coord)) {
    send_nack(cid, inst);  // phase 3, negative branch, taken immediately
    return;
  }

  // Phase 3: wait for the proposal -- unless it is already here (we were
  // slower than the coordinator).
  inst.phase = Phase::kWaitProp;
  if (const Message* buffered = inst.buffered_props.find(r)) {
    const Message prop = *buffered;
    inst.buffered_props.erase(r);
    handle_proposal(cid, inst, prop);
  }
}

void CtConsensus::send_estimate(std::int32_t cid, const Instance& inst, HostId to) {
  Message est = make_message(MsgKind::kEstimate, cid, inst.round, inst.estimate);
  est.ts = inst.ts;
  ucast(inst, std::move(est), to);
  ++stats_.estimates_sent;
}

void CtConsensus::record_estimate(std::int32_t cid, Instance& inst, std::int32_t round,
                                  detail::Payload value, std::int32_t ts) {
  inst.ests[round].add(value, ts);
  maybe_propose(cid, inst);
}

void CtConsensus::maybe_propose(std::int32_t cid, Instance& inst) {
  if (inst.phase != Phase::kCoordWaitEst) return;
  const std::int32_t r = inst.round;
  const detail::CtRound::EstimateSet* ests = inst.ests.find(r);
  if (ests == nullptr || ests->count < majority(inst)) return;

  // Phase 2: adopt the estimate with the largest timestamp and propose it.
  inst.estimate = ests->best_value;
  inst.ts = r;
  inst.phase = Phase::kCoordWaitReply;
  inst.acks[r] += 1;  // the coordinator's own (local) positive reply
  record_state(cid, inst);

  ++stats_.proposals_sent;
  Message prop = make_message(MsgKind::kPropose, cid, r, inst.estimate);
  // Write-ahead: the adoption record persists before the proposal leaves.
  // Deferred sends serialize on the log device tail, so later appends (a
  // decision, say) cannot overtake this broadcast.
  durable_apply([this, epoch = inst.epoch, prop = std::move(prop)]() mutable {
    bcast(epoch, std::move(prop));
  });

  maybe_conclude_round(cid, inst);  // n = 1-majority corner and stray nacks
}

void CtConsensus::handle_proposal(std::int32_t cid, Instance& inst, const Message& m) {
  // Phase 3, positive branch: adopt and ack, then move on immediately
  // (the decision, if any, arrives via the DECIDE broadcast). The ts guard
  // drops duplicate deliveries (a replay re-send racing the original):
  // adopting round r sets ts = r, and no synchronous path re-enters with
  // ts already at m.round.
  if (inst.ts == m.round) return;
  const detail::Payload proposal = detail::payload_of(m);
  inst.estimate.assign(proposal.begin(), proposal.end());
  inst.ts = m.round;
  record_state(cid, inst);
  Message ack = make_message(MsgKind::kAck, cid, m.round);
  ack.view_epoch = inst.epoch;
  const HostId coord = coordinator_of(cid, inst, m.round);
  ++stats_.acks_sent;
  // Write-ahead: the adopted estimate persists before the ack commits us.
  durable_apply([this, ack = std::move(ack), coord] { process().send(ack, coord); });
  advance_round(cid, inst);
}

void CtConsensus::send_nack(std::int32_t cid, Instance& inst) {
  // Phase 3, negative branch: the coordinator is suspected.
  ucast(inst, make_message(MsgKind::kNack, cid, inst.round),
        coordinator_of(cid, inst, inst.round));
  ++stats_.nacks_sent;
  advance_round(cid, inst);
}

void CtConsensus::maybe_conclude_round(std::int32_t cid, Instance& inst) {
  // Only phase 4 reacts here. The coordinator deliberately ignores nacks
  // while still collecting estimates: aborting before proposing would leave
  // the participants that did send estimates waiting for a proposal that
  // never comes (see advance_round on liveness).
  if (inst.phase != Phase::kCoordWaitReply) return;
  const std::int32_t r = inst.round;
  const std::int32_t* nacks = inst.nacks.find(r);
  if (nacks != nullptr && *nacks > 0) {
    // Phase 4, negative outcome: at least one nack -> next round.
    ++stats_.rounds_aborted;
    advance_round(cid, inst);
    return;
  }
  const std::int32_t* acks = inst.acks.find(r);
  if (acks != nullptr && *acks >= majority(inst)) {
    decide(cid, inst, inst.estimate, r);
  }
}

void CtConsensus::on_round_message(Instance& inst, const Message& m) {
  switch (m.kind) {
    case MsgKind::kEstimate:
      // Restored-round dedup: drop a REPLAYQ re-send racing the original.
      if (m.round == inst.replay_round && !inst.replay_seen.insert(m.from).second) break;
      record_estimate(m.cid, inst, m.round, detail::payload_of(m), m.ts);
      break;

    case MsgKind::kPropose:
      if (inst.phase == Phase::kWaitProp && m.round == inst.round) {
        handle_proposal(m.cid, inst, m);
      } else if (m.round > inst.round) {
        auto [slot, inserted] = inst.buffered_props.emplace(m.round);
        if (inserted) slot = m;
      }
      // proposals for past rounds are stale: we already acked or nacked
      break;

    case MsgKind::kAck:
      inst.acks[m.round] += 1;
      if (m.round == inst.round) maybe_conclude_round(m.cid, inst);
      break;

    case MsgKind::kNack:
      inst.nacks[m.round] += 1;
      if (m.round == inst.round) maybe_conclude_round(m.cid, inst);
      break;

    default:
      break;
  }
}

void CtConsensus::resume_round(std::int32_t cid, Instance& inst,
                               const DurableLog::InstanceState& rec) {
  // Re-enter the logged round *without* re-running round entry: the
  // round-r estimate left this host before the round was logged, so a
  // re-send would double-count in the coordinator's estimate tally.
  inst.ts = rec.ts;
  if (coordinator_of(cid, inst, inst.round) == process().id()) {
    inst.phase = Phase::kCoordWaitEst;
    // Our own contribution was volatile; peers re-send theirs on REPLAYQ.
    record_estimate(cid, inst, inst.round, inst.estimate, inst.ts);
  } else {
    inst.phase = Phase::kWaitProp;
  }
}

void CtConsensus::answer_replay_query(Instance& inst, const Message& m) {
  if (!inst.started || inst.round < 1) return;
  const std::int32_t r = inst.round;
  if (inst.phase == Phase::kWaitProp && coordinator_of(m.cid, inst, r) == m.from) {
    // The querier coordinates our current round: its estimate tally died
    // with it (replay rebuilds it holding only its own), so re-contribute
    // ours. No double count is possible -- the tally we refill is empty.
    send_estimate(m.cid, inst, m.from);
  } else if (inst.phase == Phase::kCoordWaitReply && r == m.round &&
             coordinator_of(m.cid, inst, r) == process().id()) {
    // We proposed in the round the querier re-entered and it missed the
    // broadcast while down: re-send the proposal to it alone. (Its ack, if
    // it ever acked r, moved it past r in the log -- no duplicate acks.)
    ucast(inst, make_message(MsgKind::kPropose, m.cid, r, inst.estimate), m.from);
    ++stats_.proposals_sent;
  }
}

}  // namespace sanperf::consensus
