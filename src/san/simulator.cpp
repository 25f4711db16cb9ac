#include "san/simulator.hpp"

#include <stdexcept>
#include <string>

namespace sanperf::san {

SanSimulator::SanSimulator(const SanModel& model, des::RandomEngine rng)
    : model_{&model}, rng_{rng} {
  model_->validate();
  reset(rng);
}

void SanSimulator::reset(des::RandomEngine rng) {
  rng_ = rng;
  marking_ = model_->initial_marking();
  mirror_ = marking_.raw();
  now_ = des::TimePoint::origin();
  queue_.clear();
  const std::size_t activities = model_->activity_count();
  enabled_.assign(activities, 0);
  inst_enabled_.reset(activities);
  affected_.reset(activities);
  scheduled_.assign(activities, des::kInvalidEventId);
  fire_counts_.assign(activities, 0);
  total_firings_ = 0;
  for (auto& r : rate_rewards_) r.integral_ms = 0;
  last_accrual_ = des::TimePoint::origin();
  // Ascending, as a full refresh would visit them, so the initial delay
  // draws come in activity-id order.
  for (const ActivityId a : model_->initially_enabled()) set_enabled(a, true);
}

std::size_t SanSimulator::add_rate_reward(RateFn rate) {
  if (!rate) throw std::invalid_argument{"add_rate_reward: null function"};
  rate_rewards_.push_back({std::move(rate), 0});
  return rate_rewards_.size() - 1;
}

double SanSimulator::rate_reward(std::size_t index) const {
  return rate_rewards_.at(index).integral_ms;
}

double SanSimulator::rate_reward_average(std::size_t index) const {
  const double elapsed = now_.to_ms();
  return elapsed > 0 ? rate_rewards_.at(index).integral_ms / elapsed : 0.0;
}

void SanSimulator::accrue_rewards(des::TimePoint to) {
  if (rate_rewards_.empty() || to <= last_accrual_) {
    last_accrual_ = to;
    return;
  }
  const double dt = (to - last_accrual_).to_ms();
  for (auto& r : rate_rewards_) r.integral_ms += r.rate(marking_) * dt;
  last_accrual_ = to;
}

void SanSimulator::set_enabled(ActivityId a, bool en) {
  enabled_[a] = en ? 1 : 0;
  const Activity& act = model_->activity(a);
  if (!act.timed) {
    if (en) {
      inst_enabled_.insert(a);
    } else {
      inst_enabled_.erase(a);
    }
  } else if (en) {
    const des::Duration delay = act.delay.sample(rng_);
    scheduled_[a] = queue_.push(now_ + delay, [this, a] { fire(a); });
  } else if (scheduled_[a] != des::kInvalidEventId) {
    queue_.cancel(scheduled_[a]);
    scheduled_[a] = des::kInvalidEventId;
  }
}

void SanSimulator::refresh_activity(ActivityId a) {
  const bool en = model_->enabled(a, marking_);
  if (en == static_cast<bool>(enabled_[a])) return;  // race policy: keep existing activation
  set_enabled(a, en);
}

void SanSimulator::note_if_changed(PlaceId p) {
  const std::int32_t now_tokens = marking_.get(p);
  if (mirror_[p] == now_tokens) return;
  mirror_[p] = now_tokens;
  for (const ActivityId x : model_->dependents(p)) affected_.insert(x);
}

void SanSimulator::fire(ActivityId a) {
  accrue_rewards(now_);  // integrate over the marking that held until now
  const Activity& act = model_->activity(a);

  // Consume input arcs.
  for (const PlaceId p : act.input_places) {
    if (marking_.get(p) <= 0) {
      throw std::logic_error{"SanSimulator: firing disabled activity " + act.name};
    }
    marking_.add(p, -1);
  }
  // Input gate functions.
  bool ran_gate_fn = false;
  for (const InputGateId g : act.input_gates) {
    if (model_->in_gate(g).fire) {
      model_->in_gate(g).fire(marking_);
      ran_gate_fn = true;
    }
  }
  // Case selection.
  const Case* chosen = &act.cases.front();
  if (act.cases.size() > 1) {
    case_probs_.clear();
    for (const Case& c : act.cases) case_probs_.push_back(c.probability);
    chosen = &act.cases[rng_.categorical(case_probs_)];
  }
  for (const PlaceId p : chosen->output_places) marking_.add(p, 1);
  for (const OutputGateId g : chosen->output_gates) model_->out_gate(g).fire(marking_);
  ran_gate_fn = ran_gate_fn || !chosen->output_gates.empty();

  ++fire_counts_[a];
  ++total_firings_;
  if (fire_hook_) fire_hook_(a, now_);

  // The fired activity's activation is spent: force re-evaluation.
  enabled_[a] = 0;
  if (act.timed) {
    scheduled_[a] = des::kInvalidEventId;
  } else {
    inst_enabled_.erase(a);
  }

  // Re-evaluate only activities sensitive to changed places (plus `a`).
  // Without gate functions only the arcs' places can have changed; a gate
  // function may write anywhere, so then the whole marking is compared.
  affected_.insert(a);
  if (ran_gate_fn) {
    for (PlaceId p = 0; p < mirror_.size(); ++p) note_if_changed(p);
  } else {
    for (const PlaceId p : act.input_places) note_if_changed(p);
    for (const PlaceId p : chosen->output_places) note_if_changed(p);
  }
  affected_.for_each([this](ActivityId x) { refresh_activity(x); });
  affected_.clear();
  SANPERF_AUDIT_ONLY(audit_check_incremental_state();)
}

std::optional<ActivityId> SanSimulator::pick_instantaneous() {
  inst_ids_.clear();
  inst_enabled_.for_each([this](ActivityId a) { inst_ids_.push_back(a); });
  if (inst_ids_.empty()) return std::nullopt;
  if (inst_ids_.size() == 1) return inst_ids_.front();
  inst_weights_.clear();
  for (const ActivityId a : inst_ids_) inst_weights_.push_back(model_->activity(a).weight);
  return inst_ids_[rng_.categorical(inst_weights_)];
}

#if SANPERF_AUDIT_ENABLED
void SanSimulator::audit_check_incremental_state() const {
  // One check per firing: find the first activity whose cached state
  // disagrees with a fresh evaluation (predicates are pure; no draws).
  std::string stale;
  for (ActivityId a = 0; a < model_->activity_count() && stale.empty(); ++a) {
    const bool en = enabled_[a] != 0;
    const Activity& act = model_->activity(a);
    const bool in_set = inst_enabled_.contains(a);
    if (en != model_->enabled(a, marking_)) {
      stale = "cached enabled flag of " + act.name + " is stale";
    } else if (in_set != (en && !act.timed)) {
      stale = "instantaneous set disagrees with the enabled flag of " + act.name;
    } else if (act.timed && en && !queue_.pending(scheduled_[a])) {
      stale = "enabled timed activity " + act.name + " has no live event";
    }
  }
  if (stale.empty() && mirror_ != marking_.raw()) stale = "marking mirror out of sync";
  SANPERF_AUDIT_CHECK("san.incremental_state", stale.empty(), stale);
}
#endif

void SanSimulator::settle_instantaneous() {
  std::uint64_t burst = 0;
  while (true) {
    if (stop_pred_ && stop_pred_(marking_)) return;
    const auto a = pick_instantaneous();
    if (!a) return;
    if (++burst > kMaxInstantaneousBurst) {
      throw std::runtime_error{"SanSimulator: instantaneous livelock at activity " +
                               model_->activity(*a).name};
    }
    fire(*a);
  }
}

RunResult SanSimulator::run(des::Duration time_limit) {
  const des::TimePoint deadline =
      time_limit == des::Duration::max() ? des::TimePoint::max()
                                         : des::TimePoint::origin() + time_limit;
  settle_instantaneous();
  while (true) {
    if (stop_pred_ && stop_pred_(marking_)) {
      return {StopReason::kPredicate, now_, total_firings_};
    }
    if (queue_.empty()) return {StopReason::kDeadlock, now_, total_firings_};
    if (queue_.next_time() > deadline) {
      now_ = deadline;
      accrue_rewards(now_);
      return {StopReason::kTimeLimit, now_, total_firings_};
    }
    auto ev = queue_.pop();
    now_ = ev.at;
    ev.action();  // fires the timed activity
    settle_instantaneous();
  }
}

}  // namespace sanperf::san
