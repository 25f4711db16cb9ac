#include "san/study.hpp"

#include <utility>

namespace sanperf::san {

TransientStudy::Reward TransientStudy::time_to_stop_ms() {
  return [](const SanSimulator& sim, const RunResult& r) {
    (void)sim;
    return r.end_time.to_ms();
  };
}

TransientStudy::TransientStudy(const SanModel& model, std::function<bool(const Marking&)> stop,
                               Reward reward)
    : model_{&model}, stop_{std::move(stop)}, reward_{std::move(reward)} {
  // Warm the model's lazily-built caches (validation, dependents) while we
  // are still single-threaded, so concurrent run_one calls only read.
  model.prepare();
}

std::optional<double> TransientStudy::run_one(des::RandomEngine rng) const {
  SanSimulator sim = make_simulator();
  return run_one(rng, sim);
}

SanSimulator TransientStudy::make_simulator() const {
  SanSimulator sim{*model_, des::RandomEngine{0}};
  sim.set_stop_predicate(stop_);
  return sim;
}

std::optional<double> TransientStudy::run_one(des::RandomEngine rng, SanSimulator& sim) const {
  sim.reset(rng);
  const RunResult res = sim.run(time_limit_);
  if (res.reason != StopReason::kPredicate && !keep_incomplete_) return std::nullopt;
  return reward_(sim, res);
}

StudyResult TransientStudy::run(std::size_t replications, std::uint64_t seed,
                                double confidence) const {
  const des::RandomEngine master{seed};
  StudyResult out;
  out.rewards.reserve(replications);
  for (std::size_t r = 0; r < replications; ++r) {
    const auto reward = run_one(master.substream("rep", r));
    if (!reward) {
      ++out.dropped;
      continue;
    }
    out.rewards.push_back(*reward);
    out.summary.add(*reward);
  }
  out.ci = out.summary.mean_ci(confidence);
  return out;
}

}  // namespace sanperf::san
