#include "core/calibration.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/simulation.hpp"
#include "san/distribution.hpp"
#include "stats/ks.hpp"

namespace sanperf::core {

stats::BimodalUniform shift_fit(const stats::BimodalUniform& fit, double delta_ms) {
  auto clamp0 = [](double x) { return x < 0 ? 0.0 : x; };
  stats::BimodalUniform out = fit;
  out.a1 = clamp0(fit.a1 - delta_ms);
  out.b1 = clamp0(fit.b1 - delta_ms);
  out.a2 = clamp0(fit.a2 - delta_ms);
  out.b2 = clamp0(fit.b2 - delta_ms);
  if (out.b1 < out.a1 || out.b2 < out.a2) {
    throw std::invalid_argument{"shift_fit: shift collapses a component"};
  }
  return out;
}

sanmodels::TransportParams make_transport(const stats::BimodalUniform& unicast_e2e,
                                          const stats::BimodalUniform& broadcast_e2e,
                                          double t_send_ms) {
  sanmodels::TransportParams p;
  p.send_cpu = san::Distribution::deterministic_ms(t_send_ms);
  p.recv_cpu = san::Distribution::deterministic_ms(t_send_ms);  // t_send = t_receive
  p.frame_unicast = san::Distribution::from_fit(shift_fit(unicast_e2e, 2 * t_send_ms));
  p.frame_broadcast = san::Distribution::from_fit(shift_fit(broadcast_e2e, 2 * t_send_ms));
  return p;
}

TsendSweep sweep_tsend(const stats::Ecdf& measured_latency_n5,
                       const stats::BimodalUniform& unicast_e2e,
                       const stats::BimodalUniform& broadcast_e2e_n5,
                       const std::vector<double>& candidates_ms, std::size_t replications,
                       std::uint64_t seed, const ReplicationRunner& runner) {
  if (candidates_ms.empty()) throw std::invalid_argument{"sweep_tsend: no candidates"};
  // Flattened driver-level fan-out: one group per candidate, all sharing
  // the (seed, "rep") streams the nested simulate_class1 calls used, so
  // every (candidate, replication) task drains from one batch and the
  // per-candidate folds reproduce the sequential sweep bit for bit.
  ConsensusStudyBank bank;
  std::vector<const san::TransientStudy*> studies;
  ShardSpace space;
  for (const double t_send : candidates_ms) {
    sanmodels::ConsensusSanConfig cfg;
    cfg.n = 5;
    cfg.transport = make_transport(unicast_e2e, broadcast_e2e_n5, t_send);
    studies.push_back(bank.add(cfg));
    space.add_group(replications, seed, "rep");
  }
  const auto rewards =
      runner.run_flat(space, [&](const ShardSpace::Task& t, WorkerScratch& scratch) {
        const san::TransientStudy& study = *studies[t.group];
        return study.run_one(des::RandomEngine{t.seed}, scratch.san_simulator(study));
      });
  return fold_tsend_sweep(candidates_ms, rewards, measured_latency_n5);
}

TsendSweep fold_tsend_sweep(const std::vector<double>& candidates_ms,
                            const std::vector<std::vector<std::optional<double>>>& rewards,
                            const stats::Ecdf& measured_latency_n5) {
  if (rewards.size() != candidates_ms.size()) {
    throw std::invalid_argument{"fold_tsend_sweep: rewards/candidates size mismatch"};
  }
  TsendSweep sweep;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < candidates_ms.size(); ++k) {
    auto study = fold_study_rewards(rewards[k]);
    TsendCandidate cand;
    cand.t_send_ms = candidates_ms[k];
    cand.sim_mean_ms = study.summary.mean();
    cand.ks_distance = stats::ks_distance(study.ecdf(), measured_latency_n5);
    cand.sim_latencies_ms = std::move(study.rewards);
    if (cand.ks_distance < best) {
      best = cand.ks_distance;
      sweep.best_t_send_ms = cand.t_send_ms;
    }
    sweep.candidates.push_back(std::move(cand));
  }
  return sweep;
}

}  // namespace sanperf::core
