// Transient simulation studies: replicated runs with confidence intervals.
//
// Mirrors UltraSAN's simulative transient solver: run the model R times
// with independent random streams, extract one reward per run, and report
// mean, confidence interval and the empirical distribution.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "san/simulator.hpp"
#include "stats/ecdf.hpp"
#include "stats/summary.hpp"

namespace sanperf::san {

struct StudyResult {
  std::vector<double> rewards;        ///< one value per replication
  stats::SummaryStats summary;
  stats::MeanCI ci;                   ///< at the requested confidence level
  std::uint64_t dropped = 0;          ///< replications that hit the time limit / deadlock

  [[nodiscard]] stats::Ecdf ecdf() const { return stats::Ecdf{rewards}; }
};

class TransientStudy {
 public:
  /// Reward extracted from a finished run (e.g. end time in ms).
  using Reward = std::function<double(const SanSimulator&, const RunResult&)>;

  /// The default reward: time to the stop predicate, in milliseconds.
  [[nodiscard]] static Reward time_to_stop_ms();

  TransientStudy(const SanModel& model, std::function<bool(const Marking&)> stop,
                 Reward reward = time_to_stop_ms());

  /// Keep or drop runs that end by deadlock/time limit rather than the stop
  /// predicate (default: drop and count them).
  void set_keep_incomplete(bool keep) { keep_incomplete_ = keep; }
  void set_time_limit(des::Duration limit) { time_limit_ = limit; }

  /// Runs `replications` independent replications derived from `seed`,
  /// sequentially. Replication r draws from substream ("rep", r) of the
  /// seed, the same streams core::run_study hands to its thread pool, so
  /// sequential and parallel campaigns agree bit for bit.
  [[nodiscard]] StudyResult run(std::size_t replications, std::uint64_t seed,
                                double confidence = 0.90) const;

  /// Runs one replication on its own simulator and returns its reward, or
  /// nullopt when the run ends without reaching the stop predicate and
  /// incompletes are dropped. Thread-safe provided the model is not mutated
  /// during the study: the constructor warms the model's caches
  /// (SanModel::prepare), after which concurrent calls only read shared
  /// state.
  [[nodiscard]] std::optional<double> run_one(des::RandomEngine rng) const;

  /// A simulator of this study's model with its stop predicate set, for
  /// the reusing run_one below.
  [[nodiscard]] SanSimulator make_simulator() const;

  /// run_one on `sim`, which must come from this study's make_simulator():
  /// SanSimulator::reset(rng) and run. The reward equals run_one(rng)'s,
  /// and in steady state the replication allocates nothing.
  [[nodiscard]] std::optional<double> run_one(des::RandomEngine rng, SanSimulator& sim) const;

 private:
  const SanModel* model_;
  std::function<bool(const Marking&)> stop_;
  Reward reward_;
  bool keep_incomplete_ = false;
  des::Duration time_limit_ = des::Duration::seconds(60);
};

}  // namespace sanperf::san
