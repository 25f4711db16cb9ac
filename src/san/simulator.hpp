// Discrete-event execution of a SAN model.
//
// Semantics:
//   * instantaneous activities fire before any timed one, chosen among the
//     enabled set by weight;
//   * a timed activity samples its firing delay when it becomes enabled
//     ("race" execution policy); if it is disabled before firing, the
//     activation is aborted; when re-enabled it samples afresh, and an
//     activity that fires and stays enabled also samples afresh;
//   * after each firing only the activities whose inputs touch a changed
//     place are re-evaluated (sensitivity lists from SanModel::dependents),
//     in ascending activity id.
//
// Draw order is part of the contract. For a given seed the simulator makes
// the same RNG draws in the same order as a stepper that re-evaluates every
// activity in ascending id after each firing and scans every activity for
// enabled instantaneous ones: delays of newly enabled timed activities in
// ascending id, then the case choice and the instantaneous choice over the
// enabled candidates in ascending id. Every SAN result (and the goldens
// built on them) depends on that order.
//
// Incremental state, so a firing costs what it touches rather than what
// the model holds:
//   * enabled_[a] caches SanModel::enabled(a, marking) for every activity;
//     it changes only in refresh_activity, the forced clear of the fired
//     activity in fire(), and reset();
//   * inst_enabled_ is a bitset over activity ids holding exactly the
//     enabled instantaneous activities, updated wherever enabled_ changes;
//     pick_instantaneous walks its set bits;
//   * mirror_ equals the marking between firings (synced by reset()). A
//     firing compares the marking against it to find the changed places:
//     an activity that runs no gate function (no input gate with a `fire`,
//     no output gate on the chosen case) can only change its input places
//     and the chosen case's output places, so only those are compared; a
//     gate function may write any place, so then the whole marking is.
//     Net-zero changes (in(p).out(p)) are not changes. The dependents of
//     the changed places go into the affected_ bitset, which yields them
//     deduplicated and in ascending id without sorting;
//   * every enabled timed activity has exactly one live event in queue_.
// Audit builds (SANPERF_AUDIT) check all four after every firing
// ("san.incremental_state").
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/audit.hpp"
#include "des/event_queue.hpp"
#include "des/random.hpp"
#include "san/model.hpp"

namespace sanperf::san {

enum class StopReason {
  kPredicate,  ///< the stop predicate became true
  kDeadlock,   ///< no activity enabled
  kTimeLimit,  ///< simulated time exceeded the limit
};

struct RunResult {
  StopReason reason = StopReason::kDeadlock;
  des::TimePoint end_time;
  std::uint64_t firings = 0;
};

class SanSimulator {
 public:
  /// The model must outlive the simulator and must already validate().
  SanSimulator(const SanModel& model, des::RandomEngine rng);

  /// Optional predicate: the run stops as soon as it holds (checked after
  /// every firing and before the first one).
  void set_stop_predicate(std::function<bool(const Marking&)> pred) {
    stop_pred_ = std::move(pred);
  }

  /// Optional per-firing hook (tracing, reward collection).
  void set_fire_hook(std::function<void(ActivityId, des::TimePoint)> hook) {
    fire_hook_ = std::move(hook);
  }

  /// Registers a rate reward: the time integral of `rate(marking)` over the
  /// run, accumulated across marking changes (UltraSAN's rate rewards).
  /// Returns an index for rate_reward(). Must be called before run().
  using RateFn = std::function<double(const Marking&)>;
  std::size_t add_rate_reward(RateFn rate);

  /// Accumulated integral of reward `index` up to now().
  [[nodiscard]] double rate_reward(std::size_t index) const;
  /// Time-average of reward `index` (integral / elapsed time); 0 at t = 0.
  [[nodiscard]] double rate_reward_average(std::size_t index) const;

  /// Runs from the initial marking until the stop predicate, deadlock or
  /// the time limit.
  RunResult run(des::Duration time_limit = des::Duration::max());

  /// Resets state so run() can be called again; `rng` reseeds the run.
  void reset(des::RandomEngine rng);

  [[nodiscard]] const Marking& marking() const { return marking_; }
  [[nodiscard]] des::TimePoint now() const { return now_; }
  [[nodiscard]] std::uint64_t fire_count(ActivityId a) const { return fire_counts_[a]; }
  [[nodiscard]] std::uint64_t total_firings() const { return total_firings_; }

  /// Safety valve: maximum consecutive zero-time firings before the run is
  /// declared livelocked (throws std::runtime_error).
  static constexpr std::uint64_t kMaxInstantaneousBurst = 1'000'000;

#if SANPERF_AUDIT_ENABLED
  /// Test-only corruption backdoor for the negative audit test: flips the
  /// cached enabled flag of `a` without touching the event queue or the
  /// instantaneous set.
  void audit_corrupt_enabled_flag(ActivityId a) { enabled_[a] ^= 1; }
#endif

 private:
  /// A set of activity ids stored as a bitset; visits run in ascending id.
  class ActivitySet {
   public:
    void reset(std::size_t activities) { words_.assign((activities + 63) / 64, 0); }
    void insert(ActivityId a) { words_[a / 64] |= bit(a); }
    void erase(ActivityId a) { words_[a / 64] &= ~bit(a); }
    [[nodiscard]] bool contains(ActivityId a) const { return (words_[a / 64] & bit(a)) != 0; }
    void clear() { std::fill(words_.begin(), words_.end(), 0); }
    /// Calls fn(a) for every member, in ascending order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
      for (std::size_t w = 0; w < words_.size(); ++w) {
        for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
          fn(static_cast<ActivityId>(w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
        }
      }
    }

   private:
    static std::uint64_t bit(ActivityId a) { return std::uint64_t{1} << (a % 64); }
    std::vector<std::uint64_t> words_;
  };

  /// Sets enabled_[a] and its side state: the instantaneous-set bit, or
  /// the timed activity's event (sampled on enabling, cancelled on
  /// disabling).
  void set_enabled(ActivityId a, bool en);
  void refresh_activity(ActivityId a);
  /// Syncs mirror_[p] with the marking; on a change, adds p's dependents
  /// to affected_.
  void note_if_changed(PlaceId p);
  /// Integrates rate rewards from the last accrual point to `to`.
  void accrue_rewards(des::TimePoint to);
  void fire(ActivityId a);
  /// Fires enabled instantaneous activities until none remains.
  void settle_instantaneous();
  [[nodiscard]] std::optional<ActivityId> pick_instantaneous();
#if SANPERF_AUDIT_ENABLED
  void audit_check_incremental_state() const;
#endif

  const SanModel* model_;
  des::RandomEngine rng_;
  Marking marking_;
  des::TimePoint now_;
  des::EventQueue queue_;

  std::vector<char> enabled_;                // per activity
  ActivitySet inst_enabled_;                 // enabled instantaneous activities
  std::vector<std::int32_t> mirror_;         // the marking as of the last firing
  std::vector<des::EventId> scheduled_;      // per timed activity; 0 when none
  std::vector<std::uint64_t> fire_counts_;
  std::uint64_t total_firings_ = 0;

  std::function<bool(const Marking&)> stop_pred_;
  std::function<void(ActivityId, des::TimePoint)> fire_hook_;

  struct RateReward {
    RateFn rate;
    double integral_ms = 0;  ///< integral of rate over simulated ms
  };
  std::vector<RateReward> rate_rewards_;
  des::TimePoint last_accrual_;

  // scratch buffers reused across firings (the firing loop allocates
  // nothing in steady state)
  ActivitySet affected_;                 // activities to refresh after a firing
  std::vector<ActivityId> inst_ids_;     // enabled instantaneous candidates
  std::vector<double> inst_weights_;
  std::vector<double> case_probs_;
};

}  // namespace sanperf::san
