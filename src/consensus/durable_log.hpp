// A stable-storage write-ahead log for consensus state.
//
// The paper's crash model is warm restart with volatile-state loss: a
// rebooted process forgets every in-flight instance. DurableLog is the
// production-shaped alternative -- CT and MR write their per-instance
// estimate/round/decision records through it before any externally visible
// step (the write-ahead rule: log happens-before send), and on_restart
// replays the log so the process re-enters the rounds it was in.
//
// The model is fsync-free in-DES: no bytes hit a disk, but every append is
// charged `append_latency_ms` of *simulated* time on a serialized device
// tail (appends queue behind each other like writes on one log device), so
// durability has a measurable cost in the scenarios. With the latency at 0
// -- or the log disabled -- appends complete inline and never touch the
// event queue or an RNG, so the degenerate configuration is bit-exact with
// the volatile engine (crashes aside).
//
// Compaction follows the layer's InstanceGc watermark: everything below the
// GC floor is folded into a snapshot counter and truncated, bit-exactly
// (replay after compaction reproduces exactly the live suffix), so the log
// stays O(in-flight window) like the instance map.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/audit.hpp"

namespace sanperf::consensus {

struct DurableLogConfig {
  bool enabled = false;
  /// Simulated stable-storage latency charged per append (serialized on
  /// the device: concurrent appends queue). 0 = durable state with a free
  /// write path (useful to isolate replay semantics from timing).
  double append_latency_ms = 0.0;
};

class DurableLog {
 public:
  /// The replayable state of one instance: the last write wins per field
  /// group, which is exactly what an append-only record stream folds to.
  struct InstanceState {
    bool started = false;            ///< this process proposed
    bool decided = false;
    std::vector<std::int64_t> estimate;
    std::int32_t ts = 0;             ///< estimate timestamp (CT) / 0 (MR)
    std::int32_t round = 0;          ///< highest round entered when logged
    std::vector<std::int64_t> decision;
    std::int32_t decision_round = 0;
    std::uint32_t epoch = 0;         ///< membership epoch of the instance
    /// MR-only: whether (and with what) this process voted AUX in `round`.
    /// Replay must rebuild the exact local vote -- re-sending it instead
    /// would double-count in the peers' tallies, and inventing it could
    /// flip bottom/value.
    bool aux_sent = false;
    bool aux_bottom = false;
    std::vector<std::int64_t> aux_value;
  };

  struct Stats {
    std::uint64_t appends = 0;        ///< records written (lifetime)
    std::uint64_t compactions = 0;    ///< snapshot+truncate passes that freed records
    std::uint64_t truncated = 0;      ///< instance records folded into the snapshot
    std::uint64_t replayed = 0;       ///< instances rebuilt across restarts
  };

  DurableLog() = default;

  void configure(const DurableLogConfig& cfg) { cfg_ = cfg; }
  [[nodiscard]] bool enabled() const { return cfg_.enabled; }

  /// Charges one append at `now_ms` on the serialized device tail and
  /// returns the completion delay (0 when the latency is 0). Call only when
  /// enabled.
  double charge_ms(double now_ms) {
    ++stats_.appends;
    if (!(cfg_.append_latency_ms > 0)) return 0.0;
    tail_ms_ = std::max(now_ms, tail_ms_) + cfg_.append_latency_ms;
    return tail_ms_ - now_ms;
  }

  /// The mutable record of `cid`, created on first write. The caller owns
  /// what to store; the log only folds appends into last-write-wins state.
  InstanceState& state(std::int32_t cid) { return states_[cid]; }

  [[nodiscard]] const std::map<std::int32_t, InstanceState>& entries() const { return states_; }

  /// Snapshot + truncate everything below the GC watermark: those instances
  /// decided everywhere (or were written off past every give-up deadline),
  /// so replay must not resurrect them. Bit-exact: the surviving suffix is
  /// untouched.
  void compact(std::int32_t floor) {
#if SANPERF_AUDIT_ENABLED
    // Compaction follows the GC watermark, which only advances; truncating
    // to a lower floor would mean records already folded into the snapshot
    // could be asked for again.
    SANPERF_AUDIT_CHECK("consensus.gc_watermark_monotonic", floor >= audit_compact_floor_,
                        "log compacted to floor " + std::to_string(floor) + " below " +
                            std::to_string(audit_compact_floor_));
    if (floor > audit_compact_floor_) audit_compact_floor_ = floor;
#endif
    const auto end = states_.lower_bound(floor);
    if (end == states_.begin()) return;
    stats_.truncated +=
        static_cast<std::uint64_t>(std::distance(states_.begin(), end));
    states_.erase(states_.begin(), end);
    ++stats_.compactions;
  }

  void note_replayed(std::uint64_t instances) { stats_.replayed += instances; }

  /// Empties the log and zeroes its statistics; the configuration stays.
  void reset() {
    states_.clear();
    tail_ms_ = 0.0;
    stats_ = {};
    SANPERF_AUDIT_ONLY(audit_compact_floor_ = 0;)
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  DurableLogConfig cfg_;
  std::map<std::int32_t, InstanceState> states_;
  double tail_ms_ = 0.0;  ///< completion time of the last append (device tail)
  Stats stats_;
#if SANPERF_AUDIT_ENABLED
  std::int32_t audit_compact_floor_ = 0;  ///< highest floor ever compacted to
#endif
};

}  // namespace sanperf::consensus
