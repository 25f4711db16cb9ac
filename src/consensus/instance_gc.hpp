// Garbage collection of decided consensus instances.
//
// A consensus layer multiplexes many instances (keyed by cid) over one
// process; a steady-state workload streams thousands of them through a
// persistent cluster, so retaining every decided instance's round state
// would grow memory linearly with stream length. InstanceGc remembers
// *that* a collected instance decided in O(reordering window) space: a
// watermark covers the decided prefix (streams issue cids in order, so the
// prefix advances steadily) and a small set holds decided cids above it.
//
// Collection is deferred: decide() runs deep inside message handlers that
// hold references into the instance map, so the layer only *marks* an
// instance ready and sweeps at its public entry points (propose,
// on_message), where no instance reference is live.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/audit.hpp"

namespace sanperf::consensus::detail {

class InstanceGc {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// True when `cid` decided and its state has been discarded.
  [[nodiscard]] bool collected(std::int32_t cid) const {
    return enabled_ && (cid < floor_ || out_of_order_.count(cid) > 0);
  }

  /// Marks a terminal (decided, decide-broadcast handled) instance for the
  /// next sweep. Safe to call from any depth.
  void mark(std::int32_t cid) {
    if (enabled_) ready_.push_back(cid);
  }

  /// Discards every marked instance from `instances` and records it as
  /// collected. Call only from entry points where no Instance& is live.
  template <typename Map>
  void sweep(Map& instances) {
#if SANPERF_AUDIT_ENABLED
    // The watermark is a promise ("everything below decided or was written
    // off"); moving it backwards would resurrect collected instances as
    // undecided. Checked at every sweep against its own high-water mark.
    SANPERF_AUDIT_CHECK("consensus.gc_watermark_monotonic", floor_ >= audit_floor_seen_,
                        "floor moved back to " + std::to_string(floor_) + " from " +
                            std::to_string(audit_floor_seen_));
    if (floor_ > audit_floor_seen_) audit_floor_seen_ = floor_;
#endif
    if (!enabled_ || ready_.empty()) return;
    for (const std::int32_t cid : ready_) {
      // Note the decision even when the state is already gone (a warm
      // restart cleared the map between mark and sweep): the watermark
      // must still advance past it.
      if (instances.erase(cid) > 0) ++collected_;
      note_decided(cid);
    }
    ready_.clear();
    // A gap write-off may have advanced the watermark past live
    // never-decided entries; their state is unreachable now (every entry
    // point short-circuits on collected()), so drop it.
    instances.erase(instances.begin(), instances.lower_bound(floor_));
    // Record the post-advance watermark too, or a rewind between two
    // sweeps would hide below the previous entry's stale high-water mark.
    SANPERF_AUDIT_ONLY(if (floor_ > audit_floor_seen_) audit_floor_seen_ = floor_;)
  }

  /// Forgets every collection (watermark back to 0); `enabled` stays.
  void reset() {
    floor_ = 0;
    out_of_order_.clear();
    ready_.clear();
    collected_ = 0;
    SANPERF_AUDIT_ONLY(audit_floor_seen_ = 0;)
  }

  /// Lifetime count of collected instances.
  [[nodiscard]] std::uint64_t collected_count() const { return collected_; }
  /// Decided cids currently held above the watermark (the reordering
  /// window); bounded by decision skew, not stream length.
  [[nodiscard]] std::size_t out_of_order_size() const { return out_of_order_.size(); }
  [[nodiscard]] std::int32_t floor() const { return floor_; }

  /// Out-of-order decisions retained above the watermark before the gap
  /// below them is written off. A process that misses decisions outright
  /// (it was crashed while the cluster decided them) would otherwise pin
  /// the watermark forever and grow the set with the stream. An instance
  /// this far behind the decision frontier is long past every give-up
  /// deadline, so the gap cids are treated as collected -- including, as
  /// the give-up semantics, any that never decided here: they then report
  /// has_decided() and stop participating.
  static constexpr std::size_t kMaxOutOfOrder = 256;

#if SANPERF_AUDIT_ENABLED
  /// Test-only corruption backdoor: rewinds the watermark without touching
  /// the audit high-water mark, so the next sweep trips the monotonicity
  /// check.
  void audit_corrupt_floor(std::int32_t floor) { floor_ = floor; }
#endif

 private:
  void note_decided(std::int32_t cid) {
    if (cid < floor_) return;
    if (cid == floor_) {
      ++floor_;
      absorb_contiguous();
      return;
    }
    out_of_order_.insert(cid);
    while (out_of_order_.size() > kMaxOutOfOrder) {
      floor_ = *out_of_order_.begin();  // write off the gap below the oldest
      absorb_contiguous();
    }
  }

  void absorb_contiguous() {
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end() && *it == floor_) {
      it = out_of_order_.erase(it);
      ++floor_;
    }
  }

  bool enabled_ = false;
  std::int32_t floor_ = 0;               ///< every cid below it is collected
  std::set<std::int32_t> out_of_order_;  ///< collected cids >= floor_
  std::vector<std::int32_t> ready_;      ///< decided, awaiting the next sweep
  std::uint64_t collected_ = 0;
#if SANPERF_AUDIT_ENABLED
  std::int32_t audit_floor_seen_ = 0;  ///< high-water mark of floor_ at sweeps
#endif
};

}  // namespace sanperf::consensus::detail
