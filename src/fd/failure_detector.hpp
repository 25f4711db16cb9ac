// The failure-detector interface consumed by the consensus layer, plus the
// static detector used for run classes 1 and 2 (Section 2.4): complete and
// accurate detectors whose output never changes during a run.
#pragma once

#include <algorithm>
#include <functional>
#include <set>
#include <span>
#include <vector>

#include "runtime/process.hpp"

namespace sanperf::fd {

using runtime::HostId;

/// Suspicion callback: (peer, now_suspected).
using SuspicionListener = std::function<void(HostId, bool)>;

class FailureDetector {
 public:
  virtual ~FailureDetector() = default;

  [[nodiscard]] virtual bool is_suspected(HostId peer) const = 0;

  /// Registers an additional listener; all registered listeners fire on
  /// every suspicion change.
  virtual void add_listener(SuspicionListener listener) = 0;
};

/// A detector with a fixed suspicion set. With an empty set it models the
/// accurate detectors of class 1; with the crashed process in the set it
/// models the complete-and-accurate detectors of class 2.
class StaticFd : public runtime::Layer, public FailureDetector {
 public:
  explicit StaticFd(const std::set<HostId>& suspected = {})
      : suspected_(suspected.begin(), suspected.end()) {}

  [[nodiscard]] bool is_suspected(HostId peer) const override {
    return std::find(suspected_.begin(), suspected_.end(), peer) != suspected_.end();
  }
  void add_listener(SuspicionListener) override {}  // output never changes
  void on_message(const runtime::Message&) override {}
  /// The suspicion set is configuration, not run state: reset keeps it.
  void on_reset() override {}

  /// Replaces the suspicion set between runs (e.g. after Cluster::reset);
  /// reuses the storage.
  void set_suspected(std::span<const HostId> suspected) {
    suspected_.assign(suspected.begin(), suspected.end());
  }

 private:
  std::vector<HostId> suspected_;  // a handful of hosts at most: scanned
};

}  // namespace sanperf::fd
