// What one replication worker keeps between the tasks it runs.
//
// Campaign tasks are pure in (group seed, index). The state a task runs on,
// though -- a one-shot cluster, a SAN simulator -- is the same for every
// task of a group, so ReplicationRunner::map and run_flat give each worker
// one WorkerScratch and tasks reset what it holds instead of building it.
// A reset rig or simulator behaves exactly like a freshly built one, so the
// scratch changes what a task costs, never what it returns.
#pragma once

#include <memory>

namespace sanperf::san {
class SanSimulator;
class TransientStudy;
}  // namespace sanperf::san

namespace sanperf::core {

class OneShotRig;
struct OneShotShape;

class WorkerScratch {
 public:
  WorkerScratch();
  ~WorkerScratch();

  /// The worker's one-shot rig for `shape` (core/one_shot.hpp). A rig of
  /// another shape is destroyed before the new one is built, so a worker
  /// holds at most one.
  [[nodiscard]] OneShotRig& one_shot_rig(const OneShotShape& shape);

  /// The worker's simulator for `study`, for TransientStudy::run_one to
  /// reuse. Like the rig, one is kept: a simulator of another study is
  /// replaced by study.make_simulator(). Campaign workers move through the
  /// groups in order, so that happens about once per study.
  [[nodiscard]] san::SanSimulator& san_simulator(const san::TransientStudy& study);

 private:
  std::unique_ptr<OneShotRig> rig_;
  const san::TransientStudy* san_study_ = nullptr;  ///< what san_ was made by
  std::unique_ptr<san::SanSimulator> san_;
};

}  // namespace sanperf::core
