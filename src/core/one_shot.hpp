// One isolated consensus execution on the emulated cluster: the single
// harness behind the class-1/2 measurement campaign (Chandra-Toueg), the
// algorithm comparison (Mostefaoui-Raynal) and the fault-injected
// campaigns, so the skew model, proposal schedule, decision capture and
// deadline cannot diverge between them.
//
// Every execution runs on a OneShotRig: a cluster built once for a shape
// (algorithm, n, network, timers, topology) with a static failure detector
// under the consensus layer on every process. OneShotRig::run resets the
// rig (runtime::Cluster::reset) and then runs one execution, so an
// execution is a function of (crash, instance id, seed, plan) alone and a
// reused rig returns exactly what a new one does. Campaign workers keep
// their rig in a WorkerScratch and pay a reset per execution, not a build;
// a caller without scratch builds a rig and uses it once.
//
// With `plan == nullptr` the draws are those of the historic plain
// harness; a degenerate crash-at-0 plan is bit-identical to the
// crash_initially path (tests/faults_test.cpp enforces both).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.hpp"       // Algorithm
#include "core/measurement.hpp"  // ExecOutcome
#include "faults/plan.hpp"
#include "fd/failure_detector.hpp"
#include "net/params.hpp"
#include "runtime/cluster.hpp"
#include "topo/topology.hpp"

namespace sanperf::consensus {
struct DecisionEvent;
}  // namespace sanperf::consensus

namespace sanperf::core {

class WorkerScratch;

/// What a one-shot rig is built for. Executions that differ only in the
/// crashed host, instance id, seed or fault plan run on the same rig.
struct OneShotShape {
  Algorithm algorithm = Algorithm::kChandraToueg;
  std::size_t n = 3;
  net::NetworkParams network = net::NetworkParams::defaults();
  net::TimerModel timers = net::TimerModel::defaults();
  /// Null or single-rack = the paper's shared hub. Compared by identity.
  std::shared_ptr<const topo::Topology> topology;

  [[nodiscard]] bool operator==(const OneShotShape& other) const {
    return algorithm == other.algorithm && n == other.n && network == other.network &&
           timers == other.timers && topology == other.topology;
  }
};

class OneShotRig {
 public:
  [[nodiscard]] static std::unique_ptr<OneShotRig> build(const OneShotShape& shape);
  virtual ~OneShotRig();

  OneShotRig(const OneShotRig&) = delete;
  OneShotRig& operator=(const OneShotRig&) = delete;

  [[nodiscard]] const OneShotShape& shape() const { return shape_; }

  /// Resets the cluster to seed `exec_seed` and runs instance `k`: every
  /// correct process proposes at 1 ms (plus its NTP skew), the run stops at
  /// the first decision or 1 s later. `initially_crashed` is a host id or
  /// -1; `plan`, when given, is replayed on the cluster and must outlive
  /// the call.
  ExecOutcome run(int initially_crashed, std::size_t k, std::uint64_t exec_seed,
                  const faults::FaultPlan* plan = nullptr);

  /// The cluster as the last run left it (event and frame counts).
  [[nodiscard]] const runtime::Cluster& cluster() const { return cluster_; }

 protected:
  explicit OneShotRig(const OneShotShape& shape);

  /// Host `pid`'s consensus layer proposes `value` for instance `cid`.
  virtual void propose(runtime::HostId pid, std::int32_t cid, std::int64_t value) = 0;
  /// The decide callback every consensus layer of the rig reports to.
  void note_decision(const consensus::DecisionEvent& ev);

  runtime::Cluster cluster_;
  std::vector<fd::StaticFd*> detectors_;  ///< per host, below the consensus layer

 private:
  OneShotShape shape_;
  std::vector<runtime::HostId> suspected_;  ///< the detectors' set for this run
  std::optional<des::TimePoint> first_decide_;
  std::int32_t first_rounds_ = 0;
};

namespace detail {

/// The one-shot path of every caller: run on the worker's rig when
/// `scratch` is given (re-shaped first if needed), else on a rig built for
/// this call.
[[nodiscard]] ExecOutcome run_one_consensus_execution(const OneShotShape& shape,
                                                      int initially_crashed, std::size_t k,
                                                      std::uint64_t exec_seed,
                                                      const faults::FaultPlan* plan,
                                                      WorkerScratch* scratch);

}  // namespace detail

}  // namespace sanperf::core
