// Fault-injected measurement campaigns: the class-1/2 isolated-execution
// harness and the class-3 long-run harness, each driving a FaultPlan
// through a FaultInjector. Both mirror the plain harnesses exactly -- same
// cluster seeding, same RNG streams, same folds -- so a degenerate plan
// (one crash at t = 0) reproduces the paper's Table 1 crash runs bit for
// bit, and every fault scenario stays thread-count-invariant.
#pragma once

#include <cstdint>
#include <vector>

#include "consensus/sequencer.hpp"
#include "core/extensions.hpp"
#include "core/measurement.hpp"
#include "faults/plan.hpp"
#include "fd/qos.hpp"
#include "net/params.hpp"

namespace sanperf::faults {

/// One isolated consensus execution under `plan` (the flat sharding unit
/// of the fault campaigns; seeds come from SeedSplitter{seed, "exec"}).
/// Hosts the plan crashes at or before t = 0 are pre-suspected by the
/// static failure detector, exactly as in the paper's class-2 runs.
/// `scratch` as for core::run_latency_execution.
[[nodiscard]] core::ExecOutcome run_fault_execution(core::Algorithm algorithm, std::size_t n,
                                                    const net::NetworkParams& params,
                                                    const net::TimerModel& timers,
                                                    const FaultPlan& plan, std::size_t k,
                                                    std::uint64_t exec_seed,
                                                    core::WorkerScratch* scratch = nullptr);

/// Like core::measure_latency, but under a fault plan and with a
/// selectable algorithm.
[[nodiscard]] core::MeasuredLatency measure_fault_latency(
    core::Algorithm algorithm, std::size_t n, const net::NetworkParams& params,
    const net::TimerModel& timers, const FaultPlan& plan, std::size_t executions,
    std::uint64_t seed, const core::ReplicationRunner& runner = core::default_runner());

/// One fault-injected class-3 run: live heartbeat detection (timeout T,
/// Th = 0.7 T), `executions` sequenced consensus executions, and `plan`
/// replayed on the cluster. Unlike core::measure_class3_run it keeps the
/// per-execution results, so folds can bucket executions against the
/// plan's fault windows (before / during / after).
struct FaultClass3Run {
  std::vector<consensus::ExecutionResult> executions;
  fd::QosEstimate qos;
  double experiment_ms = 0;
};

[[nodiscard]] FaultClass3Run run_fault_class3(std::size_t n, const net::NetworkParams& params,
                                              const net::TimerModel& timers, double timeout_ms,
                                              std::size_t executions, const FaultPlan& plan,
                                              std::uint64_t seed);

/// Buckets executions against a fault window [start_ms, end_ms): "after"
/// starts at or past the window's end, "during" overlaps it (started
/// inside it, still in flight when it opened, or undecided before its
/// end), "before" decided strictly earlier. This is the before / during /
/// after split the recovery scenarios report.
struct PhasedLatency {
  core::MeasuredLatency before, during, after;

  void merge(const PhasedLatency& other) {
    before.merge(other.before);
    during.merge(other.during);
    after.merge(other.after);
  }
};

[[nodiscard]] PhasedLatency split_by_window(const std::vector<consensus::ExecutionResult>& execs,
                                            double start_ms, double end_ms);

}  // namespace sanperf::faults
