// The emulated cluster: a simulator, a contention network and n processes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "des/random.hpp"
#include "des/simulator.hpp"
#include "net/network.hpp"
#include "runtime/process.hpp"
#include "topo/topology.hpp"

namespace sanperf::runtime {

struct ClusterConfig {
  std::size_t n = 3;
  net::NetworkParams network = net::NetworkParams::defaults();
  net::TimerModel timers = net::TimerModel::defaults();
  /// Optional network topology (shared so config copies stay cheap). Null
  /// or single-rack = the paper's shared hub, bit-exact with every
  /// existing golden; multi-rack switches the network to routed delivery
  /// and scopes domain fault events (see faults::lower_plan).
  std::shared_ptr<const topo::Topology> topology;
  /// Pending-set backend for the simulator. Both backends pop the same
  /// event order, so this is a pure performance knob (ladder wins on large
  /// clusters; see README "Scaling a single run").
  des::QueueBackend queue_backend = des::default_queue_backend();
  std::uint64_t seed = 1;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& cfg);

  [[nodiscard]] std::size_t n() const { return processes_.size(); }
  [[nodiscard]] Process& process(HostId id) { return *processes_.at(id); }
  [[nodiscard]] const Process& process(HostId id) const { return *processes_.at(id); }
  [[nodiscard]] des::Simulator& sim() { return sim_; }
  [[nodiscard]] const des::Simulator& sim() const { return sim_; }
  [[nodiscard]] net::ContentionNetwork& network() { return net_; }
  [[nodiscard]] const net::ContentionNetwork& network() const { return net_; }
  [[nodiscard]] des::TimePoint now() const { return sim_.now(); }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

  /// Crashes a process before the simulation starts.
  void crash_initially(HostId id);
  /// Schedules a crash at an absolute simulated time.
  void crash_at(HostId id, des::TimePoint at);
  /// Schedules a warm restart of a crashed process (see Process::restart).
  void recover_at(HostId id, des::TimePoint at);

  /// Returns the cluster to the state a Cluster built with `seed` and the
  /// same configuration has once its layers are added: pending events
  /// dropped, clock at the origin, network and processes reset (RNG
  /// substreams re-derived from `seed`), every layer's on_reset run, and
  /// host `crashed` crashed as by crash_initially (-1: none). Capacity is
  /// kept, so a reset cluster runs again without allocating up to its
  /// earlier high-water marks. Every layer must support on_reset.
  void reset(std::uint64_t seed, int crashed = -1);

  /// Calls every process's on_start layers (idempotent) and runs events
  /// until `deadline`, the given predicate, or queue exhaustion.
  void run_until(des::TimePoint deadline);
  void run_until(const std::function<bool()>& stop, des::TimePoint deadline);

  /// Derives a fresh RNG substream tied to this cluster's seed.
  [[nodiscard]] des::RandomEngine rng_stream(std::string_view label, std::uint64_t index = 0) const;

 private:
  void start_processes();

  ClusterConfig cfg_;
  des::Simulator sim_;
  des::RandomEngine master_;
  net::ContentionNetwork net_;
  std::vector<std::unique_ptr<Process>> processes_;
  bool started_ = false;
};

}  // namespace sanperf::runtime
