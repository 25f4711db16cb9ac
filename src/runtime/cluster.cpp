#include "runtime/cluster.hpp"

#include <stdexcept>

namespace sanperf::runtime {

Cluster::Cluster(const ClusterConfig& cfg)
    : cfg_{cfg},
      sim_{cfg.queue_backend},
      master_{cfg.seed},
      net_{sim_, master_.substream("net"), cfg.network, cfg.n, cfg.topology.get()} {
  if (cfg.n < 2) throw std::invalid_argument{"Cluster: need at least 2 processes"};
  processes_.reserve(cfg.n);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    processes_.push_back(std::make_unique<Process>(static_cast<HostId>(i), cfg.n, sim_, net_,
                                                   master_.substream("proc", i), cfg.timers));
  }
  net_.set_deliver([this](const net::Packet& pkt) {
    const auto& msg = pkt.body->get<Message>();
    processes_[pkt.dst]->deliver(msg);
  });
}

void Cluster::crash_initially(HostId id) { processes_.at(id)->crash(); }

void Cluster::crash_at(HostId id, des::TimePoint at) {
  sim_.schedule_at(at, [this, id] { processes_.at(id)->crash(); });
}

void Cluster::recover_at(HostId id, des::TimePoint at) {
  sim_.schedule_at(at, [this, id] { processes_.at(id)->restart(); });
}

void Cluster::reset(std::uint64_t seed, int crashed) {
  sim_.reset();  // first: pending events hold frames and process pointers
  cfg_.seed = seed;
  master_ = des::RandomEngine{seed};
  net_.reset(master_.substream("net"));
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    processes_[i]->reset(master_.substream("proc", i));
  }
  started_ = false;
  if (crashed >= 0) crash_initially(static_cast<HostId>(crashed));
}

void Cluster::start_processes() {
  if (started_) return;
  started_ = true;
  for (auto& p : processes_) p->start();
}

void Cluster::run_until(des::TimePoint deadline) {
  start_processes();
  sim_.run_until(deadline);
  SANPERF_AUDIT_ONLY(net_.audit_check_frame_conservation(sim_.queue_empty());)
}

void Cluster::run_until(const std::function<bool()>& stop, des::TimePoint deadline) {
  start_processes();
  while (!stop() && !sim_.queue_empty() && sim_.now() <= deadline) {
    sim_.step();
  }
  SANPERF_AUDIT_ONLY(net_.audit_check_frame_conservation(sim_.queue_empty());)
}

des::RandomEngine Cluster::rng_stream(std::string_view label, std::uint64_t index) const {
  return master_.substream(label, index);
}

}  // namespace sanperf::runtime
