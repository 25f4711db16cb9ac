#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sanperf::net {

namespace {

/// Passes a per-frame closure through unchanged, and fails to compile if
/// EventAction would have to heap-allocate it (a capture too large or not
/// nothrow-movable, e.g. a `const FrameRef` member).
template <typename F>
F inline_action(F f) {
  static_assert(des::EventAction::fits_inline_v<F>, "closure would heap-allocate");
  return f;
}

/// Server queue depth whose storage is kept (see ChunkQueue): what one
/// consensus round puts in the queue, capped so that large clusters do not
/// pin storage for rare bursts.
std::size_t queue_keep(std::size_t depth) { return std::min<std::size_t>(depth, 32); }

}  // namespace

void FifoServer::submit(des::Duration service, des::EventAction on_done, std::size_t weight) {
  if (busy_) {
    waiting_.push_back(Job{service, std::move(on_done), weight});
  } else {
    start(service, std::move(on_done), weight);
  }
}

void FifoServer::start(des::Duration service, des::EventAction&& on_done, std::size_t weight) {
  busy_ = true;
  drop_current_ = false;
  current_done_ = std::move(on_done);
  current_weight_ = weight;
  service_start_ = sim_->now();
  sim_->schedule(service, [this] { complete(); });
}

void FifoServer::complete() {
  busy_time_ += sim_->now() - service_start_;
  ++served_;
  auto done = std::move(current_done_);
  const bool dropped = drop_current_;
  busy_ = false;
  drop_current_ = false;
  if (!waiting_.empty()) {
    Job& next = waiting_.front();
    start(next.service, std::move(next.on_done), next.weight);
    waiting_.pop_front();
  }
  if (!dropped && done) done();
}

std::size_t FifoServer::drain(bool drop_in_service) {
  std::size_t dropped = 0;
  for (std::size_t i = 0; i < waiting_.size(); ++i) dropped += waiting_[i].weight;
  waiting_.clear();
  if (drop_in_service && busy_ && !drop_current_) {
    drop_current_ = true;
    dropped += current_weight_;
  }
  return dropped;
}

void FifoServer::reset() {
  waiting_.clear();
  waiting_.keep_storage();
  busy_ = false;
  drop_current_ = false;
  current_done_.reset();
  current_weight_ = 0;
  busy_time_ = des::Duration::zero();
  service_start_ = des::TimePoint{};
  served_ = 0;
}

HubMedium::HubMedium(des::Simulator& sim, des::RandomEngine rng, std::size_t hosts)
    : sim_{&sim}, rng_{std::move(rng)} {
  // A host's NIC queues at most one frame per peer in a broadcast round.
  queues_.reserve(hosts);
  for (std::size_t h = 0; h < hosts; ++h) queues_.emplace_back(queue_keep(hosts - 1));
}

void HubMedium::submit(HostId src, des::Duration service, des::EventAction on_done) {
  auto& queue = queues_.at(src);
  if (queue.empty()) ++ready_hosts_;
  queue.push_back(Frame{service, std::move(on_done)});
  ++backlog_;
  if (!busy_) start_next();
}

void HubMedium::start_next() {
  if (backlog_ == 0) return;
  // Uniform choice among backlogged hosts: draw k, then walk to the k-th
  // non-empty queue in host order. Each host transmits in FIFO.
  auto k = rng_.uniform_int(0, static_cast<std::int64_t>(ready_hosts_) - 1);
  HostId winner = 0;
  while (queues_[winner].empty() || k-- > 0) ++winner;
  ChunkQueue<Frame>& queue = queues_[winner];
  const des::Duration service = queue.front().service;
  current_done_ = std::move(queue.front().on_done);
  queue.pop_front();
  if (queue.empty()) --ready_hosts_;
  --backlog_;
  busy_ = true;
  service_start_ = sim_->now();
  sim_->schedule(service, [this] { complete(); });
}

void HubMedium::complete() {
  busy_time_ += sim_->now() - service_start_;
  ++served_;
  busy_ = false;
  auto done = std::move(current_done_);
  if (done) done();
  if (!busy_) start_next();  // `done` may have submitted and restarted
}

void HubMedium::reset(des::RandomEngine rng) {
  rng_ = rng;
  for (ChunkQueue<Frame>& queue : queues_) {
    queue.clear();
    queue.keep_storage();
  }
  backlog_ = 0;
  ready_hosts_ = 0;
  busy_ = false;
  current_done_.reset();
  busy_time_ = des::Duration::zero();
  service_start_ = des::TimePoint{};
  served_ = 0;
}

ContentionNetwork::ContentionNetwork(des::Simulator& sim, des::RandomEngine rng,
                                     NetworkParams params, std::size_t hosts,
                                     const topo::Topology* topology)
    : sim_{&sim},
      rng_{rng},
      params_{params},
      medium_{sim, rng.substream("hub"), hosts} {
  if (hosts < 2) throw std::invalid_argument{"ContentionNetwork: need at least 2 hosts"};
  // The hub medium is constructed either way (its "hub" substream is derived
  // but never drawn from unless used), so a degenerate topology leaves the
  // RNG stream -- and therefore every existing golden -- bit-identical.
  if (topology != nullptr && !topology->single_hub_equivalent()) {
    if (topology->n_hosts() != hosts) {
      throw std::invalid_argument{"ContentionNetwork: topology covers " +
                                  std::to_string(topology->n_hosts()) + " hosts, cluster has " +
                                  std::to_string(hosts)};
    }
    routes_.emplace(*topology);
    links_.reserve(routes_->link_count());
    for (std::size_t i = 0; i < routes_->link_count(); ++i) {
      links_.emplace_back(sim, queue_keep(hosts - 1));
    }
  }
  cpus_.reserve(hosts);
  // A host CPU serves a round's sends and receives: up to 2 (n - 1) jobs.
  for (std::size_t i = 0; i < hosts; ++i) cpus_.emplace_back(sim, queue_keep(2 * (hosts - 1)));
  down_.assign(hosts, 0);
  cpu_scale_.assign(hosts, 1.0);
}

ContentionNetwork::~ContentionNetwork() { sim_->cancel_all(); }

void ContentionNetwork::reset(des::RandomEngine rng) {
  if (!sim_->queue_empty()) {
    throw std::logic_error{"ContentionNetwork::reset: the simulator still holds events"};
  }
  rng_ = rng;
  medium_.reset(rng_.substream("hub"));
  for (FifoServer& cpu : cpus_) cpu.reset();
  for (Link& link : links_) {
    link.server.reset();
    link.entered = 0;
    link.exited = 0;
    link.overflow_dropped = 0;
  }
  SANPERF_AUDIT_CHECK("net.frame_pool_drained", pool_.live() == 0,
                      std::to_string(pool_.live()) + " frames still referenced after a reset");
  // A reset network is being reused: make room up front for the few frames
  // per host a consensus round has in flight, as its queues do (keep_storage).
  pool_.reserve(std::min<std::size_t>(4 * cpus_.size(), 256));
  std::fill(down_.begin(), down_.end(), 0);
  dead_pair_bits_.clear();  // re-materialised in place by the next dead pair
  std::fill(cpu_scale_.begin(), cpu_scale_.end(), 1.0);
  pipeline_scale_ = 1.0;
  filter_ = nullptr;
  frames_sent_ = 0;
  frames_dropped_ = 0;
  frames_filtered_ = 0;
  frames_duplicated_ = 0;
#if SANPERF_AUDIT_ENABLED
  audit_delivered_ = 0;
  audit_in_flight_ = 0;
  audit_crash_lost_ = 0;
  partition_oracle_ = nullptr;
#endif
}

des::Duration ContentionNetwork::sample(const stats::BimodalUniform& dist) {
  const double ms = rng_.bernoulli(dist.p1) ? rng_.uniform(dist.a1, dist.b1)
                                            : rng_.uniform(dist.a2, dist.b2);
  return des::Duration::from_ms(ms);
}

bool ContentionNetwork::test_and_set_dead_pair(HostId src, HostId dst) {
  const std::size_t n = cpus_.size();
  if (dead_pair_bits_.empty()) dead_pair_bits_.assign((n * n + 63) / 64, 0);
  const std::size_t pair = static_cast<std::size_t>(src) * n + dst;
  const std::uint64_t mask = std::uint64_t{1} << (pair & 63);
  const bool was = (dead_pair_bits_[pair >> 6] & mask) != 0;
  dead_pair_bits_[pair >> 6] |= mask;
  return was;
}

void ContentionNetwork::clear_dead_pairs(HostId h) {
  if (dead_pair_bits_.empty()) return;
  const std::size_t n = cpus_.size();
  for (std::size_t other = 0; other < n; ++other) {
    for (const std::size_t pair : {other * n + h, static_cast<std::size_t>(h) * n + other}) {
      dead_pair_bits_[pair >> 6] &= ~(std::uint64_t{1} << (pair & 63));
    }
  }
}

void ContentionNetwork::send(HostId src, HostId dst, FrameBody body, FrameClass cls) {
  if (src >= cpus_.size() || dst >= cpus_.size()) {
    throw std::invalid_argument{"ContentionNetwork::send: bad host id"};
  }
  if (src == dst) throw std::invalid_argument{"ContentionNetwork::send: src == dst"};
  if (down_[src]) return;  // a crashed host emits nothing

  FrameRef frame{&pool_, pool_.allocate(src, sim_->now(), std::move(body))};
  ++frames_sent_;
  SANPERF_AUDIT_ONLY(++audit_in_flight_;)

  // TCP towards a dead peer: only the pair's first frame reaches the wire;
  // later sends cost the sender CPU but are absorbed by the socket buffer.
  // Small datagrams (heartbeats) are UDP: connectionless, always emitted.
  bool wire = true;
  if (params_.dead_peer_absorption && cls == FrameClass::kProtocol && down_[dst]) {
    wire = !test_and_set_dead_pair(src, dst);
  }
  submit_unicast(std::move(frame), dst, wire, cls);
}

void ContentionNetwork::submit_unicast(FrameRef frame, HostId dst, bool wire, FrameClass cls) {
  // Step 2: sender CPU.
  const HostId src = frame.src();
  cpus_[src].submit(des::Duration::from_ms(params_.send_cpu_ms * cpu_scale_[src]),
                    inline_action([this, frame = std::move(frame), dst, wire, cls]() mutable {
                      if (!wire) {
                        ++frames_dropped_;
                        SANPERF_AUDIT_ONLY(--audit_in_flight_;)
                        return;
                      }
                      if (routes_) {
                        // Step 4, routed: walk the compiled route link by link.
                        route_hop(std::move(frame), dst, cls, 0);
                        return;
                      }
                      // Step 4: the shared medium (exclusive wire occupancy).
                      const auto& wire_dist = cls == FrameClass::kSmall ? params_.small_wire_service
                                                                        : params_.wire_service;
                      const HostId fsrc = frame.src();
                      const des::Duration service = sample(wire_dist);
                      medium_.submit(fsrc, service,
                                     inline_action([this, frame = std::move(frame), dst] {
                                       receiver_edge(frame, dst);
                                     }));
                    }));
}

void ContentionNetwork::broadcast(HostId src, FrameBody body, FrameClass cls) {
  if (src >= cpus_.size()) {
    throw std::invalid_argument{"ContentionNetwork::broadcast: bad host id"};
  }
  if (down_[src]) return;  // a crashed host emits nothing
  const auto n = static_cast<HostId>(cpus_.size());
  FrameRef frame{&pool_, pool_.allocate(src, sim_->now(), std::move(body))};

  if (!params_.batched_broadcast || routes_) {
    // Shared-body unicasts: per-receiver resource occupancy, RNG draw order
    // and event sequence identical to n-1 send() calls (only the n-1 body
    // copies are gone), so every pre-pool golden reproduces bit for bit.
    for (HostId dst = 0; dst < n; ++dst) {
      if (dst == src) continue;
      ++frames_sent_;
      SANPERF_AUDIT_ONLY(++audit_in_flight_;)
      bool wire = true;
      if (params_.dead_peer_absorption && cls == FrameClass::kProtocol && down_[dst]) {
        wire = !test_and_set_dead_pair(src, dst);
      }
      submit_unicast(frame, dst, wire, cls);
    }
    return;
  }

  // Batched hub fan-out: one sender-CPU job and one medium burst carry all
  // n-1 frames. Total resource occupancy matches the unbatched path; the
  // per-frame completion events collapse into two.
  std::vector<HostId>& dsts = frame.bcast_dsts();
  std::size_t absorbed = 0;
  for (HostId dst = 0; dst < n; ++dst) {
    if (dst == src) continue;
    ++frames_sent_;
    SANPERF_AUDIT_ONLY(++audit_in_flight_;)
    if (params_.dead_peer_absorption && cls == FrameClass::kProtocol && down_[dst] &&
        test_and_set_dead_pair(src, dst)) {
      ++absorbed;  // costs the sender CPU below, then drops
    } else {
      dsts.push_back(dst);
    }
  }
  const std::size_t total = dsts.size() + absorbed;
  if (total == 0) return;
  cpus_[src].submit(
      des::Duration::from_ms(params_.send_cpu_ms * cpu_scale_[src] * static_cast<double>(total)),
      inline_action([this, frame = std::move(frame), cls, absorbed]() mutable {
        if (absorbed > 0) {
          frames_dropped_ += absorbed;
          SANPERF_AUDIT_ONLY(audit_in_flight_ -= absorbed;)
        }
        if (frame.bcast_dsts().empty()) return;
        const auto& wire_dist =
            cls == FrameClass::kSmall ? params_.small_wire_service : params_.wire_service;
        // One wire sample per receiver in ascending-dst order -- the exact
        // draws the unbatched path makes -- summed into a single burst.
        des::Duration burst = des::Duration::zero();
        for (std::size_t i = 0; i < frame.bcast_dsts().size(); ++i) burst += sample(wire_dist);
        const HostId fsrc = frame.src();
        medium_.submit(fsrc, burst, inline_action([this, frame = std::move(frame)] {
                         // Index-based walk: a receiver's handler may send and
                         // grow the pool while we iterate.
                         for (std::size_t i = 0; i < frame.bcast_dsts().size(); ++i) {
                           receiver_edge_batched(frame, frame.bcast_dsts()[i]);
                         }
                       }));
      }),
      /*weight=*/total);
}

void ContentionNetwork::route_hop(FrameRef frame, HostId dst, FrameClass cls,
                                  std::uint32_t step) {
  const topo::RouteTable::Route& route = routes_->route(frame.src(), dst);
  if (step >= route.hops) {
    receiver_edge(std::move(frame), dst);
    return;
  }
  const std::uint32_t li = route.links[step];
  Link& link = links_[li];
  const topo::LinkParams& lp = routes_->link(li).params;
  // A shallow switch buffer sheds load instead of queueing without bound.
  if (lp.queue_limit > 0 && link.server.busy() && link.server.queue_length() >= lp.queue_limit) {
    ++frames_dropped_;
    ++link.overflow_dropped;
    SANPERF_AUDIT_ONLY(--audit_in_flight_;)
    return;
  }
  ++link.entered;
  const auto& wire_dist =
      cls == FrameClass::kSmall ? params_.small_wire_service : params_.wire_service;
  des::Duration service = sample(wire_dist);
  if (lp.service_scale != 1.0) {
    service = des::Duration::from_ms(service.to_ms() * lp.service_scale);
  }
  link.server.submit(service, inline_action([this, frame = std::move(frame), dst, cls, step,
                                             li]() mutable {
    ++links_[li].exited;
    // The link's propagation delay is non-exclusive: the server frees up
    // while the frame is still on the wire towards the next hop.
    const double latency_ms = routes_->link(li).params.latency_ms;
    if (latency_ms > 0) {
      sim_->schedule(des::Duration::from_ms(latency_ms),
                     inline_action([this, frame = std::move(frame), dst, cls, step]() mutable {
                       route_hop(std::move(frame), dst, cls, step + 1);
                     }));
    } else {
      route_hop(std::move(frame), dst, cls, step + 1);
    }
  }));
}

void ContentionNetwork::receiver_edge(FrameRef frame, HostId dst) {
  // Non-exclusive pipeline latency: stack traversal overlaps freely. The
  // event is scheduled even at zero latency -- its queue position is part
  // of the bit-exact event order the goldens pin down.
  des::Duration pipeline = sample(params_.pipeline_latency);
  if (pipeline_scale_ != 1.0) {
    pipeline = des::Duration::from_ms(pipeline.to_ms() * pipeline_scale_);
  }
  sim_->schedule(pipeline, inline_action([this, frame = std::move(frame), dst] {
                   edge_arrive(frame, dst);
                 }));
}

void ContentionNetwork::receiver_edge_batched(const FrameRef& frame, HostId dst) {
  des::Duration pipeline = sample(params_.pipeline_latency);
  if (pipeline_scale_ != 1.0) {
    pipeline = des::Duration::from_ms(pipeline.to_ms() * pipeline_scale_);
  }
  if (pipeline > des::Duration::zero()) {
    // FrameRef{frame} makes the capture a movable FrameRef, not a const one.
    sim_->schedule(pipeline, inline_action([this, frame = FrameRef{frame}, dst] {
                     edge_arrive(frame, dst);
                   }));
  } else {
    edge_arrive(frame, dst);  // zero latency: no event, arrive in place
  }
}

void ContentionNetwork::edge_arrive(const FrameRef& frame, HostId dst) {
  if (down_[dst]) {
    ++frames_dropped_;
    SANPERF_AUDIT_ONLY(--audit_in_flight_;)
    return;
  }
  // Receiver edge: the fault-injection filter sees every frame that
  // survived the medium -- partition and loss drop here, duplication
  // pays the receiver CPU twice.
  FrameFate fate = FrameFate::kDeliver;
  if (filter_) fate = filter_(frame.packet(dst));
  if (fate == FrameFate::kDrop) {
    ++frames_dropped_;
    ++frames_filtered_;
    SANPERF_AUDIT_ONLY(--audit_in_flight_;)
    return;
  }
#if SANPERF_AUDIT_ENABLED
  // A frame the filter lets through must not cross a pair the ground-truth
  // oracle says is partitioned right now. Checked at the filter instant --
  // not at delivery -- so frames already past the filter when a partition
  // opens are legitimately delivered.
  if (partition_oracle_) {
    SANPERF_AUDIT_CHECK("net.no_delivery_across_partition",
                        !partition_oracle_(frame.src(), dst),
                        "frame " + std::to_string(frame.src()) + " -> " + std::to_string(dst) +
                            " passed the filter across an active partition");
  }
#endif
  const int copies = fate == FrameFate::kDuplicate ? 2 : 1;
  if (copies == 2) {
    ++frames_duplicated_;
    SANPERF_AUDIT_ONLY(++audit_in_flight_;)  // the extra copy is live too
  }
  for (int c = 0; c < copies; ++c) {
    // Step 6: receiver CPU.
    cpus_[dst].submit(des::Duration::from_ms(params_.recv_cpu_ms * cpu_scale_[dst]),
                      inline_action([this, frame = FrameRef{frame}, dst] {
                        if (down_[dst]) {
                          ++frames_dropped_;
                          SANPERF_AUDIT_ONLY(--audit_in_flight_;)
                          return;
                        }
                        // A crashed host must never see a delivery: the guard above
                        // is the last line of defence and this audit proves it held.
                        SANPERF_AUDIT_CHECK("net.no_delivery_to_crashed", !down_[dst],
                                            "delivery to crashed host " + std::to_string(dst));
                        SANPERF_AUDIT_ONLY(++audit_delivered_; --audit_in_flight_;)
                        if (deliver_) deliver_(frame.packet(dst));  // step 7
                      }));
  }
}

void ContentionNetwork::host_down(HostId h) {
  if (h >= cpus_.size()) throw std::invalid_argument{"ContentionNetwork::host_down: bad host"};
  down_[h] = 1;
  // The CPU abandons queued work; the job in service finishes occupying the
  // resource but its completion is suppressed. Every vaporised frame is one
  // that reaches no other terminal -- account it as crash loss so the
  // conservation audit stays balanced across crashes.
  const std::size_t lost = cpus_[h].drain(/*drop_in_service=*/true);
  static_cast<void>(lost);
  SANPERF_AUDIT_ONLY(audit_crash_lost_ += lost; audit_in_flight_ -= lost;)
}

void ContentionNetwork::host_restart(HostId h) {
  if (h >= cpus_.size()) {
    throw std::invalid_argument{"ContentionNetwork::host_restart: bad host"};
  }
  down_[h] = 0;
  // Reconnection resets the TCP dead-peer absorption in both directions, so
  // the first post-recovery protocol frame of every pair reaches the wire
  // again (and keeps doing so while the peer stays up).
  clear_dead_pairs(h);
}

void ContentionNetwork::set_cpu_scale(HostId h, double scale) {
  if (h >= cpus_.size()) throw std::invalid_argument{"ContentionNetwork::set_cpu_scale: bad host"};
  if (!(scale > 0)) throw std::invalid_argument{"ContentionNetwork::set_cpu_scale: scale <= 0"};
  cpu_scale_[h] = scale;
}

void ContentionNetwork::set_pipeline_scale(double scale) {
  if (!(scale > 0)) {
    throw std::invalid_argument{"ContentionNetwork::set_pipeline_scale: scale <= 0"};
  }
  pipeline_scale_ = scale;
}

}  // namespace sanperf::net
