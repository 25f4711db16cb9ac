// The contention network: per-host CPU resources plus one shared medium.
//
// A unicast transmission walks the seven steps of the paper's Fig 3:
//   1. enqueue at the sender's CPU          4. occupy the medium (t_net)
//   2. occupy the sender's CPU (t_send)     5. enqueue at the receiver's CPU
//   3. enqueue on the medium                6. occupy it (t_receive)
//                                           7. deliver to the process
// Each resource is an exclusive FIFO server. Between steps 4 and 5 a frame
// additionally experiences a non-exclusive pipeline latency (protocol-stack
// traversal) during which it occupies nothing -- this is where most of the
// end-to-end delay lives on the emulated testbed. Frames addressed to a
// crashed host still occupy the medium (the wire does not know) but are
// dropped before consuming the destination CPU.
//
// Frame bookkeeping is pooled (see frame_pool.hpp): a frame in flight is a
// slot index into columnar storage, closures carry a 16-byte FrameRef
// inside EventAction's inline buffer, and a broadcast shares one pooled
// body across all n-1 receivers -- the steady-state send path performs no
// heap allocation. Server queues keep their chunks (net/chunk_queue.hpp), and
// reset() returns a built network to its just-constructed state without
// freeing any of it, so a reused network allocates nothing at all.
//
// Routed mode: constructed with a multi-rack topo::Topology, step 4 is no
// longer one shared hub but the frame's compiled route -- each link on the
// path (src access edge, the two rack uplinks when crossing racks, dst
// access edge) is its own exclusive FIFO server whose occupancy is the
// calibrated wire sample scaled by the link's service_scale, followed by
// the link's non-exclusive latency_ms. Steps 1-2 and 5-7 (CPUs, pipeline,
// receiver-edge filter) are byte-identical to hub mode. A null or
// single-rack topology keeps the hub code path exactly: every existing
// golden reproduces bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/audit.hpp"
#include "des/random.hpp"
#include "des/simulator.hpp"
#include "net/chunk_queue.hpp"
#include "net/frame_pool.hpp"
#include "net/params.hpp"
#include "topo/topology.hpp"

namespace sanperf::net {

/// An exclusive FIFO server over the discrete-event simulator: jobs queue,
/// one runs at a time for its service duration, then its completion action
/// fires.
class FifoServer {
 public:
  /// `queue_keep`: the queue depth whose storage the server keeps (see
  /// ChunkQueue); deeper bursts borrow storage while they last.
  explicit FifoServer(des::Simulator& sim, std::size_t queue_keep = 8)
      : sim_{&sim}, waiting_{queue_keep} {}

  /// Enqueues a job with the given service time and completion action.
  /// `weight` is the number of frames the job stands for in conservation
  /// accounting (a batched broadcast submits one job for n-1 frames).
  void submit(des::Duration service, des::EventAction on_done, std::size_t weight = 1);

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t queue_length() const { return waiting_.size(); }
  /// Cumulative time the server has spent serving jobs.
  [[nodiscard]] des::Duration busy_time() const { return busy_time_; }
  [[nodiscard]] std::uint64_t jobs_served() const { return served_; }

  /// Discards queued jobs (used when a host crashes). The in-service job,
  /// if any, still completes unless `drop_in_service`. Returns how many
  /// frames will never see their completion run (the summed weights of
  /// queued jobs discarded here plus an in-service one whose completion
  /// was suppressed), so callers can keep conservation accounting over the
  /// submitted work.
  std::size_t drain(bool drop_in_service);

  /// Back to the just-constructed state: queued jobs and the in-service
  /// completion are dropped unrun, counters zeroed, storage kept. The
  /// simulator must no longer hold this server's completion event.
  void reset();

 private:
  struct Job {
    des::Duration service;
    des::EventAction on_done;
    std::size_t weight = 0;
  };

  void start(des::Duration service, des::EventAction&& on_done, std::size_t weight);
  void complete();

  des::Simulator* sim_;
  ChunkQueue<Job> waiting_;
  bool busy_ = false;
  bool drop_current_ = false;
  des::EventAction current_done_;
  std::size_t current_weight_ = 0;
  des::Duration busy_time_ = des::Duration::zero();
  des::TimePoint service_start_;
  std::uint64_t served_ = 0;
};

/// The shared half-duplex hub. Each host's NIC queues its frames in FIFO
/// order, but when the medium frees up the next transmitting host is chosen
/// uniformly among the backlogged ones -- the fairness CSMA/CD arbitration
/// provides, and deliberately NOT a global arrival-order FIFO.
class HubMedium {
 public:
  HubMedium(des::Simulator& sim, des::RandomEngine rng, std::size_t hosts);

  /// Enqueues a frame from `src`; `on_done` fires when its transmission
  /// (with the given occupancy) completes.
  void submit(HostId src, des::Duration service, des::EventAction on_done);

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] std::size_t backlog() const { return backlog_; }
  [[nodiscard]] des::Duration busy_time() const { return busy_time_; }
  [[nodiscard]] std::uint64_t frames_served() const { return served_; }

  /// Back to the just-constructed state with arbitration drawing from
  /// `rng`; like FifoServer::reset, storage is kept.
  void reset(des::RandomEngine rng);

 private:
  struct Frame {
    des::Duration service;
    des::EventAction on_done;
  };

  void start_next();
  void complete();

  des::Simulator* sim_;
  des::RandomEngine rng_;
  std::vector<ChunkQueue<Frame>> queues_;  // per source host
  std::size_t backlog_ = 0;
  std::size_t ready_hosts_ = 0;  // hosts whose queue is non-empty
  bool busy_ = false;
  des::EventAction current_done_;
  des::Duration busy_time_ = des::Duration::zero();
  des::TimePoint service_start_;
  std::uint64_t served_ = 0;
};

class ContentionNetwork {
 public:
  /// Both `sim` and the callback outlive the network. A null `topology`
  /// (or one with a single rack) is the paper's shared hub; a multi-rack
  /// topology switches step 4 to routed per-link delivery. The topology is
  /// compiled into a RouteTable at construction and not referenced after.
  ContentionNetwork(des::Simulator& sim, des::RandomEngine rng, NetworkParams params,
                    std::size_t hosts, const topo::Topology* topology = nullptr);
  /// Cancels the simulator's pending events before the frame pool goes:
  /// they may hold frames. `sim` is expected to die with the network.
  ~ContentionNetwork();

  ContentionNetwork(const ContentionNetwork&) = delete;
  ContentionNetwork& operator=(const ContentionNetwork&) = delete;
  /// Movable so a freshly built owner can be returned by value; the
  /// simulator pointer and every in-flight frame would go stale, so move a
  /// network only before it carries traffic.
  ContentionNetwork(ContentionNetwork&&) = default;

  /// Returns the network to its just-constructed state, drawing from `rng`
  /// as a network constructed with it would: servers and queues empty, every
  /// host up, dead pairs, scales, filter and counters cleared. The topology,
  /// parameters and delivery callback stay, and so does all storage. The
  /// simulator's queue must already be empty (Simulator::reset), since its
  /// events may hold this network's frames; throws std::logic_error if not.
  void reset(des::RandomEngine rng);

  /// Called at step 7 with the destination and the packet.
  void set_deliver(std::function<void(const Packet&)> deliver) { deliver_ = std::move(deliver); }

  /// Frame cost classes: protocol messages pay the calibrated bimodal
  /// occupancy; small datagrams (heartbeats) pay raw wire time only.
  enum class FrameClass { kProtocol, kSmall };

  /// What the frame filter decides for a frame that survived the medium:
  /// deliver it, drop it silently (partition / probabilistic loss), or
  /// deliver it twice (datagram duplication).
  enum class FrameFate { kDeliver, kDrop, kDuplicate };
  /// Fault-injection hook, consulted once per frame at the receiver edge
  /// (after the medium and pipeline, before the receiver CPU). The frame
  /// has already paid its wire occupancy -- the hub does not know about
  /// switch-level filtering or corrupted checksums.
  using FrameFilter = std::function<FrameFate(const Packet&)>;
  void set_frame_filter(FrameFilter filter) { filter_ = std::move(filter); }

  /// Starts a unicast transmission (step 1). `body` is delivered unchanged.
  void send(HostId src, HostId dst, FrameBody body, FrameClass cls = FrameClass::kProtocol);

  /// Starts a broadcast: one frame per receiver (ascending host id,
  /// skipping the sender) sharing a single pooled body. With
  /// NetworkParams::batched_broadcast off -- or in routed mode -- the
  /// per-receiver resource occupancy, RNG draw order and event sequence
  /// are identical to n-1 send() calls, so results are bit-identical; on,
  /// the hub path coalesces the fan-out into one sender-CPU job and one
  /// medium burst (total occupancy unchanged), cutting the scheduled
  /// events per broadcast from ~4(n-1) to ~n+1.
  void broadcast(HostId src, FrameBody body, FrameClass cls = FrameClass::kProtocol);

  /// Marks a host as crashed: queued CPU work is discarded and future frames
  /// addressed to it vanish after their medium occupancy.
  void host_down(HostId h);
  /// Warm restart of a crashed host: frames flow again and the per-pair
  /// TCP dead-peer absorption state is reset in both directions (the
  /// restarted host re-establishes its connections).
  void host_restart(HostId h);
  [[nodiscard]] bool host_up(HostId h) const { return !down_.at(h); }

  /// Service-time scaling hooks (fault injection). `scale` multiplies the
  /// CPU occupancy of frames submitted at `h` from now on (in-service and
  /// queued jobs keep the service time fixed at enqueue); 1.0 restores the
  /// nominal cost bit-exactly.
  void set_cpu_scale(HostId h, double scale);
  [[nodiscard]] double cpu_scale(HostId h) const { return cpu_scale_.at(h); }
  /// Multiplies the non-exclusive pipeline latency of every frame.
  void set_pipeline_scale(double scale);
  [[nodiscard]] double pipeline_scale() const { return pipeline_scale_; }

  [[nodiscard]] std::size_t hosts() const { return cpus_.size(); }
  [[nodiscard]] const NetworkParams& params() const { return params_; }

  // Introspection for tests / ablation benches.
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_dropped() const { return frames_dropped_; }
  [[nodiscard]] std::uint64_t frames_filtered() const { return frames_filtered_; }
  [[nodiscard]] std::uint64_t frames_duplicated() const { return frames_duplicated_; }
  [[nodiscard]] des::Duration medium_busy_time() const { return medium_.busy_time(); }
  [[nodiscard]] const FifoServer& cpu(HostId h) const { return cpus_.at(h); }
  [[nodiscard]] const HubMedium& medium() const { return medium_; }
  [[nodiscard]] const FramePool& frame_pool() const { return pool_; }

  // Routed-mode introspection. `route_table()` is null in hub mode.
  [[nodiscard]] bool routed() const { return routes_.has_value(); }
  [[nodiscard]] const topo::RouteTable* route_table() const {
    return routes_ ? &*routes_ : nullptr;
  }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] std::uint64_t link_entered(std::size_t link) const {
    return links_.at(link).entered;
  }
  [[nodiscard]] std::uint64_t link_exited(std::size_t link) const {
    return links_.at(link).exited;
  }
  [[nodiscard]] std::uint64_t link_overflow_dropped(std::size_t link) const {
    return links_.at(link).overflow_dropped;
  }
  [[nodiscard]] des::Duration link_busy_time(std::size_t link) const {
    return links_.at(link).server.busy_time();
  }

#if SANPERF_AUDIT_ENABLED
  /// Frame conservation: every frame submitted (plus duplicated copies) is
  /// eventually delivered, dropped with accounting, or lost to a crash
  /// drain -- and nothing materialises out of thin air. The identity is
  /// checked continuously; `at_drain` additionally requires that no frame
  /// remains in flight (call when the event queue has emptied).
  void audit_check_frame_conservation(bool at_drain) const {
    SANPERF_AUDIT_CHECK("net.frame_conservation",
                        frames_sent_ + frames_duplicated_ ==
                            audit_delivered_ + frames_dropped_ + audit_crash_lost_ +
                                audit_in_flight_,
                        "sent " + std::to_string(frames_sent_) + " + dup " +
                            std::to_string(frames_duplicated_) + " != delivered " +
                            std::to_string(audit_delivered_) + " + dropped " +
                            std::to_string(frames_dropped_) + " + crash-lost " +
                            std::to_string(audit_crash_lost_) + " + in-flight " +
                            std::to_string(audit_in_flight_));
    if (at_drain) {
      SANPERF_AUDIT_CHECK("net.frame_conservation", audit_in_flight_ == 0,
                          std::to_string(audit_in_flight_) +
                              " frames still in flight after the event queue drained");
    }
    // Per-link conservation on the routed path: every frame that entered a
    // link's queue exits its server exactly once. Between the two counts a
    // frame legitimately occupies the link, so the exact identity holds
    // only once the event queue has drained.
    for (std::size_t li = 0; li < links_.size(); ++li) {
      const Link& l = links_[li];
      SANPERF_AUDIT_CHECK("net.link_conservation", l.entered >= l.exited,
                          "link " + routes_->link_name(li) + " exited " +
                              std::to_string(l.exited) + " frames but only " +
                              std::to_string(l.entered) + " entered");
      if (at_drain) {
        SANPERF_AUDIT_CHECK("net.link_conservation", l.entered == l.exited,
                            "link " + routes_->link_name(li) + ": entered " +
                                std::to_string(l.entered) + " != exited " +
                                std::to_string(l.exited) + " after the event queue drained");
      }
    }
  }
  [[nodiscard]] std::uint64_t audit_frames_delivered() const { return audit_delivered_; }

  /// Ground-truth reachability oracle, audit builds only: when set, every
  /// frame the receiver-edge filter lets through is cross-checked against
  /// it -- a delivery (or duplication) across a pair the oracle says is
  /// partitioned trips `net.no_delivery_across_partition`. The injector
  /// installs the plan's partitioned_at as the oracle, so the filter path
  /// and the declarative plan are verified against each other.
  using PartitionOracle = std::function<bool(HostId src, HostId dst)>;
  void set_partition_oracle(PartitionOracle oracle) { partition_oracle_ = std::move(oracle); }

  /// Test-only corruption backdoor: fabricates a link entry with no
  /// matching exit, so the per-link conservation audit can be made to trip
  /// deliberately at drain.
  void audit_corrupt_link_entry(std::size_t link) { ++links_.at(link).entered; }

  /// Test-only corruption backdoor: runs the step-7 delivery tail without
  /// the crashed-host guard (and without a matching send), so both the
  /// no-delivery-to-crashed audit and the conservation audit can be made
  /// to trip deliberately.
  void audit_force_deliver(const Packet& pkt) {
    SANPERF_AUDIT_CHECK("net.no_delivery_to_crashed", !down_[pkt.dst],
                        "forced delivery to crashed host " + std::to_string(pkt.dst));
    ++audit_delivered_;
    if (deliver_) deliver_(pkt);
  }
#endif

 private:
  /// One exclusive link of the routed path, with conservation counters.
  struct Link {
    explicit Link(des::Simulator& sim, std::size_t queue_keep) : server{sim, queue_keep} {}
    FifoServer server;
    std::uint64_t entered = 0;
    std::uint64_t exited = 0;
    std::uint64_t overflow_dropped = 0;
  };

  [[nodiscard]] des::Duration sample(const stats::BimodalUniform& dist);
  /// Steps 2-4 of one (shared-body) unicast frame: sender CPU, then hub or
  /// route. The dead-pair decision (`wire`) was already taken at submit.
  void submit_unicast(FrameRef frame, HostId dst, bool wire, FrameClass cls);
  /// Routed step 4: occupy route link `step`, pay its latency, recurse;
  /// past the last hop the frame reaches the receiver edge.
  void route_hop(FrameRef frame, HostId dst, FrameClass cls, std::uint32_t step);
  /// Step 5 on the legacy per-frame path: always schedules the pipeline
  /// event, even at zero latency -- the event order is part of the
  /// bit-exact contract with the pre-pool goldens.
  void receiver_edge(FrameRef frame, HostId dst);
  /// Step 5 on the batched path: a zero pipeline latency short-circuits
  /// straight into the receiver edge with no scheduled event.
  void receiver_edge_batched(const FrameRef& frame, HostId dst);
  /// Steps 5b-7 (receiver-edge filter, receiver CPU, delivery), shared by
  /// every path.
  void edge_arrive(const FrameRef& frame, HostId dst);

  /// Sets the (src, dst) bit in the dead-pair table, returning its prior
  /// value. The table is a packed bitset materialised only when the first
  /// dead pair appears (n^2 bits instead of n^2 bytes; nothing at all for
  /// runs without crashes).
  bool test_and_set_dead_pair(HostId src, HostId dst);
  void clear_dead_pairs(HostId h);

  des::Simulator* sim_;
  des::RandomEngine rng_;
  NetworkParams params_;
  /// Declared before every member whose queues hold frames, so it is
  /// destroyed after them.
  FramePool pool_;
  std::vector<FifoServer> cpus_;
  HubMedium medium_;
  std::optional<topo::RouteTable> routes_;  ///< engaged iff multi-rack (routed mode)
  std::vector<Link> links_;                 ///< routed mode: one server per topology link
  std::vector<char> down_;
  std::vector<std::uint64_t> dead_pair_bits_;  // lazily sized ceil(n*n/64)
  std::vector<double> cpu_scale_;              // per-host CPU service-time multiplier
  double pipeline_scale_ = 1.0;
  FrameFilter filter_;
  std::function<void(const Packet&)> deliver_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_filtered_ = 0;
  std::uint64_t frames_duplicated_ = 0;
#if SANPERF_AUDIT_ENABLED
  std::uint64_t audit_delivered_ = 0;   ///< frames handed to deliver_ (step 7)
  std::uint64_t audit_in_flight_ = 0;   ///< submitted, not yet at a terminal
  std::uint64_t audit_crash_lost_ = 0;  ///< jobs vaporised by a crash drain
  PartitionOracle partition_oracle_;    ///< ground truth for the receiver edge
#endif
};

}  // namespace sanperf::net
