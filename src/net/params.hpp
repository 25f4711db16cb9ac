// Parameters of the emulated cluster network.
//
// The emulator reproduces the resource structure the paper identified on
// its testbed (Section 3.3): per-host CPU resources covering network
// controller + communication-layer processing, and one shared network
// resource (the 100Base-TX hub) that only one frame occupies at a time.
// Defaults are chosen so that the measured unicast end-to-end delay matches
// the paper's bi-modal fit (U[0.10,0.13] w.p. 0.8, U[0.145,0.35] w.p. 0.2,
// in ms) with t_send = t_receive = 0.025 ms.
#pragma once

#include <cstdint>

#include "des/time.hpp"
#include "stats/bimodal_fit.hpp"

namespace sanperf::net {

struct NetworkParams {
  /// CPU occupancy for emitting one protocol message (ms).
  double send_cpu_ms = 0.025;
  /// CPU occupancy for receiving one protocol message (ms).
  double recv_cpu_ms = 0.025;
  /// Exclusive medium occupancy per frame (ms). On the emulated testbed the
  /// shared half-duplex hub (plus the kernel transmit path that feeds it)
  /// is the dominant, serialising delay: one frame at a time, bimodal
  /// service. This is the paper's own abstraction -- its SAN model assigns
  /// everything between the CPU costs to the exclusive network resource.
  stats::BimodalUniform wire_service{0.8, 0.050, 0.080, 0.095, 0.300};
  /// Additional per-frame latency that does NOT occupy a shared resource;
  /// zero by default (kept for ablations: moving delay from `wire_service`
  /// into this stage removes contention without changing idle delays).
  stats::BimodalUniform pipeline_latency{1.0, 0.0, 0.0, 0.0, 0.0};
  /// Medium occupancy of a small datagram (heartbeats): the raw wire time
  /// of a ~100-byte frame on 100Base-TX, without the TCP-stack serialisation
  /// the protocol-frame figure absorbs. This keeps failure-detection
  /// traffic from congesting the medium, matching the paper's observation
  /// (Section 3.4) that the extra FD load did not affect latency.
  stats::BimodalUniform small_wire_service{1.0, 0.008, 0.012, 0.0, 0.0};

  /// TCP behaviour towards a crashed host: the first frame a sender emits
  /// to it reaches the wire (data segment or SYN), after which the sender's
  /// kernel is in retransmission backoff and further application sends are
  /// absorbed by the socket buffer at CPU cost only. Modelled per
  /// (sender, dead destination) pair.
  bool dead_peer_absorption = true;

  /// Coalesce a hub-mode broadcast into one sender-CPU job and one medium
  /// burst (total resource occupancy unchanged), cutting the scheduled
  /// events per broadcast from ~4(n-1) to ~n+1. Off by default: the
  /// unbatched path is bit-identical to n-1 unicasts and is what every
  /// pre-existing golden pins down. Ignored in routed mode.
  bool batched_broadcast = false;

  [[nodiscard]] static NetworkParams defaults() { return {}; }

  friend bool operator==(const NetworkParams&, const NetworkParams&) = default;

  /// Mean uncontended end-to-end delay of a unicast message (ms);
  /// e2e = send_cpu + wire + pipeline + recv_cpu. With the defaults this is
  /// 0.1415 ms on [0.10, 0.35], matching the paper's unicast fit
  /// U[0.10,0.13]@0.8 + U[0.145,0.35]@0.2.
  [[nodiscard]] double expected_unicast_e2e_ms() const {
    return send_cpu_ms + wire_service.mean() + pipeline_latency.mean() + recv_cpu_ms;
  }
};

/// OS timer behaviour of the testbed (Linux 2.2, HZ=100: 10 ms jiffies).
///
/// A sleeping thread wakes at the first scheduler tick at or after its
/// requested expiry, plus a small wake-up overhead, plus occasional long
/// stalls (JVM garbage collection, load). The paper attributes the latency
/// peak near T = 10 ms to exactly this quantisation; the heartbeat sender
/// runs on such timers. Event-driven work (message handlers) is not
/// quantised.
struct TimerModel {
  double tick_ms = 10.0;        ///< scheduler tick; 0 disables quantisation
  double wake_noise_ms = 0.05;  ///< U[0, wake_noise] after the tick
  /// Extra lateness mixture (applied after quantisation). The testbed ran
  /// Java on a uniprocessor: timer threads were routinely displaced by
  /// protocol work and garbage collection, occasionally for tens of ms.
  double p_minor_stall = 0.25;  ///< U[0.2, 3] ms
  double p_major_stall = 0.06;  ///< U[1, 12] ms
  double p_huge_stall = 0.004;  ///< U[12, 45] ms

  [[nodiscard]] static TimerModel defaults() { return {}; }

  friend bool operator==(const TimerModel&, const TimerModel&) = default;
  /// No quantisation, no stalls: ideal timers (useful in tests).
  [[nodiscard]] static TimerModel ideal() {
    return TimerModel{0.0, 0.0, 0.0, 0.0, 0.0};
  }
};

}  // namespace sanperf::net
