// Protocol messages exchanged by processes.
//
// Mirrors the paper's implementation: every message is ~100 bytes, carried
// over point-to-point connections; a broadcast is n-1 unicasts. The body is
// a single flat struct (the SAN model ignores data content, and so can we:
// only the control fields matter).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "des/time.hpp"
#include "net/network.hpp"

namespace sanperf::runtime {

using net::HostId;

enum class MsgKind : std::uint8_t {
  kHeartbeat,  ///< failure-detector heartbeat
  kEstimate,   ///< CT consensus phase 1: participant -> coordinator
  kPropose,    ///< CT consensus phase 2: coordinator -> participants
  kAck,        ///< CT consensus phase 3 positive reply
  kNack,       ///< CT consensus phase 3 negative reply (coordinator suspected)
  kDecide,     ///< decision dissemination (reliable broadcast)
  kCoordEst,   ///< MR consensus phase 1: coordinator's estimate broadcast
  kAux,        ///< MR consensus phase 2: echoed value or bottom, all-to-all
  kPing,       ///< delay-probe request (Fig 6 experiments)
  kPong,       ///< delay-probe reply
  kApp,        ///< generic application payload
  kReplayQuery,  ///< durable-recovery: restarted host asks peers to re-send
                 ///< the round-r traffic it missed for an in-flight instance
};

[[nodiscard]] const char* to_string(MsgKind kind);

struct Message {
  MsgKind kind = MsgKind::kApp;
  HostId from = 0;
  HostId to = 0;
  std::int32_t cid = 0;    ///< consensus instance id
  std::int32_t round = 0;  ///< consensus round (absolute, 1-based)
  std::int64_t value = 0;  ///< proposed/decided value (first batched value)
  /// Batched payload: the full value vector a consensus instance carries
  /// when an upstream Batcher packs several client values into one
  /// instance (empty when the payload is a single value, which `value`
  /// alone carries; `value` always mirrors the first entry when non-empty). The SAN model charges per
  /// frame regardless of content, so batching amortises without changing
  /// the timing of any individual message.
  std::vector<std::int64_t> values;
  std::int32_t ts = 0;     ///< estimate timestamp (last adopted round)
  std::uint64_t probe_id = 0;         ///< delay-probe correlation id
  /// Sender's reboot count, stamped by Process::send. A monitor seeing a
  /// higher incarnation than it knew learns the peer crashed and recovered
  /// since the last message -- the crash-recovery completeness hook for
  /// failure detection (0 for never-restarted processes).
  std::uint32_t incarnation = 0;
  /// Membership epoch of the carrying consensus instance. Instances capture
  /// the epoch current at launch and resolve coordinators/majorities against
  /// that epoch's member set for their whole life; the epoch rides on every
  /// message so late joiners adopt it (0 under fixed membership).
  std::uint32_t view_epoch = 0;
  des::TimePoint sent_at;             ///< stamped by Process::send

  [[nodiscard]] std::string to_string() const;
};

}  // namespace sanperf::runtime
