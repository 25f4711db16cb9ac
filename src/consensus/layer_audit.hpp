// Audit-only shadow state shared by the consensus layers (CT and MR).
//
// A LayerAudit records what a consensus layer has irrevocably committed to
// (decisions per incarnation, the state standing at the last crash) so the
// SANPERF_AUDIT build can prove safety properties the protocol itself only
// promises: no instance decides twice, durable replay reproduces the
// pre-crash trajectory. The shadow is written by the layer and read only by
// audit checks -- no protocol branch ever consults it, so the simulation is
// bit-identical with the audit compiled out.
#pragma once

#include "core/audit.hpp"

#if SANPERF_AUDIT_ENABLED

#include <cstdint>
#include <map>
#include <span>

namespace sanperf::consensus::detail {

struct LayerAudit {
  struct Snapshot {
    std::int32_t round = 0;
    bool decided = false;  ///< decided or decide-pending (record already durable)
    std::uint64_t decision_hash = 0;
  };

  /// cid -> hash of the decided value vector, one ledger per incarnation.
  /// Cleared on a volatile restart: the rebooted process legitimately
  /// re-learns old decisions through DECIDE messages. Grows with the stream
  /// in audit builds (a map of two ints per instance) -- acceptable for the
  /// quick campaigns the audit CI job runs.
  std::map<std::int32_t, std::uint64_t> decided;

  /// Per-instance state captured by on_crash; consumed by the replay check
  /// after a durable on_restart.
  std::map<std::int32_t, Snapshot> precrash;

  /// FNV-1a over the value vector: enough to detect a decision changing
  /// across a replay or between two decide paths.
  static std::uint64_t hash_values(std::span<const std::int64_t> values) {
    std::uint64_t h = 1469598103934665603ull;
    for (const std::int64_t v : values) {
      h ^= static_cast<std::uint64_t>(v);
      h *= 1099511628211ull;
    }
    return h;
  }
};

}  // namespace sanperf::consensus::detail

#endif  // SANPERF_AUDIT_ENABLED
