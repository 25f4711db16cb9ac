// Batched-payload helpers shared by the consensus layers.
//
// On the wire a consensus payload is a value *vector* (one entry per client
// value the instance carries -- see consensus::Batcher); the scalar
// Message::value mirrors the first entry so diagnostics and pre-batching
// assertions keep working. The SAN model charges per frame regardless of
// content, so a batch of 32 values costs exactly the messages a single
// value does -- that is the whole amortisation argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/message.hpp"

namespace sanperf::consensus::detail {

/// A read-only view of a payload's values.
using Payload = std::span<const std::int64_t>;

/// Stores `values` in `m`. A single value rides in Message::value alone and
/// leaves Message::values empty, so unbatched protocol traffic carries no
/// heap-allocated payload; payload_of reads it back either way.
inline void set_payload(runtime::Message& m, Payload values) {
  m.value = values.empty() ? 0 : values.front();
  if (values.size() > 1) {
    m.values.assign(values.begin(), values.end());
  } else {
    m.values.clear();
  }
}
inline void set_payload(runtime::Message& m, const std::vector<std::int64_t>& values) {
  set_payload(m, Payload{values});
}

/// The payload of `m`, valid while `m` lives: Message::values when
/// non-empty, otherwise the scalar Message::value as a one-value payload.
[[nodiscard]] inline Payload payload_of(const runtime::Message& m) {
  if (!m.values.empty()) return m.values;
  return {&m.value, 1};  // single value (and hand-built scalar messages)
}

}  // namespace sanperf::consensus::detail
