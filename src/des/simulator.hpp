// The discrete-event simulator: a virtual clock plus an event queue.
//
// Two interchangeable pending-set backends sit behind the same EventId
// contract: the indexed binary heap (event_queue.hpp, the default) and the
// ladder queue (ladder_queue.hpp, O(1) amortised for large pending sets).
// Both order events by (time, insertion-seq), so a simulation pops the
// identical event sequence — and produces bit-identical results — on
// either backend. Select per-simulator via the constructor (ClusterConfig
// plumbs this through) or process-wide via SANPERF_QUEUE=heap|ladder.
#pragma once

#include <cstdint>
#include <functional>

#include "des/event_queue.hpp"
#include "des/ladder_queue.hpp"
#include "des/time.hpp"

namespace sanperf::des {

/// Pending-set implementation behind a Simulator.
enum class QueueBackend : std::uint8_t {
  kHeap,    ///< indexed binary heap: O(log n), lowest constant factors
  kLadder,  ///< ladder queue: O(1) amortised, wins past ~10k pending events
};

[[nodiscard]] const char* to_string(QueueBackend backend);

/// Backend selected by the SANPERF_QUEUE environment variable ("heap" or
/// "ladder"; unset or empty means heap). Throws std::invalid_argument on
/// anything else. Read on every call so tests can flip it.
[[nodiscard]] QueueBackend default_queue_backend();

class Simulator {
 public:
  using Action = EventQueue::Action;

  Simulator() : Simulator(default_queue_backend()) {}
  explicit Simulator(QueueBackend backend) : backend_{backend} {}

  [[nodiscard]] QueueBackend backend() const { return backend_; }

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `action` to run `delay` from now. Negative delays are an error.
  EventId schedule(Duration delay, Action action);

  /// Schedules `action` at an absolute time not earlier than now.
  EventId schedule_at(TimePoint at, Action action);

  /// Cancels a previously scheduled event; false if it already ran.
  bool cancel(EventId id) {
    return backend_ == QueueBackend::kLadder ? ladder_.cancel(id) : heap_.cancel(id);
  }

  [[nodiscard]] bool pending(EventId id) const {
    return backend_ == QueueBackend::kLadder ? ladder_.pending(id) : heap_.pending(id);
  }

  /// Runs one event. Returns false when the queue is empty.
  bool step();

  /// Runs until the queue drains or stop() is called.
  void run();

  /// Runs until the queue drains, the clock passes `deadline`, or stop().
  /// Events at exactly `deadline` are executed.
  void run_until(TimePoint deadline);

  /// Requests that run()/run_until() return after the current event.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool queue_empty() const {
    return backend_ == QueueBackend::kLadder ? ladder_.empty() : heap_.empty();
  }
  [[nodiscard]] std::size_t queue_size() const {
    return backend_ == QueueBackend::kLadder ? ladder_.size() : heap_.size();
  }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  /// Drops every pending event without running it; the clock stays.
  void cancel_all();

  /// Clears all pending events and resets the clock to the origin. Slab
  /// capacity is kept, so a reset simulator schedules without allocating
  /// up to its earlier high-water mark.
  void reset();

#if SANPERF_AUDIT_ENABLED
  /// Audit-build test access to the underlying queues, so negative tests
  /// can corrupt pending events and assert the audit layer trips.
  [[nodiscard]] EventQueue& audit_queue() { return heap_; }
  [[nodiscard]] LadderQueue& audit_ladder_queue() { return ladder_; }
#endif

 private:
  QueueBackend backend_ = QueueBackend::kHeap;
  EventQueue heap_;
  LadderQueue ladder_;  ///< empty shell when the heap backend is active
  TimePoint now_ = TimePoint::origin();
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace sanperf::des
