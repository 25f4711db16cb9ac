#include "des/simulator.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace sanperf::des {

const char* to_string(QueueBackend backend) {
  return backend == QueueBackend::kLadder ? "ladder" : "heap";
}

QueueBackend default_queue_backend() {
  const char* env = std::getenv("SANPERF_QUEUE");
  if (env == nullptr || *env == '\0') return QueueBackend::kHeap;
  const std::string_view v{env};
  if (v == "heap") return QueueBackend::kHeap;
  if (v == "ladder") return QueueBackend::kLadder;
  throw std::invalid_argument{"SANPERF_QUEUE: expected 'heap' or 'ladder', got '" +
                              std::string{v} + "'"};
}

EventId Simulator::schedule(Duration delay, Action action) {
  if (delay < Duration::zero()) throw std::invalid_argument{"Simulator::schedule: negative delay"};
  const TimePoint at = now_ + delay;
  return backend_ == QueueBackend::kLadder ? ladder_.push(at, std::move(action))
                                           : heap_.push(at, std::move(action));
}

EventId Simulator::schedule_at(TimePoint at, Action action) {
  if (at < now_) throw std::invalid_argument{"Simulator::schedule_at: time in the past"};
  return backend_ == QueueBackend::kLadder ? ladder_.push(at, std::move(action))
                                           : heap_.push(at, std::move(action));
}

bool Simulator::step() {
  if (queue_empty()) return false;
  TimePoint at;
  Action action;
  if (backend_ == QueueBackend::kLadder) {
    auto ev = ladder_.pop();
    at = ev.at;
    action = std::move(ev.action);
  } else {
    auto ev = heap_.pop();
    at = ev.at;
    action = std::move(ev.action);
  }
  SANPERF_AUDIT_CHECK("des.monotonic_time", at >= now_,
                      "event at " + std::to_string(at.to_ms()) + " ms behind clock " +
                          std::to_string(now_.to_ms()) + " ms");
  now_ = at;
  ++processed_;
  action();
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until(TimePoint deadline) {
  stopped_ = false;
  while (!stopped_ && !queue_empty()) {
    const TimePoint next =
        backend_ == QueueBackend::kLadder ? ladder_.next_time() : heap_.next_time();
    if (next > deadline) break;
    step();
  }
  if (now_ < deadline && !stopped_) now_ = deadline;
}

void Simulator::cancel_all() {
  heap_.clear();
  ladder_.clear();
}

void Simulator::reset() {
  cancel_all();
  now_ = TimePoint::origin();
  processed_ = 0;
  stopped_ = false;
}

}  // namespace sanperf::des
