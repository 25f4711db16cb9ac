// A process with a stack of protocol layers (Neko-style).
//
// Layers receive every incoming message bottom-up and may send messages,
// set timers and crash the process. The failure-detector layer sits below
// the consensus layer so that it observes all traffic ("the reception of
// any message from q resets the timer", Section 2.2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "des/random.hpp"
#include "des/simulator.hpp"
#include "net/jitter.hpp"
#include "runtime/message.hpp"

namespace sanperf::runtime {

class Process;

class Layer {
 public:
  virtual ~Layer() = default;

  /// Called once when the cluster starts (before any event runs).
  virtual void on_start() {}
  /// Called for every message delivered to the process, bottom-up.
  virtual void on_message(const Message& m) = 0;
  /// Called when the hosting process crashes.
  virtual void on_crash() {}
  /// Called on a warm restart after a crash (fault injection). The default
  /// keeps the layer's state untouched; layers holding volatile protocol
  /// state or running timer loops override it to re-initialise -- all
  /// timers armed before the crash are dead by then (see Process::crash).
  virtual void on_restart() {}
  /// Called by Cluster::reset: return to the state right after construction
  /// and configuration, before on_start -- run state goes, settings made
  /// through the layer's setters stay, and so does storage, so a reset
  /// layer runs again without allocating. on_start runs again afterwards.
  /// The default throws std::logic_error: a layer that cannot be reset
  /// must not be reused by accident.
  virtual void on_reset();

  [[nodiscard]] Process& process() const { return *process_; }

 private:
  friend class Process;
  Process* process_ = nullptr;
};

using TimerId = des::EventId;

class Process {
 public:
  Process(HostId id, std::size_t n, des::Simulator& sim, net::ContentionNetwork& net,
          des::RandomEngine rng, net::TimerModel timers);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Appends a layer; returns a reference owned by the process.
  template <typename L, typename... Args>
  L& add_layer(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layer->process_ = this;
    layers_.push_back(std::move(layer));
    return ref;
  }

  /// First layer of dynamic type L; throws if absent.
  template <typename L>
  [[nodiscard]] L& layer() const {
    for (const auto& l : layers_) {
      if (auto* p = dynamic_cast<L*>(l.get())) return *p;
    }
    throw std::logic_error{"Process: no such layer"};
  }

  [[nodiscard]] HostId id() const { return id_; }
  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] des::TimePoint now() const { return sim_->now(); }
  [[nodiscard]] des::RandomEngine& rng() { return rng_; }
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Sends a unicast; `from` and `sent_at` are stamped here.
  void send(Message m, HostId dst);
  /// Sends to every other process, in ascending host-id order (the paper's
  /// implementation sends n-1 unicasts; the fixed order is what produces
  /// the n=3 participant-crash anomaly of Section 5.3).
  void broadcast(Message m);

  /// The event a timer schedules: `fn` behind the epoch guard, stored in
  /// the event itself -- inline in EventAction's buffer when it fits.
  template <typename F>
  class TimerEvent {
   public:
    TimerEvent(Process* proc, F fn) : proc_{proc}, epoch_{proc->epoch_}, fn_{std::move(fn)} {}
    void operator()() {
      if (proc_->timer_live(epoch_)) fn_();
    }

   private:
    Process* proc_;
    std::uint64_t epoch_;
    F fn_;
  };
  /// True when a timer running `F` is stored without allocating.
  template <typename F>
  static constexpr bool timer_fits_inline_v =
      des::EventAction::fits_inline_v<TimerEvent<std::decay_t<F>>>;

  /// Event-driven timer with exact expiry (message-handler work).
  template <typename F>
  TimerId set_timer(des::Duration delay, F&& fn) {
    return sim_->schedule(delay, TimerEvent<std::decay_t<F>>{this, std::forward<F>(fn)});
  }
  /// Thread-style timer subject to the OS timer model (tick quantisation +
  /// stalls); used by the heartbeat sender.
  template <typename F>
  TimerId set_os_timer(des::Duration delay, F&& fn) {
    return sim_->schedule_at(os_timer_expiry(delay),
                             TimerEvent<std::decay_t<F>>{this, std::forward<F>(fn)});
  }
  bool cancel_timer(TimerId id) { return sim_->cancel(id); }

  /// Crash-stop: the process stops sending, receiving and firing timers.
  /// Every timer armed before the crash is permanently dead (epoch guard),
  /// even if the process is later restarted.
  void crash();

  /// Warm restart after a crash: the host rejoins the network (frames flow
  /// and the TCP dead-peer state resets), and every layer's on_restart runs
  /// bottom-up. Pre-crash timers stay dead; pre-crash layer state survives
  /// unless the layer's on_restart discards it. No-op on a live process.
  void restart();

  /// Entry point used by the cluster when a packet reaches this host.
  void deliver(const Message& m);
  /// Runs every layer's on_start.
  void start();
  /// Back to the just-constructed state with `rng` as its stream: up, epoch
  /// and counters zero, every layer's on_reset run. Used by Cluster::reset
  /// once the simulator has dropped every pending event.
  void reset(des::RandomEngine rng);

  [[nodiscard]] std::uint64_t messages_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t messages_received() const { return received_; }

#if SANPERF_AUDIT_ENABLED
  /// Timers whose firing was suppressed because the process crashed (or
  /// crash-restarted) after arming them: evidence the epoch guard kills
  /// pre-crash timers instead of letting them run into post-restart state.
  [[nodiscard]] std::uint64_t audit_timers_suppressed() const { return audit_suppressed_; }
  /// Test-only corruption backdoor: arms a timer WITHOUT the epoch guard,
  /// so a pre-crash timer chain survives into the post-crash process. The
  /// audit check inside trips when the unguarded timer fires on a crashed
  /// or restarted process.
  TimerId audit_arm_unguarded_timer(des::Duration delay, std::function<void()> fn);
#endif

 private:
  /// The epoch guard of TimerEvent: true when a timer armed in `epoch`
  /// may run (counted as suppressed otherwise, in audit builds).
  bool timer_live(std::uint64_t epoch);
  [[nodiscard]] des::TimePoint os_timer_expiry(des::Duration delay);

  HostId id_;
  std::size_t n_;
  des::Simulator* sim_;
  net::ContentionNetwork* net_;
  des::RandomEngine rng_;
  net::TimerModel timers_;
  std::vector<std::unique_ptr<Layer>> layers_;
  bool crashed_ = false;
  /// Bumped on every crash: timers capture the epoch they were armed in and
  /// fire only if it still matches, so a warm restart cannot resurrect
  /// pre-crash timer chains (stale heartbeat rounds, stale FD wake-ups).
  std::uint64_t epoch_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
#if SANPERF_AUDIT_ENABLED
  std::uint64_t audit_suppressed_ = 0;
#endif
};

}  // namespace sanperf::runtime
