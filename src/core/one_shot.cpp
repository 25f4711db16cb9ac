#include "core/one_shot.hpp"

#include <stdexcept>

#include "consensus/ct_consensus.hpp"
#include "consensus/mr_consensus.hpp"
#include "core/worker_scratch.hpp"
#include "faults/injector.hpp"
#include "faults/lowering.hpp"
#include "san/study.hpp"

namespace sanperf::core {

namespace {

runtime::ClusterConfig cluster_config(const OneShotShape& shape) {
  runtime::ClusterConfig cfg;
  cfg.n = shape.n;
  cfg.network = shape.network;
  cfg.timers = shape.timers;
  cfg.topology = shape.topology;
  return cfg;  // the seed is set by every run's reset
}

/// The rig for one consensus layer type: StaticFd + `Layer` on every host.
template <typename Layer>
class RigOf final : public OneShotRig {
 public:
  explicit RigOf(const OneShotShape& shape) : OneShotRig{shape} {
    for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(shape.n); ++pid) {
      auto& proc = cluster_.process(pid);
      auto& fd_layer = proc.add_layer<fd::StaticFd>();
      auto& cons = proc.add_layer<Layer>(fd_layer);
      cons.set_decide_callback([this](const consensus::DecisionEvent& ev) { note_decision(ev); });
      detectors_.push_back(&fd_layer);
      layers_.push_back(&cons);
    }
  }

 private:
  void propose(runtime::HostId pid, std::int32_t cid, std::int64_t value) override {
    layers_[pid]->propose(cid, value);
  }

  std::vector<Layer*> layers_;
};

}  // namespace

OneShotRig::OneShotRig(const OneShotShape& shape)
    : cluster_{cluster_config(shape)}, shape_{shape} {}

OneShotRig::~OneShotRig() = default;

std::unique_ptr<OneShotRig> OneShotRig::build(const OneShotShape& shape) {
  switch (shape.algorithm) {
    case Algorithm::kChandraToueg:
      return std::make_unique<RigOf<consensus::CtConsensus>>(shape);
    case Algorithm::kMostefaouiRaynal:
      return std::make_unique<RigOf<consensus::MrConsensus>>(shape);
  }
  throw std::invalid_argument{"OneShotRig: unknown algorithm"};
}

void OneShotRig::note_decision(const consensus::DecisionEvent& ev) {
  if (!first_decide_ || ev.at < *first_decide_) {
    first_decide_ = ev.at;
    first_rounds_ = ev.round;
  }
}

ExecOutcome OneShotRig::run(int initially_crashed, std::size_t k, std::uint64_t exec_seed,
                            const faults::FaultPlan* plan) {
  // Crashing before the injector arms is the same as after: crashes are
  // idempotent and nothing has run or drawn yet.
  cluster_.reset(exec_seed, initially_crashed);
  std::optional<faults::FaultInjector> injector;
  if (plan != nullptr) injector.emplace(cluster_, *plan);

  // Domain-scoped events lower against the topology here too, so
  // initially_down sees the per-host form the injector replays.
  std::optional<faults::FaultPlan> lowered;
  if (plan != nullptr && plan->has_domain_events()) {
    lowered = faults::lower_plan(
        *plan, shape_.topology ? *shape_.topology : topo::Topology::single_hub(shape_.n));
    plan = &*lowered;
  }

  // The static detector pre-suspects every host down at the start: the
  // explicitly crashed one and everything the plan crashes at t <= 0.
  suspected_.clear();
  if (plan != nullptr) {
    for (const faults::HostId h : plan->initially_down()) suspected_.push_back(h);
  }
  if (initially_crashed >= 0) suspected_.push_back(static_cast<runtime::HostId>(initially_crashed));
  for (fd::StaticFd* detector : detectors_) detector->set_suspected(suspected_);

  first_decide_.reset();
  first_rounds_ = 0;
  if (injector) injector->arm();  // immediate crashes fire here

  // All correct processes propose at t0 (up to the emulated NTP skew).
  const des::TimePoint t0 = des::TimePoint::origin() + des::Duration::from_ms(1.0);
  auto skew_rng = cluster_.rng_stream("ntp-skew");
  for (runtime::HostId pid = 0; pid < static_cast<runtime::HostId>(shape_.n); ++pid) {
    if (cluster_.process(pid).crashed()) continue;
    const des::TimePoint start = t0 + des::Duration::from_ms(skew_rng.uniform(0.0, 0.05));
    const auto start_instance = [this, pid, k] {
      propose(pid, static_cast<std::int32_t>(k), 1 + static_cast<std::int64_t>(pid));
    };
    static_assert(des::EventAction::fits_inline_v<decltype(start_instance)>);
    cluster_.sim().schedule_at(start, start_instance);
  }

  const des::TimePoint deadline = t0 + des::Duration::from_ms(1000.0);
  cluster_.run_until([this] { return first_decide_.has_value(); }, deadline);

  ExecOutcome out;
  if (first_decide_) {
    out.latency_ms = (*first_decide_ - t0).to_ms();
    out.rounds = first_rounds_;
  }
  return out;
}

namespace detail {

ExecOutcome run_one_consensus_execution(const OneShotShape& shape, int initially_crashed,
                                        std::size_t k, std::uint64_t exec_seed,
                                        const faults::FaultPlan* plan, WorkerScratch* scratch) {
  if (scratch != nullptr) {
    return scratch->one_shot_rig(shape).run(initially_crashed, k, exec_seed, plan);
  }
  return OneShotRig::build(shape)->run(initially_crashed, k, exec_seed, plan);
}

}  // namespace detail

WorkerScratch::WorkerScratch() = default;
WorkerScratch::~WorkerScratch() = default;

OneShotRig& WorkerScratch::one_shot_rig(const OneShotShape& shape) {
  if (!rig_ || !(rig_->shape() == shape)) {
    rig_.reset();  // at most one rig per worker, even while re-shaping
    rig_ = OneShotRig::build(shape);
  }
  return *rig_;
}

san::SanSimulator& WorkerScratch::san_simulator(const san::TransientStudy& study) {
  if (san_study_ != &study) {
    san_.reset();
    san_ = std::make_unique<san::SanSimulator>(study.make_simulator());
    san_study_ = &study;
  }
  return *san_;
}

}  // namespace sanperf::core
