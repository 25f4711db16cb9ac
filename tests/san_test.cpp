// Tests of the SAN formalism: distributions, model structure, simulator
// semantics (enabling, race policy, instantaneous priority, gates, cases),
// composition helpers and transient studies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "san/compose.hpp"
#include "san/distribution.hpp"
#include "san/model.hpp"
#include "san/simulator.hpp"
#include "san/study.hpp"

namespace sanperf::san {
namespace {

des::RandomEngine rng_for_test() { return des::RandomEngine{12345}; }

// --------------------------------------------------------------------------
// Distribution
// --------------------------------------------------------------------------

TEST(DistributionTest, DeterministicAlwaysSame) {
  auto rng = rng_for_test();
  const auto d = Distribution::deterministic_ms(0.025);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(d.sample(rng), des::Duration::from_ms(0.025));
  }
  EXPECT_TRUE(d.is_deterministic());
  EXPECT_DOUBLE_EQ(d.mean_ms(), 0.025);
}

TEST(DistributionTest, UniformBoundsAndMean) {
  auto rng = rng_for_test();
  const auto d = Distribution::uniform_ms(1.0, 3.0);
  double sum = 0;
  const int k = 20000;
  for (int i = 0; i < k; ++i) {
    const double x = d.sample(rng).to_ms();
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 3.0);
    sum += x;
  }
  EXPECT_NEAR(sum / k, 2.0, 0.02);
  EXPECT_DOUBLE_EQ(d.mean_ms(), 2.0);
  EXPECT_FALSE(d.is_deterministic());
}

TEST(DistributionTest, ExponentialMean) {
  auto rng = rng_for_test();
  const auto d = Distribution::exponential_ms(4.0);
  double sum = 0;
  const int k = 100000;
  for (int i = 0; i < k; ++i) sum += d.sample(rng).to_ms();
  EXPECT_NEAR(sum / k, 4.0, 0.1);
  EXPECT_DOUBLE_EQ(d.mean_ms(), 4.0);
}

TEST(DistributionTest, WeibullMean) {
  auto rng = rng_for_test();
  const auto d = Distribution::weibull_ms(2.0, 1.0);
  double sum = 0;
  const int k = 100000;
  for (int i = 0; i < k; ++i) sum += d.sample(rng).to_ms();
  const double expected = std::tgamma(1.5);  // scale * Gamma(1 + 1/k)
  EXPECT_NEAR(sum / k, expected, 0.01);
  EXPECT_NEAR(d.mean_ms(), expected, 1e-12);
}

TEST(DistributionTest, BimodalComponentsAndWeights) {
  auto rng = rng_for_test();
  const auto d = Distribution::bimodal_uniform_ms(0.8, 0.10, 0.13, 0.145, 0.35);
  int low = 0;
  const int k = 50000;
  for (int i = 0; i < k; ++i) {
    const double x = d.sample(rng).to_ms();
    EXPECT_TRUE((x >= 0.10 && x <= 0.13) || (x >= 0.145 && x <= 0.35));
    if (x <= 0.13) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / k, 0.8, 0.01);
  EXPECT_NEAR(d.mean_ms(), 0.8 * 0.115 + 0.2 * 0.2475, 1e-12);
}

TEST(DistributionTest, MixtureOfMixtures) {
  const auto bimodal = Distribution::bimodal_uniform_ms(0.5, 0.0, 1.0, 2.0, 3.0);
  const auto mixed = Distribution::mixture({{0.5, bimodal},
                                            {0.5, Distribution::deterministic_ms(10.0)}});
  EXPECT_NEAR(mixed.mean_ms(), 0.5 * 1.5 + 0.5 * 10.0, 1e-12);
}

TEST(DistributionTest, FromFitMatchesBimodal) {
  stats::BimodalUniform fit{0.7, 1.0, 2.0, 3.0, 4.0};
  const auto d = Distribution::from_fit(fit);
  EXPECT_NEAR(d.mean_ms(), fit.mean(), 1e-12);
}

TEST(DistributionTest, RejectsBadParameters) {
  EXPECT_THROW(Distribution::deterministic_ms(-1), std::invalid_argument);
  EXPECT_THROW(Distribution::exponential_ms(0), std::invalid_argument);
  EXPECT_THROW(Distribution::uniform_ms(2, 1), std::invalid_argument);
  EXPECT_THROW(Distribution::weibull_ms(0, 1), std::invalid_argument);
  EXPECT_THROW(Distribution::bimodal_uniform_ms(1.5, 0, 1, 2, 3), std::invalid_argument);
  EXPECT_THROW(Distribution::mixture({}), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Model structure
// --------------------------------------------------------------------------

TEST(SanModelTest, PlaceLookupAndInitialMarking) {
  SanModel m;
  const PlaceId a = m.place("a", 2);
  const PlaceId b = m.place("b");
  EXPECT_EQ(m.find_place("a"), a);
  EXPECT_TRUE(m.has_place("b"));
  EXPECT_FALSE(m.has_place("c"));
  EXPECT_THROW((void)m.find_place("c"), std::out_of_range);
  EXPECT_THROW(m.place("a"), std::logic_error);  // duplicate
  const Marking init = m.initial_marking();
  EXPECT_EQ(init.get(a), 2);
  EXPECT_EQ(init.get(b), 0);
}

TEST(SanModelTest, ValidateCatchesBadCaseProbabilities) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  m.instant_activity("act").in(a).case_prob(0.5).out(b).case_prob(0.3).out(b);
  EXPECT_THROW(m.validate(), std::logic_error);
}

TEST(SanModelTest, ValidateCatchesUntriggerableActivity) {
  SanModel m;
  const PlaceId b = m.place("b");
  m.instant_activity("act").out(b);  // no input arc, no gate
  EXPECT_THROW(m.validate(), std::logic_error);
}

TEST(SanModelTest, DependentsIndexCoversArcsAndGateReads) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId g = m.place("g", 0);
  const PlaceId out = m.place("out");
  const auto gate = m.input_gate("gate", {g}, [g](const Marking& mk) { return mk.get(g) > 0; });
  auto act = m.timed_activity("t", Distribution::deterministic_ms(1));
  act.in(a).in_gate(gate).out(out);
  const auto& deps_a = m.dependents(a);
  const auto& deps_g = m.dependents(g);
  ASSERT_EQ(deps_a.size(), 1u);
  ASSERT_EQ(deps_g.size(), 1u);
  EXPECT_EQ(deps_a[0], act.id());
  EXPECT_EQ(deps_g[0], act.id());
  EXPECT_TRUE(m.dependents(out).empty());
}

TEST(MarkingTest, RejectsNegativeTokens) {
  Marking m{2};
  m.set(0, 3);
  EXPECT_EQ(m.get(0), 3);
  EXPECT_THROW(m.set(1, -1), std::logic_error);
  EXPECT_THROW(m.add(1, -1), std::logic_error);
}

// --------------------------------------------------------------------------
// Simulator semantics
// --------------------------------------------------------------------------

TEST(SanSimulatorTest, SimpleTimedChainFiresInOrder) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  const PlaceId c = m.place("c");
  m.timed_activity("t1", Distribution::deterministic_ms(2)).in(a).out(b);
  m.timed_activity("t2", Distribution::deterministic_ms(3)).in(b).out(c);

  SanSimulator sim{m, rng_for_test()};
  const auto res = sim.run();
  EXPECT_EQ(res.reason, StopReason::kDeadlock);
  EXPECT_EQ(sim.marking().get(c), 1);
  EXPECT_EQ(res.end_time, des::TimePoint::origin() + des::Duration::from_ms(5));
  EXPECT_EQ(res.firings, 2u);
}

TEST(SanSimulatorTest, StopPredicateEndsRun) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  m.timed_activity("loop", Distribution::deterministic_ms(1)).in(a).out(a).out(b);

  SanSimulator sim{m, rng_for_test()};
  sim.set_stop_predicate([b](const Marking& mk) { return mk.get(b) >= 3; });
  const auto res = sim.run();
  EXPECT_EQ(res.reason, StopReason::kPredicate);
  EXPECT_EQ(sim.marking().get(b), 3);
  EXPECT_EQ(res.end_time, des::TimePoint::origin() + des::Duration::from_ms(3));
}

TEST(SanSimulatorTest, TimeLimitRespected) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  m.timed_activity("loop", Distribution::deterministic_ms(1)).in(a).out(a);
  SanSimulator sim{m, rng_for_test()};
  const auto res = sim.run(des::Duration::from_ms(10.5));
  EXPECT_EQ(res.reason, StopReason::kTimeLimit);
  EXPECT_EQ(res.firings, 10u);
}

TEST(SanSimulatorTest, InstantaneousFiresBeforeTimed) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  const PlaceId c = m.place("c");
  // Both enabled initially; the instantaneous one must win and disable the
  // timed one by stealing the token.
  m.timed_activity("slow", Distribution::deterministic_ms(1)).in(a).out(b);
  m.instant_activity("fast").in(a).out(c);
  SanSimulator sim{m, rng_for_test()};
  const auto res = sim.run();
  EXPECT_EQ(sim.marking().get(c), 1);
  EXPECT_EQ(sim.marking().get(b), 0);
  EXPECT_EQ(res.end_time, des::TimePoint::origin());
}

TEST(SanSimulatorTest, InstantaneousWeightsRespected) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId x = m.place("x");
  const PlaceId y = m.place("y");
  m.instant_activity("to_x", 3.0).in(a).out(x);
  m.instant_activity("to_y", 1.0).in(a).out(y);

  int hits_x = 0;
  const int k = 4000;
  SanSimulator sim{m, rng_for_test()};
  const des::RandomEngine master{777};
  for (int i = 0; i < k; ++i) {
    sim.reset(master.substream("rep", static_cast<std::uint64_t>(i)));
    sim.run();
    hits_x += sim.marking().get(x);
  }
  EXPECT_NEAR(static_cast<double>(hits_x) / k, 0.75, 0.03);
}

TEST(SanSimulatorTest, CaseProbabilitiesRespected) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId x = m.place("x");
  const PlaceId y = m.place("y");
  m.instant_activity("act").in(a).case_prob(0.25).out(x).case_prob(0.75).out(y);

  int hits_y = 0;
  const int k = 4000;
  SanSimulator sim{m, rng_for_test()};
  const des::RandomEngine master{778};
  for (int i = 0; i < k; ++i) {
    sim.reset(master.substream("rep", static_cast<std::uint64_t>(i)));
    sim.run();
    hits_y += sim.marking().get(y);
  }
  EXPECT_NEAR(static_cast<double>(hits_y) / k, 0.75, 0.03);
}

TEST(SanSimulatorTest, InputGatePredicateAndFunction) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId guard = m.place("guard", 0);
  const PlaceId out = m.place("out");
  const auto gate = m.input_gate(
      "g", {guard}, [guard](const Marking& mk) { return mk.get(guard) >= 2; },
      [guard](Marking& mk) { mk.set(guard, 0); });
  m.timed_activity("t", Distribution::deterministic_ms(1)).in(a).in_gate(gate).out(out);
  const PlaceId src = m.place("src", 2);
  m.timed_activity("feeder", Distribution::deterministic_ms(3)).in(src).out(guard);

  SanSimulator sim{m, rng_for_test()};
  sim.run();
  // feeder fires at 3 and 6; gate opens at 6; t fires at 7 and clears guard.
  EXPECT_EQ(sim.marking().get(out), 1);
  EXPECT_EQ(sim.marking().get(guard), 0);
  EXPECT_EQ(sim.now(), des::TimePoint::origin() + des::Duration::from_ms(7));
}

TEST(SanSimulatorTest, OutputGateRunsOnFiring) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId out = m.place("out");
  const auto og = m.output_gate("og", [out](Marking& mk) { mk.add(out, 5); });
  m.instant_activity("act").in(a).out_gate(og);
  SanSimulator sim{m, rng_for_test()};
  sim.run();
  EXPECT_EQ(sim.marking().get(out), 5);
}

TEST(SanSimulatorTest, RacePolicyAbortsDisabledActivation) {
  SanModel m;
  const PlaceId token = m.place("token", 1);
  const PlaceId fast_out = m.place("fast_out");
  const PlaceId slow_out = m.place("slow_out");
  // Two timed activities race for one token; the slower activation must be
  // aborted when the faster one consumes the token.
  m.timed_activity("fast", Distribution::deterministic_ms(1)).in(token).out(fast_out);
  m.timed_activity("slow", Distribution::deterministic_ms(5)).in(token).out(slow_out);
  SanSimulator sim{m, rng_for_test()};
  const auto res = sim.run();
  EXPECT_EQ(sim.marking().get(fast_out), 1);
  EXPECT_EQ(sim.marking().get(slow_out), 0);
  EXPECT_EQ(res.firings, 1u);
  EXPECT_EQ(res.end_time, des::TimePoint::origin() + des::Duration::from_ms(1));
}

TEST(SanSimulatorTest, ReenabledActivitySamplesAfresh) {
  SanModel m;
  const PlaceId gate_tokens = m.place("gt", 0);
  const PlaceId src = m.place("src", 2);
  const PlaceId out = m.place("out");
  // "work" is enabled only while gt > 0; the feeder pulses gt on and the
  // consumer pulls it off, forcing re-enabling cycles.
  m.timed_activity("feeder", Distribution::deterministic_ms(10)).in(src).out(gate_tokens);
  m.timed_activity("work", Distribution::deterministic_ms(4)).in(gate_tokens).out(out);
  SanSimulator sim{m, rng_for_test()};
  sim.run();
  // feeder at 10 -> work at 14; feeder at 20 -> work at 24.
  EXPECT_EQ(sim.marking().get(out), 2);
  EXPECT_EQ(sim.now(), des::TimePoint::origin() + des::Duration::from_ms(24));
}

TEST(SanSimulatorTest, MultiplicityRequiresEnoughTokens) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId out = m.place("out");
  // Consumes two tokens from `a` per firing.
  m.instant_activity("pair").in(a).in(a).out(out);
  SanSimulator sim{m, rng_for_test()};
  sim.run();
  EXPECT_EQ(sim.marking().get(out), 0);  // only one token: disabled

  SanModel m2;
  const PlaceId a2 = m2.place("a", 4);
  const PlaceId out2 = m2.place("out");
  m2.instant_activity("pair").in(a2).in(a2).out(out2);
  SanSimulator sim2{m2, rng_for_test()};
  sim2.run();
  EXPECT_EQ(sim2.marking().get(out2), 2);
  EXPECT_EQ(sim2.marking().get(a2), 0);
}

TEST(SanSimulatorTest, LivelockDetected) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  m.instant_activity("spin").in(a).out(a);
  SanSimulator sim{m, rng_for_test()};
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(SanSimulatorTest, FireHookAndCounts) {
  SanModel m;
  const PlaceId a = m.place("a", 3);
  const PlaceId b = m.place("b");
  const auto act = m.timed_activity("t", Distribution::deterministic_ms(1)).in(a).out(b);
  SanSimulator sim{m, rng_for_test()};
  int hook_calls = 0;
  sim.set_fire_hook([&](ActivityId id, des::TimePoint) {
    EXPECT_EQ(id, act.id());
    ++hook_calls;
  });
  sim.run();
  EXPECT_EQ(hook_calls, 3);
  EXPECT_EQ(sim.fire_count(act.id()), 3u);
  EXPECT_EQ(sim.total_firings(), 3u);
}

TEST(SanSimulatorTest, ResetRestoresInitialState) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  m.timed_activity("t", Distribution::deterministic_ms(1)).in(a).out(b);
  SanSimulator sim{m, rng_for_test()};
  sim.run();
  EXPECT_EQ(sim.marking().get(b), 1);
  sim.reset(rng_for_test());
  EXPECT_EQ(sim.marking().get(b), 0);
  EXPECT_EQ(sim.marking().get(a), 1);
  EXPECT_EQ(sim.total_firings(), 0u);
  sim.run();
  EXPECT_EQ(sim.marking().get(b), 1);
}

TEST(SanSimulatorTest, DeterministicGivenSeed) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  m.timed_activity("t", Distribution::uniform_ms(1, 5)).in(a).out(b).out(a);
  SanSimulator s1{m, des::RandomEngine{9}};
  SanSimulator s2{m, des::RandomEngine{9}};
  s1.set_stop_predicate([b](const Marking& mk) { return mk.get(b) >= 50; });
  s2.set_stop_predicate([b](const Marking& mk) { return mk.get(b) >= 50; });
  EXPECT_EQ(s1.run().end_time, s2.run().end_time);
}

// A single-server queue built from grab/serve pairs: utilisation and token
// conservation sanity-check of the resource idiom used by the transport
// chains.
TEST(SanSimulatorTest, ResourceGrabServeMutualExclusion) {
  SanModel m;
  const PlaceId jobs = m.place("jobs", 5);
  const PlaceId server = m.place("server", 1);
  const PlaceId busy = m.place("busy");
  const PlaceId done = m.place("done");
  m.instant_activity("grab").in(jobs).in(server).out(busy);
  m.timed_activity("serve", Distribution::deterministic_ms(2)).in(busy).out(done).out(server);
  SanSimulator sim{m, rng_for_test()};
  // busy can never exceed 1: the server place enforces mutual exclusion.
  sim.set_fire_hook([&](ActivityId, des::TimePoint) {
    EXPECT_LE(sim.marking().get(busy), 1);
  });
  const auto res = sim.run();
  EXPECT_EQ(sim.marking().get(done), 5);
  EXPECT_EQ(sim.marking().get(server), 1);
  // 5 jobs serialised at 2 ms each.
  EXPECT_EQ(res.end_time, des::TimePoint::origin() + des::Duration::from_ms(10));
}

// --------------------------------------------------------------------------
// Equivalence fuzz: SanSimulator against a full-scan reference stepper
// --------------------------------------------------------------------------

/// (activity, firing time in ns) per firing, in firing order.
using Trace = std::vector<std::pair<ActivityId, std::int64_t>>;

/// The simulator's semantics written as plainly as possible, for the fuzz
/// below: after every firing it re-evaluates every activity in ascending id
/// order (recounting input-arc multiplicities), it finds enabled
/// instantaneous activities by scanning them all, and the next timed
/// activity by scanning every activation for the smallest (time,
/// scheduling sequence). Given the same seed it must make the same RNG
/// draws in the same order as SanSimulator, firing for firing.
class ReferenceStepper {
 public:
  ReferenceStepper(const SanModel& model, des::RandomEngine rng,
                   std::function<bool(const Marking&)> stop)
      : model_{&model}, rng_{rng}, stop_{std::move(stop)}, marking_{model.initial_marking()},
        enabled_(model.activity_count(), false), due_(model.activity_count()) {
    refresh_all();
  }

  RunResult run(des::Duration limit, Trace& trace) {
    trace_ = &trace;
    const des::TimePoint deadline = des::TimePoint::origin() + limit;
    settle();
    while (true) {
      if (stop_(marking_)) return {StopReason::kPredicate, now_, firings_};
      std::optional<ActivityId> next;
      for (ActivityId a = 0; a < model_->activity_count(); ++a) {
        if (due_[a] && (!next || *due_[a] < *due_[*next])) next = a;
      }
      if (!next) return {StopReason::kDeadlock, now_, firings_};
      if (due_[*next]->first > deadline) return {StopReason::kTimeLimit, deadline, firings_};
      now_ = due_[*next]->first;
      fire(*next);
      settle();
    }
  }

  [[nodiscard]] const Marking& marking() const { return marking_; }

 private:
  [[nodiscard]] bool enabled(const Activity& act) const {
    for (const PlaceId p : act.input_places) {
      if (marking_.get(p) < std::count(act.input_places.begin(), act.input_places.end(), p)) {
        return false;
      }
    }
    return std::all_of(act.input_gates.begin(), act.input_gates.end(), [&](InputGateId g) {
      return model_->in_gate(g).enabled(marking_);
    });
  }

  void refresh_all() {
    for (ActivityId a = 0; a < model_->activity_count(); ++a) {
      const Activity& act = model_->activity(a);
      const bool en = enabled(act);
      if (en == enabled_[a]) continue;
      enabled_[a] = en;
      if (!act.timed) continue;
      due_[a].reset();
      if (en) due_[a] = std::make_pair(now_ + act.delay.sample(rng_), seq_++);
    }
  }

  void fire(ActivityId a) {
    const Activity& act = model_->activity(a);
    for (const PlaceId p : act.input_places) marking_.add(p, -1);
    for (const InputGateId g : act.input_gates) {
      if (model_->in_gate(g).fire) model_->in_gate(g).fire(marking_);
    }
    std::vector<double> probs;
    for (const Case& c : act.cases) probs.push_back(c.probability);
    const Case& chosen = act.cases.size() > 1 ? act.cases[rng_.categorical(probs)] : act.cases[0];
    for (const PlaceId p : chosen.output_places) marking_.add(p, 1);
    for (const OutputGateId g : chosen.output_gates) model_->out_gate(g).fire(marking_);
    trace_->emplace_back(a, now_.ns());
    ++firings_;
    enabled_[a] = false;
    due_[a].reset();
    refresh_all();
  }

  void settle() {
    while (!stop_(marking_)) {
      std::vector<ActivityId> ids;
      std::vector<double> weights;
      for (ActivityId a = 0; a < model_->activity_count(); ++a) {
        if (!enabled_[a] || model_->activity(a).timed) continue;
        ids.push_back(a);
        weights.push_back(model_->activity(a).weight);
      }
      if (ids.empty()) return;
      fire(ids.size() == 1 ? ids[0] : ids[rng_.categorical(weights)]);
    }
  }

  const SanModel* model_;
  des::RandomEngine rng_;
  std::function<bool(const Marking&)> stop_;
  Marking marking_;
  des::TimePoint now_;
  std::vector<bool> enabled_;
  std::vector<std::optional<std::pair<des::TimePoint, std::uint64_t>>> due_;
  std::uint64_t seq_ = 0;
  std::uint64_t firings_ = 0;
  Trace* trace_ = nullptr;
};

/// A marking change a gate function makes, aimed at any place (usually one
/// outside the gate's `reads`).
std::function<void(Marking&)> random_gate_fn(des::RandomEngine& g, PlaceId r) {
  switch (g.uniform_int(0, 2)) {
    case 0:
      return [r](Marking& m) { m.add(r, 1); };
    case 1:
      return [r](Marking& m) { m.set(r, 0); };
    default:
      return [r](Marking& m) {
        if (m.get(r) > 0) m.add(r, -1);
      };
  }
}

/// "<prefix><i>" (built by append: gcc 12 warns falsely on "a" + string).
std::string numbered(const char* prefix, std::int64_t i) {
  std::string out{prefix};
  out.append(std::to_string(i));
  return out;
}

/// A small random SAN: multiplicity arcs, inhibitor- and threshold-style
/// gates whose functions write places outside their reads, multi-case
/// activities (some with a zero-probability case), output gates, weighted
/// instantaneous ties, timed activities with tying deterministic delays,
/// and net-zero in(p).out(p) arcs.
SanModel random_model(des::RandomEngine& g) {
  SanModel m;
  const auto places = static_cast<PlaceId>(g.uniform_int(3, 7));
  for (PlaceId p = 0; p < places; ++p) {
    (void)m.place(numbered("p", p), static_cast<std::int32_t>(g.uniform_int(0, 2)));
  }
  auto any_place = [&] { return static_cast<PlaceId>(g.uniform_int(0, places - 1)); };
  const std::vector<double> weights{1.0, 1.0, 2.0, 0.5};
  const std::vector<std::vector<double>> case_sets{
      {1.0}, {0.3, 0.7}, {0.2, 0.5, 0.3}, {0.0, 0.6, 0.4}};
  const auto activities = g.uniform_int(3, 10);
  for (std::int64_t i = 0; i < activities; ++i) {
    const std::string name = numbered("a", i);
    std::optional<ActivityRef> act;
    if (g.bernoulli(0.5)) {
      const Distribution delays[] = {Distribution::deterministic_ms(1.0),
                                     Distribution::deterministic_ms(2.0),
                                     Distribution::exponential_ms(2.0),
                                     Distribution::uniform_ms(0.5, 3.0)};
      act.emplace(m.timed_activity(name, delays[g.uniform_int(0, 3)]));
    } else {
      act.emplace(m.instant_activity(name, weights[g.uniform_int(0, 3)]));
    }
    const auto arcs = g.uniform_int(0, 2);
    for (std::int64_t k = 0; k < arcs; ++k) {
      const PlaceId p = any_place();
      act->in(p);
      if (g.bernoulli(0.3)) act->in(p);  // multiplicity 2
    }
    if (arcs == 0 || g.bernoulli(0.4)) {
      const PlaceId q = any_place();
      const PlaceId q2 = any_place();
      const auto k = static_cast<std::int32_t>(g.uniform_int(1, 2));
      std::function<bool(const Marking&)> pred;
      std::vector<PlaceId> reads{q};
      switch (g.uniform_int(0, 2)) {
        case 0:
          pred = [q, k](const Marking& mk) { return mk.get(q) >= k; };
          break;
        case 1:
          pred = [q](const Marking& mk) { return mk.get(q) == 0; };
          break;
        default:
          reads.push_back(q2);
          pred = [q, q2](const Marking& mk) { return mk.get(q) > mk.get(q2); };
          break;
      }
      std::function<void(Marking&)> fn;
      if (g.bernoulli(0.6)) fn = random_gate_fn(g, any_place());
      act->in_gate(m.input_gate(name + ".ig", reads, pred, fn));
    }
    std::optional<PlaceId> net_zero;
    if (g.bernoulli(0.25)) {
      net_zero = any_place();
      act->in(*net_zero);
    }
    const auto& probs = case_sets[static_cast<std::size_t>(g.uniform_int(0, 3))];
    for (std::size_t c = 0; c < probs.size(); ++c) {
      if (probs.size() > 1) act->case_prob(probs[c]);
      // ActivityRef::case_prob reuses a still-empty case, so every case of
      // a multi-case activity gets an output.
      const auto outs = g.uniform_int(probs.size() > 1 ? 1 : 0, 2);
      for (std::int64_t k = 0; k < outs; ++k) act->out(any_place());
      if (net_zero) act->out(*net_zero);
      if (g.bernoulli(0.25)) {
        act->out_gate(m.output_gate(name + numbered(".og", static_cast<std::int64_t>(c)),
                                    random_gate_fn(g, any_place())));
      }
    }
  }
  m.validate();
  return m;
}

TEST(SanSimulatorTest, MatchesFullScanReferenceOnRandomModels) {
  constexpr std::uint64_t kMaxFirings = 150;
  const des::RandomEngine master{20020612};
  std::uint64_t total_firings = 0;
  for (std::uint64_t model_index = 0; model_index < 400; ++model_index) {
    auto shape = master.substream("model", model_index);
    const SanModel model = random_model(shape);
    // Runs stop after kMaxFirings (instantaneous livelocks are legal here)
    // or once place 0 holds 6 tokens.
    auto stop_after = [](const Trace& trace) {
      return [&trace](const Marking& mk) {
        return trace.size() >= kMaxFirings || mk.get(0) >= 6;
      };
    };
    Trace got;
    Trace want;
    SanSimulator sim{model, master.substream("run", model_index)};
    sim.set_stop_predicate(stop_after(got));
    sim.set_fire_hook([&got](ActivityId a, des::TimePoint at) { got.emplace_back(a, at.ns()); });
    // One simulator per model, reset between seeds, so reset() is fuzzed too.
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const auto rng = master.substream("run", model_index * 3 + seed);
      got.clear();
      sim.reset(rng);
      const RunResult res = sim.run(des::Duration::from_ms(40));

      want.clear();
      ReferenceStepper ref{model, rng, stop_after(want)};
      const RunResult ref_res = ref.run(des::Duration::from_ms(40), want);

      ASSERT_EQ(got, want) << "model " << model_index << " seed " << seed;
      ASSERT_EQ(sim.marking(), ref.marking()) << "model " << model_index << " seed " << seed;
      ASSERT_EQ(res.reason, ref_res.reason) << "model " << model_index << " seed " << seed;
      ASSERT_EQ(res.end_time, ref_res.end_time) << "model " << model_index << " seed " << seed;
      ASSERT_EQ(res.firings, ref_res.firings) << "model " << model_index << " seed " << seed;
      total_firings += res.firings;
    }
  }
  EXPECT_GT(total_firings, 40'000u);  // the fuzz actually exercises the firing loop
}

// --------------------------------------------------------------------------
// Composition helpers
// --------------------------------------------------------------------------

TEST(ComposeTest, ScopeQualifiesNames) {
  SanModel m;
  const Scope scope{m, "P1"};
  const PlaceId p = scope.place("state", 1);
  EXPECT_EQ(m.place_name(p), "P1.state");
  EXPECT_EQ(scope.find_place("state"), p);
  const Scope child = scope.sub("A");
  child.place("x");
  EXPECT_TRUE(m.has_place("P1.A.x"));
}

TEST(ComposeTest, RepBuildsDisjointReplicasSharingPlaces) {
  SanModel m;
  const PlaceId shared = m.place("shared", 0);
  rep(m, "R", 3, [shared](const Scope& scope, std::size_t) {
    const PlaceId local = scope.place("tok", 1);
    scope.instant_activity("fire").in(local).out(shared);
  });
  m.validate();
  EXPECT_TRUE(m.has_place("R[0].tok"));
  EXPECT_TRUE(m.has_place("R[2].tok"));
  SanSimulator sim{m, rng_for_test()};
  sim.run();
  EXPECT_EQ(sim.marking().get(shared), 3);  // JOIN via the shared place
}

TEST(ComposeTest, JoinRunsEveryPart) {
  SanModel m;
  const PlaceId shared = m.place("bus", 1);
  join(m, {{"producer",
            [shared](const Scope& s) {
              const PlaceId p = s.place("go", 1);
              s.instant_activity("put").in(p).out(shared);
            }},
           {"consumer",
            [shared](const Scope& s) {
              const PlaceId sink = s.place("sink");
              s.instant_activity("take").in(shared).out(sink);
            }}});
  m.validate();
  EXPECT_TRUE(m.has_place("producer.go"));
  EXPECT_TRUE(m.has_place("consumer.sink"));
}

// --------------------------------------------------------------------------
// Transient studies
// --------------------------------------------------------------------------

TEST(TransientStudyTest, TimeToAbsorptionMeanAndCi) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  m.timed_activity("t", Distribution::uniform_ms(2, 4)).in(a).out(b);
  TransientStudy study{m, [b](const Marking& mk) { return mk.get(b) > 0; }};
  const auto result = study.run(2000, 4242);
  EXPECT_EQ(result.rewards.size(), 2000u);
  EXPECT_NEAR(result.summary.mean(), 3.0, 0.05);
  EXPECT_TRUE(result.ci.contains(result.summary.mean()));
  EXPECT_EQ(result.dropped, 0u);
  EXPECT_GT(result.ci.half_width, 0.0);
}

TEST(TransientStudyTest, ReproducibleForSameSeed) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  m.timed_activity("t", Distribution::exponential_ms(1)).in(a).out(b);
  TransientStudy study{m, [b](const Marking& mk) { return mk.get(b) > 0; }};
  const auto r1 = study.run(100, 1);
  const auto r2 = study.run(100, 1);
  EXPECT_EQ(r1.rewards, r2.rewards);
  const auto r3 = study.run(100, 2);
  EXPECT_NE(r1.rewards, r3.rewards);
}

TEST(TransientStudyTest, DropsRunsThatNeverStop) {
  SanModel m;
  const PlaceId a = m.place("a", 1);
  const PlaceId b = m.place("b");
  // Fires into an absorbing place that never satisfies the predicate.
  m.timed_activity("t", Distribution::deterministic_ms(1)).in(a).out(b);
  const PlaceId never = m.place("never");
  TransientStudy study{m, [never](const Marking& mk) { return mk.get(never) > 0; }};
  study.set_time_limit(des::Duration::from_ms(10));
  const auto result = study.run(50, 3);
  EXPECT_EQ(result.dropped, 50u);
  EXPECT_TRUE(result.rewards.empty());
}

TEST(TransientStudyTest, CustomReward) {
  SanModel m;
  const PlaceId a = m.place("a", 3);
  const PlaceId b = m.place("b");
  const auto act = m.timed_activity("t", Distribution::deterministic_ms(1)).in(a).out(b);
  TransientStudy study{
      m, [b](const Marking& mk) { return mk.get(b) >= 3; },
      [act](const SanSimulator& sim, const RunResult&) {
        return static_cast<double>(sim.fire_count(act.id()));
      }};
  const auto result = study.run(10, 5);
  for (const double r : result.rewards) EXPECT_DOUBLE_EQ(r, 3.0);
}

}  // namespace
}  // namespace sanperf::san
