// Tests of the Mostefaoui-Raynal consensus layer: safety, liveness in all
// run classes, crash handling and the structural differences from
// Chandra-Toueg (message counts, rounds after a coordinator crash).
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "consensus/ct_consensus.hpp"
#include "consensus/mr_consensus.hpp"
#include "fd/failure_detector.hpp"
#include "fd/heartbeat_fd.hpp"
#include "runtime/cluster.hpp"
#include "runtime/trace.hpp"
#include "stats/summary.hpp"

namespace sanperf::consensus {
namespace {

using fd::HeartbeatFd;
using fd::HeartbeatFdParams;
using fd::StaticFd;
using runtime::Cluster;
using runtime::ClusterConfig;
using runtime::HostId;

ClusterConfig base_config(std::size_t n, std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.n = n;
  cfg.seed = seed;
  cfg.timers = net::TimerModel::ideal();
  return cfg;
}

struct RunOutcome {
  std::optional<double> first_decide_ms;
  std::int32_t first_rounds = 0;
  std::vector<std::optional<std::int64_t>> decisions;
};

RunOutcome run_static(std::size_t n, int crashed, std::uint64_t seed) {
  Cluster cluster{base_config(n, seed)};
  std::set<HostId> suspected;
  if (crashed >= 0) suspected.insert(static_cast<HostId>(crashed));

  RunOutcome out;
  out.decisions.assign(n, std::nullopt);
  std::optional<des::TimePoint> first;
  for (HostId i = 0; i < static_cast<HostId>(n); ++i) {
    auto& proc = cluster.process(i);
    auto& fd_layer = proc.add_layer<StaticFd>(suspected);
    auto& cons = proc.add_layer<MrConsensus>(fd_layer);
    cons.set_decide_callback([&out, &first, i](const DecisionEvent& ev) {
      out.decisions[i] = ev.value;
      if (!first || ev.at < *first) {
        first = ev.at;
        out.first_rounds = ev.round;
      }
    });
  }
  if (crashed >= 0) cluster.crash_initially(static_cast<HostId>(crashed));

  const des::TimePoint t0 = des::TimePoint::origin() + des::Duration::from_ms(1.0);
  for (HostId i = 0; i < static_cast<HostId>(n); ++i) {
    auto& proc = cluster.process(i);
    if (proc.crashed()) continue;
    cluster.sim().schedule_at(t0, [&proc] {
      proc.layer<MrConsensus>().propose(0, 100 + proc.id());
    });
  }
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(500));
  if (first) out.first_decide_ms = (*first - t0).to_ms();
  return out;
}

TEST(MrConsensusTest, FailureFreeDecidesInOneRound) {
  const auto out = run_static(3, -1, 1);
  ASSERT_TRUE(out.first_decide_ms.has_value());
  EXPECT_EQ(out.first_rounds, 1);
  std::set<std::int64_t> values;
  for (const auto& d : out.decisions) {
    ASSERT_TRUE(d.has_value());
    values.insert(*d);
  }
  EXPECT_EQ(values.size(), 1u);
  // The round-1 coordinator imposes its value.
  EXPECT_EQ(*values.begin(), 100);
}

TEST(MrConsensusTest, CoordinatorCrashCostsExactlyOneRound) {
  // MR has no abort round trip: round 1 fills with bottoms and round 2
  // decides. (CT needs the full nack exchange.)
  const auto out = run_static(5, /*crashed=*/0, 2);
  ASSERT_TRUE(out.first_decide_ms.has_value());
  EXPECT_EQ(out.first_rounds, 2);
  std::set<std::int64_t> values;
  for (std::size_t i = 1; i < 5; ++i) {
    ASSERT_TRUE(out.decisions[i].has_value());
    values.insert(*out.decisions[i]);
  }
  EXPECT_EQ(values.size(), 1u);
  EXPECT_EQ(*values.begin(), 101);  // round 2's coordinator value
}

TEST(MrConsensusTest, ParticipantCrashStillOneRound) {
  const auto out = run_static(5, /*crashed=*/2, 3);
  ASSERT_TRUE(out.first_decide_ms.has_value());
  EXPECT_EQ(out.first_rounds, 1);
}

// Safety sweep mirroring the CT one.
struct SafetyParam {
  std::size_t n;
  int crashed;
  std::uint64_t seed;
};

class MrSafetyTest : public ::testing::TestWithParam<SafetyParam> {};

TEST_P(MrSafetyTest, AgreementValidityTermination) {
  const auto p = GetParam();
  const auto out = run_static(p.n, p.crashed, p.seed);
  ASSERT_TRUE(out.first_decide_ms.has_value());
  std::set<std::int64_t> values;
  for (std::size_t i = 0; i < p.n; ++i) {
    if (static_cast<int>(i) == p.crashed) continue;
    ASSERT_TRUE(out.decisions[i].has_value()) << "process " << i;
    values.insert(*out.decisions[i]);
  }
  EXPECT_EQ(values.size(), 1u);
  EXPECT_GE(*values.begin(), 100);
  EXPECT_LT(*values.begin(), 100 + static_cast<std::int64_t>(p.n));
}

std::vector<SafetyParam> safety_params() {
  std::vector<SafetyParam> ps;
  for (const std::size_t n : {3u, 5u, 7u}) {
    for (const int crashed : {-1, 0, 1}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) ps.push_back({n, crashed, seed * 7});
    }
  }
  return ps;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MrSafetyTest, ::testing::ValuesIn(safety_params()),
                         [](const auto& info) {
                           const auto& p = info.param;
                           return std::string{"n"} + std::to_string(p.n) + "_crash" +
                                  std::to_string(p.crashed + 1) + "_seed" +
                                  std::to_string(p.seed);
                         });

TEST(MrConsensusTest, QuadraticMessageComplexity) {
  // MR's all-to-all phase: per failure-free execution roughly n(n-1) AUX
  // unicasts vs CT's ~3n messages.
  for (const std::size_t n : {3u, 5u}) {
    Cluster cluster{base_config(n, 6)};
    std::vector<runtime::TraceLayer*> traces;
    for (HostId i = 0; i < static_cast<HostId>(n); ++i) {
      auto& proc = cluster.process(i);
      traces.push_back(&proc.add_layer<runtime::TraceLayer>());
      auto& fd_layer = proc.add_layer<StaticFd>();
      proc.add_layer<MrConsensus>(fd_layer);
    }
    cluster.run_until(des::TimePoint::origin());
    for (HostId i = 0; i < static_cast<HostId>(n); ++i) {
      cluster.process(i).layer<MrConsensus>().propose(0, i);
    }
    cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(50));
    std::uint64_t aux_received = 0;
    for (const auto* t : traces) aux_received += t->count(runtime::MsgKind::kAux);
    // Round 1 alone: n broadcasts of n-1 unicasts each.
    EXPECT_GE(aux_received, static_cast<std::uint64_t>(n * (n - 1)));
  }
}

TEST(MrConsensusTest, StatsCountBottoms) {
  const auto n = 5u;
  Cluster cluster{base_config(n, 8)};
  std::set<HostId> suspected{0};
  for (HostId i = 0; i < static_cast<HostId>(n); ++i) {
    auto& proc = cluster.process(i);
    auto& fd_layer = proc.add_layer<StaticFd>(suspected);
    proc.add_layer<MrConsensus>(fd_layer);
  }
  cluster.crash_initially(0);
  cluster.run_until(des::TimePoint::origin());
  for (HostId i = 1; i < static_cast<HostId>(n); ++i) {
    cluster.process(i).layer<MrConsensus>().propose(0, i);
  }
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(100));
  for (HostId i = 1; i < static_cast<HostId>(n); ++i) {
    const auto& s = cluster.process(i).layer<MrConsensus>().stats();
    EXPECT_GE(s.bottom_aux, 1u);  // round 1's coordinator was dead
    EXPECT_GE(s.rounds_entered, 2u);
  }
}

TEST(MrConsensusClass3Test, DecidesAndAgreesUnderWrongSuspicions) {
  ClusterConfig cfg;
  cfg.n = 3;
  cfg.seed = 99;
  cfg.timers = net::TimerModel::defaults();
  Cluster cluster{cfg};
  const auto fd_params = HeartbeatFdParams::from_timeout_ms(3.0);
  for (HostId i = 0; i < 3; ++i) {
    auto& proc = cluster.process(i);
    auto& hb = proc.add_layer<HeartbeatFd>(fd_params);
    proc.add_layer<MrConsensus>(hb);
  }
  int decided = 0;
  std::set<std::int64_t> values;
  for (HostId i = 0; i < 3; ++i) {
    cluster.process(i).layer<MrConsensus>().set_decide_callback(
        [&](const DecisionEvent& ev) {
          ++decided;
          values.insert(ev.value);
        });
  }
  const auto t0 = des::TimePoint::origin() + des::Duration::from_ms(30);
  for (HostId i = 0; i < 3; ++i) {
    auto& proc = cluster.process(i);
    cluster.sim().schedule_at(t0, [&proc] {
      proc.layer<MrConsensus>().propose(0, 200 + proc.id());
    });
  }
  cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(3000));
  EXPECT_EQ(decided, 3);
  EXPECT_EQ(values.size(), 1u);
}

TEST(MrVsCtTest, MrFasterFailureFreeAtSmallN) {
  // MR needs two communication steps, CT three: on an uncontended network
  // MR decides first for n = 3.
  auto run_ct = [](std::uint64_t seed) {
    Cluster cluster{base_config(3, seed)};
    std::optional<des::TimePoint> first;
    for (HostId i = 0; i < 3; ++i) {
      auto& proc = cluster.process(i);
      auto& fd_layer = proc.add_layer<StaticFd>();
      auto& cons = proc.add_layer<CtConsensus>(fd_layer);
      cons.set_decide_callback([&first](const DecisionEvent& ev) {
        if (!first || ev.at < *first) first = ev.at;
      });
    }
    const auto t0 = des::TimePoint::origin() + des::Duration::from_ms(1);
    for (HostId i = 0; i < 3; ++i) {
      auto& proc = cluster.process(i);
      cluster.sim().schedule_at(t0, [&proc] { proc.layer<CtConsensus>().propose(0, 1); });
    }
    cluster.run_until(des::TimePoint::origin() + des::Duration::from_ms(100));
    return (*first - t0).to_ms();
  };

  stats::SummaryStats ct, mr;
  for (std::uint64_t s = 1; s <= 40; ++s) {
    ct.add(run_ct(s));
    const auto out = run_static(3, -1, s);
    mr.add(*out.first_decide_ms);
  }
  EXPECT_LT(mr.mean(), ct.mean());
}

TEST(MrVsCtTest, MessageComplexityLinearVsQuadratic) {
  // The structural difference: per failure-free execution CT sends
  // Theta(n) messages (ests + proposal + replies), MR Theta(n^2) (the
  // all-to-all aux phase). Count actual frames on the network.
  auto frames_for = [](bool use_mr, std::size_t n, std::uint64_t seed) {
    Cluster cluster{base_config(n, seed)};
    std::optional<des::TimePoint> first;
    for (HostId i = 0; i < static_cast<HostId>(n); ++i) {
      auto& proc = cluster.process(i);
      auto& fd_layer = proc.add_layer<StaticFd>();
      if (use_mr) {
        proc.add_layer<MrConsensus>(fd_layer).set_decide_callback(
            [&first](const DecisionEvent& ev) {
              if (!first || ev.at < *first) first = ev.at;
            });
      } else {
        proc.add_layer<CtConsensus>(fd_layer).set_decide_callback(
            [&first](const DecisionEvent& ev) {
              if (!first || ev.at < *first) first = ev.at;
            });
      }
    }
    const auto t0 = des::TimePoint::origin() + des::Duration::from_ms(1);
    for (HostId i = 0; i < static_cast<HostId>(n); ++i) {
      auto& proc = cluster.process(i);
      cluster.sim().schedule_at(t0, [&proc, use_mr] {
        if (use_mr) {
          proc.layer<MrConsensus>().propose(0, 1);
        } else {
          proc.layer<CtConsensus>().propose(0, 1);
        }
      });
    }
    cluster.run_until([&] { return first.has_value(); },
                      des::TimePoint::origin() + des::Duration::from_ms(100));
    return cluster.network().frames_sent();
  };

  for (const std::size_t n : {5u, 7u}) {
    const auto ct_frames = frames_for(false, n, 11);
    const auto mr_frames = frames_for(true, n, 11);
    EXPECT_GT(mr_frames, ct_frames) << "n=" << n;
    // At n=7 the quadratic aux phase dominates clearly.
    if (n == 7) {
      EXPECT_GT(mr_frames, ct_frames * 3 / 2);
    }
  }
}

TEST(MrVsCtTest, BothRecoverFromInitialCoordinatorCrashInRoundTwo) {
  // MR pays one round of bottoms (a full majority exchange); CT's
  // entry-nack advance is cheap but its second round has three steps.
  // Neither dominates structurally -- both must simply finish in round 2.
  const auto mr = run_static(5, 0, 12);
  ASSERT_TRUE(mr.first_decide_ms.has_value());
  EXPECT_EQ(mr.first_rounds, 2);
  EXPECT_LT(*mr.first_decide_ms, 5.0);
}

}  // namespace
}  // namespace sanperf::consensus
