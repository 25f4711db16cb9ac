// Allocation and reuse contract of the one-shot path.
//
// This suite is its own executable because it replaces the global
// operator new with a counting one. It checks two things:
//   * a Table 1 execution on a one-shot rig that has run once, and a SAN
//     replication on a reused simulator, allocate nothing (audit builds
//     check instead that no EventAction falls back to the heap: their
//     ledgers allocate by design);
//   * a reset rig returns exactly what a freshly built one does -- the
//     outcome, the events executed and the frames sent -- across 1,000
//     seeds per n, after a reshape, and after MR and fault-plan executions
//     on the same worker.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "core/one_shot.hpp"
#include "core/simulation.hpp"
#include "core/worker_scratch.hpp"
#include "des/random.hpp"
#include "faults/plan.hpp"
#include "san/study.hpp"
#include "sanmodels/consensus_model.hpp"

namespace {

thread_local std::uint64_t tl_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++tl_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace sanperf;

core::OneShotShape ct_shape(std::size_t n) {
  core::OneShotShape shape;
  shape.n = n;
  return shape;
}

std::uint64_t exec_seed(std::uint64_t base, std::size_t k) {
  return des::SeedSplitter{base, "exec"}.stream_seed(k);
}

/// What a run must reproduce bit for bit.
struct Footprint {
  std::optional<double> latency_ms;
  std::int32_t rounds = 0;
  std::uint64_t events = 0;
  std::uint64_t frames = 0;

  friend bool operator==(const Footprint&, const Footprint&) = default;
};

Footprint run_on(core::OneShotRig& rig, int crashed, std::size_t k, std::uint64_t seed,
                 const faults::FaultPlan* plan = nullptr) {
  const core::ExecOutcome out = rig.run(crashed, k, seed, plan);
  return {out.latency_ms, out.rounds, rig.cluster().sim().events_processed(),
          rig.cluster().network().frames_sent()};
}

Footprint run_fresh(const core::OneShotShape& shape, int crashed, std::size_t k,
                    std::uint64_t seed) {
  return run_on(*core::OneShotRig::build(shape), crashed, k, seed);
}

std::uint64_t heap_fallbacks() {
#if SANPERF_AUDIT_ENABLED
  return des::audit_heap_fallback_total();
#else
  return 0;
#endif
}

TEST(OneShotAllocTest, TableOneExecutionOnAWarmRigAllocatesNothing) {
  for (const std::size_t n : {3u, 7u, 11u}) {
    for (const int crashed : {-1, 0, 1}) {
      const auto rig = core::OneShotRig::build(ct_shape(n));
      const std::uint64_t base = 200 + 100 * static_cast<std::uint64_t>(crashed + 1) + n;
      (void)rig->run(crashed, 0, exec_seed(base, 0));  // warm-up
      const std::uint64_t fallbacks = heap_fallbacks();
      const std::uint64_t before = tl_allocations;
      for (std::size_t k = 1; k <= 200; ++k) {
        const core::ExecOutcome out = rig->run(crashed, k, exec_seed(base, k));
        ASSERT_TRUE(out.latency_ms.has_value()) << "n=" << n << " crashed=" << crashed;
      }
      EXPECT_EQ(heap_fallbacks(), fallbacks) << "n=" << n << " crashed=" << crashed;
#if !SANPERF_AUDIT_ENABLED
      EXPECT_EQ(tl_allocations, before) << "n=" << n << " crashed=" << crashed;
#else
      static_cast<void>(before);
#endif
    }
  }
}

TEST(OneShotAllocTest, SanReplicationOnAReusedSimulatorAllocatesNothing) {
  for (const std::size_t n : {3u, 5u}) {
    for (const int crashed : {-1, 0, 1}) {
      sanmodels::ConsensusSanConfig cfg;
      cfg.n = n;
      cfg.transport = sanmodels::TransportParams::nominal(n);
      cfg.initially_crashed = crashed;
      core::ConsensusStudyBank bank;
      const san::TransientStudy& study = *bank.add(cfg);
      san::SanSimulator sim = study.make_simulator();
      const des::SeedSplitter seeds{7, "rep"};
      // The event slab grows to the model's largest pending set, which a
      // later replication may reach: warm up on the replications replayed.
      for (std::size_t r = 0; r < 200; ++r) {
        (void)study.run_one(des::RandomEngine{seeds.stream_seed(r)}, sim);
      }
      const std::uint64_t fallbacks = heap_fallbacks();
      const std::uint64_t before = tl_allocations;
      for (std::size_t r = 0; r < 200; ++r) {
        const auto reward = study.run_one(des::RandomEngine{seeds.stream_seed(r)}, sim);
        ASSERT_TRUE(reward.has_value());
      }
      EXPECT_EQ(heap_fallbacks(), fallbacks) << "n=" << n << " crashed=" << crashed;
#if !SANPERF_AUDIT_ENABLED
      EXPECT_EQ(tl_allocations, before) << "n=" << n << " crashed=" << crashed;
#else
      static_cast<void>(before);
#endif
    }
  }
}

TEST(OneShotAllocTest, ReusedSanSimulatorMatchesAFreshOne) {
  sanmodels::ConsensusSanConfig cfg;
  cfg.n = 5;
  cfg.transport = sanmodels::TransportParams::nominal(5);
  cfg.initially_crashed = 0;
  core::ConsensusStudyBank bank;
  const san::TransientStudy& study = *bank.add(cfg);
  san::SanSimulator sim = study.make_simulator();
  const des::SeedSplitter seeds{11, "rep"};
  for (std::size_t r = 0; r < 300; ++r) {
    const des::RandomEngine rng{seeds.stream_seed(r)};
    EXPECT_EQ(study.run_one(rng, sim), study.run_one(rng)) << r;
  }
}

TEST(OneShotResetTest, ResetRigMatchesAFreshRigForEverySeed) {
  for (const std::size_t n : {3u, 5u, 7u, 11u}) {
    const core::OneShotShape shape = ct_shape(n);
    const auto rig = core::OneShotRig::build(shape);
    for (std::size_t k = 0; k < 1000; ++k) {
      const int crashed = static_cast<int>(k % 3) - 1;  // -1, 0, 1 in turn
      const std::uint64_t seed = exec_seed(900 + n, k);
      ASSERT_EQ(run_on(*rig, crashed, k, seed), run_fresh(shape, crashed, k, seed))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(OneShotResetTest, MrRigResetMatchesAFreshRig) {
  core::OneShotShape shape = ct_shape(5);
  shape.algorithm = core::Algorithm::kMostefaouiRaynal;
  const auto rig = core::OneShotRig::build(shape);
  for (std::size_t k = 0; k < 300; ++k) {
    const int crashed = static_cast<int>(k % 3) - 1;
    const std::uint64_t seed = exec_seed(77, k);
    ASSERT_EQ(run_on(*rig, crashed, k, seed), run_fresh(shape, crashed, k, seed)) << k;
  }
}

TEST(OneShotResetTest, WorkerScratchMatchesFreshAfterReshapeMrAndFaultRuns) {
  core::WorkerScratch scratch;
  faults::FaultPlan plan;
  plan.add(faults::FaultPlan::crash_recover(2, 0.3, 0.4));
  plan.add(faults::FaultPlan::loss(0.0, 2.0, 0.2, 0.1));
  plan.add(faults::FaultPlan::cpu_slow(1, 0.0, 50.0, 3.0));
  plan.add(faults::FaultPlan::pipeline_slow(0.0, 50.0, 2.0));
  core::OneShotShape mr = ct_shape(3);
  mr.algorithm = core::Algorithm::kMostefaouiRaynal;

  for (std::size_t k = 0; k < 200; ++k) {
    const std::uint64_t seed = exec_seed(31, k);
    const int crashed = static_cast<int>(k % 3) - 1;
    // A large cluster first, then the worker re-shapes down to n = 3.
    (void)scratch.one_shot_rig(ct_shape(11)).run(crashed, k, seed);
    EXPECT_EQ(run_on(scratch.one_shot_rig(ct_shape(3)), crashed, k, seed),
              run_fresh(ct_shape(3), crashed, k, seed))
        << "after reshape, k=" << k;
    // An MR execution, then a fault-plan execution, then a plain one: the
    // plan's filter, scales, crashes and loss draws must leave no trace.
    (void)scratch.one_shot_rig(mr).run(crashed, k, seed);
    (void)scratch.one_shot_rig(ct_shape(3)).run(-1, k, seed, &plan);
    EXPECT_EQ(run_on(scratch.one_shot_rig(ct_shape(3)), crashed, k, seed),
              run_fresh(ct_shape(3), crashed, k, seed))
        << "after MR and fault-plan runs, k=" << k;
  }
}

TEST(OneShotResetTest, FaultPlanRunsMatchOnAResetRig) {
  faults::FaultPlan plan;
  plan.add(faults::FaultPlan::crash_recover(0, 0.5, 1.0));
  plan.add(faults::FaultPlan::loss(0.0, 3.0, 0.3));
  const core::OneShotShape shape = ct_shape(5);
  const auto rig = core::OneShotRig::build(shape);
  for (std::size_t k = 0; k < 200; ++k) {
    const std::uint64_t seed = exec_seed(5, k);
    const auto fresh = core::OneShotRig::build(shape);
    ASSERT_EQ(run_on(*rig, -1, k, seed, &plan), run_on(*fresh, -1, k, seed, &plan)) << k;
  }
}

}  // namespace
