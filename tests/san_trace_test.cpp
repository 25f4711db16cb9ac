// Pinned firing traces of the paper's SAN models.
//
// Every SAN result the study reports (Table 1, the figures, the MR
// comparison) is a function of the exact sequence of firings the
// simulator makes and the RNG draws behind them. These tests pin that
// sequence: each run is hashed (64-bit FNV-1a) over its fire_hook stream
// (activity id, simulated time in ns), its end marking and its RunResult,
// and the hash must equal the value recorded for the model, class and
// seed. A change to the simulator that reorders a single draw, schedules
// one activity differently or leaves one place out of a refresh shows up
// here as a changed hash.
//
// The second half checks reset(): run -> reset(seed) -> run must give the
// same hash as a fresh simulator built with that seed, so the simulator's
// incremental state (enabled flags, enabled-instantaneous set, marking
// mirror, pending events) is fully rebuilt by reset().
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "fd/qos.hpp"
#include "san/simulator.hpp"
#include "sanmodels/consensus_model.hpp"
#include "sanmodels/mr_model.hpp"

namespace sanperf::sanmodels {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= kPrime;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Runs `sim` to its stop predicate (or the limit) and hashes the run.
std::uint64_t hashed_run(san::SanSimulator& sim) {
  Fnv1a h;
  sim.set_fire_hook([&h](san::ActivityId a, des::TimePoint at) {
    h.add(a);
    h.add(static_cast<std::uint64_t>(at.ns()));
  });
  const san::RunResult res = sim.run(des::Duration::seconds(5));
  sim.set_fire_hook(nullptr);
  for (const std::int32_t tokens : sim.marking().raw()) h.add(static_cast<std::uint32_t>(tokens));
  h.add(static_cast<std::uint64_t>(res.reason));
  h.add(static_cast<std::uint64_t>(res.end_time.ns()));
  h.add(res.firings);
  return h.value();
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

/// A model builder and the pinned run hash for each of kSeeds.
struct PinnedCase {
  std::string name;
  std::function<san::SanModel()> build;
  std::array<std::uint64_t, 3> hashes;
};

constexpr std::array<std::uint64_t, 3> kSeeds{1, 20020612, 1729};

fd::AbstractFdParams lossy_fd(fd::AbstractFdParams::Sojourn sojourn) {
  fd::QosEstimate qos;
  qos.t_mr_ms = 5.0;  // a mistake every 5 ms, lasting 1 ms on average
  qos.t_m_ms = 1.0;
  return fd::AbstractFdParams::from_qos(qos, sojourn);
}

/// Builders return the bare SanModel; the stop predicate is rebuilt from
/// the `decided` place by name (decided_in).
std::function<san::SanModel()> ct(std::size_t n, int crashed,
                                  std::optional<fd::AbstractFdParams> qos = std::nullopt) {
  return [=] {
    ConsensusSanConfig cfg;
    cfg.n = n;
    cfg.transport = TransportParams::nominal(n);
    cfg.initially_crashed = crashed;
    cfg.qos_fd = qos;
    return build_consensus_san(cfg).model;
  };
}

std::function<san::SanModel()> mr(std::size_t n, int crashed,
                                  std::optional<fd::AbstractFdParams> qos = std::nullopt) {
  return [=] {
    MrSanConfig cfg;
    cfg.n = n;
    cfg.transport = TransportParams::nominal(n);
    cfg.initially_crashed = crashed;
    cfg.qos_fd = qos;
    return build_mr_san(cfg).model;
  };
}

std::vector<PinnedCase> pinned_cases() {
  using Sojourn = fd::AbstractFdParams::Sojourn;
  return {
      {"ct_n3_class1", ct(3, -1),
       {0xf4459a99a2a843ee, 0x87b7a311ca2ec320, 0x7d4c52cac42d0215}},
      {"ct_n5_class1", ct(5, -1),
       {0xa202916b5fb47741, 0x8221dfe73048bec2, 0x7581522adabea25a}},
      {"ct_n3_coordinator_crash", ct(3, 0),
       {0x494ee06a56926688, 0xe9de9419fc651c82, 0x198b781d5c0924e1}},
      {"ct_n3_participant_crash", ct(3, 1),
       {0x6b41da2de9294c6d, 0x3643cb990a7784d2, 0xef0cb6e8c652f2b3}},
      {"ct_n5_coordinator_crash", ct(5, 0),
       {0x3ba645c2ee1af7b8, 0xf938aac0e9a10f9c, 0x4b13754d0386afb3}},
      {"ct_n5_participant_crash", ct(5, 1),
       {0xc18d3595e6e51c6a, 0x6787866dcc5cac8e, 0x2004ffb363f76d8c}},
      {"ct_n3_qos_exponential", ct(3, -1, lossy_fd(Sojourn::kExponential)),
       {0x1a0b86cffcf7fbb2, 0x38f8c478729457d5, 0xf25fcedd72d41d42}},
      {"ct_n5_qos_deterministic", ct(5, -1, lossy_fd(Sojourn::kDeterministic)),
       {0x85b763a28bf7d99f, 0x6fc58bd848cb89a5, 0x3c379b3f1f2d08b9}},
      {"mr_n3_class1", mr(3, -1),
       {0xf18e7ac6d929e6de, 0x04e77dc35e85e0c1, 0x28971a8345528b6b}},
      {"mr_n5_coordinator_crash", mr(5, 0),
       {0x42b4625d7b5183bc, 0x464bd79a63a74c7a, 0x000f1fa31bd90c8c}},
      {"mr_n3_qos_exponential", mr(3, -1, lossy_fd(Sojourn::kExponential)),
       {0xc5a9174a70ff64c9, 0xd5e738d583ca51c8, 0x4c95bad9ced44d8b}},
  };
}

std::function<bool(const san::Marking&)> decided_in(const san::SanModel& model) {
  const san::PlaceId d = model.find_place("decided");
  return [d](const san::Marking& m) { return m.get(d) > 0; };
}

TEST(SanTraceTest, FiringTracesMatchPinnedHashes) {
  for (const PinnedCase& c : pinned_cases()) {
    const san::SanModel model = c.build();
    model.prepare();
    for (std::size_t i = 0; i < kSeeds.size(); ++i) {
      san::SanSimulator sim{model, des::RandomEngine{kSeeds[i]}};
      sim.set_stop_predicate(decided_in(model));
      const std::uint64_t got = hashed_run(sim);
      EXPECT_EQ(got, c.hashes[i]) << c.name << " seed " << kSeeds[i] << ": got " << hex(got)
                                  << ", pinned " << hex(c.hashes[i]);
    }
  }
}

TEST(SanTraceTest, ResetMatchesAFreshSimulator) {
  for (const PinnedCase& c : pinned_cases()) {
    const san::SanModel model = c.build();
    model.prepare();
    // One simulator reused across every seed, in an order that differs
    // from the fresh runs, so each reset() starts from a used state.
    san::SanSimulator reused{model, des::RandomEngine{kSeeds.back()}};
    reused.set_stop_predicate(decided_in(model));
    (void)hashed_run(reused);
    for (std::size_t i = 0; i < kSeeds.size(); ++i) {
      san::SanSimulator fresh{model, des::RandomEngine{kSeeds[i]}};
      fresh.set_stop_predicate(decided_in(model));
      reused.reset(des::RandomEngine{kSeeds[i]});
      EXPECT_EQ(hashed_run(reused), hashed_run(fresh)) << c.name << " seed " << kSeeds[i];
    }
  }
}

}  // namespace
}  // namespace sanperf::sanmodels
