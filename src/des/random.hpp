// Seeded random engine with named substreams.
//
// Every stochastic component takes a RandomEngine (or derives a substream
// from one); a run is fully determined by its master seed. Substreams are
// derived by hashing the parent seed with a label, so adding a new consumer
// does not perturb the draws seen by existing ones.
//
// The generator is Mt64, the 64-bit Mersenne Twister MT19937-64 (Nishimura,
// "Tables of 64-bit Mersenne Twisters", ACM TOMACS 2000). Its output equals
// that of the standard library's 64-bit Mersenne Twister (the
// std::mersenne_twister_engine instantiation with 312 words of state) for
// every seed and every draw count, and the <random> distributions the engine
// uses consume the same words from either. That equality is part of the
// determinism contract: every golden, digest and CSV was produced by the
// standard engine and must reproduce bit for bit. Mt64 differs only in when
// it does the work: construction stores the seed, and each draw seeds and
// twists in place just the state words it reads. An engine that makes d
// draws (0 < d < 156) seeds d + 156 words and twists d, where the standard
// engine seeds all 312 on construction and twists all 312 on its first draw.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sanperf::des {

/// MT19937-64 with lazily seeded state. Meets the UniformRandomBitGenerator
/// requirements over the full 64-bit range. Copies (and moves, which copy)
/// continue the sequence exactly where the source stands; they copy only the
/// seeded words, so copying a fresh engine is as cheap as constructing one.
class Mt64 {
 public:
  using result_type = std::uint64_t;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt64(result_type seed) noexcept { x_[0] = seed; }
  Mt64(const Mt64& other) noexcept : seeded_{other.seeded_}, next_{other.next_} {
    std::copy_n(other.x_.begin(), seeded_, x_.begin());
  }
  Mt64& operator=(const Mt64& other) noexcept {
    seeded_ = other.seeded_;
    next_ = other.next_;
    std::copy_n(other.x_.begin(), seeded_, x_.begin());
    return *this;
  }

  /// Twists word next_ in place (the batch generator's order, one word at a
  /// time) and returns it tempered. In the first generation word k reads
  /// seed words k + 1 and k + 156, so only those are seeded first.
  result_type operator()() noexcept {
    const std::uint32_t k = next_;
    if (seeded_ < kN) seed_until(std::min(k + kM + 1, kN));
    const std::uint32_t k1 = k + 1 == kN ? 0 : k + 1;
    const std::uint64_t y = (x_[k] & kUpperMask) | (x_[k1] & kLowerMask);
    std::uint64_t z = x_[k < kN - kM ? k + kM : k + kM - kN] ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0);
    x_[k] = z;
    next_ = k1;
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::uint32_t kN = 312;
  static constexpr std::uint32_t kM = 156;
  static constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
  static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLowerMask = ~kUpperMask;

  /// Computes seed words [seeded_, count) of the standard initialisation.
  void seed_until(std::uint32_t count) noexcept {
    std::uint64_t word = x_[seeded_ - 1];  // carried in a register, not reloaded
    for (std::uint32_t i = seeded_; i < count; ++i) {
      word = 6364136223846793005ULL * (word ^ (word >> 62)) + i;
      x_[i] = word;
    }
    seeded_ = count;
  }

  std::uint32_t seeded_ = 1;  // x_[0, seeded_) hold live words; the rest are unseeded
  std::uint32_t next_ = 0;    // the word the next draw twists and returns
  std::array<std::uint64_t, kN> x_;
};

class RandomEngine {
 public:
  explicit RandomEngine(std::uint64_t seed);

  /// Derives an independent child engine. Deterministic in (seed, label, index).
  [[nodiscard]] RandomEngine substream(std::string_view label, std::uint64_t index = 0) const;

  /// Uniform real in [a, b).
  [[nodiscard]] double uniform(double a, double b);
  /// Uniform real in [0, 1).
  [[nodiscard]] double uniform01();
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Exponential with the given mean (not rate). Requires mean > 0.
  [[nodiscard]] double exponential_mean(double mean);
  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev);
  /// Weibull with shape k and scale lambda.
  [[nodiscard]] double weibull(double shape, double scale);
  /// Bernoulli trial.
  [[nodiscard]] bool bernoulli(double p);
  /// Index in [0, weights.size()) drawn proportionally to weights.
  [[nodiscard]] std::size_t categorical(const std::vector<double>& weights);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Raw 64-bit draw (for hashing/shuffling utilities).
  [[nodiscard]] std::uint64_t next_u64() { return gen_(); }

  using result_type = Mt64::result_type;

 private:
  std::uint64_t seed_;
  Mt64 gen_;
};

/// SplitMix64 finalizer; used for seed derivation and stable hashing.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// Seed for the substream of `parent_seed` named (label, index). This is the
/// derivation RandomEngine::substream uses; exposed so seeds can be split
/// without instantiating engines.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t parent_seed, std::string_view label,
                                        std::uint64_t index = 0);

/// Splits one master seed into arbitrarily many independent replication
/// streams. stream(i) is pure in (master_seed, label, i): replication i sees
/// the same draws no matter how many threads run the campaign or in which
/// order replications execute. stream(i) equals
/// RandomEngine{master}.substream(label, i); stream_seed(i) is its seed alone.
/// The engine costs no more than its seed: its state is seeded on its first
/// draws, not when it is constructed.
class SeedSplitter {
 public:
  explicit SeedSplitter(std::uint64_t master_seed, std::string_view label = "rep")
      : master_{master_seed}, label_{label} {}

  [[nodiscard]] std::uint64_t stream_seed(std::uint64_t index) const {
    return derive_seed(master_, label_, index);
  }
  [[nodiscard]] RandomEngine stream(std::uint64_t index) const {
    return RandomEngine{stream_seed(index)};
  }
  [[nodiscard]] std::uint64_t master_seed() const { return master_; }

 private:
  std::uint64_t master_;
  std::string label_;
};

}  // namespace sanperf::des
