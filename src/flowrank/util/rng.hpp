// Deterministic random number utilities.
//
// All stochastic components in flowrank (trace generation, samplers,
// Monte-Carlo model validation, trace-driven simulation) draw their
// randomness through this header so that every experiment is exactly
// reproducible from a single 64-bit seed.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>

namespace flowrank::util {

/// SplitMix64 step. Used both as a tiny standalone generator and as the
/// canonical way to derive independent child seeds from a master seed.
/// Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Derives the `stream`-th child seed from `master`. Children are
/// statistically independent for practical purposes; use one stream per
/// simulation run / per component.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t master,
                                                  std::uint64_t stream) noexcept {
  std::uint64_t s = master ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  // Two rounds of splitmix to decorrelate nearby stream indices.
  (void)splitmix64(s);
  return splitmix64(s);
}

/// Folds one more coordinate into a stream id, splitmix-style. Unlike
/// shift-packing ((a << 40) ^ (b << 20) ^ c), which silently collides as
/// soon as a coordinate outgrows its bit field (e.g. >= 2^20 bins of a
/// long trace aliasing the run index), every coordinate is diffused over
/// all 64 bits before the next one is folded in, so distinct tuples give
/// distinct streams up to a ~2^-64 accidental collision.
[[nodiscard]] constexpr std::uint64_t mix_stream(std::uint64_t stream,
                                                 std::uint64_t coordinate) noexcept {
  std::uint64_t s = stream ^ (0x94d049bb133111ebULL * (coordinate + 1));
  (void)splitmix64(s);
  return splitmix64(s);
}

/// Stream id for a (a, b, c) coordinate triple, e.g. (rate index, run,
/// bin). Feed the result to make_engine() as the stream argument.
[[nodiscard]] constexpr std::uint64_t mix_streams(std::uint64_t a, std::uint64_t b,
                                                  std::uint64_t c) noexcept {
  return mix_stream(mix_stream(a, b), c);
}

/// The 64-bit Mersenne Twister, output-identical to std::mt19937_64: the
/// same seeding recurrence, twist and tempering, so every seed yields the
/// standard engine's stream draw for draw (tests keep std::mt19937_64 as
/// the oracle). It is deterministic across platforms, which golden-value
/// tests rely on. It is written out here, rather than aliased, for speed:
/// the twist picks its matrix term with a mask instead of a branch, which
/// lets the compiler vectorize the 312-word refill at the baseline x86-64
/// target. A URBG with discard() and seed(), like the standard engine.
class Engine {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type default_seed = 5489u;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  Engine() noexcept : Engine(default_seed) {}
  explicit Engine(result_type value) noexcept { seed(value); }

  void seed(result_type value = default_seed) noexcept {
    words_[0] = value;
    for (std::size_t i = 1; i < kStateWords; ++i) words_[i] = seed_step(words_[i - 1], i);
    next_ = kStateWords;
  }

  result_type operator()() noexcept {
    if (next_ == kStateWords) twist();
    return temper(words_[next_++]);
  }

  void discard(unsigned long long z) noexcept {
    while (z > 0) {
      if (next_ == kStateWords) twist();
      const std::size_t step =
          static_cast<std::size_t>(std::min<unsigned long long>(z, kStateWords - next_));
      next_ += step;
      z -= step;
    }
  }

 private:
  // mt19937_64's parameters: state size n = 312, shift m = 156, seeding
  // multiplier f, twist matrix a, and the 31-bit lower mask r.
  static constexpr std::size_t kStateWords = 312;
  static constexpr std::size_t kShift = 156;
  static constexpr std::uint64_t kSeedMultiplier = 6364136223846793005ULL;
  static constexpr std::uint64_t kTwistMatrix = 0xb5026f5aa96619e9ULL;
  static constexpr std::uint64_t kLowerMask = (std::uint64_t{1} << 31) - 1;
  static constexpr std::uint64_t kUpperMask = ~kLowerMask;

  /// Seeded word i from word i - 1: x[i] = f · (x[i-1] ^ (x[i-1] >> 62)) + i.
  static constexpr std::uint64_t seed_step(std::uint64_t prev, std::size_t i) noexcept {
    return kSeedMultiplier * (prev ^ (prev >> 62)) + i;
  }

  /// One twisted word from x[i] (upper bit), x[i+1] (lower 31 bits) and
  /// x[i+m]; the matrix term is masked in, not branched on.
  static constexpr std::uint64_t twist_word(std::uint64_t word, std::uint64_t next,
                                            std::uint64_t shifted) noexcept {
    const std::uint64_t y = (word & kUpperMask) | (next & kLowerMask);
    return shifted ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kTwistMatrix);
  }

  /// Tempering (u, d), (s, b), (t, c), l of mt19937_64.
  static constexpr std::uint64_t temper(std::uint64_t z) noexcept {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Refills all 312 words. Each loop has a fixed distance between the
  /// words it reads and writes, so each vectorizes.
  void twist() noexcept {
    constexpr std::size_t n = kStateWords;
    constexpr std::size_t m = kShift;
    std::size_t i = 0;
    for (; i < n - m; ++i) words_[i] = twist_word(words_[i], words_[i + 1], words_[i + m]);
    for (; i < n - 1; ++i) {
      words_[i] = twist_word(words_[i], words_[i + 1], words_[i + m - n]);
    }
    words_[n - 1] = twist_word(words_[n - 1], words_[0], words_[m - 1]);
    next_ = 0;
  }

  std::array<std::uint64_t, kStateWords> words_{};
  std::size_t next_ = kStateWords;  ///< next word to temper; n = refill first
};

/// Makes an engine for (master seed, stream id).
[[nodiscard]] inline Engine make_engine(std::uint64_t master,
                                        std::uint64_t stream = 0) {
  return Engine{derive_seed(master, stream)};
}

/// Counter-based SplitMix64: word `index` of the stream keyed by `key`,
/// computed directly. It equals the (index + 1)-th output of splitmix64()
/// started from state `key`, so nothing is seeded and no state is carried:
/// a stream is regenerated from any position for the price of one mixing
/// step (the counter-based idea of Salmon et al., "Parallel random
/// numbers: as easy as 1, 2, 3", SC 2011). Derive keys with mix_streams().
[[nodiscard]] constexpr std::uint64_t counter_word(std::uint64_t key,
                                                   std::uint64_t index) noexcept {
  std::uint64_t state = key + index * 0x9e3779b97f4a7c15ULL;
  return splitmix64(state);
}

/// Uniform on (0, 1] from the top 53 bits of a word: never 0, so always a
/// valid log() argument.
[[nodiscard]] constexpr double unit_open_from_bits(std::uint64_t word) noexcept {
  return static_cast<double>((word >> 11) + 1) * 0x1.0p-53;
}

/// A URBG over counter_word(key, 0), counter_word(key, 1), ...: an engine
/// with nothing to seed, for streams that draw only a few numbers.
class CounterEngine {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  explicit constexpr CounterEngine(std::uint64_t key) noexcept : key_(key) {}

  constexpr result_type operator()() noexcept { return counter_word(key_, index_++); }

 private:
  std::uint64_t key_;
  std::uint64_t index_ = 0;
};

/// Uniform draw on (0, 1]: always a valid ccdf value to invert and a
/// valid log() argument (uniform_real_distribution yields [0, 1)).
[[nodiscard]] inline double uniform_unit_open(Engine& engine) {
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  return 1.0 - unif(engine);
}

}  // namespace flowrank::util
