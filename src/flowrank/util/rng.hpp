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
#include <optional>
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

 private:
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

/// Drop-in for Engine{seed} on streams that draw only a few numbers.
///
/// Its output equals Engine{seed} draw for draw. Constructing an Engine
/// runs the 312-step seeding recurrence (Engine::seed_step), and its first
/// draw then twists all 312 words. But twisted word i (i < 156) reads only
/// seeded words i, i+1 and i+156, so draw i needs the recurrence run only
/// through word i+156: the first draw costs 156 serial multiply steps,
/// each later one a single step. A per-flow placement of ~10 draws thus
/// skips most of the seeding and the whole twist. From draw 157 on, the
/// twist reads words it has itself rewritten, so the engine hands over to
/// a real Engine advanced past the draws already served.
class LazyEngine {
 public:
  using result_type = Engine::result_type;
  static constexpr result_type min() noexcept { return Engine::min(); }
  static constexpr result_type max() noexcept { return Engine::max(); }

  explicit LazyEngine(result_type seed) noexcept : seed_(seed) { words_[0] = seed; }

  result_type operator()() {
    if (drawn_ == kLazyDraws) {
      if (!fallback_) {
        fallback_.emplace(seed_);
        fallback_->discard(kLazyDraws);
      }
      return (*fallback_)();
    }
    const std::size_t i = drawn_++;
    for (; seeded_ <= i + Engine::kShift; ++seeded_) {
      words_[seeded_] = Engine::seed_step(words_[seeded_ - 1], seeded_);
    }
    return Engine::temper(
        Engine::twist_word(words_[i], words_[i + 1], words_[i + Engine::kShift]));
  }

 private:
  // The first n - m twisted words read only seeded words.
  static constexpr std::size_t kLazyDraws = Engine::kStateWords - Engine::kShift;

  result_type seed_;
  std::size_t drawn_ = 0;   ///< draws served
  std::size_t seeded_ = 1;  ///< words_[0, seeded_) hold seeded words
  std::array<std::uint64_t, Engine::kStateWords> words_{};  ///< seeded words, on demand
  std::optional<Engine> fallback_;  ///< engaged at draw kLazyDraws + 1
};

/// make_engine() as a LazyEngine: the same stream for (master, stream).
[[nodiscard]] inline LazyEngine make_lazy_engine(std::uint64_t master,
                                                 std::uint64_t stream = 0) {
  return LazyEngine{derive_seed(master, stream)};
}

/// Uniform draw on (0, 1]: always a valid ccdf value to invert and a
/// valid log() argument (uniform_real_distribution yields [0, 1)).
[[nodiscard]] inline double uniform_unit_open(Engine& engine) {
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  return 1.0 - unif(engine);
}

}  // namespace flowrank::util
