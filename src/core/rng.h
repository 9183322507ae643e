// Deterministic pseudo-random number generation.
//
// All randomized stages in VoLUT (random downsampling, dilated-neighborhood
// subset selection, training-noise injection) take an explicit generator so
// results are reproducible across runs, platforms and standard libraries.
//
// There is one generator, CounterRng: a counter-based (SplitMix/Philox-style)
// generator whose i-th draw of stream s under seed k is a pure function
// hash(k, s, i), and whose integer, float and Gaussian draws are spelled out
// here rather than left to <random>'s implementation-defined distributions.
// Any cell of a parallel loop can derive its draws independently, which is
// what unlocks worker-count-independent parallelism in the SR hot path
// (stream = source index, counter = draw number within the stream).
//
// `Rng` is a second name for the same class, not a second generator: the
// call sites that take one generator and draw from it in order, the
// benchmark program in perfbench/ among them, spell it that way.
#pragma once

#include <cmath>
#include <cstdint>

namespace volut {

/// SplitMix64 finalizer: a full-avalanche 64-bit mixing function. The core of
/// CounterRng and usable on its own for one-shot hashing of small keys.
inline std::uint64_t mix64(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z;
}

/// Counter-based RNG: draw i of stream `stream` under `seed` is
/// mix64(key(seed, stream) + i * gamma) — stateless up to a counter, so the
/// whole sequence is random-access and a parallel loop can hand each work
/// item its own stream without any shared draw order. Contract (documented in
/// README "Performance"): the mapping (seed, stream, counter) -> value is
/// part of the reproducibility surface and must not change silently; code
/// that re-keys its streams re-baselines its goldens.
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t seed, std::uint64_t stream = 0,
                      std::uint64_t counter = 0)
      : key_(mix64(seed ^ mix64(stream ^ 0x1DA3E39CB94B95BBull))),
        counter_(counter) {}

  std::uint64_t counter() const { return counter_; }

  /// Next raw 64-bit draw; advances the counter by one.
  std::uint64_t next_u64() {
    return mix64(key_ + (++counter_) * 0x9E3779B97F4A7C15ull);
  }

  /// Uniform in [0, n), n > 0. Lemire multiply-shift with rejection:
  /// unbiased, and (unlike <random>'s integer distribution) the same value on
  /// every platform for a given counter.
  std::uint64_t next(std::uint64_t n) {
    unsigned __int128 m = static_cast<unsigned __int128>(next_u64()) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<unsigned __int128>(next_u64()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform float in [0, 1).
  float uniform() {
    return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
  }

  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) { return lo + (hi - lo) * uniform(); }

  /// Normal with mean 0 and the given standard deviation. Box-Muller over
  /// two fresh draws per call (no cached spare: a fixed counter advance rate
  /// keeps sequences easy to reason about).
  float gaussian(float sigma) {
    const double u1 =
        static_cast<double>(next_u64() >> 11) * 0x1.0p-53;  // [0, 1)
    const double u2 = static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    const double r = std::sqrt(-2.0 * std::log1p(-u1));  // log(1-u1), u1 < 1
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    return static_cast<float>(r * std::cos(kTwoPi * u2)) * sigma;
  }

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(float p) { return uniform() < p; }

 private:
  std::uint64_t key_;
  std::uint64_t counter_;
};

using Rng = CounterRng;

}  // namespace volut
