// Deterministic pseudo-random number generation for reproducible
// simulations. Two engines are provided:
//
//  * SplitMix64  -- tiny, used for seeding and hashing-style draws.
//  * Xoshiro256pp -- the xoshiro256++ engine (Blackman & Vigna), the
//    default generator for all simulation and workload-synthesis code.
//
// Both satisfy std::uniform_random_bit_generator, so they compose with
// <random> distributions. Rng wraps xoshiro256++ with the convenience
// draws this codebase needs (uniform, normal, exponential, Poisson).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/contracts.h"

namespace o2o {

/// SplitMix64: a 64-bit mixer. Stateless usage via `mix`, or stateful
/// sequential generation. Primarily used to expand one seed into many.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix(state_);
  }

  /// One round of the splitmix64 output function; a good 64->64 mixer.
  static constexpr std::uint64_t mix(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// splitmix64 finisher: one SplitMix64 step from state `x`, as a
/// stateless 64->64 hash. Structured keys such as `(node << 1) | flag`
/// are all-even, so they go through this before any `% shards`.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  return SplitMix64::mix(x + 0x9e3779b97f4a7c15ULL);
}

/// xoshiro256++ 1.0. Fast, 256-bit state, passes BigCrush.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256pp(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// 2^128 jump: advances the state as if 2^128 draws were made. Used to
  /// derive non-overlapping streams for parallel components.
  void jump() noexcept {
    static constexpr std::uint64_t kJump[] = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                                              0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t jump : kJump) {
      for (int b = 0; b < 64; ++b) {
        if (jump & (std::uint64_t{1} << b)) {
          s0 ^= state_[0];
          s1 ^= state_[1];
          s2 ^= state_[2];
          s3 ^= state_[3];
        }
        (*this)();
      }
    }
    state_[0] = s0;
    state_[1] = s1;
    state_[2] = s2;
    state_[3] = s3;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

/// Convenience wrapper: one seeded engine plus the distribution draws the
/// simulator and workload generators need. All draws are deterministic
/// given the seed, independent of the standard library implementation
/// (we implement the transforms ourselves; see P.2 in the Core Guidelines
/// about portability -- libstdc++/libc++ disagree on distribution output).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : engine_(seed) {}

  /// A derived, statistically independent stream (for sub-components).
  Rng split() noexcept {
    Rng child = *this;
    child.engine_.jump();
    engine_();  // perturb the parent so repeated splits differ
    return child;
  }

  std::uint64_t next_u64() noexcept { return engine_(); }

  /// Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    O2O_EXPECTS(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0. Unbiased via rejection.
  std::uint64_t uniform_index(std::uint64_t n) {
    O2O_EXPECTS(n > 0);
    const std::uint64_t limit = std::numeric_limits<std::uint64_t>::max() -
                                std::numeric_limits<std::uint64_t>::max() % n;
    std::uint64_t draw = engine_();
    while (draw >= limit) draw = engine_();
    return draw % n;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    O2O_EXPECTS(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    uniform_index(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  bool bernoulli(double p) {
    O2O_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform() < p;
  }

  /// Standard normal via Box-Muller (the spare is cached).
  double normal() noexcept {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    spare_ = radius * std::sin(theta);
    has_spare_ = true;
    return radius * std::cos(theta);
  }

  double normal(double mean, double stddev) {
    O2O_EXPECTS(stddev >= 0.0);
    return mean + stddev * normal();
  }

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double exponential(double rate) {
    O2O_EXPECTS(rate > 0.0);
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return -std::log(u) / rate;
  }

  /// Poisson draw. Knuth's method for small means, normal approximation
  /// (rounded, clamped at zero) for large means.
  std::uint64_t poisson(double mean) {
    O2O_EXPECTS(mean >= 0.0);
    if (mean == 0.0) return 0;
    if (mean > 64.0) {
      const double draw = normal(mean, std::sqrt(mean));
      return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
    }
    const double limit = std::exp(-mean);
    std::uint64_t count = 0;
    double product = uniform();
    while (product > limit) {
      ++count;
      product *= uniform();
    }
    return count;
  }

  /// Fisher-Yates shuffle.
  template <typename Container>
  void shuffle(Container& items) {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      using std::swap;
      swap(items[i], items[uniform_index(i + 1)]);
    }
  }

 private:
  Xoshiro256pp engine_;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace o2o
