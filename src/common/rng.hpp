// Deterministic pseudo-random number generation.
//
// Every stochastic element of the simulation (timing-error injection,
// synthetic image generation, workload input generation) draws from an
// Xorshift128+ stream seeded explicitly, so a simulation run is exactly
// reproducible from its configuration. std::mt19937 is deliberately avoided
// in the hot error-injection path; xorshift128+ is ~4x faster and has more
// than enough statistical quality for Bernoulli error draws.
#pragma once

#include <cstdint>

namespace tmemo {

/// SplitMix64 finalizer over (seed, salt): derives an independent child
/// seed, e.g. one per compute unit, stream core or FPU of a device, from a
/// parent seed and the child's index.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t seed,
                                               std::uint64_t salt) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Xorshift128+ PRNG (Vigna, 2014). Deterministic across platforms.
class Xorshift128 {
 public:
  /// Seeds the generator. The seed is mandatory (there is deliberately no
  /// default argument): every stream's seed must be visible at the
  /// construction site so runs are reproducible from configuration alone
  /// (lint rule R6). A zero seed is remapped to a fixed non-zero constant
  /// since the all-zero state is a fixed point of xorshift.
  explicit Xorshift128(std::uint64_t seed) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    if (seed == 0) seed = 0x9e3779b97f4a7c15ull;
    // SplitMix64 expansion of the seed into the 128-bit state.
    auto splitmix = [&seed]() noexcept {
      seed += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return z ^ (z >> 31);
    };
    s0_ = splitmix();
    s1_ = splitmix();
    if (s0_ == 0 && s1_ == 0) s1_ = 1;
  }

  /// Next raw 64-bit value.
  std::uint64_t next_u64() noexcept {
    std::uint64_t x = s0_;
    const std::uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    // 53 random mantissa bits scaled into [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  float next_float() noexcept {
    return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    // Multiply-shift bounded draw (Lemire); bias is negligible for the
    // bounds used in this library (< 2^32).
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

  /// Bernoulli draw: true with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Approximately normal draw (mean 0, stddev 1) via sum of uniforms
  /// (Irwin–Hall with 12 terms). Good to ~3 sigma, cheap, deterministic.
  double next_gaussian() noexcept {
    double acc = 0.0;
    for (int i = 0; i < 12; ++i) acc += next_double();
    return acc - 6.0;
  }

 private:
  std::uint64_t s0_ = 1;
  std::uint64_t s1_ = 2;
};

} // namespace tmemo
