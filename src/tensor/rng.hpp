// Deterministic random number generation.
//
// All stochastic behaviour in mpcnn flows through Rng so that every
// experiment is reproducible from a single 64-bit seed.  The generator is
// xoshiro256** (public domain, Blackman & Vigna) — fast, high quality and
// identical across platforms, unlike std::mt19937 distributions whose
// output is implementation-defined for floating point.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace mpcnn {

/// SplitMix64 finalizer: the repository-wide stateless hash.  Chaining it
/// over (seed, tag, args...) gives an order-independent per-query value,
/// which is what lets fault injection, integrity sampling and canary
/// probes be consulted from any code path without perturbing a replay.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Folds one more value `b` into the running hash `a`.
inline std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ mix64(b));
}

/// Deterministic, seedable PRNG with convenience distributions.
class Rng {
 public:
  /// Seeds the state via SplitMix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal via Box–Muller (cached pair).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Fisher–Yates shuffle of an index vector [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derive an independent child stream (for per-worker determinism).
  Rng split();

  /// Complete generator state for checkpointing: the four xoshiro words
  /// plus the Box–Muller cache.  Restoring a saved State resumes the
  /// stream bit-exactly (see nn/checkpoint).
  struct State {
    std::array<std::uint64_t, 4> words{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };
  State state() const;
  void set_state(const State& state);

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace mpcnn
