#include "tensor/rng.hpp"

#include <cmath>
#include <numbers>

#include "tensor/error.hpp"

namespace mpcnn {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // SplitMix64 expansion: word i = mix64(seed + i·golden gamma).
  for (auto& word : state_) {
    word = mix64(seed);
    seed += 0x9E3779B97F4A7C15ULL;
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits → uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  MPCNN_CHECK(lo <= hi, "uniform bounds inverted: " << lo << " > " << hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  MPCNN_CHECK(n > 0, "uniform_int needs n > 0");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % n);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  MPCNN_CHECK(stddev >= 0.0, "negative stddev " << stddev);
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) {
  MPCNN_CHECK(p >= 0.0 && p <= 1.0, "bernoulli p out of range: " << p);
  return uniform() < p;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(uniform_int(i));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

Rng Rng::split() { return Rng(next_u64()); }

Rng::State Rng::state() const {
  return State{state_, cached_normal_, has_cached_normal_};
}

void Rng::set_state(const State& state) {
  state_ = state.words;
  cached_normal_ = state.cached_normal;
  has_cached_normal_ = state.has_cached_normal;
}

}  // namespace mpcnn
