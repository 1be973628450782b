#include "src/common/rng.h"

#include <algorithm>
#include <cassert>

namespace libra {
namespace {

// SplitMix64, used to expand the user seed into xoshiro state.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (auto& s : s_) {
    s = SplitMix64(x);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextU64(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless bounded sampling; bias is < 2^-64 * bound
  // which is negligible for workload generation.
  return static_cast<uint64_t>(
      (static_cast<__uint128_t>(NextU64()) * bound) >> 64);
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextGaussian() {
  // Box-Muller; draw until u1 is nonzero to keep log() finite.
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

LogNormalSize::LogNormalSize(double mean_bytes, double sigma_bytes,
                             uint64_t min_bytes, uint64_t max_bytes)
    : mean_bytes_(mean_bytes),
      sigma_bytes_(sigma_bytes),
      min_bytes_(min_bytes),
      max_bytes_(max_bytes) {
  assert(mean_bytes > 0.0);
  assert(sigma_bytes >= 0.0);
  assert(min_bytes >= 1 && min_bytes <= max_bytes);
  if (sigma_bytes_ == 0.0) {
    mu_ = std::log(mean_bytes_);
    sigma_ = 0.0;
    return;
  }
  // Solve for the underlying normal's (mu, sigma) given the arithmetic mean m
  // and standard deviation s of the log-normal:
  //   m = exp(mu + sigma^2/2),  s^2 = (exp(sigma^2) - 1) * m^2.
  const double m = mean_bytes_;
  const double s = sigma_bytes_;
  const double sigma_sq = std::log(1.0 + (s * s) / (m * m));
  sigma_ = std::sqrt(sigma_sq);
  mu_ = std::log(m) - sigma_sq / 2.0;
}

uint64_t LogNormalSize::Sample(Rng& rng) const {
  double value = 0.0;
  if (sigma_ == 0.0) {
    value = mean_bytes_;
  } else {
    value = std::exp(mu_ + sigma_ * rng.NextGaussian());
  }
  const double clamped =
      std::clamp(value, static_cast<double>(min_bytes_),
                 static_cast<double>(max_bytes_));
  return static_cast<uint64_t>(clamped + 0.5);
}

ZipfGenerator::ZipfGenerator(uint64_t n, double theta) : n_(n), theta_(theta) {
  assert(n > 0);
  assert(theta >= 0.0 && theta < 1.0);
  zetan_ = Zeta(n_, theta_);
  const double zeta2 = Zeta(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

double ZipfGenerator::Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

uint64_t ZipfGenerator::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  const double value =
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_);
  uint64_t rank = static_cast<uint64_t>(value);
  return std::min(rank, n_ - 1);
}

}  // namespace libra
