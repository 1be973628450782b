// Deterministic, seedable pseudo-random number generation and the workload
// distributions used throughout the evaluation: uniform, log-normal request
// sizes (Figs. 4, 10, 11, 12) and Zipfian key popularity.

#ifndef LIBRA_SRC_COMMON_RNG_H_
#define LIBRA_SRC_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace libra {

// xoshiro256** by Blackman & Vigna: fast, high-quality, and (unlike
// std::mt19937) identical output across standard library implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Uniform in [0, 2^64).
  uint64_t NextU64();

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextU64(uint64_t bound);

  // Uniform in [0, 1).
  double NextDouble();

  // Standard normal via Box-Muller (one value per call; stateless variant).
  double NextGaussian();

  // True with probability p.
  bool Bernoulli(double p);

 private:
  uint64_t s_[4];
};

// Samples sizes in bytes from a log-normal distribution parameterized the way
// the paper reports workloads: by arithmetic *mean* size and by the standard
// deviation sigma of sizes (both in bytes). Samples are clamped to
// [min_bytes, max_bytes] and rounded to whole bytes.
class LogNormalSize {
 public:
  // mean_bytes > 0; sigma_bytes >= 0 (0 degenerates to a fixed size).
  LogNormalSize(double mean_bytes, double sigma_bytes, uint64_t min_bytes = 1,
                uint64_t max_bytes = 4ULL << 20);

  uint64_t Sample(Rng& rng) const;

  double mean_bytes() const { return mean_bytes_; }
  double sigma_bytes() const { return sigma_bytes_; }

 private:
  double mean_bytes_;
  double sigma_bytes_;
  double mu_;     // location of underlying normal
  double sigma_;  // scale of underlying normal
  uint64_t min_bytes_;
  uint64_t max_bytes_;
};

// Zipfian key sampler over [0, n) with exponent theta (0 = uniform-ish,
// 0.99 = classic YCSB skew). Uses the Gray et al. rejection-free method with
// precomputed zeta constants.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  uint64_t Sample(Rng& rng) const;

  uint64_t n() const { return n_; }

 private:
  static double Zeta(uint64_t n, double theta);

  uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_;
  double eta_;
};

}  // namespace libra

#endif  // LIBRA_SRC_COMMON_RNG_H_
