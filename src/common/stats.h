// Statistics helpers used by the evaluation harnesses: percentile
// extraction and the normalized min-max ratio (MMR) accuracy metric from
// §6.2.

#ifndef LIBRA_SRC_COMMON_STATS_H_
#define LIBRA_SRC_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace libra {

// Collects samples and answers percentile queries. Sorting is deferred to
// query time.
class SampleSet {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  // p in [0, 1]; linear interpolation between order statistics.
  double Percentile(double p) const;
  double Median() const { return Percentile(0.5); }
  double Min() const { return Percentile(0.0); }
  double Max() const { return Percentile(1.0); }

 private:
  void EnsureSorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Min-max ratio over a set of per-tenant throughput ratios (§6.2):
//   MMR = min_t(x_t) / max_t(x_t), in [0, 1]; 1 means perfectly even.
// Returns 1.0 for empty input and 0.0 if the max is non-positive.
double MinMaxRatio(const std::vector<double>& ratios);

}  // namespace libra

#endif  // LIBRA_SRC_COMMON_STATS_H_
