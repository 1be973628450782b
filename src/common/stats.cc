#include "src/common/stats.h"

#include <algorithm>

namespace libra {

void SampleSet::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::Percentile(double p) const {
  if (samples_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  p = std::clamp(p, 0.0, 1.0);
  const double pos = p * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double MinMaxRatio(const std::vector<double>& ratios) {
  if (ratios.empty()) {
    return 1.0;
  }
  double lo = ratios.front();
  double hi = ratios.front();
  for (double r : ratios) {
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  if (hi <= 0.0) {
    return 0.0;
  }
  return lo / hi;
}

}  // namespace libra
