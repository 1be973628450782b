#include "src/obs/conformance.h"

#include <algorithm>
#include <cmath>

namespace libra::obs {

ConformanceReport CompareAttribution(const AttributionMatrix& observed,
                                     const DeclaredAttribution& declared,
                                     double min_declared) {
  ConformanceReport rep;
  if (!declared.declared) {
    return rep;
  }
  for (int a = 0; a < kAttrApps; ++a) {
    if (observed.norm_requests[a] <= 0.0) {
      // No traffic of this class observed: q̂ is undefined, not divergent.
      continue;
    }
    for (int i = 0; i < kAttrInternal; ++i) {
      const double obs_q = observed.Q(a, i);
      const double dec_q = declared.q[a][i];
      if (obs_q < min_declared && dec_q < min_declared) {
        continue;  // both negligible
      }
      const double rel =
          std::abs(obs_q - dec_q) / std::max(dec_q, min_declared);
      if (rel > rep.divergence) {
        rep.divergence = rel;
        rep.worst_app = a;
        rep.worst_internal = i;
        rep.worst_observed = obs_q;
        rep.worst_declared = dec_q;
      }
    }
  }
  return rep;
}

}  // namespace libra::obs
