// Attribution conformance: the observed indirect-IO matrix q̂_t^{a,i} and
// its divergence from a tenant's declared profile.
//
// Libra's provisioner prices reservations with per-(app request, internal
// op) resource profiles. Nothing in the aggregate metrics can verify that
// the profile a tenant *declared* at admission matches what actually flows
// through the scheduler; this comparison closes that loop. The observed
// matrix is not a second accumulator: iosched::ResourceTracker::Attribution
// derives it from the tracker's cumulative per-(app, internal) VOPs and
// normalized request totals, so q̂^{a,i} = VOPs attributed to (a, i) per
// normalized request of class a is a decomposition of the bill itself.
//
// Field vocabulary mirrors iosched::AppRequest / InternalOp (io_tag.h) as
// raw uint8 switches: obs stays the bottom observability layer.

#ifndef LIBRA_SRC_OBS_CONFORMANCE_H_
#define LIBRA_SRC_OBS_CONFORMANCE_H_

namespace libra::obs {

// Mirrors iosched::kNumAppRequests / kNumInternalOps.
inline constexpr int kAttrApps = 4;      // none, GET, PUT, SCAN
inline constexpr int kAttrInternal = 4;  // direct, FLUSH, COMPACT, REPL

// One tenant's cumulative attribution state.
struct AttributionMatrix {
  double vops[kAttrApps][kAttrInternal] = {};  // attributed VOPs per cell
  double norm_requests[kAttrApps] = {};        // normalized requests served
  // Arrival-order sum of every attributed cost (the tenant's tracker VOP
  // total); the cell sums above re-order the additions and may differ from
  // it in the last ulp.
  double total_vops = 0.0;

  // Sum of the cells: total_vops up to summation order (VOP conservation).
  double CellSum() const {
    double sum = 0.0;
    for (const auto& row : vops) {
      for (const double v : row) {
        sum += v;
      }
    }
    return sum;
  }

  // Observed q̂^{a,i}: VOPs of (app, internal) per normalized request of
  // `app`; 0 when the tenant has served no requests of that class.
  double Q(int app, int internal) const {
    const double n = norm_requests[app];
    return n > 0.0 ? vops[app][internal] / n : 0.0;
  }
};

// The per-request VOP matrix a tenant declared at admission — the profile
// the provisioner assumed when pricing its reservation.
struct DeclaredAttribution {
  bool declared = false;
  double q[kAttrApps][kAttrInternal] = {};

  double& at(int app, int internal) { return q[app][internal]; }
};

// Worst-cell comparison of observed q̂ against a declaration.
struct ConformanceReport {
  // max over declared-relevant cells of |observed - declared| /
  // max(declared, min_declared); 0 when nothing is comparable.
  double divergence = 0.0;
  int worst_app = 0;
  int worst_internal = 0;
  double worst_observed = 0.0;
  double worst_declared = 0.0;

  bool conformant(double tolerance) const { return divergence <= tolerance; }
};

// Compares cell-wise. Cells where both sides are below `min_declared`
// (VOPs per normalized request) are skipped as noise; an undeclared matrix
// reports zero divergence (nothing was assumed, nothing can diverge).
ConformanceReport CompareAttribution(const AttributionMatrix& observed,
                                     const DeclaredAttribution& declared,
                                     double min_declared = 0.05);

}  // namespace libra::obs

#endif  // LIBRA_SRC_OBS_CONFORMANCE_H_
