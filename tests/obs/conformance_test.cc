#include "src/obs/conformance.h"

#include <gtest/gtest.h>

namespace libra::obs {
namespace {

constexpr uint8_t kGet = 1;  // mirrors iosched::AppRequest::kGet
constexpr uint8_t kPut = 2;  // mirrors iosched::AppRequest::kPut
constexpr uint8_t kDirect = 0;
constexpr uint8_t kFlush = 1;
constexpr uint8_t kCompact = 2;

// A PUT-heavy tenant's matrix: `n` normalized PUTs with the given direct,
// FLUSH and COMPACT VOPs.
AttributionMatrix PutMatrix(double n, double direct, double flush,
                            double compact) {
  AttributionMatrix m;
  m.norm_requests[kPut] = n;
  m.vops[kPut][kDirect] = direct;
  m.vops[kPut][kFlush] = flush;
  m.vops[kPut][kCompact] = compact;
  m.total_vops = direct + flush + compact;
  return m;
}

TEST(AttributionMatrixTest, QDividesCellsByNormalizedRequests) {
  const AttributionMatrix m = PutMatrix(2.0, 2.0, 0.0, 6.0);
  EXPECT_DOUBLE_EQ(m.Q(kPut, kDirect), 1.0);
  EXPECT_DOUBLE_EQ(m.Q(kPut, kCompact), 3.0);
  EXPECT_DOUBLE_EQ(m.Q(kGet, kDirect), 0.0);  // no GETs: zero, not NaN
  EXPECT_DOUBLE_EQ(m.CellSum(), 8.0);
}

TEST(CompareAttributionTest, HonestDeclarationConforms) {
  // q̂ FLUSH = 0.98 vs declared 1.0.
  const AttributionMatrix m = PutMatrix(100.0, 100.0, 98.0, 0.0);

  DeclaredAttribution d;
  d.declared = true;
  d.at(kPut, kDirect) = 1.0;
  d.at(kPut, kFlush) = 1.0;

  const ConformanceReport r = CompareAttribution(m, d);
  EXPECT_LE(r.divergence, 0.05);
  EXPECT_TRUE(r.conformant(0.10));
}

TEST(CompareAttributionTest, UnderDeclaredAmplificationIsFlagged) {
  // Hidden 3x COMPACT amplification.
  const AttributionMatrix m = PutMatrix(100.0, 100.0, 0.0, 300.0);

  DeclaredAttribution d;
  d.declared = true;
  d.at(kPut, kDirect) = 1.0;  // claims direct-only

  const ConformanceReport r = CompareAttribution(m, d);
  EXPECT_FALSE(r.conformant(0.10));
  EXPECT_EQ(r.worst_app, kPut);
  EXPECT_EQ(r.worst_internal, kCompact);
  EXPECT_DOUBLE_EQ(r.worst_observed, 3.0);
}

TEST(CompareAttributionTest, SkipsIdleRowsAndNoiseCells) {
  // q̂ FLUSH = 0.01: below min_declared.
  const AttributionMatrix m = PutMatrix(100.0, 100.0, 1.0, 0.0);

  DeclaredAttribution d;
  d.declared = true;
  d.at(kPut, kDirect) = 1.0;
  // GET row declared but the tenant served no GETs: must not divide by 0
  // or flag an unexercised class.
  d.at(kGet, kDirect) = 4.0;

  const ConformanceReport r = CompareAttribution(m, d);
  EXPECT_TRUE(r.conformant(0.10));
}

}  // namespace
}  // namespace libra::obs
