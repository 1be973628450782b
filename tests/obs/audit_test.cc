#include <gtest/gtest.h>

#include <cstdint>

#include "src/obs/audit.h"

namespace libra::obs {
namespace {

TEST(ProvisioningAuditLogTest, BoundedRetention) {
  ProvisioningAuditLog log(/*max_records=*/3);
  for (int i = 0; i < 7; ++i) {
    AuditRecord rec;
    rec.time_ns = i;
    log.Append(std::move(rec));
  }
  EXPECT_EQ(log.total_appended(), 7u);
  ASSERT_EQ(log.records().size(), 3u);
  EXPECT_EQ(log.records().front().time_ns, 4);
  EXPECT_EQ(log.back().time_ns, 6);
}

}  // namespace
}  // namespace libra::obs
