#include <gtest/gtest.h>

#include "src/metrics/table.h"

namespace libra::metrics {
namespace {

TEST(TableTest, TextRenderingAligns) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  const std::string text = t.ToText();
  EXPECT_NE(text.find("name   value"), std::string::npos);
  EXPECT_NE(text.find("alpha  1"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"x"});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("x,,"), std::string::npos);
}

TEST(TableTest, CsvEscapesSpecials) {
  Table t({"k"});
  t.AddRow({"has,comma"});
  t.AddRow({"has\"quote"});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TableTest, CsvQuotesNewlinesAndCarriageReturns) {
  // RFC-4180: fields containing CR or LF must be quoted, not just , and ".
  Table t({"k", "v"});
  t.AddRow({"multi\nline", "cr\rhere"});
  t.AddRow({"tagged", "GET,direct"});
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"multi\nline\""), std::string::npos);
  EXPECT_NE(csv.find("\"cr\rhere\""), std::string::npos);
  EXPECT_NE(csv.find("\"GET,direct\""), std::string::npos);
  // Plain fields stay unquoted.
  EXPECT_NE(csv.find("tagged,"), std::string::npos);
}

TEST(TableTest, CsvHeaderEscapedToo) {
  Table t({"plain", "odd,header"});
  t.AddRow({"a", "b"});
  const std::string csv = t.ToCsv();
  EXPECT_EQ(csv.find("plain,\"odd,header\""), 0u);
}

TEST(TableTest, JsonRowsKeyedByHeader) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"quo\"te"});  // short row: padded with ""
  const std::string json = t.ToJson();
  EXPECT_EQ(json,
            "[{\"name\":\"alpha\",\"value\":\"1\"},"
            "{\"name\":\"quo\\\"te\",\"value\":\"\"}]");
}

TEST(TableTest, NumericRowFormatting) {
  Table t({"label", "v1", "v2"});
  t.AddNumericRow("row", {1.23456, 7.0}, 2);
  const std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("row,1.23,7.00"), std::string::npos);
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.14159, 0), "3");
}

}  // namespace
}  // namespace libra::metrics
