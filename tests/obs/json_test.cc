#include "src/obs/json.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/obs/histogram.h"
#include "tests/support/json_parse.h"

namespace libra::obs {
namespace {

TEST(JsonWriterTest, ObjectsArraysAndEscaping) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("a \"quoted\"\nvalue");
  w.Key("n");
  w.Int(-7);
  w.Key("u");
  w.Uint(18446744073709551615ULL);
  w.Key("xs");
  w.BeginArray();
  w.Double(1.5);
  w.Bool(true);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a \\\"quoted\\\"\\nvalue\",\"n\":-7,"
            "\"u\":18446744073709551615,\"xs\":[1.5,true]}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::nan(""));
  w.Double(INFINITY);
  w.Double(2.0);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,2]");
}

TEST(JsonParseTest, RoundTrip) {
  const char* doc =
      R"({"a":1,"b":[1,2.5,"x"],"c":{"d":true,"e":null},"f":"\u0041\n"})";
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonParse(doc, &v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("a")->number, 1.0);
  ASSERT_TRUE(v.Find("b")->is_array());
  EXPECT_EQ(v.Find("b")->array[1].number, 2.5);
  EXPECT_EQ(v.Find("b")->array[2].string_value, "x");
  EXPECT_TRUE(v.Find("c")->Find("d")->bool_value);
  EXPECT_TRUE(v.Find("c")->Find("e")->is_null());
  EXPECT_EQ(v.Find("f")->string_value, "A\n");
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParseTest, RejectsMalformed) {
  JsonValue v;
  EXPECT_FALSE(JsonParse("{", &v));
  EXPECT_FALSE(JsonParse("[1,]", &v));
  EXPECT_FALSE(JsonParse("{\"a\":1} trailing", &v));
  EXPECT_FALSE(JsonParse("", &v));
}

TEST(JsonParseTest, WriterOutputParses) {
  JsonWriter w;
  w.BeginObject();
  w.Key("odd \"key\"");
  w.String("tab\there");
  w.Key("neg");
  w.Double(-1.25e-3);
  w.EndObject();
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonParse(w.str(), &v, &err)) << err;
  EXPECT_EQ(v.Find("odd \"key\"")->string_value, "tab\there");
  EXPECT_DOUBLE_EQ(v.Find("neg")->number, -1.25e-3);
}

TEST(HistogramToJsonTest, SchemaAndValues) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v * 1000);
  }
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonParse(HistogramToJson(h), &v, &err)) << err;
  EXPECT_EQ(v.Find("count")->number, 100.0);
  EXPECT_EQ(v.Find("min_ns")->number, 1000.0);
  EXPECT_EQ(v.Find("max_ns")->number, 100000.0);
  EXPECT_NEAR(v.Find("mean_ns")->number, 50500.0, 1e-6);
  for (const char* p : {"p50", "p90", "p99", "p999"}) {
    ASSERT_NE(v.Find(p), nullptr) << p;
    EXPECT_TRUE(std::isfinite(v.Find(p)->number)) << p;
  }
  EXPECT_LE(v.Find("p50")->number, v.Find("p99")->number);
  ASSERT_TRUE(v.Find("buckets")->is_array());
  double total = 0.0;
  for (const JsonValue& b : v.Find("buckets")->array) {
    ASSERT_EQ(b.array.size(), 3u);  // [lower_bound, width, count]
    total += b.array[2].number;
  }
  EXPECT_EQ(total, 100.0);

  // Compact form drops the buckets.
  JsonValue compact;
  ASSERT_TRUE(JsonParse(HistogramToJson(h, false), &compact, &err)) << err;
  EXPECT_EQ(compact.Find("buckets"), nullptr);
}

}  // namespace
}  // namespace libra::obs
