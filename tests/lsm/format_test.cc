#include "src/lsm/format.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <tuple>
#include <vector>

namespace libra::lsm {
namespace {

TEST(FormatTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed32(&buf, UINT32_MAX);
  EXPECT_EQ(buf.size(), 12u);
  EXPECT_EQ(GetFixed32(buf, 0), 0u);
  EXPECT_EQ(GetFixed32(buf, 4), 0xDEADBEEFu);
  EXPECT_EQ(GetFixed32(buf, 8), UINT32_MAX);
}

TEST(FormatTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789ABCDEFULL);
  EXPECT_EQ(GetFixed64(buf, 0), 0x0123456789ABCDEFULL);
}

TEST(FormatTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  size_t off = 0;
  std::string_view s;
  ASSERT_TRUE(GetLengthPrefixed(buf, &off, &s));
  EXPECT_EQ(s, "hello");
  ASSERT_TRUE(GetLengthPrefixed(buf, &off, &s));
  EXPECT_EQ(s, "");
  ASSERT_TRUE(GetLengthPrefixed(buf, &off, &s));
  EXPECT_EQ(s.size(), 1000u);
  EXPECT_FALSE(GetLengthPrefixed(buf, &off, &s));  // exhausted
}

TEST(FormatTest, LengthPrefixedRejectsTruncation) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  buf.resize(buf.size() - 2);
  size_t off = 0;
  std::string_view s;
  EXPECT_FALSE(GetLengthPrefixed(buf, &off, &s));
}

TEST(FormatTest, Crc32KnownVector) {
  // CRC-32C ("Castagnoli") of "123456789" is 0xE3069283.
  EXPECT_EQ(Crc32("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32(""), 0u);
}

// RFC 3720 (iSCSI) CRC32C test vectors plus short-tail cases, pinned on
// every implementation path the host has: the slice-by-8 software path
// always, and the hardware (SSE4.2 / ARMv8 CRC) path when supported —
// whichever the public Crc32 dispatches to must agree byte-for-byte.
TEST(FormatTest, Crc32GoldenVectorsOnAllPaths) {
  struct Vector {
    std::string data;
    uint32_t crc;
  };
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  const Vector vectors[] = {
      {"", 0x00000000u},
      {"a", 0xC1D04330u},
      {"123456789", 0xE3069283u},
      {std::string(32, '\0'), 0x8A9136AAu},
      {std::string(32, '\xff'), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
  };
  for (const Vector& v : vectors) {
    EXPECT_EQ(Crc32(v.data), v.crc) << "dispatch, len=" << v.data.size();
    EXPECT_EQ(internal::Crc32Software(v.data), v.crc)
        << "software, len=" << v.data.size();
    if (internal::HasHardwareCrc32()) {
      EXPECT_EQ(internal::Crc32Hardware(v.data), v.crc)
          << "hardware, len=" << v.data.size();
    }
  }
}

// Unaligned starts and every tail length 0..8 — exercises the 8-byte main
// loop plus the 4/2/1-byte tail handling of both implementations.
TEST(FormatTest, Crc32PathsAgreeOnArbitraryLengths) {
  std::string data(4096 + 9, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>((i * 131) ^ (i >> 3));
  }
  for (size_t len : {0u, 1u, 3u, 7u, 8u, 9u, 15u, 63u, 64u, 4096u, 4105u}) {
    const std::string_view slice(data.data(), len);
    const uint32_t sw = internal::Crc32Software(slice);
    EXPECT_EQ(Crc32(slice), sw) << "len=" << len;
    if (internal::HasHardwareCrc32()) {
      EXPECT_EQ(internal::Crc32Hardware(slice), sw) << "len=" << len;
    }
  }
}

TEST(FormatTest, Crc32DetectsCorruption) {
  std::string a = "some payload";
  std::string b = a;
  b[3] ^= 1;
  EXPECT_NE(Crc32(a), Crc32(b));
}

TEST(FormatTest, InternalKeyOrdering) {
  // User key ascending.
  EXPECT_LT(CompareInternalKey("a", 5, "b", 5), 0);
  EXPECT_GT(CompareInternalKey("b", 5, "a", 5), 0);
  // Same key: higher sequence first.
  EXPECT_LT(CompareInternalKey("a", 9, "a", 5), 0);
  EXPECT_GT(CompareInternalKey("a", 1, "a", 5), 0);
  EXPECT_EQ(CompareInternalKey("a", 5, "a", 5), 0);
}

TEST(FormatTest, RecordRoundTrip) {
  std::string buf;
  EncodeRecord(&buf, "key1", 42, ValueType::kPut, "value1");
  EncodeRecord(&buf, "key2", 43, ValueType::kDelete, "");
  size_t off = 0;
  Record r;
  ASSERT_TRUE(DecodeRecord(buf, &off, &r));
  EXPECT_EQ(r.key, "key1");
  EXPECT_EQ(r.value, "value1");
  EXPECT_EQ(r.seq, 42u);
  EXPECT_EQ(r.type, ValueType::kPut);
  ASSERT_TRUE(DecodeRecord(buf, &off, &r));
  EXPECT_EQ(r.key, "key2");
  EXPECT_EQ(r.type, ValueType::kDelete);
  EXPECT_FALSE(DecodeRecord(buf, &off, &r));
}

// The WAL encodes in place; its bytes must be the ones EncodeRecord
// appends, and the returned record must view its own key and value.
TEST(FormatTest, EncodeRecordAtWritesEncodeRecordBytes) {
  const std::string value(300, 'v');
  for (const auto& [key, seq, type, val] :
       {std::tuple<std::string_view, SequenceNumber, ValueType,
                   std::string_view>{"key1", 42, ValueType::kPut, value},
        {"k", 0x0123456789ABCDEFull, ValueType::kDelete, ""},
        {"", 7, ValueType::kPut, "x"}}) {
    std::string appended;
    EncodeRecord(&appended, key, seq, type, val);
    std::string in_place(EncodedRecordBytes(key, val), '\0');
    const Record r = EncodeRecordAt(in_place.data(), key, seq, type, val);
    EXPECT_EQ(in_place, appended);
    EXPECT_EQ(r.key, key);
    EXPECT_EQ(r.value, val);
    EXPECT_EQ(r.seq, seq);
    EXPECT_EQ(r.type, type);
    EXPECT_EQ(r.key.data(), in_place.data() + 4);
    EXPECT_EQ(r.value.data() + r.value.size(),
              in_place.data() + in_place.size());
  }
}

TEST(FormatTest, RecordDecodeRejectsTruncation) {
  std::string buf;
  EncodeRecord(&buf, "key", 1, ValueType::kPut, "value");
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    size_t off = 0;
    Record r;
    EXPECT_FALSE(DecodeRecord(std::string_view(buf).substr(0, cut), &off, &r))
        << "cut at " << cut;
  }
}

TEST(BloomFilterTest, NoFalseNegatives) {
  std::vector<std::string> keys;
  for (int i = 0; i < 1000; ++i) {
    keys.push_back("key" + std::to_string(i * 37));
  }
  std::string filter;
  BloomFilterBuild(keys, 10, &filter);
  for (const std::string& k : keys) {
    EXPECT_TRUE(BloomFilterMayContain(filter, k)) << k;
  }
}

TEST(BloomFilterTest, EmptyKeySetStillWellFormed) {
  std::string filter;
  BloomFilterBuild({}, 10, &filter);
  // 64-bit minimum array plus the k byte.
  EXPECT_EQ(filter.size(), 9u);
  EXPECT_FALSE(BloomFilterMayContain(filter, "anything"));
}

TEST(BloomFilterTest, AppendsToExistingBuffer) {
  std::string buf = "prefix";
  BloomFilterBuild({"a", "b"}, 10, &buf);
  EXPECT_EQ(buf.substr(0, 6), "prefix");
  EXPECT_TRUE(BloomFilterMayContain(std::string_view(buf).substr(6), "a"));
}

TEST(BloomFilterTest, DegenerateFiltersAreConservative) {
  // Undecodable filters must say "maybe" — never drop a real key.
  EXPECT_TRUE(BloomFilterMayContain("", "k"));
  EXPECT_TRUE(BloomFilterMayContain("x", "k"));
  // Reserved k encodings (> 30) pass everything through.
  std::string reserved(10, '\0');
  reserved.back() = static_cast<char>(31);
  EXPECT_TRUE(BloomFilterMayContain(reserved, "k"));
}

TEST(BloomFilterTest, FalsePositiveRateNearTheoretical) {
  // At 10 bits/key the theoretical FPR is ~0.82%; require < 2x that
  // (deterministic: the hash is seedless, the key sets are fixed).
  std::vector<std::string> keys;
  for (int i = 0; i < 10000; ++i) {
    keys.push_back("member" + std::to_string(i));
  }
  std::string filter;
  BloomFilterBuild(keys, 10, &filter);
  int false_positives = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    if (BloomFilterMayContain(filter, "absent" + std::to_string(i))) {
      ++false_positives;
    }
  }
  const double fpr = static_cast<double>(false_positives) / probes;
  EXPECT_LT(fpr, 2 * 0.0082) << "fpr=" << fpr;
  EXPECT_GT(false_positives, 0);  // a bloom filter is not a perfect set
}

TEST(BloomFilterTest, BinaryKeysSupported) {
  const std::string k1("\x00\x01\xFF", 3);
  const std::string k2("\x00\x01\xFE", 3);
  std::string filter;
  BloomFilterBuild({k1}, 10, &filter);
  EXPECT_TRUE(BloomFilterMayContain(filter, k1));
  // Not guaranteed in general, but pinned here: sibling binary key misses.
  EXPECT_FALSE(BloomFilterMayContain(filter, k2));
}

TEST(FormatTest, BinaryKeysAndValuesSurvive) {
  std::string key("\x00\x01\xFF", 3);
  std::string value("\xDE\xAD\x00\xBE\xEF", 5);
  std::string buf;
  EncodeRecord(&buf, key, 7, ValueType::kPut, value);
  size_t off = 0;
  Record r;
  ASSERT_TRUE(DecodeRecord(buf, &off, &r));
  EXPECT_EQ(r.key, key);
  EXPECT_EQ(r.value, value);
}

}  // namespace
}  // namespace libra::lsm
