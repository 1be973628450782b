#include "src/lsm/format.h"

#include <array>
#include <cassert>
#include <cstring>

namespace libra::lsm {

void EncodeFixed32(char* dst, uint32_t v) {
  dst[0] = static_cast<char>(v & 0xFF);
  dst[1] = static_cast<char>((v >> 8) & 0xFF);
  dst[2] = static_cast<char>((v >> 16) & 0xFF);
  dst[3] = static_cast<char>((v >> 24) & 0xFF);
}

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  PutFixed32(dst, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutFixed32(dst, static_cast<uint32_t>(v >> 32));
}

uint32_t GetFixed32(std::string_view src, size_t offset) {
  assert(offset + 4 <= src.size());
  const auto* p = reinterpret_cast<const unsigned char*>(src.data() + offset);
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint64_t GetFixed64(std::string_view src, size_t offset) {
  return static_cast<uint64_t>(GetFixed32(src, offset)) |
         (static_cast<uint64_t>(GetFixed32(src, offset + 4)) << 32);
}

void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutFixed32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

bool GetLengthPrefixed(std::string_view src, size_t* offset,
                       std::string_view* out) {
  if (*offset + 4 > src.size()) {
    return false;
  }
  const uint32_t len = GetFixed32(src, *offset);
  *offset += 4;
  if (*offset + len > src.size()) {
    return false;
  }
  *out = src.substr(*offset, len);
  *offset += len;
  return true;
}

namespace {

// Slice-by-8 tables: table[0] is the classic byte-at-a-time table; table[k]
// advances a byte through k additional zero bytes, letting the software loop
// fold 8 input bytes per iteration instead of 1.
struct CrcTables {
  uint32_t t[8][256];
};

CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0x82F63B78u & (~(crc & 1) + 1));
    }
    tables.t[0][i] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = tables.t[0][prev & 0xFF] ^ (prev >> 8);
    }
  }
  return tables;
}

const CrcTables kCrcTables = MakeCrcTables();

uint32_t LoadLe32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  // All supported targets are little-endian; GetFixed32 makes the same
  // assumption via explicit byte math, this one lets the compiler emit a
  // single load.
  return v;
}

}  // namespace

namespace internal {

uint32_t Crc32Software(std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  const auto& t = kCrcTables.t;
  uint32_t crc = 0xFFFFFFFFu;
  while (n >= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__)

__attribute__((target("sse4.2"))) uint32_t Crc32Hardware(
    std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint64_t crc = 0xFFFFFFFFu;
  while (n >= 8) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    crc = __builtin_ia32_crc32di(crc, v);
    p += 8;
    n -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  if (n >= 4) {
    uint32_t v;
    std::memcpy(&v, p, 4);
    crc32 = __builtin_ia32_crc32si(crc32, v);
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc32 = __builtin_ia32_crc32qi(crc32, *p++);
  }
  return crc32 ^ 0xFFFFFFFFu;
}

bool HasHardwareCrc32() { return __builtin_cpu_supports("sse4.2"); }

#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)

uint32_t Crc32Hardware(std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  while (n >= 8) {
    uint64_t v;
    std::memcpy(&v, p, 8);
    crc = __builtin_aarch64_crc32cx(crc, v);
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = __builtin_aarch64_crc32cb(crc, *p++);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool HasHardwareCrc32() { return true; }

#else

uint32_t Crc32Hardware(std::string_view data) { return Crc32Software(data); }
bool HasHardwareCrc32() { return false; }

#endif

}  // namespace internal

namespace {

// Resolved once at startup; both implementations produce identical values
// (pinned by the golden-vector test on whichever paths the host has).
const bool kUseHardwareCrc = internal::HasHardwareCrc32();

}  // namespace

uint32_t Crc32(std::string_view data) {
  return kUseHardwareCrc ? internal::Crc32Hardware(data)
                         : internal::Crc32Software(data);
}

// FNV-1a over the key bytes, folded to 32 bits. Pure function of the bytes —
// no per-process seed — so filters built on one host probe identically on any
// other, and identically across --sim-threads settings.
uint32_t BloomHash(std::string_view key) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

void BloomFilterBuild(const std::vector<std::string>& keys,
                      uint32_t bits_per_key, std::string* dst) {
  std::vector<uint32_t> hashes;
  hashes.reserve(keys.size());
  for (const std::string& key : keys) {
    hashes.push_back(BloomHash(key));
  }
  BloomFilterBuildFromHashes(hashes, bits_per_key, dst);
}

void BloomFilterBuildFromHashes(const std::vector<uint32_t>& key_hashes,
                                uint32_t bits_per_key, std::string* dst) {
  if (bits_per_key == 0) {
    return;
  }
  // k ~= bits_per_key * ln(2) probes minimizes the false-positive rate.
  uint32_t k = bits_per_key * 69 / 100;
  if (k < 1) {
    k = 1;
  }
  if (k > 30) {
    k = 30;
  }
  size_t bits = key_hashes.size() * static_cast<size_t>(bits_per_key);
  // Tiny tables would have a high false-positive rate for no byte savings.
  if (bits < 64) {
    bits = 64;
  }
  const size_t bytes = (bits + 7) / 8;
  bits = bytes * 8;

  const size_t start = dst->size();
  dst->resize(start + bytes, 0);
  dst->push_back(static_cast<char>(k));
  char* array = dst->data() + start;
  for (uint32_t h : key_hashes) {
    // Double hashing: k probe positions from one hash (Kirsch-Mitzenmacher).
    const uint32_t delta = (h >> 17) | (h << 15);
    for (uint32_t j = 0; j < k; ++j) {
      const uint32_t bit = h % bits;
      array[bit / 8] |= static_cast<char>(1 << (bit % 8));
      h += delta;
    }
  }
}

bool BloomFilterMayContain(std::string_view filter, std::string_view key) {
  if (filter.size() < 2) {
    return true;
  }
  const size_t bits = (filter.size() - 1) * 8;
  const uint32_t k = static_cast<unsigned char>(filter.back());
  if (k > 30) {
    // Reserved for future encodings; treat as a match rather than wrongly
    // excluding keys behind a format we do not understand.
    return true;
  }
  const auto* array = reinterpret_cast<const unsigned char*>(filter.data());
  uint32_t h = BloomHash(key);
  const uint32_t delta = (h >> 17) | (h << 15);
  for (uint32_t j = 0; j < k; ++j) {
    const uint32_t bit = h % bits;
    if ((array[bit / 8] & (1 << (bit % 8))) == 0) {
      return false;
    }
    h += delta;
  }
  return true;
}

int CompareInternalKey(std::string_view a_user, SequenceNumber a_seq,
                       std::string_view b_user, SequenceNumber b_seq) {
  const int c = a_user.compare(b_user);
  if (c != 0) {
    return c;
  }
  // Higher sequence numbers sort first (descending).
  if (a_seq > b_seq) {
    return -1;
  }
  if (a_seq < b_seq) {
    return 1;
  }
  return 0;
}

void EncodeRecord(std::string* dst, std::string_view key, SequenceNumber seq,
                  ValueType type, std::string_view value) {
  PutLengthPrefixed(dst, key);
  PutFixed64(dst, seq);
  dst->push_back(static_cast<char>(type));
  PutLengthPrefixed(dst, value);
}

Record EncodeRecordAt(char* dst, std::string_view key, SequenceNumber seq,
                      ValueType type, std::string_view value) {
  Record rec{{}, {}, seq, type};
  EncodeFixed32(dst, static_cast<uint32_t>(key.size()));
  dst += 4;
  if (!key.empty()) {
    std::memcpy(dst, key.data(), key.size());
  }
  rec.key = std::string_view(dst, key.size());
  dst += key.size();
  EncodeFixed32(dst, static_cast<uint32_t>(seq & 0xFFFFFFFFu));
  EncodeFixed32(dst + 4, static_cast<uint32_t>(seq >> 32));
  dst += 8;
  *dst++ = static_cast<char>(type);
  EncodeFixed32(dst, static_cast<uint32_t>(value.size()));
  dst += 4;
  if (!value.empty()) {
    std::memcpy(dst, value.data(), value.size());
  }
  rec.value = std::string_view(dst, value.size());
  return rec;
}

bool DecodeRecord(std::string_view src, size_t* offset, Record* out) {
  if (!GetLengthPrefixed(src, offset, &out->key)) {
    return false;
  }
  if (*offset + 9 > src.size()) {
    return false;
  }
  out->seq = GetFixed64(src, *offset);
  *offset += 8;
  out->type = static_cast<ValueType>(src[*offset]);
  *offset += 1;
  return GetLengthPrefixed(src, offset, &out->value);
}

}  // namespace libra::lsm
