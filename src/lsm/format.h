// On-disk encoding primitives for the LSM engine: fixed/varint-free little-
// endian integer coding, CRC32 for WAL record integrity, and the internal
// key ordering (user key ascending, sequence number descending).

#ifndef LIBRA_SRC_LSM_FORMAT_H_
#define LIBRA_SRC_LSM_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace libra::lsm {

// Record types, shared by the WAL and SSTables.
enum class ValueType : uint8_t {
  kPut = 1,
  kDelete = 2,
};

using SequenceNumber = uint64_t;
inline constexpr SequenceNumber kMaxSequenceNumber = UINT64_MAX;

// --- integer coding (little endian, fixed width) ---

void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);

// Writes `v` over the 4 bytes at `dst` (filling in a reserved header).
void EncodeFixed32(char* dst, uint32_t v);

// Reads from `src` at `offset`; callers guarantee bounds.
uint32_t GetFixed32(std::string_view src, size_t offset);
uint64_t GetFixed64(std::string_view src, size_t offset);

// --- string coding: [len u32][bytes] ---

void PutLengthPrefixed(std::string* dst, std::string_view s);

// Parses a length-prefixed string at *offset, advancing it. Returns false
// on truncation.
bool GetLengthPrefixed(std::string_view src, size_t* offset,
                       std::string_view* out);

// --- CRC32 (Castagnoli polynomial) ---
//
// Computed slice-by-8 in software, or with the CPU's CRC32C instructions
// (SSE4.2 / ARMv8 CRC) when the host supports them; the implementation is
// picked once at startup and both produce identical values (the classic
// reflected CRC32C, e.g. Crc32("123456789") == 0xE3069283).

uint32_t Crc32(std::string_view data);

namespace internal {

// Exposed so tests can pin both paths to the golden vectors regardless of
// which one the runtime dispatch picks.
uint32_t Crc32Software(std::string_view data);
uint32_t Crc32Hardware(std::string_view data);  // valid only if supported
bool HasHardwareCrc32();

}  // namespace internal

// --- bloom filter (per-SSTable filter block) ---
//
// LevelDB-style double-hashed bloom filter over user keys: a bit array
// sized `bits_per_key * n` followed by one byte holding the probe count k.
// Build and probe are pure functions of the key bytes — deterministic
// across hosts — and the encoding is self-describing, so a reader needs no
// knob to probe a filter it finds on disk. No false negatives, ever; the
// false-positive rate at 10 bits/key is ~1%.

// Appends the filter block for `keys` (user keys; duplicates are harmless)
// to `*dst`. `bits_per_key` 0 appends nothing (filters off).
void BloomFilterBuild(const std::vector<std::string>& keys,
                      uint32_t bits_per_key, std::string* dst);

// The same filter block from the keys' BloomHash values, for builders that
// hash keys as they arrive instead of keeping them.
uint32_t BloomHash(std::string_view key);
void BloomFilterBuildFromHashes(const std::vector<uint32_t>& key_hashes,
                                uint32_t bits_per_key, std::string* dst);

// True when `key` may be in the set `filter` was built from; false only
// when it definitely is not. An empty or malformed filter answers "maybe"
// (never wrongly excludes).
bool BloomFilterMayContain(std::string_view filter, std::string_view key);

// --- internal key ordering ---

// Entries are ordered by user key ascending and, within a key, sequence
// number descending — so the freshest version of a key is found first.
// Returns <0, 0, >0 like memcmp.
int CompareInternalKey(std::string_view a_user, SequenceNumber a_seq,
                       std::string_view b_user, SequenceNumber b_seq);

// One decoded record.
struct Record {
  std::string_view key;
  std::string_view value;
  SequenceNumber seq = 0;
  ValueType type = ValueType::kPut;
};

// Encodes a record as [key][seq][type][value] with length prefixes: the
// key bytes start 4 bytes into the record.
void EncodeRecord(std::string* dst, std::string_view key,
                  SequenceNumber seq, ValueType type, std::string_view value);

// EncodeRecord in place: writes the record's EncodedRecordBytes at `dst`
// and returns it, its key and value viewing the written bytes.
Record EncodeRecordAt(char* dst, std::string_view key, SequenceNumber seq,
                      ValueType type, std::string_view value);

// Bytes EncodeRecord appends for `key` and `value`.
inline uint64_t EncodedRecordBytes(std::string_view key,
                                   std::string_view value) {
  return key.size() + value.size() + 17;
}

// Decodes a record at *offset, advancing it. Returns false on truncation.
bool DecodeRecord(std::string_view src, size_t* offset, Record* out);

}  // namespace libra::lsm

#endif  // LIBRA_SRC_LSM_FORMAT_H_
