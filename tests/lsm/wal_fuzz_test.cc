// Torn-tail fuzzing for WAL recovery (crash-recovery satellite): a crash
// can leave the log truncated at an arbitrary byte and/or with flipped
// bits from a torn sector write. The recovery contract is that Replay
// never fails and never fabricates data — it yields exactly a prefix of
// the appended records, stopping at the first incomplete or
// CRC-mismatched frame.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/lsm/wal.h"
#include "tests/lsm/lsm_rig.h"

namespace libra::lsm {
namespace {

using testing::LsmRig;

const iosched::IoTag kPutTag{.tenant = 1, .app = iosched::AppRequest::kPut};

// splitmix64: one seeded stream drives every damage decision, so a failing
// case number reproduces exactly.
uint64_t SplitMix(uint64_t* state) {
  *state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = *state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct FuzzRecord {
  std::string key;
  SequenceNumber seq = 0;
  ValueType type = ValueType::kPut;
  std::string value;
};

void AppendAll(LsmRig& rig, WriteAheadLog& wal,
               const std::vector<FuzzRecord>& records,
               std::vector<uint64_t>* boundaries = nullptr) {
  rig.RunTask([&]() -> sim::Task<void> {
    for (const FuzzRecord& r : records) {
      EXPECT_TRUE(
          (co_await wal.Append(kPutTag, r.key, r.seq, r.type, r.value)).ok());
      if (boundaries != nullptr) {
        boundaries->push_back(rig.fs.SizeOf(*rig.fs.Open(wal.filename())));
      }
    }
  }());
}

// Replays and checks the prefix property: every record that comes back
// must match the written record at the same position, in full.
size_t ReplayAndCheckPrefix(const WriteAheadLog& wal,
                            const std::vector<FuzzRecord>& written,
                            int case_id) {
  std::vector<std::string> keys;
  std::vector<std::string> values;
  std::vector<SequenceNumber> seqs;
  std::vector<ValueType> types;
  const Status s = wal.Replay([&](const LoggedRecord& logged) {
    const Record& r = logged.record;
    keys.emplace_back(r.key);
    values.emplace_back(r.value);
    seqs.push_back(r.seq);
    types.push_back(r.type);
  });
  EXPECT_TRUE(s.ok()) << "case " << case_id << ": " << s.ToString();
  EXPECT_LE(keys.size(), written.size()) << "case " << case_id;
  const size_t n = std::min(keys.size(), written.size());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(keys[i], written[i].key) << "case " << case_id << " rec " << i;
    EXPECT_EQ(values[i], written[i].value)
        << "case " << case_id << " rec " << i;
    EXPECT_EQ(seqs[i], written[i].seq) << "case " << case_id << " rec " << i;
    EXPECT_EQ(types[i], written[i].type) << "case " << case_id << " rec " << i;
  }
  return keys.size();
}

std::vector<FuzzRecord> MakeRecords(int case_id, int count, uint64_t* rng) {
  std::vector<FuzzRecord> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    FuzzRecord r;
    r.key = "k" + std::to_string(case_id) + "_" + std::to_string(i);
    r.seq = static_cast<SequenceNumber>(i + 1);
    r.type = (SplitMix(rng) % 4 == 0) ? ValueType::kDelete : ValueType::kPut;
    if (r.type == ValueType::kPut) {
      r.value.assign(1 + SplitMix(rng) % 120,
                     static_cast<char>('a' + (i % 26)));
    }
    out.push_back(std::move(r));
  }
  return out;
}

TEST(WalFuzzTest, DamagedLogsAlwaysReplayAnIntactPrefix) {
  LsmRig rig;
  constexpr int kCases = 1000;
  constexpr int kRecords = 8;
  uint64_t rng = 0x7E57ED5EEDULL;
  for (int c = 0; c < kCases; ++c) {
    const std::string name = "wal_fuzz";
    const std::vector<FuzzRecord> written = MakeRecords(c, kRecords, &rng);
    WriteAheadLog wal(rig.fs, name);
    EXPECT_TRUE(wal.Open().ok());
    AppendAll(rig, wal, written);
    const uint64_t full_size = rig.fs.SizeOf(*rig.fs.Open(name));
    EXPECT_GT(full_size, 0u);

    // Damage: truncate at a random byte, flip a random bit, or both.
    const uint64_t mode = SplitMix(&rng) % 3;
    if (mode == 0 || mode == 2) {
      EXPECT_TRUE(rig.fs.Truncate(name, SplitMix(&rng) % (full_size + 1)).ok());
    }
    const uint64_t cur_size = rig.fs.SizeOf(*rig.fs.Open(name));
    if ((mode == 1 || mode == 2) && cur_size > 0) {
      const uint8_t mask = static_cast<uint8_t>(1u << (SplitMix(&rng) % 8));
      EXPECT_TRUE(
          rig.fs.CorruptByte(name, SplitMix(&rng) % cur_size, mask).ok());
    }

    ReplayAndCheckPrefix(wal, written, c);
    // Extents are a finite resource; release them between cases.
    EXPECT_TRUE(wal.Remove().ok());
  }
}

TEST(WalFuzzTest, EveryTruncationPointReplaysTheExactFramePrefix) {
  // Exhaustive (non-random) sweep: cut the log at every byte, walking
  // downward so one log serves every cut. The replayed count must be
  // exactly the number of frames wholly inside the cut.
  LsmRig rig;
  uint64_t rng = 0xB17F11D5ULL;
  const std::vector<FuzzRecord> written = MakeRecords(0, 6, &rng);
  WriteAheadLog wal(rig.fs, "wal_sweep");
  EXPECT_TRUE(wal.Open().ok());
  std::vector<uint64_t> boundaries;  // cumulative frame end offsets
  AppendAll(rig, wal, written, &boundaries);
  EXPECT_EQ(boundaries.size(), written.size());
  for (uint64_t cut = boundaries.back() + 1; cut-- > 0;) {
    EXPECT_TRUE(rig.fs.Truncate("wal_sweep", cut).ok());
    size_t expected = 0;
    while (expected < boundaries.size() && boundaries[expected] <= cut) {
      ++expected;
    }
    EXPECT_EQ(ReplayAndCheckPrefix(wal, written, static_cast<int>(cut)),
              expected)
        << "cut at byte " << cut;
  }
}

TEST(WalFuzzTest, SingleBitFlipNeverFabricatesARecord) {
  // Flip every bit of a small log one at a time (fresh log per flip is too
  // slow; flip, check, flip back). Replay must stay a clean prefix.
  LsmRig rig;
  uint64_t rng = 0x5EEDF00DULL;
  const std::vector<FuzzRecord> written = MakeRecords(1, 4, &rng);
  WriteAheadLog wal(rig.fs, "wal_bits");
  EXPECT_TRUE(wal.Open().ok());
  AppendAll(rig, wal, written);
  const uint64_t size = rig.fs.SizeOf(*rig.fs.Open("wal_bits"));
  for (uint64_t off = 0; off < size; ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      const uint8_t mask = static_cast<uint8_t>(1u << bit);
      EXPECT_TRUE(rig.fs.CorruptByte("wal_bits", off, mask).ok());
      ReplayAndCheckPrefix(wal, written,
                           static_cast<int>(off * 8 + static_cast<uint64_t>(bit)));
      EXPECT_TRUE(rig.fs.CorruptByte("wal_bits", off, mask).ok());  // undo
    }
  }
  // Undamaged again: the full log must replay completely.
  EXPECT_EQ(ReplayAndCheckPrefix(wal, written, -1), written.size());
}

}  // namespace
}  // namespace libra::lsm
