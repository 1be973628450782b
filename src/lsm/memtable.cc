#include "src/lsm/memtable.h"

namespace libra::lsm {

MemTable::GetResult MemTable::Get(std::string_view key,
                                  SequenceNumber snapshot) const {
  GetResult result;
  SkipList<Entry, EntryComparator>::Iterator it(&table_);
  // Seek to the newest entry visible at `snapshot`: internal order is
  // (key asc, seq desc), so the first entry >= (key, snapshot) is the
  // newest one with seq <= snapshot.
  Entry probe;
  probe.key = key;
  probe.seq = snapshot;
  probe.type = ValueType::kPut;
  it.Seek(probe);
  if (!it.Valid() || it.key().key != key) {
    return result;
  }
  const Entry& e = it.key();
  result.found = true;
  if (e.type == ValueType::kDelete) {
    result.deleted = true;
  } else {
    result.value = e.value;
  }
  return result;
}

void MemTable::Iterator::Seek(std::string_view user_key) {
  // Internal order is (key asc, seq desc): the newest possible version of
  // `user_key` sorts first among its versions.
  Entry probe;
  probe.key = user_key;
  probe.seq = kMaxSequenceNumber;
  it_.Seek(probe);
  SkipHidden();
}

}  // namespace libra::lsm
