#include "storage/kvdb/memtable.h"

#include <cstring>

namespace deepnote::storage::kvdb {

std::string MemTable::internal_key(std::string_view user_key,
                                   std::uint64_t sequence) {
  // user_key + big-endian(~sequence): ascending key order, newest (highest
  // sequence) first among equal user keys.
  std::string k;
  k.reserve(user_key.size() + 8);
  k.assign(user_key);
  const std::uint64_t inv = ~sequence;
  for (int shift = 56; shift >= 0; shift -= 8) {
    k.push_back(static_cast<char>((inv >> shift) & 0xff));
  }
  return k;
}

std::string_view MemTable::build_key(std::string_view user_key,
                                     std::uint64_t sequence) const {
  // Same encoding as internal_key(), into a buffer whose capacity sticks
  // across calls.
  key_scratch_.assign(user_key);
  const std::uint64_t inv = ~sequence;
  for (int shift = 56; shift >= 0; shift -= 8) {
    key_scratch_.push_back(static_cast<char>((inv >> shift) & 0xff));
  }
  return key_scratch_;
}

void MemTable::put(std::string_view key, std::string_view value,
                   std::uint64_t sequence) {
  MemEntry e;
  e.type = EntryType::kPut;
  e.sequence = sequence;
  e.value.assign(value);
  bytes_ += key.size() + value.size() + 48;  // node overhead estimate
  list_.insert(build_key(key, sequence), std::move(e));
}

void MemTable::del(std::string_view key, std::uint64_t sequence) {
  MemEntry e;
  e.type = EntryType::kDelete;
  e.sequence = sequence;
  bytes_ += key.size() + 48;
  list_.insert(build_key(key, sequence), std::move(e));
}

LookupState MemTable::get(std::string_view key, std::string* value_out) const {
  // The newest entry for `key` sorts first among internal keys with this
  // user key; seek to (key, max sequence).
  const std::string_view seek = build_key(key, ~std::uint64_t{0});
  std::string_view found_key;
  const MemEntry* e = list_.find_first_at_least(seek, &found_key);
  if (e == nullptr) return LookupState::kMissing;
  if (user_key_of(found_key) != key) return LookupState::kMissing;
  if (e->type == EntryType::kDelete) return LookupState::kDeleted;
  if (value_out) *value_out = e->value;
  return LookupState::kFound;
}

void MemTable::for_each(
    const std::function<void(std::string_view, const MemEntry&)>& fn) const {
  list_.for_each([&](std::string_view ikey, const MemEntry& e) {
    fn(user_key_of(ikey), e);
  });
}

}  // namespace deepnote::storage::kvdb
