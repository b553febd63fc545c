#include "storage/kvdb/memtable.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace deepnote::storage::kvdb {
namespace {

// Hashes every byte of the key, a word at a time: db_bench keys are
// zero-padded decimals, so their first words are almost always equal.
std::uint64_t hash_key(std::string_view key) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  std::uint64_t h = key.size();
  std::size_t i = 0;
  for (; i + 8 <= key.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, key.data() + i, 8);
    h = std::rotl((h ^ w) * kMul, 31);
  }
  if (i < key.size()) {
    std::uint64_t w = 0;
    std::memcpy(&w, key.data() + i, key.size() - i);
    h = std::rotl((h ^ w) * kMul, 31);
  }
  // MurmurHash3's 64-bit finaliser: every bit reaches the low bits that
  // pick the slot.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

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
                                     std::uint64_t sequence) {
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
  insert(key, std::move(e));
}

void MemTable::del(std::string_view key, std::uint64_t sequence) {
  MemEntry e;
  e.type = EntryType::kDelete;
  e.sequence = sequence;
  bytes_ += key.size() + 48;
  insert(key, std::move(e));
}

void MemTable::insert(std::string_view key, MemEntry entry) {
  const List::Node* node =
      list_.insert(build_key(key, entry.sequence), std::move(entry));
  if (!index_.empty()) index_node(key, node);
}

void MemTable::index_node(std::string_view key, const List::Node* node) {
  const std::uint64_t hash = hash_key(key);
  std::size_t i = find_slot(key, hash);
  if (index_[i].node != nullptr) {
    // The skiplist puts a new entry before older equal keys, so it comes
    // first for its user key unless a higher sequence is already stored.
    if (node->value.sequence >= index_[i].node->value.sequence) {
      index_[i].node = node;
    }
    return;
  }
  if ((indexed_keys_ + 1) * 2 > index_.size()) {
    grow_index();
    i = find_slot(key, hash);
  }
  index_[i] = Slot{hash, node};
  ++indexed_keys_;
}

std::size_t MemTable::find_slot(std::string_view key,
                                std::uint64_t hash) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash & mask;
  while (index_[i].node != nullptr &&
         (index_[i].hash != hash ||
          user_key_of(index_[i].node->key()) != key)) {
    i = (i + 1) & mask;
  }
  return i;
}

void MemTable::grow_index() {
  std::vector<Slot> old(std::max(kInitialIndexSlots, index_.size() * 2));
  old.swap(index_);
  const std::size_t mask = index_.size() - 1;
  for (const Slot& s : old) {
    if (s.node == nullptr) continue;
    std::size_t i = s.hash & mask;
    while (index_[i].node != nullptr) i = (i + 1) & mask;
    index_[i] = s;
  }
}

LookupState MemTable::get(std::string_view key, std::string* value_out) {
  if (index_.empty()) {
    grow_index();
    // Equal user keys sit together in the skiplist, first the entry the
    // index wants: index the first of each run.
    std::string_view prev;
    for (const List::Node* n = list_.front(); n != nullptr; n = n->next[0]) {
      const std::string_view user = user_key_of(n->key());
      if (n == list_.front() || user != prev) index_node(user, n);
      prev = user;
    }
  }
  const Slot& slot = index_[find_slot(key, hash_key(key))];
  if (slot.node == nullptr) return LookupState::kMissing;
  const MemEntry& e = slot.node->value;
  if (e.type == EntryType::kDelete) return LookupState::kDeleted;
  if (value_out) *value_out = e.value;
  return LookupState::kFound;
}

void MemTable::for_each(
    const std::function<void(std::string_view, const MemEntry&)>& fn) const {
  list_.for_each([&](std::string_view ikey, const MemEntry& e) {
    fn(user_key_of(ikey), e);
  });
}

}  // namespace deepnote::storage::kvdb
