// Memtable: in-memory sorted buffer of recent writes.
//
// Entries are keyed by (user_key, inverted sequence) so that the skiplist
// orders the *newest* entry for a user key first — the RocksDB
// internal-key trick. The flush walks the skiplist in that order. Point
// reads go through a hash index on the user key instead, whose slot for a
// key points at the entry the skiplist orders first for it. The index is
// built at the first get and kept up to date by every write after it, so
// a memtable that is only written (db_bench's preload) never pays for it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/kvdb/skiplist.h"

namespace deepnote::storage::kvdb {

enum class EntryType : std::uint8_t {
  kPut = 1,
  kDelete = 2,
};

struct MemEntry {
  EntryType type = EntryType::kPut;
  std::uint64_t sequence = 0;
  std::string value;
};

/// Result of a point lookup against one container.
enum class LookupState {
  kFound,    ///< value present
  kDeleted,  ///< tombstone: stop searching older containers
  kMissing,  ///< not in this container: search older ones
};

/// Orders internal keys by (user key ascending, sequence descending) —
/// raw byte comparison of the concatenated encoding would mis-order user
/// keys that are prefixes of one another (the binary ~sequence suffix
/// compares higher than printable key bytes).
struct InternalKeyLess {
  inline bool operator()(std::string_view a, std::string_view b) const;
};

/// The same order on decoded parts, for entries that carry their user key
/// and sequence separately (SST blocks, merge inputs).
inline bool internal_less(std::string_view user_a, std::uint64_t seq_a,
                          std::string_view user_b, std::uint64_t seq_b) {
  const int cmp = user_a.compare(user_b);
  return cmp != 0 ? cmp < 0 : seq_a > seq_b;
}

class MemTable {
 public:
  explicit MemTable(std::uint64_t seed = 0x9e37ull) : list_(seed) {}

  void put(std::string_view key, std::string_view value,
           std::uint64_t sequence);
  void del(std::string_view key, std::uint64_t sequence);

  /// One probe of the hash index: the newest entry for `key`, no seek.
  /// The first call builds the index from the skiplist.
  LookupState get(std::string_view key, std::string* value_out);

  /// Approximate memory footprint (keys + values + node overhead).
  std::uint64_t approximate_bytes() const { return bytes_; }
  std::size_t entry_count() const { return list_.size(); }
  bool empty() const { return list_.empty(); }

  /// Iterate entries in internal-key order (ascending user key, newest
  /// first within a key).
  void for_each(const std::function<void(std::string_view user_key,
                                         const MemEntry&)>& fn) const;

  /// Internal-key encoding helpers (shared with the SST writer).
  static std::string internal_key(std::string_view user_key,
                                  std::uint64_t sequence);
  static std::string_view user_key_of(std::string_view internal_key) {
    return internal_key.substr(0, internal_key.size() - 8);
  }
  static std::uint64_t sequence_of(std::string_view internal_key) {
    std::uint64_t inv = 0;
    const auto* p = internal_key.data() + internal_key.size() - 8;
    for (int i = 0; i < 8; ++i) {
      inv = (inv << 8) | static_cast<unsigned char>(p[i]);
    }
    return ~inv;
  }

 private:
  using List = SkipList<MemEntry, InternalKeyLess>;

  /// Open-addressing slot: the user key's hash and the entry the skiplist
  /// orders first for that key (nullptr: empty).
  struct Slot {
    std::uint64_t hash = 0;
    const List::Node* node = nullptr;
  };

  /// Encode (user_key, sequence) into the reusable scratch buffer and
  /// return a view of it — the hot-path equivalent of internal_key()
  /// without the per-call string allocation. The view is only valid until
  /// the next build_key call; the skiplist copies it on insert.
  std::string_view build_key(std::string_view user_key,
                             std::uint64_t sequence);

  /// Inserts into the skiplist, then, once the index exists, indexes the
  /// new node.
  void insert(std::string_view key, MemEntry entry);
  /// Points `key`'s slot at `node` if the skiplist orders it first for the
  /// key: the key is new, or no higher sequence is stored for it.
  void index_node(std::string_view key, const List::Node* node);
  /// Position of the slot holding `key`, or of the empty slot where it
  /// would go.
  std::size_t find_slot(std::string_view key, std::uint64_t hash) const;
  /// Doubles the index (from empty: to its first size) and re-places every
  /// slot by its stored hash.
  void grow_index();

  // Grown on demand, not presized to the write buffer.
  static constexpr std::size_t kInitialIndexSlots = 16;

  List list_;
  std::uint64_t bytes_ = 0;
  std::string key_scratch_;  // reused by build_key
  std::vector<Slot> index_;  // empty until the first get, then a power of
                             // two in size and at most half full
  std::size_t indexed_keys_ = 0;
};

// Inline: it runs at every skiplist step.
bool InternalKeyLess::operator()(std::string_view a,
                                 std::string_view b) const {
  // One three-way compare per step: a skiplist walk spends most of its
  // comparisons on distinct user keys.
  const int cmp = MemTable::user_key_of(a).compare(MemTable::user_key_of(b));
  if (cmp != 0) return cmp < 0;
  return MemTable::sequence_of(a) > MemTable::sequence_of(b);
}

}  // namespace deepnote::storage::kvdb
