// Sorted string table (SST) files on extfs.
//
// File layout:
//   [data block]*            entries in internal-key order
//   [filter block]           serialized bloom filter over user keys
//   [index block]            per data block: offset/size/last user key
//   [props]                  smallest & largest user key, max sequence
//   [footer, 64 bytes]       offsets/sizes + magic
//
// Data block entry: u16 klen | u32 vlen | u64 seq | u8 type | key | value.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "storage/extfs.h"
#include "storage/kvdb/bloom.h"
#include "storage/kvdb/memtable.h"

namespace deepnote::storage::kvdb {

inline constexpr std::uint32_t kSstMagic = 0x53535431;  // "SST1"
inline constexpr std::uint32_t kTargetDataBlockBytes = 4096;

struct SstFooter {
  std::uint64_t index_offset = 0;
  std::uint32_t index_size = 0;
  std::uint64_t filter_offset = 0;
  std::uint32_t filter_size = 0;
  std::uint64_t props_offset = 0;
  std::uint32_t props_size = 0;
  std::uint64_t entry_count = 0;
  std::uint64_t max_sequence = 0;
  std::uint32_t magic = kSstMagic;
};

/// Builds an SST in memory; entries must arrive in internal-key order
/// (ascending user key, newest first within a user key).
class SstBuilder {
 public:
  explicit SstBuilder(std::size_t expected_keys);

  void add(std::string_view user_key, const MemEntry& entry);

  /// Finalize and write to a fresh file at `path`. Durable (fsynced) on
  /// success. Returns the fs error and completion time.
  FsResult write_to(ExtFs& fs, sim::SimTime now, std::string_view path);

  std::uint64_t entry_count() const { return entry_count_; }
  std::uint64_t data_bytes() const { return data_.size(); }

 private:
  void finish_block();

  std::vector<std::byte> data_;         // concatenated data blocks
  std::vector<std::byte> current_;      // block under construction
  struct IndexEntry {
    std::uint64_t offset;
    std::uint32_t size;
    std::string last_key;
  };
  std::vector<IndexEntry> index_;
  BloomFilter bloom_;
  std::string smallest_;
  std::string largest_;
  std::string block_last_key_;
  std::uint64_t entry_count_ = 0;
  std::uint64_t max_sequence_ = 0;
  std::string last_user_key_seen_;  // dedup keys for the bloom filter
};

/// One data-block entry decoded in place: `user_key` and `value` view the
/// block buffer and stay valid only as long as that buffer does.
struct BlockEntry {
  std::string_view user_key;
  std::string_view value;
  std::uint64_t sequence = 0;
  EntryType type = EntryType::kPut;
};

/// Bounds-checked walk over one data block's entries, without copying
/// them. Every reader of a data block goes through it.
class BlockDecoder {
 public:
  explicit BlockDecoder(std::span<const std::byte> block)
      : p_(block.data()), end_(block.data() + block.size()) {}

  /// Decodes the next entry into `*out`. Returns false at the end of the
  /// block, and also on an entry whose header or bytes run past the end;
  /// malformed() tells the two apart.
  bool next(BlockEntry* out);
  bool malformed() const { return malformed_; }

 private:
  const std::byte* p_ = nullptr;
  const std::byte* end_ = nullptr;
  bool malformed_ = false;
};

struct SstGetResult {
  Errno err = Errno::kOk;
  sim::SimTime done = sim::SimTime::zero();
  LookupState state = LookupState::kMissing;
  std::string value;
};

/// Reader: index + bloom are loaded once at open (table cache); point
/// lookups read one data block from the filesystem into a buffer the
/// reader keeps, and copy out only the matching value.
class SstReader {
 public:
  struct OpenResult {
    Errno err = Errno::kOk;
    sim::SimTime done = sim::SimTime::zero();
    std::unique_ptr<SstReader> reader;
    bool ok() const { return err == Errno::kOk; }
  };
  static OpenResult open(ExtFs& fs, sim::SimTime now, std::string_view path);

  SstGetResult get(sim::SimTime now, std::string_view user_key);

  /// Stream every entry in order (used by compaction, recovery and
  /// Db::verify_integrity). Reads the whole data area; returns err/time,
  /// kEINVAL on a malformed block. The entry's views die with its block:
  /// copy what you keep.
  FsResult scan(sim::SimTime now,
                const std::function<void(const BlockEntry&)>& fn);

  const std::string& smallest() const { return smallest_; }
  const std::string& largest() const { return largest_; }
  std::uint64_t max_sequence() const { return max_sequence_; }
  std::uint64_t entry_count() const { return entry_count_; }
  const std::string& path() const { return path_; }

 private:
  SstReader(ExtFs& fs, std::string path, std::uint32_t inode);

  /// One data block. Its last user key sits in `index_keys_`, so that the
  /// index search reads two contiguous arrays instead of chasing a heap
  /// string per block (db_bench's 16-byte keys do not fit the small-string
  /// buffer).
  struct IndexEntry {
    std::uint64_t offset;
    std::uint32_t size;
    std::uint32_t key_offset;
    std::uint32_t key_len;
  };
  std::string_view last_key(const IndexEntry& ie) const {
    return {index_keys_.data() + ie.key_offset, ie.key_len};
  }
  /// Reads data block `ie` into `buf`, growing it as needed, and points
  /// `*block` at exactly the block's bytes. Advances `t`; a short read is
  /// kEINVAL.
  Errno read_block(sim::SimTime& t, const IndexEntry& ie,
                   std::vector<std::byte>& buf,
                   std::span<const std::byte>* block);

  ExtFs& fs_;
  std::string path_;
  std::uint32_t inode_;
  std::vector<IndexEntry> index_;
  std::string index_keys_;  ///< every block's last key, back to back
  std::vector<std::byte> block_buf_;  ///< get()'s reused block buffer
  std::optional<BloomFilter> bloom_;
  std::string smallest_;
  std::string largest_;
  std::uint64_t entry_count_ = 0;
  std::uint64_t max_sequence_ = 0;
};

}  // namespace deepnote::storage::kvdb
