#include "storage/kvdb/sstable.h"

#include <algorithm>
#include <cstring>

namespace deepnote::storage::kvdb {
namespace {

void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  out.push_back(static_cast<std::byte>(v & 0xff));
  out.push_back(static_cast<std::byte>((v >> 8) & 0xff));
}
void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}
void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}
void put_bytes(std::vector<std::byte>& out, std::string_view s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  out.insert(out.end(), p, p + s.size());
}

struct ByteCursor {
  const std::byte* p;
  const std::byte* end;
  bool ok = true;

  template <typename T>
  T get() {
    if (static_cast<std::size_t>(end - p) < sizeof(T)) {
      ok = false;
      return T{};
    }
    T v;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
  }
  std::string_view get_view(std::size_t len) {
    if (static_cast<std::size_t>(end - p) < len) {
      ok = false;
      return {};
    }
    std::string_view s(reinterpret_cast<const char*>(p), len);
    p += len;
    return s;
  }
  std::string get_string(std::size_t len) {
    return std::string(get_view(len));
  }
};

}  // namespace

bool BlockDecoder::next(BlockEntry* out) {
  if (malformed_ || p_ == end_) return false;
  ByteCursor c{p_, end_};
  const std::uint16_t klen = c.get<std::uint16_t>();
  const std::uint32_t vlen = c.get<std::uint32_t>();
  out->sequence = c.get<std::uint64_t>();
  out->type = static_cast<EntryType>(c.get<std::uint8_t>());
  out->user_key = c.get_view(klen);
  out->value = c.get_view(vlen);
  if (!c.ok) {
    malformed_ = true;
    return false;
  }
  p_ = c.p;
  return true;
}

// ===========================================================================
// Builder

SstBuilder::SstBuilder(std::size_t expected_keys) : bloom_(expected_keys) {}

void SstBuilder::add(std::string_view user_key, const MemEntry& entry) {
  if (entry_count_ == 0) smallest_.assign(user_key);
  largest_.assign(user_key);
  if (user_key != last_user_key_seen_) {
    bloom_.add(user_key);
    last_user_key_seen_.assign(user_key);
  }
  max_sequence_ = std::max(max_sequence_, entry.sequence);

  put_u16(current_, static_cast<std::uint16_t>(user_key.size()));
  put_u32(current_, static_cast<std::uint32_t>(entry.value.size()));
  put_u64(current_, entry.sequence);
  current_.push_back(static_cast<std::byte>(entry.type));
  put_bytes(current_, user_key);
  put_bytes(current_, entry.value);
  block_last_key_.assign(user_key);
  ++entry_count_;

  if (current_.size() >= kTargetDataBlockBytes) finish_block();
}

void SstBuilder::finish_block() {
  if (current_.empty()) return;
  index_.push_back(IndexEntry{data_.size(),
                              static_cast<std::uint32_t>(current_.size()),
                              block_last_key_});
  data_.insert(data_.end(), current_.begin(), current_.end());
  current_.clear();
}

FsResult SstBuilder::write_to(ExtFs& fs, sim::SimTime now,
                              std::string_view path) {
  finish_block();

  std::vector<std::byte> file = std::move(data_);
  data_.clear();

  SstFooter footer;
  footer.entry_count = entry_count_;
  footer.max_sequence = max_sequence_;

  // Filter block.
  footer.filter_offset = file.size();
  {
    const auto bits = bloom_.serialize();
    footer.filter_size = static_cast<std::uint32_t>(bits.size());
    const auto* p = reinterpret_cast<const std::byte*>(bits.data());
    file.insert(file.end(), p, p + bits.size());
  }

  // Index block.
  footer.index_offset = file.size();
  {
    std::vector<std::byte> idx;
    put_u32(idx, static_cast<std::uint32_t>(index_.size()));
    for (const auto& e : index_) {
      put_u64(idx, e.offset);
      put_u32(idx, e.size);
      put_u16(idx, static_cast<std::uint16_t>(e.last_key.size()));
      put_bytes(idx, e.last_key);
    }
    footer.index_size = static_cast<std::uint32_t>(idx.size());
    file.insert(file.end(), idx.begin(), idx.end());
  }

  // Props.
  footer.props_offset = file.size();
  {
    std::vector<std::byte> props;
    put_u16(props, static_cast<std::uint16_t>(smallest_.size()));
    put_bytes(props, smallest_);
    put_u16(props, static_cast<std::uint16_t>(largest_.size()));
    put_bytes(props, largest_);
    footer.props_size = static_cast<std::uint32_t>(props.size());
    file.insert(file.end(), props.begin(), props.end());
  }

  // Footer.
  {
    std::vector<std::byte> f;
    put_u64(f, footer.index_offset);
    put_u32(f, footer.index_size);
    put_u64(f, footer.filter_offset);
    put_u32(f, footer.filter_size);
    put_u64(f, footer.props_offset);
    put_u32(f, footer.props_size);
    put_u64(f, footer.entry_count);
    put_u64(f, footer.max_sequence);
    put_u32(f, footer.magic);
    file.insert(file.end(), f.begin(), f.end());
  }

  std::uint32_t ino = 0;
  FsResult cr = fs.create(now, path, &ino);
  if (!cr.ok()) return cr;
  FsIoResult wr = fs.write(cr.done, ino, 0, file);
  if (!wr.ok()) return FsResult{wr.err, wr.done};
  return fs.fsync(wr.done, ino);
}

// ===========================================================================
// Reader

SstReader::SstReader(ExtFs& fs, std::string path, std::uint32_t inode)
    : fs_(fs), path_(std::move(path)), inode_(inode) {}

SstReader::OpenResult SstReader::open(ExtFs& fs, sim::SimTime now,
                                      std::string_view path) {
  OpenResult out;
  FsLookupResult lr = fs.lookup(now, path);
  if (!lr.ok()) {
    out.err = lr.err;
    out.done = lr.done;
    return out;
  }
  FsStatResult st = fs.stat(lr.done, lr.inode);
  if (!st.ok()) {
    out.err = st.err;
    out.done = st.done;
    return out;
  }
  constexpr std::uint64_t kFooterSize = 8 + 4 + 8 + 4 + 8 + 4 + 8 + 8 + 4;
  if (st.size < kFooterSize) {
    out.err = Errno::kEINVAL;
    out.done = st.done;
    return out;
  }
  auto reader = std::unique_ptr<SstReader>(
      new SstReader(fs, std::string(path), lr.inode));

  std::vector<std::byte> fbuf(kFooterSize);
  FsIoResult io = fs.read(st.done, lr.inode, st.size - kFooterSize, fbuf);
  if (!io.ok() || io.bytes != kFooterSize) {
    out.err = io.ok() ? Errno::kEINVAL : io.err;
    out.done = io.done;
    return out;
  }
  ByteCursor c{fbuf.data(), fbuf.data() + fbuf.size()};
  SstFooter footer;
  footer.index_offset = c.get<std::uint64_t>();
  footer.index_size = c.get<std::uint32_t>();
  footer.filter_offset = c.get<std::uint64_t>();
  footer.filter_size = c.get<std::uint32_t>();
  footer.props_offset = c.get<std::uint64_t>();
  footer.props_size = c.get<std::uint32_t>();
  footer.entry_count = c.get<std::uint64_t>();
  footer.max_sequence = c.get<std::uint64_t>();
  footer.magic = c.get<std::uint32_t>();
  if (!c.ok || footer.magic != kSstMagic) {
    out.err = Errno::kEINVAL;
    out.done = io.done;
    return out;
  }
  reader->entry_count_ = footer.entry_count;
  reader->max_sequence_ = footer.max_sequence;

  sim::SimTime t = io.done;

  // Filter.
  {
    std::vector<std::byte> buf(footer.filter_size);
    io = fs.read(t, lr.inode, footer.filter_offset, buf);
    if (!io.ok() || io.bytes != footer.filter_size) {
      out.err = io.ok() ? Errno::kEINVAL : io.err;
      out.done = io.done;
      return out;
    }
    t = io.done;
    reader->bloom_ = BloomFilter::deserialize(
        reinterpret_cast<const std::uint8_t*>(buf.data()), buf.size());
  }

  // Index.
  {
    std::vector<std::byte> buf(footer.index_size);
    io = fs.read(t, lr.inode, footer.index_offset, buf);
    if (!io.ok() || io.bytes != footer.index_size) {
      out.err = io.ok() ? Errno::kEINVAL : io.err;
      out.done = io.done;
      return out;
    }
    t = io.done;
    ByteCursor ic{buf.data(), buf.data() + buf.size()};
    const std::uint32_t count = ic.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < count && ic.ok; ++i) {
      IndexEntry e;
      e.offset = ic.get<std::uint64_t>();
      e.size = ic.get<std::uint32_t>();
      const std::uint16_t klen = ic.get<std::uint16_t>();
      e.key_offset = static_cast<std::uint32_t>(reader->index_keys_.size());
      e.key_len = klen;
      reader->index_keys_.append(ic.get_view(klen));
      reader->index_.push_back(e);
    }
    if (!ic.ok) {
      out.err = Errno::kEINVAL;
      out.done = t;
      return out;
    }
  }

  // Props.
  {
    std::vector<std::byte> buf(footer.props_size);
    io = fs.read(t, lr.inode, footer.props_offset, buf);
    if (!io.ok() || io.bytes != footer.props_size) {
      out.err = io.ok() ? Errno::kEINVAL : io.err;
      out.done = io.done;
      return out;
    }
    t = io.done;
    ByteCursor pc{buf.data(), buf.data() + buf.size()};
    const std::uint16_t slen = pc.get<std::uint16_t>();
    reader->smallest_ = pc.get_string(slen);
    const std::uint16_t llen = pc.get<std::uint16_t>();
    reader->largest_ = pc.get_string(llen);
    if (!pc.ok) {
      out.err = Errno::kEINVAL;
      out.done = t;
      return out;
    }
  }

  out.done = t;
  out.reader = std::move(reader);
  return out;
}

Errno SstReader::read_block(sim::SimTime& t, const IndexEntry& ie,
                            std::vector<std::byte>& buf,
                            std::span<const std::byte>* block) {
  if (buf.size() < ie.size) buf.resize(ie.size);
  const std::span<std::byte> dst(buf.data(), ie.size);
  const FsIoResult io = fs_.read(t, inode_, ie.offset, dst);
  t = io.done;
  if (!io.ok()) return io.err;
  if (io.bytes != ie.size) return Errno::kEINVAL;
  *block = dst;
  return Errno::kOk;
}

SstGetResult SstReader::get(sim::SimTime now, std::string_view user_key) {
  SstGetResult r;
  r.done = now;
  if (user_key < smallest_ || user_key > largest_) return r;
  if (bloom_ && !bloom_->may_contain(user_key)) return r;

  // First block whose last key >= user_key.
  auto it = std::lower_bound(
      index_.begin(), index_.end(), user_key,
      [this](const IndexEntry& e, std::string_view k) {
        return last_key(e) < k;
      });
  if (it == index_.end()) return r;

  std::span<const std::byte> block;
  r.err = read_block(r.done, *it, block_buf_, &block);
  if (r.err != Errno::kOk) return r;
  BlockDecoder decoder(block);
  BlockEntry e;
  while (decoder.next(&e)) {
    const int cmp = e.user_key.compare(user_key);
    if (cmp < 0) continue;
    if (cmp == 0) {
      // Entries for a user key are newest-first: the first hit wins.
      if (e.type == EntryType::kDelete) {
        r.state = LookupState::kDeleted;
      } else {
        r.state = LookupState::kFound;
        r.value.assign(e.value);
      }
    }
    return r;  // the newest version, or already past the key
  }
  if (decoder.malformed()) r.err = Errno::kEINVAL;
  return r;
}

FsResult SstReader::scan(sim::SimTime now,
                         const std::function<void(const BlockEntry&)>& fn) {
  sim::SimTime t = now;
  std::vector<std::byte> buf;
  for (const auto& ie : index_) {
    std::span<const std::byte> block;
    const Errno err = read_block(t, ie, buf, &block);
    if (err != Errno::kOk) return FsResult{err, t};
    BlockDecoder decoder(block);
    BlockEntry e;
    while (decoder.next(&e)) fn(e);
    if (decoder.malformed()) return FsResult{Errno::kEINVAL, t};
  }
  return FsResult{Errno::kOk, t};
}

}  // namespace deepnote::storage::kvdb
