#include "storage/flash/ftl.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace deepnote::storage {

Ftl::Ftl(FlashDevice& device, FtlConfig config)
    : device_(device), config_(config) {
  const std::uint32_t blocks = device_.config().blocks;
  if (config_.reserved_blocks + std::max(1u, config_.gc_free_threshold) >=
      blocks) {
    throw std::invalid_argument("ftl: over-provisioning exceeds device");
  }
  logical_pages_ = (blocks - config_.reserved_blocks) * pages_per_block();
  map_.assign(logical_pages_, kUnmapped);
  rmap_.assign(static_cast<std::size_t>(blocks) * pages_per_block(),
               kUnmapped);
  valid_count_.assign(blocks, 0);
  state_.assign(blocks, BlockState::kFree);
  free_count_ = blocks;
  page_buf_.resize(static_cast<std::size_t>(page_sectors()) *
                   kBlockSectorSize);
  gc_buf_.resize(page_buf_.size());
}

std::uint32_t Ftl::pick_free_block() const {
  std::uint32_t best = kUnmapped;
  std::uint32_t best_wear = 0;
  for (std::uint32_t b = 0; b < state_.size(); ++b) {
    if (state_[b] != BlockState::kFree) continue;
    const std::uint32_t wear = device_.erase_count(b);
    if (best == kUnmapped || wear < best_wear) {
      best = b;
      best_wear = wear;
    }
  }
  return best;
}

std::uint32_t Ftl::open_blocks() const {
  return static_cast<std::uint32_t>(
      std::count(state_.begin(), state_.end(), BlockState::kOpen));
}

std::uint32_t Ftl::pick_gc_victim() const {
  // Fewest valid pages first (cheapest reclaim); ties go to the
  // LEAST-worn block. An index tie-break here quietly defeats wear
  // leveling: fully-stale low-index blocks win every round and cycle
  // through erases while high-index blocks never recycle at all.
  std::uint32_t best = kUnmapped;
  for (std::uint32_t b = 0; b < state_.size(); ++b) {
    if (state_[b] != BlockState::kClosed) continue;
    if (best == kUnmapped || valid_count_[b] < valid_count_[best] ||
        (valid_count_[b] == valid_count_[best] &&
         device_.erase_count(b) < device_.erase_count(best))) {
      best = b;
    }
  }
  return best;
}

void Ftl::invalidate(std::uint32_t phys) {
  rmap_[phys] = kUnmapped;
  --valid_count_[phys / pages_per_block()];
}

bool Ftl::collect_garbage(sim::SimTime& now) {
  const std::uint32_t victim = pick_gc_victim();
  if (victim == kUnmapped) return false;
  ++stats_.gc_runs;
  in_gc_ = true;
  bool ok = true;
  const std::uint32_t first = victim * pages_per_block();
  for (std::uint32_t i = 0; ok && i < pages_per_block(); ++i) {
    const std::uint32_t lp = rmap_[first + i];
    if (lp == kUnmapped) continue;
    const BlockIo r = device_.read(
        now, static_cast<std::uint64_t>(first + i) * page_sectors(),
        page_sectors(), gc_buf_);
    if (!r.ok()) {
      ok = false;
      break;
    }
    now = r.complete;
    // No explicit invalidate here: place_page sees map_[lp] still
    // pointing at first + i and invalidates it exactly once. Doing it
    // here too would decrement the victim's valid count twice per
    // relocated page and underflow it.
    ok = place_page(now, lp, gc_buf_);
    if (ok) ++stats_.relocated_pages;
  }
  if (ok) {
    const BlockIo e = device_.erase(
        now, static_cast<std::uint64_t>(victim) * device_.block_sectors(),
        device_.block_sectors());
    ok = e.ok();
    if (ok) {
      now = e.complete;
      state_[victim] = BlockState::kFree;
      ++free_count_;
    }
  }
  in_gc_ = false;
  return ok;
}

bool Ftl::ensure_open_block(sim::SimTime& now) {
  if (open_block_ != kUnmapped && open_next_ < pages_per_block()) {
    return true;
  }
  if (open_block_ != kUnmapped) {
    state_[open_block_] = BlockState::kClosed;
    open_block_ = kUnmapped;
  }
  // Keep a relocation cushion: GC itself consumes pages of the block it
  // opens, so collect before the pool is actually dry. Relocation
  // (in_gc_) draws straight from the cushion instead of recursing.
  while (!in_gc_ && free_count_ <= config_.gc_free_threshold) {
    if (!collect_garbage(now)) break;
  }
  // Relocation may have opened a block of its own. Keep writing into it
  // while it has room; close it if relocation filled it. Opening a fresh
  // block over it would leave it kOpen, never a GC victim, forever.
  if (open_block_ != kUnmapped) {
    if (open_next_ < pages_per_block()) return true;
    state_[open_block_] = BlockState::kClosed;
    open_block_ = kUnmapped;
  }
  const std::uint32_t block = pick_free_block();
  if (block == kUnmapped) return false;
  state_[block] = BlockState::kOpen;
  --free_count_;
  open_block_ = block;
  open_next_ = 0;
  return true;
}

bool Ftl::place_page(sim::SimTime& now, std::uint32_t lp,
                     std::span<const std::byte> buf) {
  if (!ensure_open_block(now)) return false;
  const std::uint32_t phys = open_block_ * pages_per_block() + open_next_;
  const BlockIo w = device_.write(
      now, static_cast<std::uint64_t>(phys) * page_sectors(), page_sectors(),
      buf);
  if (!w.ok()) return false;
  now = w.complete;
  ++open_next_;
  const std::uint32_t old = map_[lp];
  if (old != kUnmapped) invalidate(old);
  map_[lp] = phys;
  rmap_[phys] = lp;
  ++valid_count_[open_block_];
  return true;
}

BlockIo Ftl::read(sim::SimTime now, std::uint64_t lba,
                  std::uint32_t sector_count, std::span<std::byte> out) {
  if (lba + sector_count > total_sectors()) {
    return BlockIo{BlockStatus::kIoError, now};
  }
  const std::uint32_t psec = page_sectors();
  for (std::uint64_t s = 0; s < sector_count;) {
    const std::uint64_t abs = lba + s;
    const std::uint32_t lp = static_cast<std::uint32_t>(abs / psec);
    const std::uint32_t in_page = static_cast<std::uint32_t>(abs % psec);
    const std::uint32_t run = std::min<std::uint32_t>(
        static_cast<std::uint32_t>(sector_count - s), psec - in_page);
    const std::span<std::byte> slice =
        out.subspan(static_cast<std::size_t>(s) * kBlockSectorSize,
                    static_cast<std::size_t>(run) * kBlockSectorSize);
    ++stats_.host_page_reads;
    if (map_[lp] != kUnmapped) {
      const BlockIo r = device_.read(
          now,
          static_cast<std::uint64_t>(map_[lp]) * psec + in_page, run, slice);
      if (!r.ok()) return r;
      now = r.complete;
    } else {
      // Never written: erased convention, charged like a real read so
      // timing does not depend on payload history.
      std::memset(slice.data(), 0xFF, slice.size());
      now = now + device_.config().read_latency;
    }
    s += run;
  }
  return BlockIo{BlockStatus::kOk, now};
}

BlockIo Ftl::write(sim::SimTime now, std::uint64_t lba,
                   std::uint32_t sector_count, std::span<const std::byte> in) {
  if (lba + sector_count > total_sectors()) {
    return BlockIo{BlockStatus::kIoError, now};
  }
  const std::uint32_t psec = page_sectors();
  for (std::uint64_t s = 0; s < sector_count;) {
    const std::uint64_t abs = lba + s;
    const std::uint32_t lp = static_cast<std::uint32_t>(abs / psec);
    const std::uint32_t in_page = static_cast<std::uint32_t>(abs % psec);
    const std::uint32_t run = std::min<std::uint32_t>(
        static_cast<std::uint32_t>(sector_count - s), psec - in_page);
    // A whole page programs straight from the caller's bytes: GC
    // relocates through gc_buf_, so nothing place_page runs can touch
    // them.
    std::span<const std::byte> page =
        in.subspan(static_cast<std::size_t>(s) * kBlockSectorSize,
                   static_cast<std::size_t>(run) * kBlockSectorSize);
    if (run < psec) {
      // Sub-page write: read-modify-write through the page buffer.
      if (map_[lp] != kUnmapped) {
        const BlockIo r = device_.read(
            now, static_cast<std::uint64_t>(map_[lp]) * psec, psec,
            page_buf_);
        if (!r.ok()) return r;
        now = r.complete;
      } else {
        std::memset(page_buf_.data(), 0xFF, page_buf_.size());
      }
      std::memcpy(page_buf_.data() +
                      static_cast<std::size_t>(in_page) * kBlockSectorSize,
                  page.data(), page.size());
      page = page_buf_;
    }
    if (!place_page(now, lp, page)) {
      return BlockIo{BlockStatus::kIoError, now};
    }
    ++stats_.host_page_writes;
    s += run;
  }
  return BlockIo{BlockStatus::kOk, now};
}

BlockIo Ftl::flush(sim::SimTime now) { return device_.flush(now); }

BlockIo Ftl::erase(sim::SimTime now, std::uint64_t lba,
                   std::uint32_t sector_count) {
  if (lba + sector_count > total_sectors()) {
    return BlockIo{BlockStatus::kIoError, now};
  }
  const std::uint32_t psec = page_sectors();
  // TRIM: unmap the fully-covered logical pages; partial pages keep
  // their data.
  std::uint64_t first = (lba + psec - 1) / psec;
  std::uint64_t last = (lba + sector_count) / psec;  // exclusive
  for (std::uint64_t lp = first; lp < last; ++lp) {
    if (map_[lp] == kUnmapped) continue;
    invalidate(map_[lp]);
    map_[static_cast<std::size_t>(lp)] = kUnmapped;
    ++stats_.trimmed_pages;
  }
  return BlockIo{BlockStatus::kOk, now};
}

}  // namespace deepnote::storage
