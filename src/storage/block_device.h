// Block device abstraction used by the filesystem and database layers.
//
// Implementations run in virtual time: each operation takes the caller's
// current SimTime and reports the operation's completion time. A blocking
// caller simply continues from `complete`.
#pragma once

#include <cstdint>
#include <span>

#include "sim/time.h"

namespace deepnote::storage {

enum class BlockStatus {
  kOk,
  kIoError,  ///< the command ultimately failed (buffer I/O error)
};

/// The host command kinds a BlockDevice serves. Fault injectors select
/// victims by kind (e.g. "fail writes only") and report failures by kind.
/// BlockDevice::erase is not among them: it is a device-internal
/// command (the FTL erases NAND blocks through it), not a host op.
enum class DiskOpKind : std::uint8_t {
  kRead,
  kWrite,
  kFlush,
};

const char* disk_op_name(DiskOpKind kind);

/// Bitmask of DiskOpKind values for fault-injection selectors.
namespace fault_ops {
inline constexpr unsigned kReads = 1u << 0;
inline constexpr unsigned kWrites = 1u << 1;
inline constexpr unsigned kFlushes = 1u << 2;
inline constexpr unsigned kAll = kReads | kWrites | kFlushes;

constexpr unsigned mask_of(DiskOpKind kind) {
  switch (kind) {
    case DiskOpKind::kRead: return kReads;
    case DiskOpKind::kWrite: return kWrites;
    case DiskOpKind::kFlush: return kFlushes;
  }
  return 0;
}
}  // namespace fault_ops

/// The first operation an injector failed: everything a shrink report
/// needs to name the victim precisely.
struct FailedOp {
  std::uint64_t op_index = 0;  ///< 0-based index over all ops on the device
  DiskOpKind kind = DiskOpKind::kRead;
  std::uint64_t lba = 0;            ///< 0 for flush
  std::uint32_t sector_count = 0;   ///< 0 for flush
};

struct BlockIo {
  BlockStatus status = BlockStatus::kOk;
  sim::SimTime complete = sim::SimTime::zero();

  bool ok() const { return status == BlockStatus::kOk; }
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual std::uint64_t total_sectors() const = 0;

  virtual BlockIo read(sim::SimTime now, std::uint64_t lba,
                       std::uint32_t sector_count,
                       std::span<std::byte> out) = 0;
  virtual BlockIo write(sim::SimTime now, std::uint64_t lba,
                        std::uint32_t sector_count,
                        std::span<const std::byte> in) = 0;
  /// Durability barrier: completes when previously acknowledged writes
  /// are persistent.
  virtual BlockIo flush(sim::SimTime now) = 0;

  /// Erase-block command. Flash devices require it before re-programming
  /// a block and charge the (long) erase latency; devices without erase
  /// geometry treat it as an instant TRIM-like no-op, which keeps fault
  /// injectors and stacking layers device-agnostic.
  virtual BlockIo erase(sim::SimTime now, std::uint64_t lba,
                        std::uint32_t sector_count) {
    (void)lba;
    (void)sector_count;
    return BlockIo{BlockStatus::kOk, now};
  }

  /// Start loading the state the next command will touch, for a caller
  /// about to command a device it has not touched lately. A hint only:
  /// it changes no state, and the default does nothing.
  virtual void prefetch() const {}
};

inline constexpr std::uint32_t kBlockSectorSize = 512;

}  // namespace deepnote::storage
