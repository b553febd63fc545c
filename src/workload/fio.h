// FIO-like block workload runner.
//
// Reproduces the paper's measurement methodology: sequential read and
// sequential write jobs at 4 KiB access granularity against the block
// device, with a ramp period excluded from the reported numbers. Reports
// throughput in MB/s and mean completion latency in ms, with "-" (no
// value) when no operation completed in the window — exactly how Table 1
// reports an unresponsive drive.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/rng.h"
#include "storage/block_device.h"
#include "workload/meter.h"

namespace deepnote::workload {

enum class IoPattern {
  kSeqRead,
  kSeqWrite,
  kRandRead,
  kRandWrite,
  /// Random mixed read/write (fio's rwmixread): see `read_mix`.
  kRandMixed,
};

/// Per-op host-side submission cost (syscall + block layer), calibrated
/// with the drive command overheads against the paper's no-attack
/// 22.7 / 18.0 MB/s baselines. Writers that issue their own commands pay
/// it too.
inline constexpr sim::Duration kSubmitOverhead =
    sim::Duration::from_micros(100);

struct FioJobConfig {
  IoPattern pattern = IoPattern::kSeqWrite;
  std::uint32_t block_bytes = 4096;
  /// Region of the device the job touches.
  std::uint64_t offset_bytes = 0;
  std::uint64_t span_bytes = 1ull << 30;
  /// Fraction of reads for kRandMixed (fio --rwmixread, default 70%).
  double read_mix = 0.7;
  sim::Duration submit_overhead = kSubmitOverhead;
  sim::Duration ramp = sim::Duration::from_seconds(5.0);
  sim::Duration duration = sim::Duration::from_seconds(30.0);
  std::uint64_t seed = 0xf10;
};

struct FioReport {
  double throughput_mbps = 0.0;
  /// Split by direction (nonzero only for mixed jobs).
  double read_mbps = 0.0;
  double write_mbps = 0.0;
  /// Mean completion latency, absent when no op completed ("-").
  std::optional<double> latency_ms;
  std::uint64_t ops_completed = 0;
  std::uint64_t ops_errored = 0;
  /// p99 latency (ms) when available.
  std::optional<double> p99_ms;
};

class FioRunner {
 public:
  explicit FioRunner(storage::BlockDevice& device) : device_(device) {}

  /// Run one job starting at `start`; returns at ramp+duration.
  FioReport run(sim::SimTime start, const FioJobConfig& config);

 private:
  storage::BlockDevice& device_;
};

}  // namespace deepnote::workload
