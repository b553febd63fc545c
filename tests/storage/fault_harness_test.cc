#include "storage/fault_harness.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "storage/mem_disk.h"

namespace deepnote::storage {
namespace {

using sim::SimTime;

std::vector<std::byte> sector_fill(std::uint8_t fill) {
  return std::vector<std::byte>(kBlockSectorSize,
                                static_cast<std::byte>(fill));
}

// A correct workload: single-sector writes, each flushed and only then
// acknowledged. Invariant: every acknowledged sector holds its data;
// any other sector is still zero or holds its (unacknowledged) data.
class SectorLogWorkload final : public CrashWorkload {
 public:
  void run(const FaultPlan& plan) override {
    inner_ = std::make_unique<MemDisk>(64);
    faulty_ = std::make_unique<FaultyDisk>(*inner_, plan);
    acked_.assign(kSectors, false);
    for (std::uint32_t s = 0; s < kSectors; ++s) {
      if (!faulty_->write(SimTime::zero(), s, 1, sector_fill(fill(s)))
               .ok()) {
        continue;
      }
      if (faulty_->flush(SimTime::zero()).ok()) acked_[s] = true;
    }
  }

  std::uint64_t faulted_writes() const override {
    return faulty_->writes_seen();
  }

  CheckResult check() override {
    for (std::uint32_t s = 0; s < kSectors; ++s) {
      std::vector<std::byte> got(kBlockSectorSize);
      if (!inner_->read(SimTime::zero(), s, 1, got).ok()) {
        return CheckResult::fail("read failed");
      }
      const bool zero = got == sector_fill(0);
      const bool written = got == sector_fill(fill(s));
      if (acked_[s] && !written) {
        return CheckResult::fail("acked sector " + std::to_string(s) +
                                 " lost");
      }
      if (!written && !zero) {
        return CheckResult::fail("sector " + std::to_string(s) +
                                 " holds bytes never written");
      }
    }
    return CheckResult::ok();
  }

 private:
  static constexpr std::uint32_t kSectors = 10;
  static std::uint8_t fill(std::uint32_t s) {
    return static_cast<std::uint8_t>(s + 1);
  }

  std::unique_ptr<MemDisk> inner_;
  std::unique_ptr<FaultyDisk> faulty_;
  std::vector<bool> acked_;
};

// A broken workload: a two-block "pair" that must match, updated with
// two separate writes and no journaling — a crash between them violates
// the invariant. The harness must find it; shrink must land on the
// earliest clean cut (write 1, the first B update).
class BrokenPairWorkload final : public CrashWorkload {
 public:
  void run(const FaultPlan& plan) override {
    inner_ = std::make_unique<MemDisk>(64);
    faulty_ = std::make_unique<FaultyDisk>(*inner_, plan);
    for (std::uint8_t gen = 1; gen <= 2; ++gen) {
      faulty_->write(SimTime::zero(), 0, 1, sector_fill(gen));
      faulty_->write(SimTime::zero(), 8, 1, sector_fill(gen));
      faulty_->flush(SimTime::zero());
    }
  }

  std::uint64_t faulted_writes() const override {
    return faulty_->writes_seen();
  }

  CheckResult check() override {
    std::vector<std::byte> a(kBlockSectorSize), b(kBlockSectorSize);
    inner_->read(SimTime::zero(), 0, 1, a);
    inner_->read(SimTime::zero(), 8, 1, b);
    if (a != b) {
      return CheckResult::fail("pair mismatch: A=" +
                               std::to_string(int(a[0])) +
                               " B=" + std::to_string(int(b[0])));
    }
    return CheckResult::ok();
  }

 private:
  std::unique_ptr<MemDisk> inner_;
  std::unique_ptr<FaultyDisk> faulty_;
};

template <typename W>
WorkloadFactory factory_of() {
  return [] { return std::make_unique<W>(); };
}

TEST(FaultScheduleTest, IndexEncodesCutAndVariant) {
  const FaultSchedule s = schedule_at(0x5eed, kNumFaultVariants * 9 + 2);
  EXPECT_EQ(s.cut_write, 9u);
  EXPECT_EQ(s.variant, FaultVariant::kReorder);
  EXPECT_EQ(s.index, 38u);
  const FaultPlan p = s.plan(8);
  ASSERT_TRUE(p.cut_at_write.has_value());
  EXPECT_EQ(*p.cut_at_write, 9u);
  EXPECT_EQ(p.cache_window, 8u);
  EXPECT_FALSE(s.describe().empty());
}

TEST(FaultScheduleTest, PlanSeedsDifferPerIndexAndReplayExactly) {
  const FaultPlan p1 = schedule_at(1, 5).plan(8);
  const FaultPlan p2 = schedule_at(1, 10).plan(8);
  EXPECT_NE(p1.seed, p2.seed);
  EXPECT_EQ(p1.seed, schedule_at(1, 5).plan(8).seed);
}

TEST(FaultScheduleTest, EioVariantHasNoCut) {
  const FaultSchedule s = schedule_at(7, kNumFaultVariants * 3 + 3);
  EXPECT_EQ(s.variant, FaultVariant::kEio);
  const FaultPlan p = s.plan(8);
  EXPECT_FALSE(p.cut_at_write.has_value());
  EXPECT_GT(p.eio_len, 0u);
  EXPECT_EQ(p.eio_start, 3u);
}

TEST(FaultHarnessTest, CorrectWorkloadSurvivesExhaustiveExploration) {
  const ExploreReport report =
      explore(factory_of<SectorLogWorkload>(), ExploreOptions{});
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_EQ(report.write_count, 10u);
  EXPECT_EQ(report.schedules_run, 40u);  // 10 writes x 4 variants
}

TEST(FaultHarnessTest, ExplorationIsDeterministicAcrossJobCounts) {
  ExploreOptions serial;
  serial.jobs = 1;
  ExploreOptions parallel;
  parallel.jobs = 4;
  const ExploreReport a = explore(factory_of<BrokenPairWorkload>(), serial);
  const ExploreReport b =
      explore(factory_of<BrokenPairWorkload>(), parallel);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (std::size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].schedule.index, b.failures[i].schedule.index);
    EXPECT_EQ(a.failures[i].detail, b.failures[i].detail);
  }
}

TEST(FaultHarnessTest, BrokenWorkloadIsCaughtAndShrinksToMinimalCut) {
  const ExploreReport report =
      explore(factory_of<BrokenPairWorkload>(), ExploreOptions{});
  ASSERT_FALSE(report.failures.empty());
  EXPECT_TRUE(report.benign_failure.empty())
      << "the bug needs a crash to show; benign run must pass";

  // Every reported failure replays to a failure from its (seed, index).
  for (const auto& f : report.failures) {
    FaultSchedule replayed;
    const CheckResult r =
        replay_schedule(factory_of<BrokenPairWorkload>(),
                        f.schedule.base_seed, f.schedule.index, 8,
                        &replayed);
    EXPECT_FALSE(r.passed) << f.schedule.describe();
    EXPECT_EQ(replayed.cut_write, f.schedule.cut_write);
  }

  // Shrinking the last (most complex) failure lands on the minimal
  // schedule: a clean cut at write 1 — after A's first update, before
  // B's.
  const FaultSchedule minimal =
      shrink(factory_of<BrokenPairWorkload>(), report.failures.back().schedule);
  EXPECT_EQ(minimal.variant, FaultVariant::kClean);
  EXPECT_EQ(minimal.cut_write, 1u);
  EXPECT_FALSE(replay_schedule(factory_of<BrokenPairWorkload>(),
                               minimal.base_seed, minimal.index)
                   .passed);
}

TEST(FaultHarnessTest, BenignOracleFailureIsReportedAsSuch) {
  // A workload whose invariant is wrong even without faults must be
  // flagged as a benign failure, not as a crash-consistency bug.
  class AlwaysWrong final : public CrashWorkload {
   public:
    void run(const FaultPlan& plan) override {
      inner_ = std::make_unique<MemDisk>(8);
      faulty_ = std::make_unique<FaultyDisk>(*inner_, plan);
      faulty_->write(SimTime::zero(), 0, 1, sector_fill(1));
    }
    std::uint64_t faulted_writes() const override {
      return faulty_->writes_seen();
    }
    CheckResult check() override {
      return CheckResult::fail("broken oracle");
    }
   private:
    std::unique_ptr<MemDisk> inner_;
    std::unique_ptr<FaultyDisk> faulty_;
  };
  const ExploreReport report =
      explore([] { return std::make_unique<AlwaysWrong>(); });
  EXPECT_FALSE(report.passed());
  EXPECT_EQ(report.benign_failure, "broken oracle");
  EXPECT_TRUE(report.failures.empty());
  EXPECT_EQ(report.schedules_run, 0u);
}

}  // namespace
}  // namespace deepnote::storage
