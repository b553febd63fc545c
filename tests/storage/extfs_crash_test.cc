// Crash-consistency property tests for extfs.
//
// A workload of random namespace + file operations runs on the HDD model
// (volatile write cache and all); at a random instant the power is cut.
// After remount (journal replay) we require:
//   1. the filesystem is structurally consistent (fsck reports nothing);
//   2. every file that was fsynced still exists with exactly the content
//      it had at its last fsync (durability of acknowledged syncs).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "hdd/drive.h"
#include "sim/rng.h"
#include "storage/extfs.h"
#include "storage/os_device.h"
#include "numbered.h"

namespace deepnote::storage {
namespace {

using sim::SimTime;

hdd::HddConfig crash_drive_config(std::uint64_t seed) {
  hdd::HddConfig cfg;
  cfg.geometry = hdd::Geometry::tiny_test_drive();
  // The tiny drive is small; use a bigger one built from explicit zones.
  cfg.geometry = hdd::Geometry(
      2, 7200.0, 100.0,
      {hdd::Zone{0, 512, 512}, hdd::Zone{0, 512, 384}});  // ~450 MiB
  cfg.servo.false_trip_max_hz = 0.0;
  cfg.write_cache_bytes = 1ull << 20;  // small: forces real drain traffic
  cfg.rng_seed = seed;
  return cfg;
}

struct FileModel {
  std::uint32_t inode = 0;
  std::string current;  ///< content written so far
  std::string synced;   ///< content at the last acknowledged fsync
  bool ever_synced = false;
};

class CrashWorkload {
 public:
  explicit CrashWorkload(std::uint64_t seed)
      : rng_(seed), drive_(crash_drive_config(seed)), dev_(drive_) {}

  void run_and_crash() {
    SimTime t = SimTime::zero();
    MkfsOptions mkfs;
    mkfs.journal_blocks = 128;
    mkfs.num_inodes = 512;
    ASSERT_TRUE(ExtFs::mkfs(dev_, t, mkfs).ok());
    auto mount = ExtFs::mount(dev_, t);
    ASSERT_TRUE(mount.ok());
    ExtFs& fs = *mount.fs;
    t = mount.done;

    const int ops = 120 + static_cast<int>(rng_.uniform_int(0, 200));
    const int crash_at = static_cast<int>(rng_.uniform_int(20, ops - 1));
    for (int op = 0; op < ops; ++op) {
      if (op == crash_at) {
        drive_.power_cut();  // volatile cache gone; fs state abandoned
        crash_time_ = t;
        return;
      }
      step(fs, t);
      // Drive the daemons occasionally like a kernel would.
      if (fs.commit_due(t)) t = fs.commit(t).done;
      if ((op & 7) == 0) t = fs.writeback(t, 1u << 20).done;
    }
    drive_.power_cut();
    crash_time_ = t;
  }

  void verify_after_recovery() {
    auto mount = ExtFs::mount(dev_, crash_time_);
    ASSERT_TRUE(mount.ok()) << "remount after crash failed";
    ExtFs& fs = *mount.fs;
    SimTime t = mount.done;

    // Durability: fsynced files must exist with their synced content as
    // a prefix-exact match (later unsynced appends may or may not have
    // survived; synced bytes must).
    for (const auto& [name, model] : files_) {
      if (!model.ever_synced) continue;
      auto lr = fs.lookup(t, "/" + name);
      ASSERT_TRUE(lr.ok()) << "fsynced file lost: " << name;
      t = lr.done;
      auto st = fs.stat(t, lr.inode);
      ASSERT_TRUE(st.ok());
      ASSERT_GE(st.size, model.synced.size()) << name;
      std::vector<std::byte> out(model.synced.size());
      auto rr = fs.read(t, lr.inode, 0, out);
      ASSERT_TRUE(rr.ok());
      t = rr.done;
      const std::string got(reinterpret_cast<const char*>(out.data()),
                            out.size());
      EXPECT_EQ(got, model.synced) << "fsynced content damaged: " << name;
    }

    ASSERT_TRUE(fs.unmount(t).ok());
    const auto report = ExtFs::fsck(dev_, t);
    EXPECT_TRUE(report.clean())
        << "fsck: "
        << (report.problems.empty() ? "io error" : report.problems.front());
  }

 private:
  void step(ExtFs& fs, SimTime& t) {
    const int kind = static_cast<int>(rng_.uniform_int(0, 9));
    if (kind <= 2 || files_.empty()) {  // create
      const std::string name = numbered("f", next_id_++);
      FileModel model;
      auto cr = fs.create(t, "/" + name, &model.inode);
      t = cr.done;
      if (cr.ok()) files_[name] = model;
      return;
    }
    auto it = files_.begin();
    std::advance(it, rng_.uniform_int(
                         0, static_cast<std::int64_t>(files_.size()) - 1));
    FileModel& model = it->second;
    if (kind <= 6) {  // append
      const auto len = static_cast<std::size_t>(rng_.uniform_int(1, 9000));
      std::string chunk(len, 'a');
      for (auto& c : chunk) {
        c = static_cast<char>('a' + (rng_.next_u64() % 26));
      }
      std::vector<std::byte> data(chunk.size());
      std::memcpy(data.data(), chunk.data(), chunk.size());
      auto wr = fs.write(t, model.inode, model.current.size(), data);
      t = wr.done;
      if (wr.ok()) model.current += chunk;
      return;
    }
    if (kind <= 8) {  // fsync
      auto sr = fs.fsync(t, model.inode);
      t = sr.done;
      if (sr.ok()) {
        model.synced = model.current;
        model.ever_synced = true;
      }
      return;
    }
    // unlink
    auto ur = fs.unlink(t, "/" + it->first);
    t = ur.done;
    if (ur.ok()) files_.erase(it);
  }

  sim::Rng rng_;
  hdd::Hdd drive_;
  OsBlockDevice dev_;
  std::map<std::string, FileModel> files_;
  int next_id_ = 0;
  SimTime crash_time_ = SimTime::zero();
};

class ExtFsCrashPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ExtFsCrashPropertyTest, RecoveryIsConsistentAndDurable) {
  CrashWorkload workload(GetParam());
  workload.run_and_crash();
  workload.verify_after_recovery();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtFsCrashPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace deepnote::storage
