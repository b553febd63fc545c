// Property suite for the serving pipeline (NodeServer's staged-ring /
// timer-wheel data plane), TEST_P over seeds.
//
// Each seed builds a random scenario — queue limit, admission policy,
// device latency, deadline tightness, fault injection, batch boundaries
// with mid-run drains — runs a few hundred requests through one server,
// and checks the invariants that make the serving mode trustworthy:
//
//  * conservation: every submitted request terminates in EXACTLY one of
//    {served, failed, timed out, shed}; no request is lost or reported
//    twice (tags are unique and cover the submission set);
//  * ordering: the completion ring is filled in non-decreasing virtual
//    time (timeouts included — the wheel retires them at their deadline
//    instant), and requests that reach the device are serviced in FIFO
//    admission order — (arrival time, submission seq) — on
//    non-overlapping single-server busy intervals;
//  * bounds: queue depth never exceeds the admission limit, and the
//    pipeline is empty after drain();
//  * sanity of the per-outcome timestamps (the queue-wait / service-time
//    decomposition the experiment layer reports).
//
// A directed case checks that an erase reaches the device and occupies
// the server like any other command.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cluster/serving/node_server.h"
#include "sim/rng.h"
#include "storage/mem_disk.h"

namespace deepnote::cluster::serving {
namespace {

struct Scenario {
  std::size_t queue_limit = 1;
  AdmissionPolicy admission = AdmissionPolicy::kRejectNew;
  sim::Duration device_latency = sim::Duration::zero();
  std::size_t requests = 0;
  std::uint64_t fail_after = ~0ull;  ///< device fault injection point
};

struct Submission {
  sim::SimTime arrival = sim::SimTime::zero();
  sim::SimTime deadline = sim::SimTime::zero();
  bool is_read = false;
};

Scenario make_scenario(sim::Rng& rng) {
  Scenario s;
  s.queue_limit = static_cast<std::size_t>(rng.uniform_int(1, 12));
  s.admission = rng.bernoulli(0.5) ? AdmissionPolicy::kRejectNew
                                   : AdmissionPolicy::kDropOldest;
  // 0.2–3 ms per command against ~1 ms mean inter-arrival: some seeds
  // run under capacity, some saturate and shed/time out heavily.
  s.device_latency = sim::Duration::from_micros(rng.uniform(200.0, 3000.0));
  s.requests = static_cast<std::size_t>(rng.uniform_int(200, 400));
  if (rng.bernoulli(0.5)) {
    s.fail_after = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(s.requests / 2)));
  }
  return s;
}

std::vector<Submission> make_stream(sim::Rng& rng, const Scenario& s) {
  std::vector<Submission> stream;
  stream.reserve(s.requests);
  sim::SimTime at = sim::SimTime::zero() + sim::Duration::from_micros(10);
  for (std::size_t i = 0; i < s.requests; ++i) {
    // Bursty arrivals with occasional exact ties (the FIFO tie-break —
    // submission order — must decide those).
    if (!rng.bernoulli(0.15)) {
      at = at + sim::Duration::from_micros(rng.exponential(1000.0));
    }
    Submission sub;
    sub.arrival = at;
    // Deadlines from hopeless (one device latency) to generous.
    sub.deadline =
        at + sim::Duration::from_micros(rng.uniform(500.0, 20000.0));
    sub.is_read = rng.bernoulli(0.5);
    stream.push_back(sub);
  }
  return stream;
}

/// Runs the stream through a fresh server, draining at random batch
/// boundaries with probability `drain_prob` per submission (backlog
/// must carry across drains via busy_until_). Mid-stream drains advance
/// virtual time past later arrivals — the same trade the engine's wave
/// batching makes — so tests that assert global time ordering pass 0.
std::vector<ServeResult> run_stream(const std::vector<Submission>& stream,
                                    sim::Rng rng, NodeServer& server,
                                    double drain_prob,
                                    NodeServerStats* stats_out = nullptr) {
  std::vector<ServeResult> results;
  results.reserve(stream.size());
  const auto consume = [&] {
    server.drain();
    results.insert(results.end(), server.completions().begin(),
                   server.completions().end());
    server.clear_completions();
  };

  std::vector<std::byte> buf(storage::kBlockSectorSize);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Submission& sub = stream[i];
    if (sub.is_read) {
      server.submit(sub.arrival, storage::DiskOpKind::kRead, i % 64, 1, {},
                    std::span<std::byte>(buf), sub.deadline, i);
    } else {
      server.submit(sub.arrival, storage::DiskOpKind::kWrite, i % 64, 1,
                    std::span<const std::byte>(buf), {}, sub.deadline, i);
    }
    if (rng.bernoulli(drain_prob)) consume();
  }
  consume();
  EXPECT_EQ(server.depth(), 0u) << "pipeline not empty after drain";
  if (stats_out != nullptr) *stats_out = server.stats();
  return results;
}

class ServingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServingProperty, EveryRequestTerminatesExactlyOnce) {
  sim::Rng rng(GetParam());
  const Scenario s = make_scenario(rng);
  const std::vector<Submission> stream = make_stream(rng, s);

  storage::MemDisk disk(16384, s.device_latency);
  if (s.fail_after != ~0ull) disk.fail_after(s.fail_after);
  NodeServer server(disk, ServerConfig{s.queue_limit, s.admission});
  NodeServerStats stats;
  const std::vector<ServeResult> results =
      run_stream(stream, rng.fork(), server, 0.05, &stats);

  // Conservation: one terminal result per submission, no loss, no dupes.
  ASSERT_EQ(results.size(), stream.size());
  std::vector<bool> seen(stream.size(), false);
  for (const ServeResult& r : results) {
    ASSERT_LT(r.tag, stream.size());
    EXPECT_FALSE(seen[r.tag]) << "request " << r.tag << " reported twice";
    seen[r.tag] = true;
  }

  // The stats ledger agrees with the sink, and the four outcomes
  // partition the submissions.
  EXPECT_EQ(stats.submitted, stream.size());
  EXPECT_EQ(stats.served + stats.failed + stats.timed_out + stats.shed,
            stats.submitted);
  std::uint64_t counted[kNumOutcomeKinds] = {};
  for (const ServeResult& r : results) {
    ++counted[static_cast<std::size_t>(r.outcome)];
  }
  EXPECT_EQ(counted[static_cast<std::size_t>(OutcomeKind::kServed)],
            stats.served);
  EXPECT_EQ(counted[static_cast<std::size_t>(OutcomeKind::kFailed)],
            stats.failed);
  EXPECT_EQ(counted[static_cast<std::size_t>(OutcomeKind::kTimedOut)],
            stats.timed_out);
  EXPECT_EQ(counted[static_cast<std::size_t>(OutcomeKind::kShed)],
            stats.shed);
}

TEST_P(ServingProperty, CompletionOrderAndSingleServerService) {
  sim::Rng rng(GetParam());
  const Scenario s = make_scenario(rng);
  const std::vector<Submission> stream = make_stream(rng, s);

  storage::MemDisk disk(16384, s.device_latency);
  if (s.fail_after != ~0ull) disk.fail_after(s.fail_after);
  NodeServer server(disk, ServerConfig{s.queue_limit, s.admission});
  const std::vector<ServeResult> results =
      run_stream(stream, rng.fork(), server, 0.0);
  ASSERT_EQ(results.size(), stream.size());

  // The ring fills in virtual-time order for EVERY outcome: served /
  // failed at device completion, shed at the admission decision, and
  // timed out at the deadline instant — the timer wheel retires an
  // expired request the moment its deadline passes rather than when it
  // would have reached the head of the line.
  std::int64_t frontier_ns = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_GE(results[i].complete.ns(), frontier_ns)
        << "completion ring went backwards in time at result " << i;
    frontier_ns = results[i].complete.ns();
  }

  // Requests that reached the device (served or failed) were serviced
  // one at a time, FIFO in (arrival, submission seq) order: sink order
  // for them is service order, busy intervals don't overlap, and their
  // tags — equal to submission index, with arrivals non-decreasing in
  // submission order — must be strictly increasing.
  const ServeResult* prev = nullptr;
  for (const ServeResult& r : results) {
    if (r.outcome != OutcomeKind::kServed && r.outcome != OutcomeKind::kFailed)
      continue;
    EXPECT_GE(r.service_start.ns(), r.arrival.ns());
    EXPECT_GT(r.complete.ns(), r.service_start.ns());
    if (prev != nullptr) {
      EXPECT_GE(r.service_start.ns(), prev->complete.ns())
          << "two commands overlapped on the single-server device";
      EXPECT_GT(r.tag, prev->tag) << "device service broke FIFO order";
    }
    prev = &r;
  }
}

TEST_P(ServingProperty, DepthBoundedAndTimestampsSane) {
  sim::Rng rng(GetParam());
  const Scenario s = make_scenario(rng);
  const std::vector<Submission> stream = make_stream(rng, s);

  storage::MemDisk disk(16384, s.device_latency);
  if (s.fail_after != ~0ull) disk.fail_after(s.fail_after);
  NodeServer server(disk, ServerConfig{s.queue_limit, s.admission});
  NodeServerStats stats;
  const std::vector<ServeResult> results =
      run_stream(stream, rng.fork(), server, 0.05, &stats);

  EXPECT_LE(stats.max_depth, s.queue_limit)
      << "queue depth exceeded the admission limit";

  for (const ServeResult& r : results) {
    const Submission& sub = stream[r.tag];
    EXPECT_EQ(r.arrival.ns(), sub.arrival.ns());
    switch (r.outcome) {
      case OutcomeKind::kServed:
      case OutcomeKind::kFailed:
        // Device time starts after arrival and before the client quit.
        EXPECT_GE(r.service_start.ns(), r.arrival.ns());
        EXPECT_LT(r.service_start.ns(), sub.deadline.ns());
        break;
      case OutcomeKind::kTimedOut:
        // Expired in queue: accounted at the deadline, no device time.
        EXPECT_EQ(r.complete.ns(), sub.deadline.ns());
        break;
      case OutcomeKind::kShed:
        // Refused at the admission decision; for reject-new that is the
        // request's own arrival, for drop-oldest the evictor's.
        EXPECT_GE(r.complete.ns(), r.arrival.ns());
        break;
      case OutcomeKind::kCancelled:
        ADD_FAILURE() << "cancelled without a cancel_at: tag " << r.tag;
        break;
    }
  }
}

TEST_P(ServingProperty, ResetReplaysIdentically) {
  sim::Rng rng(GetParam());
  const Scenario s = make_scenario(rng);
  const std::vector<Submission> stream = make_stream(rng, s);
  const sim::Rng drain_rng = rng.fork();

  storage::MemDisk disk(16384, s.device_latency);
  NodeServer server(disk, ServerConfig{s.queue_limit, s.admission});
  const std::vector<ServeResult> first =
      run_stream(stream, drain_rng, server, 0.05);
  server.reset();
  const std::vector<ServeResult> second =
      run_stream(stream, drain_rng, server, 0.05);

  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].tag, second[i].tag);
    EXPECT_EQ(first[i].outcome, second[i].outcome);
    EXPECT_EQ(first[i].arrival.ns(), second[i].arrival.ns());
    EXPECT_EQ(first[i].service_start.ns(), second[i].service_start.ns());
    EXPECT_EQ(first[i].complete.ns(), second[i].complete.ns());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingProperty,
                         ::testing::Range<std::uint64_t>(1, 25));

/// Serves every command in `latency` and records each erase it gets.
class ErasingDisk final : public storage::BlockDevice {
 public:
  struct Extent {
    std::uint64_t lba;
    std::uint32_t sector_count;
  };

  explicit ErasingDisk(sim::Duration latency) : latency_(latency) {}

  std::uint64_t total_sectors() const override { return 16384; }
  storage::BlockIo read(sim::SimTime now, std::uint64_t, std::uint32_t,
                        std::span<std::byte>) override {
    return done(now);
  }
  storage::BlockIo write(sim::SimTime now, std::uint64_t, std::uint32_t,
                         std::span<const std::byte>) override {
    return done(now);
  }
  storage::BlockIo flush(sim::SimTime now) override { return done(now); }
  storage::BlockIo erase(sim::SimTime now, std::uint64_t lba,
                         std::uint32_t sector_count) override {
    erased_.push_back({lba, sector_count});
    return done(now);
  }

  const std::vector<Extent>& erased() const { return erased_; }

 private:
  storage::BlockIo done(sim::SimTime now) const {
    return storage::BlockIo{storage::BlockStatus::kOk, now + latency_};
  }

  sim::Duration latency_;
  std::vector<Extent> erased_;
};

// An erase submitted through the public API reaches the device, takes
// device time, and holds the server busy like any other command: the
// read queued behind it starts when the erase completes.
TEST(NodeServer, EraseReachesTheDeviceAndHoldsTheServer) {
  const sim::Duration latency = sim::Duration::from_micros(2000);
  ErasingDisk disk(latency);
  NodeServer server(disk, ServerConfig{4, AdmissionPolicy::kRejectNew});
  const sim::SimTime arrival =
      sim::SimTime::zero() + sim::Duration::from_micros(100);
  const sim::SimTime deadline = arrival + sim::Duration::from_seconds(1.0);
  std::vector<std::byte> buf(storage::kBlockSectorSize);
  server.submit(arrival, storage::DiskOpKind::kErase, 128, 8, {}, {},
                deadline, /*tag=*/0);
  server.submit(arrival, storage::DiskOpKind::kRead, 0, 1, {},
                std::span<std::byte>(buf), deadline, /*tag=*/1);
  server.drain();

  ASSERT_EQ(disk.erased().size(), 1u);
  EXPECT_EQ(disk.erased()[0].lba, 128u);
  EXPECT_EQ(disk.erased()[0].sector_count, 8u);

  const std::vector<ServeResult>& results = server.completions();
  ASSERT_EQ(results.size(), 2u);
  const ServeResult& erase = results[0];
  EXPECT_EQ(erase.tag, 0u);
  EXPECT_EQ(erase.outcome, OutcomeKind::kServed);
  EXPECT_EQ(erase.service_start.ns(), arrival.ns());
  EXPECT_GE(erase.complete.ns(), erase.service_start.ns());
  EXPECT_EQ(erase.complete.ns(), (arrival + latency).ns());
  const ServeResult& read = results[1];
  EXPECT_EQ(read.tag, 1u);
  EXPECT_EQ(read.service_start.ns(), erase.complete.ns());
}

}  // namespace
}  // namespace deepnote::cluster::serving
