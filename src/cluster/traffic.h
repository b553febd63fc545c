// Traffic inputs for the cluster engine: Zipf object popularity (an
// exact alias-method sampler), the offered load and read/write mix, a
// timeline of scheduled actions (attack on / attack off), and the
// closed-loop client population the serving mode drives.
//
// Open-loop matters for availability numbers: real clients do not slow
// down because the storage got slow, so load keeps arriving at the
// configured rate while drives hang — exactly the regime where a parked
// pod turns into failed requests instead of a quietly longer queue. The
// engine generates that stream itself (engine.h); the closed-loop
// population below is the backpressure alternative.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cluster/resilience/retry.h"
#include "cluster/slo.h"
#include "sim/rng.h"
#include "sim/task_pool.h"
#include "sim/time.h"

namespace deepnote::cluster {

/// Exact Zipf rank sampler via Vose's alias method: O(n) build, O(1)
/// per sample (one table lookup + one biased coin), no per-sample
/// normalization. At millions of keys this is what makes batch traffic
/// generation cheap enough to disappear next to the drive model; it is
/// also *exact* — each rank r is drawn with probability
/// (r+1)^-theta / zeta(n, theta). Rank 0 is the hottest key;
/// placement's key hash scatters ranks across nodes. Deterministic: the
/// table depends only on (n, theta) and each sample consumes exactly
/// two RNG draws.
///
/// At 1M keys the table is 12 MB, so nearly every lookup misses cache.
/// A sample therefore splits in three: draw() takes the two RNG draws,
/// prefetch() starts loading the bucket's entry, resolve() reads it. A
/// caller that draws a batch of kBatch before resolving any of it
/// overlaps the misses; next() is the one-at-a-time composition.
class ZipfAliasSampler {
 public:
  /// One sample's RNG draws, not yet looked up.
  struct Draw {
    std::uint64_t bucket = 0;
    double coin = 0.0;
  };
  /// Draws a batched caller holds before resolving them: enough misses
  /// in flight to cover memory latency, in a fixed buffer.
  static constexpr std::size_t kBatch = 64;

  ZipfAliasSampler(std::uint64_t n, double theta);

  Draw draw(sim::Rng& rng) const {
    const std::uint64_t bucket = rng.next_u64() % n_;
    return Draw{bucket, rng.next_double()};
  }
  /// A hint only: starts loading both arrays' entries for `bucket`.
  void prefetch(std::uint64_t bucket) const {
    __builtin_prefetch(&accept_[bucket]);
    __builtin_prefetch(&alias_[bucket]);
  }
  std::uint64_t resolve(Draw d) const {
    return d.coin < accept_[d.bucket] ? d.bucket : alias_[d.bucket];
  }
  std::uint64_t next(sim::Rng& rng) const { return resolve(draw(rng)); }

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }
  /// Exact probability of rank r (for tests).
  double probability(std::uint64_t rank) const;

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_;
  std::vector<double> accept_;      ///< acceptance threshold per bucket
  std::vector<std::uint32_t> alias_;  ///< fallback rank per bucket
};

struct TrafficConfig {
  /// Aggregate offered load.
  double arrival_rate_per_s = 1000.0;
  sim::Duration duration = sim::Duration::from_seconds(60.0);
  double read_fraction = 0.9;
  std::uint64_t keyspace = 20000;
  double zipf_theta = 0.99;
  std::uint64_t seed = 1;
};

/// One scheduled control action (start/stop an attack, drain a pod...).
/// Fired at the engine's epoch barrier at `at`; the callback receives
/// `at`, or the latest completion already handed out if that is later.
struct TimelineAction {
  sim::SimTime at = sim::SimTime::zero();
  std::function<void(sim::SimTime)> fn;
};

/// Time order, equal times in the order given. A sorted timeline costs
/// one scan and no allocation.
void sort_by_time(std::vector<TimelineAction>& actions);

struct TrafficReport {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

/// One request issue, already keyed and typed: a closed-loop client's
/// (drawn against the client's own RNG stream) or an open-loop arrival
/// (client 0). Opens with an IssueCalendar record's fields, so a
/// harvest can append ClientIssue{at, client} straight into a round.
struct ClientIssue {
  sim::SimTime at = sim::SimTime::zero();
  std::uint32_t client = 0;
  bool is_read = true;
  std::uint64_t key = 0;
};

/// One round of issues, held as runs that are each sorted by (at,
/// client): the open-loop generator fills one run, a closed-loop
/// population one per partition. The round's order is the runs' k-way
/// merge by (at, client), ties between runs going to the lower run; the
/// partitions' id ranges ascend, so that is the order one calendar of
/// the whole population would hand out. split(slices) cuts that order
/// into contiguous slices of about equal size, and merge_slice(s, fn)
/// calls fn(issue, i) for each issue of slice s in order, i being the
/// issue's index in the whole round. Different slices may be merged at
/// once, each by one thread.
class IssueRuns {
 public:
  /// Empty the round into `runs` runs; each keeps its capacity.
  void clear(std::size_t runs);
  std::size_t runs() const { return runs_.size(); }
  std::vector<ClientIssue>& run(std::size_t r) { return runs_[r].issues; }
  /// The round's size.
  std::size_t size() const;

  void split(std::size_t slices);
  /// Index in the round of slice `slice`'s first issue; slice_begin of
  /// the slice count is the round's size.
  std::size_t slice_begin(std::size_t slice) const {
    return slice_begin_[slice];
  }
  template <class Fn>
  void merge_slice(std::size_t slice, Fn&& fn);

 private:
  /// Aligned to a cache line: different threads fill neighbouring runs.
  struct alignas(64) Run {
    std::vector<ClientIssue> issues;
  };
  /// The next issue of one run's part of a slice. merge_slice keeps them
  /// in a min-heap by (at, run).
  struct RunHead {
    std::int64_t at_ns = 0;
    std::uint32_t run = 0;
    std::uint32_t next = 0;  ///< index of the head within the run
    std::uint32_t end = 0;   ///< where the slice's part of the run ends
  };
  static bool before(const RunHead& a, const RunHead& b) {
    return a.at_ns == b.at_ns ? a.run < b.run : a.at_ns < b.at_ns;
  }
  /// Restore the heap heads[0, n) below `i`.
  static void sink(RunHead* heads, std::size_t i, std::size_t n) {
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) return;
      if (child + 1 < n && before(heads[child + 1], heads[child])) ++child;
      if (!before(heads[child], heads[i])) return;
      std::swap(heads[child], heads[i]);
      i = child;
    }
  }

  std::vector<Run> runs_;
  /// split's cut: slice s takes [bounds_[s * R + r], bounds_[(s + 1) * R
  /// + r]) of run r, for R runs.
  std::vector<std::uint32_t> bounds_;
  std::vector<std::size_t> slice_begin_;
  std::vector<RunHead> heads_;  ///< R per slice
};

template <class Fn>
void IssueRuns::merge_slice(std::size_t slice, Fn&& fn) {
  const std::size_t nr = runs_.size();
  RunHead* heads = heads_.data() + slice * nr;
  std::size_t n = 0;
  for (std::size_t r = 0; r < nr; ++r) {
    const std::uint32_t lo = bounds_[slice * nr + r];
    const std::uint32_t hi = bounds_[(slice + 1) * nr + r];
    if (lo == hi) continue;
    heads[n++] = RunHead{runs_[r].issues[lo].at.ns(),
                         static_cast<std::uint32_t>(r), lo, hi};
  }
  for (std::size_t i = n / 2; i-- > 0;) sink(heads, i, n);
  // Take the earliest head and step its run on; a run whose part of the
  // slice ends gives its place to the heap's last head.
  std::size_t index = slice_begin_[slice];
  while (n > 0) {
    RunHead& top = heads[0];
    const std::vector<ClientIssue>& run = runs_[top.run].issues;
    fn(run[top.next], index++);
    if (++top.next < top.end) {
      top.at_ns = run[top.next].at.ns();
    } else {
      top = heads[--n];
    }
    sink(heads, 0, n);
  }
}

/// A closed-loop partition's calendar of pending next issues: (at, id)
/// records, handed out in bulk. Unlike sim::TimerWheel it never
/// cancels and hands a harvest out unsorted (its caller sorts it
/// anyway), so a bucket is a singly linked list through one record pool
/// that hands freed records out first: scheduling and harvesting touch
/// a few hot pool lines and a 16 KB array of list heads, not a heap
/// block per bucket.
///
/// Time is cut into the timer wheel's 65.536 us ticks, counted from the
/// origin, and every pending record sits in one of three places:
///  * the near ring, one bucket per tick over a window of kWindow ticks
///    (268 ms) that slides forward half a window at a time;
///  * the far list, for records past the window; each slide moves the
///    records that came into the window into their buckets in one pass;
///  * the overdue list, for records at or before the last harvest
///    limit; the next harvest hands them out at their own time.
///
/// harvest(limit) hands out exactly the records sim::TimerWheel's
/// advance(limit) would fire: every one at or before the later of
/// `limit` and the previous limit. One bit per bucket marks the
/// non-empty ones, so a harvest steps over a run of empty ticks a
/// 64-bucket word at a time: a few clients leave most of the ring
/// empty, and a 50 ms epoch spans 763 ticks.
class IssueCalendar {
 public:
  struct Entry {
    sim::SimTime at;
    std::uint32_t id = 0;
  };

  /// Drop every record and restart the clock at `origin`. The far list
  /// is reserved to `capacity`, the most records ever pending at once.
  /// The pool keeps its capacity, so a warm replay does not allocate.
  void reset(sim::SimTime origin, std::size_t capacity);

  void schedule(sim::SimTime at, std::uint32_t id);

  /// Append every record at or before max(limit, previous limit) to
  /// `out` as Record{at, id}, in no particular order, and remove them.
  /// Record is Entry or ClientIssue.
  template <class Record>
  void harvest(sim::SimTime limit, std::vector<Record>& out);

 private:
  static constexpr int kTickShift = 16;  // 65.536 us, the wheel's tick
  static constexpr std::int64_t kWindow = 4096;
  static constexpr std::int64_t kHalf = kWindow / 2;

  std::int64_t tick_of(sim::SimTime t) const {
    return (t.ns() - origin_ns_) >> kTickShift;
  }
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// A near-ring record: an Entry and the pool index of the next one
  /// in its bucket (or on the free list).
  struct Node {
    std::int64_t at_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t next = kNil;
  };

  /// Link a record into the tick's bucket and mark it non-empty.
  void put(std::int64_t tick, const Entry& e);
  /// The first tick in [from, to) whose bucket is non-empty, else `to`.
  /// The range must lie in one half of the window.
  std::int64_t next_occupied(std::int64_t from, std::int64_t to) const;
  /// Move the window up by half and pull in the far records it reaches.
  void slide();

  std::int64_t origin_ns_ = 0;
  std::int64_t now_ns_ = 0;  ///< the latest harvest limit
  std::int64_t cursor_ = 0;  ///< tick of now_ns_, below base_ + kHalf
  std::int64_t base_ = 0;    ///< first tick of the window
  std::vector<std::uint32_t> head_;  ///< per bucket: first node, or kNil
  std::array<std::uint64_t, kWindow / 64> occupied_{};  ///< bit per bucket
  std::vector<Node> pool_;
  std::uint32_t free_ = kNil;  ///< first free node
  std::vector<Entry> far_;
  std::vector<Entry> overdue_;
};

/// A fixed population of closed-loop clients: each client issues one
/// request, waits for its outcome, then thinks for an exponential gap
/// before the next — so when the service slows down, offered load drops
/// with it (backpressure), instead of the open-loop regime where
/// arrivals keep coming at the configured rate.
///
/// Failed outcomes feed the retry loop this layer exists to study: the
/// client re-issues the same key after a BackoffConfig-shaped delay
/// (fixed or exponential, with deterministic per-client jitter) up to a
/// retry cap, optionally gated by a cluster-wide RetryBudget — which is
/// exactly the retry-storm amplification loop the overload experiment
/// measures.
///
/// Deterministic: every client owns a forked RNG stream and draws its
/// key/read-coin at issue time; backoff jitter comes from a separate
/// per-client splitmix64 stream (so turning jitter on or off never
/// perturbs key draws). The request sequence depends only on
/// (seed, outcome timeline), never on batching or partitioning.
///
/// The clients are split into partitions, contiguous id ranges, and
/// each partition's idle clients wait in its own IssueCalendar keyed by
/// next-issue time. A round harvests each partition's due clients into
/// the partition's run of an IssueRuns, sorts them into (at, client)
/// order and draws their keys; partitions touch only their own clients,
/// calendar and run, so they can collect on different threads, and the
/// runs' merge hands the round out in the order a single calendar
/// would. Fresh issues earn into the retry budget only after the
/// partitions are done: the earns are identical capped adds, so their
/// order does not matter. A round costs O(due), and only the calendars'
/// slides (one per 134 ms of simulated time) pass over the clients
/// waiting past their window; the partitions' calendars together hold
/// what one calendar would.
class ClosedLoopPopulation {
 public:
  ClosedLoopPopulation() = default;

  /// (Re)seed `clients` streams from `traffic.seed`. Per-client think
  /// mean is clients / arrival_rate, so the aggregate no-load offered
  /// rate matches the open-loop configuration. `budget`, when non-null,
  /// must outlive the population and gates every retry (it is earned by
  /// fresh issues here too). The clients split into `partitions`
  /// contiguous id ranges of equal size (the last may be short), at
  /// most one per client and 65,536 in all; the issue sequence does not
  /// depend on it.
  void reset(const TrafficConfig& traffic, std::size_t clients,
             const resilience::BackoffConfig& backoff,
             resilience::RetryBudget* budget, sim::SimTime start,
             std::size_t partitions = 1);

  /// Make `round` one run per partition, each holding that partition's
  /// clients whose next issue falls before `horizon`, sorted by (at,
  /// client), mark them in flight and return the round's size. Their
  /// keys are drawn here, against each client's own stream. With several
  /// partitions and a `pool`, the partitions collect on the pool.
  std::size_t collect_runs(sim::SimTime horizon, const ZipfAliasSampler& zipf,
                           IssueRuns& round, sim::TaskPool* pool = nullptr);

  /// Report the outcome of `client`'s in-flight request at `when`.
  void complete(std::uint32_t client, sim::SimTime when, OutcomeKind outcome);

  /// Start loading `client`'s record, for a caller about to complete()
  /// a batch of clients scattered across the population.
  void prefetch(std::uint32_t client) const {
    // A record can straddle two cache lines: fetch both ends.
    const Client* c = &clients_[client];
    __builtin_prefetch(c);
    __builtin_prefetch(reinterpret_cast<const char*>(c + 1) - 1);
  }

  std::size_t size() const { return clients_.size(); }
  std::size_t partitions() const { return parts_.size(); }
  /// Retry re-issues across the run (budget-approved ones only).
  std::uint64_t retries() const { return retries_; }
  const resilience::BackoffConfig& backoff() const { return backoff_; }

 private:
  struct Client {
    sim::Rng rng{0};
    std::uint64_t key = 0;      ///< current key (kept across retries)
    std::uint64_t jitter_state = 0;  ///< private splitmix64 stream
    std::uint32_t attempts = 0;      ///< retries spent on `key`
    std::uint8_t is_read = 1;
    std::uint8_t has_retry = 0;  ///< next issue re-sends `key`
    std::uint16_t part = 0;      ///< owning partition
  };

  /// One contiguous id range and all a harvest of it writes. Aligned to
  /// a cache line: neighbouring partitions collect on different threads.
  struct alignas(64) Partition {
    /// Idle clients by next-issue time; id = client index. Harvested
    /// strictly below the round horizon.
    IssueCalendar calendar;
    /// Key draws of one batch of a harvest, by index within the batch.
    std::array<ZipfAliasSampler::Draw, ZipfAliasSampler::kBatch> draws;
    std::uint64_t earns = 0;  ///< fresh issues, not yet earned
  };

  /// Harvest, sort and key one partition's due clients into `out`, its
  /// empty run of the round.
  void collect_partition(Partition& part, sim::SimTime horizon,
                         const ZipfAliasSampler& zipf,
                         std::vector<ClientIssue>& out);

  std::vector<Client> clients_;
  std::vector<Partition> parts_;
  /// The round collect_runs is harvesting, for the pool's tasks.
  sim::SimTime round_horizon_ = sim::SimTime::zero();
  const ZipfAliasSampler* round_zipf_ = nullptr;
  IssueRuns* round_ = nullptr;
  double think_mean_s_ = 0.0;
  double read_fraction_ = 1.0;
  resilience::BackoffConfig backoff_;
  resilience::RetryBudget* budget_ = nullptr;
  std::uint64_t retries_ = 0;
};

}  // namespace deepnote::cluster
