// google-benchmark microbenchmarks for the substrates: how fast the
// simulator itself runs (host wall-clock per simulated operation).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "acoustics/absorption.h"
#include "cluster/engine.h"
#include "cluster/hybrid.h"
#include "cluster/node.h"
#include "cluster/overload_experiment.h"
#include "cluster/traffic.h"
#include "core/attack.h"
#include "core/scenario.h"
#include "core/testbed.h"
#include "hdd/drive.h"
#include "hdd/sector_store.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "sim/task_pool.h"
#include "sim/trial_runner.h"
#include "storage/extfs.h"
#include "storage/fault_harness.h"
#include "storage/fault_workloads.h"
#include "storage/flash/ftl.h"
#include "storage/kvdb/db.h"
#include "storage/kvdb/memtable.h"
#include "storage/mem_disk.h"
#include "workload/db_bench.h"

using namespace deepnote;

// ---------------------------------------------------------------------------
// sim

static void BM_RngNextDouble(benchmark::State& state) {
  sim::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_double());
  }
}
BENCHMARK(BM_RngNextDouble);

static void BM_LatencyHistogramAdd(benchmark::State& state) {
  sim::LatencyHistogram h;
  sim::Rng rng(2);
  for (auto _ : state) {
    h.add_ns(static_cast<std::int64_t>(rng.exponential(1e6)));
  }
}
BENCHMARK(BM_LatencyHistogramAdd);

// Per-task overhead of fanning a batch through the trial-execution pool
// (batch setup + index claiming + completion handshake; the tasks are
// no-ops). Real trials cost milliseconds to seconds, so dispatch must
// stay in the microsecond range per batch.
static void BM_TaskPoolDispatch(benchmark::State& state) {
  sim::TaskPool pool(static_cast<unsigned>(state.range(0)));
  std::atomic<std::uint64_t> sink{0};
  for (auto _ : state) {
    pool.run_indexed(64, [&](std::size_t i) {
      sink.fetch_add(i, std::memory_order_relaxed);
    });
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_TaskPoolDispatch)->Arg(1)->Arg(2)->Arg(4);

static void BM_TrialSeedDerivation(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::trial_seed(0x5eef, i++));
  }
}
BENCHMARK(BM_TrialSeedDerivation);

// ---------------------------------------------------------------------------
// acoustics / structure

static void BM_AbsorptionAinslieMcColm(benchmark::State& state) {
  const auto water = acoustics::WaterConditions::ocean();
  double f = 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(acoustics::absorption_db_per_km(
        acoustics::AbsorptionModel::kAinslieMcColm, f, water));
    f = f < 50000.0 ? f * 1.01 : 100.0;
  }
}
BENCHMARK(BM_AbsorptionAinslieMcColm);

static void BM_FullAttackChainEvaluation(benchmark::State& state) {
  core::Testbed bed(core::make_scenario(core::ScenarioId::kPlasticTower));
  core::AttackConfig attack;
  double f = 100.0;
  for (auto _ : state) {
    attack.frequency_hz = f;
    benchmark::DoNotOptimize(bed.predicted_offtrack_nm(attack));
    f = f < 16000.0 ? f + 37.0 : 100.0;
  }
}
BENCHMARK(BM_FullAttackChainEvaluation);

// Cold vs memoized attack-chain evaluation: the cold path walks source ->
// water -> enclosure -> mount -> servo every call (cache wiped each
// iteration); the memoized path revisits tones a sweep already touched.
static void BM_AttackChainCold(benchmark::State& state) {
  core::Testbed bed(core::make_scenario(core::ScenarioId::kPlasticTower));
  core::AttackConfig attack;
  double f = 100.0;
  for (auto _ : state) {
    bed.clear_analysis_cache();
    attack.frequency_hz = f;
    benchmark::DoNotOptimize(bed.predicted_offtrack_nm(attack));
    f = f < 16000.0 ? f + 37.0 : 100.0;
  }
}
BENCHMARK(BM_AttackChainCold);

static void BM_AttackChainMemoized(benchmark::State& state) {
  core::Testbed bed(core::make_scenario(core::ScenarioId::kPlasticTower));
  core::AttackConfig attack;
  // Warm the cache with a Fig. 2-sized tone grid, then measure hits.
  std::vector<double> tones;
  for (double f = 100.0; f <= 8000.0; f += 250.0) tones.push_back(f);
  for (double f : tones) {
    attack.frequency_hz = f;
    bed.predicted_offtrack_nm(attack);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    attack.frequency_hz = tones[i];
    benchmark::DoNotOptimize(bed.predicted_offtrack_nm(attack));
    i = (i + 1) % tones.size();
  }
}
BENCHMARK(BM_AttackChainMemoized);

// ---------------------------------------------------------------------------
// hdd

static void BM_HddSequentialWrite4k(benchmark::State& state) {
  core::ScenarioSpec spec = core::make_scenario(core::ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  hdd::Hdd drive(spec.hdd);
  std::vector<std::byte> block(4096, std::byte{0x5a});
  sim::SimTime t = sim::SimTime::zero();
  std::uint64_t lba = 0;
  for (auto _ : state) {
    t = drive.write(t, lba, 8, block).complete;
    lba += 8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HddSequentialWrite4k);

static void BM_HddSequentialRead4k(benchmark::State& state) {
  core::ScenarioSpec spec = core::make_scenario(core::ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  hdd::Hdd drive(spec.hdd);
  std::vector<std::byte> block(4096);
  sim::SimTime t = sim::SimTime::zero();
  std::uint64_t lba = 0;
  for (auto _ : state) {
    t = drive.read(t, lba, 8, block).complete;
    lba += 8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HddSequentialRead4k);

static void BM_HddWriteUnderAttack(benchmark::State& state) {
  core::ScenarioSpec spec = core::make_scenario(core::ScenarioId::kPlasticTower);
  spec.hdd.retain_data = false;
  core::Testbed bed(spec);
  core::AttackConfig attack;
  attack.distance_m = 0.15;  // partial degradation: retries sampled
  bed.apply_attack(sim::SimTime::zero(), attack);
  std::vector<std::byte> block(4096, std::byte{0x5a});
  sim::SimTime t = sim::SimTime::zero();
  std::uint64_t lba = 0;
  for (auto _ : state) {
    t = bed.drive().write(t, lba, 8, block).complete;
    lba += 8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HddWriteUnderAttack);

// Sector-store span I/O across span sizes (1 sector .. a full 256-sector
// chunk): measures the per-sector cost of the backing store that every
// media access and cache-overlay read pays.
static void BM_SectorStoreWrite(benchmark::State& state) {
  const auto sectors = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint64_t kDeviceSectors = 1ull << 18;  // 128 MiB
  hdd::SectorStore store(kDeviceSectors);
  std::vector<std::byte> buf(
      static_cast<std::size_t>(sectors) * hdd::kSectorSize, std::byte{0x5a});
  std::uint64_t lba = 0;
  for (auto _ : state) {
    store.write(lba, sectors, buf);
    lba += sectors;
    if (lba + sectors > kDeviceSectors) lba = 0;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          sectors * hdd::kSectorSize);
}
BENCHMARK(BM_SectorStoreWrite)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

static void BM_SectorStoreRead(benchmark::State& state) {
  const auto sectors = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint64_t kDeviceSectors = 1ull << 16;  // 32 MiB
  hdd::SectorStore store(kDeviceSectors);
  std::vector<std::byte> fill(
      static_cast<std::size_t>(kDeviceSectors) * hdd::kSectorSize,
      std::byte{0x42});
  store.write(0, static_cast<std::uint32_t>(kDeviceSectors), fill);
  std::vector<std::byte> buf(
      static_cast<std::size_t>(sectors) * hdd::kSectorSize);
  std::uint64_t lba = 0;
  for (auto _ : state) {
    store.read(lba, sectors, buf);
    lba += sectors;
    if (lba + sectors > kDeviceSectors) lba = 0;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          sectors * hdd::kSectorSize);
}
BENCHMARK(BM_SectorStoreRead)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

static void BM_SectorStoreAnyWritten(benchmark::State& state) {
  constexpr std::uint64_t kDeviceSectors = 1ull << 18;
  hdd::SectorStore store(kDeviceSectors);
  std::vector<std::byte> one(hdd::kSectorSize, std::byte{1});
  store.write(kDeviceSectors - 1, 1, one);
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.any_written(lba, 2048));
    lba = (lba + 2048) % (kDeviceSectors - 2048);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SectorStoreAnyWritten);

// ---------------------------------------------------------------------------
// storage

static void BM_MemTablePut(benchmark::State& state) {
  storage::kvdb::MemTable mt;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    ++seq;
    mt.put("key" + std::to_string(seq % 100000), "value", seq);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTablePut);

// Point gets on one full db_bench write buffer: 131,072 entries (16 MB at
// the memtable's byte estimate) with 16-byte keys and 64-byte values,
// inserted in a shuffled order as random writes would. The argument picks
// hits (0) or misses (1): a miss asks for an odd key index, which falls
// between two stored even ones. Keys are built before timing and visited
// in a scattered order.
static void BM_MemTableGet(benchmark::State& state) {
  constexpr std::uint64_t kEntries = 131072;
  const workload::DbBenchConfig bcfg;
  const std::uint32_t key_bytes = bcfg.key_bytes;
  std::vector<std::uint64_t> order(kEntries);
  for (std::uint64_t i = 0; i < kEntries; ++i) order[i] = i;
  sim::Rng rng(1);
  for (std::uint64_t i = kEntries - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_u64() % (i + 1)]);
  }
  storage::kvdb::MemTable mt;
  std::uint64_t seq = 0;
  for (const std::uint64_t i : order) {
    mt.put(workload::DbBench::make_key(2 * i, key_bytes),
           workload::DbBench::make_value(i, bcfg.value_bytes), ++seq);
  }
  const std::uint64_t miss = state.range(0) != 0 ? 1 : 0;
  std::string probes;
  for (std::uint64_t i = 0; i < kEntries; ++i) {
    probes += workload::DbBench::make_key(2 * i + miss, key_bytes);
  }
  std::string v;
  std::uint64_t i = 0;
  for (auto _ : state) {
    i = (i + 7919) % kEntries;
    benchmark::DoNotOptimize(mt.get(
        std::string_view(probes).substr(i * key_bytes, key_bytes), &v));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableGet)->ArgName("miss")->Arg(0)->Arg(1);

static void BM_ExtFsBufferedWrite4k(benchmark::State& state) {
  storage::MemDisk disk((1ull << 30) / 512);
  sim::SimTime t = sim::SimTime::zero();
  storage::ExtFs::mkfs(disk, t);
  auto mount = storage::ExtFs::mount(disk, t);
  std::uint32_t ino = 0;
  t = mount.fs->create(mount.done, "/bench", &ino).done;
  std::vector<std::byte> block(4096, std::byte{0x5a});
  std::uint64_t offset = 0;
  for (auto _ : state) {
    t = mount.fs->write(t, ino, offset, block).done;
    offset += 4096;
    if (offset > (512ull << 20)) {
      state.PauseTiming();
      mount.fs->truncate(t, ino, 0);
      offset = 0;
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExtFsBufferedWrite4k);

static void BM_KvdbPut(benchmark::State& state) {
  storage::MemDisk disk((2ull << 30) / 512);
  sim::SimTime t = sim::SimTime::zero();
  storage::ExtFs::mkfs(disk, t);
  auto mount = storage::ExtFs::mount(disk, t);
  storage::kvdb::DbConfig cfg;
  cfg.write_buffer_bytes = 64ull << 20;
  auto open = storage::kvdb::Db::open(*mount.fs, mount.done, cfg);
  storage::kvdb::Db& db = *open.db;
  t = open.done;
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto r = db.put(t, "key" + std::to_string(i++), "value-payload-64b");
    if (r.err == storage::Errno::kEAGAIN || db.flush_pending()) {
      state.PauseTiming();
      t = db.do_flush(t).done;
      state.ResumeTiming();
      continue;
    }
    t = r.done;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvdbPut);

// Warm point gets served from an L0 table: memtable miss, bloom probe,
// block index search, one data block read through the extfs page cache
// and decoded in place, and the value copy. db_bench's 16-byte keys and
// 64-byte values; keys are visited in a scattered order.
static void BM_KvdbGetFromSst(benchmark::State& state) {
  constexpr std::uint64_t kKeys = 10000;
  storage::MemDisk disk((256ull << 20) / 512);
  sim::SimTime t = sim::SimTime::zero();
  storage::ExtFs::mkfs(disk, t);
  auto mount = storage::ExtFs::mount(disk, t);
  auto open = storage::kvdb::Db::open(*mount.fs, mount.done);
  storage::kvdb::Db& db = *open.db;
  workload::DbBench bench(*mount.fs, db);
  const workload::DbBenchConfig bcfg;
  t = bench.fillseq(open.done, kKeys, bcfg);
  t = db.flush(t).done;
  if (db.l0_count() != 1) state.SkipWithError("expected one L0 table");
  std::string key;
  std::uint64_t i = 0;
  for (auto _ : state) {
    i = (i + 7919) % kKeys;
    workload::DbBench::make_key_into(i, bcfg.key_bytes, key);
    benchmark::DoNotOptimize(db.get(t, key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvdbGetFromSst);

// ---------------------------------------------------------------------------
// workload

// Host cost of the sequential preload every Table-2 trial starts with:
// key/value formatting + WAL append + memtable insert per op, with the
// filesystem daemons ticked alongside. Items are db ops.
static void BM_DbBenchFillseq(benchmark::State& state) {
  // Fresh store per iteration: this is the Table-2 setup phase exactly —
  // a sequential preload of an empty db. Store construction is excluded
  // from timing.
  constexpr std::uint64_t kKeysPerIter = 10000;
  for (auto _ : state) {
    state.PauseTiming();
    storage::MemDisk disk((2ull << 30) / 512);
    sim::SimTime t = sim::SimTime::zero();
    storage::ExtFs::mkfs(disk, t);
    auto mount = storage::ExtFs::mount(disk, t);
    storage::kvdb::DbConfig cfg;
    cfg.write_buffer_bytes = 64ull << 20;
    auto open = storage::kvdb::Db::open(*mount.fs, mount.done, cfg);
    workload::DbBench bench(*mount.fs, *open.db);
    workload::DbBenchConfig bcfg;
    t = open.done;
    state.ResumeTiming();
    t = bench.fillseq(t, kKeysPerIter, bcfg);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kKeysPerIter));
}
BENCHMARK(BM_DbBenchFillseq);

// ---------------------------------------------------------------------------
// flash

// One whole-page write to a random FTL out of N, each with the hybrid
// tier's fleet geometry and no payload. Each FTL takes its writes over
// 2,048 pages (8 MiB), so a warm one runs steady, cheap GC. At N =
// 1,000, as on a 1k-node hybrid fleet, every write meets its FTL cold
// in cache; N = 1 is the warm case a one-device bench measures.
static void BM_FtlWriteAcrossFleet(benchmark::State& state) {
  constexpr std::uint64_t kPages = 2048;
  const auto count = static_cast<std::size_t>(state.range(0));
  const storage::FlashConfig geometry =
      cluster::HybridConfig::provisioned_flash();
  std::deque<storage::FlashDevice> flashes;
  std::deque<storage::Ftl> ftls;
  for (std::size_t i = 0; i < count; ++i) {
    flashes.emplace_back(geometry);
    ftls.emplace_back(flashes.back());
  }
  std::vector<sim::SimTime> now(count, sim::SimTime::zero());
  const std::vector<std::byte> page(
      static_cast<std::size_t>(geometry.page_sectors) *
      storage::kBlockSectorSize);
  sim::Rng rng(7);
  for (auto _ : state) {
    const std::size_t n = rng.next_u64() % count;
    const std::uint64_t lba = (rng.next_u64() % kPages) * geometry.page_sectors;
    now[n] = ftls[n].write(now[n], lba, geometry.page_sectors, page).complete;
    benchmark::DoNotOptimize(now[n]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FtlWriteAcrossFleet)->Arg(1)->Arg(1000);

// ---------------------------------------------------------------------------
// crash-consistency harness

// Cost of replaying a single fault schedule end to end: build the
// workload, run it against the faulted device, crash, run the
// consistency checker. This is the unit the exhaustive explorer fans
// out, so its cost bounds how large a workload stays explorable.
static void BM_FaultScheduleReplay(benchmark::State& state) {
  auto factory = storage::journal_pair_workload();
  const std::uint64_t index =
      static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    auto result = storage::replay_schedule(factory, 0x5eed, index);
    benchmark::DoNotOptimize(result.passed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultScheduleReplay)->Arg(1)->Arg(22);

// Full exhaustive exploration (every cut point x every fault variant)
// of the journal pair workload on the trial pool. Items = schedules.
static void BM_FaultExhaustiveExploration(benchmark::State& state) {
  auto factory = storage::journal_pair_workload();
  storage::ExploreOptions opts;
  opts.jobs = static_cast<std::size_t>(state.range(0));
  std::uint64_t schedules = 0;
  for (auto _ : state) {
    auto report = storage::explore(factory, opts);
    schedules += report.schedules_run;
    benchmark::DoNotOptimize(report.failures.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(schedules));
}
BENCHMARK(BM_FaultExhaustiveExploration)->Arg(1)->Arg(4);

// ---------------------------------------------------------------------------
// cluster

// Pure replica-set computation: hash a key to R nodes under each
// placement policy. This sits on every request the engine routes.
static void BM_PlacementReplicas(benchmark::State& state) {
  const cluster::ClusterTopology topo;
  const cluster::PlacementMap placement(
      topo, static_cast<cluster::PlacementPolicy>(state.range(0)),
      /*replication=*/3);
  std::vector<cluster::NodeId> replicas;
  std::uint64_t key = 0;
  for (auto _ : state) {
    placement.replicas(key++, replicas);
    benchmark::DoNotOptimize(replicas.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlacementReplicas)
    ->Arg(static_cast<int>(cluster::PlacementPolicy::kSamePod))
    ->Arg(static_cast<int>(cluster::PlacementPolicy::kCrossPod))
    ->Arg(static_cast<int>(cluster::PlacementPolicy::kRackAware));

// The closed-loop rounds of the overload_1k population: 4,096 clients
// per 15 nodes scaled to 1,000 nodes (273,066 clients at 120k req/s,
// about 2.28 s of think time each) with the overload grid's governed
// backoff. Each iteration harvests the clients due in the next 50 ms
// epoch, draws their keys, and completes every issue as served 8 ms
// later, which schedules its next think. Arg(1) collects inline in one
// partition; Arg(4) collects four partitions on a 4-thread pool, as the
// engine does at 4 jobs. The round is merged in (at, client) order
// through one slice, as the engine routes a round below
// min_ops_to_shard issues, before the issues complete. ns_per_issue is
// the population's own cost per issued request.
static void BM_ClosedLoopRound(benchmark::State& state) {
  constexpr std::size_t kClients = 273066;
  static const cluster::ZipfAliasSampler zipf(20000, 0.01);
  const auto partitions = static_cast<std::size_t>(state.range(0));
  cluster::TrafficConfig traffic;
  traffic.arrival_rate_per_s = 120000.0;
  std::unique_ptr<sim::TaskPool> pool;
  if (partitions > 1) {
    pool = std::make_unique<sim::TaskPool>(static_cast<unsigned>(partitions));
  }
  cluster::ClosedLoopPopulation population;
  population.reset(traffic, kClients,
                   cluster::overload_experiment_config().governed_backoff,
                   nullptr, sim::SimTime::zero(), partitions);
  cluster::IssueRuns round;
  std::vector<cluster::ClientIssue> due;
  sim::SimTime horizon = sim::SimTime::zero();
  std::int64_t issues = 0;
  for (auto _ : state) {
    horizon = horizon + sim::Duration::from_millis(50.0);
    population.collect_runs(horizon, zipf, round, pool.get());
    due.clear();
    round.split(1);
    round.merge_slice(0, [&](const cluster::ClientIssue& issue, std::size_t) {
      due.push_back(issue);
    });
    benchmark::DoNotOptimize(due.data());
    for (const cluster::ClientIssue& issue : due) {
      population.complete(issue.client,
                          issue.at + sim::Duration::from_millis(8.0),
                          cluster::OutcomeKind::kServed);
    }
    issues += static_cast<std::int64_t>(due.size());
  }
  state.SetItemsProcessed(issues);
  state.counters["ns_per_issue"] = benchmark::Counter(
      static_cast<double>(issues) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ClosedLoopRound)->Arg(1)->Arg(4)->UseRealTime();

// One availability_10k epoch of key draws: 2,000 keys (40k req/s for
// 50 ms) from the 1M-key theta 0.99 table, 12 MB that miss cache on
// nearly every lookup. Arg 0 calls next() one key at a time; arg 1
// draws each batch of ZipfAliasSampler::kBatch keys, prefetching their
// entries, then resolves it, as the engine does.
static void BM_ZipfEpochDraws(benchmark::State& state) {
  constexpr std::size_t kKeys = 2000;
  constexpr std::size_t kBatch = cluster::ZipfAliasSampler::kBatch;
  static const cluster::ZipfAliasSampler zipf(1000000, 0.99);
  const bool batched = state.range(0) != 0;
  sim::Rng rng(7);
  std::vector<cluster::ZipfAliasSampler::Draw> draws(kBatch);
  std::uint64_t sum = 0;
  for (auto _ : state) {
    if (!batched) {
      for (std::size_t i = 0; i < kKeys; ++i) sum += zipf.next(rng);
      benchmark::DoNotOptimize(sum);
      continue;
    }
    for (std::size_t lo = 0; lo < kKeys; lo += kBatch) {
      const std::size_t n = std::min(kBatch, kKeys - lo);
      for (std::size_t i = 0; i < n; ++i) {
        draws[i] = zipf.draw(rng);
        zipf.prefetch(draws[i].bucket);
      }
      for (std::size_t i = 0; i < n; ++i) sum += zipf.resolve(draws[i]);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kKeys));
}
BENCHMARK(BM_ZipfEpochDraws)->Arg(0)->Arg(1);

// The tentpole end-to-end number: 1000 nodes (200 pods x 5 bays),
// 3-way cross-pod replication, a 1M-key Zipf read/write mix through the
// sharded epoch engine, with one pod insonified for the middle two
// thirds of the timeline. Every iteration is a complete availability
// trial on a pristine cluster; fixture construction (testbeds, alias
// table, placement) is excluded from timing so the measured quantity is
// the serving loop itself. Items are requests served.
static void BM_ClusterAvailability(benchmark::State& state) {
  // The 1M-key alias table is immutable and shared across iterations,
  // exactly as run_grid shares it across grid cells.
  static const auto zipf =
      std::make_shared<const cluster::ZipfAliasSampler>(1000000, 0.99);

  core::AttackConfig attack;
  attack.frequency_hz = 650.0;
  attack.spl_air_db = 140.0;
  attack.distance_m = 0.01;
  attack.start = sim::SimTime::from_seconds(0.5);
  attack.end = sim::SimTime::from_seconds(2.5);

  std::int64_t requests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    cluster::ClusterConfig cluster_config;
    cluster_config.topology =
        cluster::ClusterTopology{.pods = 200, .bays_per_pod = 5};
    cluster_config.seed = 0x1234;
    cluster::Cluster cluster(cluster_config);

    cluster::EngineConfig config;
    config.balancer.policy = cluster::PlacementPolicy::kCrossPod;
    config.balancer.objects = 20000;
    config.traffic.arrival_rate_per_s = 400.0;
    config.traffic.duration = sim::Duration::from_seconds(3.0);
    config.traffic.keyspace = 1000000;
    config.traffic.seed = 0xbeef;
    config.zipf = zipf;
    config.jobs = 0;  // $DEEPNOTE_JOBS
    cluster::ShardedClusterEngine engine(cluster.topology(),
                                         cluster.device_pointers(), config);

    std::vector<cluster::TimelineAction> actions;
    actions.push_back({attack.start, [&cluster, attack](sim::SimTime t) {
                         cluster.apply_attack(0, t, attack);
                       }});
    actions.push_back({attack.end, [&cluster](sim::SimTime t) {
                         cluster.stop_attack(0, t);
                       }});
    cluster::SloTracker slo(sim::SimTime::zero());
    slo.set_focus(attack.start, attack.end);
    state.ResumeTiming();

    const cluster::EngineReport report =
        engine.run(sim::SimTime::zero(), slo, std::move(actions));
    benchmark::DoNotOptimize(report.stats.reads);
    requests += static_cast<std::int64_t>(report.traffic.requests);
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_ClusterAvailability);

// The scale-out number: the same attacked availability trial on 10,000
// nodes (2000 pods x 5 bays) with the serving data plane enabled —
// bounded-FIFO queues, deadline timer wheels and 640 closed-loop
// clients in front of every device. Arrival rate scales with the fleet
// so per-node load matches BM_ClusterAvailability; what this measures
// is whether any engine cost grows with fleet size rather than with
// traffic (reset walks, stats aggregation, depth sampling all must
// not). Fixture construction is excluded as above. Items are requests.
static void BM_ClusterServing10k(benchmark::State& state) {
  static const auto zipf =
      std::make_shared<const cluster::ZipfAliasSampler>(1000000, 0.99);

  core::AttackConfig attack;
  attack.frequency_hz = 650.0;
  attack.spl_air_db = 140.0;
  attack.distance_m = 0.01;
  attack.start = sim::SimTime::from_seconds(0.5);
  attack.end = sim::SimTime::from_seconds(2.5);

  std::int64_t requests = 0;
  for (auto _ : state) {
    state.PauseTiming();
    cluster::ClusterConfig cluster_config;
    cluster_config.topology =
        cluster::ClusterTopology{.pods = 2000, .bays_per_pod = 5};
    cluster_config.seed = 0x1234;
    cluster::Cluster cluster(cluster_config);

    cluster::EngineConfig config;
    config.balancer.policy = cluster::PlacementPolicy::kCrossPod;
    config.balancer.objects = 20000;
    config.traffic.arrival_rate_per_s = 4000.0;
    config.traffic.duration = sim::Duration::from_seconds(3.0);
    config.traffic.keyspace = 1000000;
    config.traffic.seed = 0xbeef;
    config.zipf = zipf;
    config.jobs = 0;  // $DEEPNOTE_JOBS
    config.serving.enabled = true;
    config.serving.server.queue_limit = 8;
    config.serving.clients = 640;
    cluster::ShardedClusterEngine engine(cluster.topology(),
                                         cluster.device_pointers(), config);

    std::vector<cluster::TimelineAction> actions;
    actions.push_back({attack.start, [&cluster, attack](sim::SimTime t) {
                         cluster.apply_attack(0, t, attack);
                       }});
    actions.push_back({attack.end, [&cluster](sim::SimTime t) {
                         cluster.stop_attack(0, t);
                       }});
    cluster::SloTracker slo(sim::SimTime::zero());
    slo.set_focus(attack.start, attack.end);
    state.ResumeTiming();

    const cluster::EngineReport report =
        engine.run(sim::SimTime::zero(), slo, std::move(actions));
    benchmark::DoNotOptimize(report.serving.legs_served);
    requests += static_cast<std::int64_t>(report.traffic.requests);
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_ClusterServing10k);

BENCHMARK_MAIN();
