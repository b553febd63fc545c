// Sharded, epoch-synchronized cluster simulation engine: the cluster's
// one execution path. Every experiment grid, bench cell and example
// that serves traffic over a Cluster runs on it.
//
// The control loop is the mitigation half of the paper's attack:
// per-node detectors (core/detector.h) feed an automatic drain and
// re-route instead of a report line.
//
//  * Reads try replicas in health-ranked placement order (healthy
//    before drained; a fully drained set is still tried — fail
//    static), failing over on error while a token-bucket failover
//    budget lasts: a storm of failing primaries must not double the
//    fleet's load. A read whose primary runs hot (detector
//    recent-latency EWMA above the hedge threshold) is hedged to the
//    next replica; the first success wins.
//  * Writes go to every in-rotation replica and succeed on a write
//    quorum (majority by default). Drained replicas are skipped only
//    while the rest can still make quorum.
//  * A node whose detector alerts is drained and probed on an
//    interval; a probe served fast readmits it.
//
// The engine is built for throughput at fleet scale:
//
//  * Time is sliced into fixed epochs. Cluster-wide control state
//    (node health, routing ranks, hedge heat, attack on/off) is frozen
//    at each epoch barrier, so everything inside an epoch is
//    embarrassingly parallel per node. That is the engine's one
//    fidelity trade: control reacts once per epoch, not per request.
//  * Traffic is generated in per-epoch batches (one merged Poisson
//    stream, alias-method Zipf keys) straight into reused flat arrays —
//    the steady-state loop performs zero heap allocations. Keys are
//    drawn, then resolved: a batch of arrivals takes all its RNG draws
//    first, prefetching each key's alias-table entry, and only then
//    looks its keys up and routes it, so the table misses overlap.
//  * Node state is structure-of-arrays: health, probe timers, detector
//    objects, and per-node op counters live in flat vectors indexed by
//    NodeId, not in per-node heap objects.
//  * Replica I/O executes in waves: wave 0 issues every request's
//    primary legs (plus hedges and write fan-out), later waves issue
//    failover legs whose start times depend on earlier completions.
//    Within a wave, node groups (shards) advance in parallel on the
//    sim::TaskPool; each node executes its ops in a fixed (issue, seq)
//    order, so results are bit-identical at ANY shard/job count — the
//    partition only decides which thread does the work, never what the
//    work is. A wave prefetches the device, detector and (serving)
//    server of the nodes a few places ahead on its walk, so their cold
//    misses overlap too.
//
// Serving mode (EngineConfig::serving.enabled) swaps the per-node op
// execution from immediate dispatch to a NodeServer pipeline: every
// non-probe leg goes through a bounded FIFO queue with admission
// control and timer-wheel per-request deadlines in front of the
// device. A wave submits a node's whole batch into the server's staged
// ring, drains it, then consumes the completion ring in bulk — no
// per-op callbacks or event-queue round trips. Backlog (busy_until_)
// persists across waves and epochs, so head-of-line blocking during an
// attack is visible as queue wait. Traffic can run
// closed-loop: a fixed client population issues, waits, thinks, and
// retries shed requests with backoff — offered load sags under
// overload instead of silently dropping. Probes bypass the queue
// (health checks must not skew serving stats). Everything else — epoch
// barriers, wave structure, SoA arenas, byte-identical results at any
// DEEPNOTE_JOBS — is unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/node.h"
#include "cluster/placement.h"
#include "cluster/resilience/breaker.h"
#include "cluster/resilience/chaos.h"
#include "cluster/resilience/retry.h"
#include "cluster/serving/node_server.h"
#include "cluster/slo.h"
#include "cluster/traffic.h"
#include "sim/task_pool.h"

namespace deepnote::cluster {

enum class NodeHealth {
  kHealthy,  ///< in rotation
  kDrained,  ///< out of rotation; probed for readmission
};

const char* health_name(NodeHealth health);

/// The control loop's knobs: placement, write quorum, deadlines,
/// hedging, the failover budget, drain/probe/readmit, object space.
struct BalancerConfig {
  PlacementPolicy policy = PlacementPolicy::kCrossPod;
  std::size_t replication = 3;
  /// Successful members required to ack a write; 0 = majority of
  /// `replication`.
  std::size_t write_quorum = 0;
  /// A request that cannot complete by arrival + deadline fails.
  sim::Duration request_deadline = sim::Duration::from_seconds(2.0);
  /// Hedge a read when the chosen node's recent-latency EWMA is above
  /// this (zero disables hedging).
  sim::Duration hedge_threshold = sim::Duration::from_millis(40.0);
  /// Failover retries spend from a token bucket refilled by this many
  /// tokens per request, capped at `retry_budget_cap`. Sized so the
  /// steady failover rate of one fully-lost pod (every read whose
  /// primary lived there, 1/pods of traffic) fits inside the budget;
  /// what it guards against is unbounded retry amplification.
  double retry_budget_ratio = 0.5;
  double retry_budget_cap = 32.0;
  /// Drained nodes are probed at this interval...
  sim::Duration probe_interval = sim::Duration::from_millis(250.0);
  /// ...and readmitted when a probe read completes within this bound.
  sim::Duration probe_ok_latency = sim::Duration::from_millis(50.0);
  std::uint32_t probe_sectors = 8;
  /// Object address space: key -> one of `objects` fixed-size objects.
  std::uint64_t objects = 20000;
  std::uint32_t object_sectors = 8;  ///< 4 KiB objects
};

/// Control-loop counters for one run.
struct BalancerStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_failovers = 0;  ///< reads served by a non-first replica
  std::uint64_t hedged_reads = 0;
  std::uint64_t hedge_wins = 0;  ///< hedge completed before the primary
  std::uint64_t retries_denied = 0;
  std::uint64_t failed_reads = 0;
  std::uint64_t failed_writes = 0;
  std::uint64_t quorum_losses = 0;
  std::uint64_t deadline_misses = 0;  ///< completed, but too late
  std::uint64_t drains = 0;
  /// Always 0: nodes are drained, never degraded. Kept for report
  /// readers that still fold it.
  std::uint64_t degrades = 0;
  std::uint64_t readmits = 0;
  std::uint64_t probes = 0;
};

/// Knobs for the serving op-execution mode. Defaults are off: the
/// engine behaves exactly as the immediate-dispatch reference.
struct ServingModeConfig {
  bool enabled = false;
  /// Per-node queue limit and shed policy.
  serving::ServerConfig server;
  /// Closed-loop arrivals: a fixed client population (think mean =
  /// clients / arrival_rate) instead of the merged open-loop stream.
  /// Off, the open-loop generator is reused verbatim — same RNG stream,
  /// same arrivals as immediate mode.
  bool closed_loop = true;
  std::size_t clients = 64;
  /// Client retry shaping: backoff kind/base/cap, deterministic
  /// per-client jitter, retry cap, and whether device failures and
  /// deadline misses retry too (sheds always do).
  resilience::BackoffConfig backoff;
  /// Cluster-wide token-bucket budget for client retries: fresh issues
  /// earn fractional tokens, every retry spends one; an empty bucket
  /// denies the retry outright. Off by default.
  resilience::RetryBudgetConfig retry_budget;
};

/// Serving-mode telemetry: per-leg terminal states from the node
/// pipelines, request-level failure classification, the queue-wait vs.
/// service-time latency decomposition, and retry-storm counters.
struct ServingReport {
  std::uint64_t legs_submitted = 0;
  std::uint64_t legs_served = 0;
  std::uint64_t legs_failed = 0;
  std::uint64_t legs_timed_out = 0;
  std::uint64_t legs_shed = 0;
  std::uint64_t legs_cancelled = 0;  ///< hedge legs stopped by the winner
  /// Failed requests classified by dominant cause (shed > timeout >
  /// device error; a shed leg anywhere in the request marks it shed).
  std::uint64_t shed_requests = 0;
  std::uint64_t timed_out_requests = 0;
  std::uint64_t error_requests = 0;
  /// Closed-loop retry re-issues (0 in open-loop serving).
  std::uint64_t client_retries = 0;
  /// Retry-budget accounting (zero when the budget is disabled).
  std::uint64_t retry_budget_spent = 0;
  std::uint64_t retry_budget_denied = 0;
  /// Always 0: the engine has no brownout controller. Kept for report
  /// readers that still fold them.
  std::uint64_t brownout_shed = 0;
  std::uint64_t brownout_escalations = 0;
  /// Circuit breakers: closed->open trips and legs denied while open.
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_short_circuits = 0;
  std::uint64_t max_queue_depth = 0;
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double service_p50_ms = 0.0;
  double service_p99_ms = 0.0;
};

struct EngineConfig {
  /// Routing, write quorum, failover budget and drain/probe knobs.
  BalancerConfig balancer;
  /// Arrival rate, duration, read mix, keyspace and seed. Open-loop
  /// arrivals are one merged Poisson stream; closed-loop serving turns
  /// the rate into a client think time instead.
  TrafficConfig traffic;
  /// Per-node health monitor.
  core::DetectorConfig detector = ClusterConfig::fleet_detector();
  /// Epoch length: the control loop's reaction quantum. Smaller epochs
  /// react sooner; larger epochs amortize the barrier. Timeline actions
  /// always land exactly on a boundary (epochs are clamped to pending
  /// action times).
  sim::Duration epoch = sim::Duration::from_millis(50.0);
  /// Worker threads for wave execution. 0 = $DEEPNOTE_JOBS / all cores,
  /// 1 = fully inline (no pool). Results are identical at any value.
  unsigned jobs = 1;
  /// Waves smaller than this run inline even when a pool exists: at
  /// small grids the barrier costs more than the work. 0 forces
  /// sharding (used by the cross-thread determinism tests).
  std::size_t min_ops_to_shard = 2048;
  /// Optional pre-built alias table shared across runs (the 1M-key
  /// table costs one O(n) build; benches reuse it between iterations).
  /// Must match traffic.keyspace / traffic.zipf_theta when set.
  std::shared_ptr<const ZipfAliasSampler> zipf;
  /// Async serving front-end (queueing, admission, closed-loop clients).
  ServingModeConfig serving;
  /// Per-replica circuit breakers (serving mode; transitions at epoch
  /// barriers, open nodes ranked with drained ones for routing and
  /// denied legs fail over instantly).
  resilience::BreakerConfig breaker;
};

struct EngineReport {
  TrafficReport traffic;
  BalancerStats stats;
  /// Deepest per-node op queue seen in any epoch (load-skew telemetry).
  std::uint64_t max_node_depth = 0;
  /// Populated only in serving mode.
  ServingReport serving;
};

class ShardedClusterEngine {
 public:
  /// Routes over `devices` (non-owning, id order must match `topology`).
  /// Detectors and health state live inside the engine.
  ShardedClusterEngine(ClusterTopology topology,
                       std::vector<storage::BlockDevice*> devices,
                       EngineConfig config);

  ShardedClusterEngine(const ShardedClusterEngine&) = delete;
  ShardedClusterEngine& operator=(const ShardedClusterEngine&) = delete;

  const EngineConfig& config() const { return config_; }
  const PlacementMap& placement() const { return placement_; }
  const BalancerStats& stats() const { return stats_; }
  unsigned shards() const { return shard_count_; }

  /// One-shot: the full traffic duration starting at `start`, recording
  /// every request into `slo`. Actions fire in `at` order (equal times in
  /// the order given) at epoch boundaries, no earlier than the latest
  /// completion already handed out (a device never sees its environment
  /// change behind a command it already finished).
  EngineReport run(sim::SimTime start, SloTracker& slo,
                   std::vector<TimelineAction> actions = {});

  /// Stepping API (tests and future front-ends pump epochs manually).
  void start_run(sim::SimTime start, SloTracker& slo,
                 std::vector<TimelineAction> actions = {});
  /// Simulate one epoch; false once the traffic duration is exhausted.
  bool step();
  EngineReport finish();
  /// The last epoch barrier (the run's start before the first step).
  sim::SimTime now() const { return cursor_; }

  NodeHealth health(NodeId id) const { return health_[id]; }
  const core::AttackDetector& detector(NodeId id) const {
    return detectors_[id];
  }

  // --- chaos-injection hooks --------------------------------------------
  // Called from TimelineActions only, i.e. at single-threaded epoch
  // barriers; never during waves. State persists across epochs and is
  // cleared at the next start_run().

  /// Crash (`down` true) or restart (`down` false) a node. Counted, so
  /// overlapping crash windows compose: the node is up again only when
  /// every crash has matched its restart. Legs and probes to a down node
  /// fail instantly at issue (and feed the failure detector).
  void chaos_node_down(NodeId node, bool down);
  /// Override the failure detector: kForceDown drains a healthy node
  /// every barrier (false positive), kSuppress masks real alerts (false
  /// negative), kNone restores normal behavior.
  void chaos_set_flap(NodeId node, resilience::ChaosFlapMode mode);
  /// Inflate a node's device service spans (serving mode). 1.0 restores
  /// normal service; last call wins.
  void chaos_set_service_scale(NodeId node, double scale);

  const resilience::BreakerBank& breakers() const { return breakers_; }
  const resilience::RetryBudget& retry_budget() const { return retry_budget_; }

  /// One queue-depth sample per epoch: the max depth any node's serving
  /// queue reached during it (empty outside serving mode).
  struct DepthSample {
    sim::SimTime at = sim::SimTime::zero();  ///< epoch end
    std::uint64_t depth = 0;
  };
  const std::vector<DepthSample>& depth_timeline() const {
    return depth_timeline_;
  }
  /// Merged serving histograms; valid after finish().
  const sim::LatencyHistogram& queue_wait_histogram() const {
    return qwait_hist_;
  }
  const sim::LatencyHistogram& service_histogram() const {
    return service_hist_;
  }
  const serving::NodeServer& server(NodeId id) const { return servers_[id]; }

 private:
  struct Op {
    sim::SimTime issue;
    std::uint32_t seq;   ///< emission order; tie-break for equal issue
    std::uint32_t req;   ///< request index (probe index for kProbe)
    std::uint16_t leg;   ///< completion slot within the request
    std::uint8_t kind;   ///< kRead / kWrite / kProbe
  };
  static constexpr std::uint8_t kRead = 0;
  static constexpr std::uint8_t kWrite = 1;
  static constexpr std::uint8_t kProbe = 2;

  sim::SimTime deadline_of(std::uint32_t r) const;
  bool serving() const { return config_.serving.enabled; }

  void fire_actions_due(sim::SimTime now);
  void snapshot_control_state();
  void begin_epoch();
  void schedule_probes(sim::SimTime t0, sim::SimTime t1);
  void generate_and_route(sim::SimTime t1);
  std::uint32_t push_request(sim::SimTime arrival, std::uint64_t key,
                             bool is_read);
  void route_read(std::uint32_t r);
  void route_write(std::uint32_t r);
  void emit(NodeId node, std::uint8_t kind, std::uint32_t req,
            std::uint16_t leg, sim::SimTime issue);

  void execute_wave();
  void execute_nodes(std::size_t shard_lo, std::size_t shard_hi,
                     std::size_t shard_slot);
  void run_waves(std::size_t first_req);
  void combine_wave0(std::size_t first_req);
  void combine_failover_wave();
  /// Both legs of a hedged read have run: settle on the earlier timely
  /// leg, or fail over to the next replica.
  void settle_hedge(std::uint32_t r);
  void try_emit_failover(std::uint32_t r);
  void fail_read(std::uint32_t r);
  void combine_write(std::uint32_t r);
  void barrier_control(sim::SimTime t1);
  void account_epoch_slo();
  void chaos_touch(NodeId node);

  // --- serving mode -----------------------------------------------------
  void record_serving_result(NodeId node, std::size_t shard,
                             const serving::ServeResult& result);
  void note_fail_kind(std::uint32_t r, std::uint8_t slot_outcome);
  OutcomeKind request_outcome(std::uint32_t r) const;
  void settle_clients(std::size_t first_req);
  void sample_epoch_depth(sim::SimTime t1);

  // --- construction-time state ------------------------------------------
  ClusterTopology topology_;
  std::vector<storage::BlockDevice*> devices_;
  EngineConfig config_;
  PlacementMap placement_;
  std::size_t write_quorum_;
  std::size_t leg_stride_;  ///< completion slots per request
  std::shared_ptr<const ZipfAliasSampler> zipf_;
  double mean_gap_s_;
  double hedge_threshold_s_;

  unsigned shard_count_;
  std::size_t nodes_per_shard_;
  std::unique_ptr<sim::TaskPool> pool_;
  std::function<void(std::size_t)> wave_fn_;  ///< built once; no per-wave alloc

  // --- per-node SoA state (indexed by NodeId) ---------------------------
  std::vector<core::AttackDetector> detectors_;
  std::vector<NodeHealth> health_;
  std::vector<sim::SimTime> next_probe_;
  std::vector<std::uint8_t> rank_snap_;  ///< epoch-start health rank
  std::vector<std::uint8_t> hot_snap_;   ///< epoch-start hedge heat
  std::vector<std::uint64_t> node_reads_;
  std::vector<std::uint64_t> node_writes_;
  std::vector<std::uint64_t> node_errors_;
  std::vector<std::uint32_t> node_depth_;  ///< ops queued this epoch
  std::vector<std::vector<Op>> node_ops_;  ///< per-node wave queues
  std::vector<std::uint32_t> node_shard_;  ///< owning shard, precomputed
  /// Nodes with queued ops this wave, one list per shard: a wave at 10k
  /// nodes touches only the nodes traffic actually hit instead of
  /// scanning every queue. Filled by emit() on empty -> nonempty,
  /// consumed and cleared by execute_nodes().
  std::vector<std::vector<NodeId>> shard_active_;
  /// Serving mode only: one queued pipeline per node, contiguous so a
  /// wave walking its active nodes streams through adjacent objects.
  std::vector<serving::NodeServer> servers_;
  /// Serving mode only: each shard's deepest server queue this epoch,
  /// folded in after every drain (owner-exclusive during waves) and
  /// zeroed by sample_epoch_depth().
  std::vector<std::uint64_t> shard_epoch_depth_;
  /// Serving mode only: servers submitted to at least once this run —
  /// the only ones whose stats need aggregating at finish() and whose
  /// state needs resetting at the next start_run(). Every other server
  /// is still pristine, so a run over a lightly-touched 10k fleet never
  /// walks the whole fleet. Flag-deduped, per-shard during waves.
  std::vector<std::uint8_t> server_used_;
  std::vector<std::vector<NodeId>> shard_used_;
  /// Chaos state (always sized; zero cost when no chaos is scheduled).
  /// Mutated only at barriers; waves read it like any other epoch-start
  /// control snapshot.
  std::vector<std::uint16_t> chaos_down_;  ///< overlapping crash count
  std::vector<std::uint8_t> chaos_flap_;   ///< resilience::ChaosFlapMode
  std::vector<std::uint8_t> chaos_touched_;
  std::vector<NodeId> chaos_touched_list_;  ///< O(touched) reset at start_run

  // --- per-epoch request/completion arenas (reused, never shrunk) -------
  std::vector<sim::SimTime> req_arrival_;
  std::vector<std::uint64_t> req_lba_;
  std::vector<std::uint8_t> req_is_read_;
  std::vector<std::uint8_t> req_hedged_;
  std::vector<std::uint8_t> req_ok_;
  std::vector<sim::SimTime> req_complete_;
  std::vector<sim::SimTime> req_t_;  ///< failure-path time cursor
  std::vector<std::uint32_t> req_attempts_;
  std::vector<std::uint16_t> req_next_cand_;
  std::vector<std::uint16_t> req_ncand_;   ///< ranked candidates (reads)
  std::vector<std::uint16_t> req_nlegs_;   ///< emitted legs (writes)
  std::vector<NodeId> req_cand_;           ///< leg_stride_ per request
  std::vector<std::uint8_t> req_fail_kind_;  ///< OutcomeKind; serving mode
  std::vector<std::uint32_t> req_client_;    ///< closed-loop issuer
  /// Serving hedges: the backup leg's cancel time (the primary's win
  /// instant, or infinity when the primary lost). Written by
  /// combine_wave0, read by execute_nodes when submitting leg 1.
  std::vector<sim::SimTime> req_hedge_cancel_;
  std::vector<std::uint8_t> leg_ok_;       ///< leg_stride_ per request
  std::vector<sim::SimTime> leg_complete_;
  std::vector<std::uint8_t> leg_outcome_;  ///< OutcomeKind; serving mode
  std::vector<NodeId> probe_node_;
  std::vector<sim::SimTime> probe_issue_;
  std::vector<sim::SimTime> probe_complete_;
  std::vector<std::uint8_t> probe_ok_;
  std::vector<std::uint32_t> pending_;       ///< reads awaiting this wave
  std::vector<std::uint32_t> next_pending_;  ///< reads emitted for next wave
  bool wave_lists_flipped_ = false;  ///< parity of pending_ role swaps
  std::vector<NodeId> replica_scratch_;
  std::vector<sim::SimTime> ack_scratch_;
  std::vector<std::vector<std::byte>> shard_read_buf_;  ///< one per shard
  std::vector<std::byte> write_buf_;
  std::vector<sim::SimTime> shard_frontier_;

  // --- run state --------------------------------------------------------
  bool running_ = false;
  sim::Rng rng_{0};
  sim::SimTime next_arrival_ = sim::SimTime::zero();
  /// An open-loop arrival drawn but not yet looked up or routed.
  struct Arrival {
    sim::SimTime at;
    ZipfAliasSampler::Draw key;
    bool is_read = false;
  };
  std::array<Arrival, ZipfAliasSampler::kBatch> arrivals_;  ///< one batch
  SloTracker* slo_ = nullptr;
  std::vector<TimelineAction> actions_;
  std::size_t next_action_ = 0;
  sim::SimTime start_ = sim::SimTime::zero();
  sim::SimTime end_ = sim::SimTime::zero();
  sim::SimTime cursor_ = sim::SimTime::zero();
  sim::SimTime frontier_ = sim::SimTime::zero();
  /// Failover legs spend from this bucket; every request earns into it.
  resilience::RetryBudget failover_budget_;
  std::uint32_t op_seq_ = 0;
  std::size_t ops_emitted_ = 0;
  BalancerStats stats_;
  TrafficReport traffic_;
  std::uint64_t max_node_depth_ = 0;

  // --- serving-mode run state -------------------------------------------
  ClosedLoopPopulation clients_;
  std::vector<ClientIssue> issue_scratch_;
  /// Owner-exclusive: a shard's listener callbacks only touch its slot.
  std::vector<sim::LatencyHistogram> shard_qwait_;
  std::vector<sim::LatencyHistogram> shard_service_;
  sim::LatencyHistogram qwait_hist_;    ///< merged at finish()
  sim::LatencyHistogram service_hist_;  ///< merged at finish()
  std::vector<DepthSample> depth_timeline_;
  std::uint64_t shed_requests_ = 0;
  std::uint64_t timed_out_requests_ = 0;
  std::uint64_t error_requests_ = 0;

  // --- resilience state -------------------------------------------------
  resilience::BreakerBank breakers_;
  resilience::RetryBudget retry_budget_;
};

}  // namespace deepnote::cluster
