#include "cluster/engine.h"

#include <algorithm>
#include <stdexcept>

namespace deepnote::cluster {

const char* health_name(NodeHealth health) {
  switch (health) {
    case NodeHealth::kHealthy: return "healthy";
    case NodeHealth::kDrained: return "drained";
  }
  return "?";
}

namespace {

/// Routing rank: healthy replicas before drained ones.
constexpr std::uint8_t kDrainedRank = 1;

std::uint8_t health_rank(NodeHealth health) {
  return health == NodeHealth::kDrained ? kDrainedRank : 0;
}

/// Resize a request array to `n`, growing its capacity in doublings as
/// push_back would; the new elements stay unwritten.
template <class Vector>
void grow_to(Vector& v, std::size_t n) {
  if (n > v.capacity()) {
    std::size_t capacity = std::max<std::size_t>(v.capacity(), 1);
    while (capacity < n) capacity *= 2;
    v.reserve(capacity);
  }
  v.resize(n);
}

}  // namespace

ShardedClusterEngine::ShardedClusterEngine(
    ClusterTopology topology, std::vector<storage::BlockDevice*> devices,
    EngineConfig config)
    : topology_(topology),
      devices_(std::move(devices)),
      config_(config),
      placement_(topology, config.balancer.policy, config.balancer.replication),
      write_quorum_(config.balancer.write_quorum != 0
                        ? config.balancer.write_quorum
                        : config.balancer.replication / 2 + 1),
      leg_stride_(std::max<std::size_t>(config.balancer.replication, 2)),
      zipf_(std::move(config.zipf)),
      failover_budget_({.enabled = true,
                        .earn_per_request = config.balancer.retry_budget_ratio,
                        .cap = config.balancer.retry_budget_cap}) {
  if (devices_.size() != topology_.nodes()) {
    throw std::invalid_argument("engine: device list does not match topology");
  }
  if (write_quorum_ > config_.balancer.replication) {
    throw std::invalid_argument("engine: write quorum exceeds replication");
  }
  if (config_.balancer.objects == 0 || config_.balancer.object_sectors == 0) {
    throw std::invalid_argument("engine: empty object space");
  }
  for (storage::BlockDevice* device : devices_) {
    if (config_.balancer.objects * config_.balancer.object_sectors >
        device->total_sectors()) {
      throw std::invalid_argument("engine: object space exceeds a device");
    }
  }
  if (config_.traffic.arrival_rate_per_s <= 0.0) {
    throw std::invalid_argument("engine: arrival rate must be positive");
  }
  if (config_.traffic.read_fraction < 0.0 ||
      config_.traffic.read_fraction > 1.0) {
    throw std::invalid_argument("engine: read fraction must be in [0, 1]");
  }
  if (config_.epoch.ns() <= 0) {
    throw std::invalid_argument("engine: epoch must be positive");
  }
  if (zipf_) {
    if (zipf_->n() != config_.traffic.keyspace ||
        zipf_->theta() != config_.traffic.zipf_theta) {
      throw std::invalid_argument(
          "engine: shared zipf table does not match the traffic config");
    }
  } else {
    zipf_ = std::make_shared<const ZipfAliasSampler>(config_.traffic.keyspace,
                                                     config_.traffic.zipf_theta);
  }
  mean_gap_s_ = 1.0 / config_.traffic.arrival_rate_per_s;
  hedge_threshold_s_ = config_.balancer.hedge_threshold.seconds();

  const std::size_t n = devices_.size();
  const unsigned jobs = sim::resolve_jobs(config_.jobs);
  if (jobs >= 2 && n >= 2) {
    // More shards than workers so the pool's dynamic index claiming can
    // balance skew (the attacked pod's shard runs long error paths).
    shard_count_ = static_cast<unsigned>(
        std::min<std::size_t>(n, std::size_t{jobs} * 4));
    pool_ = std::make_unique<sim::TaskPool>(jobs);
  } else {
    shard_count_ = 1;
  }
  nodes_per_shard_ = (n + shard_count_ - 1) / shard_count_;
  wave_fn_ = [this](std::size_t shard) {
    execute_nodes(shard, shard + 1, shard);
  };
  node_shard_.resize(n);
  for (std::size_t id = 0; id < n; ++id) {
    node_shard_[id] = static_cast<std::uint32_t>(id / nodes_per_shard_);
  }
  shard_active_.resize(shard_count_);

  const std::size_t buf_sectors = std::max<std::size_t>(
      config_.balancer.object_sectors, config_.balancer.probe_sectors);
  shard_read_buf_.resize(shard_count_);
  for (auto& buf : shard_read_buf_) {
    buf.resize(buf_sectors * storage::kBlockSectorSize);
  }
  write_buf_.assign(static_cast<std::size_t>(config_.balancer.object_sectors) *
                        storage::kBlockSectorSize,
                    std::byte{0x5a});
  shard_frontier_.assign(shard_count_, sim::SimTime::zero());
  node_ops_.resize(n);
  // One routing chunk per job: a round of min_ops_to_shard issues or
  // more routes in all of them on the pool, a smaller one in the first.
  chunks_.resize(pool_ ? pool_->jobs() : 1);
  for (RouteChunk& chunk : chunks_) {
    chunk.replicas.reserve(config_.balancer.replication);
    chunk.shard_begin.resize(shard_count_ + 1);
  }
  shard_gather_depth_.assign(shard_count_, 0);
  if (pool_) {
    // Pooled gathers fill these: size them here.
    for (auto& active : shard_active_) active.reserve(nodes_per_shard_);
    node_legs_.assign(n, 0);
    route_fn_ = [this](std::size_t chunk) {
      route_chunk(chunk);
      group_by_shard(chunks_[chunk]);
    };
  }

  chaos_down_.assign(n, 0);
  chaos_flap_.assign(n, 0);
  chaos_touched_.assign(n, 0);

  if (config_.serving.enabled) {
    if (config_.serving.closed_loop) {
      if (config_.serving.clients == 0) {
        throw std::invalid_argument("engine: closed loop needs clients");
      }
      if (config_.serving.backoff.base.ns() <= 0) {
        throw std::invalid_argument("engine: backoff base must be positive");
      }
      if (config_.serving.backoff.jitter < 0.0 ||
          config_.serving.backoff.jitter > 1.0) {
        throw std::invalid_argument("engine: backoff jitter must be in [0, 1]");
      }
    }
    // Pre-size every pipeline's pools here, outside any timed run: the
    // queue plus the in-flight command bounds live contexts, and the
    // ring estimate covers a typical epoch batch (they grow on demand
    // if a node runs hotter). Deep queues (the overload study runs
    // hundreds of slots) cap the up-front reservation — ~64 B per slot
    // per node is real memory at 10k nodes — and grow only where
    // traffic actually lands.
    const std::size_t ctx_slots =
        std::min<std::size_t>(config_.serving.server.queue_limit + 1, 33);
    servers_.reserve(n);
    for (std::size_t id = 0; id < n; ++id) {
      servers_.emplace_back(*devices_[id], config_.serving.server);
      servers_.back().reserve(ctx_slots, 2 * ctx_slots);
    }
    shard_epoch_depth_.assign(shard_count_, 0);
    server_used_.resize(n, 0);
    shard_used_.resize(shard_count_);
    shard_qwait_.resize(shard_count_);
    shard_service_.resize(shard_count_);
  }
}

sim::SimTime ShardedClusterEngine::deadline_of(std::uint32_t r) const {
  return req_arrival_[r] + config_.balancer.request_deadline;
}

EngineReport ShardedClusterEngine::run(sim::SimTime start, SloTracker& slo,
                                       std::vector<TimelineAction> actions) {
  start_run(start, slo, std::move(actions));
  while (step()) {
  }
  return finish();
}

void ShardedClusterEngine::start_run(sim::SimTime start, SloTracker& slo,
                                     std::vector<TimelineAction> actions) {
  slo_ = &slo;
  actions_ = std::move(actions);
  sort_by_time(actions_);
  next_action_ = 0;
  start_ = cursor_ = frontier_ = start;
  end_ = start + config_.traffic.duration;
  rng_ = sim::Rng(config_.traffic.seed);
  next_arrival_ =
      start + sim::Duration::from_seconds(rng_.exponential(mean_gap_s_));
  failover_budget_.reset();
  stats_ = {};
  traffic_ = {};
  max_node_depth_ = 0;
  partitioned_rounds_ = 0;
  chunked_rounds_ = 0;
  op_seq_ = 0;
  ops_emitted_ = 0;
  gather_pending_ = false;

  const std::size_t n = devices_.size();
  detectors_.assign(n, core::AttackDetector(config_.detector));
  health_.assign(n, NodeHealth::kHealthy);
  next_probe_.assign(n, sim::SimTime::infinity());
  rank_snap_.assign(n, 0);
  hot_snap_.assign(n, 0);
  node_reads_.assign(n, 0);
  node_writes_.assign(n, 0);
  node_errors_.assign(n, 0);
  node_depth_.assign(n, 0);
  for (auto& ops : node_ops_) ops.clear();
  for (auto& active : shard_active_) active.clear();
  for (auto& frontier : shard_frontier_) frontier = start;
  pending_.clear();
  next_pending_.clear();
  // The two wave lists swap roles every failover wave. If the last run
  // ended after an odd number of swaps, restore the canonical
  // orientation (a free exchange — both are empty) so a warm replay
  // hands each vector the exact role sequence that sized it.
  if (wave_lists_flipped_) {
    pending_.swap(next_pending_);
    wave_lists_flipped_ = false;
  }

  // Clear chaos left over from the previous run's schedule (O(touched)).
  for (const NodeId node : chaos_touched_list_) {
    chaos_down_[node] = 0;
    chaos_flap_[node] = 0;
    chaos_touched_[node] = 0;
    if (serving()) servers_[node].set_service_scale(1.0);
  }
  chaos_touched_list_.clear();

  breakers_.reset(n, shard_count_, nodes_per_shard_, config_.breaker);
  retry_budget_ = resilience::RetryBudget(config_.serving.retry_budget);
  retry_budget_.reset();

  if (serving()) {
    // Only servers the previous run actually submitted to hold state;
    // the rest are still pristine (a fresh engine resets nothing).
    for (auto& used : shard_used_) {
      for (const NodeId node : used) {
        servers_[node].reset();
        server_used_[node] = 0;
      }
      used.clear();
    }
    std::fill(shard_epoch_depth_.begin(), shard_epoch_depth_.end(), 0);
    for (auto& hist : shard_qwait_) hist.reset();
    for (auto& hist : shard_service_) hist.reset();
    qwait_hist_.reset();
    service_hist_.reset();
    depth_timeline_.clear();
    // One sample per epoch, plus the action-clamped extras.
    depth_timeline_.reserve(
        static_cast<std::size_t>(config_.traffic.duration.ns() /
                                 config_.epoch.ns()) +
        actions_.size() + 2);
    shed_requests_ = 0;
    timed_out_requests_ = 0;
    error_requests_ = 0;
    if (config_.serving.closed_loop) {
      // A population of min_ops_to_shard clients or more collects in
      // one partition per job, on the pool.
      const std::size_t partitions =
          pool_ && config_.serving.clients >= config_.min_ops_to_shard
              ? pool_->jobs()
              : 1;
      clients_.reset(config_.traffic, config_.serving.clients,
                     config_.serving.backoff,
                     config_.serving.retry_budget.enabled ? &retry_budget_
                                                          : nullptr,
                     start, partitions);
    }
  }
  running_ = true;
}

bool ShardedClusterEngine::step() {
  if (!running_ || cursor_ >= end_) return false;
  const sim::SimTime t0 = cursor_;
  fire_actions_due(t0);

  // Clamp the epoch to the next timeline action so control changes
  // (attack on/off) always land exactly on a barrier.
  sim::SimTime t1 = sim::min(end_, t0 + config_.epoch);
  if (next_action_ < actions_.size()) {
    const sim::SimTime at = actions_[next_action_].at;
    if (at > t0 && at < t1) t1 = at;
  }

  snapshot_control_state();
  begin_epoch();
  schedule_probes(t0, t1);

  // One loop of rounds for both arrival models. An open-loop epoch is
  // one round of every arrival before the barrier. A closed-loop epoch
  // issues every due client request, runs it to completion, and lets the
  // completions schedule the follow-ups (think gaps, retry backoffs) —
  // which may land before the barrier and start another round. Round
  // boundaries are global, so results stay byte-identical at any shard
  // count. The waves run whenever ops are queued, so the epoch's probes
  // run even when no client is due.
  const bool closed_loop = serving() && config_.serving.closed_loop;
  for (std::size_t round_lo = 0;; round_lo = req_arrival_.size()) {
    std::size_t issues = 0;
    if (closed_loop) {
      issues = clients_.collect_runs(t1, *zipf_, round_, pool_.get());
      if (issues > 0 && clients_.partitions() > 1) ++partitioned_rounds_;
    } else {
      issues = generate_arrivals(t1);
    }
    if (issues > 0) route_round(round_lo, issues);
    if (ops_emitted_ > 0) run_waves(round_lo);
    if (!closed_loop || issues == 0) break;
    settle_clients(round_lo);
  }
  barrier_control(t1);
  account_epoch_slo();
  if (serving()) sample_epoch_depth(t1);
  cursor_ = t1;
  return cursor_ < end_;
}

void ShardedClusterEngine::run_waves(std::size_t first_req) {
  execute_wave();
  combine_wave0(first_req);
  while (!next_pending_.empty()) {
    pending_.swap(next_pending_);
    wave_lists_flipped_ = !wave_lists_flipped_;
    next_pending_.clear();
    execute_wave();
    combine_failover_wave();
  }
}

EngineReport ShardedClusterEngine::finish() {
  // Trailing actions (e.g. attack off after the last epoch), same
  // frontier rule as the epoch barriers.
  while (next_action_ < actions_.size() && actions_[next_action_].at < end_) {
    TimelineAction& action = actions_[next_action_++];
    if (action.fn) action.fn(sim::max(action.at, frontier_));
  }
  running_ = false;
  EngineReport report;
  report.traffic = traffic_;
  report.stats = stats_;
  report.max_node_depth = max_node_depth_;
  report.partitioned_rounds = partitioned_rounds_;
  report.chunked_rounds = chunked_rounds_;
  if (serving()) {
    ServingReport& s = report.serving;
    // Shard index order for determinism; untouched servers are all-zero.
    for (const auto& used : shard_used_) {
      for (const NodeId node : used) {
        const serving::NodeServerStats& st = servers_[node].stats();
        s.legs_submitted += st.submitted;
        s.legs_served += st.served;
        s.legs_failed += st.failed;
        s.legs_timed_out += st.timed_out;
        s.legs_shed += st.shed;
        s.legs_cancelled += st.cancelled;
        s.max_queue_depth = std::max(s.max_queue_depth, st.max_depth);
      }
    }
    s.shed_requests = shed_requests_;
    s.timed_out_requests = timed_out_requests_;
    s.error_requests = error_requests_;
    s.client_retries = config_.serving.closed_loop ? clients_.retries() : 0;
    s.retry_budget_spent = retry_budget_.spent();
    s.retry_budget_denied = retry_budget_.denied();
    const resilience::BreakerBankStats breaker_stats = breakers_.stats();
    s.breaker_opens = breaker_stats.opens + breaker_stats.reopens;
    s.breaker_short_circuits = breaker_stats.short_circuits;
    // Shard index order; bucket sums are order-independent anyway.
    for (const auto& hist : shard_qwait_) qwait_hist_.merge(hist);
    for (const auto& hist : shard_service_) service_hist_.merge(hist);
    s.queue_wait_p50_ms = qwait_hist_.quantile(0.50).millis();
    s.queue_wait_p99_ms = qwait_hist_.quantile(0.99).millis();
    s.service_p50_ms = service_hist_.quantile(0.50).millis();
    s.service_p99_ms = service_hist_.quantile(0.99).millis();
  }
  return report;
}

void ShardedClusterEngine::fire_actions_due(sim::SimTime now) {
  while (next_action_ < actions_.size() && actions_[next_action_].at <= now) {
    TimelineAction& action = actions_[next_action_++];
    if (action.fn) action.fn(sim::max(action.at, frontier_));
  }
}

void ShardedClusterEngine::snapshot_control_state() {
  const std::size_t n = devices_.size();
  const bool hedging = config_.balancer.hedge_threshold.ns() > 0;
  const bool breaking = serving() && breakers_.enabled();
  for (std::size_t i = 0; i < n; ++i) {
    rank_snap_[i] = health_rank(health_[i]);
    if (breaking &&
        breakers_.state(static_cast<NodeId>(i)) ==
            resilience::BreakerState::kOpen) {
      // An open breaker routes like a drained node: the router prefers
      // any other replica, and legs that still land here (all replicas
      // open) are short-circuited at execution.
      rank_snap_[i] = kDrainedRank;
    }
    if (hedging) {
      hot_snap_[i] =
          detectors_[i].recent_latency_s() > hedge_threshold_s_ ? 1 : 0;
    }
  }
}

void ShardedClusterEngine::begin_epoch() {
  req_arrival_.clear();
  req_lba_.clear();
  req_is_read_.clear();
  req_hedged_.clear();
  req_ok_.clear();
  req_complete_.clear();
  req_t_.clear();
  req_attempts_.clear();
  req_next_cand_.clear();
  req_ncand_.clear();
  req_nlegs_.clear();
  req_cand_.clear();
  req_fail_kind_.clear();
  req_client_.clear();
  req_hedge_cancel_.clear();
  leg_ok_.clear();
  leg_complete_.clear();
  leg_outcome_.clear();
  probe_node_.clear();
  probe_issue_.clear();
  probe_complete_.clear();
  probe_ok_.clear();
  pending_.clear();
  next_pending_.clear();
  std::fill(node_depth_.begin(), node_depth_.end(), 0);
  op_seq_ = 0;
  ops_emitted_ = 0;
}

void ShardedClusterEngine::emit(NodeId node, std::uint8_t kind,
                                std::uint32_t req, std::uint16_t leg,
                                sim::SimTime issue) {
  std::vector<Op>& ops = node_ops_[node];
  if (ops.empty()) shard_active_[node_shard_[node]].push_back(node);
  ops.push_back(Op{issue, op_seq_++, req, leg, kind});
  ++ops_emitted_;
  if (++node_depth_[node] > max_node_depth_) {
    max_node_depth_ = node_depth_[node];
  }
}

void ShardedClusterEngine::schedule_probes(sim::SimTime t0, sim::SimTime t1) {
  const std::size_t n = devices_.size();
  for (std::size_t id = 0; id < n; ++id) {
    if (health_[id] != NodeHealth::kDrained) continue;
    const sim::SimTime due = sim::max(next_probe_[id], t0);
    if (due >= t1) continue;
    ++stats_.probes;
    const auto p = static_cast<std::uint32_t>(probe_node_.size());
    probe_node_.push_back(static_cast<NodeId>(id));
    probe_issue_.push_back(due);
    probe_complete_.push_back(due);
    probe_ok_.push_back(0);
    emit(static_cast<NodeId>(id), kProbe, p, 0, due);
  }
}

std::size_t ShardedClusterEngine::generate_arrivals(sim::SimTime t1) {
  round_.clear(1);
  std::vector<ClientIssue>& run = round_.run(0);
  while (next_arrival_ < t1) {
    // Pass 1: draw a batch of arrivals in the stream's order (gap, key
    // draw, read coin), starting each key's table fetch as it goes.
    const std::size_t first = run.size();
    std::size_t n = 0;
    for (; n < draws_.size() && next_arrival_ < t1; ++n) {
      const sim::SimTime at = next_arrival_;
      next_arrival_ =
          at + sim::Duration::from_seconds(rng_.exponential(mean_gap_s_));
      draws_[n] = zipf_->draw(rng_);
      zipf_->prefetch(draws_[n].bucket);
      run.push_back(ClientIssue{
          at, 0, rng_.bernoulli(config_.traffic.read_fraction), 0});
    }
    // Pass 2: resolve the batch's keys.
    for (std::size_t i = 0; i < n; ++i) {
      run[first + i].key = zipf_->resolve(draws_[i]);
    }
  }
  return run.size();
}

void ShardedClusterEngine::route(RouteChunk& chunk, std::uint32_t r,
                                 std::uint64_t key, bool is_read) {
  ++chunk.traffic.requests;
  placement_.replicas(key, chunk.replicas);
  ++chunk.earns;
  if (is_read) {
    ++chunk.traffic.reads;
    route_read(chunk, r);
  } else {
    ++chunk.traffic.writes;
    route_write(chunk, r);
  }
}

void ShardedClusterEngine::route_read(RouteChunk& chunk, std::uint32_t r) {
  ++chunk.stats.reads;
  std::vector<NodeId>& replicas = chunk.replicas;
  // Stable two-bucket ordering against the epoch-start health
  // snapshot (healthy before drained, an open breaker counting as
  // drained; fail-static — a fully drained set is still attempted).
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    const NodeId id = replicas[i];
    const std::uint8_t rank = rank_snap_[id];
    std::size_t j = i;
    while (j > 0 && rank_snap_[replicas[j - 1]] > rank) {
      replicas[j] = replicas[j - 1];
      --j;
    }
    replicas[j] = id;
  }
  const std::size_t base = static_cast<std::size_t>(r) * leg_stride_;
  const auto ncand = static_cast<std::uint16_t>(replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    req_cand_[base + i] = replicas[i];
  }
  req_ncand_[r] = ncand;

  bool hedged = false;
  if (config_.balancer.hedge_threshold.ns() > 0 && ncand >= 2) {
    const NodeId primary = req_cand_[base];
    const NodeId backup = req_cand_[base + 1];
    hedged = hot_snap_[primary] != 0 && rank_snap_[backup] != kDrainedRank;
  }
  if (hedged) {
    ++chunk.stats.hedged_reads;
    req_hedged_[r] = 1;
    if (serving()) {
      // Serving mode defers the backup leg to the next wave so its
      // submit can carry a cancel fuse derived from the primary's
      // outcome (a won hedge frees the loser's queue slot). Wave 0 runs
      // only the primary; combine_wave0 emits leg 1.
      req_attempts_[r] = 1;
      req_next_cand_[r] = 1;
      chunk.emit(req_cand_[base], kRead, r, 0);
      return;
    }
    req_attempts_[r] = 2;
    req_next_cand_[r] = 2;
    chunk.emit(req_cand_[base], kRead, r, 0);
    chunk.emit(req_cand_[base + 1], kRead, r, 1);
  } else {
    req_attempts_[r] = 1;
    req_next_cand_[r] = 1;
    chunk.emit(req_cand_[base], kRead, r, 0);
  }
}

void ShardedClusterEngine::route_write(RouteChunk& chunk, std::uint32_t r) {
  ++chunk.stats.writes;
  std::size_t in_rotation = 0;
  for (const NodeId id : chunk.replicas) {
    if (health_[id] != NodeHealth::kDrained) ++in_rotation;
  }
  // Skip drained replicas only while the in-rotation members can still
  // make quorum (fail-static on the write path, as for reads).
  const bool skip_drained = in_rotation >= write_quorum_;

  std::uint16_t legs = 0;
  for (const NodeId id : chunk.replicas) {
    if (skip_drained && health_[id] == NodeHealth::kDrained) continue;
    chunk.emit(id, kWrite, r, legs++);
  }
  req_nlegs_[r] = legs;
}

void ShardedClusterEngine::route_round(std::size_t first_req,
                                       std::size_t issues) {
  // Size every request array once, writing nothing: each chunk writes
  // its own requests.
  const std::size_t nreq = first_req + issues;
  const std::size_t nlegs = nreq * leg_stride_;
  grow_to(req_arrival_, nreq);
  grow_to(req_lba_, nreq);
  grow_to(req_is_read_, nreq);
  grow_to(req_hedged_, nreq);
  grow_to(req_ok_, nreq);
  grow_to(req_complete_, nreq);
  grow_to(req_t_, nreq);
  grow_to(req_attempts_, nreq);
  grow_to(req_next_cand_, nreq);
  grow_to(req_ncand_, nreq);
  grow_to(req_nlegs_, nreq);
  grow_to(req_cand_, nlegs);
  grow_to(leg_ok_, nlegs);
  grow_to(leg_complete_, nlegs);
  if (serving()) {
    grow_to(req_fail_kind_, nreq);
    grow_to(req_client_, nreq);
    grow_to(req_hedge_cancel_, nreq);
    grow_to(leg_outcome_, nlegs);
  }
  round_first_ = first_req;
  round_chunks_ = issues >= config_.min_ops_to_shard ? chunks_.size() : 1;
  // Each chunk merges one slice of the round; a request emits at most
  // leg_stride_ wave-0 legs. Pooled chunks group theirs by shard too.
  round_.split(round_chunks_);
  for (std::size_t c = 0; c < round_chunks_; ++c) {
    const std::size_t most_legs =
        (round_.slice_begin(c + 1) - round_.slice_begin(c)) * leg_stride_;
    chunks_[c].legs.reserve(most_legs);
    if (round_chunks_ > 1) chunks_[c].by_shard.reserve(most_legs);
  }
  if (round_chunks_ > 1) {
    pool_->run_indexed(round_chunks_, route_fn_);
    ++chunked_rounds_;
  } else {
    route_chunk(0);
  }
  // Chunk order is request order: each chunk's legs take the seqs that
  // emitting them one by one would give them, and its counts and earns
  // land as they would (earns are capped adds, and nothing spends during
  // routing).
  for (std::size_t c = 0; c < round_chunks_; ++c) {
    RouteChunk& chunk = chunks_[c];
    const auto legs = static_cast<std::uint32_t>(chunk.legs.size());
    chunk.seq_base = op_seq_;
    op_seq_ += legs;
    ops_emitted_ += legs;
    traffic_.requests += chunk.traffic.requests;
    traffic_.reads += chunk.traffic.reads;
    traffic_.writes += chunk.traffic.writes;
    stats_.reads += chunk.stats.reads;
    stats_.writes += chunk.stats.writes;
    stats_.hedged_reads += chunk.stats.hedged_reads;
    for (std::uint64_t i = 0; i < chunk.earns; ++i) failover_budget_.earn();
  }
  gather_pending_ = true;
  if (!wave_on_pool()) return;
  // The first wave gathers on the pool, shard by shard. Make room in the
  // node queues those gathers fill, growing them the way push_back
  // would but on this thread: two passes over the legs, none over the
  // fleet.
  if (round_chunks_ == 1) group_by_shard(chunks_[0]);
  for (std::size_t c = 0; c < round_chunks_; ++c) {
    for (const RouteChunk::Leg& leg : chunks_[c].legs) ++node_legs_[leg.node];
  }
  for (std::size_t c = 0; c < round_chunks_; ++c) {
    for (const RouteChunk::Leg& leg : chunks_[c].legs) {
      std::uint32_t& legs = node_legs_[leg.node];
      if (legs == 0) continue;
      std::vector<Op>& ops = node_ops_[leg.node];
      if (ops.size() + legs > ops.capacity()) {
        ops.reserve(std::max(ops.size() + legs, 2 * ops.capacity()));
      }
      legs = 0;
    }
  }
}

void ShardedClusterEngine::route_chunk(std::size_t c) {
  RouteChunk& chunk = chunks_[c];
  chunk.stats = {};
  chunk.traffic = {};
  chunk.earns = 0;
  chunk.legs.clear();
  const bool serve = serving();
  round_.merge_slice(c, [&](const ClientIssue& issue, std::size_t i) {
    // The fresh request's state.
    const auto r = static_cast<std::uint32_t>(round_first_ + i);
    req_arrival_[r] = issue.at;
    req_lba_[r] = lba_of(issue.key);
    req_is_read_[r] = issue.is_read ? 1 : 0;
    req_hedged_[r] = 0;
    req_ok_[r] = 0;
    req_complete_[r] = issue.at;
    req_t_[r] = issue.at;
    req_attempts_[r] = 0;
    req_next_cand_[r] = 0;
    req_ncand_[r] = 0;
    req_nlegs_[r] = 0;
    const std::size_t base = static_cast<std::size_t>(r) * leg_stride_;
    for (std::size_t slot = base; slot < base + leg_stride_; ++slot) {
      req_cand_[slot] = 0;
      leg_ok_[slot] = 0;
      leg_complete_[slot] = sim::SimTime::zero();
    }
    if (serve) {
      req_fail_kind_[r] = 0;
      req_client_[r] = issue.client;
      req_hedge_cancel_[r] = sim::SimTime::infinity();
      for (std::size_t slot = base; slot < base + leg_stride_; ++slot) {
        leg_outcome_[slot] = 0;
      }
    }
    route(chunk, r, issue.key, issue.is_read);
  });
}

void ShardedClusterEngine::group_by_shard(RouteChunk& chunk) {
  // A counting sort, so each shard's legs keep their emission order.
  std::vector<std::uint32_t>& begin = chunk.shard_begin;
  std::fill(begin.begin(), begin.end(), 0);
  for (const RouteChunk::Leg& leg : chunk.legs) {
    ++begin[node_shard_[leg.node] + 1];
  }
  for (std::size_t s = 0; s < shard_count_; ++s) begin[s + 1] += begin[s];
  chunk.by_shard.resize(chunk.legs.size());
  for (std::uint32_t i = 0; i < chunk.legs.size(); ++i) {
    chunk.by_shard[begin[node_shard_[chunk.legs[i].node]]++] = i;
  }
  // The scatter moved each shard's start to the next one's: shift back.
  for (std::size_t s = shard_count_; s > 0; --s) begin[s] = begin[s - 1];
  begin[0] = 0;
}

void ShardedClusterEngine::gather_routed(std::size_t shard_lo,
                                         std::size_t shard_hi) {
  // Chunk by chunk, each in emission order: every node queue, each
  // shard's first-emission order and every depth come out as emitting
  // the legs one by one leaves them.
  const bool all = shard_lo == 0 && shard_hi == shard_count_;
  std::uint32_t deepest = 0;
  const auto gather = [&](const RouteChunk& chunk, std::uint32_t seq) {
    const RouteChunk::Leg& leg = chunk.legs[seq];
    std::vector<Op>& ops = node_ops_[leg.node];
    if (ops.empty()) shard_active_[node_shard_[leg.node]].push_back(leg.node);
    ops.push_back(Op{req_arrival_[leg.req], chunk.seq_base + seq, leg.req,
                     leg.leg, leg.kind});
    deepest = std::max(deepest, ++node_depth_[leg.node]);
  };
  for (std::size_t c = 0; c < round_chunks_; ++c) {
    const RouteChunk& chunk = chunks_[c];
    if (all) {
      const auto legs = static_cast<std::uint32_t>(chunk.legs.size());
      for (std::uint32_t seq = 0; seq < legs; ++seq) gather(chunk, seq);
      continue;
    }
    for (std::uint32_t i = chunk.shard_begin[shard_lo];
         i < chunk.shard_begin[shard_hi]; ++i) {
      gather(chunk, chunk.by_shard[i]);
    }
  }
  shard_gather_depth_[shard_lo] = deepest;
}

void ShardedClusterEngine::execute_wave() {
  if (wave_on_pool()) {
    pool_->run_indexed(shard_count_, wave_fn_);
  } else {
    execute_nodes(0, shard_count_, 0);
  }
  for (const sim::SimTime f : shard_frontier_) {
    frontier_ = sim::max(frontier_, f);
  }
  ops_emitted_ = 0;
  if (gather_pending_) {
    gather_pending_ = false;
    for (std::uint32_t& depth : shard_gather_depth_) {
      max_node_depth_ = std::max<std::uint64_t>(max_node_depth_, depth);
      depth = 0;
    }
  }
}

void ShardedClusterEngine::execute_nodes(std::size_t shard_lo,
                                         std::size_t shard_hi,
                                         std::size_t shard_slot) {
  sim::SimTime frontier = shard_frontier_[shard_slot];
  const std::span<std::byte> read_buf(shard_read_buf_[shard_slot]);
  const std::size_t object_bytes =
      static_cast<std::size_t>(config_.balancer.object_sectors) *
      storage::kBlockSectorSize;
  const std::size_t probe_bytes =
      static_cast<std::size_t>(config_.balancer.probe_sectors) *
      storage::kBlockSectorSize;
  if (gather_pending_) gather_routed(shard_lo, shard_hi);

  // Only nodes this wave actually touched: at 10k nodes a closed-loop
  // round emits to a handful of them, and a full-range scan would cost
  // more than the I/O. Per-node results land in owner-exclusive slots,
  // so list order (first-emission order) does not affect output.
  //
  // Each node's device, detector and server sit cold somewhere in a
  // fleet of thousands, so the walk looks ahead in two stages: the
  // device and server objects kDeviceAhead nodes early, then (once those
  // have landed) the state they point at for the next command, and the
  // detector, kStateAhead nodes early. The look-ahead follows the walk
  // itself, list after list, so an inline wave (every shard on one
  // thread: a small round) looks past the end of a short list. A pooled
  // wave covers one shard, so only owned nodes are read.
  constexpr std::size_t kDeviceAhead = 4;
  constexpr std::size_t kStateAhead = 2;
  struct Ahead {
    std::size_t s = 0;  ///< shard_hi once past the last node
    std::size_t i = 0;
  };
  // Moves `a` on to the first node at or after it along the walk.
  const auto skip_empty_lists = [&](Ahead& a) {
    while (a.s < shard_hi && a.i >= shard_active_[a.s].size()) {
      ++a.s;
      a.i = 0;
    }
  };
  const auto step = [&](Ahead& a) {
    ++a.i;
    skip_empty_lists(a);
  };
  const auto ahead_by = [&](std::size_t places) {
    Ahead a{shard_lo, 0};
    skip_empty_lists(a);
    for (std::size_t k = 0; k < places; ++k) step(a);
    return a;
  };
  Ahead far = ahead_by(kDeviceAhead);
  Ahead near = ahead_by(kStateAhead);
  const bool serve = serving();
  for (std::size_t s = shard_lo; s < shard_hi; ++s) {
    std::vector<NodeId>& active = shard_active_[s];
    std::uint64_t epoch_depth = 0;
    for (std::size_t ai = 0; ai < active.size(); ++ai) {
      const NodeId node = active[ai];
      if (far.s < shard_hi) {
        const NodeId ahead = shard_active_[far.s][far.i];
        step(far);
        __builtin_prefetch(devices_[ahead]);
        if (serve) servers_[ahead].prefetch();
      }
      if (near.s < shard_hi) {
        const NodeId ahead = shard_active_[near.s][near.i];
        step(near);
        devices_[ahead]->prefetch();
        __builtin_prefetch(&detectors_[ahead]);
        if (serve) servers_[ahead].prefetch_rings();
      }
      std::vector<Op>& ops = node_ops_[node];
      // The device is synchronous virtual-time state: ops must hit it in
      // the canonical (issue, seq) order so results are independent of
      // which wave/shard produced them.
      if (ops.size() > 1) {
        std::sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
          return a.issue == b.issue ? a.seq < b.seq : a.issue < b.issue;
        });
      }
      // chaos_down_ only mutates at barriers, so the flag is stable for
      // the whole wave.
      const bool crashed = chaos_down_[node] > 0;
      const std::span<std::byte> probe_buf = read_buf.first(probe_bytes);
      if (serve) {
        // Serving pipeline: legs are submitted in canonical order, the
        // queue drains them through admission/deadline/device, and the
        // completion ring is consumed in bulk into the leg arrays and
        // detector.
        serving::NodeServer& server = servers_[node];
        const bool breaking = breakers_.enabled();
        bool submitted = false;
        for (const Op& op : ops) {
          if (op.kind == kProbe || crashed) {
            run_unqueued(op, node, crashed, probe_buf, frontier);
            continue;
          }
          const std::uint64_t slot =
              static_cast<std::uint64_t>(op.req) * leg_stride_ + op.leg;
          if (breaking && !breakers_.allow(s, node)) {
            // Short-circuit: the breaker refuses the leg without
            // touching the server or the detector — the whole point is
            // to stop spending queue slots on a node that keeps failing.
            leg_ok_[slot] = 0;
            leg_complete_[slot] = op.issue;
            leg_outcome_[slot] = static_cast<std::uint8_t>(OutcomeKind::kShed);
            frontier = sim::max(frontier, op.issue);
            continue;
          }
          if (op.kind == kWrite) {
            ++node_writes_[node];
            server.submit(op.issue, storage::DiskOpKind::kWrite,
                          req_lba_[op.req], config_.balancer.object_sectors,
                          write_buf_, {}, deadline_of(op.req), slot);
          } else {
            ++node_reads_[node];
            // A deferred hedge backup carries its cancel fuse (the
            // primary's winning completion time); everything else never
            // cancels.
            const sim::SimTime cancel_at =
                op.leg == 1 ? req_hedge_cancel_[op.req]
                            : sim::SimTime::infinity();
            server.submit(op.issue, storage::DiskOpKind::kRead,
                          req_lba_[op.req], config_.balancer.object_sectors,
                          {}, read_buf.first(object_bytes),
                          deadline_of(op.req), slot, cancel_at);
          }
          submitted = true;
        }
        if (submitted && !server_used_[node]) {
          server_used_[node] = 1;
          shard_used_[s].push_back(node);
        }
        frontier = sim::max(frontier, server.drain());
        // Read the high-water now, while the server is in cache.
        epoch_depth = std::max(epoch_depth, server.take_epoch_max_depth());
        for (const serving::ServeResult& res : server.completions()) {
          record_serving_result(node, s, res);
        }
        server.clear_completions();
        ops.clear();
        continue;
      }
      storage::BlockDevice& device = *devices_[node];
      core::AttackDetector& detector = detectors_[node];
      for (const Op& op : ops) {
        if (op.kind == kProbe || crashed) {
          run_unqueued(op, node, crashed, probe_buf, frontier);
          continue;
        }
        storage::BlockIo io;
        if (op.kind == kWrite) {
          ++node_writes_[node];
          io = device.write(op.issue, req_lba_[op.req],
                            config_.balancer.object_sectors, write_buf_);
        } else {
          ++node_reads_[node];
          io = device.read(op.issue, req_lba_[op.req],
                           config_.balancer.object_sectors,
                           read_buf.first(object_bytes));
        }
        if (io.ok()) {
          detector.record_ok(io.complete, (io.complete - op.issue).seconds());
        } else {
          detector.record_error(io.complete);
          ++node_errors_[node];
        }
        const std::size_t slot =
            static_cast<std::size_t>(op.req) * leg_stride_ + op.leg;
        leg_ok_[slot] = io.ok() ? 1 : 0;
        leg_complete_[slot] = io.complete;
        frontier = sim::max(frontier, io.complete);
      }
      ops.clear();
    }
    active.clear();
    if (serve) {
      shard_epoch_depth_[s] = std::max(shard_epoch_depth_[s], epoch_depth);
    }
  }
  shard_frontier_[shard_slot] = frontier;
}

void ShardedClusterEngine::run_unqueued(const Op& op, NodeId node,
                                        bool crashed,
                                        std::span<std::byte> probe_buf,
                                        sim::SimTime& frontier) {
  // Chaos crash: the node answers nothing. Legs fail instantly (the
  // connection refuses), feeding the detector exactly like a device
  // error; probes fail so a drained crashed node stays drained.
  // Otherwise a probe reads the raw device, outside any serving queue
  // and without feeding the detector: a health check must not skew the
  // serving stats, nor be shed by overload.
  bool ok = false;
  sim::SimTime complete = op.issue;
  if (!crashed) {
    const storage::BlockIo io = devices_[node]->read(
        op.issue, 0, config_.balancer.probe_sectors, probe_buf);
    ok = io.ok();
    complete = io.complete;
  }
  if (op.kind == kProbe) {
    probe_ok_[op.req] = ok ? 1 : 0;
    probe_complete_[op.req] = complete;
  } else {
    detectors_[node].record_error(op.issue);
    ++node_errors_[node];
    const std::size_t slot =
        static_cast<std::size_t>(op.req) * leg_stride_ + op.leg;
    leg_ok_[slot] = 0;
    leg_complete_[slot] = op.issue;
    if (serving()) {
      leg_outcome_[slot] = static_cast<std::uint8_t>(OutcomeKind::kFailed);
    }
  }
  frontier = sim::max(frontier, complete);
}

void ShardedClusterEngine::record_serving_result(
    NodeId node, std::size_t shard, const serving::ServeResult& result) {
  // Runs on the shard that owns `node` during its drain: every array it
  // touches (leg slots of this node's ops, detector, shard histograms)
  // is owner-exclusive, and the merge order downstream is fixed.
  const auto slot = static_cast<std::size_t>(result.tag);
  leg_ok_[slot] = result.outcome == OutcomeKind::kServed ? 1 : 0;
  leg_complete_[slot] = result.complete;
  leg_outcome_[slot] = static_cast<std::uint8_t>(result.outcome);
  switch (result.outcome) {
    case OutcomeKind::kServed:
      // The detector watches the drive, so feed it device service time
      // (start -> complete), the same signal immediate mode feeds —
      // drain decisions must not shift just because queueing is modeled.
      detectors_[node].record_ok(
          result.complete, (result.complete - result.service_start).seconds());
      shard_qwait_[shard].add(result.service_start - result.arrival);
      shard_service_[shard].add(result.complete - result.service_start);
      break;
    case OutcomeKind::kFailed:
      detectors_[node].record_error(result.complete);
      ++node_errors_[node];
      shard_qwait_[shard].add(result.service_start - result.arrival);
      shard_service_[shard].add(result.complete - result.service_start);
      break;
    case OutcomeKind::kTimedOut:
      // Spent its whole life in line: all queue wait, no service.
      shard_qwait_[shard].add(result.complete - result.arrival);
      break;
    case OutcomeKind::kShed:
      break;
    case OutcomeKind::kCancelled:
      // A hedge leg its sibling already won: not a health signal, not a
      // latency sample — it only frees the queue slot.
      break;
  }
  if (breakers_.enabled()) {
    // Served = success; device error or in-queue expiry = failure (both
    // mean the node is not delivering within the deadline). Sheds and
    // cancels say nothing about the node itself.
    if (result.outcome == OutcomeKind::kServed) {
      breakers_.record(shard, node, true);
    } else if (result.outcome == OutcomeKind::kFailed ||
               result.outcome == OutcomeKind::kTimedOut) {
      breakers_.record(shard, node, false);
    }
  }
}

void ShardedClusterEngine::note_fail_kind(std::uint32_t r,
                                          std::uint8_t slot_outcome) {
  // OutcomeKind values are ordered by classification priority
  // (shed > timed out > failed), so "dominant cause" is just max.
  // kCancelled sits above kShed numerically but is *not* a failure
  // cause — a cancelled hedge leg means the sibling won — so it never
  // participates in the classification.
  if (slot_outcome == static_cast<std::uint8_t>(OutcomeKind::kCancelled)) {
    return;
  }
  if (slot_outcome > req_fail_kind_[r]) req_fail_kind_[r] = slot_outcome;
}

OutcomeKind ShardedClusterEngine::request_outcome(std::uint32_t r) const {
  if (req_ok_[r] != 0) return OutcomeKind::kServed;
  const std::uint8_t kind = req_fail_kind_[r];
  return kind == 0 ? OutcomeKind::kFailed : static_cast<OutcomeKind>(kind);
}

void ShardedClusterEngine::settle_clients(std::size_t first_req) {
  const std::size_t nreq = req_arrival_.size();
  // A round's clients are scattered across the population: start
  // loading each record a few requests before completing it.
  constexpr std::size_t kAhead = 4;
  for (std::size_t r = first_req; r < nreq; ++r) {
    if (r + kAhead < nreq) clients_.prefetch(req_client_[r + kAhead]);
    clients_.complete(req_client_[r], req_complete_[r],
                      request_outcome(static_cast<std::uint32_t>(r)));
  }
}

void ShardedClusterEngine::sample_epoch_depth(sim::SimTime t1) {
  // Every drain folded its server's high-water into the shard's slot,
  // and a drain runs its server idle, so no server holds a depth the
  // slots have not seen.
  std::uint64_t depth = 0;
  for (std::uint64_t& shard_depth : shard_epoch_depth_) {
    depth = std::max(depth, shard_depth);
    shard_depth = 0;
  }
  depth_timeline_.push_back(DepthSample{t1, depth});
}

void ShardedClusterEngine::fail_read(std::uint32_t r) {
  ++stats_.failed_reads;
  req_ok_[r] = 0;
  req_complete_[r] = sim::min(req_t_[r], deadline_of(r));
}

void ShardedClusterEngine::try_emit_failover(std::uint32_t r) {
  const std::uint16_t i = req_next_cand_[r];
  if (i >= req_ncand_[r] || req_t_[r] >= deadline_of(r)) {
    fail_read(r);
    return;
  }
  if (req_attempts_[r] > 0 && !failover_budget_.try_spend()) {
    ++stats_.retries_denied;
    fail_read(r);
    return;
  }
  const NodeId node = req_cand_[static_cast<std::size_t>(r) * leg_stride_ + i];
  req_next_cand_[r] = i + 1;
  ++req_attempts_[r];
  emit(node, kRead, r, 0, req_t_[r]);
  next_pending_.push_back(r);
}

void ShardedClusterEngine::combine_wave0(std::size_t first_req) {
  const std::size_t nreq = req_arrival_.size();
  const bool classify = serving();
  for (std::uint32_t r = static_cast<std::uint32_t>(first_req); r < nreq;
       ++r) {
    if (!req_is_read_[r]) {
      combine_write(r);
      continue;
    }
    const sim::SimTime deadline = deadline_of(r);
    const std::size_t base = static_cast<std::size_t>(r) * leg_stride_;
    if (req_hedged_[r]) {
      if (classify) {
        // Deferred backup leg: the primary has run, so the cancel fuse
        // is known — a timely primary win cancels the backup the moment
        // it would be pointless, a primary miss lets it run clean. The
        // backup still *issues* at arrival (the hedger did not wait for
        // the primary verdict; the engine merely learned it first), so
        // its queueing starts where a real hedge's would.
        const bool k0 = leg_ok_[base] != 0;
        const sim::SimTime c0 = leg_complete_[base];
        req_hedge_cancel_[r] = k0 && c0 <= deadline
                                   ? c0
                                   : sim::SimTime::infinity();
        req_attempts_[r] = 2;
        req_next_cand_[r] = 2;
        emit(req_cand_[base + 1], kRead, r, 1, req_arrival_[r]);
        next_pending_.push_back(r);
        continue;
      }
      settle_hedge(r);  // immediate mode ran both legs in this wave
      continue;
    }
    const bool k0 = leg_ok_[base] != 0;
    const sim::SimTime c0 = leg_complete_[base];
    if (k0 && c0 <= deadline) {
      req_ok_[r] = 1;
      req_complete_[r] = c0;
    } else if (k0) {
      // The data arrived late; any retry would start later still.
      ++stats_.deadline_misses;
      if (classify) {
        note_fail_kind(r, static_cast<std::uint8_t>(OutcomeKind::kTimedOut));
      }
      fail_read(r);
    } else {
      if (classify) note_fail_kind(r, leg_outcome_[base]);
      req_t_[r] = c0;
      try_emit_failover(r);
    }
  }
}

void ShardedClusterEngine::settle_hedge(std::uint32_t r) {
  const sim::SimTime deadline = deadline_of(r);
  const std::size_t base = static_cast<std::size_t>(r) * leg_stride_;
  const bool k0 = leg_ok_[base] != 0;
  const bool k1 = leg_ok_[base + 1] != 0;
  const sim::SimTime c0 = leg_complete_[base];
  const sim::SimTime c1 = leg_complete_[base + 1];
  const bool ok0 = k0 && c0 <= deadline;
  const bool ok1 = k1 && c1 <= deadline;
  if (ok0 || ok1) {
    req_ok_[r] = 1;
    req_complete_[r] = ok0 && (!ok1 || c0 <= c1) ? c0 : c1;
    if (!ok0 || (ok1 && c1 < c0)) ++stats_.hedge_wins;
    return;
  }
  if ((k0 && c0 > deadline) || (k1 && c1 > deadline)) {
    ++stats_.deadline_misses;
  }
  if (serving()) {
    note_fail_kind(r, k0 ? static_cast<std::uint8_t>(OutcomeKind::kTimedOut)
                         : leg_outcome_[base]);
    note_fail_kind(r, k1 ? static_cast<std::uint8_t>(OutcomeKind::kTimedOut)
                         : leg_outcome_[base + 1]);
  }
  // Both hedge legs failed: fail over from the third replica, starting
  // when the earlier leg reported.
  req_t_[r] = sim::min(c0, c1);
  try_emit_failover(r);
}

void ShardedClusterEngine::combine_failover_wave() {
  const bool classify = serving();
  for (const std::uint32_t r : pending_) {
    const sim::SimTime deadline = deadline_of(r);
    const std::size_t base = static_cast<std::size_t>(r) * leg_stride_;
    if (classify && req_hedged_[r] == 1) {
      // Deferred hedge: both legs have now run — the same two-leg
      // combine immediate mode does in wave 0. Mark the hedge settled
      // so a further failover of this request takes the single-leg path.
      req_hedged_[r] = 2;
      settle_hedge(r);
      continue;
    }
    const bool ok = leg_ok_[base] != 0;
    const sim::SimTime complete = leg_complete_[base];
    if (ok && complete <= deadline) {
      req_ok_[r] = 1;
      req_complete_[r] = complete;
      if (req_attempts_[r] > 1) ++stats_.read_failovers;
    } else if (ok) {
      ++stats_.deadline_misses;
      if (classify) {
        note_fail_kind(r, static_cast<std::uint8_t>(OutcomeKind::kTimedOut));
      }
      fail_read(r);
    } else {
      if (classify) note_fail_kind(r, leg_outcome_[base]);
      req_t_[r] = complete;
      try_emit_failover(r);
    }
  }
}

void ShardedClusterEngine::combine_write(std::uint32_t r) {
  const sim::SimTime deadline = deadline_of(r);
  const std::size_t base = static_cast<std::size_t>(r) * leg_stride_;
  std::vector<sim::SimTime>& acks = ack_scratch_;
  acks.clear();
  sim::SimTime latest = req_arrival_[r];
  const bool classify = serving();
  for (std::uint16_t leg = 0; leg < req_nlegs_[r]; ++leg) {
    const bool ok = leg_ok_[base + leg] != 0;
    const sim::SimTime complete = leg_complete_[base + leg];
    if (ok && complete <= deadline) {
      acks.push_back(complete);
    } else if (ok) {
      ++stats_.deadline_misses;
      if (classify) {
        note_fail_kind(r, static_cast<std::uint8_t>(OutcomeKind::kTimedOut));
      }
    } else if (classify) {
      note_fail_kind(r, leg_outcome_[base + leg]);
    }
    latest = sim::max(latest, sim::min(complete, deadline));
  }
  if (acks.size() >= write_quorum_) {
    std::sort(acks.begin(), acks.end());
    req_ok_[r] = 1;
    req_complete_[r] = acks[write_quorum_ - 1];
    return;
  }
  ++stats_.quorum_losses;
  ++stats_.failed_writes;
  req_ok_[r] = 0;
  req_complete_[r] = latest;
}

void ShardedClusterEngine::barrier_control(sim::SimTime t1) {
  // Probe results first: a node readmitted this epoch must not be
  // re-drained by the alert its probe just acknowledged.
  const std::size_t nprobes = probe_node_.size();
  for (std::size_t p = 0; p < nprobes; ++p) {
    const NodeId id = probe_node_[p];
    if (probe_ok_[p] != 0 && (probe_complete_[p] - probe_issue_[p]) <=
                                 config_.balancer.probe_ok_latency) {
      health_[id] = NodeHealth::kHealthy;
      next_probe_[id] = sim::SimTime::infinity();
      detectors_[id].acknowledge();
      ++stats_.readmits;
    } else {
      next_probe_[id] = probe_issue_[p] + config_.balancer.probe_interval;
    }
  }
  // Detector -> drain, applied once per barrier. Chaos flap windows
  // override the detector verdict: kForceDown drains a healthy node as
  // if a (false-positive) alert fired, kSuppress swallows real alerts
  // (false negative) so traffic keeps hitting the sick node.
  const std::size_t n = devices_.size();
  for (std::size_t id = 0; id < n; ++id) {
    const auto flap = static_cast<resilience::ChaosFlapMode>(chaos_flap_[id]);
    if (flap == resilience::ChaosFlapMode::kForceDown) {
      if (health_[id] == NodeHealth::kHealthy) {
        health_[id] = NodeHealth::kDrained;
        ++stats_.drains;
        next_probe_[id] = t1 + config_.balancer.probe_interval;
      }
      continue;
    }
    if (!detectors_[id].alerted()) continue;
    if (flap == resilience::ChaosFlapMode::kSuppress) continue;
    if (health_[id] != NodeHealth::kHealthy) continue;
    health_[id] = NodeHealth::kDrained;
    ++stats_.drains;
    next_probe_[id] =
        detectors_[id].alert_time() + config_.balancer.probe_interval;
  }
  // Breaker transitions happen only here, at the single-threaded
  // barrier: wave shards record outcomes into owner-exclusive epoch
  // counters, and this settles them into open/half-open/closed state.
  if (breakers_.enabled()) breakers_.update(t1);
}

void ShardedClusterEngine::account_epoch_slo() {
  const std::size_t nreq = req_arrival_.size();
  if (!serving()) {
    for (std::size_t r = 0; r < nreq; ++r) {
      if (req_ok_[r] != 0) {
        slo_->record_success(req_arrival_[r],
                             req_complete_[r] - req_arrival_[r]);
      } else {
        slo_->record_failure(req_arrival_[r]);
      }
    }
    return;
  }
  for (std::size_t r = 0; r < nreq; ++r) {
    const OutcomeKind outcome =
        request_outcome(static_cast<std::uint32_t>(r));
    slo_->record_outcome(req_arrival_[r], outcome,
                         req_complete_[r] - req_arrival_[r]);
    switch (outcome) {
      case OutcomeKind::kServed: break;
      case OutcomeKind::kFailed: ++error_requests_; break;
      case OutcomeKind::kTimedOut: ++timed_out_requests_; break;
      case OutcomeKind::kShed: ++shed_requests_; break;
      case OutcomeKind::kCancelled: break;  // unreachable for requests
    }
  }
}

void ShardedClusterEngine::chaos_touch(NodeId node) {
  if (chaos_touched_[node]) return;
  chaos_touched_[node] = 1;
  chaos_touched_list_.push_back(node);
}

void ShardedClusterEngine::chaos_node_down(NodeId node, bool down) {
  chaos_touch(node);
  // A counter, not a flag: overlapping crash windows from independent
  // schedules compose — the node recovers when the last window closes.
  if (down) {
    ++chaos_down_[node];
  } else if (chaos_down_[node] > 0) {
    --chaos_down_[node];
  }
}

void ShardedClusterEngine::chaos_set_flap(NodeId node,
                                          resilience::ChaosFlapMode mode) {
  chaos_touch(node);
  chaos_flap_[node] = static_cast<std::uint8_t>(mode);
}

void ShardedClusterEngine::chaos_set_service_scale(NodeId node, double scale) {
  chaos_touch(node);
  if (serving()) servers_[node].set_service_scale(scale);
}

}  // namespace deepnote::cluster
