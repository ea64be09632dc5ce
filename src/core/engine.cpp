#include "annsim/core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <chrono>
#include <functional>
#include <mutex>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "annsim/common/backoff.hpp"
#include "annsim/common/error.hpp"
#include "annsim/common/log.hpp"
#include "annsim/common/timer.hpp"
#include "annsim/common/topk.hpp"
#include "annsim/core/dataset_transfer.hpp"
#include "annsim/core/protocol.hpp"
#include "annsim/recovery/checkpoint.hpp"
#include "annsim/segment/segmented_index.hpp"

namespace annsim::core {

namespace {

/// The one mapping from engine config to local-index params. build() then
/// seeds HNSW per partition; restored replicas carry params in their image.
LocalIndexParams local_index_params(const EngineConfig& config) {
  LocalIndexParams lp;
  lp.kind = config.local_index;
  lp.hnsw = config.hnsw;
  lp.ivfpq = config.ivfpq;
  lp.metric = config.hnsw.metric;
  lp.segment_delta_capacity = config.segment_delta_capacity;
  lp.quantize_frozen = config.quantize_frozen;
  lp.float_cache_fraction = config.float_cache_fraction;
  return lp;
}

using std::chrono::microseconds;

/// The one deadline of a write-round or replica-stream wait: the failure-
/// detection deadline, floored at 1 s.
microseconds control_deadline(const EngineConfig& config) {
  return microseconds(
      std::llround(std::max(config.result_timeout_ms, 1000.0) * 1000.0));
}

}  // namespace

// Validate outside the SPMD region: a rank that throws mid-collective would
// leave its peers blocked, as in real MPI. Field-specific messages so a
// misconfigured caller learns which knob is wrong, not just that something is.
void validate_engine_config(const EngineConfig& config) {
  ANNSIM_CHECK_MSG(config.n_workers >= 1,
                   "n_workers must be nonzero: the engine needs at least one "
                   "worker process");
  ANNSIM_CHECK_MSG(std::has_single_bit(config.n_workers),
                   "n_workers must be a power of two (got "
                       << config.n_workers << ")");
  ANNSIM_CHECK_MSG(config.replication >= 1,
                   "replication must be nonzero (r=1 means no replication)");
  ANNSIM_CHECK_MSG(config.replication <= config.n_workers,
                   "replication (" << config.replication
                                   << ") cannot exceed n_workers ("
                                   << config.n_workers
                                   << "): a workgroup has at most P members");
  ANNSIM_CHECK_MSG(config.n_probe >= 1,
                   "n_probe must be nonzero: every query probes at least one "
                   "partition");
  ANNSIM_CHECK_MSG(config.threads_per_worker >= 1,
                   "threads_per_worker must be nonzero");
  if (config.strategy == DispatchStrategy::kMultipleOwner) {
    ANNSIM_CHECK_MSG(!config.one_sided && !config.exact_routing,
                     "multiple-owner mode supports two-sided single-pass only");
  }
  ANNSIM_CHECK_MSG(simd::is_true_metric(config.hnsw.metric),
                   "VP-tree partitioning requires a true metric (L2 or L1)");
  if (config.local_index == LocalIndexKind::kIvfPq) {
    ANNSIM_CHECK_MSG(config.hnsw.metric == simd::Metric::kL2,
                     "IVF-PQ local indexes support L2 only");
  }
  if (config.local_index == LocalIndexKind::kHnsw) {
    ANNSIM_CHECK_MSG(config.segment_delta_capacity >= 1,
                     "segment_delta_capacity must be nonzero: the mutable "
                     "delta needs room for at least one streamed insert");
  }
  if (config.quantize_frozen) {
    ANNSIM_CHECK_MSG(config.local_index == LocalIndexKind::kHnsw,
                     "quantize_frozen requires the HNSW local index "
                     "(quantization happens when segments freeze)");
    ANNSIM_CHECK_MSG(config.hnsw.metric == simd::Metric::kL2 ||
                         config.hnsw.metric == simd::Metric::kInnerProduct,
                     "quantize_frozen supports L2 and InnerProduct only");
    ANNSIM_CHECK_MSG(config.float_cache_fraction >= 0.0 &&
                         config.float_cache_fraction <= 1.0,
                     "float_cache_fraction must be within [0, 1]");
  }
  ANNSIM_CHECK_MSG(config.result_timeout_ms >= 0.0,
                   "result_timeout_ms cannot be negative (0 disables failure "
                   "detection)");
  if (config.result_timeout_ms > 0.0) {
    ANNSIM_CHECK_MSG(config.strategy == DispatchStrategy::kMasterWorker,
                     "result_timeout_ms (failure detection) requires the "
                     "master-worker dispatch strategy");
    ANNSIM_CHECK_MSG(!config.exact_routing,
                     "result_timeout_ms (failure detection) does not support "
                     "exact_routing's two-phase protocol");
  }
  ANNSIM_CHECK_MSG(
      config.fault.drop_probability >= 0.0 && config.fault.drop_probability <= 1.0,
      "fault.drop_probability must be within [0, 1]");
  ANNSIM_CHECK_MSG(config.fault.delay_probability >= 0.0 &&
                       config.fault.delay_probability <= 1.0,
                   "fault.delay_probability must be within [0, 1]");
  ANNSIM_CHECK_MSG(config.fault.delay.count() >= 0,
                   "fault.delay cannot be negative");
  ANNSIM_CHECK_MSG(config.fault.duplicate_probability >= 0.0 &&
                       config.fault.duplicate_probability <= 1.0,
                   "fault.duplicate_probability must be within [0, 1]");
  ANNSIM_CHECK_MSG(config.fault.reorder_probability >= 0.0 &&
                       config.fault.reorder_probability <= 1.0,
                   "fault.reorder_probability must be within [0, 1]");
  if (config.fault.enabled()) {
    // Only plans that can actually fire need the failure detector: a killed
    // (or dropped-on) worker is silent, and the non-detect search master
    // blocks forever on the missing result. Plans whose every trigger sits at
    // kNeverFires merely arm the injector plumbing — annsim::explore uses
    // such plans to turn the write plane's recv_for deadlines into schedule
    // choice points — and cannot silence anyone, so they are safe without
    // detection (the write plane's recv_for keeps its 1s floor regardless).
    bool can_fire = config.fault.drop_probability > 0.0 ||
                    config.fault.delay_probability > 0.0 ||
                    config.fault.duplicate_probability > 0.0 ||
                    config.fault.reorder_probability > 0.0;
    for (const mpi::KillRule& kill : config.fault.kills) {
      can_fire = can_fire || kill.after_ops != mpi::kNeverFires ||
                 kill.at_step != mpi::kNeverFires;
    }
    for (const mpi::DiskFaultRule& df : config.fault.disk_faults) {
      can_fire = can_fire || df.at_lsn != mpi::kNeverFires;
    }
    ANNSIM_CHECK_MSG(!can_fire || config.result_timeout_ms > 0.0,
                     "fault injection without failure detection would hang the "
                     "master: set result_timeout_ms > 0");
    for (const mpi::KillRule& kill : config.fault.kills) {
      ANNSIM_CHECK_MSG(kill.rank >= 1 && kill.rank <= int(config.n_workers),
                       "fault.kills rank " << kill.rank
                                           << " must name a worker rank in [1, "
                                           << config.n_workers
                                           << "] (rank 0 is the master)");
    }
    for (const mpi::DiskFaultRule& df : config.fault.disk_faults) {
      ANNSIM_CHECK_MSG(df.rank >= 1 && df.rank <= int(config.n_workers),
                       "fault.disk_faults rank "
                           << df.rank << " must name a worker rank in [1, "
                           << config.n_workers << "] (rank 0 is the master)");
    }
    ANNSIM_CHECK_MSG(config.fault.disk_faults.empty() || !config.wal_dir.empty(),
                     "fault.disk_faults target the write-ahead log: set "
                     "wal_dir");
  }
  if (!config.wal_dir.empty()) {
    ANNSIM_CHECK_MSG(config.local_index == LocalIndexKind::kHnsw,
                     "wal_dir (durable writes) requires the HNSW local index "
                     "— the read-only kinds cannot replay writes");
  }
  ANNSIM_CHECK_MSG(config.checkpoint_every_rounds >= 1,
                   "checkpoint_every_rounds must be nonzero (1 = every write "
                   "round)");
}

DistributedAnnEngine::DistributedAnnEngine(const data::Dataset* base,
                                           EngineConfig config)
    : base_(base), config_(std::move(config)) {
  ANNSIM_CHECK(base_ != nullptr);
  validate_engine_config(config_);
  ANNSIM_CHECK_MSG(base_->size() >= config_.n_workers * 2,
                   "dataset too small for the requested partition count");
  config_.partitioner.metric = config_.hnsw.metric;
}

DistributedAnnEngine::~DistributedAnnEngine() = default;

const vptree::PartitionVpTree& DistributedAnnEngine::router() const {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  return *router_;
}

std::vector<std::size_t> DistributedAnnEngine::partition_sizes() const {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  return build_stats_.partition_sizes;
}

// ----------------------------------------------------------------- build ---

void DistributedAnnEngine::build() {
  ANNSIM_CHECK_MSG(!router_.has_value(), "engine already built");
  // Re-validate at build time: the config travels through save/load and
  // default construction, so the constructor check alone is not airtight.
  validate_engine_config(config_);
  const std::size_t P = config_.n_workers;
  const std::size_t n = base_->size();
  workers_.clear();
  workers_.resize(P);
  partition_last_lsn_.assign(P, 0);

  std::vector<double> vp_seconds(P, 0.0), hnsw_seconds(P, 0.0),
      repl_seconds(P, 0.0);
  std::vector<std::size_t> part_sizes(P, 0);
  std::vector<std::byte> tree_bytes;

  WallTimer total_timer;
  run_phase(nullptr, [&](mpi::Comm& world) {
    const int wr = world.rank();
    mpi::Comm grp = world.split(wr == 0 ? 0 : 1);

    if (wr == 0) {
      // Master: receive the assembled routing tree from worker 0.
      mpi::Message m = world.recv(1, kTagTree);
      tree_bytes = std::move(m.payload);
      return;
    }

    const std::size_t w = std::size_t(wr) - 1;
    // Initial equi-partition of D across the P worker cores (§IV).
    data::Dataset slice = base_->slice(w * n / P, (w + 1) * n / P);

    // Algorithms 1-2: distributed VP-tree construction.
    PartitionerResult res =
        build_distributed_vp_tree(grp, std::move(slice), config_.partitioner);
    vp_seconds[w] = res.build_seconds;
    ANNSIM_CHECK(res.partition_id == PartitionId(w));
    if (grp.rank() == 0) {
      world.send(0, kTagTree, res.serialized_tree);
    }

    // Local index over the owned partition (HNSW by default; §VI allows
    // any algorithm here).
    WallTimer hnsw_timer;
    Replica primary;
    primary.data = std::make_unique<data::Dataset>(std::move(res.partition));
    LocalIndexParams lp = local_index_params(config_);
    lp.hnsw.seed = Rng(config_.seed).split(w).next();
    if (config_.parallel_local_build && config_.threads_per_worker > 1) {
      // The paper's hybrid model: each MPI process builds its local index
      // with an OpenMP-style thread team.
      ThreadPool pool(config_.threads_per_worker);
      primary.index = build_local_index(primary.data.get(), lp, &pool);
    } else {
      primary.index = build_local_index(primary.data.get(), lp);
    }
    hnsw_seconds[w] = hnsw_timer.seconds();
    part_sizes[w] = primary.data->size();
    if (primary.index->segmented() != nullptr) {
      // An HNSW (segmented) index owns a copy of its rows, so keep the
      // replica's Dataset an empty husk (dim only) rather than storing them
      // twice; replication and checkpointing ship the index image, which is
      // self-contained.
      primary.data = std::make_unique<data::Dataset>(0, base_->dim());
    }

    // §IV-C2: replicate partition w onto its workgroup
    // W_w = {w, w+1, ..., w+r-1 mod P}.
    WallTimer repl_timer;
    const std::size_t r = config_.replication;
    if (r > 1) {
      BinaryWriter pack;
      write_replica(pack, PartitionId(w), primary);
      for (std::size_t j = 1; j < r; ++j) {
        const int dest = int((w + j) % P);
        grp.send(dest, kTagReplica, pack.bytes());
      }
      for (std::size_t j = 1; j < r; ++j) {
        mpi::Message m = grp.recv(mpi::kAnySource, kTagReplica);
        BinaryReader rd(m.payload);
        workers_[w].emplace(read_replica(rd, base_->dim()));
      }
    }
    repl_seconds[w] = repl_timer.seconds();
    workers_[w].emplace(PartitionId(w), std::move(primary));
  });

  BinaryReader rd(tree_bytes);
  router_.emplace(vptree::PartitionVpTree::deserialize(rd));

  build_stats_.total_seconds = total_timer.seconds();
  build_stats_.vp_tree_seconds = *std::max_element(vp_seconds.begin(), vp_seconds.end());
  build_stats_.hnsw_seconds = *std::max_element(hnsw_seconds.begin(), hnsw_seconds.end());
  build_stats_.replication_seconds =
      *std::max_element(repl_seconds.begin(), repl_seconds.end());
  build_stats_.partition_sizes = std::move(part_sizes);

  health_.reset(P);
  // Streamed inserts draw ids from one monotone counter that starts past
  // every build-corpus id, so a live insert can never shadow a built row.
  GlobalId max_id = 0;
  for (const GlobalId id : base_->ids()) max_id = std::max(max_id, id);
  next_stream_id_ = base_->size() == 0 ? 0 : max_id + 1;
  open_wals();         // no-op unless wal_dir is configured
  save_checkpoints();  // no-op unless checkpoint_dir is configured
#ifdef __GLIBC__
  // The rank threads park after the build instead of exiting, and a parked
  // thread keeps glibc's per-thread cache of small freed chunks, which pins
  // the freed heap pages around them. Return the build's transient heap.
  malloc_trim(0);
#endif
}

// ------------------------------------------------------------------ plan ---

std::vector<std::vector<PartitionId>> DistributedAnnEngine::plan_queries(
    const data::Dataset& queries) const {
  const auto& tree = router();
  std::vector<std::vector<PartitionId>> plans(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    plans[q] = tree.route_topk(queries.row(q),
                               std::min(config_.n_probe, tree.n_partitions()))
                   .partitions;
  }
  return plans;
}

// ---------------------------------------------------------------- search ---

data::KnnResults DistributedAnnEngine::search(
    const data::Dataset& queries, std::size_t k, std::size_t ef,
    SearchStats* stats, const QueryDoneFn& on_query_done,
    std::span<const EffortOverride> efforts) {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  ANNSIM_CHECK(queries.dim() == router_->dim());
  ANNSIM_CHECK(k >= 1);
  ANNSIM_CHECK_MSG(efforts.empty() || efforts.size() == queries.size(),
                   "efforts must be empty or hold one override per query (got "
                       << efforts.size() << " for " << queries.size()
                       << " queries)");
  ANNSIM_CHECK_MSG(
      efforts.empty() || config_.strategy == DispatchStrategy::kMasterWorker,
      "per-query effort overrides require the master-worker dispatch strategy");

  data::KnnResults results(queries.size());
  SearchStats st;
  st.jobs_per_worker.assign(config_.n_workers, 0);

  WallTimer timer;
  // One injector is shared across every search runtime so fault state (op
  // budgets, death flags, the step clock) persists between batches: a rank
  // killed in batch n is still silent in batch n+1 unless heal() revived it.
  const std::shared_ptr<mpi::FaultInjector> injector = shared_injector();
  if (config_.fault.enabled()) {
    // Log the seed so any chaos run is replayable bit-for-bit.
    ANNSIM_INFO("fault injection armed: seed=" << config_.fault.seed
                << " drop_p=" << config_.fault.drop_probability
                << " delay_p=" << config_.fault.delay_probability
                << " kills=" << config_.fault.kills.size()
                << " result_timeout_ms=" << config_.result_timeout_ms);
  }

  // Liveness carries over from previous batches: already-dead workers are
  // skipped at dispatch (and not re-counted in workers_failed).
  const std::size_t P = config_.n_workers;
  if (health_.workers.size() != P) health_.reset(P);
  std::vector<char> alive(P, 1);
  for (std::size_t w = 0; w < P; ++w) alive[w] = health_.alive(w) ? 1 : 0;
  std::vector<std::uint64_t> heartbeats(P, 0);

  {
    // Reads of the worker stores (every rank thread touches workers_) run
    // under the shared topology lock so a concurrent write/compact round can
    // interleave but heal()'s store mutations cannot.
    std::shared_lock topology(sync_->topology);
    // The result transport is chosen once, for master and workers together:
    // RMA accumulation into masked slots, or two-sided result messages.
    // Exact routing needs each phase-1 result's k-th distance, so it always
    // runs two-sided (as does multiple-owner mode, by validation).
    const SlotLayout layout{k, P};
    const SlotLayout* slots =
        config_.one_sided && !config_.exact_routing ? &layout : nullptr;
    st.traffic = run_phase(injector, [&](mpi::Comm& world) {
      if (config_.strategy == DispatchStrategy::kMultipleOwner) {
        if (world.rank() == 0) {
          master_search_owner(world, queries, k, ef, results, st, on_query_done);
        } else {
          worker_search_owner(world, k);
        }
      } else {
        if (world.rank() == 0) {
          master_search(world, queries, k, ef, slots, results, st, on_query_done,
                        injector.get(), alive, heartbeats, efforts);
        } else {
          worker_search(world, slots);
        }
      }
    });
  }

  // Fold the batch's outcome into the persistent health record — after
  // the run so every rank thread has been joined and touching worker
  // stores cannot race. A newly dead worker's in-memory replicas die with
  // it; heal() restores them from checkpoint or from a surviving peer. A
  // batch that heard no beacon and saw no death (every batch without
  // detection) has nothing to fold and skips the exclusive lock.
  const bool observed =
      std::count(alive.begin(), alive.end(), 0) > 0 ||
      std::any_of(heartbeats.begin(), heartbeats.end(),
                  [](std::uint64_t n) { return n > 0; });
  if (observed) {
    std::unique_lock topology(sync_->topology);  // workers_[w].clear() below
    for (std::size_t w = 0; w < P; ++w) {
      health_.workers[w].heartbeats += heartbeats[w];
      if (!alive[w] &&
          health_.workers[w].state == recovery::WorkerState::kAlive) {
        health_.workers[w].state = recovery::WorkerState::kDead;
        ++health_.workers[w].deaths;
        workers_[w].clear();
      }
    }
  }

  st.total_seconds = timer.seconds();
  if (stats != nullptr) *stats = st;
  return results;
}

check::CheckReport DistributedAnnEngine::check_report() const {
  std::lock_guard lock(sync_->check);
  return check_report_;
}

mpi::TrafficStats DistributedAnnEngine::run_phase(
    std::shared_ptr<mpi::FaultInjector> injector,
    const std::function<void(mpi::Comm&)>& body) {
  mpi::Runtime rt(int(config_.n_workers) + 1, std::move(injector));
  if (schedule_ != nullptr) rt.set_schedule(schedule_);
  if (config_.mpi_check || check::env_check_enabled()) {
    check::CheckOptions o;
    o.enabled = true;
    o.fatal = config_.check_fatal;
    // The engine's control plane: termination, completion notices, liveness
    // beacons, write orders and their acks. Data-plane code must never send
    // these plainly (or swallow them through a wildcard) — the reserved-tag
    // and wildcard rules enforce it.
    o.reserved_tags = {kTagEoq, kTagDone, kTagHeartbeat, kTagWrite,
                       kTagWriteAck};
    if (config_.result_timeout_ms > 0.0 || config_.fault.enabled()) {
      // With failure detection armed, these are by-design abandonable: a
      // worker declared dead (perhaps too eagerly) keeps sending results,
      // done notices, and beacons that nobody will ever drain. Residue is
      // still counted in the report, just not a violation. The write plane's
      // tags join the list because a rank killed mid-round leaves its order
      // (or its ack) undrained by design. The injector alone (no detection)
      // is already enough to abandon: every write-round wait is bounded,
      // and an expired deadline — wall-clock or schedule-forced — walks
      // away from the peer's in-flight order or ack. Found by
      // annsim::explore: gating this list on detection only made every
      // schedule that fires a round timeout a false unmatched-send
      // violation.
      o.best_effort_tags = {kTagResult, kTagDone, kTagHeartbeat, kTagWrite,
                            kTagWriteAck};
    }
    rt.configure_check(o);
  }
  // The phase's check report folds into the engine's on both paths: a
  // fatal checker throws out of run() after finalizing.
  const auto absorb = [&] {
    if (!rt.check_enabled()) return;
    std::lock_guard lock(sync_->check);
    check_report_.merge(rt.check_report());
  };
  try {
    rt.run(body);
  } catch (...) {
    absorb();
    throw;
  }
  absorb();
  return rt.total_traffic();
}

std::shared_ptr<mpi::FaultInjector> DistributedAnnEngine::shared_injector() {
  // Searches (scheduler thread) and writes/compactions (writer or background
  // threads) may race on first use; the lock makes creation once-only.
  std::lock_guard lock(sync_->injector);
  if (injector_ == nullptr && config_.fault.enabled()) {
    mpi::FaultPlan plan = config_.fault;
    // The control plane rides the reliable fabric: End-of-Queries (a worker
    // that never hears it spins forever), heartbeats (a dropped beat would
    // read as a death), and replica streams (healing must complete under
    // drop_probability). The write plane's two tags are control plane too:
    // a dropped order would silently fork replicas of the same partition.
    // Death still silences all of them — see fault.hpp.
    plan.reliable_tags.push_back(kTagEoq);
    plan.reliable_tags.push_back(kTagHeartbeat);
    plan.reliable_tags.push_back(kTagReplica);
    plan.reliable_tags.push_back(kTagWrite);
    plan.reliable_tags.push_back(kTagWriteAck);
    injector_ = std::make_shared<mpi::FaultInjector>(
        plan, int(config_.n_workers) + 1);
  }
  return injector_;
}

// ---------------------------------------------------------------- writes ---
//
// Streaming mutability (segmented local indexes only). insert(), remove()
// and compact() each run one write round, a small SPMD phase on the same
// simulated runtime as searches: the master ships one WriteOrder to every
// live worker on the reserved kTagWrite and collects one WriteAck each.
// Rounds serialize behind sync_->write_api and hold the topology lock
// shared, so search batches (also shared) overlap freely while heal()
// (exclusive) can never observe a half-applied round.

std::vector<char> DistributedAnnEngine::write_plane_alive(
    const mpi::FaultInjector* injector) const {
  // ClusterHealth belongs to the search plane's thread; the injector's death
  // flags are atomics and give the same answer sooner (a kill is visible
  // here before any batch observes the silence).
  std::vector<char> alive(config_.n_workers, 1);
  if (injector != nullptr) {
    for (std::size_t w = 0; w < config_.n_workers; ++w) {
      alive[w] = injector->is_dead(int(w) + 1) ? 0 : 1;
    }
  }
  return alive;
}

WriteStats DistributedAnnEngine::insert(const data::Dataset& rows) {
  return apply_writes(&rows, {});
}

WriteStats DistributedAnnEngine::remove(std::span<const GlobalId> ids) {
  return apply_writes(nullptr, ids);
}

WriteStats DistributedAnnEngine::apply_writes(
    const data::Dataset* rows, std::span<const GlobalId> deletes) {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  ANNSIM_CHECK_MSG(config_.local_index == LocalIndexKind::kHnsw,
                   "streaming writes need local_index=hnsw; '"
                       << local_index_kind_name(config_.local_index)
                       << "' replicas are frozen");
  ANNSIM_CHECK_MSG(config_.strategy == DispatchStrategy::kMasterWorker,
                   "streaming writes support master-worker dispatch only");
  if (rows != nullptr) {
    ANNSIM_CHECK_MSG(rows->dim() == router_->dim(),
                     "insert dim " << rows->dim() << " != index dim "
                                   << router_->dim());
  }

  std::lock_guard api(sync_->write_api);
  const std::size_t P = config_.n_workers;
  const std::size_t r = config_.replication;
  WriteStats ws;

  const std::vector<char> alive = write_plane_alive(shared_injector().get());

  // Route every row to its nearest partition and fan it out to the live
  // members of that partition's workgroup {p, ..., p+r-1 mod P} — the same
  // round-robin assignment dispatch uses, so reads find the row wherever
  // they fail over.
  std::vector<WriteOrder> orders(P);
  // Which workers each row was shipped to — after the round, a row counts as
  // acked (durable, with a WAL) iff at least one of them acked.
  std::vector<std::vector<std::size_t>> row_targets;
  if (rows != nullptr) {
    ws.assigned_ids.reserve(rows->size());
    row_targets.resize(rows->size());
    for (std::size_t i = 0; i < rows->size(); ++i) {
      const GlobalId id = next_stream_id_++;
      // One LSN per logical row: every replica logs the same sequence
      // number, so checkpoint watermarks compare across workers.
      const std::uint64_t lsn = next_lsn_++;
      ws.assigned_ids.push_back(id);
      const PartitionId p = router_->route_topk(rows->row(i), 1).partitions[0];
      const float* v = rows->row(i);
      bool delivered = false;
      for (std::size_t j = 0; j < r; ++j) {
        const std::size_t w = (std::size_t(p) + j) % P;
        if (!alive[w]) continue;
        orders[w].rows.push_back(
            {p, id, lsn, std::vector<float>(v, v + rows->dim())});
        row_targets[i].push_back(w);
        delivered = true;
      }
      if (delivered) {
        partition_last_lsn_[std::size_t(p)] =
            std::max(partition_last_lsn_[std::size_t(p)], lsn);
      } else {
        ++ws.dropped_rows;
      }
    }
  }
  std::vector<std::uint64_t> del_lsns;
  del_lsns.reserve(deletes.size());
  for (std::size_t i = 0; i < deletes.size(); ++i) {
    del_lsns.push_back(next_lsn_++);
  }
  if (!del_lsns.empty()) {
    // Deletes broadcast to every workgroup — any partition may hold a hit,
    // so the whole ring advances to the round's last delete LSN.
    for (auto& last : partition_last_lsn_) {
      last = std::max(last, del_lsns.back());
    }
  }
  for (WriteOrder& order : orders) {
    order.ids.assign(deletes.begin(), deletes.end());
    order.lsns = del_lsns;
  }

  const std::vector<std::optional<WriteAck>> acks = write_round(orders, alive);
  for (std::size_t w = 0; w < P; ++w) {
    if (acks[w].has_value()) {
      ws.inserted_replicas += acks[w]->inserted;
      ws.erased_replicas += acks[w]->erased;
      ws.max_delta_fill = std::max(ws.max_delta_fill, acks[w]->max_delta_fill);
    } else if (alive[w]) {
      ws.all_acked = false;  // targeted but silent: died (or crashed) mid-round
    }
  }
  ws.row_acked.assign(ws.assigned_ids.size(), 0);
  for (std::size_t i = 0; i < row_targets.size(); ++i) {
    for (const std::size_t w : row_targets[i]) {
      if (acks[w].has_value()) {
        ws.row_acked[i] = 1;
        break;
      }
    }
  }
  // Keep durable snapshots current so a heal mid-stream replays the writes
  // (incremental: frozen segment files are skipped, only deltas rewrite).
  // With a WAL the un-checkpointed tail is replayable, so the cadence can
  // stretch to every Nth round.
  if (!config_.checkpoint_dir.empty() &&
      ++rounds_since_checkpoint_ >= config_.checkpoint_every_rounds) {
    save_checkpoints();
    rounds_since_checkpoint_ = 0;
  }
  return ws;
}

std::uint64_t DistributedAnnEngine::compact() {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  ANNSIM_CHECK_MSG(config_.local_index == LocalIndexKind::kHnsw,
                   "compact() needs local_index=hnsw; '"
                       << local_index_kind_name(config_.local_index)
                       << "' has no delta tier");
  std::lock_guard api(sync_->write_api);
  // One LSN for the whole compaction order: the compact-mark frames let
  // replay distinguish "records absorbed into a re-frozen segment" from a
  // genuinely missing tail.
  WriteOrder order;
  order.compact_lsn = next_lsn_++;
  std::uint64_t total = 0;
  for (const auto& ack :
       write_round(std::vector<WriteOrder>(config_.n_workers, order),
                   write_plane_alive(shared_injector().get()))) {
    if (ack.has_value()) total += ack->compactions;
  }
  if (total > 0 && !config_.checkpoint_dir.empty()) save_checkpoints();
  return total;
}

std::vector<std::optional<WriteAck>> DistributedAnnEngine::write_round(
    const std::vector<WriteOrder>& orders, const std::vector<char>& alive) {
  const std::size_t P = config_.n_workers;
  const std::shared_ptr<mpi::FaultInjector> injector = shared_injector();
  // A concurrent chaos search can advance the kill clock mid-round, and a
  // dead rank is silent on every tag (reliable ones included) — so with an
  // injector armed every wait of the round is bounded.
  const microseconds timeout =
      injector != nullptr ? control_deadline(config_) : microseconds(0);
  std::vector<std::optional<WriteAck>> acks(P);
  std::shared_lock topology(sync_->topology);
  run_phase(injector, [&](mpi::Comm& world) {
    if (world.rank() == 0) {
      for (std::size_t w = 0; w < P; ++w) {
        if (!alive[w]) continue;
        (void)world.isend_reserved(int(w) + 1, kTagWrite,
                                   encode_write_order(orders[w]));
      }
      for (std::size_t w = 0; w < P; ++w) {
        if (!alive[w]) continue;
        // A missing ack means the worker died mid-round; the search plane
        // will observe the silence and fold the death.
        auto m = recv_within(world, int(w) + 1, kTagWriteAck, timeout);
        if (m.has_value()) acks[w] = decode_write_ack(m->payload);
      }
      return;
    }
    const std::size_t w = std::size_t(world.rank()) - 1;
    if (!alive[w]) return;
    const auto m = recv_within(world, 0, kTagWrite, timeout);
    if (!m.has_value()) return;  // killed mid-round
    const WriteOrder order = decode_write_order(m->payload);
    WriteAck ack;
    WorkerStore& store = workers_[w];
    recovery::WriteLog* wal = w < wals_.size() ? wals_[w].get() : nullptr;
    for (const auto& row : order.rows) {
      auto it = store.find(row.partition);
      // A missing partition means an observed death cleared this store and
      // heal() has not run yet; the row lands on the other replicas.
      if (it == store.end()) continue;
      it->second.index->insert(row.vec, row.id);
      if (wal != nullptr) {
        wal->append_insert(row.lsn, row.partition, row.id, row.vec);
      }
      ++ack.inserted;
    }
    for (std::size_t d = 0; d < order.ids.size(); ++d) {
      for (auto& [pid, rep] : store) {
        if (rep.index->erase(order.ids[d])) {
          if (wal != nullptr) {
            wal->append_delete(order.lsns[d], pid, order.ids[d]);
          }
          ++ack.erased;
        }
      }
    }
    for (const auto& [pid, rep] : store) {
      ack.max_delta_fill = std::max(ack.max_delta_fill,
                                    std::uint64_t(rep.index->delta_fill()));
    }
    // Round watermark: a mark frame at the highest LSN this worker was sent,
    // even when none of its frames reached it (rows for cleared partitions,
    // deletes with no local hit). The synced mark is the worker's proof of
    // currency — heal() compares last_synced_lsn() against each partition's
    // last issued LSN to decide whether this log can replay the tail or the
    // replica must stream from a peer.
    if (wal != nullptr) {
      std::uint64_t round_mark = 0;
      for (const auto& row : order.rows) {
        round_mark = std::max(round_mark, row.lsn);
      }
      if (!order.lsns.empty()) {
        round_mark = std::max(round_mark, order.lsns.back());
      }
      if (round_mark > 0) {
        wal->append_compact_mark(round_mark, PartitionId(0));
      }
    }
    if (order.compact_lsn != 0) {
      for (auto& [pid, rep] : store) {
        // Single-threaded rebuild keeps compaction deterministic; searches
        // keep serving the old view until the hot-swap publish.
        if (rep.index->compact(nullptr)) {
          if (wal != nullptr) wal->append_compact_mark(order.compact_lsn, pid);
          ++ack.compactions;
        }
      }
    }
    // Durability point: group-commit the round's log frames (one fsync)
    // before acking. A failed commit — disk fault fired — means the worker
    // dies silently; the master observes the missing ack exactly like an
    // MPI death.
    const auto disk_fault = [inj = injector.get(), rank = world.rank()](
                                std::uint64_t lsn)
        -> std::optional<mpi::DiskFaultKind> {
      if (inj == nullptr) return std::nullopt;
      return inj->disk_fault_at(rank, lsn);
    };
    if (wal != nullptr && !wal->commit(disk_fault)) {
      return;  // acked ⇒ durable, so no ack here
    }
    world.send_reserved(0, kTagWriteAck, encode_write_ack(ack));
  });
  return acks;
}

std::size_t DistributedAnnEngine::max_delta_fill() const {
  std::shared_lock topology(sync_->topology);
  std::size_t fill = 0;
  for (const WorkerStore& store : workers_) {
    for (const auto& [pid, rep] : store) {
      fill = std::max(fill, rep.index->delta_fill());
    }
  }
  return fill;
}

CompressionStats DistributedAnnEngine::compression_stats() const {
  std::shared_lock topology(sync_->topology);
  CompressionStats cs;
  for (const WorkerStore& store : workers_) {
    for (const auto& [pid, rep] : store) {
      const segment::SegmentedIndex* seg = rep.index->segmented();
      if (seg == nullptr) continue;
      const segment::SegmentedStats s = seg->stats();
      cs.quant_rows += s.quant_rows;
      cs.quant_resident_bytes += s.quant_resident_bytes;
      cs.quant_float_bytes += s.quant_float_bytes;
      cs.quant_cached_rows += s.quant_cached_rows;
      cs.rerank_exact += s.rerank_exact;
      cs.rerank_coded += s.rerank_coded;
    }
  }
  return cs;
}

// ------------------------------------------------------------ recovery ----

std::size_t DistributedAnnEngine::live_replicas(PartitionId p) const {
  std::size_t n = 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (health_.workers.size() == workers_.size() && !health_.alive(w)) continue;
    if (workers_[w].count(p) != 0) ++n;
  }
  return n;
}

std::vector<PartitionId> DistributedAnnEngine::under_replicated_partitions()
    const {
  std::vector<PartitionId> out;
  for (std::size_t p = 0; p < config_.n_workers; ++p) {
    if (live_replicas(PartitionId(p)) < config_.replication) {
      out.push_back(PartitionId(p));
    }
  }
  return out;
}

void DistributedAnnEngine::save_checkpoints() const {
  if (config_.checkpoint_dir.empty()) return;
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  // One checkpointer at a time (a background compaction and a heal may both
  // want to snapshot), reading a stable topology.
  std::lock_guard ckpt(sync_->checkpoint);
  std::shared_lock topology(sync_->topology);
  const recovery::CheckpointStore store(config_.checkpoint_dir);
  const std::size_t P = config_.n_workers;
  // A dead worker's in-memory replica froze at the moment of death and may
  // be missing writes (and, worse, tombstones) the surviving copy kept
  // absorbing — snapshotting it would let a later heal-from-checkpoint
  // resurrect deleted ids. Prefer copies on live workers; fall back to a
  // dead host only when no live copy exists.
  std::shared_ptr<mpi::FaultInjector> inj;
  {
    std::lock_guard lock(sync_->injector);
    inj = injector_;
  }
  const std::vector<char> alive = write_plane_alive(inj.get());
  // Committed per-partition watermarks from this pass, for post-commit WAL GC.
  std::vector<std::uint64_t> part_watermark(P, 0);
  std::vector<char> part_committed(P, 0);
  for (std::size_t p = 0; p < P; ++p) {
    const Replica* rep = nullptr;
    std::size_t rep_w = P;
    const Replica* stale = nullptr;
    std::size_t stale_w = P;
    for (std::size_t j = 0; j < config_.replication && rep == nullptr; ++j) {
      const std::size_t w = (p + j) % P;
      const auto it = workers_[w].find(PartitionId(p));
      if (it == workers_[w].end()) continue;
      if (alive[w]) {
        rep = &it->second;
        rep_w = w;
      } else if (stale == nullptr) {
        stale = &it->second;
        stale_w = w;
      }
    }
    if (rep == nullptr) {
      rep = stale;
      rep_w = stale_w;
    }
    if (rep == nullptr) continue;  // every copy lost; nothing to snapshot
    recovery::CheckpointMeta meta;
    meta.partition = std::uint32_t(p);
    meta.dim = router_->dim();
    meta.index_kind = std::uint8_t(config_.local_index);
    if (const segment::SegmentedIndex* seg = rep->index->segmented()) {
      // Segmented replicas checkpoint incrementally: immutable segment
      // files are written once and skipped thereafter; only the small
      // delta (plus tombstones) rewrites per round.
      //
      // The watermark is the snapshot source's last *synced* LSN: the
      // worker applies a record before logging it and logs before syncing,
      // so synced ⇒ applied ⇒ in this snapshot. Under-claiming is safe
      // (replay is idempotent); over-claiming would lose records, and the
      // apply-log-sync order rules it out.
      std::uint64_t watermark = 0;
      if (rep_w < wals_.size() && wals_[rep_w] != nullptr) {
        watermark = wals_[rep_w]->last_synced_lsn();
      }
      meta.count = rep->index->size();
      const auto parts = seg->snapshot_parts();
      store.save_segmented(meta, parts.header, parts.segments, parts.delta,
                           watermark);
      part_watermark[p] = watermark;
      part_committed[p] = 1;
    } else {
      meta.count = rep->data->size();
      store.save(meta, pack_dataset(*rep->data), rep->index->to_bytes());
    }
  }
  // Post-commit WAL GC: a worker's log file is droppable once every
  // partition the worker hosts has a committed checkpoint at or past the
  // file's last record. An unsnapshotted hosted partition (watermark 0)
  // blocks GC for that worker entirely — conservative, and only reachable
  // when every copy of a partition is already lost.
  for (std::size_t w = 0; w < P && w < wals_.size(); ++w) {
    if (wals_[w] == nullptr) continue;
    std::uint64_t gc_mark = ~std::uint64_t{0};
    bool hosts_any = false;
    for (const auto& [pid, hosted] : workers_[w]) {
      hosts_any = true;
      gc_mark = std::min(
          gc_mark, part_committed[pid] ? part_watermark[pid] : std::uint64_t{0});
    }
    if (hosts_any && gc_mark > 0) (void)wals_[w]->gc(gc_mark);
  }
}

recovery::HealReport DistributedAnnEngine::heal() {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  // Exclusive: healing rebuilds worker stores in place, which must not
  // overlap a search/write/compact round reading them.
  std::unique_lock topology(sync_->topology);
  WallTimer timer;
  recovery::HealReport report;
  const std::size_t P = config_.n_workers;
  if (health_.workers.size() != P) health_.reset(P);
  const std::vector<std::size_t> dead = health_.dead_workers();
  if (dead.empty()) {
    report.seconds = timer.seconds();
    return report;
  }

  // 1. Resurrect the ranks: clear death flags and disarm fired kill rules so
  //    the revived worker isn't re-killed by its own schedule next batch.
  for (const std::size_t w : dead) {
    if (injector_ != nullptr) injector_->revive(int(w) + 1);
    // A disk fault may have left the worker's WAL with a torn or corrupt
    // tail; recover() truncates back to the last valid frame and clears the
    // crashed flag so the log accepts appends again.
    if (w < wals_.size() && wals_[w] != nullptr) {
      report.wal_truncated_tail_bytes += wals_[w]->recover();
    }
  }

  // 2. Replicas each revived worker must get back: worker w belongs to the
  //    workgroups of partitions {w, w-1, ..., w-r+1 mod P} (Algorithm 5).
  struct RestoreJob {
    std::size_t worker;
    PartitionId partition;
  };
  std::vector<RestoreJob> plan;
  for (const std::size_t w : dead) {
    for (std::size_t j = 0; j < config_.replication; ++j) {
      const auto p = PartitionId((w + P - j) % P);
      if (workers_[w].count(p) == 0) plan.push_back({w, p});
    }
  }

  // 3. Prefer the checkpoint store: a durable snapshot restores locally with
  //    no cluster traffic at all (the LANNS model — reload, don't rebuild).
  std::vector<RestoreJob> stream_plan;
  // The first surviving peer that hosts the job's partition and can still
  // stream it, or none.
  const auto peer_source =
      [&](const RestoreJob& job) -> std::optional<std::size_t> {
    for (std::size_t v = 0; v < P; ++v) {
      if (v == job.worker || workers_[v].count(job.partition) == 0) continue;
      if (!health_.alive(v)) continue;
      // A source whose pending kill trigger already tripped would silently
      // eat the stream; probe the reliable gate before trusting it.
      if (injector_ != nullptr && !injector_->allow_reliable_op(int(v) + 1)) {
        continue;
      }
      return v;
    }
    return std::nullopt;
  };
  if (!config_.checkpoint_dir.empty()) {
    const recovery::CheckpointStore store(config_.checkpoint_dir);
    for (const RestoreJob& job : plan) {
      if (!store.has(job.partition)) {
        stream_plan.push_back(job);
        continue;
      }
      // Checkpoint + own-WAL replay only reconstructs what this worker was
      // alive to log. Writes the cluster acked after it died — late inserts,
      // and deletes whose tombstones would otherwise vanish, resurrecting
      // the rows — exist only on the surviving peers' replicas. Replay the
      // local log when it covers the partition's last issued LSN (it is
      // "longer" than anything a peer could add); otherwise stream the
      // current state from a peer, keeping the stale checkpoint only as a
      // last resort when every peer is gone.
      if (job.worker < wals_.size() && wals_[job.worker] != nullptr &&
          job.partition < partition_last_lsn_.size() &&
          wals_[job.worker]->last_synced_lsn() <
              partition_last_lsn_[job.partition] &&
          peer_source(job).has_value()) {
        stream_plan.push_back(job);
        continue;
      }
      recovery::CheckpointStore::LoadedPartition loaded;
      try {
        loaded = store.load(job.partition);
      } catch (const Error& e) {
        // A flipped byte or truncated file in the on-disk checkpoint
        // (checksum mismatch, short read) must not sink the replica:
        // name the failing partition and fall back to streaming it from
        // a surviving peer instead.
        ANNSIM_WARN("checkpoint for partition "
                    << job.partition << " is corrupt (" << e.what()
                    << "); falling back to peer-stream heal");
        stream_plan.push_back(job);
        continue;
      }
      ANNSIM_CHECK_MSG(loaded.meta.dim == router_->dim(),
                       "checkpoint dim " << loaded.meta.dim
                                         << " does not match the router's "
                                         << router_->dim());
      ANNSIM_CHECK_MSG(
          loaded.meta.index_kind == std::uint8_t(config_.local_index),
          "checkpoint index kind does not match the engine config");
      workers_[job.worker].emplace(
          job.partition, restore_replica(loaded.data_bytes, loaded.index_bytes,
                                         router_->dim()));
      ++report.replicas_restored_from_checkpoint;
      // The checkpoint only covers records up to its committed watermark;
      // replay the worker's own WAL tail past it (filtered to this
      // partition) so acked writes that landed between the last checkpoint
      // and the crash survive. Peer-streamed replicas skip this — the
      // surviving peer is already current.
      report.wal_replayed_records += replay_wal_into_worker(
          job.worker, loaded.wal_watermark, job.partition);
    }
  } else {
    stream_plan = std::move(plan);
  }

  // 4. No checkpoint: stream each missing replica from a surviving copy over
  //    the p2p data plane (kTagReplica, reliable — re-replication completes
  //    even while drop_probability is eating data-plane traffic).
  struct Transfer {
    std::size_t src;
    std::size_t dst;
    PartitionId partition;
  };
  std::vector<Transfer> transfers;
  for (const RestoreJob& job : stream_plan) {
    const std::optional<std::size_t> src = peer_source(job);
    if (!src.has_value()) {
      ++report.replicas_unrecoverable;  // partition lost for good
      continue;
    }
    transfers.push_back({*src, job.worker, job.partition});
  }
  if (!transfers.empty()) {
    const microseconds stream_timeout = control_deadline(config_);
    run_phase(shared_injector(), [&](mpi::Comm& world) {
      if (world.rank() == 0) return;
      const std::size_t me = std::size_t(world.rank()) - 1;
      // Sends first (they never block in-process), then receives in plan
      // order — per-source FIFO makes the pairing deterministic.
      for (const Transfer& tr : transfers) {
        if (tr.src != me) continue;
        BinaryWriter pack;
        write_replica(pack, tr.partition, workers_[me].at(tr.partition));
        world.send(int(tr.dst) + 1, kTagReplica, pack.bytes());
      }
      for (const Transfer& tr : transfers) {
        if (tr.dst != me) continue;
        auto m = world.recv_for(int(tr.src) + 1, kTagReplica, stream_timeout);
        ANNSIM_CHECK_MSG(m.has_value(), "replica stream of partition "
                                            << tr.partition << " from worker "
                                            << tr.src << " timed out");
        BinaryReader rd(m->payload);
        auto restored = read_replica(rd, router_->dim());
        ANNSIM_CHECK(restored.first == tr.partition);
        workers_[me].emplace(std::move(restored));
      }
    });
    report.replicas_restored_from_peer = transfers.size();
  }

  // 5. Mark the workers alive again; the next batch's dispatch re-runs the
  //    round-robin workgroup assignment over the restored copies naturally.
  for (const std::size_t w : dead) {
    health_.workers[w].state = recovery::WorkerState::kAlive;
    ++health_.workers[w].revivals;
    ++report.workers_revived;
  }

  report.seconds = timer.seconds();
  ANNSIM_INFO(recovery::to_string(report));
  return report;
}

// ------------------------------------------------------------ durability ---

void DistributedAnnEngine::open_wals() {
  if (config_.wal_dir.empty()) return;
  const std::size_t P = config_.n_workers;
  if (wals_.size() == P) return;  // already attached
  recovery::WalOptions opt;
  opt.group_commit = config_.wal_group_commit;
  wals_.clear();
  wals_.reserve(P);
  for (std::size_t w = 0; w < P; ++w) {
    const auto dir = std::filesystem::path(config_.wal_dir) /
                     ("worker_" + std::to_string(w));
    wals_.push_back(std::make_unique<recovery::WriteLog>(dir.string(), opt));
  }
}

void DistributedAnnEngine::enable_wal(const std::string& dir,
                                      bool group_commit) {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  ANNSIM_CHECK_MSG(!dir.empty(), "enable_wal: directory must be non-empty");
  ANNSIM_CHECK_MSG(config_.local_index == LocalIndexKind::kHnsw,
                   "the write-ahead log requires the HNSW local index");
  std::lock_guard write_api(sync_->write_api);
  std::unique_lock topology(sync_->topology);
  config_.wal_dir = dir;
  config_.wal_group_commit = group_commit;
  wals_.clear();
  open_wals();
  // Replay anything a previous process left behind (no-op on fresh dirs):
  // records past the current LSN edge re-enter the replicas idempotently.
  const std::uint64_t edge = next_lsn_ > 0 ? next_lsn_ - 1 : 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    (void)replay_wal_into_worker(w, edge);
  }
}

bool DistributedAnnEngine::contains(GlobalId id) const {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  std::shared_lock topology(sync_->topology);
  for (const WorkerStore& store : workers_) {
    for (const auto& [pid, rep] : store) {
      const segment::SegmentedIndex* seg = rep.index->segmented();
      if (seg != nullptr && seg->contains(id)) return true;
    }
  }
  return false;
}

std::size_t DistributedAnnEngine::replay_wal_into_worker(
    std::size_t w, std::uint64_t after_lsn,
    std::optional<PartitionId> only_partition) {
  if (w >= wals_.size() || wals_[w] == nullptr) return 0;
  const std::vector<recovery::WalRecord> tail = wals_[w]->read_tail(after_lsn);
  if (tail.empty()) return 0;
  WorkerStore& store = workers_[w];
  std::size_t replayed = 0;
  for (const recovery::WalRecord& rec : tail) {
    // Advance the global streams past everything the log proves was acked,
    // even for records we skip below — a fresh write must never reuse an
    // LSN or a global id that a replayed record already owns.
    next_lsn_ = std::max(next_lsn_, rec.lsn + 1);
    if (rec.type != recovery::WalRecordType::kCompactMark &&
        rec.partition < partition_last_lsn_.size()) {
      partition_last_lsn_[rec.partition] =
          std::max(partition_last_lsn_[rec.partition], rec.lsn);
    }
    if (only_partition.has_value() && PartitionId(rec.partition) != *only_partition) {
      continue;
    }
    switch (rec.type) {
      case recovery::WalRecordType::kInsert: {
        next_stream_id_ = std::max(next_stream_id_, rec.id + 1);
        ++replayed;
        auto it = store.find(PartitionId(rec.partition));
        if (it == store.end()) break;  // replica lost; peers carry the row
        const segment::SegmentedIndex* seg = it->second.index->segmented();
        // Idempotent by global id: a record at or below the snapshot's
        // watermark (or replayed twice) is already live in the replica.
        if (seg != nullptr && seg->contains(rec.id)) break;
        it->second.index->insert(rec.vec, rec.id);
        break;
      }
      case recovery::WalRecordType::kDelete: {
        ++replayed;
        auto it = store.find(PartitionId(rec.partition));
        // erase() is naturally idempotent: a second pass is a miss.
        if (it != store.end()) (void)it->second.index->erase(rec.id);
        break;
      }
      case recovery::WalRecordType::kCompactMark:
        break;  // ordering mark only; compaction state rebuilds lazily
    }
  }
  return replayed;
}

// -------------------------------------------------------------- replicas ---

void DistributedAnnEngine::write_replica(BinaryWriter& w, PartitionId pid,
                                         const Replica& rep) {
  w.write(pid);
  w.write_vector(pack_dataset(*rep.data));
  w.write_vector(rep.index->to_bytes());
}

std::pair<PartitionId, DistributedAnnEngine::Replica>
DistributedAnnEngine::read_replica(BinaryReader& r, std::size_t dim) const {
  const auto pid = r.read<PartitionId>();
  const auto data_bytes = r.read_vector<std::byte>();
  const auto index_bytes = r.read_vector<std::byte>();
  return {pid, restore_replica(data_bytes, index_bytes, dim)};
}

DistributedAnnEngine::Replica DistributedAnnEngine::restore_replica(
    std::span<const std::byte> data_bytes,
    std::span<const std::byte> index_bytes, std::size_t dim) const {
  Replica rep;
  rep.data = std::make_unique<data::Dataset>(unpack_dataset(data_bytes, dim));
  rep.index = local_index_from_bytes(index_bytes, rep.data.get(),
                                     local_index_params(config_));
  return rep;
}

// ----------------------------------------------------------- persistence ---

void DistributedAnnEngine::save(const std::string& path) const {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  std::shared_lock topology(sync_->topology);
  BinaryWriter w;
  w.write(std::uint32_t{0x414E4945});  // "ANIE"
  w.write(std::uint64_t(config_.n_workers));
  w.write(std::uint64_t(config_.replication));
  w.write(std::uint64_t(config_.n_probe));
  w.write(std::uint8_t(config_.one_sided ? 1 : 0));
  w.write(std::uint8_t(config_.exact_routing ? 1 : 0));
  w.write(std::uint8_t(config_.strategy == DispatchStrategy::kMultipleOwner));
  w.write(std::uint64_t(config_.threads_per_worker));
  w.write(std::uint8_t(config_.local_index));
  w.write(std::uint64_t(config_.hnsw.M));
  w.write(std::uint64_t(config_.hnsw.ef_construction));
  w.write(std::uint64_t(config_.hnsw.ef_search));
  w.write(config_.hnsw.level_mult);
  w.write(config_.hnsw.seed);
  w.write(std::int32_t(config_.hnsw.metric));
  w.write(config_.seed);
  w.write(std::uint64_t(config_.ivfpq.nlist));
  w.write(std::uint64_t(config_.ivfpq.nprobe));
  w.write(std::uint64_t(config_.ivfpq.pq.m));
  w.write(std::uint64_t(config_.ivfpq.pq.ks));
  w.write(std::uint64_t(config_.ivfpq.pq.train_iters));
  w.write(config_.ivfpq.pq.seed);
  w.write(std::uint64_t(config_.ivfpq.coarse_iters));
  w.write(config_.ivfpq.seed);
  w.write(std::uint64_t(config_.segment_delta_capacity));
  w.write(std::uint8_t(config_.quantize_frozen ? 1 : 0));
  w.write(config_.float_cache_fraction);
  w.write(next_stream_id_);  // id stream survives save/load, never reused
  w.write(next_lsn_);        // LSN stream too: WAL replay resumes past it

  BinaryWriter tree;
  router_->serialize(tree);
  w.write_vector(tree.take());

  w.write(std::uint64_t(workers_.size()));
  for (const auto& store : workers_) {
    w.write(std::uint64_t(store.size()));
    for (const auto& [pid, rep] : store) write_replica(w, pid, rep);
  }

  // Build stats travel along so a loaded engine reports sane metadata.
  w.write(build_stats_.total_seconds);
  w.write(build_stats_.vp_tree_seconds);
  w.write(build_stats_.hnsw_seconds);
  w.write(build_stats_.replication_seconds);
  w.write_vector(build_stats_.partition_sizes);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ANNSIM_CHECK_MSG(out.good(), "cannot open for writing: " << path);
  out.write(reinterpret_cast<const char*>(w.bytes().data()),
            std::streamsize(w.size()));
  ANNSIM_CHECK(out.good());
}

DistributedAnnEngine DistributedAnnEngine::load(
    const std::string& path, const std::string& checkpoint_dir,
    const std::string& wal_dir) {
  std::ifstream in(path, std::ios::binary);
  ANNSIM_CHECK_MSG(in.good(), "cannot open for reading: " << path);
  in.seekg(0, std::ios::end);
  std::vector<std::byte> bytes(std::size_t(in.tellg()));
  in.seekg(0, std::ios::beg);
  in.read(reinterpret_cast<char*>(bytes.data()), std::streamsize(bytes.size()));
  ANNSIM_CHECK(in.good());

  BinaryReader r(bytes);
  ANNSIM_CHECK_MSG(r.read<std::uint32_t>() == 0x414E4945,
                   "bad engine file magic");
  DistributedAnnEngine eng;
  eng.config_.n_workers = r.read<std::uint64_t>();
  eng.config_.replication = r.read<std::uint64_t>();
  eng.config_.n_probe = r.read<std::uint64_t>();
  eng.config_.one_sided = r.read<std::uint8_t>() != 0;
  eng.config_.exact_routing = r.read<std::uint8_t>() != 0;
  eng.config_.strategy = r.read<std::uint8_t>() != 0
                             ? DispatchStrategy::kMultipleOwner
                             : DispatchStrategy::kMasterWorker;
  eng.config_.threads_per_worker = r.read<std::uint64_t>();
  eng.config_.local_index = LocalIndexKind(r.read<std::uint8_t>());
  eng.config_.hnsw.M = r.read<std::uint64_t>();
  eng.config_.hnsw.ef_construction = r.read<std::uint64_t>();
  eng.config_.hnsw.ef_search = r.read<std::uint64_t>();
  eng.config_.hnsw.level_mult = r.read<double>();
  eng.config_.hnsw.seed = r.read<std::uint64_t>();
  eng.config_.hnsw.metric = simd::Metric(r.read<std::int32_t>());
  eng.config_.seed = r.read<std::uint64_t>();
  eng.config_.ivfpq.nlist = r.read<std::uint64_t>();
  eng.config_.ivfpq.nprobe = r.read<std::uint64_t>();
  eng.config_.ivfpq.pq.m = r.read<std::uint64_t>();
  eng.config_.ivfpq.pq.ks = r.read<std::uint64_t>();
  eng.config_.ivfpq.pq.train_iters = r.read<std::uint64_t>();
  eng.config_.ivfpq.pq.seed = r.read<std::uint64_t>();
  eng.config_.ivfpq.coarse_iters = r.read<std::uint64_t>();
  eng.config_.ivfpq.seed = r.read<std::uint64_t>();
  eng.config_.segment_delta_capacity = r.read<std::uint64_t>();
  eng.config_.quantize_frozen = r.read<std::uint8_t>() != 0;
  eng.config_.float_cache_fraction = r.read<double>();
  eng.next_stream_id_ = r.read<GlobalId>();
  eng.next_lsn_ = r.read<std::uint64_t>();

  auto tree_bytes = r.read_vector<std::byte>();
  BinaryReader tr(tree_bytes);
  eng.router_.emplace(vptree::PartitionVpTree::deserialize(tr));

  const auto n_workers = r.read<std::uint64_t>();
  ANNSIM_CHECK(n_workers == eng.config_.n_workers);
  eng.workers_.resize(n_workers);
  eng.partition_last_lsn_.assign(n_workers, 0);
  for (auto& store : eng.workers_) {
    const auto n_replicas = r.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < n_replicas; ++i) {
      store.emplace(eng.read_replica(r, eng.router_->dim()));
    }
  }

  eng.build_stats_.total_seconds = r.read<double>();
  eng.build_stats_.vp_tree_seconds = r.read<double>();
  eng.build_stats_.hnsw_seconds = r.read<double>();
  eng.build_stats_.replication_seconds = r.read<double>();
  eng.build_stats_.partition_sizes = r.read_vector<std::size_t>();
  ANNSIM_CHECK_MSG(r.exhausted(), "trailing bytes in engine file");

  eng.health_.reset(eng.config_.n_workers);
  eng.config_.checkpoint_dir = checkpoint_dir;
  if (!wal_dir.empty()) {
    // Re-attach the WALs and replay any records past the engine file's LSN
    // edge: writes acked after the save() but before the crash live only in
    // the logs, and the ack contract says they must come back.
    ANNSIM_CHECK_MSG(eng.config_.local_index == LocalIndexKind::kHnsw,
                     "wal_dir requires the HNSW local index");
    eng.config_.wal_dir = wal_dir;
    eng.open_wals();
    const std::uint64_t edge = eng.next_lsn_ > 0 ? eng.next_lsn_ - 1 : 0;
    for (std::size_t w = 0; w < eng.workers_.size(); ++w) {
      (void)eng.replay_wal_into_worker(w, edge);
    }
  }
  eng.save_checkpoints();  // no-op without a checkpoint dir
  return eng;
}

}  // namespace annsim::core
