#include "annsim/core/kd_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <mutex>

#include "annsim/common/backoff.hpp"
#include "annsim/common/error.hpp"
#include "annsim/common/thread_cohort.hpp"
#include "annsim/common/timer.hpp"
#include "annsim/common/topk.hpp"
#include "annsim/core/protocol.hpp"

namespace annsim::core {

DistributedKdEngine::DistributedKdEngine(const data::Dataset* base,
                                         KdEngineConfig config)
    : base_(base), config_(config) {
  ANNSIM_CHECK(base_ != nullptr);
  ANNSIM_CHECK_MSG(std::has_single_bit(config_.n_workers),
                   "n_workers must be a power of two");
  ANNSIM_CHECK(config_.threads_per_worker >= 1);
  ANNSIM_CHECK(base_->size() >= config_.n_workers * 2);
}

DistributedKdEngine::~DistributedKdEngine() = default;

const kdtree::PartitionKdTree& DistributedKdEngine::router() const {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  return *router_;
}

std::vector<std::size_t> DistributedKdEngine::partition_sizes() const {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  std::vector<std::size_t> sizes;
  sizes.reserve(shards_.size());
  for (const auto& s : shards_) sizes.push_back(s.data->size());
  return sizes;
}

void DistributedKdEngine::build() {
  ANNSIM_CHECK_MSG(!router_.has_value(), "engine already built");
  WallTimer timer;

  kdtree::PartitionKdTreeParams params;
  params.target_partitions = config_.n_workers;
  params.metric = config_.metric;
  std::vector<PartitionId> assignment;
  router_.emplace(kdtree::PartitionKdTree::build(*base_, params, &assignment));

  // Group rows per partition and build the local exact indexes in parallel
  // rank threads (mirrors PANDA's per-processor local KD sub-trees).
  std::vector<std::vector<std::size_t>> rows(config_.n_workers);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    rows[assignment[i]].push_back(i);
  }
  shards_.clear();
  shards_.resize(config_.n_workers);

  mpi::Runtime rt(int(config_.n_workers));
  rt.run([&](mpi::Comm& comm) {
    const auto w = std::size_t(comm.rank());
    Shard shard;
    shard.data = std::make_unique<data::Dataset>(base_->subset(rows[w]));
    kdtree::KdTreeParams kp;
    kp.leaf_size = config_.leaf_size;
    kp.metric = config_.metric;
    shard.index = std::make_unique<kdtree::KdTree>(shard.data.get(), kp);
    shards_[w] = std::move(shard);
  });

  build_seconds_ = timer.seconds();
}

data::KnnResults DistributedKdEngine::search(const data::Dataset& queries,
                                             std::size_t k,
                                             KdSearchStats* stats) {
  ANNSIM_CHECK_MSG(router_.has_value(), "engine not built yet");
  ANNSIM_CHECK(queries.dim() == base_->dim());
  ANNSIM_CHECK(k >= 1);

  data::KnnResults results(queries.size());
  KdSearchStats st;
  st.jobs_per_worker.assign(config_.n_workers, 0);

  WallTimer timer;
  mpi::Runtime rt(int(config_.n_workers) + 1);
  rt.run([&](mpi::Comm& world) {
    if (world.rank() == 0) {
      master_search(world, queries, k, results, st);
    } else {
      worker_search(world);
    }
  });
  st.total_seconds = timer.seconds();
  if (stats != nullptr) *stats = st;
  return results;
}

void DistributedKdEngine::master_search(mpi::Comm& world,
                                        const data::Dataset& queries,
                                        std::size_t k,
                                        data::KnnResults& results,
                                        KdSearchStats& stats) {
  const std::size_t P = config_.n_workers;
  const std::size_t nq = queries.size();
  const auto& tree = *router_;
  PhaseTimer route_t, dispatch_t, merge_t;

  auto dispatch_job = [&](std::uint32_t qid, PartitionId d) {
    QueryJob job;
    job.query_id = qid;
    job.partition = d;
    job.k = std::uint32_t(k);
    job.reply_to = 0;
    const float* qv = queries.row(qid);
    job.query.assign(qv, qv + queries.dim());
    ScopedPhase p(dispatch_t);
    (void)world.isend(int(d) + 1, kTagQuery, encode_query_job(job));
  };

  std::vector<TopK> acc(nq, TopK(k));
  std::uint64_t total_jobs = 0;

  // Phase 1: the partition whose cell contains the query.
  std::vector<PartitionId> first(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    route_t.start();
    first[q] = tree.route_nearest(queries.row(q));
    route_t.stop();
    dispatch_job(std::uint32_t(q), first[q]);
    ++total_jobs;
  }
  std::vector<float> radius(nq, std::numeric_limits<float>::infinity());
  for (std::size_t i = 0; i < nq; ++i) {
    mpi::Message m = world.recv(mpi::kAnySource, kTagResult);
    ScopedPhase p(merge_t);
    LocalResult r = decode_local_result(m.payload);
    if (r.neighbors.size() >= k) radius[r.query_id] = r.neighbors[k - 1].dist;
    acc[r.query_id].merge(r.neighbors);
  }

  // Phase 2: every other partition intersecting the exact ball — the visit
  // set that explodes with dimension.
  std::uint64_t phase2_jobs = 0;
  for (std::size_t q = 0; q < nq; ++q) {
    route_t.start();
    auto parts = tree.route_ball(queries.row(q), radius[q]);
    route_t.stop();
    for (PartitionId d : parts) {
      if (d == first[q]) continue;
      dispatch_job(std::uint32_t(q), d);
      ++phase2_jobs;
    }
  }
  total_jobs += phase2_jobs;
  for (std::size_t w = 0; w < P; ++w) {
    ScopedPhase p(dispatch_t);
    (void)world.isend_reserved(int(w) + 1, kTagEoq, {});
  }
  for (std::uint64_t i = 0; i < phase2_jobs; ++i) {
    mpi::Message m = world.recv(mpi::kAnySource, kTagResult);
    ScopedPhase p(merge_t);
    LocalResult r = decode_local_result(m.payload);
    acc[r.query_id].merge(r.neighbors);
  }

  for (std::size_t w = 0; w < P; ++w) {
    mpi::Message m = world.recv(mpi::kAnySource, kTagDone);
    BinaryReader rd(m.payload);
    const auto notice = rd.read<DoneNotice>();
    stats.jobs_per_worker[std::size_t(m.source) - 1] = notice.jobs_processed;
    stats.worker_compute_seconds += notice.compute_seconds;
  }

  {
    ScopedPhase p(merge_t);
    for (std::size_t q = 0; q < nq; ++q) results[q] = acc[q].take_sorted();
  }

  stats.master_route_seconds = route_t.total_seconds();
  stats.master_dispatch_seconds = dispatch_t.total_seconds();
  stats.master_merge_seconds = merge_t.total_seconds();
  stats.total_jobs = total_jobs;
  stats.mean_partitions_per_query = nq ? double(total_jobs) / double(nq) : 0.0;
}

void DistributedKdEngine::worker_search(mpi::Comm& world) {
  const std::size_t me = std::size_t(world.rank()) - 1;
  const Shard& shard = shards_[me];

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> jobs{0};
  std::mutex agg_mu;
  double compute_s = 0.0;

  auto thread_main = [&] {
    double my_compute = 0.0;
    for (;;) {
      // Tag set instead of a wildcard: name exactly what this loop is
      // willing to consume (annsim::check's wildcard-recv rule).
      mpi::Request req = world.irecv_tags(0, {kTagQuery, kTagEoq});
      Backoff backoff;
      bool cancelled = false;
      while (!req.test()) {
        if (done.load(std::memory_order_acquire)) {
          if (req.cancel()) {
            cancelled = true;
            break;
          }
        }
        backoff.pause();
      }
      if (cancelled) break;
      mpi::Message m = req.take();
      if (m.tag == kTagEoq) {
        done.store(true, std::memory_order_release);
        break;
      }
      const QueryJob job = decode_query_job(m.payload);
      ANNSIM_CHECK(job.partition == PartitionId(me));
      WallTimer tc;
      auto local = shard.index->search(job.query.data(), job.k);
      my_compute += tc.seconds();

      LocalResult r;
      r.query_id = job.query_id;
      r.partition = job.partition;
      r.neighbors = std::move(local);
      (void)world.isend(int(job.reply_to), kTagResult, encode_local_result(r));
      jobs.fetch_add(1, std::memory_order_relaxed);
    }
    std::lock_guard lk(agg_mu);
    compute_s += my_compute;
  };

  // The rank thread is member 0 of its team; the rest are borrowed.
  ThreadCohort::run(config_.threads_per_worker, [&](std::size_t) {
    try {
      thread_main();
    } catch (...) {
      // A failed member ends the team; its error reaches the caller.
      done.store(true, std::memory_order_release);
      throw;
    }
  });

  DoneNotice notice;
  notice.jobs_processed = jobs.load();
  notice.compute_seconds = compute_s;
  BinaryWriter w;
  w.write(notice);
  world.send_reserved(0, kTagDone, w.bytes());
}

}  // namespace annsim::core
